//! Execution-mode frontends of the coordinator.
//!
//! The [`Coordinator`](super::coordinator::Coordinator) drives the
//! simulation; *how* the per-processor programs are executed is abstracted
//! behind the [`Frontend`] trait:
//!
//! * [`ThreadedFrontend`] — the classic mode: one OS thread per simulated
//!   processor running an ordinary Rust closure, every operation exchanged
//!   over mpsc channels. Maximum ergonomics, poor scalability.
//! * [`DrivenFrontend`] — the event-driven mode: programs are
//!   [`ProcProgram`] state machines stepped inline by the coordinator. Zero
//!   threads, zero channel hops; this is what makes 64×64+ meshes practical.
//!
//! Both frontends produce the same round-based request schedule: a *round*
//! collects exactly one blocking operation from every runnable processor,
//! the coordinator handles them sorted by (issue time, processor id), and
//! every processor unblocked during the round issues its next operation in
//! the following round. Identical scheduling is what makes run reports of
//! the two modes bit-identical (see the parity tests in `dm-apps`).
//!
//! The gather window is also the only time a frontend sees the run's
//! [`VarStore`]: the coordinator lends it out for the duration of
//! [`Frontend::gather`], while nothing mutates it, and every read fast-path
//! hit is decided and served inside that window.

use super::program::{Op, ProcProgram, StepCtx};
use super::request::{Request, Response, TimedRequest};
use super::store::VarStore;
use crate::policy::AccessKind;
use crate::var::{Value, VarHandle};
use dm_engine::MachineConfig;
use std::sync::mpsc::{Receiver, Sender};

/// How the coordinator obtains blocking operations from the simulated
/// processors and delivers their results.
pub(crate) trait Frontend {
    /// Collect the next round of requests — exactly one per runnable
    /// processor — into `batch`. Leaves `batch` empty when every processor
    /// is blocked (waiting for a completion or finished). `store` is frozen
    /// for the duration of the call.
    fn gather(&mut self, store: &VarStore, batch: &mut Vec<TimedRequest>);

    /// Deliver the result of a blocking operation, unblocking `proc` so its
    /// next request appears in a subsequent round.
    fn respond(&mut self, proc: usize, resp: Response);

    /// Permanently remove `proc` from the schedule: its program is never
    /// stepped (or waited for) again and it owes no further requests.
    /// Called when a node failure fail-stops the resident application
    /// processor; the coordinator guarantees `respond` is never called for
    /// a killed processor afterwards.
    fn kill(&mut self, proc: usize);
}

/// Time and hits a worker accumulated over reads the threaded frontend
/// served, owed to the worker's next blocking request.
#[derive(Default)]
struct Carry {
    compute_ns: u64,
    overhead_ns: u64,
    hits: u64,
}

/// The thread-per-processor frontend (the classic DIVA execution mode).
///
/// The worker threads never see the [`VarStore`]: a [`ProcCtx`] sends every
/// read, and [`Frontend::gather`] answers the ones that hit a local copy
/// itself — value back at once, the worker keeps running, and the hit's
/// library overhead (plus whatever compute the worker reported with it) is
/// carried into the worker's next blocking request. That is what
/// [`step_to_request`] does inline, so the coordinator sees the same
/// `TimedRequest` stream from both frontends.
///
/// [`ProcCtx`]: super::proc_ctx::ProcCtx
pub(crate) struct ThreadedFrontend {
    req_rx: Receiver<TimedRequest>,
    /// Per-processor response channels; `None` once the processor was
    /// killed (dropping the sender is what unwinds its blocked thread).
    resp_tx: Vec<Option<Sender<Response>>>,
    /// Number of worker threads currently running (i.e. that will send one
    /// more request).
    active: usize,
    /// Processors killed by a node failure: their parting requests (the
    /// unwinding thread's `finish` notification) are discarded by `gather`.
    killed: Vec<bool>,
    /// Per-processor carry of served hits.
    carry: Vec<Carry>,
    /// Whether read hits bypass the coordinator.
    fast_path: bool,
    /// Library overhead of one hit.
    local_access_ns: u64,
}

impl ThreadedFrontend {
    pub(crate) fn new(
        req_rx: Receiver<TimedRequest>,
        resp_tx: Vec<Sender<Response>>,
        fast_path: bool,
        local_access_ns: u64,
    ) -> Self {
        let nprocs = resp_tx.len();
        ThreadedFrontend {
            req_rx,
            resp_tx: resp_tx.into_iter().map(Some).collect(),
            active: nprocs,
            killed: vec![false; nprocs],
            carry: (0..nprocs).map(|_| Carry::default()).collect(),
            fast_path,
            local_access_ns,
        }
    }

    fn send(&self, proc: usize, resp: Response) {
        self.resp_tx[proc]
            .as_ref()
            .expect("response to a killed processor")
            .send(resp)
            .expect("worker thread terminated while waiting for a response");
    }
}

impl Frontend for ThreadedFrontend {
    fn gather(&mut self, store: &VarStore, batch: &mut Vec<TimedRequest>) {
        while self.active > 0 {
            let mut req = self
                .req_rx
                .recv()
                .expect("a worker thread terminated without notifying the coordinator");
            let proc = req.req.proc();
            if self.killed[proc] {
                // The parting `Finish` a killed worker sends while
                // unwinding. The victim was blocked (outside the active
                // count) when it was killed, so this owes the round
                // nothing and is dropped without touching `active`.
                continue;
            }
            let hit = match req.req {
                Request::Access {
                    var,
                    kind: AccessKind::Read,
                    ..
                } if self.fast_path && store.has_copy(proc, var) => Some(var),
                _ => None,
            };
            let carry = &mut self.carry[proc];
            carry.compute_ns += req.compute_ns;
            if let Some(var) = hit {
                // A local hit: the worker stays active and owes the round
                // another request.
                carry.overhead_ns += self.local_access_ns;
                carry.hits += 1;
                self.send(proc, Response::Value(store.value(var)));
                continue;
            }
            let carry = std::mem::take(carry);
            req.compute_ns = carry.compute_ns;
            req.overhead_ns = carry.overhead_ns;
            req.hits = carry.hits;
            self.active -= 1;
            batch.push(req);
        }
    }

    fn respond(&mut self, proc: usize, resp: Response) {
        self.send(proc, resp);
        self.active += 1;
    }

    fn kill(&mut self, proc: usize) {
        self.killed[proc] = true;
        // Sever the response channel: the victim's thread — blocked in its
        // response receive, since faults only fire while every live worker
        // is blocked — unwinds on the disconnect (silently, via
        // `resume_unwind`, not the panic hook).
        self.resp_tx[proc] = None;
    }
}

/// Per-processor state of the driven frontends (serial and parallel).
pub(super) struct Slot {
    /// Result of the last completed `Read` / `Recv`, until the program takes it.
    value: Option<Value>,
    /// Result of the last completed `Alloc`.
    handle: Option<VarHandle>,
    /// Modelled computation time accumulated since the last blocking op.
    pending_compute_ns: u64,
    /// Library overhead of fast-path hits since the last blocking op.
    pending_overhead_ns: u64,
    /// Fast-path read hits since the last blocking op.
    pending_hits: u64,
}

impl Slot {
    pub(super) fn new() -> Self {
        Slot {
            value: None,
            handle: None,
            pending_compute_ns: 0,
            pending_overhead_ns: 0,
            pending_hits: 0,
        }
    }

    /// Absorb a coordinator response into the slot (the processor becomes
    /// runnable; its next step sees the stored payload).
    pub(super) fn absorb(&mut self, resp: Response) {
        match resp {
            Response::Value(v) => self.value = Some(v),
            Response::Handle(h) => self.handle = Some(h),
            Response::Done => {}
        }
    }
}

/// The run configuration every program step sees (the same for all
/// processors of a run).
#[derive(Clone, Copy)]
pub(super) struct StepEnv {
    pub nprocs: usize,
    pub mesh_dims: (usize, usize),
    pub machine: MachineConfig,
    /// Whether read hits bypass the coordinator.
    pub fast_path: bool,
}

/// Step one program until it yields a blocking operation (fast-path reads
/// and `Compute` are absorbed inline) and convert it into a request.
///
/// This is the single stepping routine of both driven frontends. It touches
/// only the processor's own program and slot plus the *borrowed* store
/// (the coordinator is quiescent while a round is gathered), which is what
/// makes a round's requests safe to produce on worker threads in any order:
/// the resulting `TimedRequest`s are identical however the round is
/// scheduled, and the coordinator's `(issue time, processor id)` sort fixes
/// the handling order afterwards.
pub(super) fn step_to_request<P: ProcProgram>(
    program: &mut P,
    slot: &mut Slot,
    proc: usize,
    env: &StepEnv,
    store: &VarStore,
) -> TimedRequest {
    let nprocs = env.nprocs;
    let req = loop {
        let mut ctx = StepCtx {
            proc,
            nprocs,
            mesh_dims: env.mesh_dims,
            machine: &env.machine,
            value: &mut slot.value,
            handle: &mut slot.handle,
            pending_compute_ns: &mut slot.pending_compute_ns,
        };
        match program.step(&mut ctx) {
            Op::Compute { ns } => slot.pending_compute_ns += ns,
            Op::Read(var) => {
                if env.fast_path && store.has_copy(proc, var) {
                    // A local hit costs only library overhead, charged to
                    // the next blocking operation.
                    slot.pending_overhead_ns += env.machine.local_access_ns();
                    slot.pending_hits += 1;
                    slot.value = Some(store.value(var));
                    continue;
                }
                break Request::Access {
                    proc,
                    var,
                    kind: AccessKind::Read,
                    value: None,
                };
            }
            Op::Write(var, value) => {
                break Request::Access {
                    proc,
                    var,
                    kind: AccessKind::Write,
                    value: Some(value),
                }
            }
            Op::Alloc { bytes, value } => break Request::Alloc { proc, bytes, value },
            Op::Lock(var) => break Request::Lock { proc, var },
            Op::Unlock(var) => break Request::Unlock { proc, var },
            Op::Free(var) => break Request::Free { proc, var },
            Op::EndEpoch => break Request::EndEpoch { proc },
            Op::Barrier => break Request::Barrier { proc },
            Op::Region(name) => break Request::Region { proc, name },
            Op::Send {
                to,
                bytes,
                tag,
                value,
            } => {
                assert!(to < nprocs, "send to non-existent processor {to}");
                break Request::Send {
                    proc,
                    to,
                    bytes,
                    tag,
                    value,
                };
            }
            Op::Recv { from, tag } => {
                assert!(from < nprocs, "receive from non-existent processor {from}");
                break Request::Recv { proc, from, tag };
            }
            Op::Done => break Request::Finish { proc },
        }
    };
    TimedRequest {
        req,
        compute_ns: std::mem::take(&mut slot.pending_compute_ns),
        overhead_ns: std::mem::take(&mut slot.pending_overhead_ns),
        hits: std::mem::take(&mut slot.pending_hits),
    }
}

/// The event-driven frontend: [`ProcProgram`] state machines stepped inline.
pub(crate) struct DrivenFrontend<P: ProcProgram> {
    programs: Vec<P>,
    slots: Vec<Slot>,
    /// Processors whose previous operation completed; stepped at the next
    /// [`Frontend::gather`].
    runnable: Vec<usize>,
    env: StepEnv,
}

impl<P: ProcProgram> DrivenFrontend<P> {
    pub(crate) fn new(programs: Vec<P>, env: StepEnv) -> Self {
        let nprocs = programs.len();
        DrivenFrontend {
            programs,
            slots: (0..nprocs).map(|_| Slot::new()).collect(),
            runnable: (0..nprocs).collect(),
            env,
        }
    }

    /// The final program states, consumed after the run completes.
    pub(crate) fn into_programs(self) -> Vec<P> {
        self.programs
    }
}

impl<P: ProcProgram> Frontend for DrivenFrontend<P> {
    fn gather(&mut self, store: &VarStore, batch: &mut Vec<TimedRequest>) {
        while let Some(proc) = self.runnable.pop() {
            let req = step_to_request(
                &mut self.programs[proc],
                &mut self.slots[proc],
                proc,
                &self.env,
                store,
            );
            batch.push(req);
        }
    }

    fn respond(&mut self, proc: usize, resp: Response) {
        self.slots[proc].absorb(resp);
        self.runnable.push(proc);
    }

    fn kill(&mut self, proc: usize) {
        // Faults fire only while every processor is blocked, so the victim
        // cannot be runnable; the retain is a cheap safety net. Its program
        // stays owned (frozen mid-operation) until `into_programs`.
        self.runnable.retain(|&p| p != proc);
    }
}
