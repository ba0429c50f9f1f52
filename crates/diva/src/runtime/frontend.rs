//! The frontends of the coordinator: who steps the programs.
//!
//! The [`Coordinator`](super::coordinator::Coordinator) drives the
//! simulation; *how* the per-processor [`ProcProgram`] state machines are
//! stepped is abstracted behind the [`Frontend`] trait:
//!
//! * [`DrivenFrontend`] — every program stepped inline by the coordinator.
//!   Zero threads, zero channel hops; this is what makes 64×64+ meshes
//!   practical.
//! * [`ParallelFrontend`](super::parallel::ParallelFrontend) — the same
//!   stepping routine, [`step_to_request`], fanned out over worker threads
//!   for large rounds.
//!
//! Both produce the same round-based request schedule: a *round* collects
//! exactly one blocking operation from every runnable processor, the
//! coordinator handles them sorted by (issue time, processor id), and every
//! processor unblocked during the round issues its next operation in the
//! following round. A closure run by
//! [`Diva::run_prototype`](crate::Diva::run_prototype) is a program like any
//! other (see [`ProcCtx`](super::proc_ctx::ProcCtx)).
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
