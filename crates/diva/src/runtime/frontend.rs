//! The stepper: who steps the programs.
//!
//! The [`Coordinator`](super::coordinator::Coordinator) drives the
//! simulation; the [`Stepper`] owns the per-processor [`ProcProgram`] state
//! machines and turns them into a round-based request schedule: a *round*
//! collects exactly one blocking operation from every runnable processor,
//! the coordinator handles them sorted by (issue time, processor id), and
//! every processor unblocked during the round issues its next operation in
//! the following round. A closure run by
//! [`Diva::run_prototype`](crate::Diva::run_prototype) is a program like any
//! other (see [`ProcCtx`](super::proc_ctx::ProcCtx)).
//!
//! The gather window is also the only time the stepper sees the run's
//! [`VarStore`]: the coordinator lends it out for the duration of
//! [`Stepper::gather`], while nothing mutates it, and every read fast-path
//! hit is decided and served inside that window.
//!
//! ## Wide rounds fan out: the round *is* the safe window
//!
//! While a round is gathered the coordinator is quiescent — no policy code
//! runs, no network state moves, no shared value changes. Each program steps
//! against its own state plus the frozen store (plain data, so `&VarStore`
//! crosses threads), so a round's requests are identical whatever order or
//! thread produces them, and the coordinator's sort — a total order, since a
//! processor contributes at most one request per round — re-serialises
//! handling deterministically. With [`DivaConfig::workers`](crate::DivaConfig)
//! above one, a wide round is therefore stepped on scoped threads, each
//! taking one contiguous range of processor ids; which thread steps a
//! program cannot matter, so the ranges need no relation to the network's
//! geometry. This is the conservative safe-window synchronisation of the
//! Chandy–Misra–Bryant family with the window placed where the simulator
//! already has a barrier, between gather and handling: within it requests
//! are causally independent by construction, across windows nothing is
//! parallelised, so no null messages are needed and bit-identity to
//! one-worker stepping is structural.
//!
//! Event-level sharding (per-partition event queues synchronised by
//! link-latency lookahead) was evaluated and rejected: the network's
//! contention model (`LinkNetwork`'s occupancy vectors) and the event
//! queue's global FIFO tie-break make delivery times depend on the *call
//! order* of `transmit`, so out-of-order handling produces different — not
//! just reordered — timings. See `docs/architecture.md` ("Parallel driven
//! backend") for the measured round-size distribution that bounds what
//! parallel gathering can win.

use super::program::{Op, ProcProgram, StepCtx};
use super::store::VarStore;
use crate::var::{Value, VarHandle};
use dm_engine::MachineConfig;

/// A blocking operation ([`Op::Compute`] never appears here) together with
/// its issuer and the locally accumulated time since the processor's
/// previous blocking operation.
#[derive(Debug)]
pub(crate) struct TimedRequest {
    /// The processor that issued the operation.
    pub proc: usize,
    /// The operation. A [`Op::Read`] here is one the fast path did not
    /// absorb; [`Op::Done`] means the program returned.
    pub op: Op,
    /// Modelled computation time accumulated via `compute()`, in ns.
    pub compute_ns: u64,
    /// Library overhead accumulated by fast-path hits, in ns.
    pub overhead_ns: u64,
    /// Number of fast-path read hits since the previous blocking operation.
    pub hits: u64,
}

/// The coordinator's answer to a blocking operation.
#[derive(Debug)]
pub(crate) enum Response {
    /// The value of a read or receive.
    Value(Value),
    /// The handle of a newly allocated variable.
    Handle(VarHandle),
    /// Completion of an operation without a payload.
    Done,
}

/// Per-processor stepping state.
#[derive(Default)]
struct Slot {
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
/// and `Compute` are absorbed inline).
///
/// It touches only the processor's own program and slot plus the *borrowed*
/// store, which is what makes a round's requests safe to produce on any
/// thread in any order (see the module docs).
fn step_to_request<P: ProcProgram>(
    program: &mut P,
    slot: &mut Slot,
    proc: usize,
    env: &StepEnv,
    store: &VarStore,
) -> TimedRequest {
    let nprocs = env.nprocs;
    let op = loop {
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
            Op::Read(var) if env.fast_path && store.has_copy(proc, var) => {
                // A local hit costs only library overhead, charged to the
                // next blocking operation.
                slot.pending_overhead_ns += env.machine.local_access_ns();
                slot.pending_hits += 1;
                slot.value = Some(store.value(var));
            }
            Op::Send { to, .. } if to >= nprocs => {
                panic!("send to non-existent processor {to}")
            }
            Op::Recv { from, .. } if from >= nprocs => {
                panic!("receive from non-existent processor {from}")
            }
            op => break op,
        }
    };
    TimedRequest {
        proc,
        op,
        compute_ns: std::mem::take(&mut slot.pending_compute_ns),
        overhead_ns: std::mem::take(&mut slot.pending_overhead_ns),
        hits: std::mem::take(&mut slot.pending_hits),
    }
}

/// Smallest round (runnable-processor count) worth fanning out across
/// threads: below this, scoped-spawn overhead (~tens of µs) exceeds the
/// stepping work of typical programs.
const PARALLEL_ROUND_MIN: usize = 24;

/// The programs of a run and everything needed to step them.
pub(crate) struct Stepper<P: ProcProgram> {
    programs: Vec<P>,
    slots: Vec<Slot>,
    /// Processors whose previous operation completed; stepped at the next
    /// [`Stepper::gather`].
    runnable: Vec<usize>,
    env: StepEnv,
    /// Threads a wide round is spread over (at least 1, at most one per
    /// processor).
    workers: usize,
}

impl<P: ProcProgram> Stepper<P> {
    pub(crate) fn new(programs: Vec<P>, env: StepEnv, workers: usize) -> Self {
        let nprocs = programs.len();
        Stepper {
            programs,
            slots: (0..nprocs).map(|_| Slot::default()).collect(),
            runnable: (0..nprocs).collect(),
            env,
            workers: workers.clamp(1, nprocs.max(1)),
        }
    }

    /// The final program states in processor order, consumed after the run.
    pub(crate) fn into_programs(self) -> Vec<P> {
        self.programs
    }

    /// Collect the next round of requests — exactly one per runnable
    /// processor — into `batch`. Leaves `batch` empty when every processor
    /// is blocked (waiting for a completion or finished). `store` is frozen
    /// for the duration of the call.
    pub(crate) fn gather(&mut self, store: &VarStore, batch: &mut Vec<TimedRequest>) {
        let env = &self.env;
        // The steady state of most workloads is a singleton round, where
        // spawning would only add overhead.
        if self.workers == 1 || self.runnable.len() < PARALLEL_ROUND_MIN.max(2 * self.workers) {
            while let Some(proc) = self.runnable.pop() {
                batch.push(step_to_request(
                    &mut self.programs[proc],
                    &mut self.slots[proc],
                    proc,
                    env,
                    store,
                ));
            }
            return;
        }
        // One contiguous range of processor ids per thread; sorted, the
        // members of a range are one slice of `runnable`.
        self.runnable.sort_unstable();
        let range = self.programs.len().div_ceil(self.workers);
        let ranges = self
            .programs
            .chunks_mut(range)
            .zip(self.slots.chunks_mut(range));
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            let mut rest = &self.runnable[..];
            for (i, (programs, slots)) in ranges.enumerate() {
                let first = i * range;
                let (members, tail) = rest.split_at(rest.partition_point(|&p| p < first + range));
                rest = tail;
                if members.is_empty() {
                    continue;
                }
                handles.push(scope.spawn(move || {
                    let step = |&proc: &usize| {
                        let local = proc - first;
                        step_to_request(&mut programs[local], &mut slots[local], proc, env, store)
                    };
                    members.iter().map(step).collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                match handle.join() {
                    Ok(mut out) => batch.append(&mut out),
                    // A program's panic is the run's panic, exactly as on
                    // the inline path.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        self.runnable.clear();
    }

    /// Deliver the result of a blocking operation, unblocking `proc` so its
    /// next request appears in a subsequent round.
    pub(crate) fn respond(&mut self, proc: usize, resp: Response) {
        let slot = &mut self.slots[proc];
        match resp {
            Response::Value(v) => slot.value = Some(v),
            Response::Handle(h) => slot.handle = Some(h),
            Response::Done => {}
        }
        self.runnable.push(proc);
    }

    /// Permanently remove `proc` from the schedule: its program is never
    /// stepped (or waited for) again and it owes no further requests.
    /// Called when a node failure fail-stops the resident application
    /// processor; the coordinator guarantees `respond` is never called for
    /// a killed processor afterwards.
    pub(crate) fn kill(&mut self, proc: usize) {
        // Faults fire only while every processor is blocked, so the victim
        // cannot be runnable; the retain is a cheap safety net. Its program
        // stays owned (frozen mid-operation) until `into_programs`.
        self.runnable.retain(|&p| p != proc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread::ThreadId;

    const NPROCS: usize = 70;

    /// Computes, reads `var` (a fast-path hit on even processors, a blocking
    /// read on odd ones), posts a receive, and starts over — remembering
    /// which thread ran each step.
    struct Probe {
        var: VarHandle,
        steps: u64,
        threads: Vec<ThreadId>,
    }

    impl ProcProgram for Probe {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
            self.steps += 1;
            self.threads.push(std::thread::current().id());
            match self.steps % 3 {
                1 => Op::Compute {
                    ns: ctx.proc_id() as u64 + 1,
                },
                2 => Op::Read(self.var),
                _ => Op::Recv {
                    from: 0,
                    tag: self.steps,
                },
            }
        }
    }

    /// The processors woken for the sparse second round: all of the first
    /// and third id range, none of the second, the even half of the fourth.
    fn woken() -> Vec<usize> {
        (0..18)
            .chain(36..54)
            .chain((54..NPROCS).step_by(2))
            .collect()
    }

    const KILLED: usize = 5;

    /// Two rounds — everyone, then `woken()` less `KILLED` — on `workers`
    /// threads: each round's requests sorted by processor (as text — values
    /// are opaque), and the final programs.
    fn two_rounds(workers: usize) -> (Vec<Vec<(usize, String)>>, Vec<Probe>) {
        let var = VarHandle(0);
        let mut store = VarStore::new(NPROCS, vec![Arc::new(0u64)]);
        for proc in (0..NPROCS).step_by(2) {
            store.set_copy(proc, var, true);
        }
        let env = StepEnv {
            nprocs: NPROCS,
            mesh_dims: (1, NPROCS),
            machine: MachineConfig::parsytec_gcel(),
            fast_path: true,
        };
        let programs = (0..NPROCS)
            .map(|_| Probe {
                var,
                steps: 0,
                threads: Vec::new(),
            })
            .collect();
        let mut stepper = Stepper::new(programs, env, workers);
        let mut rounds = Vec::new();
        for round in 0..2 {
            if round == 1 {
                for proc in woken() {
                    stepper.respond(proc, Response::Value(Arc::new(0u64)));
                }
                stepper.kill(KILLED);
            }
            let mut batch = Vec::new();
            stepper.gather(&store, &mut batch);
            let mut requests: Vec<_> = batch.iter().map(|r| (r.proc, format!("{r:?}"))).collect();
            requests.sort();
            rounds.push(requests);
        }
        (rounds, stepper.into_programs())
    }

    #[test]
    fn a_wide_round_split_into_id_ranges_yields_the_one_worker_requests() {
        let (rounds, programs) = two_rounds(4);
        let procs = |round: usize| rounds[round].iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(procs(0), (0..NPROCS).collect::<Vec<_>>());
        let expected: Vec<usize> = woken().into_iter().filter(|&p| p != KILLED).collect();
        assert!(expected.len() >= PARALLEL_ROUND_MIN);
        assert_eq!(procs(1), expected);
        assert_eq!(rounds, two_rounds(1).0);

        // Both rounds fanned out: ranges of 18/18/18/16 ids, one thread
        // each in the first round, and no thread for the empty second range
        // (or the killed processor) in the second.
        let here = std::thread::current().id();
        let first_round = |p: usize| programs[p].threads[0];
        for (proc, program) in programs.iter().enumerate() {
            assert!(program.threads.iter().all(|&t| t != here), "proc {proc}");
            assert_eq!(
                first_round(proc),
                first_round(proc - proc % 18),
                "proc {proc}"
            );
            let stepped_twice = expected.contains(&proc);
            let steps_of_round_one = if proc % 2 == 0 { 3 } else { 2 };
            assert_eq!(
                program.threads.len() > steps_of_round_one,
                stepped_twice,
                "proc {proc}"
            );
        }
        let spawned: HashSet<_> = [0, 18, 36, 54].map(first_round).into();
        assert_eq!(spawned.len(), 4, "one thread per id range");
    }
}
