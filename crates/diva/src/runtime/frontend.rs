//! The stepper: who steps the programs.
//!
//! The [`Coordinator`](super::coordinator::Coordinator) drives the
//! simulation; the [`Stepper`] owns the per-processor [`ProcProgram`] state
//! machines and turns them into a round-based request schedule: a *round*
//! collects exactly one blocking operation from every runnable processor,
//! the coordinator handles them sorted by (issue time, processor id), and
//! every processor unblocked during the round issues its next operation in
//! the following round. The future of a closure run by
//! [`Diva::run_prototype`](crate::Diva::run_prototype) is polled in `step`:
//! a program like any other (see [`ProcCtx`](super::proc_ctx::ProcCtx)).
//!
//! The gather window is also the only time the stepper sees the run's
//! variable table ([`VarRegistry`]) and the policy's copy records: the
//! coordinator lends out the table and one [`CopyView`] for the duration of
//! [`Stepper::gather`], while nothing mutates either, and every read
//! fast-path hit is decided against the view and served from the table
//! inside that window.
//!
//! ## One thread steps the programs
//!
//! A round is stepped inline, processor by processor, on the coordinator's
//! thread: while it is gathered no policy code runs and no network state
//! moves, so a round's requests do not depend on the order they are produced
//! in, and the coordinator's sort — a total order, since a processor
//! contributes at most one request per round — serialises handling
//! deterministically. Event-level sharding (per-partition event queues
//! synchronised by link-latency lookahead) was evaluated and rejected: the
//! network's contention model (`LinkNetwork`'s occupancy vectors) and the
//! event queue's global FIFO tie-break make delivery times depend on the
//! *call order* of `transmit`, so out-of-order handling produces different —
//! not just reordered — timings. See `docs/architecture.md` ("One thread
//! steps the programs") for why rounds are not stepped on several threads
//! either.

use super::program::{Op, ProcProgram, StepCtx};
use crate::policy::CopyView;
use crate::var::{Value, VarHandle, VarRegistry};
use dm_engine::MachineConfig;
use dm_mesh::NodeId;

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
    pub machine: MachineConfig,
}

/// Step one program until it yields a blocking operation (fast-path reads
/// and `Compute` are absorbed inline).
///
/// It touches only the processor's own program and slot plus the *borrowed*
/// variable table and copy view, which is what makes a round's requests
/// independent of the order they are produced in (see the module docs).
fn step_to_request<P: ProcProgram>(
    program: &mut P,
    slot: &mut Slot,
    proc: usize,
    env: &StepEnv,
    vars: &VarRegistry,
    copies: CopyView<'_>,
) -> TimedRequest {
    let nprocs = env.nprocs;
    let op = loop {
        let mut ctx = StepCtx {
            proc,
            nprocs,
            machine: &env.machine,
            value: &mut slot.value,
            handle: &mut slot.handle,
            pending_compute_ns: &mut slot.pending_compute_ns,
        };
        match program.step(&mut ctx) {
            Op::Compute { ns } => slot.pending_compute_ns += ns,
            Op::Read(var) if copies.has(NodeId(proc as u32), var) => {
                // A local hit costs only library overhead, charged to the
                // next blocking operation.
                slot.pending_overhead_ns += env.machine.local_access_ns();
                slot.pending_hits += 1;
                slot.value = Some(vars.value(var));
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

/// The programs of a run and everything needed to step them.
pub(crate) struct Stepper<P: ProcProgram> {
    programs: Vec<P>,
    slots: Vec<Slot>,
    /// Processors whose previous operation completed; stepped at the next
    /// [`Stepper::gather`].
    runnable: Vec<usize>,
    env: StepEnv,
}

impl<P: ProcProgram> Stepper<P> {
    pub(crate) fn new(programs: Vec<P>, env: StepEnv) -> Self {
        let nprocs = programs.len();
        Stepper {
            programs,
            slots: (0..nprocs).map(|_| Slot::default()).collect(),
            runnable: (0..nprocs).collect(),
            env,
        }
    }

    /// The final program states in processor order, consumed after the run.
    pub(crate) fn into_programs(self) -> Vec<P> {
        self.programs
    }

    /// Collect the next round of requests — exactly one per runnable
    /// processor — into `batch`. Leaves `batch` empty when every processor
    /// is blocked (waiting for a completion or finished). `vars` and the
    /// policy's `copies` are frozen for the duration of the call.
    pub(crate) fn gather(
        &mut self,
        vars: &VarRegistry,
        copies: CopyView<'_>,
        batch: &mut Vec<TimedRequest>,
    ) {
        while let Some(proc) = self.runnable.pop() {
            batch.push(step_to_request(
                &mut self.programs[proc],
                &mut self.slots[proc],
                proc,
                &self.env,
                vars,
                copies,
            ));
        }
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
    use crate::policy::fixed_home::FixedHomePolicy;
    use crate::policy::proto_tests::MockEnv;
    use crate::policy::{AccessKind, Policy, TxId};
    use dm_mesh::{AnyTopology, Mesh};
    use std::sync::Arc;

    const NPROCS: usize = 16;

    /// Computes, reads `var` (a fast-path hit on even processors, a blocking
    /// read on odd ones), posts a receive, and starts over.
    struct Probe {
        var: VarHandle,
        steps: u64,
    }

    impl ProcProgram for Probe {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
            self.steps += 1;
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

    /// The processors woken for the sparse second round.
    fn woken() -> Vec<usize> {
        (0..NPROCS).filter(|p| p % 3 != 1).collect()
    }

    const KILLED: usize = 5;

    /// The processors of a round's requests, in id order.
    fn procs(batch: &[TimedRequest]) -> Vec<usize> {
        let mut procs: Vec<_> = batch.iter().map(|r| r.proc).collect();
        procs.sort_unstable();
        procs
    }

    #[test]
    fn each_round_yields_one_request_per_runnable_processor() {
        // The even processors hold a copy: the owner, and every other one
        // after a read miss.
        let topo = AnyTopology::from(Mesh::square(4));
        let mut policy = FixedHomePolicy::new_on(&topo, 1);
        let mut mock = MockEnv::new_on(topo);
        let var = VarHandle(0);
        mock.register(&mut policy, var, NodeId(0), 8);
        for proc in (2..NPROCS).step_by(2) {
            let reader = NodeId(proc as u32);
            mock.access(
                &mut policy,
                TxId(proc as u64),
                reader,
                var,
                AccessKind::Read,
            );
            mock.run(&mut policy);
        }
        let holders: Vec<usize> = (0..NPROCS)
            .filter(|&p| policy.copies().has(NodeId(p as u32), var))
            .collect();
        assert_eq!(holders, (0..NPROCS).step_by(2).collect::<Vec<_>>());
        let mut vars = VarRegistry::new();
        assert_eq!(vars.register(8, NodeId(0)), var);
        vars.set_value(var, Arc::new(0u64));
        let env = StepEnv {
            nprocs: NPROCS,
            machine: MachineConfig::parsytec_gcel(),
        };
        let programs = (0..NPROCS).map(|_| Probe { var, steps: 0 }).collect();
        let mut stepper = Stepper::new(programs, env);

        // Round 1: everyone. The even processors' reads are fast-path hits,
        // absorbed inline, so their request is the receive that follows.
        let mut batch = Vec::new();
        stepper.gather(&vars, policy.copies(), &mut batch);
        assert_eq!(procs(&batch), (0..NPROCS).collect::<Vec<_>>());
        for r in &batch {
            let hit = r.proc % 2 == 0;
            assert_eq!(r.hits, hit as u64, "proc {}", r.proc);
            assert_eq!(matches!(r.op, Op::Recv { .. }), hit, "proc {}", r.proc);
            assert_eq!(r.compute_ns, r.proc as u64 + 1, "proc {}", r.proc);
        }

        // Round 2: `woken()` less the killed processor; then nobody.
        for proc in woken() {
            stepper.respond(proc, Response::Value(Arc::new(0u64)));
        }
        stepper.kill(KILLED);
        batch.clear();
        stepper.gather(&vars, policy.copies(), &mut batch);
        let expected: Vec<usize> = woken().into_iter().filter(|&p| p != KILLED).collect();
        assert_eq!(procs(&batch), expected);
        batch.clear();
        stepper.gather(&vars, policy.copies(), &mut batch);
        assert!(batch.is_empty());

        for (proc, program) in stepper.into_programs().iter().enumerate() {
            let steps_of_round_one = if proc % 2 == 0 { 3 } else { 2 };
            assert_eq!(
                program.steps > steps_of_round_one,
                expected.contains(&proc),
                "proc {proc}"
            );
        }
    }
}
