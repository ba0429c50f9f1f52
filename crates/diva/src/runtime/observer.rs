//! The coordinator's observation seam (see [`Observer`]).

use dm_engine::SimTime;

/// A read-only watcher of a run's events, passed to
/// [`Diva::run_observed`](crate::Diva::run_observed). The coordinator reports
/// each event where it is scheduled and where the loop takes it off the
/// queue. The methods default to nothing, so `()`, the observer of
/// [`Diva::run_driven`](crate::Diva::run_driven), compiles to an unobserved run.
pub trait Observer {
    /// An event (a message's arrival or a fault) was scheduled at `at`.
    #[inline]
    fn scheduled(&mut self, _at: SimTime) {}

    /// The event due at `at` is handled next; `delivery` is false for a fault.
    #[inline]
    fn handled(&mut self, _at: SimTime, _delivery: bool) {}
}

impl Observer for () {}

/// One entry of a queue trace: the exact push/pop interleaving of a run, which
/// the host benchmark's `engine.queue_hold_ns` kernel replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp {
    /// An event was scheduled at the given virtual time.
    Push(SimTime),
    /// The earliest event was removed.
    Pop,
}

/// The queue-trace recorder (see [`DivaConfig::trace_queue`](crate::DivaConfig::trace_queue)).
impl Observer for Vec<QueueOp> {
    fn scheduled(&mut self, at: SimTime) {
        self.push(QueueOp::Push(at));
    }

    fn handled(&mut self, _at: SimTime, _delivery: bool) {
        self.push(QueueOp::Pop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diva, DivaConfig, Op, ProcProgram, StepCtx, StrategyKind, VarHandle};
    use dm_engine::EventQueue;
    use dm_mesh::Mesh;

    /// Reads a variable, synchronises, done.
    struct ReadThenBarrier {
        var: VarHandle,
        steps: u8,
    }

    impl ProcProgram for ReadThenBarrier {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Op {
            self.steps += 1;
            match self.steps {
                1 => Op::Read(self.var),
                2 => Op::Barrier,
                _ => Op::Done,
            }
        }
    }

    fn setup(cfg: DivaConfig) -> (Diva, Vec<ReadThenBarrier>) {
        let mut diva = Diva::new(cfg);
        let var = diva.alloc(0, 64, 0u64);
        let programs = (0..diva.num_procs())
            .map(|_| ReadThenBarrier { var, steps: 0 })
            .collect();
        (diva, programs)
    }

    #[test]
    fn trace_records_pushes_and_pops_in_order() {
        let cfg = DivaConfig::on(Mesh::square(2), StrategyKind::FixedHome);
        let (diva, programs) = setup(cfg.clone());
        let (outcome, trace) = diva.run_observed(programs, Vec::new());
        // Replayed through a queue, the trace pops a pending event every
        // time, in time order, and leaves nothing behind.
        let mut queue = EventQueue::with_capacity(0);
        let mut last = 0;
        for op in &trace {
            match *op {
                QueueOp::Push(at) => queue.push(at, ()),
                QueueOp::Pop => {
                    let (at, ()) = queue.pop().expect("a pop of an empty queue");
                    assert!(at >= last, "popped {at} after {last}");
                    last = at;
                }
            }
        }
        assert!(queue.is_empty());
        assert!(trace.contains(&QueueOp::Pop));
        // `run_driven` records the same trace when asked for it, and the
        // recording changes nothing about the run.
        let (diva, programs) = setup(cfg.with_queue_trace(true));
        let driven = diva.run_driven(programs).expect_completed();
        assert_eq!(driven.queue_trace, trace);
        assert_eq!(driven.report, outcome.expect_completed().report);
    }
}
