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
    use dm_mesh::{Mesh, TreeShape};
    use dm_rng::ChaCha8Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::Arc;

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

    /// A serving-tier client: seeded reads of a few variables, skewed to
    /// the first ones, with one write in ten.
    struct KvClient {
        vars: Vec<VarHandle>,
        rng: ChaCha8Rng,
        left: u32,
    }

    impl ProcProgram for KvClient {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Op {
            if self.left == 0 {
                return Op::Done;
            }
            self.left -= 1;
            let n = self.vars.len();
            let var = self.vars[self.rng.gen_range(0..n).min(self.rng.gen_range(0..n))];
            if self.rng.gen_range(0..10u32) == 0 {
                Op::Write(var, Arc::new(0u64))
            } else {
                Op::Read(var)
            }
        }
    }

    /// Replays `trace` through the event queue and through a `(time, push
    /// index)` heap, the queue's order by definition, with the push index as
    /// the payload. Checks that both pop the same event every time and that
    /// nothing is left; returns how many pops took the event just pushed.
    fn replay(trace: &[QueueOp]) -> usize {
        let mut queue = EventQueue::with_capacity(0);
        let mut oracle = BinaryHeap::new();
        let (mut pushed, mut popped_last_push) = (0u32, 0);
        for (i, op) in trace.iter().enumerate() {
            match *op {
                QueueOp::Push(at) => {
                    queue.push(at, pushed);
                    oracle.push(Reverse((at, pushed)));
                    pushed += 1;
                }
                QueueOp::Pop => {
                    let got = queue.pop().expect("a pop of an empty queue");
                    let Reverse(want) = oracle.pop().expect("the oracle holds as many");
                    assert_eq!(got, want, "trace entry {i}");
                    popped_last_push += usize::from(got.1 + 1 == pushed);
                }
            }
        }
        assert!(queue.is_empty() && oracle.is_empty());
        popped_last_push
    }

    #[test]
    fn trace_records_pushes_and_pops_in_order() {
        let cfg = DivaConfig::on(Mesh::square(2), StrategyKind::FixedHome);
        let (diva, programs) = setup(cfg.clone());
        let (outcome, trace) = diva.run_observed(programs, Vec::new());
        // Replayed through a queue, the trace pops a pending event every
        // time, in time order, and leaves nothing behind.
        replay(&trace);
        assert!(trace.contains(&QueueOp::Pop));
        // `run_driven` records the same trace when asked for it, and the
        // recording changes nothing about the run.
        let (diva, programs) = setup(cfg.with_queue_trace(true));
        let driven = diva.run_driven(programs).expect_completed();
        assert_eq!(driven.queue_trace, trace);
        assert_eq!(driven.report, outcome.expect_completed().report);

        // A serving run's trace: deep, with ties and with pops of the event
        // just pushed, pops in exactly the heap's order.
        let cfg = DivaConfig::on(Mesh::square(4), StrategyKind::AccessTree(TreeShape::quad()));
        let mut diva = Diva::new(cfg.with_seed(7));
        let vars: Vec<_> = (0..32).map(|i| diva.alloc(i % 16, 64, 0u64)).collect();
        let programs: Vec<_> = (0..16)
            .map(|p| KvClient {
                vars: vars.clone(),
                rng: ChaCha8Rng::seed_from_u64(p),
                left: 200,
            })
            .collect();
        let (outcome, trace) = diva.run_observed(programs, Vec::new());
        outcome.expect_completed();
        let pops = trace.iter().filter(|op| **op == QueueOp::Pop).count();
        assert!(pops > 10_000, "{pops} pops");
        assert!(replay(&trace) > 0, "no pop took the event just pushed");
    }
}
