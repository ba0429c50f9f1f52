//! Tests of program execution: a hand-written mini program, hit accounting
//! pinned to its specification, frees shown to be pure bookkeeping, and the
//! closure adapter of `Diva::run_prototype` checked against hand-written
//! state machines issuing the same operations (the three
//! `*_parity_closure_vs_state_machine` tests: randomized reads/writes, a
//! hit-heavy mix, the variable lifecycle). Both sides go through
//! `run_driven`, so a difference there is a bug in the adapter — compute time
//! dropped between operations, a reply delivered to the wrong call — not in a
//! second backend.

use dm_diva::{
    Counter, Diva, DivaConfig, Op, ProcProgram, RunReport, ServingReport, StepCtx, StrategyKind,
    VarHandle,
};
use dm_mesh::{Mesh, TreeShape};
use std::sync::Arc;

fn config(side: usize, strategy: StrategyKind) -> DivaConfig {
    DivaConfig::on(Mesh::square(side), strategy)
}

/// A program that reads one shared variable, synchronises, and finishes —
/// the driven twin of the doc example of `Diva::run_prototype`.
struct ReadOnce {
    var: VarHandle,
    state: u8,
    seen: Option<usize>,
}

impl ProcProgram for ReadOnce {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Read(self.var)
            }
            1 => {
                self.seen = Some(ctx.take::<Vec<u32>>().len());
                self.state = 2;
                Op::Barrier
            }
            _ => Op::Done,
        }
    }
}

#[test]
fn driven_mode_runs_a_simple_program() {
    let mut diva = Diva::new(config(4, StrategyKind::AccessTree(TreeShape::quad())));
    let shared = diva.alloc(0, 1024, vec![0u32; 256]);
    let programs: Vec<ReadOnce> = (0..diva.num_procs())
        .map(|_| ReadOnce {
            var: shared,
            state: 0,
            seen: None,
        })
        .collect();
    let outcome = diva.run_driven(programs).expect_completed();
    assert!(outcome.results.iter().all(|p| p.seen == Some(256)));
    assert!(outcome.report.total_time > 0);
    assert!(outcome.report.congestion_bytes() > 0);
}

/// The protocol microbench workload: every processor performs `rounds`
/// random reads/writes over a pool of shared variables, with modelled think
/// time, folding what it reads into a checksum, then synchronises.
///
/// A deterministic per-processor LCG drives the choices so the closure and
/// the state machine perform exactly the same accesses.
#[derive(Clone, Copy)]
struct UniformAccess {
    rounds: usize,
    /// Variables in the shared pool (variable `i` starts at processor
    /// `i % nprocs`). A small pool makes most reads local hits.
    pool: usize,
    /// One access in this many is a write.
    write_one_in: u64,
}

impl UniformAccess {
    fn diva(&self, strategy: StrategyKind, side: usize, seed: u64) -> (Diva, Arc<Vec<VarHandle>>) {
        let mut diva = Diva::new(config(side, strategy).with_seed(seed));
        let nprocs = diva.num_procs();
        let vars = (0..self.pool)
            .map(|i| diva.alloc(i % nprocs, 512, 0u64))
            .collect();
        (diva, Arc::new(vars))
    }

    /// The access of one round: the variable, and whether it is written.
    fn draw(&self, rng: &mut u64, vars: &[VarHandle]) -> (VarHandle, bool) {
        let r = lcg_next(rng);
        let var = vars[(r % vars.len() as u64) as usize];
        (var, (r >> 20).is_multiple_of(self.write_one_in))
    }
}

fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn proc_seed(proc: usize) -> u64 {
    0x9E3779B97F4A7C15u64 ^ (proc as u64) << 17
}

struct UniformProgram {
    cfg: UniformAccess,
    vars: Arc<Vec<VarHandle>>,
    rng: u64,
    round: usize,
    reading: bool,
    sum: u64,
    done: bool,
}

impl ProcProgram for UniformProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        if std::mem::take(&mut self.reading) {
            self.sum = self.sum.rotate_left(5) ^ *ctx.take::<u64>();
        }
        if self.done {
            return Op::Done;
        }
        if self.round == self.cfg.rounds {
            self.done = true;
            return Op::Barrier;
        }
        self.round += 1;
        ctx.compute_int_ops(5);
        let (var, write) = self.cfg.draw(&mut self.rng, &self.vars);
        if write {
            Op::Write(var, Arc::new(self.round as u64))
        } else {
            self.reading = true;
            Op::Read(var)
        }
    }
}

/// Report and per-processor read checksums of the workload as a closure.
fn uniform_closure(
    strategy: StrategyKind,
    side: usize,
    cfg: UniformAccess,
    seed: u64,
) -> (RunReport, Vec<u64>) {
    let (diva, vars) = cfg.diva(strategy, side, seed);
    let vars = &vars;
    let outcome = diva
        .run_prototype(|ctx| async move {
            let mut rng = proc_seed(ctx.proc_id());
            let mut sum = 0u64;
            for round in 1..=cfg.rounds {
                ctx.compute_int_ops(5);
                let (var, write) = cfg.draw(&mut rng, vars);
                if write {
                    ctx.write(var, round as u64).await;
                } else {
                    sum = sum.rotate_left(5) ^ *ctx.read::<u64>(var).await;
                }
            }
            ctx.barrier().await;
            sum
        })
        .expect_completed();
    (outcome.report, outcome.results)
}

/// Report and per-processor read checksums of the workload as a state
/// machine.
fn uniform_driven(
    strategy: StrategyKind,
    side: usize,
    cfg: UniformAccess,
    seed: u64,
) -> (RunReport, Vec<u64>) {
    let (diva, vars) = cfg.diva(strategy, side, seed);
    let programs: Vec<UniformProgram> = (0..diva.num_procs())
        .map(|p| UniformProgram {
            cfg,
            vars: Arc::clone(&vars),
            rng: proc_seed(p),
            round: 0,
            reading: false,
            sum: 0,
            done: false,
        })
        .collect();
    let outcome = diva.run_driven(programs).expect_completed();
    let sums = outcome.results.iter().map(|p| p.sum).collect();
    (outcome.report, sums)
}

const STRATEGIES: [StrategyKind; 2] = [
    StrategyKind::AccessTree(TreeShape::quad()),
    StrategyKind::FixedHome,
];

#[test]
fn uniform_random_access_parity_closure_vs_state_machine() {
    let cfg = UniformAccess {
        rounds: 24,
        pool: 16,
        write_one_in: 2,
    };
    for strategy in STRATEGIES {
        let closure = uniform_closure(strategy, 4, cfg, 11);
        let driven = uniform_driven(strategy, 4, cfg, 11);
        assert_eq!(closure, driven, "{strategy:?}");
    }
}

/// A closure's read that hits is answered mid-step and the closure keeps its
/// turn, so a hit-heavy run is where the adapter exchanges the most replies
/// per round: each must carry the value of *its* read, and the compute time
/// reported with the reads in between must all reach the next blocking
/// request.
#[test]
fn hit_heavy_parity_closure_vs_state_machine() {
    let cfg = UniformAccess {
        rounds: 96,
        pool: 4,
        write_one_in: 24,
    };
    for strategy in STRATEGIES {
        let closure = uniform_closure(strategy, 4, cfg, 11);
        let driven = uniform_driven(strategy, 4, cfg, 11);
        assert_eq!(closure, driven, "{strategy:?}");
        let report = driven.0;
        let (hits, misses) = (
            report.counter(Counter::ReadHit),
            report.counter(Counter::ReadMiss),
        );
        assert!(
            hits > 2 * misses,
            "{strategy:?}: {hits} hits, {misses} misses"
        );
        assert!(
            report.serving.local_hits > 0,
            "{strategy:?}: no hit was served while stepping"
        );
    }
}

/// Reads `var` `left` more times, then finishes.
struct ReadRepeatedly {
    var: VarHandle,
    left: usize,
}

impl ProcProgram for ReadRepeatedly {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Op {
        if self.left == 0 {
            return Op::Done;
        }
        self.left -= 1;
        Op::Read(self.var)
    }
}

/// Hit accounting has one implementation, so no parity test can see it move;
/// this pins it to the specification instead. A run that is nothing but ten
/// local read hits costs exactly ten local accesses, and every hit is a
/// counted, served request, tallied by the stepping routine.
#[test]
fn a_hit_only_run_costs_exactly_its_local_accesses() {
    for strategy in STRATEGIES {
        let cfg = config(2, strategy);
        let local_access_ns = cfg.machine.local_access_ns();
        let mut diva = Diva::new(cfg);
        let var = diva.alloc(0, 64, 7u64);
        let programs = (0..diva.num_procs())
            .map(|p| ReadRepeatedly {
                var,
                left: if p == 0 { 10 } else { 0 },
            })
            .collect();
        let report = diva.run_driven(programs).expect_completed().report;
        assert_eq!(report.total_time, 10 * local_access_ns, "{strategy:?}");
        assert_eq!(report.counter(Counter::ReadHit), 10, "{strategy:?}");
        assert_eq!(report.counter(Counter::ReadMiss), 0, "{strategy:?}");
        assert_eq!(report.messages_sent, 0, "{strategy:?}");
        let serving = &report.serving;
        assert_eq!(serving.requests, 10, "{strategy:?}");
        assert_eq!(
            serving.response_hist[ServingReport::bucket(local_access_ns)],
            10,
            "{strategy:?}"
        );
        assert_eq!(serving.local_hits, 10, "{strategy:?}");
    }
}

/// The lifecycle workload: every processor allocates a scratch variable per
/// round, publishes it through a pre-allocated pointer, reads its right
/// neighbour's scratch, and frees its scratch with `Op::Free` after the
/// barrier, so later rounds recycle the slots — or, without `frees`, skips
/// the free and leaks every scratch variable.
struct LifecycleProgram {
    ptrs: Arc<Vec<VarHandle>>,
    rounds: usize,
    frees: bool,
    round: usize,
    scratch: VarHandle,
    state: u8,
    sum: u64,
}

impl ProcProgram for LifecycleProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        let me = ctx.proc_id();
        let n = ctx.num_procs();
        match self.state {
            0 => {
                if self.round == self.rounds {
                    self.state = 6;
                    return Op::Barrier;
                }
                self.state = 1;
                Op::Alloc {
                    bytes: 128,
                    value: Arc::new((self.round * 100 + me) as u64),
                }
            }
            1 => {
                self.scratch = ctx.take_handle();
                self.state = 2;
                Op::Write(self.ptrs[me], Arc::new(self.scratch))
            }
            2 => {
                self.state = 3;
                Op::Barrier
            }
            3 => {
                self.state = 4;
                Op::Read(self.ptrs[(me + 1) % n])
            }
            4 => {
                let handle = *ctx.take::<VarHandle>();
                self.state = 5;
                Op::Read(handle)
            }
            5 => {
                self.sum += *ctx.take::<u64>();
                // Quiesce before the frees: a neighbour may still have a
                // read of this processor's scratch in flight.
                self.state = 7;
                Op::Barrier
            }
            7 => {
                self.state = 0;
                self.round += 1;
                if !self.frees {
                    return self.step(ctx);
                }
                Op::Free(vec![self.scratch])
            }
            _ => Op::Done,
        }
    }
}

/// The lifecycle workload as state machines on a 4×4 mesh: the per-processor
/// sums and the report.
fn lifecycle_driven(strategy: StrategyKind, rounds: usize, frees: bool) -> (Vec<u64>, RunReport) {
    let mut diva = Diva::new(config(4, strategy).with_seed(5));
    let n = diva.num_procs();
    let ptrs: Vec<VarHandle> = (0..n).map(|p| diva.alloc(p, 8, VarHandle(0))).collect();
    let ptrs = Arc::new(ptrs);
    let programs: Vec<LifecycleProgram> = (0..n)
        .map(|_| LifecycleProgram {
            ptrs: Arc::clone(&ptrs),
            rounds,
            frees,
            round: 0,
            scratch: VarHandle(0),
            state: 0,
            sum: 0,
        })
        .collect();
    let outcome = diva.run_driven(programs).expect_completed();
    let sums = outcome.results.into_iter().map(|p| p.sum).collect();
    (sums, outcome.report)
}

#[test]
fn lifecycle_ops_parity_closure_vs_state_machine() {
    let rounds = 4;
    for strategy in STRATEGIES {
        let closure = {
            let mut diva = Diva::new(config(4, strategy).with_seed(5));
            let n = diva.num_procs();
            let ptrs: Vec<VarHandle> = (0..n).map(|p| diva.alloc(p, 8, VarHandle(0))).collect();
            let ptrs = &ptrs;
            let outcome = diva
                .run_prototype(|ctx| async move {
                    let me = ctx.proc_id();
                    let n = ctx.num_procs();
                    let mut sum = 0u64;
                    for round in 0..rounds {
                        let scratch = ctx.alloc(128, (round * 100 + me) as u64).await;
                        ctx.write(ptrs[me], scratch).await;
                        ctx.barrier().await;
                        let handle = *ctx.read::<VarHandle>(ptrs[(me + 1) % n]).await;
                        sum += *ctx.read::<u64>(handle).await;
                        ctx.barrier().await;
                        ctx.free(&[scratch]).await;
                    }
                    ctx.barrier().await;
                    sum
                })
                .expect_completed();
            (outcome.results, outcome.report)
        };
        let driven = lifecycle_driven(strategy, rounds, true);
        assert_eq!(closure.0, driven.0, "{strategy:?}");
        assert_eq!(closure.1, driven.1, "{strategy:?}");
        assert_eq!(closure.1.vars_freed, 4 * 16, "{strategy:?}");
        assert!(closure.1.live_vars_high_water <= 32 + 1, "{strategy:?}");
    }
}

/// Frees are pure bookkeeping: they cost no simulated time and send no
/// messages. The lifecycle workload with its `Op::Free` steps skipped computes the same sums and reports the same simulated
/// quantities; only the lifecycle statistics move, and reclaiming keeps
/// fewer variables live at once.
#[test]
fn frees_are_pure_bookkeeping() {
    for strategy in STRATEGIES {
        let (sums, reclaiming) = lifecycle_driven(strategy, 4, true);
        let (leaky_sums, leaky) = lifecycle_driven(strategy, 4, false);
        assert_eq!(sums, leaky_sums, "{strategy:?}");
        assert_eq!(reclaiming.vars_freed, 4 * 16, "{strategy:?}");
        assert_eq!(leaky.vars_freed, 0, "{strategy:?}");
        assert!(
            reclaiming.live_vars_high_water < leaky.live_vars_high_water,
            "{strategy:?}: {} !< {}",
            reclaiming.live_vars_high_water,
            leaky.live_vars_high_water
        );
        let mut lifecycle_aside = leaky;
        lifecycle_aside.vars_freed = reclaiming.vars_freed;
        lifecycle_aside.live_vars_high_water = reclaiming.live_vars_high_water;
        assert_eq!(reclaiming, lifecycle_aside, "{strategy:?}");
    }
}

/// Processor 0 allocates `a`, `b` and `c`, frees them with one
/// `Op::Free(vec![a, b, c])`, and allocates three more; the other processors
/// finish at once.
#[derive(Default)]
struct FreeBatch {
    ops: usize,
    handles: Vec<VarHandle>,
}

impl ProcProgram for FreeBatch {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        if ctx.proc_id() != 0 {
            return Op::Done;
        }
        let op = self.ops;
        self.ops += 1;
        // Every operation but the first and the one after the free follows
        // an allocation.
        if !matches!(op, 0 | 4) {
            self.handles.push(ctx.take_handle());
        }
        match op {
            3 => Op::Free(self.handles.clone()),
            7 => Op::Done,
            _ => Op::Alloc {
                bytes: 8,
                value: Arc::new(op),
            },
        }
    }
}

/// One `Op::Free` retires its list in order within one request: the freed
/// slots are recycled LIFO, so the next three allocations get `c`, `b` and
/// `a`, and the report counts three frees.
#[test]
fn one_free_retires_its_list_in_order() {
    for strategy in STRATEGIES {
        let diva = Diva::new(config(2, strategy));
        let programs = (0..diva.num_procs()).map(|_| FreeBatch::default());
        let outcome = diva.run_driven(programs.collect()).expect_completed();
        let handles = &outcome.results[0].handles;
        let (first, second) = handles.split_at(3);
        assert_eq!(
            first,
            [VarHandle(0), VarHandle(1), VarHandle(2)],
            "{strategy:?}"
        );
        assert_eq!(second, [first[2], first[1], first[0]], "{strategy:?}");
        assert_eq!(outcome.report.vars_registered, 6, "{strategy:?}");
        assert_eq!(outcome.report.vars_freed, 3, "{strategy:?}");
        assert_eq!(outcome.report.live_vars_high_water, 3, "{strategy:?}");
    }
}

#[test]
fn driven_mode_is_deterministic_across_runs() {
    let cfg = UniformAccess {
        rounds: 16,
        pool: 16,
        write_one_in: 2,
    };
    let a = uniform_driven(StrategyKind::AccessTree(TreeShape::quad()), 4, cfg, 3);
    let b = uniform_driven(StrategyKind::AccessTree(TreeShape::quad()), 4, cfg, 3);
    assert_eq!(a, b);
}

/// The first step of processor 40 is `first_op()`; everyone else waits in
/// a barrier. Run on an 8×8 mesh, so processor ids stop at 63.
fn first_step_of_proc_40(first_op: fn() -> Op) {
    struct Faulty(fn() -> Op);

    impl ProcProgram for Faulty {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
            if ctx.proc_id() == 40 {
                (self.0)()
            } else {
                Op::Barrier
            }
        }
    }

    let diva = Diva::new(config(8, StrategyKind::AccessTree(TreeShape::quad())));
    let programs = (0..diva.num_procs()).map(|_| Faulty(first_op)).collect();
    let _ = diva.run_driven::<Faulty>(programs);
}

#[test]
#[should_panic(expected = "boom from 40")]
fn a_program_panic_is_the_runs_panic() {
    first_step_of_proc_40(|| panic!("boom from 40"));
}

#[test]
#[should_panic(expected = "send to non-existent processor 64")]
fn an_out_of_range_send_panics() {
    first_step_of_proc_40(|| Op::Send {
        to: 64,
        bytes: 8,
        tag: 0,
        value: Arc::new(0u64),
    });
}

#[test]
#[should_panic(expected = "receive from non-existent processor 64")]
fn an_out_of_range_recv_panics() {
    first_step_of_proc_40(|| Op::Recv { from: 64, tag: 0 });
}
