//! The DIVA runtime: configuration, variable pre-allocation and program
//! execution.

mod coordinator;
mod frontend;
mod observer;
mod proc_ctx;
mod program;
mod store;

pub use observer::{Observer, QueueOp};
pub use proc_ctx::ProcCtx;
pub use program::{Op, ProcProgram, StepCtx};

use crate::embedding::EmbeddingMode;
use crate::fault::FaultPlan;
use crate::policy::access_tree::AccessTreePolicy;
use crate::policy::fixed_home::FixedHomePolicy;
use crate::policy::Policy;
use crate::report::RunReport;
use crate::var::{Value, VarHandle, VarRegistry};
use coordinator::Coordinator;
use dm_engine::{MachineConfig, SimTime};
use dm_mesh::{AnyTopology, DecompositionTree, NodeId, TreeShape};
use proc_ctx::Severed;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Which data-management strategy a [`Diva`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// The access-tree strategy with trees of the given shape (2-ary, 4-ary,
    /// 16-ary, ℓ-k-ary).
    AccessTree(TreeShape),
    /// The fixed-home / ownership baseline.
    FixedHome,
}

impl StrategyKind {
    /// Short human-readable name of the strategy.
    pub fn name(&self) -> String {
        match self {
            StrategyKind::AccessTree(shape) => format!("{} access tree", shape.name()),
            StrategyKind::FixedHome => "fixed home".to_string(),
        }
    }
}

/// Configuration of a DIVA instance.
#[derive(Debug, Clone)]
pub struct DivaConfig {
    /// The network of processors (mesh, torus, hypercube or fat tree).
    pub topology: AnyTopology,
    /// Hardware parameters of the simulated machine.
    pub machine: MachineConfig,
    /// The data-management strategy.
    pub strategy: StrategyKind,
    /// How access trees are embedded into the network.
    pub embedding: EmbeddingMode,
    /// Seed for all randomized placement decisions (homes, tree roots).
    pub seed: u64,
    /// Make [`Diva::run_driven`] run under the queue-trace recorder (the
    /// [`Observer`] `Vec<QueueOp>`) and return its trace in
    /// [`RunDone::queue_trace`]. Off by default (the trace costs memory
    /// proportional to the event count); the host benchmark replays it for
    /// its `engine.queue_hold_ns` kernel. Like every observer, the recorder
    /// does not perturb any simulated quantity.
    pub trace_queue: bool,
    /// Optional deterministic failure schedule (see [`crate::fault`]). `None`
    /// (the default) is guaranteed bit-identical to a build without the fault
    /// subsystem — the fault-free goldens gate this.
    pub fault_plan: Option<FaultPlan>,
}

impl DivaConfig {
    /// A configuration over `topology` (a mesh, torus, hypercube or fat
    /// tree) with the defaults used throughout the paper's experiments: GCel
    /// machine parameters and the modified embedding. Every run synchronises
    /// barriers over a 4-ary combining tree, and a read that hits a local
    /// copy is served while its program is stepped, without a protocol
    /// transaction.
    pub fn on(topology: impl Into<AnyTopology>, strategy: StrategyKind) -> Self {
        DivaConfig {
            topology: topology.into(),
            machine: MachineConfig::parsytec_gcel(),
            strategy,
            embedding: EmbeddingMode::Modified,
            seed: 0x19990604, // SPAA'99
            trace_queue: false,
            fault_plan: None,
        }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable event-queue trace recording (see
    /// [`DivaConfig::trace_queue`]).
    pub fn with_queue_trace(mut self, on: bool) -> Self {
        self.trace_queue = on;
        self
    }

    /// Attach a deterministic failure schedule (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// The payload of a run that completed normally.
pub struct RunDone<R> {
    /// Timing, congestion and protocol statistics of the run.
    pub report: RunReport,
    /// Per-processor results, indexed by processor id: the closure return
    /// values under [`Diva::run_prototype`], the final program states under
    /// [`Diva::run_driven`].
    pub results: Vec<R>,
    /// Every event scheduled ([`QueueOp::Push`]) and handled
    /// ([`QueueOp::Pop`]) by the run, in order — empty unless
    /// [`DivaConfig::trace_queue`] was set.
    pub queue_trace: Vec<QueueOp>,
}

/// The payload of a run that a [`FaultPlan`] cut short by disconnecting the
/// network. No per-processor results exist — the machine could no longer
/// deliver the traffic the programs were blocked on.
pub struct Partitioned {
    /// Virtual time at which the fatal link-failure batch was applied.
    pub at: SimTime,
    /// A node the connectivity check found unreachable from node 0.
    pub unreachable: NodeId,
    /// Statistics accumulated up to the partition.
    pub report: RunReport,
}

/// The payload of a run that lost one or more application processors to
/// node failures but still ran to completion. Node failure is fail-stop of
/// the *whole* node: with its data-management role, the resident program
/// dies too. The runtime drains the victim's in-flight work — held locks
/// are force-released, barrier membership is removed, posted receives are
/// cancelled — so the survivors finish instead of hanging.
pub struct Degraded<R> {
    /// Virtual time of the first application-processor loss.
    pub at: SimTime,
    /// The lost processors, in loss order (includes processors transitively
    /// starved by a loss, e.g. blocked on a receive whose sender died).
    pub lost_procs: Vec<NodeId>,
    /// FNV-1a digest over `(processor id, final clock)` of every surviving
    /// processor — a compact parity witness for degraded runs (bit-identical
    /// between a closure and a state machine issuing the same operations).
    pub survivor_checksum: u64,
    /// Statistics of the whole (degraded) run.
    pub report: RunReport,
    /// Per-processor results, `None` for lost processors.
    pub results: Vec<Option<R>>,
}

/// The result of running a program on a [`Diva`] instance.
///
/// Without a [`DivaConfig::fault_plan`] (or with one that neither
/// disconnects the machine nor fails a node) the outcome is always
/// [`RunOutcome::Completed`]; [`RunOutcome::expect_completed`] unwraps it.
pub enum RunOutcome<R> {
    /// The run finished normally.
    Completed(RunDone<R>),
    /// Link failures disconnected the machine; the run ended early.
    Partitioned(Partitioned),
    /// Node failures lost application processors; the survivors completed.
    Degraded(Degraded<R>),
}

impl<R> RunOutcome<R> {
    /// The run report, whether the run completed or was cut short.
    pub fn report(&self) -> &RunReport {
        match self {
            RunOutcome::Completed(done) => &done.report,
            RunOutcome::Partitioned(p) => &p.report,
            RunOutcome::Degraded(d) => &d.report,
        }
    }

    /// The partition details, if the run was cut short.
    pub fn partitioned(&self) -> Option<&Partitioned> {
        match self {
            RunOutcome::Partitioned(p) => Some(p),
            _ => None,
        }
    }

    /// The loss details, if the run was degraded.
    pub fn degraded(&self) -> Option<&Degraded<R>> {
        match self {
            RunOutcome::Degraded(d) => Some(d),
            _ => None,
        }
    }

    /// Unwrap a completed run; panics (with the fault details) if the
    /// network was disconnected or application processors were lost.
    pub fn expect_completed(self) -> RunDone<R> {
        match self {
            RunOutcome::Completed(done) => done,
            RunOutcome::Partitioned(p) => panic!(
                "run partitioned at {} ns (node {} unreachable) — handle RunOutcome::Partitioned",
                p.at, p.unreachable
            ),
            RunOutcome::Degraded(d) => panic!(
                "run degraded at {} ns ({} processor(s) lost) — handle RunOutcome::Degraded",
                d.at,
                d.lost_procs.len()
            ),
        }
    }
}

/// A DIVA instance: a simulated mesh machine with a data-management strategy,
/// ready to allocate global variables and run a program on every processor.
///
/// ```
/// use dm_diva::{Diva, DivaConfig, StrategyKind};
/// use dm_mesh::{Mesh, TreeShape};
///
/// let mut diva = Diva::new(DivaConfig::on(
///     Mesh::square(4),
///     StrategyKind::AccessTree(TreeShape::quad()),
/// ));
/// let counter = diva.alloc(0, 8, 0u64);
/// let outcome = diva
///     .run_prototype(|ctx| {
///         // every processor reads the shared counter once
///         let v = ctx.read::<u64>(counter);
///         ctx.barrier();
///         *v
///     })
///     .expect_completed();
/// assert!(outcome.results.iter().all(|&v| v == 0));
/// assert!(outcome.report.total_time > 0);
/// ```
pub struct Diva {
    cfg: DivaConfig,
    registry: VarRegistry,
    values: Vec<Value>,
    policy: Box<dyn Policy>,
    /// The access trees' decomposition tree when it has the barrier's
    /// shape: the run's barrier is built on it instead of on a copy.
    barrier_tree: Option<Arc<DecompositionTree>>,
}

impl Diva {
    /// Create a DIVA instance from a configuration.
    pub fn new(cfg: DivaConfig) -> Self {
        let mut barrier_tree = None;
        let policy: Box<dyn Policy> = match cfg.strategy {
            StrategyKind::AccessTree(shape) => {
                let tree = Arc::new(DecompositionTree::build_on(&cfg.topology, shape));
                if shape == TreeShape::quad() {
                    barrier_tree = Some(Arc::clone(&tree));
                }
                Box::new(AccessTreePolicy::with_tree(tree, cfg.embedding, cfg.seed))
            }
            StrategyKind::FixedHome => Box::new(FixedHomePolicy::new_on(&cfg.topology, cfg.seed)),
        };
        Diva {
            cfg,
            registry: VarRegistry::new(),
            values: Vec::new(),
            policy,
            barrier_tree,
        }
    }

    /// The configuration of this instance.
    pub fn config(&self) -> &DivaConfig {
        &self.cfg
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.cfg.topology.nodes()
    }

    /// Allocate a global variable of `bytes` bytes before the run. Its only
    /// copy initially resides at processor `owner` (as in the paper's matrix
    /// experiments, where block `A[i][j]` starts out cached at processor
    /// `p_{i,j}`).
    ///
    /// Pre-run variables are *not* epoch-scoped: an
    /// [`ProcCtx::end_epoch`] / [`Op::EndEpoch`] never retires them. They
    /// can still be freed explicitly with [`ProcCtx::free`] / [`Op::Free`]
    /// once dead (the matmul and bitonic applications do exactly that after
    /// their final barrier).
    pub fn alloc<T: Any + Send + Sync>(&mut self, owner: usize, bytes: u32, value: T) -> VarHandle {
        self.alloc_value(owner, bytes, Arc::new(value))
    }

    /// Allocate a global variable holding a dynamically typed value.
    pub(crate) fn alloc_value(&mut self, owner: usize, bytes: u32, value: Value) -> VarHandle {
        assert!(
            owner < self.num_procs(),
            "owner processor {owner} does not exist"
        );
        let var = self.registry.register(bytes, NodeId(owner as u32));
        self.values.push(value);
        self.policy.register_var(var, NodeId(owner as u32), bytes);
        var
    }

    /// Run `program` on every simulated processor and return the per-processor
    /// results together with the run report.
    ///
    /// This is the paper's library interface: ordinary sequential code calling
    /// `read` / `write` / `lock` / `barrier` on a [`ProcCtx`] whose
    /// `proc_id()` identifies the processor. It is a frontend of
    /// [`Diva::run_driven`], not a second execution mode: each closure runs on
    /// its own scoped OS thread behind a [`ProcProgram`] that hands the run
    /// one operation per step, so a closure and a hand-written state machine
    /// issuing the same operations produce bit-identical [`RunReport`]s. The
    /// cost is one OS thread per processor and two channel hops per operation
    /// (local read hits included) — fine for tests, examples and prototyping
    /// an application on a small network; the experiments all run state
    /// machines.
    ///
    /// A closure's panic is the run's panic. A processor lost to a node
    /// failure has its closure unwound silently and yields `None` in
    /// [`Degraded::results`].
    pub fn run_prototype<F, R>(self, program: F) -> RunOutcome<R>
    where
        F: Fn(&mut ProcCtx) -> R + Send + Sync,
        R: Send,
    {
        let (nprocs, machine) = (self.num_procs(), self.cfg.machine);
        let (programs, ctxs): (Vec<_>, Vec<_>) = (0..nprocs)
            .map(|proc| proc_ctx::closure_pair(proc, nprocs, machine))
            .unzip();
        let program = &program;
        std::thread::scope(|scope| {
            let handles: Vec<_> = ctxs
                .into_iter()
                .map(|mut ctx| {
                    scope.spawn(move || {
                        let result = program(&mut ctx);
                        ctx.finish();
                        result
                    })
                })
                .collect();
            // Join the closures. A closure still blocked in an operation
            // unwinds with `Severed` once its program is dropped — so each
            // arm below drops the programs it still owns first — and yields
            // `None`; a closure's own panic is resumed (the scope joins
            // whoever is left).
            let join = move || -> Vec<Option<R>> {
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => Some(r),
                        Err(e) if e.is::<Severed>() => None,
                        Err(e) => resume_unwind(e),
                    })
                    .collect()
            };
            match catch_unwind(AssertUnwindSafe(|| self.run_driven(programs))) {
                // The run unwound and took the programs with it: because a
                // closure panicked (resumed by `join`), or on its own — a
                // deadlock report, say.
                Err(payload) => {
                    join();
                    resume_unwind(payload)
                }
                Ok(RunOutcome::Completed(done)) => {
                    drop(done.results);
                    RunOutcome::Completed(RunDone {
                        report: done.report,
                        results: join()
                            .into_iter()
                            .map(|r| r.expect("a completed run severed a closure"))
                            .collect(),
                        queue_trace: done.queue_trace,
                    })
                }
                Ok(RunOutcome::Partitioned(p)) => {
                    join();
                    RunOutcome::Partitioned(p)
                }
                Ok(RunOutcome::Degraded(d)) => {
                    drop(d.results);
                    RunOutcome::Degraded(Degraded {
                        at: d.at,
                        lost_procs: d.lost_procs,
                        survivor_checksum: d.survivor_checksum,
                        report: d.report,
                        results: join(),
                    })
                }
            }
        })
    }

    /// Run one [`ProcProgram`] state machine per simulated processor and
    /// return the final program states together with the run report.
    ///
    /// No OS threads and no channels — the coordinator steps every program
    /// inline off its event queue, which makes simulations of large meshes
    /// (64×64 and beyond) practical and leaves no OS scheduler in the loop: a run is a
    /// function of its configuration and its programs.
    ///
    /// `programs[p]` is the state machine of processor `p`; the vector must
    /// contain exactly one program per processor.
    pub fn run_driven<P: ProcProgram>(self, programs: Vec<P>) -> RunOutcome<P> {
        if !self.cfg.trace_queue {
            return self.run_observed(programs, ()).0;
        }
        let (mut outcome, trace) = self.run_observed(programs, Vec::new());
        if let RunOutcome::Completed(done) = &mut outcome {
            done.queue_trace = trace;
        }
        outcome
    }

    /// [`Diva::run_driven`] watched by `obs`, which is handed back with the
    /// outcome. The observer sees every event the run schedules and handles
    /// (see [`Observer`]); the outcome is the one `run_driven` returns.
    pub fn run_observed<P: ProcProgram, O: Observer>(
        self,
        programs: Vec<P>,
        obs: O,
    ) -> (RunOutcome<P>, O) {
        Coordinator::new(self, programs, obs).run()
    }
}

// ---------------------------------------------------------------------------
// Send audit (compile-time).
//
// The parallel sweep executor in `dm-bench` moves *whole simulations* —
// a [`Diva`] instance (configuration, registry, pre-allocated values and the
// boxed policy), the per-processor programs and the produced [`RunReport`] —
// across worker threads. `Send` is guaranteed structurally: `Policy` and
// `ProcProgram` have `Send` supertraits, values are `Arc<dyn Any + Send +
// Sync>`, and the tree holds no interior mutability (the
// [`crate::Embedder`] answers from tables fixed at construction), so each
// simulation is owned by exactly one thread at a time with nothing shared
// between instances. These assertions turn any future regression —
// an `Rc`, a raw pointer, a non-`Send` trait object — into a compile error
// instead of a failure at the executor's spawn site.
// ---------------------------------------------------------------------------
fn _assert_send<T: Send>() {}
const _: fn() = _assert_send::<Diva>;
const _: fn() = _assert_send::<DivaConfig>;
const _: fn() = _assert_send::<RunReport>;
const _: fn() = _assert_send::<RunOutcome<()>>;
const _: fn() = _assert_send::<Box<dyn Policy>>;
const _: fn() = _assert_send::<Box<dyn ProcProgram>>;
const _: fn() = _assert_send::<crate::Embedder>;
const _: fn() = _assert_send::<VarRegistry>;
const _: fn() = _assert_send::<AccessTreePolicy>;
const _: fn() = _assert_send::<FixedHomePolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::TreeBarrier;
    use dm_mesh::Mesh;

    /// A 4-ary access-tree instance keeps one decomposition tree, held by
    /// its policy and handed to its barrier; every other strategy leaves the
    /// barrier to build its own. The shared tree places every barrier node
    /// where the barrier's own tree would.
    #[test]
    fn only_a_quad_access_tree_shares_its_decomposition_with_the_barrier() {
        let mesh = Mesh::square(8);
        let quad = StrategyKind::AccessTree(TreeShape::quad());
        let diva = Diva::new(DivaConfig::on(mesh.clone(), quad));
        let tree = diva
            .barrier_tree
            .as_ref()
            .expect("the 4-ary access trees have the barrier's shape");
        // The instance's handle and the policy's: no second tree.
        assert_eq!(Arc::strong_count(tree), 2);
        let shared = TreeBarrier::with_tree(Arc::clone(tree));
        let own = TreeBarrier::new_on(&mesh.clone().into(), TreeShape::quad());
        for id in tree.node_ids() {
            assert_eq!(shared.position(id), own.position(id), "{id:?}");
        }
        for strategy in [
            StrategyKind::AccessTree(TreeShape::binary()),
            StrategyKind::AccessTree(TreeShape::hex16()),
            StrategyKind::FixedHome,
        ] {
            let diva = Diva::new(DivaConfig::on(mesh.clone(), strategy));
            assert!(diva.barrier_tree.is_none(), "{}", strategy.name());
        }
    }
}
