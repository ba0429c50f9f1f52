//! # dm-diva — the DIVA (Distributed Variables) library
//!
//! A from-scratch Rust reproduction of the DIVA library of Krick, Meyer auf
//! der Heide, Räcke, Vöcking and Westermann ("Data Management in Networks:
//! Experimental Evaluation of a Provably Good Strategy", SPAA 1999): fully
//! transparent access to *global variables* (shared data objects) for
//! mesh-connected parallel machines, together with the two data-management
//! strategies the paper compares and the synchronisation primitives the
//! applications need.
//!
//! ## What it provides
//!
//! * [`Diva`] / [`DivaConfig`] — a simulated mesh machine with a configurable
//!   data-management strategy and one way of executing programs on it.
//! * **Programs** ([`Diva::run_driven`]): explicit [`ProcProgram`] state
//!   machines that yield [`Op`]s, stepped inline by the coordinator off its
//!   event queue — zero OS threads, zero channel hops, deterministic by
//!   construction. Every experiment and every `dm-apps` application is
//!   written this way; meshes of 64×64 and beyond complete in minutes,
//!   including Barnes-Hut sweeps at ≥100 000 bodies.
//! * **Closures** ([`Diva::run_prototype`]): the paper's library interface —
//!   ordinary sequential Rust, run once per simulated processor, that
//!   accesses shared data through [`ProcCtx`]: typed [`ProcCtx::read`] /
//!   [`ProcCtx::write`] on [`VarHandle`]s, [`ProcCtx::barrier`],
//!   per-variable [`ProcCtx::lock`] / [`ProcCtx::unlock`], modelled local
//!   computation via [`ProcCtx::compute`], and explicit
//!   [`ProcCtx::send_msg`] / [`ProcCtx::recv_msg`] message passing for
//!   hand-optimized baselines. A closure is a program: each one runs on its
//!   own OS thread behind a `ProcProgram` that hands the run one operation
//!   per step, so it goes through `run_driven` like everything else and
//!   produces the [`RunReport`] of the state machine issuing the same
//!   operations. Loops, recursion and early returns make a first version of
//!   an application — or a test — easy to write, at the price of a thread per
//!   processor and two channel hops per operation.
//! * The **access-tree strategy**
//!   ([`policy::access_tree::AccessTreePolicy`]): per-variable access trees
//!   derived from the hierarchical mesh decomposition, embedded randomly but
//!   locality-preservingly into the mesh, with the caching protocol of the
//!   paper (copies form a connected tree component; reads extend it towards
//!   the reader; writes invalidate everything outside the path from the
//!   update point to the writer). All tree shapes of the paper are supported:
//!   2-ary, 4-ary, 16-ary and ℓ-k-ary.
//! * The **fixed-home strategy**
//!   ([`policy::fixed_home::FixedHomePolicy`]): the classical ownership
//!   scheme run at a random home processor per variable — the CC-NUMA-like
//!   baseline of the paper.
//! * A combining-tree [`barrier`](crate::barrier::TreeBarrier) and
//!   FIFO distributed locks, both generating real simulated traffic.
//! * A full **variable lifecycle** (see [`var`]): register → access → free,
//!   with per-variable frees ([`ProcCtx::free`] / [`Op::Free`]) and bulk
//!   epoch reclamation ([`ProcCtx::end_epoch`] / [`Op::EndEpoch`]). Freed
//!   slots are recycled, so per-variable protocol state is bounded by the
//!   *live* working set — the Barnes-Hut application retires each time
//!   step's tree cells at the step barrier, capping state at O(cells per
//!   step) instead of O(steps × cells). Frees are pure bookkeeping: a
//!   reclaiming run is bit-identical (in simulated quantities) to a leaking
//!   one.
//! * A [`RunReport`] with execution time, congestion (in messages and bytes),
//!   protocol counters, per-region (per-phase) statistics,
//!   variable-lifecycle statistics (registrations, frees, live high-water)
//!   and fault accounting ([`FaultTally`]).
//! * **Fault injection** (see [`fault`]): a seeded, declarative [`FaultPlan`]
//!   degrades or fails links and fail-stops nodes' data-management roles at
//!   scheduled times. Directory state re-homes to deterministic successors
//!   (migration traffic is charged to the run), dead links are detoured
//!   around, and a disconnected machine ends the run cleanly as
//!   [`RunOutcome::Partitioned`].
//!
//! ## Example
//!
//! ```
//! use dm_diva::{Diva, DivaConfig, StrategyKind};
//! use dm_mesh::{Mesh, TreeShape};
//!
//! // An 8x8 mesh managed by the 4-ary access-tree strategy.
//! let mut diva = Diva::new(DivaConfig::on(
//!     Mesh::square(8),
//!     StrategyKind::AccessTree(TreeShape::quad()),
//! ));
//! // One shared object, initially cached at processor 0.
//! let shared = diva.alloc(0, 1024, vec![0u32; 256]);
//! let outcome = diva
//!     .run_prototype(|ctx| {
//!         // Every processor reads the object; the access tree distributes
//!         // copies along its branches.
//!         let data = ctx.read::<Vec<u32>>(shared);
//!         ctx.barrier();
//!         data.len()
//!     })
//!     .expect_completed();
//! assert!(outcome.results.iter().all(|&n| n == 256));
//! println!("{}", outcome.report.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod embedding;
mod fasthash;
pub mod fault;
mod holders;
pub mod policy;
pub(crate) mod report;
mod runtime;
pub mod var;

pub use embedding::{Embedder, EmbeddingMode, VarPlacement};
pub use fault::FaultPlan;
pub use policy::{AccessKind, Counter, Policy, PolicyEnv, PolicyMsg, TxId};
pub use report::{FaultTally, RegionReport, RunReport, ServingReport, RESPONSE_BUCKETS};
pub use runtime::{
    Degraded, Diva, DivaConfig, Observer, Op, Partitioned, ProcCtx, ProcProgram, QueueOp, RunDone,
    RunOutcome, StepCtx, StrategyKind,
};
pub use var::{Value, VarHandle, VarRegistry};
