//! # dm-apps — the benchmark applications of the DIVA evaluation
//!
//! The three applications Section 3 of the paper uses to evaluate the
//! access-tree strategy, each implemented on top of the [`dm_diva`] library:
//!
//! * [`matmul`] — matrix multiplication (matrix square) with the staggered
//!   read schedule of the paper and a hand-optimized message-passing baseline
//!   that achieves minimal congestion (Figures 3 and 4).
//! * [`bitonic`] — bitonic sorting with merge&split steps on the
//!   decomposition-tree wire numbering, plus its message-passing baseline
//!   (Figures 6 and 7).
//! * [`barnes_hut`] — the SPLASH-2 Barnes-Hut N-body simulation adapted to
//!   DIVA: a shared octree rebuilt every step under per-cell locks,
//!   centre-of-mass pass, costzones partitioning, force computation and
//!   integration (Figures 8–11).
//! * `octree` — arena-allocated octrees: the packed child encoding shared
//!   by the simulated Barnes-Hut cells and the sequential reference tree.
//! * [`uniform`] — the uniform-random shared-variable workload, run by the
//!   [`kv`] client with uniform keys: the locality-free probe the `fig12`
//!   cross-topology sweep runs next to Barnes-Hut on the mesh, torus,
//!   hypercube and fat tree.
//! * [`kv`] — the trace-driven KV/cache serving tier: Zipf-skewed and
//!   migrating-hotspot request streams with configurable read/write mix and
//!   seeded client churn, the workload of the `fig14` serving sweep.
//! * [`workload`] — deterministic input generators (matrix blocks, sort keys,
//!   Plummer bodies, Zipf/hotspot/churn request schedules).
//!
//! Every application comes with a sequential reference implementation used by
//! the test suite to verify that the parallel runs compute correct results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes_hut;
pub mod bitonic;
pub mod kv;
pub mod matmul;
pub(crate) mod octree;
pub mod uniform;
pub mod workload;

pub use workload::Body;
