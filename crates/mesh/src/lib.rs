//! # dm-mesh — 2-D mesh topology and hierarchical decomposition
//!
//! This crate provides the network substrate used throughout the DIVA
//! reproduction:
//!
//! * [`Mesh`] — a 2-dimensional mesh of processors with row-major node
//!   numbering, bidirectional links between orthogonal neighbours, and
//!   dimension-by-dimension order ("X-Y") routing, exactly the routing
//!   discipline of the Parsytec GCel wormhole router assumed by the paper.
//!   [`Mesh::torus`] adds wraparound links and routes the shorter way round.
//! * [`AnyTopology`] — the network interface the simulator carries (node/link
//!   enumeration, deterministic routing, fault detours, the row-major
//!   layout the decomposition halves): a closed enum over the mesh (or
//!   torus) and two further networks, [`Hypercube`] (e-cube routing) and
//!   [`FatTree`] (switch-based, capacities doubling towards the root).
//! * [`Leg`] — a run of links with consecutive ids that a route crosses in
//!   order: the unit routes are handed out in ([`AnyTopology::for_each_leg`]).
//! * [`Submesh`] — rectangular sub-regions of a mesh.
//! * [`DecompositionTree`] — the recursive hierarchical mesh decomposition of
//!   Section 2 of the paper, in its 2-ary form and in the flattened 4-ary,
//!   16-ary and ℓ-k-ary variants used by the DIVA library. Every network is
//!   decomposed as a grid: the mesh and torus as themselves, the hypercube
//!   and fat tree as the 1×n strip of their node ids
//!   ([`AnyTopology::layout`]).
//! * [`LinkStats`] — per-link byte/message counters from which congestion (the
//!   maximum over all links) is computed.
//!
//! The crate is deliberately free of any simulation or protocol logic: it only
//! answers combinatorial questions ("which links does a message from node `u`
//! to node `v` cross?", "which processors form the level-3 submesh containing
//! node `u`?").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decomp;
mod ids;
mod mesh;
mod stats;
mod submesh;
mod topology;

pub use decomp::{DecompositionTree, TreeNodeId, TreeShape};
pub use ids::{Direction, LinkId, NodeId};
pub use mesh::Mesh;
pub use stats::LinkStats;
pub use submesh::Submesh;
pub use topology::{AnyTopology, FatTree, Hypercube, Leg};
