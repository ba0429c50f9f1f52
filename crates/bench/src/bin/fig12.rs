//! Figure 12 (beyond the paper): the five strategies of the Barnes-Hut
//! figures across the four topologies — mesh, torus, hypercube, fat tree —
//! at matched node counts, under the uniform-random and Barnes-Hut
//! workloads.
//!
//! The access tree of every variable is built from the *topology's own*
//! recursive decomposition (the paper's construction for general networks),
//! so this figure is the first direct measurement of the strategy beyond
//! meshes in this reproduction.

use dm_bench::table::{emit, secs, Column};
use dm_bench::topo_exp::{cross_topology_sweep, TopoRow};
use dm_bench::HarnessOpts;

const COLUMNS: &[Column<TopoRow>] = &[
    ("topology", |r| r.topology.clone()),
    ("workload", |r| r.workload.clone()),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[msgs]", |r| r.congestion_msgs.to_string()),
    ("exec time[s]", |r| secs(r.exec_time_ns)),
    ("total msgs", |r| r.total_msgs.to_string()),
];

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(sweep) = cross_topology_sweep(&opts) else {
        return;
    };
    let title = format!(
        "Figure 12 — strategies across topologies at {} nodes ({} scale)",
        sweep.meta.nodes, sweep.meta.scale
    );
    emit(&opts, "fig12", &title, COLUMNS, &sweep.rows, &sweep);
}
