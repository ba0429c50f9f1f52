//! Figure 9: Barnes-Hut N-body simulation — congestion and execution time of
//! the tree-building phase (the phase in which the fixed home of the root
//! cell becomes a serial bottleneck).
//!
//! Runs on the event-driven backend; see `fig8` for the sweep tiers.

use dm_bench::bh_exp::{body_sweep, BhRow};
use dm_bench::table::{emit, secs, Column};
use dm_bench::HarnessOpts;

const COLUMNS: &[Column<BhRow>] = &[
    ("bodies", |r| r.n_bodies.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("tree-build congestion[msgs]", |r| {
        r.tree_build_congestion_msgs.to_string()
    }),
    ("tree-build time[s]", |r| secs(r.tree_build_time_ns)),
    ("live vars peak", |r| r.live_vars_peak.to_string()),
];

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(sweep) = body_sweep(&opts) else {
        return;
    };
    let title = format!(
        "Figure 9 — Barnes-Hut tree-building phase on a {}x{} mesh ({} scale)",
        sweep.rows[0].mesh.0, sweep.rows[0].mesh.1, sweep.meta.scale
    );
    emit(&opts, "fig9", &title, COLUMNS, &sweep.rows, &sweep);
}
