//! Figure 10: Barnes-Hut N-body simulation — congestion, execution time and
//! local computation time of the force-computation phase.
//!
//! Runs on the event-driven backend; see `fig8` for the sweep tiers.

use dm_bench::bh_exp::{body_sweep, BhRow};
use dm_bench::table::{emit, secs, Column};
use dm_bench::HarnessOpts;

const COLUMNS: &[Column<BhRow>] = &[
    ("bodies", |r| r.n_bodies.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("force congestion[msgs]", |r| {
        r.force_congestion_msgs.to_string()
    }),
    ("force time[s]", |r| secs(r.force_time_ns)),
    ("local compute[s]", |r| secs(r.force_compute_ns)),
    ("live vars peak", |r| r.live_vars_peak.to_string()),
];

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(sweep) = body_sweep(&opts) else {
        return;
    };
    let title = format!(
        "Figure 10 — Barnes-Hut force-computation phase on a {}x{} mesh ({} scale)",
        sweep.rows[0].mesh.0, sweep.rows[0].mesh.1, sweep.meta.scale
    );
    emit(&opts, "fig10", &title, COLUMNS, &sweep.rows, &sweep);
}
