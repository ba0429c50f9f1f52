//! Figure 8: Barnes-Hut N-body simulation — total congestion (in messages)
//! and execution time of the measured time steps, vs the number of bodies,
//! for the fixed-home strategy and the 2/4/16-ary and 4-16-ary access trees.
//!
//! Runs on the event-driven backend. `--mega` extends the body-count axis to
//! 100 000 bodies on a 64×64 mesh (4 096 processors — 16× the paper's
//! platform).

use dm_bench::bh_exp::{body_sweep, BhRow};
use dm_bench::table::{emit, secs, Column};
use dm_bench::HarnessOpts;

const COLUMNS: &[Column<BhRow>] = &[
    ("bodies", |r| r.n_bodies.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[msgs]", |r| r.congestion_msgs.to_string()),
    ("exec time[s]", |r| secs(r.exec_time_ns)),
    ("live vars peak", |r| r.live_vars_peak.to_string()),
];

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(sweep) = body_sweep(&opts) else {
        return;
    };
    let title = format!(
        "Figure 8 — Barnes-Hut on a {}x{} mesh (measured steps only, {} scale)",
        sweep.rows[0].mesh.0, sweep.rows[0].mesh.1, sweep.meta.scale
    );
    emit(&opts, "fig8", &title, COLUMNS, &sweep.rows, &sweep);
}
