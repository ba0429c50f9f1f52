//! Figure 13 (beyond the paper): graceful degradation under faults.
//!
//! Each (topology, strategy, workload) group runs a fixed scenario ladder —
//! intact, 20% of links degraded to quarter bandwidth, 10%/20% of links
//! failed, a transient 1 ms link flap, one node failed and restored, four
//! nodes failed — under a seeded [`dm_diva::FaultPlan`], and every faulted
//! row reports its congestion and completion-time deltas against the intact
//! baseline of its own group. `--strike-at 0,25,50,75` repeats every
//! faulted rung at each strike time, expressed as a percent of the group's
//! intact run length (mid-run strikes hit warmed-up routes and directory
//! state). Scenarios that disconnect the network render as
//! `partitioned@<node>` instead of aborting the sweep, and node failures
//! render as `degraded@<n>` with the survivors' measurements: clean
//! degradation diagnoses are part of the robustness contract being
//! measured.

use dm_bench::fault_exp::{graceful_degradation_sweep, FaultRow};
use dm_bench::table::{emit, secs, Column};
use dm_bench::HarnessOpts;

const COLUMNS: &[Column<FaultRow>] = &[
    ("topology", |r| r.topology.clone()),
    ("workload", |r| r.workload.clone()),
    ("strategy", |r| r.strategy.clone()),
    ("scenario", |r| r.scenario.clone()),
    ("strike", |r| {
        if faulted(r) {
            format!("{}%", r.strike_pct)
        } else {
            "—".to_string()
        }
    }),
    ("outcome", |r| r.outcome.clone()),
    ("congestion[msgs]", |r| r.congestion_msgs.to_string()),
    ("Δcongestion", |r| pct(r, r.congestion_delta_pct)),
    ("exec time[s]", |r| secs(r.exec_time_ns)),
    ("Δtime", |r| pct(r, r.time_delta_pct)),
    ("rehomed[B]", |r| r.rehome_bytes.to_string()),
];

fn faulted(r: &FaultRow) -> bool {
    r.scenario != "intact"
}

/// A signed percent delta, or a dash for rows it does not apply to (the
/// intact baseline and partitioned rows).
fn pct(r: &FaultRow, value: f64) -> String {
    if faulted(r) && !r.outcome.starts_with("partitioned") {
        format!("{value:+.1}%")
    } else {
        "—".to_string()
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(sweep) = graceful_degradation_sweep(&opts) else {
        return;
    };
    let strikes: Vec<String> = sweep.meta.strikes.iter().map(u64::to_string).collect();
    let title = format!(
        "Figure 13 — graceful degradation under faults at {} nodes ({} scale, {} scenarios, \
         strikes at {}% of the intact run)",
        sweep.meta.nodes,
        sweep.meta.scale,
        sweep.meta.scenarios,
        strikes.join("/")
    );
    emit(&opts, "fig13", &title, COLUMNS, &sweep.rows, &sweep);
}
