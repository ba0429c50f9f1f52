//! Figure 6: bitonic sorting on a fixed mesh — congestion and execution-time
//! ratios vs keys per processor, for the fixed-home strategy and the 2-4-ary
//! access tree relative to the hand-optimized baseline. `--arity-sweep`
//! reproduces the 2-ary / 2-4-ary / 4-ary comparison of Section 3.2.

use dm_bench::bitonic_exp::{arity_strategies, figure6, sweep, BitonicRow};
use dm_bench::table::{emit, f2, secs, Column};
use dm_bench::{HarnessOpts, Scale};

const COLUMNS: &[Column<BitonicRow>] = &[
    ("keys/proc", |r| r.keys_per_proc.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[B]", |r| r.congestion_bytes.to_string()),
    ("congestion ratio", |r| f2(r.congestion_ratio)),
    ("exec time[s]", |r| secs(r.exec_time_ns)),
    ("time ratio", |r| f2(r.time_ratio)),
];

fn main() {
    let (opts, flags) = HarnessOpts::parse(&["--arity-sweep"]);
    let rows = if flags.has("--arity-sweep") {
        let (mesh, keys) = match opts.scale() {
            Scale::Smoke => (4, 256),
            Scale::Default => (8, 1024),
            Scale::Paper => (16, 4096),
            Scale::Mega => (32, 4096),
        };
        sweep(&[(mesh, keys)], &arity_strategies(), &opts, "")
    } else {
        figure6(&opts)
    };
    let Some(rows) = rows else { return };
    let title = format!(
        "Figure 6 — bitonic sorting on a {0}x{0} mesh",
        rows[0].mesh_side
    );
    emit(&opts, "fig6", &title, COLUMNS, &rows, &rows);
}
