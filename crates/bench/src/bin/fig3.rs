//! Figure 3: matrix multiplication on a fixed mesh — congestion and
//! communication-time ratios vs block size, for the fixed-home strategy and
//! the 4-ary access tree, relative to the hand-optimized message-passing
//! baseline. `--arity-sweep` additionally reproduces the access-tree arity
//! comparison discussed in the text of Section 3.1.

use dm_bench::matmul_exp::{arity_strategies, figure3, sweep, MatmulRow};
use dm_bench::table::{emit, f2, secs, Column};
use dm_bench::{HarnessOpts, Scale};

const COLUMNS: &[Column<MatmulRow>] = &[
    ("block", |r| r.block_ints.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[B]", |r| r.congestion_bytes.to_string()),
    ("congestion ratio", |r| f2(r.congestion_ratio)),
    ("comm time[s]", |r| secs(r.comm_time_ns)),
    ("time ratio", |r| f2(r.time_ratio)),
];

fn main() {
    let (opts, flags) = HarnessOpts::parse(&["--arity-sweep"]);
    let rows = if flags.has("--arity-sweep") {
        let (mesh, block) = match opts.scale() {
            Scale::Smoke => (4, 256),
            Scale::Default => (8, 1024),
            Scale::Paper => (16, 4096),
            Scale::Mega => (32, 4096),
        };
        sweep(&[(mesh, block)], &arity_strategies(), &opts, "")
    } else {
        figure3(&opts)
    };
    let Some(rows) = rows else { return };
    let title = format!(
        "Figure 3 — matrix multiplication on a {0}x{0} mesh",
        rows[0].mesh_side
    );
    emit(&opts, "fig3", &title, COLUMNS, &rows, &rows);
}
