//! Matrix-multiplication experiments (Figures 3 and 4 and the arity sweep of
//! Section 3.1).
//!
//! Every sweep *describes* its runs as executor [`Job`]s first — one job per
//! (point, strategy) plus one per baseline, each owning a fully constructed
//! [`Diva`](dm_diva::Diva) — and hands them to the checkpointed sweep engine
//! (`crate::stream::run_sweep`); the ratios against the hand-optimized
//! baseline are assembled afterwards from the description-ordered results,
//! so tables and JSON are byte-identical for every `--jobs` value, across
//! `--resume`, and across shard/merge. The sidecar stores the pre-ratio
//! rows; ratios are always recomputed at assembly.

use crate::executor::Job;
use crate::stream::run_rows;
use crate::table::{emit, f2, secs, Column};
use crate::{baseline_jobs, for_each_group, ratio, ExtraFlags, HarnessOpts, Scale};
use dm_apps::matmul::{run_hand_optimized_driven, run_shared_driven, MatmulParams};
use dm_diva::StrategyKind;
use dm_mesh::TreeShape;

crate::row! {
    /// One row of a matrix-multiplication figure: the congestion and
    /// communication-time ratios of a dynamic strategy relative to the
    /// hand-optimized message-passing baseline.
    pub struct MatmulRow: Row {
        /// Strategy name.
        pub strategy: String,
        /// Mesh side length (√P).
        pub mesh_side: usize,
        /// Block size in integers.
        pub block_ints: usize,
        /// Congestion (bytes over the hottest link).
        pub congestion_bytes: u64,
        /// Communication time in virtual nanoseconds.
        pub comm_time_ns: u64,
        /// Congestion ratio vs the hand-optimized baseline.
        pub congestion_ratio: f64,
        /// Communication-time ratio vs the hand-optimized baseline.
        pub time_ratio: f64,
        /// Host wall-clock milliseconds this run took on its worker (JSON
        /// only — contention-skewed under high `--jobs`, excluded from
        /// goldens).
        pub host_ms: f64,
    }
}

/// The columns of a block-size sweep (Figure 3).
const BLOCK_COLUMNS: &[Column<MatmulRow>] = &[
    ("block", |r| r.block_ints.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[B]", |r| r.congestion_bytes.to_string()),
    ("congestion ratio", |r| f2(r.congestion_ratio)),
    ("comm time[s]", |r| secs(r.comm_time_ns)),
    ("time ratio", |r| f2(r.time_ratio)),
];

/// The columns of a network-size sweep (Figure 4 and `scale`).
pub(crate) const MESH_COLUMNS: &[Column<MatmulRow>] = &[
    ("mesh", |r| format!("{0}x{0}", r.mesh_side)),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[B]", |r| r.congestion_bytes.to_string()),
    ("congestion ratio", |r| f2(r.congestion_ratio)),
    ("comm time[s]", |r| secs(r.comm_time_ns)),
    ("time ratio", |r| f2(r.time_ratio)),
];

/// Run the matrix square for the given (mesh, block size) points with the
/// given dynamic strategies plus the baseline, through the checkpointed
/// sweep engine, and return the rows in point order (baseline first per
/// point). `None` means the sweep is incomplete (shard run or cut-short
/// run); the sidecar holds the completed jobs.
pub(crate) fn sweep(
    points: &[(usize, usize)],
    strategies: &[StrategyKind],
    opts: &HarnessOpts,
    tag: &str,
) -> Option<Vec<MatmulRow>> {
    let mut jobs: Vec<Job<MatmulRow>> = Vec::new();
    for &(mesh_side, block_ints) in points {
        let params = MatmulParams::new(block_ints);
        // Simulation cost grows with the mesh area and the block volume; the
        // baseline moves strictly less data than any dynamic strategy.
        let weight = (mesh_side * mesh_side) as u64 * block_ints as u64;
        jobs.extend(baseline_jobs(
            mesh_side,
            weight,
            strategies,
            opts,
            move |diva, name| {
                // Ratios of the dynamic strategies stay `NAN` placeholders
                // until assembly.
                let (report, strategy, placeholder) = match name {
                    None => (
                        run_hand_optimized_driven(diva, params).report,
                        "hand-optimized".to_string(),
                        1.0,
                    ),
                    Some(name) => (run_shared_driven(diva, params).report, name, f64::NAN),
                };
                MatmulRow {
                    strategy,
                    mesh_side,
                    block_ints,
                    congestion_bytes: report.congestion_bytes(),
                    comm_time_ns: report.comm_time(),
                    congestion_ratio: placeholder,
                    time_ratio: placeholder,
                    host_ms: 0.0,
                }
            },
        ));
    }
    let mut rows = run_rows(opts, tag, jobs)?;
    for_each_group(&mut rows, strategies.len() + 1, |base, row| {
        row.congestion_ratio = ratio(row.congestion_bytes, base.congestion_bytes);
        row.time_ratio = ratio(row.comm_time_ns, base.comm_time_ns);
    });
    Some(rows)
}

/// The two strategies Figure 3 and 4 compare against the baseline.
pub(crate) fn figure_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::FixedHome,
        StrategyKind::AccessTree(TreeShape::quad()),
    ]
}

/// The access-tree arity sweep discussed in the text of Section 3.1.
pub(crate) fn arity_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::AccessTree(TreeShape::binary()),
        StrategyKind::AccessTree(TreeShape::lk(2, 4)),
        StrategyKind::AccessTree(TreeShape::quad()),
        StrategyKind::AccessTree(TreeShape::lk(4, 16)),
        StrategyKind::AccessTree(TreeShape::hex16()),
    ]
}

/// `fig3`: fixed mesh, block size sweep, for the fixed-home strategy and the
/// 4-ary access tree relative to the hand-optimized message-passing
/// baseline. `--arity-sweep` runs one point under [`arity_strategies`]
/// instead.
pub(crate) fn fig3(opts: &HarnessOpts, flags: &ExtraFlags) {
    let (points, strategies) = if flags.has("--arity-sweep") {
        let point = match opts.scale {
            Scale::Smoke => (4, 256),
            Scale::Default => (8, 1024),
            Scale::Paper => (16, 4096),
            Scale::Mega => (32, 4096),
        };
        (vec![point], arity_strategies())
    } else {
        let (mesh_side, blocks): (usize, Vec<usize>) = match opts.scale {
            Scale::Smoke => (4, vec![64, 256]),
            Scale::Default => (8, vec![64, 256, 1024]),
            Scale::Paper => (16, vec![64, 256, 1024, 4096]),
            Scale::Mega => (32, vec![256, 1024, 4096]),
        };
        let points = blocks.into_iter().map(|b| (mesh_side, b)).collect();
        (points, figure_strategies())
    };
    let Some(rows) = sweep(&points, &strategies, opts, "") else {
        return;
    };
    let side = points[0].0;
    let title = format!("Figure 3 — matrix multiplication on a {side}x{side} mesh");
    emit(opts, "fig3", &title, BLOCK_COLUMNS, &rows, &rows);
}

pub(crate) fn fig4(opts: &HarnessOpts, _: &ExtraFlags) {
    let (sides, block): (Vec<usize>, usize) = match opts.scale {
        Scale::Smoke => (vec![2, 4], 256),
        Scale::Default => (vec![4, 8, 16], 1024),
        Scale::Paper => (vec![4, 8, 16, 32], 4096),
        Scale::Mega => (vec![16, 32, 64], 1024),
    };
    let points: Vec<(usize, usize)> = sides.into_iter().map(|s| (s, block)).collect();
    let Some(rows) = sweep(&points, &figure_strategies(), opts, "") else {
        return;
    };
    let title = format!("Figure 4 — matrix multiplication, block size {block}");
    emit(opts, "fig4", &title, MESH_COLUMNS, &rows, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One point of the figure, serially (the executor with one worker).
    fn point(mesh_side: usize, volume: usize, seed: u64) -> Vec<MatmulRow> {
        let opts = HarnessOpts {
            seed,
            jobs: Some(1),
            ..HarnessOpts::default()
        };
        sweep(&[(mesh_side, volume)], &figure_strategies(), &opts, "")
            .expect("un-checkpointed sweep is always complete")
    }

    #[test]
    fn figure3_point_reproduces_the_ordering_of_the_paper() {
        // At any scale: hand-optimized < access tree < fixed home in
        // congestion, and the access tree beats the fixed home in time.
        let rows = point(8, 256, 7);
        assert_eq!(rows.len(), 3);
        let base = &rows[0];
        let fh = rows.iter().find(|r| r.strategy == "fixed home").unwrap();
        let at = rows.iter().find(|r| r.strategy.contains("4-ary")).unwrap();
        assert_eq!(base.congestion_ratio, 1.0);
        assert!(
            at.congestion_ratio > 1.0,
            "access tree ratio {}",
            at.congestion_ratio
        );
        assert!(
            fh.congestion_ratio > at.congestion_ratio,
            "fixed home {} vs access tree {}",
            fh.congestion_ratio,
            at.congestion_ratio
        );
        assert!(
            fh.comm_time_ns > at.comm_time_ns,
            "fixed home time {} vs access tree time {}",
            fh.comm_time_ns,
            at.comm_time_ns
        );
    }
}
