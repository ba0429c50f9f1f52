//! Bitonic-sorting experiments (Figures 6 and 7 and the arity comparison of
//! Section 3.2).
//!
//! Like `matmul_exp`, every sweep first *describes* its runs as executor
//! [`Job`]s (one per point × strategy, plus one baseline per point, each
//! owning its constructed [`Diva`](dm_diva::Diva)) and assembles the ratio
//! rows from the description-ordered results — byte-identical output for
//! every `--jobs` value, across `--resume`, and across shard/merge.

use crate::executor::Job;
use crate::stream::run_rows;
use crate::table::{emit, f2, secs, Column};
use crate::{baseline_jobs, for_each_group, ratio, ExtraFlags, HarnessOpts, Scale};
use dm_apps::bitonic::{run_hand_optimized_driven, run_shared_driven, BitonicParams};
use dm_diva::StrategyKind;
use dm_mesh::TreeShape;

crate::row! {
    /// One row of a bitonic-sorting figure.
    pub struct BitonicRow: Row {
        /// Strategy name.
        pub strategy: String,
        /// Mesh side length (√P).
        pub mesh_side: usize,
        /// Keys per processor.
        pub keys_per_proc: usize,
        /// Congestion (bytes over the hottest link).
        pub congestion_bytes: u64,
        /// Execution time in virtual nanoseconds.
        pub exec_time_ns: u64,
        /// Congestion ratio vs the hand-optimized baseline.
        pub congestion_ratio: f64,
        /// Execution-time ratio vs the hand-optimized baseline.
        pub time_ratio: f64,
        /// Host wall-clock milliseconds this run took on its worker (JSON
        /// only — contention-skewed under high `--jobs`, excluded from
        /// goldens).
        pub host_ms: f64,
    }
}

/// The strategies Figure 6/7 compare against the baseline (the paper plots
/// the fixed home and the 2-4-ary access tree).
pub(crate) fn figure_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::FixedHome,
        StrategyKind::AccessTree(TreeShape::lk(2, 4)),
    ]
}

/// The arity comparison of the text of Section 3.2.
pub(crate) fn arity_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::AccessTree(TreeShape::binary()),
        StrategyKind::AccessTree(TreeShape::lk(2, 4)),
        StrategyKind::AccessTree(TreeShape::quad()),
    ]
}

/// The columns of a keys-per-processor sweep (Figure 6).
const KEYS_COLUMNS: &[Column<BitonicRow>] = &[
    ("keys/proc", |r| r.keys_per_proc.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[B]", |r| r.congestion_bytes.to_string()),
    ("congestion ratio", |r| f2(r.congestion_ratio)),
    ("exec time[s]", |r| secs(r.exec_time_ns)),
    ("time ratio", |r| f2(r.time_ratio)),
];

/// The columns of a network-size sweep (Figure 7 and `scale`).
pub(crate) const MESH_COLUMNS: &[Column<BitonicRow>] = &[
    ("mesh", |r| format!("{0}x{0}", r.mesh_side)),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[B]", |r| r.congestion_bytes.to_string()),
    ("congestion ratio", |r| f2(r.congestion_ratio)),
    ("exec time[s]", |r| secs(r.exec_time_ns)),
    ("time ratio", |r| f2(r.time_ratio)),
];

/// Run the bitonic sort for the given (mesh, keys) points through the
/// checkpointed sweep engine; rows come back in point order, baseline
/// first. `None` means the sweep is incomplete (shard run or cut-short
/// run); the sidecar holds the completed jobs.
pub(crate) fn sweep(
    points: &[(usize, usize)],
    strategies: &[StrategyKind],
    opts: &HarnessOpts,
    tag: &str,
) -> Option<Vec<BitonicRow>> {
    let mut jobs: Vec<Job<BitonicRow>> = Vec::new();
    for &(mesh_side, keys_per_proc) in points {
        let params = BitonicParams::new(keys_per_proc);
        // Cost grows with the processor count and the keys each holds; the
        // baseline exchanges the same keys without protocol traffic.
        let weight = (mesh_side * mesh_side) as u64 * keys_per_proc as u64;
        jobs.extend(baseline_jobs(
            mesh_side,
            weight,
            strategies,
            opts,
            move |diva, name| {
                let (report, strategy, placeholder) = match name {
                    None => (
                        run_hand_optimized_driven(diva, params).report,
                        "hand-optimized".to_string(),
                        1.0,
                    ),
                    Some(name) => (run_shared_driven(diva, params).report, name, f64::NAN),
                };
                BitonicRow {
                    strategy,
                    mesh_side,
                    keys_per_proc,
                    congestion_bytes: report.congestion_bytes(),
                    exec_time_ns: report.total_time,
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
        row.time_ratio = ratio(row.exec_time_ns, base.exec_time_ns);
    });
    Some(rows)
}

/// `fig6`: fixed mesh, keys-per-processor sweep, for the fixed-home strategy
/// and the 2-4-ary access tree relative to the hand-optimized baseline.
/// `--arity-sweep` runs one point under [`arity_strategies`] instead.
pub(crate) fn fig6(opts: &HarnessOpts, flags: &ExtraFlags) {
    let (points, strategies) = if flags.has("--arity-sweep") {
        let point = match opts.scale {
            Scale::Smoke => (4, 256),
            Scale::Default => (8, 1024),
            Scale::Paper => (16, 4096),
            Scale::Mega => (32, 4096),
        };
        (vec![point], arity_strategies())
    } else {
        let (mesh_side, keys): (usize, Vec<usize>) = match opts.scale {
            Scale::Smoke => (4, vec![64, 256]),
            Scale::Default => (8, vec![256, 1024, 4096]),
            Scale::Paper => (16, vec![256, 1024, 4096, 16384]),
            Scale::Mega => (32, vec![1024, 4096]),
        };
        let points = keys.into_iter().map(|k| (mesh_side, k)).collect();
        (points, figure_strategies())
    };
    let Some(rows) = sweep(&points, &strategies, opts, "") else {
        return;
    };
    let side = points[0].0;
    let title = format!("Figure 6 — bitonic sorting on a {side}x{side} mesh");
    emit(opts, "fig6", &title, KEYS_COLUMNS, &rows, &rows);
}

pub(crate) fn fig7(opts: &HarnessOpts, _: &ExtraFlags) {
    let (sides, keys): (Vec<usize>, usize) = match opts.scale {
        Scale::Smoke => (vec![2, 4], 256),
        Scale::Default => (vec![4, 8, 16], 1024),
        Scale::Paper => (vec![4, 8, 16, 32], 4096),
        Scale::Mega => (vec![16, 32, 64], 1024),
    };
    let points: Vec<(usize, usize)> = sides.into_iter().map(|s| (s, keys)).collect();
    let Some(rows) = sweep(&points, &figure_strategies(), opts, "") else {
        return;
    };
    let title = format!("Figure 7 — bitonic sorting, {keys} keys per processor");
    emit(opts, "fig7", &title, MESH_COLUMNS, &rows, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One point of the figure, serially (the executor with one worker).
    fn point(mesh_side: usize, volume: usize, seed: u64) -> Vec<BitonicRow> {
        let opts = HarnessOpts {
            seed,
            jobs: Some(1),
            ..HarnessOpts::default()
        };
        sweep(&[(mesh_side, volume)], &figure_strategies(), &opts, "")
            .expect("un-checkpointed sweep is always complete")
    }

    #[test]
    fn figure6_point_reproduces_the_ordering_of_the_paper() {
        let rows = point(4, 256, 11);
        let fh = rows.iter().find(|r| r.strategy == "fixed home").unwrap();
        let at = rows
            .iter()
            .find(|r| r.strategy.contains("2-4-ary"))
            .unwrap();
        // Both dynamic strategies pay a congestion factor over the baseline;
        // the access tree pays less than the fixed home.
        assert!(at.congestion_ratio >= 1.0);
        assert!(fh.congestion_ratio > at.congestion_ratio);
    }
}
