//! Barnes-Hut experiments (Figures 8, 9, 10 and 11) — and the one
//! description of a Barnes-Hut simulation point (`BhPoint`) every sweep
//! that runs the application shares (fig12 and fig13 reduce the same job to
//! their own rows).
//!
//! Every sweep returns a [`Sweep`]: the measured rows plus the sweep
//! metadata (scale tier, time-step count, θ, seed) that the JSON output
//! carries so downstream tooling can tell sweep points from different tiers
//! apart.

use crate::executor::Job;
use crate::stream::run_rows;
use crate::table::{emit, secs, Column};
use crate::{barnes_hut_shapes, make_diva, ExtraFlags, HarnessOpts, Scale, Sweep};
use dm_apps::barnes_hut::{try_run_shared_driven, BhOutcome, BhParams};
use dm_apps::workload::{plummer_bodies, Body};
use dm_diva::{FaultPlan, Partitioned, RegionReport, RunReport, StrategyKind};
use dm_mesh::{AnyTopology, Mesh, TreeShape};

crate::row! {
    /// Measurements of one Barnes-Hut run, reduced to the quantities the
    /// four figures plot.
    pub struct BhRow: Row {
        /// Strategy name.
        pub strategy: String,
        /// Mesh dimensions.
        pub mesh: (usize, usize),
        /// Number of bodies.
        pub n_bodies: usize,
        /// Total congestion in messages (Figure 8, left).
        pub congestion_msgs: u64,
        /// Total execution time of the measured steps in ns (Figure 8, right).
        pub exec_time_ns: u64,
        /// Tree-building phase congestion in messages (Figure 9, left).
        pub tree_build_congestion_msgs: u64,
        /// Tree-building phase time in ns (Figure 9, right).
        pub tree_build_time_ns: u64,
        /// Force-computation phase congestion in messages (Figure 10, left).
        pub force_congestion_msgs: u64,
        /// Force-computation phase time in ns (Figure 10, right).
        pub force_time_ns: u64,
        /// Local computation time inside the force phase in ns (Figure 10/11).
        pub force_compute_ns: u64,
        /// Total interactions computed (sanity/diagnostics).
        pub interactions: u64,
        /// Peak number of simultaneously live DIVA variables — flat in the
        /// time-step count, since each step's cells are freed at the step
        /// barrier.
        pub live_vars_peak: u64,
        /// Host wall-clock milliseconds this run took on its worker (JSON
        /// only — contention-skewed under high `--jobs`, excluded from
        /// goldens).
        pub host_ms: f64,
    }
}

crate::row! {
    /// Metadata describing a sweep: which tier produced the rows and the
    /// simulation parameters all rows share.
    pub struct SweepMeta {
        /// Scale tier name (`smoke`/`default`/`paper`/`mega`).
        pub scale: String,
        /// Simulated time steps per run.
        pub timesteps: usize,
        /// Leading steps excluded from the measurement.
        pub warmup_steps: usize,
        /// Opening criterion θ.
        pub theta: f64,
        /// Seed of the run.
        pub seed: u64,
    }
}

/// One Barnes-Hut simulation point on any topology.
pub(crate) struct BhPoint {
    /// The network the run is simulated on.
    pub topo: AnyTopology,
    /// The data-management strategy.
    pub strategy: StrategyKind,
    /// Body count, time steps, θ.
    pub params: BhParams,
    /// Seed of the body cloud and of all placement decisions.
    pub seed: u64,
}

impl BhPoint {
    /// Describe the point as an executor [`Job`] whose closure hands the
    /// point and its Plummer body cloud to `reduce`. The cloud and the
    /// network are built inside the job (both deterministic from the seed),
    /// so a described mega sweep does not hold every point's bodies in
    /// memory at once. The scheduling weight is bodies × time steps × nodes
    /// (simulation cost scales with bodies × steps, amplified by the network
    /// the protocol traffic crosses) × `runs`, the number of simulations
    /// `reduce` performs.
    pub(crate) fn job<R>(
        self,
        runs: u64,
        reduce: impl FnOnce(&BhPoint, &[Body]) -> R + Send + 'static,
    ) -> Job<R> {
        let (n, steps) = (self.params.n_bodies, self.params.timesteps as u64);
        let weight = runs * n as u64 * self.topo.nodes() as u64 * steps.max(1);
        Job::new(weight, move || {
            reduce(&self, &plummer_bodies(self.seed ^ n as u64, n))
        })
    }

    /// Simulate the point once on the event-driven backend, under an
    /// optional fault schedule. `Err` is a run the schedule partitioned (it
    /// carries the partial report); an intact run always completes.
    #[allow(clippy::result_large_err)] // one per simulation; by-value is fine
    pub(crate) fn run(
        &self,
        bodies: &[Body],
        plan: Option<FaultPlan>,
    ) -> Result<BhOutcome, Partitioned> {
        let diva = make_diva(self.topo.clone(), self.strategy, self.seed, plan);
        try_run_shared_driven(diva, self.params, bodies)
    }
}

/// The measured part of a run: the whole run minus its `warmup` region —
/// everything, for workloads that have none.
pub(crate) fn measured_time(report: &RunReport) -> u64 {
    let warmup = report.region("warmup").map_or(0, |r| r.wall_time);
    report.total_time.saturating_sub(warmup)
}

/// Describe one mesh Barnes-Hut point as a [`BhRow`] job.
pub(crate) fn point_job(
    mesh: (usize, usize),
    strategy: StrategyKind,
    params: BhParams,
    seed: u64,
) -> Job<BhRow> {
    let point = BhPoint {
        topo: Mesh::new(mesh.0, mesh.1).into(),
        strategy,
        params,
        seed,
    };
    point.job(1, move |point, bodies| {
        let Ok(out) = point.run(bodies, None) else {
            unreachable!("an intact run cannot partition")
        };
        let region = |name: &str, quantity: fn(&RegionReport) -> u64| {
            out.report.region(name).map_or(0, quantity)
        };
        BhRow {
            strategy: strategy.name(),
            mesh,
            n_bodies: params.n_bodies,
            congestion_msgs: out.report.congestion_msgs(),
            exec_time_ns: measured_time(&out.report),
            tree_build_congestion_msgs: region("tree-build", |r| r.congestion_msgs),
            tree_build_time_ns: region("tree-build", |r| r.wall_time),
            force_congestion_msgs: region("force", |r| r.congestion_msgs),
            force_time_ns: region("force", |r| r.wall_time),
            force_compute_ns: region("force", |r| r.compute_time),
            interactions: out.interactions,
            live_vars_peak: out.report.live_vars_high_water,
            host_ms: 0.0,
        }
    })
}

/// A sweep's Barnes-Hut parameter prototype: the tier's step counts on the
/// paper's remaining defaults, with `--timesteps N` applied.
pub(crate) fn sweep_params(
    opts: &HarnessOpts,
    n_bodies: usize,
    timesteps: usize,
    warmup_steps: usize,
) -> BhParams {
    let mut params = BhParams {
        timesteps,
        warmup_steps,
        ..BhParams::new(n_bodies)
    };
    if let Some(t) = opts.timesteps {
        params.timesteps = t.max(1);
        params.warmup_steps = params.warmup_steps.min(params.timesteps - 1);
    }
    params
}

fn sweep_of(
    opts: &HarnessOpts,
    params: &BhParams,
    jobs: Vec<Job<BhRow>>,
) -> Option<Sweep<SweepMeta, BhRow>> {
    Some(Sweep {
        meta: SweepMeta {
            scale: opts.scale.name().to_string(),
            timesteps: params.timesteps,
            warmup_steps: params.warmup_steps,
            theta: params.theta,
            seed: opts.seed,
        },
        rows: run_rows(opts, "", jobs)?,
    })
}

/// Run the body-count sweep of Figures 8–10 — a fixed mesh, all five
/// strategies — and render it as one of them. The three differ only in
/// their `phase` columns (between `bodies`, `strategy` and the live-variable
/// peak) and in their title: `what` on the sweep's mesh (`note`, the tier).
///
/// Tiers:
/// * smoke — 4×4 mesh, hundreds of bodies, seconds;
/// * default — 16×16 mesh, 2 000–8 000 bodies;
/// * paper — the paper's 16×16 mesh with 10 000–60 000 bodies and 7 steps;
/// * mega — beyond-paper: a 64×64 mesh (4 096 processors) with up to
///   100 000 bodies.
fn body_figure(opts: &HarnessOpts, tag: &str, what: &str, note: &str, phase: &[Column<BhRow>]) {
    let (mesh, body_counts, (timesteps, warmup)) = match opts.scale {
        Scale::Smoke => ((4, 4), vec![192, 384], (2, 1)),
        Scale::Default => ((16, 16), vec![2_000, 4_000, 8_000], (3, 1)),
        Scale::Paper => (
            (16, 16),
            vec![10_000, 20_000, 30_000, 40_000, 50_000, 60_000],
            (7, 2),
        ),
        Scale::Mega => ((64, 64), vec![50_000, 100_000], (5, 1)),
    };
    let mut params = sweep_params(opts, 0, timesteps, warmup);
    let mut jobs = Vec::new();
    for &n in &body_counts {
        params.n_bodies = n;
        for strategy in barnes_hut_shapes() {
            jobs.push(point_job(mesh, strategy, params, opts.seed));
        }
    }
    let Some(sweep) = sweep_of(opts, &params, jobs) else {
        return;
    };
    let mut columns: Vec<Column<BhRow>> = vec![
        ("bodies", |r| r.n_bodies.to_string()),
        ("strategy", |r| r.strategy.clone()),
    ];
    columns.extend_from_slice(phase);
    columns.push(("live vars peak", |r| r.live_vars_peak.to_string()));
    let scale = &sweep.meta.scale;
    let title = format!(
        "{what} on a {}x{} mesh ({note}{scale} scale)",
        mesh.0, mesh.1
    );
    emit(opts, tag, &title, &columns, &sweep.rows, &sweep);
}

/// `fig8`: the measured time steps as a whole. `--mega` extends the
/// body-count axis to 100 000 bodies on a 64×64 mesh (4 096 processors —
/// 16× the paper's platform).
pub(crate) fn fig8(opts: &HarnessOpts, _: &ExtraFlags) {
    let phase: &[Column<BhRow>] = &[
        ("congestion[msgs]", |r| r.congestion_msgs.to_string()),
        ("exec time[s]", |r| secs(r.exec_time_ns)),
    ];
    let what = "Figure 8 — Barnes-Hut";
    body_figure(opts, "fig8", what, "measured steps only, ", phase);
}

/// `fig9`: the tree-building phase of the `fig8` sweep — the phase in which
/// the fixed home of the root cell becomes a serial bottleneck.
pub(crate) fn fig9(opts: &HarnessOpts, _: &ExtraFlags) {
    let phase: &[Column<BhRow>] = &[
        ("tree-build congestion[msgs]", |r| {
            r.tree_build_congestion_msgs.to_string()
        }),
        ("tree-build time[s]", |r| secs(r.tree_build_time_ns)),
    ];
    let what = "Figure 9 — Barnes-Hut tree-building phase";
    body_figure(opts, "fig9", what, "", phase);
}

/// `fig10`: the force-computation phase of the `fig8` sweep.
pub(crate) fn fig10(opts: &HarnessOpts, _: &ExtraFlags) {
    let phase: &[Column<BhRow>] = &[
        ("force congestion[msgs]", |r| {
            r.force_congestion_msgs.to_string()
        }),
        ("force time[s]", |r| secs(r.force_time_ns)),
        ("local compute[s]", |r| secs(r.force_compute_ns)),
    ];
    let what = "Figure 10 — Barnes-Hut force-computation phase";
    body_figure(opts, "fig10", what, "", phase);
}

/// Describe a network-size sweep in the style of Figure 11: the number of
/// bodies grows with the number of processors, comparing the fixed home
/// against the 4-8-ary access tree. One job per (mesh, strategy), meshes
/// outermost.
pub(crate) fn scaling_jobs(
    opts: &HarnessOpts,
    meshes: &[(usize, usize)],
    bodies_per_proc: usize,
    mut params: BhParams,
) -> Vec<Job<BhRow>> {
    let strategies = [
        StrategyKind::FixedHome,
        StrategyKind::AccessTree(TreeShape::lk(4, 8)),
    ];
    let mut jobs = Vec::new();
    for &mesh in meshes {
        params.n_bodies = bodies_per_proc * mesh.0 * mesh.1;
        for strategy in strategies {
            jobs.push(point_job(mesh, strategy, params, opts.seed));
        }
    }
    jobs
}

/// The columns of a network-size sweep (Figure 11 and `scale --bh`).
pub(crate) const SCALING_COLUMNS: &[Column<BhRow>] = &[
    ("mesh", |r| format!("{}x{}", r.mesh.0, r.mesh.1)),
    ("bodies", |r| r.n_bodies.to_string()),
    ("strategy", |r| r.strategy.clone()),
    ("congestion[msgs]", |r| r.congestion_msgs.to_string()),
    ("exec time[s]", |r| secs(r.exec_time_ns)),
    ("force local compute[s]", |r| secs(r.force_compute_ns)),
    ("live vars peak", |r| r.live_vars_peak.to_string()),
];

/// `fig11`: the network-size sweep (the paper uses N = 200·P).
///
/// The mega tier scales the mesh axis to 64×64 (4 096 processors — 8× the
/// paper's largest network) with 25 bodies per processor, so its last point
/// runs 102 400 bodies.
pub(crate) fn fig11(opts: &HarnessOpts, _: &ExtraFlags) {
    let (meshes, bodies_per_proc, (timesteps, warmup)) = match opts.scale {
        Scale::Smoke => (vec![(2, 2), (2, 4), (4, 4)], 12, (2, 1)),
        Scale::Default => (vec![(8, 8), (8, 16), (16, 16)], 100, (3, 1)),
        Scale::Paper => (vec![(8, 8), (8, 16), (16, 16), (16, 32)], 200, (7, 2)),
        Scale::Mega => (
            vec![(16, 16), (16, 32), (32, 32), (32, 64), (64, 64)],
            25,
            (3, 1),
        ),
    };
    let params = sweep_params(opts, 0, timesteps, warmup);
    let jobs = scaling_jobs(opts, &meshes, bodies_per_proc, params);
    let Some(sweep) = sweep_of(opts, &params, jobs) else {
        return;
    };
    let title = format!(
        "Figure 11 — Barnes-Hut scaling the network size (N grows with P, {} scale)",
        sweep.meta.scale
    );
    emit(opts, "fig11", &title, SCALING_COLUMNS, &sweep.rows, &sweep);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_point_produces_sensible_phase_breakdown() {
        let params = BhParams {
            n_bodies: 300,
            timesteps: 2,
            warmup_steps: 1,
            theta: 1.0,
            dt: 0.01,
        };
        let row = point_job(
            (4, 4),
            StrategyKind::AccessTree(dm_mesh::TreeShape::quad()),
            params,
            3,
        )
        .call();
        assert!(row.exec_time_ns > 0);
        assert!(row.congestion_msgs > 0);
        assert!(row.tree_build_time_ns > 0);
        assert!(row.force_time_ns > 0);
        assert!(row.force_compute_ns > 0);
        assert!(row.force_time_ns >= row.force_compute_ns);
        assert!(row.interactions > 300);
        assert!(
            row.live_vars_peak > 300,
            "bodies alone exceed 300 live vars"
        );
        // Phase congestion cannot exceed total congestion.
        assert!(row.tree_build_congestion_msgs <= row.congestion_msgs);
        assert!(row.force_congestion_msgs <= row.congestion_msgs);
    }
}
