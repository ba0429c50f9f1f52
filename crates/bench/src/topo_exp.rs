//! The cross-topology experiment (Figure 12, beyond the paper).
//!
//! The paper's access-tree strategy is defined for arbitrary networks, but
//! its evaluation only ever instantiates 2-D meshes. This sweep runs all
//! five strategies of the Barnes-Hut figures across the four implemented
//! topologies — mesh, torus, hypercube and fat tree — at *matched node
//! counts*, under two workloads:
//!
//! * **uniform** — the locality-free uniform-random access workload
//!   ([`dm_apps::uniform`]): the cleanest probe of raw congestion behaviour;
//! * **barnes-hut** — the paper's hardest application, whose access trees
//!   are built from each topology's own recursive decomposition.
//!
//! Every (topology, workload, strategy) point is an independent executor
//! [`Job`], so `--jobs N` parallelises the sweep with byte-identical tables
//! and JSON for every `N` (the `jobs_determinism` gate covers `fig12`).

use crate::bh_exp::{measured_time, sweep_params, BhPoint};
use crate::executor::Job;
use crate::stream::run_rows;
use crate::table::{emit, secs, Column};
use crate::{barnes_hut_shapes, make_diva, ExtraFlags, HarnessOpts, Scale, Sweep};
use dm_apps::barnes_hut::BhParams;
use dm_apps::uniform::{run_uniform_driven, UniformParams};
use dm_diva::{RunReport, StrategyKind};
use dm_mesh::{AnyTopology, FatTree, Hypercube, Mesh};

crate::row! {
    /// Measurements of one (topology, workload, strategy) point.
    pub struct TopoRow: Row {
        /// Topology name (`mesh 8x8`, `torus 8x8`, `hypercube-6`,
        /// `fat-tree-64`).
        pub topology: String,
        /// Workload name (`uniform` or `barnes-hut`).
        pub workload: String,
        /// Strategy name.
        pub strategy: String,
        /// Matched processor count (identical across the four topologies).
        pub nodes: usize,
        /// Number of directed links of the topology (context for congestion).
        pub links: u64,
        /// Topology diameter (hops).
        pub diameter: u64,
        /// Congestion in messages over the measured part of the run.
        pub congestion_msgs: u64,
        /// Congestion in bytes over the measured part of the run.
        pub congestion_bytes: u64,
        /// Total messages handed to the network.
        pub total_msgs: u64,
        /// Execution time of the measured part of the run in ns.
        pub exec_time_ns: u64,
        /// Host wall-clock milliseconds of this point (JSON sidecar only).
        pub host_ms: f64,
    }
}

crate::row! {
    /// Shared parameters of a cross-topology sweep.
    pub struct TopoMeta {
        /// Scale tier name.
        pub scale: String,
        /// Matched node count.
        pub nodes: usize,
        /// Uniform workload: accesses per processor.
        pub uniform_ops: usize,
        /// Uniform workload: write percentage.
        pub write_percent: u64,
        /// Barnes-Hut workload: body count.
        pub bh_bodies: usize,
        /// Barnes-Hut workload: simulated time steps.
        pub bh_timesteps: usize,
        /// Seed of the sweep.
        pub seed: u64,
    }
}

/// The four topologies at a matched node count (`nodes` must be a power of
/// four so the grid topologies stay square and the hypercube/fat tree get
/// an exact power of two).
pub(crate) fn topologies_at(nodes: usize) -> Vec<AnyTopology> {
    assert!(
        nodes.is_power_of_two() && nodes.trailing_zeros().is_multiple_of(2),
        "matched node counts must be powers of four, got {nodes}"
    );
    let side = 1usize << (nodes.trailing_zeros() / 2);
    vec![
        Mesh::square(side).into(),
        Mesh::torus(side, side).into(),
        Hypercube::new(nodes.trailing_zeros()).into(),
        FatTree::new(nodes).into(),
    ]
}

/// The matched node count, uniform accesses per processor and the
/// Barnes-Hut parameters the cross-topology sweeps (fig12, fig13) run at
/// each scale tier.
pub(crate) fn tier_workloads(opts: &HarnessOpts) -> (usize, UniformParams, BhParams) {
    let (nodes, uniform_ops, bh_bodies) = match opts.scale {
        Scale::Smoke => (16, 24, 192),
        Scale::Default => (64, 64, 2_000),
        Scale::Paper => (256, 128, 10_000),
        Scale::Mega => (4_096, 128, 50_000),
    };
    let timesteps = if opts.scale == Scale::Mega { 5 } else { 2 };
    let uniform = UniformParams {
        ops_per_proc: uniform_ops,
        seed: opts.seed,
        ..UniformParams::new(nodes)
    };
    (nodes, uniform, sweep_params(opts, bh_bodies, timesteps, 1))
}

/// Reduce a run report to the measured quantities of a [`TopoRow`]: the
/// whole run for the uniform workload, everything outside the `warmup`
/// region for Barnes-Hut (matching the fig8 convention).
fn fill_row(
    topo: &AnyTopology,
    workload: &str,
    strategy: StrategyKind,
    report: &RunReport,
) -> TopoRow {
    TopoRow {
        topology: topo.name(),
        workload: workload.to_string(),
        strategy: strategy.name(),
        nodes: topo.nodes(),
        links: topo.links() as u64,
        diameter: topo.diameter() as u64,
        congestion_msgs: report.congestion_msgs(),
        congestion_bytes: report.congestion_bytes(),
        total_msgs: report.messages_sent,
        exec_time_ns: measured_time(report),
        host_ms: 0.0,
    }
}

/// Describe one uniform-workload point as an executor job.
fn uniform_job(topo: AnyTopology, strategy: StrategyKind, params: UniformParams) -> Job<TopoRow> {
    let weight = (params.ops_per_proc * topo.nodes()) as u64;
    Job::new(weight, move || {
        let diva = make_diva(topo.clone(), strategy, params.seed, None);
        let out = run_uniform_driven(diva, params);
        fill_row(&topo, "uniform", strategy, &out.report)
    })
}

/// Describe one Barnes-Hut point as an executor job (see [`BhPoint::job`]).
fn bh_job(point: BhPoint) -> Job<TopoRow> {
    point.job(1, move |point, bodies| {
        let Ok(out) = point.run(bodies, None) else {
            unreachable!("an intact run cannot partition")
        };
        fill_row(&point.topo, "barnes-hut", point.strategy, &out.report)
    })
}

/// The Figure-12 sweep: all five strategies × four topologies × two
/// workloads at one matched node count per scale tier. `None` means the
/// sweep is incomplete (shard run or cut-short run); the sidecar holds the
/// completed jobs.
pub(crate) fn cross_topology_sweep(opts: &HarnessOpts) -> Option<Sweep<TopoMeta, TopoRow>> {
    let (nodes, uniform_params, bh_params) = tier_workloads(opts);
    let mut jobs = Vec::new();
    for topo in topologies_at(nodes) {
        for strategy in barnes_hut_shapes() {
            jobs.push(uniform_job(topo.clone(), strategy, uniform_params));
            let point = BhPoint {
                topo: topo.clone(),
                strategy,
                params: bh_params,
                seed: opts.seed,
            };
            jobs.push(bh_job(point));
        }
    }
    Some(Sweep {
        meta: TopoMeta {
            scale: opts.scale.name().to_string(),
            nodes,
            uniform_ops: uniform_params.ops_per_proc,
            write_percent: uniform_params.write_percent as u64,
            bh_bodies: bh_params.n_bodies,
            bh_timesteps: bh_params.timesteps,
            seed: opts.seed,
        },
        rows: run_rows(opts, "", jobs)?,
    })
}

/// `fig12`: the access tree of every variable is built from the *topology's
/// own* recursive decomposition (the paper's construction for general
/// networks).
pub(crate) fn fig12(opts: &HarnessOpts, _: &ExtraFlags) {
    const COLUMNS: &[Column<TopoRow>] = &[
        ("topology", |r| r.topology.clone()),
        ("workload", |r| r.workload.clone()),
        ("strategy", |r| r.strategy.clone()),
        ("congestion[msgs]", |r| r.congestion_msgs.to_string()),
        ("exec time[s]", |r| secs(r.exec_time_ns)),
        ("total msgs", |r| r.total_msgs.to_string()),
    ];
    let Some(sweep) = cross_topology_sweep(opts) else {
        return;
    };
    let title = format!(
        "Figure 12 — strategies across topologies at {} nodes ({} scale)",
        sweep.meta.nodes, sweep.meta.scale
    );
    emit(opts, "fig12", &title, COLUMNS, &sweep.rows, &sweep);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_node_counts_are_matched() {
        for nodes in [16, 64, 256] {
            let topos = topologies_at(nodes);
            assert_eq!(topos.len(), 4);
            for t in &topos {
                assert_eq!(t.nodes(), nodes, "{}", t.name());
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_four_node_counts() {
        topologies_at(32);
    }

    #[test]
    fn uniform_point_runs_on_a_fat_tree() {
        let topo: AnyTopology = FatTree::new(16).into();
        let params = UniformParams {
            ops_per_proc: 8,
            ..UniformParams::new(16)
        };
        let row = uniform_job(topo, StrategyKind::FixedHome, params).call();
        assert_eq!(row.workload, "uniform");
        assert_eq!(row.nodes, 16);
        assert!(row.exec_time_ns > 0);
        assert!(row.congestion_msgs > 0);
    }

    #[test]
    fn bh_point_runs_on_a_hypercube() {
        let topo: AnyTopology = Hypercube::new(4).into();
        let params = BhParams {
            n_bodies: 64,
            timesteps: 2,
            warmup_steps: 1,
            ..BhParams::new(0)
        };
        let point = BhPoint {
            topo,
            strategy: StrategyKind::AccessTree(dm_mesh::TreeShape::quad()),
            params,
            seed: 3,
        };
        let row = bh_job(point).call();
        assert_eq!(row.workload, "barnes-hut");
        assert!(row.exec_time_ns > 0);
        assert!(row.congestion_msgs > 0);
    }
}
