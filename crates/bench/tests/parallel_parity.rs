//! The parallel-backend acceptance gate: `--workers N` must produce
//! **bit-identical** `RunReport`s to the serial driven backend. Covered
//! here, all at CI-fast scale:
//!
//! * all five paper strategies × all four topologies, uniform workload;
//! * the fig8-style Barnes-Hut workload across the strategies;
//! * an active `FaultPlan` (node failure + link degradation mid-run);
//! * a property loop over worker counts 1–8 (partition counts beyond the
//!   decomposition's reach must degrade gracefully, never diverge).
//!
//! The runs use 64-node topologies so the first rounds are large enough to
//! actually cross the parallel frontend's spawn threshold — a 16-node smoke
//! run would stay on the inline path and the parity would be vacuous.

use dm_apps::barnes_hut::{run_shared_driven, BhParams};
use dm_apps::kv::{run_kv_driven, ChurnParams, KeyDist, KvParams};
use dm_apps::uniform::{run_uniform_driven, try_run_uniform_driven, UniformParams};
use dm_apps::workload::plummer_bodies;
use dm_bench::topo_exp::topologies_at;
use dm_bench::{barnes_hut_shapes, make_diva};
use dm_diva::{FaultPlan, RunReport, StrategyKind};
use dm_mesh::{AnyTopology, NodeId};

const SEED: u64 = 0x5EED;

fn uniform_report(topo: &AnyTopology, strategy: StrategyKind, workers: usize) -> RunReport {
    let mut params = UniformParams::new(topo.nodes());
    params.ops_per_proc = 24;
    params.seed = SEED;
    let diva = make_diva(topo.clone(), strategy, SEED, workers, None);
    run_uniform_driven(diva, params).report
}

#[test]
fn uniform_reports_are_bit_identical_across_strategies_and_topologies() {
    for topo in topologies_at(64) {
        for (name, strategy) in barnes_hut_shapes() {
            let serial = uniform_report(&topo, strategy, 1);
            let parallel = uniform_report(&topo, strategy, 4);
            assert_eq!(serial, parallel, "{} / {name} with 4 workers", topo.name());
        }
    }
}

#[test]
fn barnes_hut_reports_are_bit_identical_for_two_and_four_workers() {
    let params = BhParams {
        timesteps: 2,
        warmup_steps: 1,
        ..BhParams::new(192)
    };
    let bodies = plummer_bodies(SEED ^ 192, 192);
    let mesh: AnyTopology = dm_mesh::Mesh::square(8).into();
    for (name, strategy) in barnes_hut_shapes() {
        let run = |workers: usize| {
            let diva = make_diva(mesh.clone(), strategy, SEED, workers, None);
            run_shared_driven(diva, params, &bodies).report
        };
        let serial = run(1);
        for workers in [2, 4] {
            assert_eq!(serial, run(workers), "{name} with {workers} workers");
        }
    }
}

#[test]
fn fault_plans_fire_at_identical_simulated_times_under_workers() {
    // A mid-run node failure plus a link-degradation wave: the coordinator
    // applies both at fixed simulated times, which must not shift when the
    // rounds are stepped on worker threads — re-homing traffic, fault
    // tallies and the final report must all match bit for bit.
    let plan = FaultPlan::new(5)
        .degrade_links(0.2, 0.25, 1_000)
        .fail_node(NodeId(8), 2_000_000);
    for topo in topologies_at(64) {
        let mut params = UniformParams::new(topo.nodes());
        params.ops_per_proc = 24;
        params.seed = SEED;
        #[allow(clippy::result_large_err)] // one call per worker count
        let run = |workers: usize| {
            let cfg = dm_diva::DivaConfig::on(topo.clone(), StrategyKind::FixedHome)
                .with_seed(SEED)
                .with_fault_plan(plan.clone())
                .with_workers(workers);
            try_run_uniform_driven(dm_diva::Diva::new(cfg), params)
        };
        match (run(1), run(4)) {
            (Ok(serial), Ok(parallel)) => {
                assert_eq!(serial.report, parallel.report, "{} faulted", topo.name());
                assert!(serial.report.faults.nodes_failed >= 1);
            }
            (Err(serial), Err(parallel)) => {
                assert_eq!(
                    serial.report,
                    parallel.report,
                    "{} partitioned",
                    topo.name()
                );
                assert_eq!(serial.unreachable, parallel.unreachable);
                assert_eq!(serial.at, parallel.at);
            }
            (serial, parallel) => panic!(
                "{}: serial and parallel disagree on the outcome kind \
                 (serial ok={}, parallel ok={})",
                topo.name(),
                serial.is_ok(),
                parallel.is_ok()
            ),
        }
    }
}

#[test]
fn kv_hotspot_with_churn_is_bit_identical_under_workers() {
    // The fig14 request workload with every moving part switched on: a
    // migrating hotspot (phase boundaries keyed on op index), Zipf-free
    // skew, client churn idle gaps and the serving-side tallies (hits,
    // bytes moved, response-time buckets, replication high-water) — all of
    // it must survive intra-sim parallelism bit for bit.
    let mesh: AnyTopology = dm_mesh::Mesh::square(8).into();
    let params = KvParams {
        ops_per_client: 24,
        seed: SEED,
        dist: KeyDist::Hotspot {
            migrate_at: vec![25, 50, 75],
            hot_permille: 900,
        },
        churn: Some(ChurnParams {
            sessions: 2,
            idle_us: 1_500,
        }),
        ..KvParams::new(64)
    };
    let strategy = StrategyKind::AccessTree(dm_mesh::TreeShape::quad());
    let run = |workers: usize| {
        let diva = make_diva(mesh.clone(), strategy, SEED, workers, None);
        run_kv_driven(diva, params.clone())
    };
    let serial = run(1);
    assert!(serial.report.serving.requests > 0);
    for workers in [2, 4] {
        let parallel = run(workers);
        assert_eq!(serial.report, parallel.report, "{workers} workers");
        assert_eq!(serial.checksum, parallel.checksum, "{workers} workers");
    }
}

#[test]
fn every_worker_count_from_one_to_eight_matches_serial() {
    // The property loop of the issue: partition counts 1–8 on one mesh
    // workload. Counts that exceed what the decomposition tree can split
    // (or the processor count) must still be bit-identical, not merely run.
    let mesh: AnyTopology = dm_mesh::Mesh::square(8).into();
    let strategy = StrategyKind::AccessTree(dm_mesh::TreeShape::quad());
    let serial = uniform_report(&mesh, strategy, 1);
    for workers in 2..=8 {
        assert_eq!(
            serial,
            uniform_report(&mesh, strategy, workers),
            "workers={workers}"
        );
    }
}
