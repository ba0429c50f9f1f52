//! Cross-crate integration tests that encode the qualitative claims of the
//! paper's evaluation section at a reduced (CI-friendly) scale:
//!
//! * the dynamic strategies pay a congestion/time factor over the
//!   hand-optimized baselines, but compute identical results;
//! * the access-tree strategy produces less congestion than the fixed-home
//!   strategy, and its advantage grows with the network size;
//! * execution time correlates with congestion;
//! * the per-phase Barnes-Hut behaviour (hot root cell) favours the access
//!   tree.
//!
//! All claims are checked on the programs every experiment runs.

use diva_repro::apps::barnes_hut::{run_shared_driven as bh_run, BhParams};
use diva_repro::apps::bitonic::{
    run_hand_optimized_driven as bitonic_baseline, run_shared_driven as bitonic_run, verify_sorted,
    BitonicParams,
};
use diva_repro::apps::matmul::{
    initial_blocks, reference_square, run_hand_optimized_driven as matmul_baseline,
    run_shared_driven as matmul_run, MatmulParams,
};
use diva_repro::apps::workload::plummer_bodies;
use diva_repro::diva::{Diva, DivaConfig, StrategyKind};
use diva_repro::mesh::{Mesh, TreeShape};

fn diva(side: usize, strategy: StrategyKind) -> Diva {
    Diva::new(DivaConfig::on(Mesh::square(side), strategy))
}

#[test]
fn matmul_all_strategies_compute_the_same_result_as_the_reference() {
    let params = MatmulParams::new(64);
    let expected = reference_square(&initial_blocks(4, 8), 4, 8);
    let base = matmul_baseline(diva(4, StrategyKind::FixedHome), params);
    assert_eq!(base.blocks, expected);
    for strategy in [
        StrategyKind::FixedHome,
        StrategyKind::AccessTree(TreeShape::binary()),
        StrategyKind::AccessTree(TreeShape::quad()),
        StrategyKind::AccessTree(TreeShape::lk(2, 4)),
    ] {
        let out = matmul_run(diva(4, strategy), params);
        assert_eq!(out.blocks, expected);
    }
}

#[test]
fn figure3_shape_access_tree_between_baseline_and_fixed_home() {
    // On a fixed mesh: hand-optimized <= 4-ary access tree < fixed home, both
    // in congestion and communication time (Figure 3).
    let params = MatmulParams::new(1024);
    let base = matmul_baseline(diva(8, StrategyKind::FixedHome), params);
    let at = matmul_run(diva(8, StrategyKind::AccessTree(TreeShape::quad())), params);
    let fh = matmul_run(diva(8, StrategyKind::FixedHome), params);

    assert!(base.report.congestion_bytes() <= at.report.congestion_bytes());
    assert!(at.report.congestion_bytes() < fh.report.congestion_bytes());
    assert!(base.report.comm_time() <= at.report.comm_time());
    assert!(
        at.report.comm_time() < fh.report.comm_time(),
        "access tree {} vs fixed home {}",
        at.report.comm_time(),
        fh.report.comm_time()
    );
}

#[test]
fn figure4_shape_fixed_home_degrades_faster_with_network_size() {
    // Scaling the mesh increases the congestion ratio of the fixed home
    // relative to the access tree (Figure 4: "the larger the network, the more
    // superior the access tree strategy").
    let params = MatmulParams::new(256);
    let advantage = |side: usize| {
        let at = matmul_run(
            diva(side, StrategyKind::AccessTree(TreeShape::quad())),
            params,
        );
        let fh = matmul_run(diva(side, StrategyKind::FixedHome), params);
        fh.report.congestion_bytes() as f64 / at.report.congestion_bytes() as f64
    };
    let small = advantage(4);
    let large = advantage(8);
    assert!(
        large > small,
        "fixed-home/access-tree congestion gap should grow with the mesh: {small:.2} -> {large:.2}"
    );
}

#[test]
fn bitonic_sorts_correctly_and_access_tree_beats_fixed_home_in_congestion() {
    let params = BitonicParams::new(512);
    let base = bitonic_baseline(diva(4, StrategyKind::FixedHome), params);
    verify_sorted(&base, &params).unwrap();
    let at = bitonic_run(
        diva(4, StrategyKind::AccessTree(TreeShape::lk(2, 4))),
        params,
    );
    verify_sorted(&at, &params).unwrap();
    let fh = bitonic_run(diva(4, StrategyKind::FixedHome), params);
    verify_sorted(&fh, &params).unwrap();

    assert!(base.report.congestion_bytes() <= at.report.congestion_bytes());
    assert!(at.report.congestion_bytes() < fh.report.congestion_bytes());
    assert!(at.report.total_time < fh.report.total_time);
}

#[test]
fn execution_time_tracks_congestion_across_strategies() {
    // "The execution time of the applications heavily depends on the
    // congestion produced by the data management strategies": ordering by
    // congestion must match ordering by time for the matrix square.
    let params = MatmulParams::new(1024);
    let mut results: Vec<(u64, u64)> = Vec::new();
    for strategy in [
        StrategyKind::AccessTree(TreeShape::quad()),
        StrategyKind::FixedHome,
    ] {
        let out = matmul_run(diva(8, strategy), params);
        results.push((out.report.congestion_bytes(), out.report.comm_time()));
    }
    let base = matmul_baseline(diva(8, StrategyKind::FixedHome), params);
    results.push((base.report.congestion_bytes(), base.report.comm_time()));
    let mut by_congestion = results.clone();
    by_congestion.sort_by_key(|r| r.0);
    let mut by_time = results;
    by_time.sort_by_key(|r| r.1);
    assert_eq!(by_congestion, by_time);
}

#[test]
fn barnes_hut_tree_build_favours_the_access_tree() {
    // Figure 9: the root cell is read by every processor during tree building;
    // the fixed home serialises those copies while the access tree multicasts
    // them, so the access tree's tree-build congestion is lower.
    let params = BhParams {
        n_bodies: 400,
        timesteps: 1,
        warmup_steps: 0,
        theta: 1.0,
        dt: 0.01,
    };
    let bodies = plummer_bodies(13, params.n_bodies);
    let at = bh_run(
        diva(4, StrategyKind::AccessTree(TreeShape::quad())),
        params,
        &bodies,
    );
    let fh = bh_run(diva(4, StrategyKind::FixedHome), params, &bodies);
    let at_build = at.report.region("tree-build").unwrap();
    let fh_build = fh.report.region("tree-build").unwrap();
    assert!(
        at_build.congestion_msgs < fh_build.congestion_msgs,
        "access tree {} vs fixed home {}",
        at_build.congestion_msgs,
        fh_build.congestion_msgs
    );
    // And both strategies produce the same physics.
    for (a, b) in at.bodies.iter().zip(&fh.bodies) {
        for k in 0..3 {
            assert!((a.pos[k] - b.pos[k]).abs() < 1e-9);
        }
    }
}

#[test]
fn barnes_hut_total_congestion_orders_access_trees_by_height() {
    // Figure 8: "the higher the access tree is, the smaller is the congestion"
    // — the 2-ary tree produces at most as much congestion as the 16-ary one.
    let params = BhParams {
        n_bodies: 600,
        timesteps: 2,
        warmup_steps: 1,
        theta: 1.0,
        dt: 0.01,
    };
    let bodies = plummer_bodies(17, params.n_bodies);
    let binary = bh_run(
        diva(4, StrategyKind::AccessTree(TreeShape::binary())),
        params,
        &bodies,
    );
    let hex = bh_run(
        diva(4, StrategyKind::AccessTree(TreeShape::hex16())),
        params,
        &bodies,
    );
    assert!(
        binary.report.congestion_msgs() <= hex.report.congestion_msgs(),
        "2-ary {} vs 16-ary {}",
        binary.report.congestion_msgs(),
        hex.report.congestion_msgs()
    );
}
