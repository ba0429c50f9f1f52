//! Compare the data-management strategies of the paper on the matrix-square
//! workload: congestion and communication time of the fixed-home strategy and
//! several access-tree variants, relative to the hand-optimized
//! message-passing baseline (a small-scale version of Figure 3).
//!
//! ```sh
//! cargo run --release --example strategy_comparison
//! ```

use diva_repro::apps::matmul::{run_hand_optimized_driven, run_shared_driven, MatmulParams};
use diva_repro::diva::{Diva, DivaConfig, StrategyKind};
use diva_repro::mesh::{Mesh, TreeShape};

fn main() {
    let mesh_side = 8;
    let params = MatmulParams::new(1024);

    let make = |strategy| Diva::new(DivaConfig::on(Mesh::square(mesh_side), strategy));

    let baseline = run_hand_optimized_driven(make(StrategyKind::FixedHome), params);
    let base_congestion = baseline.report.congestion_bytes();
    let base_time = baseline.report.comm_time();

    println!(
        "matrix square on a {mesh_side}x{mesh_side} mesh, blocks of {} integers",
        params.block_ints
    );
    println!(
        "{:<22} {:>14} {:>8} {:>12} {:>7}",
        "strategy", "congestion[B]", "ratio", "comm time[s]", "ratio"
    );
    println!(
        "{:<22} {:>14} {:>8} {:>12} {:>7}",
        "hand-optimized",
        base_congestion,
        "1.00",
        format!("{:.3}", baseline.report.comm_time() as f64 / 1e9),
        "1.00"
    );

    let strategies = [
        ("fixed home", StrategyKind::FixedHome),
        (
            "2-ary access tree",
            StrategyKind::AccessTree(TreeShape::binary()),
        ),
        (
            "4-ary access tree",
            StrategyKind::AccessTree(TreeShape::quad()),
        ),
        (
            "16-ary access tree",
            StrategyKind::AccessTree(TreeShape::hex16()),
        ),
        (
            "2-4-ary access tree",
            StrategyKind::AccessTree(TreeShape::lk(2, 4)),
        ),
    ];
    for (name, strategy) in strategies {
        let out = run_shared_driven(make(strategy), params);
        // The result must be identical no matter which strategy manages the data.
        assert_eq!(out.blocks, baseline.blocks);
        println!(
            "{:<22} {:>14} {:>8.2} {:>12.3} {:>7.2}",
            name,
            out.report.congestion_bytes(),
            out.report.congestion_bytes() as f64 / base_congestion as f64,
            out.report.comm_time() as f64 / 1e9,
            out.report.comm_time() as f64 / base_time as f64,
        );
    }
}
