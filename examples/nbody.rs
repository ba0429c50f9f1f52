//! Run a small Barnes-Hut N-body simulation through DIVA and print the
//! per-phase breakdown the paper's Figures 9 and 10 are built from.
//!
//! ```sh
//! cargo run --release --example nbody
//! ```

use diva_repro::apps::barnes_hut::{run_shared_driven, BhParams};
use diva_repro::apps::workload::plummer_bodies;
use diva_repro::diva::{Diva, DivaConfig, StrategyKind};
use diva_repro::mesh::{Mesh, TreeShape};

fn main() {
    let params = BhParams {
        n_bodies: 2_000,
        timesteps: 3,
        warmup_steps: 1,
        theta: 1.0,
        dt: 0.025,
    };
    let bodies = plummer_bodies(2024, params.n_bodies);

    for (name, strategy) in [
        (
            "4-ary access tree",
            StrategyKind::AccessTree(TreeShape::quad()),
        ),
        ("fixed home", StrategyKind::FixedHome),
    ] {
        let diva = Diva::new(DivaConfig::on(Mesh::square(8), strategy));
        let out = run_shared_driven(diva, params, &bodies);
        println!("== {} ==", name);
        println!(
            "total: {:.2} s simulated, congestion {} messages, {} interactions",
            out.report.total_time_secs(),
            out.report.congestion_msgs(),
            out.interactions
        );
        for phase in [
            "tree-build",
            "com",
            "partition",
            "force",
            "update",
            "bounds",
        ] {
            if let Some(r) = out.report.region(phase) {
                println!(
                    "  {:<12} wall {:>8.3} s   compute {:>8.3} s   congestion {:>8} msgs",
                    phase,
                    r.wall_time as f64 / 1e9,
                    r.compute_time as f64 / 1e9,
                    r.congestion_msgs
                );
            }
        }
        println!();
    }
}
