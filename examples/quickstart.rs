//! Quickstart: create a DIVA instance, share a global variable across a mesh
//! of simulated processors, and inspect the run report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use diva_repro::diva::{Counter, Diva, DivaConfig, StrategyKind};
use diva_repro::mesh::{Mesh, TreeShape};

fn main() {
    // An 8x8 mesh managed by the 4-ary access-tree strategy (the variant that
    // performs best on the paper's platform).
    let mut diva = Diva::new(DivaConfig::on(
        Mesh::square(8),
        StrategyKind::AccessTree(TreeShape::quad()),
    ));

    // One shared counter and one shared 4 KiB data object, both initially
    // cached at processor 0 only.
    let counter = diva.alloc(0, 8, 0u64);
    let table = diva.alloc(0, 4096, vec![0u32; 1024]);

    let outcome = diva
        .run_prototype(|ctx| async move {
            // Every processor reads the shared table (the access tree distributes
            // copies along its branches), then atomically increments the counter
            // under its lock.
            let data = ctx.read::<Vec<u32>>(table).await;
            assert_eq!(data.len(), 1024);

            ctx.lock(counter).await;
            let value = *ctx.read::<u64>(counter).await;
            ctx.write(counter, value + 1).await;
            ctx.unlock(counter).await;

            ctx.barrier().await;
            *ctx.read::<u64>(counter).await
        })
        .expect_completed();

    // All 64 processors saw the final value 64.
    assert!(outcome.results.iter().all(|&v| v == 64));

    println!("== DIVA quickstart ==");
    println!("{}", outcome.report.summary());
    println!(
        "read hits: {}, read misses: {}",
        outcome.report.counter(Counter::ReadHit),
        outcome.report.counter(Counter::ReadMiss)
    );
}
