//! Figure 11: Barnes-Hut N-body simulation — congestion and execution time
//! when the network is scaled and the number of bodies grows with the number
//! of processors, comparing the fixed-home strategy with the 4-8-ary access
//! tree.
//!
//! Runs on the event-driven backend. `--mega` scales the mesh axis to 64×64
//! (4 096 processors), whose last point simulates 102 400 bodies.

use dm_bench::bh_exp::{scaling_sweep, SCALING_COLUMNS};
use dm_bench::table::emit;
use dm_bench::HarnessOpts;

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(sweep) = scaling_sweep(&opts) else {
        return;
    };
    let title = format!(
        "Figure 11 — Barnes-Hut scaling the network size (N grows with P, {} scale)",
        sweep.meta.scale
    );
    emit(&opts, "fig11", &title, SCALING_COLUMNS, &sweep.rows, &sweep);
}
