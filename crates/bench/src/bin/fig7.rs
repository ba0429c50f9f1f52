//! Figure 7: bitonic sorting with a fixed number of keys per processor —
//! congestion and execution-time ratios vs network size.

use dm_bench::bitonic_exp::{figure7, MESH_COLUMNS};
use dm_bench::table::emit;
use dm_bench::HarnessOpts;

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(rows) = figure7(&opts) else { return };
    let title = format!(
        "Figure 7 — bitonic sorting, {} keys per processor",
        rows[0].keys_per_proc
    );
    emit(&opts, "fig7", &title, MESH_COLUMNS, &rows, &rows);
}
