//! Figure 4: matrix multiplication with a fixed block size — congestion and
//! communication-time ratios vs network size.

use dm_bench::matmul_exp::{figure4, MESH_COLUMNS};
use dm_bench::table::emit;
use dm_bench::HarnessOpts;

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(rows) = figure4(&opts) else { return };
    let title = format!(
        "Figure 4 — matrix multiplication, block size {}",
        rows[0].block_ints
    );
    emit(&opts, "fig4", &title, MESH_COLUMNS, &rows, &rows);
}
