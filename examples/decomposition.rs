//! Print the hierarchical mesh decomposition of the paper's Figure 1 (the
//! partitions of M(4,3)) and the shapes of the access-tree variants on a
//! larger mesh.
//!
//! ```sh
//! cargo run --example decomposition
//! ```

use diva_repro::mesh::{DecompositionTree, Mesh, TreeShape};

fn main() {
    // Figure 1: the partitions of M(4,3).
    let mesh = Mesh::new(4, 3).into();
    let tree = DecompositionTree::build_on(&mesh, TreeShape::binary());
    println!("Hierarchical decomposition of M(4,3) — one line per tree node:\n");
    for id in tree.node_ids() {
        let level = tree.level(id);
        let indent = "  ".repeat(level);
        let s = tree.submesh(id);
        println!(
            "{indent}level {level} — rows {}..{} cols {}..{} ({} processor{})",
            s.row0,
            s.row0 + s.rows,
            s.col0,
            s.col0 + s.cols,
            s.size(),
            if s.size() == 1 { "" } else { "s" }
        );
    }

    println!("\nAccess-tree variants on a 16x16 mesh:");
    println!("{:<12} {:>8} {:>8}", "shape", "height", "nodes");
    let mesh = Mesh::square(16).into();
    for shape in [
        TreeShape::binary(),
        TreeShape::quad(),
        TreeShape::hex16(),
        TreeShape::lk(2, 4),
        TreeShape::lk(4, 16),
    ] {
        let tree = DecompositionTree::build_on(&mesh, shape);
        println!(
            "{:<12} {:>8} {:>8}",
            shape.name(),
            tree.height(),
            tree.len()
        );
    }
}
