//! Property-style tests for the mesh substrate.
//!
//! The repository builds in offline environments without the `proptest`
//! crate, so these tests generate their cases deterministically: an
//! exhaustive sweep over small mesh dimensions combined with a seeded
//! [`dm_rng::ChaCha8Rng`] for node pairs and link loads. Every property is
//! checked over hundreds of cases and failures report the offending
//! configuration.

use dm_mesh::{DecompositionTree, Direction, LinkStats, Mesh, NodeId, TreeShape};
use dm_rng::ChaCha8Rng;
use std::collections::HashSet;

/// The meshes every property is checked against: all dimensions up to 8×8
/// plus a few larger and degenerate shapes.
fn meshes() -> Vec<Mesh> {
    let mut m: Vec<Mesh> = Vec::new();
    for r in 1..=8 {
        for c in 1..=8 {
            m.push(Mesh::new(r, c));
        }
    }
    m.push(Mesh::new(1, 12));
    m.push(Mesh::new(12, 1));
    m.push(Mesh::new(5, 11));
    m.push(Mesh::new(11, 5));
    m.push(Mesh::square(12));
    m
}

fn shapes() -> Vec<TreeShape> {
    vec![
        TreeShape::binary(),
        TreeShape::quad(),
        TreeShape::hex16(),
        TreeShape::lk(2, 4),
        TreeShape::lk(2, 8),
        TreeShape::lk(4, 8),
        TreeShape::lk(4, 16),
    ]
}

#[test]
fn routes_are_shortest_paths() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0507_E571);
    for mesh in meshes() {
        for _ in 0..20 {
            let a = NodeId(rng.gen_range(0..mesh.nodes() as u32));
            let b = NodeId(rng.gen_range(0..mesh.nodes() as u32));
            let route = mesh.xy_route(a, b);
            assert_eq!(route.len(), mesh.distance(a, b), "{mesh:?} {a} → {b}");
            let mut cur = a;
            for l in &route {
                let (src, dst) = mesh.link_endpoints(*l);
                assert_eq!(src, cur, "{mesh:?} {a} → {b}");
                assert_eq!(mesh.distance(src, dst), 1);
                cur = dst;
            }
            assert_eq!(cur, b, "{mesh:?} {a} → {b}");
        }
    }
}

#[test]
fn routes_are_dimension_ordered() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD13E_0D8E);
    for mesh in meshes() {
        for _ in 0..20 {
            let a = NodeId(rng.gen_range(0..mesh.nodes() as u32));
            let b = NodeId(rng.gen_range(0..mesh.nodes() as u32));
            let mut seen_row_move = false;
            for l in mesh.xy_route(a, b) {
                let horizontal = matches!(l.direction(), Direction::East | Direction::West);
                if seen_row_move {
                    assert!(
                        !horizontal,
                        "column move after row move: {mesh:?} {a} → {b}"
                    );
                }
                if !horizontal {
                    seen_row_move = true;
                }
            }
        }
    }
}

#[test]
fn decomposition_tree_invariants() {
    for mesh in meshes() {
        for shape in shapes() {
            let tree = DecompositionTree::build_on(&mesh.clone().into(), shape);
            // Children partition parents.
            for id in tree.node_ids() {
                let children = tree.children(id);
                if !tree.is_leaf(id) {
                    let total: usize = children.iter().map(|&c| tree.submesh(c).size()).sum();
                    assert_eq!(total, tree.submesh(id).size(), "{mesh:?} {shape:?}");
                    assert!(
                        children.len() <= shape.max_fanout().max(shape.leaf_submesh),
                        "{mesh:?} {shape:?}: fanout {}",
                        children.len()
                    );
                }
            }
            let leaves: HashSet<_> = tree.leaf_ids().map(|l| tree.leaf_proc(l)).collect();
            assert_eq!(leaves.len(), mesh.nodes(), "{mesh:?} {shape:?}");
            let order: HashSet<_> = tree.leaf_order().iter().copied().collect();
            assert_eq!(order.len(), mesh.nodes(), "{mesh:?} {shape:?}");
            // The path from every leaf ends at the root.
            for p in mesh.node_ids() {
                let path = tree.path_to_root(tree.leaf_of(p));
                assert_eq!(*path.last().unwrap(), tree.root(), "{mesh:?} {shape:?}");
            }
        }
    }
}

#[test]
fn leaf_order_is_shape_independent() {
    for mesh in meshes() {
        let binary = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::binary());
        for shape in shapes() {
            let other = DecompositionTree::build_on(&mesh.clone().into(), shape);
            assert_eq!(
                binary.leaf_order(),
                other.leaf_order(),
                "{mesh:?} {shape:?}"
            );
        }
    }
}

#[test]
fn link_stats_congestion_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x57A7_5717);
    for mesh in meshes() {
        let links: Vec<_> = mesh.link_ids().collect();
        if links.is_empty() {
            continue;
        }
        let mut s = LinkStats::new(&mesh);
        let loads = rng.gen_range(0usize..50);
        for _ in 0..loads {
            let idx = rng.gen_range(0usize..links.len());
            let bytes = rng.gen_range(1u64..2000);
            s.record(links[idx], bytes);
        }
        assert!(s.congestion_bytes() <= s.total_bytes());
        assert!(s.congestion_msgs() <= s.total_msgs());
        let mut doubled = s.clone();
        doubled.merge(&s);
        assert_eq!(doubled.total_bytes(), 2 * s.total_bytes());
        assert_eq!(doubled.congestion_bytes(), 2 * s.congestion_bytes());
    }
}
