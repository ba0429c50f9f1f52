//! Property-style tests for the mesh substrate.
//!
//! The repository builds in offline environments without the `proptest`
//! crate, so these tests generate their cases deterministically: an
//! exhaustive sweep over small mesh dimensions combined with a seeded
//! [`dm_rng::ChaCha8Rng`] for node pairs and link loads. Every property is
//! checked over hundreds of cases and failures report the offending
//! configuration.

use dm_mesh::{
    AnyTopology, DecompositionTree, Direction, LinkId, LinkStats, Mesh, NodeId, TreeShape,
};
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

/// Every grid of [`meshes`], then each as a torus, with its wrap flag.
fn grids() -> Vec<(Mesh, bool)> {
    let meshes = meshes();
    let tori = meshes
        .iter()
        .map(|m| (Mesh::torus(m.rows(), m.cols()), true));
    meshes
        .iter()
        .map(|m| (m.clone(), false))
        .chain(tori)
        .collect()
}

const DIRECTIONS: [Direction; 4] = [
    Direction::East,
    Direction::West,
    Direction::South,
    Direction::North,
];

/// The neighbour of `n` in direction `d`, from coordinates alone: a torus
/// wraps a line of at least two nodes.
fn neighbor(mesh: &Mesh, wrap: bool, n: NodeId, d: Direction) -> Option<NodeId> {
    let (r, c) = mesh.coord(n);
    let (rows, cols) = (mesh.rows() as isize, mesh.cols() as isize);
    let (dr, dc) = match d {
        Direction::East => (0, 1),
        Direction::West => (0, -1),
        Direction::South => (1, 0),
        Direction::North => (-1, 0),
    };
    let (mut nr, mut nc) = (r as isize + dr, c as isize + dc);
    if wrap && (if dr == 0 { cols } else { rows }) >= 2 {
        nr = nr.rem_euclid(rows);
        nc = nc.rem_euclid(cols);
    }
    (nr >= 0 && nc >= 0 && nr < rows && nc < cols).then(|| mesh.node_at(nr as usize, nc as usize))
}

/// The dimension-order route stepped node by node through [`Mesh::link`]:
/// columns first, then rows, on a torus the shorter way round each ring
/// with ties east and south.
fn stepped_route(mesh: &Mesh, wrap: bool, a: NodeId, b: NodeId) -> Vec<LinkId> {
    let mut route = Vec::new();
    let mut cur = a;
    let (tr, tc) = mesh.coord(b);
    for (len, forward, backward) in [
        (mesh.cols(), Direction::East, Direction::West),
        (mesh.rows(), Direction::South, Direction::North),
    ] {
        let at = |n: NodeId| {
            let (r, c) = mesh.coord(n);
            if forward == Direction::East {
                (c, tc)
            } else {
                (r, tr)
            }
        };
        let (pos, target) = at(cur);
        let ahead = (target + len - pos) % len;
        let d = match (wrap, pos < target) {
            (true, _) if ahead <= len - ahead => forward,
            (true, _) => backward,
            (false, true) => forward,
            (false, false) => backward,
        };
        while at(cur).0 != target {
            route.push(mesh.link(cur, d));
            cur = neighbor(mesh, wrap, cur, d).expect("the route stays on the grid");
        }
    }
    assert_eq!(cur, b);
    route
}

#[test]
fn grid_link_numbering_is_injective_and_decodes() {
    for (mesh, wrap) in grids() {
        let topo = AnyTopology::from(mesh.clone());
        let mut seen = HashSet::new();
        for n in mesh.node_ids() {
            for d in DIRECTIONS {
                let Some(nb) = neighbor(&mesh, wrap, n, d) else {
                    continue;
                };
                let l = mesh.link(n, d);
                assert!(l.index() < topo.link_slots(), "{mesh:?} {n} {d:?}");
                assert!(seen.insert(l), "{mesh:?}: {n} {d:?} reuses {l:?}");
                assert_eq!(mesh.link_endpoints(l), (n, nb), "{mesh:?} {n} {d:?}");
                assert_eq!(mesh.link_origin(l), (n, d), "{mesh:?} {n} {d:?}");
            }
        }
        assert_eq!(seen.len(), topo.links(), "{mesh:?}");
        assert_eq!(seen, topo.link_ids().into_iter().collect(), "{mesh:?}");
    }
}

#[test]
fn route_legs_expand_to_the_stepped_route() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1E65);
    for (mesh, wrap) in grids() {
        let topo = AnyTopology::from(mesh.clone());
        let pairs = (0..40).map(|_| {
            let mut node = || NodeId(rng.gen_range(0..mesh.nodes() as u32));
            (node(), node())
        });
        // Corner to corner too: the longest legs, and on a torus the wraps.
        let corners = [
            (0, mesh.nodes() - 1),
            (mesh.nodes() - 1, 0),
            (mesh.cols() - 1, mesh.nodes() - mesh.cols()),
        ]
        .map(|(a, b)| (NodeId(a as u32), NodeId(b as u32)));
        for (a, b) in pairs.collect::<Vec<_>>().into_iter().chain(corners) {
            let mut legs = Vec::new();
            topo.for_each_leg(a, b, |leg| legs.push(leg));
            assert!(
                legs.len() <= if wrap { 4 } else { 2 },
                "{mesh:?} {a}->{b}: {legs:?}"
            );
            let expanded: Vec<LinkId> = legs.iter().flat_map(|leg| leg.links()).collect();
            assert_eq!(
                expanded,
                stepped_route(&mesh, wrap, a, b),
                "{mesh:?} {a}->{b}: {legs:?}"
            );
            if !wrap {
                assert_eq!(expanded, mesh.xy_route(a, b), "{mesh:?} {a}->{b}");
            }
        }
    }
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
                let horizontal = matches!(mesh.link_origin(l).1, Direction::East | Direction::West);
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
