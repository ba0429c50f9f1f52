//! Decomposition and routing invariants of the topology abstraction.
//!
//! Deterministic property loops (the workspace builds offline, without
//! `proptest`) over the four topologies at 16–256 nodes: every level of the
//! hierarchical decomposition must partition the network into connected
//! regions covering all nodes exactly once, the access trees must have the
//! heights the construction predicts and answer ancestor queries as a
//! parent walk does, and every route must cross exactly `distance` links.

use dm_mesh::{AnyTopology, DecompositionTree, FatTree, Hypercube, Mesh, NodeId, TreeShape};
use dm_rng::ChaCha8Rng;
use std::collections::{HashSet, VecDeque};

/// The matched node counts of the cross-topology experiments: powers of four
/// so the grid topologies stay square.
const NODE_COUNTS: [usize; 3] = [16, 64, 256];

fn topologies_at(nodes: usize) -> Vec<AnyTopology> {
    let side = 1usize << (nodes.trailing_zeros() / 2);
    vec![
        Mesh::square(side).into(),
        Mesh::torus(side, side).into(),
        Hypercube::new(nodes.trailing_zeros()).into(),
        FatTree::new(nodes).into(),
    ]
}

fn shapes() -> Vec<TreeShape> {
    vec![TreeShape::binary(), TreeShape::quad(), TreeShape::lk(2, 4)]
}

/// Whether `region` is connected in the topology's processor graph
/// (breadth-first search over [`AnyTopology::neighbors`] restricted to the
/// region). The fat tree has no direct processor links; its regions are
/// checked structurally instead (see `regions_are_connected`).
fn connected_by_neighbors(topo: &AnyTopology, region: &[NodeId]) -> bool {
    let members: HashSet<NodeId> = region.iter().copied().collect();
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(region[0]);
    queue.push_back(region[0]);
    while let Some(n) = queue.pop_front() {
        for m in topo.neighbors(n) {
            if members.contains(&m) && seen.insert(m) {
                queue.push_back(m);
            }
        }
    }
    seen.len() == members.len()
}

#[test]
fn every_decomposition_level_partitions_the_network() {
    for nodes in NODE_COUNTS {
        for topo in topologies_at(nodes) {
            for shape in shapes() {
                let tree = DecompositionTree::build_on(&topo, shape);
                let name = topo.name();
                // Root covers everything; leaves cover every node once.
                assert_eq!(tree.region(tree.root()).len(), nodes, "{name}");
                let leaves: HashSet<NodeId> = tree.leaf_ids().map(|l| tree.leaf_proc(l)).collect();
                assert_eq!(leaves.len(), nodes, "{name} {shape:?}");
                let order: HashSet<NodeId> = tree.leaf_order().iter().copied().collect();
                assert_eq!(order.len(), nodes, "{name} {shape:?}");
                for p in 0..nodes as u32 {
                    assert_eq!(tree.leaf_proc(tree.leaf_of(NodeId(p))), NodeId(p));
                }
                // Every internal node's children partition its region
                // exactly (disjoint cover, order preserved).
                for id in tree.node_ids() {
                    if tree.is_leaf(id) {
                        continue;
                    }
                    let concat: Vec<NodeId> = tree
                        .children(id)
                        .iter()
                        .flat_map(|&c| tree.region(c).iter().copied())
                        .collect();
                    assert_eq!(
                        concat,
                        tree.region(id).to_vec(),
                        "{name} {shape:?}: children must partition node {id:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn regions_are_connected() {
    for nodes in NODE_COUNTS {
        for topo in topologies_at(nodes) {
            let tree = DecompositionTree::build_on(&topo, TreeShape::binary());
            let strip = matches!(topo, AnyTopology::Hypercube(_) | AnyTopology::FatTree(_));
            let indirect = matches!(topo, AnyTopology::FatTree(_));
            for id in tree.node_ids() {
                let region = tree.region(id);
                if strip {
                    // Halving the 1×n strip yields contiguous, aligned,
                    // power-of-two id ranges: subcubes of the hypercube,
                    // and single subtrees of the fat tree. The fat tree has
                    // no processor-to-processor links, so for it this *is*
                    // connectivity — two leaves of a subtree always route
                    // through switches of that subtree alone.
                    assert!(region.len().is_power_of_two(), "{}", topo.name());
                    assert!(
                        region[0].index().is_multiple_of(region.len()),
                        "{}",
                        topo.name()
                    );
                    for (i, n) in region.iter().enumerate() {
                        assert_eq!(n.index(), region[0].index() + i, "{}", topo.name());
                    }
                }
                if !indirect {
                    assert!(
                        connected_by_neighbors(&topo, region),
                        "{}: region of node {id:?} is disconnected",
                        topo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn fat_tree_regions_route_internally() {
    // The structural argument made concrete: within a region of L leaves,
    // every route stays at most 2·log2(L) hops long (it never climbs above
    // the subtree root).
    let ft = FatTree::new(64);
    let topo = AnyTopology::from(ft);
    let tree = DecompositionTree::build_on(&topo, TreeShape::binary());
    for id in tree.node_ids() {
        let region = tree.region(id);
        let bound = 2 * region.len().trailing_zeros() as usize;
        for &a in region.iter().step_by(3) {
            for &b in region.iter().step_by(5) {
                assert!(
                    topo.distance(a, b) <= bound,
                    "route {a}->{b} escapes its {}-leaf subtree",
                    region.len()
                );
            }
        }
    }
}

#[test]
fn access_trees_have_the_expected_heights() {
    // At 4^k nodes all four topologies bisect log2(nodes) times: the binary
    // tree has height log2(P), the 4-ary tree half that, and the 2-4-ary
    // tree trades the last two binary levels for one leaf fan-out level.
    for nodes in NODE_COUNTS {
        let log2 = nodes.trailing_zeros() as usize;
        for topo in topologies_at(nodes) {
            let name = topo.name();
            let binary = DecompositionTree::build_on(&topo, TreeShape::binary());
            assert_eq!(binary.height(), log2, "{name} binary");
            let quad = DecompositionTree::build_on(&topo, TreeShape::quad());
            assert_eq!(quad.height(), log2 / 2, "{name} quad");
            let lk = DecompositionTree::build_on(&topo, TreeShape::lk(2, 4));
            assert_eq!(lk.height(), log2 - 1, "{name} 2-4-ary");
        }
    }
}

#[test]
fn is_ancestor_agrees_with_a_parent_walk_on_every_node_pair() {
    // `is_ancestor` is a preorder id-range test; the parent walk is its
    // definition.
    let shapes = [
        TreeShape::binary(),
        TreeShape::quad(),
        TreeShape::hex16(),
        TreeShape::lk(2, 4),
        TreeShape::lk(4, 16),
    ];
    for nodes in NODE_COUNTS {
        for topo in topologies_at(nodes) {
            for shape in shapes {
                let tree = DecompositionTree::build_on(&topo, shape);
                let mut walked = vec![false; tree.len()];
                for n in tree.node_ids() {
                    walked.fill(false);
                    let mut cur = Some(n);
                    while let Some(a) = cur {
                        walked[a.index()] = true;
                        cur = tree.parent(a);
                    }
                    for a in tree.node_ids() {
                        assert_eq!(
                            tree.is_ancestor(a, n),
                            walked[a.index()],
                            "{} {shape:?}: is_ancestor({a:?}, {n:?})",
                            topo.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn torus_trees_are_structurally_identical_to_mesh_trees() {
    // The torus reuses the mesh's rectangle decomposition — only routing
    // differs. Same submeshes, same leaf order, same heights.
    for nodes in NODE_COUNTS {
        let side = 1usize << (nodes.trailing_zeros() / 2);
        for shape in shapes() {
            let mesh_tree = DecompositionTree::build_on(&Mesh::square(side).into(), shape);
            let torus_tree =
                DecompositionTree::build_on(&AnyTopology::from(Mesh::torus(side, side)), shape);
            assert_eq!(mesh_tree.len(), torus_tree.len());
            assert_eq!(mesh_tree.leaf_order(), torus_tree.leaf_order());
            for id in mesh_tree.node_ids() {
                assert_eq!(mesh_tree.submesh(id), torus_tree.submesh(id));
                assert_eq!(
                    mesh_tree.children(id).to_vec(),
                    torus_tree.children(id).to_vec()
                );
            }
        }
    }
}

#[test]
fn routes_cross_exactly_distance_links() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x70_7010_6E57);
    for nodes in NODE_COUNTS {
        for topo in topologies_at(nodes) {
            let slots = topo.link_slots();
            for _ in 0..50 {
                let a = NodeId(rng.gen_range(0..nodes as u32));
                let b = NodeId(rng.gen_range(0..nodes as u32));
                let mut hops = 0usize;
                topo.for_each_route_link(a, b, |l| {
                    assert!(l.index() < slots, "{}: link out of range", topo.name());
                    hops += 1;
                });
                assert_eq!(hops, topo.distance(a, b), "{} {a}->{b}", topo.name());
                assert!(
                    topo.distance(a, b) <= topo.diameter(),
                    "{}: distance exceeds diameter",
                    topo.name()
                );
            }
        }
    }
}

#[test]
fn torus_never_routes_longer_than_the_mesh() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x70_5153);
    let mesh = Mesh::square(16);
    let torus = Mesh::torus(16, 16);
    let mut strictly_shorter = 0;
    for _ in 0..200 {
        let a = NodeId(rng.gen_range(0..256));
        let b = NodeId(rng.gen_range(0..256));
        let dm = mesh.distance(a, b);
        let dt = torus.distance(a, b);
        assert!(dt <= dm, "torus route {a}->{b} longer than the mesh's");
        if dt < dm {
            strictly_shorter += 1;
        }
    }
    assert!(strictly_shorter > 0, "wraparound links never helped");
}

#[test]
fn link_enumeration_matches_link_counts() {
    for nodes in NODE_COUNTS {
        for topo in topologies_at(nodes) {
            let ids = topo.link_ids();
            assert_eq!(ids.len(), topo.links(), "{}", topo.name());
            let distinct: HashSet<_> = ids.iter().collect();
            assert_eq!(
                distinct.len(),
                ids.len(),
                "{}: duplicate link ids",
                topo.name()
            );
            assert!(ids.iter().all(|l| l.index() < topo.link_slots()));
        }
    }
}
