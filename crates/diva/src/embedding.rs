//! Embedding of access trees into the network.
//!
//! Every global variable has its own *access tree* — a copy of the
//! decomposition tree — whose nodes must be mapped to processors of the
//! network. The theoretical analysis uses a fully random embedding (every
//! tree node is mapped to a uniformly random processor of its submesh). The
//! DIVA library uses the *modified* (regular) embedding described in Section
//! 2 of the paper: only the root is placed at random; every other node
//! copies the relative position of its parent, reduced modulo its own
//! submesh size. The modified embedding shortens expected distances between
//! neighbouring tree nodes at the price of correlations the theory does not
//! cover — the paper reports no adverse effects, and both variants are
//! available here.
//!
//! The rules operate on 2-D submesh coordinates of the decomposition's
//! layout ([`DecompositionTree::mesh`]), exactly as in the paper. For the
//! hypercube and the fat tree that layout is the `1 × n` strip of node ids,
//! where a submesh is an aligned id range `lo..lo+len` and the rules reduce
//! to ranks: the modified position is `lo + root mod len`, the random one
//! `lo + hash mod len`.

use dm_mesh::{DecompositionTree, Mesh, NodeId, TreeNodeId};
use dm_rng::splitmix64;
use std::cell::RefCell;
use std::sync::Arc;

/// Which embedding rule maps access-tree nodes to processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmbeddingMode {
    /// The practical embedding of the DIVA library: the root is random, every
    /// descendant reuses its parent's relative position modulo its own
    /// submesh dimensions.
    Modified,
    /// The embedding of the theoretical analysis: every tree node is mapped
    /// to an independently (pseudo-)random processor of its submesh, derived
    /// deterministically from the variable's seed.
    Random,
}

/// Per-variable randomness driving the embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarPlacement {
    /// Processor the root of the variable's access tree is mapped to.
    pub root: NodeId,
    /// Seed for the per-node pseudo-random choices of the [`EmbeddingMode::Random`] mode.
    pub seed: u64,
}

/// Number of entries of the direct-mapped position cache (a power of two).
const POSITION_CACHE_SLOTS: usize = 1 << 14;

/// Maps access-tree nodes of individual variables to mesh processors.
#[derive(Debug)]
pub struct Embedder {
    tree: Arc<DecompositionTree>,
    mode: EmbeddingMode,
    /// Direct-mapped memo for [`EmbeddingMode::Modified`] positions, which
    /// depend only on `(root, tree node)`: `(key, position)` pairs, replaced
    /// on collision. Embedding runs a few times per simulated protocol
    /// message, and protocol traffic revisits the same tree edges over and
    /// over. Interior mutability keeps the lookup API `&self`; the simulator
    /// drives each policy from a single thread. `RefCell` is `Send` (the
    /// parallel sweep executor moves whole simulations between worker
    /// threads, each owned by one thread at a time) but deliberately not
    /// `Sync` — sharing one embedder across threads is not a supported use,
    /// and the compile-time `Send` assertions in `runtime` pin exactly this
    /// contract.
    cache: RefCell<Vec<(u64, NodeId)>>,
}

impl Embedder {
    /// Create an embedder for the given decomposition tree and mode.
    pub fn new(tree: Arc<DecompositionTree>, mode: EmbeddingMode) -> Self {
        Embedder {
            tree,
            mode,
            cache: RefCell::new(vec![(u64::MAX, NodeId(0)); POSITION_CACHE_SLOTS]),
        }
    }

    /// The decomposition tree all access trees are copies of.
    pub fn tree(&self) -> &DecompositionTree {
        &self.tree
    }

    /// The coordinate mesh the trees are embedded into (see
    /// [`DecompositionTree::mesh`]).
    pub fn mesh(&self) -> &Mesh {
        self.tree.mesh()
    }

    /// The embedding mode.
    pub fn mode(&self) -> EmbeddingMode {
        self.mode
    }

    /// The processor that simulates tree node `node` of the access tree of a
    /// variable with placement `placement`.
    ///
    /// Leaves are always mapped to the processor they represent, regardless of
    /// the mode.
    pub fn position(&self, placement: VarPlacement, node: TreeNodeId) -> NodeId {
        if let Some(p) = self.tree.node(node).proc {
            return p;
        }
        match self.mode {
            EmbeddingMode::Modified => {
                // Modified positions depend only on (root, node) — memoize.
                let key = (placement.root.0 as u64) << 32 | node.0 as u64;
                let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> (64 - POSITION_CACHE_SLOTS.trailing_zeros()))
                    as usize;
                {
                    let cache = self.cache.borrow();
                    let (k, pos) = cache[slot];
                    if k == key {
                        return pos;
                    }
                }
                let pos = self.position_modified(placement, node);
                self.cache.borrow_mut()[slot] = (key, pos);
                pos
            }
            EmbeddingMode::Random => self.position_random(placement, node),
        }
    }

    /// Modified embedding: fold the root position down the path from the root
    /// to `node`, taking the parent's relative coordinates modulo the child's
    /// submesh dimensions at every step.
    ///
    /// `position` is called several times per simulated protocol message, so
    /// the root-to-node fold recurses along the parent chain (depth is
    /// logarithmic in the network size) instead of materialising the path.
    fn position_modified(&self, placement: VarPlacement, node: TreeNodeId) -> NodeId {
        let mesh = self.tree.mesh();
        let (rel_r, rel_c) = self.rel_pos_modified(placement, node);
        let sub = self.tree.submesh(node);
        mesh.node_at(sub.row0 + rel_r, sub.col0 + rel_c)
    }

    /// Relative coordinates of the modified embedding within `node`'s submesh.
    fn rel_pos_modified(&self, placement: VarPlacement, node: TreeNodeId) -> (usize, usize) {
        match self.tree.parent(node) {
            None => {
                let root_sub = self.tree.submesh(node);
                let (root_r, root_c) = self.tree.mesh().coord(placement.root);
                (root_r - root_sub.row0, root_c - root_sub.col0)
            }
            Some(parent) => {
                let (rel_r, rel_c) = self.rel_pos_modified(placement, parent);
                let sub = self.tree.submesh(node);
                (rel_r % sub.rows, rel_c % sub.cols)
            }
        }
    }

    /// Random embedding: an independent pseudo-random processor of the node's
    /// submesh, derived from the variable seed and the tree-node id.
    fn position_random(&self, placement: VarPlacement, node: TreeNodeId) -> NodeId {
        if node == self.tree.root() {
            return placement.root;
        }
        let h = splitmix64(placement.seed ^ ((node.0 as u64) << 32 | 0xA5A5_5A5A));
        let mesh = self.tree.mesh();
        let sub = self.tree.submesh(node);
        let idx = (h % sub.size() as u64) as usize;
        let dr = idx / sub.cols;
        let dc = idx % sub.cols;
        mesh.node_at(sub.row0 + dr, sub.col0 + dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mesh::TreeShape;

    fn embedder(rows: usize, cols: usize, shape: TreeShape, mode: EmbeddingMode) -> Embedder {
        let mesh = Mesh::new(rows, cols);
        Embedder::new(
            Arc::new(DecompositionTree::build_on(&mesh.into(), shape)),
            mode,
        )
    }

    fn placements(mesh_nodes: usize) -> Vec<VarPlacement> {
        (0..mesh_nodes as u32)
            .map(|i| VarPlacement {
                root: NodeId(i),
                seed: 0x1234_5678_9ABC_DEF0 ^ ((i as u64) * 7919),
            })
            .collect()
    }

    #[test]
    fn every_node_lands_in_its_submesh() {
        for mode in [EmbeddingMode::Modified, EmbeddingMode::Random] {
            for shape in [TreeShape::binary(), TreeShape::quad(), TreeShape::lk(2, 4)] {
                let e = embedder(8, 8, shape, mode);
                let mesh = e.mesh().clone();
                for placement in placements(mesh.nodes()).into_iter().step_by(7) {
                    for t in e.tree().node_ids() {
                        let pos = e.position(placement, t);
                        assert!(
                            e.tree().submesh(t).contains(&mesh, pos),
                            "{mode:?} {shape:?} node {t:?} mapped outside its submesh"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leaves_map_to_their_processor() {
        for mode in [EmbeddingMode::Modified, EmbeddingMode::Random] {
            let e = embedder(6, 5, TreeShape::binary(), mode);
            let placement = VarPlacement {
                root: NodeId(13),
                seed: 42,
            };
            for p in e.mesh().clone().node_ids() {
                let leaf = e.tree().leaf_of(p);
                assert_eq!(e.position(placement, leaf), p);
            }
        }
    }

    #[test]
    fn root_maps_to_the_placement_root() {
        for mode in [EmbeddingMode::Modified, EmbeddingMode::Random] {
            let e = embedder(8, 8, TreeShape::quad(), mode);
            for placement in placements(64) {
                assert_eq!(e.position(placement, e.tree().root()), placement.root);
            }
        }
    }

    #[test]
    fn modified_embedding_follows_the_paper_rule() {
        // On an 8x8 mesh with the 4-ary tree, a root at relative position
        // (r, c) puts the child for quadrant (qr, qc) at
        // (4*qr + r mod 4, 4*qc + c mod 4).
        let e = embedder(8, 8, TreeShape::quad(), EmbeddingMode::Modified);
        let mesh = e.mesh().clone();
        let root_pos = mesh.node_at(5, 6);
        let placement = VarPlacement {
            root: root_pos,
            seed: 0,
        };
        let root = e.tree().root();
        for &child in e.tree().children(root) {
            let sub = e.tree().submesh(child);
            let pos = e.position(placement, child);
            let (r, c) = mesh.coord(pos);
            assert_eq!(r, sub.row0 + 5 % sub.rows);
            assert_eq!(c, sub.col0 + 6 % sub.cols);
        }
    }

    #[test]
    fn modified_embedding_keeps_parent_child_distance_small() {
        // The whole point of the modified embedding: the expected distance
        // between a node and its parent is at most about the side length of
        // the parent's submesh.
        let e = embedder(16, 16, TreeShape::quad(), EmbeddingMode::Modified);
        let mesh = e.mesh().clone();
        for placement in placements(mesh.nodes()).into_iter().step_by(13) {
            for t in e.tree().node_ids() {
                if let Some(parent) = e.tree().parent(t) {
                    let d = mesh.distance(e.position(placement, t), e.position(placement, parent));
                    let parent_sub = e.tree().submesh(parent);
                    assert!(
                        d <= parent_sub.rows + parent_sub.cols,
                        "parent-child distance {d} too large"
                    );
                }
            }
        }
    }

    #[test]
    fn random_embedding_is_deterministic_per_seed() {
        let e = embedder(8, 8, TreeShape::binary(), EmbeddingMode::Random);
        let p1 = VarPlacement {
            root: NodeId(3),
            seed: 99,
        };
        let p2 = VarPlacement {
            root: NodeId(3),
            seed: 99,
        };
        let p3 = VarPlacement {
            root: NodeId(3),
            seed: 100,
        };
        let mut differs = false;
        for t in e.tree().node_ids() {
            assert_eq!(e.position(p1, t), e.position(p2, t));
            if e.position(p1, t) != e.position(p3, t) {
                differs = true;
            }
        }
        assert!(differs, "different seeds should give different embeddings");
    }

    #[test]
    fn non_grid_embeddings_land_in_their_region() {
        use dm_mesh::{AnyTopology, FatTree, Hypercube};
        for topo in [
            AnyTopology::from(Hypercube::new(5)),
            AnyTopology::from(FatTree::new(32)),
        ] {
            for mode in [EmbeddingMode::Modified, EmbeddingMode::Random] {
                for shape in [TreeShape::binary(), TreeShape::quad(), TreeShape::lk(2, 4)] {
                    let tree = Arc::new(DecompositionTree::build_on(&topo, shape));
                    let e = Embedder::new(Arc::clone(&tree), mode);
                    for placement in placements(topo.nodes()).into_iter().step_by(5) {
                        assert_eq!(e.position(placement, tree.root()), placement.root);
                        for t in tree.node_ids() {
                            let pos = e.position(placement, t);
                            assert!(
                                tree.region(t).contains(&pos),
                                "{mode:?} {shape:?} node {t:?} mapped outside its region"
                            );
                        }
                        for p in 0..topo.nodes() as u32 {
                            let leaf = tree.leaf_of(NodeId(p));
                            assert_eq!(e.position(placement, leaf), NodeId(p));
                        }
                    }
                }
            }
        }
    }

    /// The reference model of the hypercube and the fat tree: their regions
    /// are aligned power-of-two id ranges `lo..lo+len`, and the grid rules
    /// applied to the 1×n strip must equal the closed forms on such ranges.
    /// Pins `Submesh::split`'s tie rule and the grid arithmetic on strips.
    #[test]
    fn strip_rules_are_the_id_range_closed_forms() {
        use crate::barrier::TreeBarrier;
        use dm_mesh::{AnyTopology, FatTree, Hypercube};
        let shapes = [
            TreeShape::binary(),
            TreeShape::quad(),
            TreeShape::hex16(),
            TreeShape::lk(2, 4),
            TreeShape::lk(4, 8),
            TreeShape::lk(2, 3),
        ];
        for k in 1..=8u32 {
            for topo in [
                AnyTopology::from(Hypercube::new(k)),
                AnyTopology::from(FatTree::new(1 << k)),
            ] {
                let n = topo.nodes();
                for shape in shapes {
                    let tree = Arc::new(DecompositionTree::build_on(&topo, shape));
                    let what = format!("{} {}", topo.name(), shape.name());
                    let identity: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
                    assert_eq!(tree.leaf_order(), identity, "{what}: leaf order");
                    let modified = Embedder::new(Arc::clone(&tree), EmbeddingMode::Modified);
                    let random = Embedder::new(Arc::clone(&tree), EmbeddingMode::Random);
                    let barrier = TreeBarrier::new_on(&topo, shape);
                    for t in tree.node_ids() {
                        let region = tree.region(t);
                        let (lo, len) = (region[0].index(), region.len());
                        assert!(len.is_power_of_two() && lo.is_multiple_of(len), "{what}");
                        assert_eq!(region, &identity[lo..lo + len], "{what}");
                        assert_eq!(barrier.position(t), NodeId((lo + len / 2) as u32));
                        for root in 0..n {
                            let seed = 0xD15C_0000 ^ (root as u64).wrapping_mul(0x9E37_79B9);
                            let placement = VarPlacement {
                                root: NodeId(root as u32),
                                seed,
                            };
                            let expect = lo + root % len;
                            assert_eq!(
                                modified.position(placement, t),
                                NodeId(expect as u32),
                                "{what} modified, root {root}, node {t:?}"
                            );
                            if t != tree.root() {
                                let h = splitmix64(seed ^ ((t.0 as u64) << 32 | 0xA5A5_5A5A));
                                let expect = lo + (h % len as u64) as usize;
                                assert_eq!(
                                    random.position(placement, t),
                                    NodeId(expect as u32),
                                    "{what} random, root {root}, node {t:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_embedding_spreads_over_the_submesh() {
        // The root's children under the random mode should not all collapse to
        // the same relative position across many variables.
        let e = embedder(16, 16, TreeShape::quad(), EmbeddingMode::Random);
        let root_child = e.tree().children(e.tree().root())[0];
        let mut distinct = std::collections::HashSet::new();
        for placement in placements(256) {
            distinct.insert(e.position(placement, root_child));
        }
        assert!(
            distinct.len() > 16,
            "random embedding not spreading: {}",
            distinct.len()
        );
    }
}
