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

use dm_mesh::{DecompositionTree, NodeId, TreeNodeId};
use dm_rng::splitmix64;
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

/// Maps access-tree nodes of individual variables to mesh processors.
///
/// The [`EmbeddingMode::Modified`] rule separates by dimension: a node's
/// relative row is the root's row reduced modulo every submesh row count on
/// the path from the root down to the node — its *row chain* — and its
/// relative column likewise folds the root's column down the column chain.
/// [`Embedder::new`] tabulates each distinct chain once, for every root row
/// (`rel_rows`) and every root column (`rel_cols`), and gives each tree node
/// one record naming its submesh origin and its two chains. A position is
/// then two table loads. Nodes with equal chains share a table — on a
/// power-of-two mesh one per level and dimension — so the embedder holds
/// `16 B` per tree node plus a few tables of mesh-side length: linear in the
/// tree, nothing per `(root, node)` pair, and no interior mutability.
#[derive(Debug)]
pub struct Embedder {
    tree: Arc<DecompositionTree>,
    mode: EmbeddingMode,
    /// Per tree node: `[row0, col0, row_off, col_off]` — the origin of its
    /// submesh and the offsets of its row chain in `rel_rows` and its column
    /// chain in `rel_cols`.
    nodes: Vec<[u32; 4]>,
    /// Row chains, one mesh-height table each: `rel_rows[row_off + x]` is
    /// root row `x` folded down the chain. The root's chain, at offset 0, is
    /// the identity.
    rel_rows: Vec<u32>,
    /// Column chains, one mesh-width table each, as `rel_rows`.
    rel_cols: Vec<u32>,
}

/// The chain tables of one dimension while [`Embedder::new`] builds them.
struct Chains {
    /// Root coordinates along the dimension: the length of every table.
    width: usize,
    /// `(parent offset, extent, offset)` of every chain but the root's.
    index: Vec<(u32, u32, u32)>,
    table: Vec<u32>,
}

impl Chains {
    fn new(width: usize) -> Self {
        Chains {
            width,
            index: Vec::new(),
            table: (0..width as u32).collect(),
        }
    }

    /// Offset of the chain at `parent` continued by a submesh `extent` wide
    /// along this dimension, whose parent submesh is `parent_extent` wide.
    fn child(&mut self, parent: u32, parent_extent: usize, extent: usize) -> u32 {
        // Every entry of a chain is below its last extent, so an unchanged
        // extent folds to the parent's own table.
        if extent == parent_extent {
            return parent;
        }
        let key = (parent, extent as u32);
        if let Some(&(_, _, off)) = self.index.iter().find(|&&(p, e, _)| (p, e) == key) {
            return off;
        }
        let off = self.table.len();
        let p = parent as usize;
        self.table.extend_from_within(p..p + self.width);
        for v in &mut self.table[off..] {
            *v %= extent as u32;
        }
        self.index.push((parent, extent as u32, off as u32));
        off as u32
    }
}

impl Embedder {
    /// Create an embedder for the given decomposition tree and mode.
    pub fn new(tree: Arc<DecompositionTree>, mode: EmbeddingMode) -> Self {
        let mesh = tree.mesh();
        assert_eq!(
            tree.submesh(tree.root()),
            mesh.full(),
            "the root must cover the mesh"
        );
        let mut rows = Chains::new(mesh.rows());
        let mut cols = Chains::new(mesh.cols());
        let mut nodes: Vec<[u32; 4]> = Vec::with_capacity(tree.len());
        for t in tree.node_ids() {
            let sub = tree.submesh(t);
            let (row_off, col_off) = match tree.parent(t) {
                None => (0, 0),
                Some(p) => {
                    assert!(p < t, "tree node {t:?} precedes its parent {p:?}");
                    let [_, _, pr, pc] = nodes[p.index()];
                    let parent = tree.submesh(p);
                    (
                        rows.child(pr, parent.rows, sub.rows),
                        cols.child(pc, parent.cols, sub.cols),
                    )
                }
            };
            nodes.push([sub.row0 as u32, sub.col0 as u32, row_off, col_off]);
        }
        Embedder {
            tree,
            mode,
            nodes,
            rel_rows: rows.table,
            rel_cols: cols.table,
        }
    }

    /// The decomposition tree all access trees are copies of.
    pub(crate) fn tree(&self) -> &DecompositionTree {
        &self.tree
    }

    /// The coordinate mesh the trees are embedded into (see
    /// [`DecompositionTree::mesh`]).
    #[cfg(test)]
    pub(crate) fn mesh(&self) -> &dm_mesh::Mesh {
        self.tree.mesh()
    }

    /// The processor that simulates tree node `node` of the access tree of a
    /// variable with placement `placement`.
    ///
    /// Leaves are always mapped to the processor they represent, regardless of
    /// the mode.
    pub fn position(&self, placement: VarPlacement, node: TreeNodeId) -> NodeId {
        if let Some(p) = self.tree.proc(node) {
            return p;
        }
        match self.mode {
            EmbeddingMode::Modified => {
                let cols = self.tree.mesh().cols() as u32;
                let (rr, rc) = (placement.root.0 / cols, placement.root.0 % cols);
                let [row0, col0, row_off, col_off] = self.nodes[node.index()];
                let r = row0 + self.rel_rows[(row_off + rr) as usize];
                let c = col0 + self.rel_cols[(col_off + rc) as usize];
                NodeId(r * cols + c)
            }
            EmbeddingMode::Random => self.position_random(placement, node),
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
    use dm_mesh::{Mesh, TreeShape};

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

    /// The modified rule as the paper states it: fold the root's relative
    /// position down the path from the root to `node`, taking it modulo each
    /// submesh's dimensions on the way.
    fn reference_modified_position(
        tree: &DecompositionTree,
        placement: VarPlacement,
        node: TreeNodeId,
    ) -> NodeId {
        fn rel(tree: &DecompositionTree, root: NodeId, node: TreeNodeId) -> (usize, usize) {
            let sub = tree.submesh(node);
            match tree.parent(node) {
                None => {
                    let (r, c) = tree.mesh().coord(root);
                    (r - sub.row0, c - sub.col0)
                }
                Some(parent) => {
                    let (r, c) = rel(tree, root, parent);
                    (r % sub.rows, c % sub.cols)
                }
            }
        }
        let (r, c) = rel(tree, placement.root, node);
        let sub = tree.submesh(node);
        tree.mesh().node_at(sub.row0 + r, sub.col0 + c)
    }

    /// Heap bytes held by an embedder's tables.
    fn table_bytes(e: &Embedder) -> usize {
        e.nodes.capacity() * size_of::<[u32; 4]>()
            + (e.rel_rows.capacity() + e.rel_cols.capacity()) * size_of::<u32>()
    }

    #[test]
    fn modified_tables_equal_the_reference_fold() {
        let meshes = [
            (6, 5),
            (10, 10),
            (7, 13),
            (12, 9),
            (33, 20),
            (1, 17),
            (17, 1),
            (16, 16),
        ];
        let shapes = [
            TreeShape::binary(),
            TreeShape::quad(),
            TreeShape::hex16(),
            TreeShape::lk(2, 3),
            TreeShape::lk(4, 8),
            TreeShape::lk(2, 4),
        ];
        let mut pairs = 0usize;
        for (rows, cols) in meshes {
            for shape in shapes {
                let e = embedder(rows, cols, shape, EmbeddingMode::Modified);
                let tree = e.tree();
                for placement in placements(rows * cols) {
                    for t in tree.node_ids() {
                        assert_eq!(
                            e.position(placement, t),
                            reference_modified_position(tree, placement, t),
                            "{rows}x{cols} {} root {:?} node {t:?}",
                            shape.name(),
                            placement.root
                        );
                        pairs += 1;
                    }
                }
            }
        }
        assert!(pairs > 5_000_000, "{pairs} pairs checked");
    }

    #[test]
    fn modified_tables_are_linear_in_the_tree() {
        for (rows, cols) in [(1, 1), (1, 16), (8, 8), (16, 16), (8, 32), (64, 64)] {
            for shape in [
                TreeShape::binary(),
                TreeShape::quad(),
                TreeShape::hex16(),
                TreeShape::lk(2, 4),
                TreeShape::lk(4, 8),
            ] {
                let e = embedder(rows, cols, shape, EmbeddingMode::Modified);
                let depth = e.tree().height();
                let entries = e.rel_rows.len() + e.rel_cols.len();
                assert!(
                    entries <= (depth + 1) * (rows + cols),
                    "{rows}x{cols} {}: {entries} entries at depth {depth}",
                    shape.name()
                );
                assert_eq!(e.nodes.len(), e.tree().len());
            }
        }
        let e = embedder(128, 128, TreeShape::quad(), EmbeddingMode::Modified);
        let bytes = table_bytes(&e);
        assert!(bytes < 512 << 10, "128x128 4-ary embedder holds {bytes} B");
        // Nothing is kept per (root, node) pair: every heap byte is a node
        // record or a chain-table entry (allowing for the tables' growth).
        let entries = e.rel_rows.len() + e.rel_cols.len();
        assert_eq!(e.nodes.capacity(), e.tree().len());
        assert!(bytes <= 16 * e.tree().len() + 2 * 4 * entries, "{bytes} B");
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
