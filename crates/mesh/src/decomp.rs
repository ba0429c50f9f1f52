//! The hierarchical mesh decomposition and its decomposition / access trees.
//!
//! Section 2 of the paper defines the decomposition recursively: a submesh
//! with side lengths `m1 ≥ m2` is split along its longer side into two
//! non-overlapping submeshes of sizes `⌈m1/2⌉ × m2` and `⌊m1/2⌋ × m2`; the
//! recursion stops at single processors. The associated *decomposition tree*
//! has one node per submesh; an *access tree* is a copy of the decomposition
//! tree, one per global variable.
//!
//! The DIVA library additionally uses flattened variants to trade congestion
//! against per-message startup cost:
//!
//! * the **4-ary** tree skips the odd levels of the 2-ary decomposition,
//! * the **16-ary** tree skips the odd levels of the 4-ary one,
//! * the **ℓ-k-ary** tree (ℓ ∈ {2, 4}, k ≥ ℓ) is the ℓ-ary decomposition
//!   terminated at submeshes of at most `k` processors; such a terminal node
//!   gets one child per processor of its submesh.
//!
//! All of these are produced by [`DecompositionTree::build_on`] with the
//! appropriate [`TreeShape`].
//!
//! The decomposition is defined for every [`AnyTopology`] by one rule: halve
//! the rectangles of its row-major [layout](AnyTopology::layout). The mesh
//! and the torus are their own grid. A hypercube of `2^d` nodes or a fat tree
//! of `2^h` leaves is the `1 × n` strip of its node ids, whose halves are
//! aligned power-of-two id ranges — a subcube split off along the top
//! remaining dimension, or the subtree below a switch — so its leaf order is
//! the id order. Every tree node also records its *leaf range*: the
//! contiguous slice of [`DecompositionTree::leaf_order`] covered by its
//! subtree ([`DecompositionTree::region`]).

use crate::{AnyTopology, Mesh, NodeId, Submesh};

/// Identifier of a node within a [`DecompositionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeNodeId(pub u32);

impl TreeNodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a decomposition / access tree.
///
/// `levels_per_step` is the number of binary decomposition levels contracted
/// into one tree level (1 → 2-ary, 2 → 4-ary, 4 → 16-ary). `leaf_submesh` is
/// the submesh size at which the decomposition terminates (`1` for the pure
/// strategies, `k` for the ℓ-k-ary variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeShape {
    /// Binary levels contracted per tree level (1, 2 or 4 in the paper).
    pub levels_per_step: u32,
    /// Submesh size at which the decomposition terminates.
    pub leaf_submesh: usize,
}

impl TreeShape {
    /// The original 2-ary access tree.
    pub const fn binary() -> Self {
        TreeShape {
            levels_per_step: 1,
            leaf_submesh: 1,
        }
    }

    /// The 4-ary access tree (skips the odd levels of the 2-ary one).
    pub const fn quad() -> Self {
        TreeShape {
            levels_per_step: 2,
            leaf_submesh: 1,
        }
    }

    /// The 16-ary access tree (skips the odd levels of the 4-ary one).
    pub const fn hex16() -> Self {
        TreeShape {
            levels_per_step: 4,
            leaf_submesh: 1,
        }
    }

    /// The ℓ-k-ary access tree: ℓ-ary decomposition (ℓ ∈ {2, 4}) terminated
    /// at submeshes of size `k`.
    ///
    /// # Panics
    /// Panics if `l` is not 2 or 4, or if `k < l as usize`.
    pub fn lk(l: u32, k: usize) -> Self {
        let levels_per_step = match l {
            2 => 1,
            4 => 2,
            _ => panic!("ℓ-k-ary trees are defined for ℓ ∈ {{2, 4}}, got {l}"),
        };
        assert!(k >= l as usize, "ℓ-k-ary trees require k ≥ ℓ");
        TreeShape {
            levels_per_step,
            leaf_submesh: k,
        }
    }

    /// Maximum number of children a non-terminal tree node can have.
    pub fn max_fanout(&self) -> usize {
        1usize << self.levels_per_step
    }

    /// A short human-readable name ("2-ary", "4-ary", "16-ary", "2-4-ary", ...).
    pub fn name(&self) -> String {
        let base = self.max_fanout();
        if self.leaf_submesh <= 1 {
            format!("{base}-ary")
        } else {
            format!("{base}-{}-ary", self.leaf_submesh)
        }
    }
}

/// "No such node or processor" in the `u32` fields of [`Hot`].
const NONE: u32 = u32::MAX;

/// What the protocols read of a node on every simulated hop: 16 bytes, so
/// four nodes share a cache line.
#[derive(Debug, Clone, Copy)]
struct Hot {
    /// Parent id, [`NONE`] for the root.
    parent: u32,
    /// The last node id of the node's subtree. Ids are preorder (`expand`
    /// numbers a node before its children), so a subtree is the id range
    /// from its root to this end: `is_ancestor`, which runs several times
    /// per simulated protocol hop, is two compares.
    end: u32,
    /// Start of the node's children in [`DecompositionTree::kids`]; they
    /// end where the next node's begin.
    kids: u32,
    /// The processor a leaf represents, [`NONE`] for an inner node.
    proc: u32,
}

const _: () = assert!(std::mem::size_of::<Hot>() == 16);

/// What construction, the embedding and the tests read: 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Cold {
    /// The node's submesh of the layout: `row0, col0, rows, cols`.
    submesh: [u32; 4],
    /// First index of the node's subtree in
    /// [`DecompositionTree::leaf_order`].
    leaf_lo: u32,
    /// Depth of the node (root = 0).
    level: u32,
}

/// A decomposition tree (equivalently, the template of every access tree) for
/// a given mesh and tree shape.
///
/// Nodes are numbered in preorder and stored as two parallel arrays: a
/// 16-byte hot record (parent, subtree end, children start, processor) and a
/// 24-byte cold record (submesh, leaf range start, level). The children of
/// all nodes are one flat array grouped by parent, so a node costs 44 bytes
/// and every array is allocated once at its exact size.
#[derive(Debug, Clone)]
pub struct DecompositionTree {
    topo: AnyTopology,
    /// The topology's row-major layout ([`AnyTopology::layout`]): the
    /// rectangle construction and the embedding rules read row/column
    /// geometry through it.
    grid: Mesh,
    shape: TreeShape,
    hot: Vec<Hot>,
    cold: Vec<Cold>,
    /// Every node's children, grouped by parent id and in decomposition
    /// order within a group.
    kids: Vec<TreeNodeId>,
    /// Leaf tree node of each processor, indexed by `NodeId::index()`.
    leaf_of_proc: Vec<TreeNodeId>,
    /// Processors in left-to-right leaf order of the tree.
    leaf_order: Vec<NodeId>,
}

impl DecompositionTree {
    /// Build the decomposition tree of a topology with the given shape, per
    /// the paper's construction: recursively halve the submeshes of the
    /// topology's [layout](AnyTopology::layout) along their longer side,
    /// contracting `levels_per_step` binary levels per tree level and
    /// terminating at submeshes of at most `leaf_submesh` processors.
    pub fn build_on(topo: &AnyTopology, shape: TreeShape) -> Self {
        let (rows, cols) = topo.layout();
        let grid = Mesh::new(rows, cols);
        let len = count_nodes(grid.full(), shape);
        let mut tree = DecompositionTree {
            topo: topo.clone(),
            grid,
            shape,
            hot: Vec::with_capacity(len),
            cold: Vec::with_capacity(len),
            kids: Vec::new(),
            leaf_of_proc: vec![TreeNodeId(0); topo.nodes()],
            leaf_order: Vec::with_capacity(topo.nodes()),
        };
        tree.expand(tree.grid.full(), NONE, 0);
        debug_assert_eq!(tree.hot.len(), len);
        debug_assert_eq!(tree.leaf_order.len(), topo.nodes());
        tree.link_children();
        tree
    }

    /// Recursively create the node for `submesh` and its descendants.
    fn expand(&mut self, submesh: Submesh, parent: u32, level: u32) {
        let id = self.hot.len() as u32;
        let leaf_lo = self.leaf_order.len() as u32;
        let single = submesh.is_single();
        let proc = if single {
            submesh.node_at(&self.grid, 0, 0).0
        } else {
            NONE
        };
        self.hot.push(Hot {
            parent,
            end: id,
            kids: 0,
            proc,
        });
        let Submesh {
            row0,
            col0,
            rows,
            cols,
        } = submesh;
        self.cold.push(Cold {
            submesh: [row0 as u32, col0 as u32, rows as u32, cols as u32],
            leaf_lo,
            level,
        });
        if single {
            self.leaf_of_proc[proc as usize] = TreeNodeId(id);
            self.leaf_order.push(NodeId(proc));
            return;
        }
        let levels = if submesh.size() <= self.shape.leaf_submesh {
            // Terminal submesh of an ℓ-k-ary tree: one child per processor, in
            // binary-decomposition (locality-preserving) order.
            u32::MAX
        } else {
            self.shape.levels_per_step
        };
        split_levels(submesh, levels, &mut |s| self.expand(s, id, level + 1));
        self.hot[id as usize].end = self.hot.len() as u32 - 1;
    }

    /// Fill `kids` by a counting sort on parent: count each node's children
    /// into its `kids` field, turn the counts into group ends, then place
    /// the children from the highest id down, moving each group's offset
    /// back to its start. Preorder ids keep siblings in decomposition order.
    fn link_children(&mut self) {
        let hot = &mut self.hot;
        for c in 1..hot.len() {
            let p = hot[c].parent as usize;
            hot[p].kids += 1;
        }
        let mut end = 0;
        for h in hot.iter_mut() {
            end += h.kids;
            h.kids = end;
        }
        let mut kids = vec![TreeNodeId(0); hot.len() - 1];
        for c in (1..hot.len()).rev() {
            let p = hot[c].parent as usize;
            hot[p].kids -= 1;
            kids[hot[p].kids as usize] = TreeNodeId(c as u32);
        }
        self.kids = kids;
    }

    /// The hot record of a node.
    #[inline]
    fn hot(&self, id: TreeNodeId) -> &Hot {
        &self.hot[id.index()]
    }

    /// The topology this tree decomposes.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// The coordinate grid the submeshes refer to: the topology's
    /// [layout](AnyTopology::layout) as a mesh — the mesh itself, the
    /// torus's `rows × cols` grid, or the `1 × n` strip of a hypercube or
    /// fat tree.
    pub fn mesh(&self) -> &Mesh {
        &self.grid
    }

    /// Total number of tree nodes.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the tree is empty (never true for a valid mesh).
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// The root node id (always `TreeNodeId(0)`).
    pub fn root(&self) -> TreeNodeId {
        TreeNodeId(0)
    }

    /// Parent of a node, `None` for the root.
    #[inline]
    pub fn parent(&self, id: TreeNodeId) -> Option<TreeNodeId> {
        let p = self.hot(id).parent;
        (p != NONE).then_some(TreeNodeId(p))
    }

    /// Children of a node, ordered by the decomposition (first/"ceil" half
    /// first).
    #[inline]
    pub fn children(&self, id: TreeNodeId) -> &[TreeNodeId] {
        let lo = self.hot(id).kids as usize;
        let hi = self
            .hot
            .get(id.index() + 1)
            .map_or(self.kids.len(), |next| next.kids as usize);
        &self.kids[lo..hi]
    }

    /// Depth of a node (root = 0).
    #[inline]
    pub fn level(&self, id: TreeNodeId) -> usize {
        self.cold[id.index()].level as usize
    }

    /// The submesh of the layout represented by a node.
    pub fn submesh(&self, id: TreeNodeId) -> Submesh {
        let [row0, col0, rows, cols] = self.cold[id.index()].submesh;
        Submesh {
            row0: row0 as usize,
            col0: col0 as usize,
            rows: rows as usize,
            cols: cols as usize,
        }
    }

    /// The processors of the node's submesh, in decomposition (leaf) order.
    /// The last node of a preorder subtree is a leaf, so the range ends at
    /// that leaf's position.
    pub fn region(&self, id: TreeNodeId) -> &[NodeId] {
        let lo = self.cold[id.index()].leaf_lo as usize;
        let hi = self.cold[self.hot(id).end as usize].leaf_lo as usize;
        &self.leaf_order[lo..=hi]
    }

    /// Whether the node is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: TreeNodeId) -> bool {
        self.hot(id).proc != NONE
    }

    /// The processor a leaf represents, `None` for an inner node.
    #[inline]
    pub fn proc(&self, id: TreeNodeId) -> Option<NodeId> {
        let p = self.hot(id).proc;
        (p != NONE).then_some(NodeId(p))
    }

    /// The processor represented by a leaf.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf.
    pub fn leaf_proc(&self, id: TreeNodeId) -> NodeId {
        self.proc(id).expect("tree node is not a leaf")
    }

    /// The leaf tree node representing processor `p`.
    pub fn leaf_of(&self, p: NodeId) -> TreeNodeId {
        self.leaf_of_proc[p.index()]
    }

    /// The leaf tree node of every processor, indexed by
    /// [`NodeId::index`]: [`DecompositionTree::leaf_of`] as one slice.
    pub fn leaf_of_proc(&self) -> &[TreeNodeId] {
        &self.leaf_of_proc
    }

    /// Processors in left-to-right leaf order of the tree. Because children
    /// are always ordered by the decomposition, this order is identical for
    /// all [`TreeShape`]s of the same mesh and is the locality-preserving
    /// numbering used for the bitonic wires and the Barnes-Hut costzones.
    pub fn leaf_order(&self) -> &[NodeId] {
        &self.leaf_order
    }

    /// The path from `id` up to the root, inclusive of both.
    pub fn path_to_root(&self, id: TreeNodeId) -> Vec<TreeNodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Depth of the tree (number of levels, root counts as level 0).
    pub fn height(&self) -> usize {
        self.cold.iter().map(|c| c.level).max().unwrap_or(0) as usize
    }

    /// Whether `ancestor` is an ancestor of (or equal to) `node`.
    #[inline]
    pub fn is_ancestor(&self, ancestor: TreeNodeId, node: TreeNodeId) -> bool {
        ancestor <= node && node.0 <= self.hot(ancestor).end
    }

    /// Lowest common ancestor of two tree nodes.
    pub(crate) fn lca(&self, a: TreeNodeId, b: TreeNodeId) -> TreeNodeId {
        let (mut a, mut b) = (a, b);
        while self.level(a) > self.level(b) {
            a = self.parent(a).expect("node above root");
        }
        while self.level(b) > self.level(a) {
            b = self.parent(b).expect("node above root");
        }
        while a != b {
            a = self.parent(a).expect("nodes in different trees");
            b = self.parent(b).expect("nodes in different trees");
        }
        a
    }

    /// Number of tree edges on the path between two nodes.
    pub fn tree_distance(&self, a: TreeNodeId, b: TreeNodeId) -> usize {
        let l = self.lca(a, b);
        (self.level(a) - self.level(l)) + (self.level(b) - self.level(l))
    }

    /// Iterator over all tree node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = TreeNodeId> {
        (0..self.hot.len()).map(|i| TreeNodeId(i as u32))
    }

    /// Iterator over all leaf node ids.
    pub fn leaf_ids(&self) -> impl Iterator<Item = TreeNodeId> + '_ {
        self.node_ids().filter(|&id| self.is_leaf(id))
    }

    /// Bytes the tree holds on the heap: the capacities of its arrays.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.hot.capacity() * size_of::<Hot>()
            + self.cold.capacity() * size_of::<Cold>()
            + self.kids.capacity() * size_of::<TreeNodeId>()
            + self.leaf_of_proc.capacity() * size_of::<TreeNodeId>()
            + self.leaf_order.capacity() * size_of::<NodeId>()
    }
}

/// Split `submesh` through `levels` binary decomposition levels, handing the
/// resulting submeshes to `out` in decomposition order. Branches that reach
/// a single processor earlier stay as they are, so `u32::MAX` levels yields
/// the submesh's single processors.
fn split_levels(submesh: Submesh, levels: u32, out: &mut impl FnMut(Submesh)) {
    if levels == 0 {
        out(submesh);
        return;
    }
    match submesh.split() {
        None => out(submesh),
        Some((a, b)) => {
            split_levels(a, levels - 1, out);
            split_levels(b, levels - 1, out);
        }
    }
}

/// Number of nodes `expand` creates for `submesh` and its descendants.
fn count_nodes(submesh: Submesh, shape: TreeShape) -> usize {
    if submesh.is_single() {
        return 1;
    }
    if submesh.size() <= shape.leaf_submesh {
        return 1 + submesh.size();
    }
    let mut n = 1;
    split_levels(submesh, shape.levels_per_step, &mut |s| {
        n += count_nodes(s, shape)
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTree, Hypercube};
    use std::collections::HashSet;

    fn check_invariants(tree: &DecompositionTree) {
        let mesh = tree.mesh().clone();
        // Root covers the whole mesh.
        assert_eq!(tree.submesh(tree.root()), mesh.full());
        // Children partition their parent.
        for id in tree.node_ids() {
            let children = tree.children(id);
            let sub = tree.submesh(id);
            // The leaf range covers exactly the submesh's processors.
            assert_eq!(tree.region(id).len(), sub.size());
            assert!(tree.region(id).iter().all(|&p| sub.contains(&mesh, p)));
            if tree.is_leaf(id) {
                assert!(children.is_empty());
                assert_eq!(sub.size(), 1);
            } else {
                assert!(!children.is_empty());
                let total: usize = children.iter().map(|&c| tree.submesh(c).size()).sum();
                assert_eq!(total, sub.size(), "children must partition the parent");
                for &c in children {
                    assert!(sub.contains_submesh(&tree.submesh(c)));
                    assert_eq!(tree.parent(c), Some(id));
                    assert_eq!(tree.level(c), tree.level(id) + 1);
                }
            }
        }
        // Every processor has exactly one leaf.
        let leaves: HashSet<_> = tree.leaf_ids().map(|l| tree.leaf_proc(l)).collect();
        assert_eq!(leaves.len(), mesh.nodes());
        for p in mesh.node_ids() {
            assert_eq!(tree.leaf_proc(tree.leaf_of(p)), p);
        }
        // Leaf order is a permutation of the processors.
        let order: HashSet<_> = tree.leaf_order().iter().copied().collect();
        assert_eq!(order.len(), mesh.nodes());
    }

    #[test]
    fn binary_tree_of_4x3_matches_paper_figure_1() {
        // Figure 1 of the paper decomposes M(4,3): level 1 splits the 4 rows
        // into 2+2, level 2 splits the 3 columns into 2+1, and so on.
        let mesh = Mesh::new(4, 3);
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::binary());
        check_invariants(&tree);
        let root = tree.root();
        let kids = tree.children(root);
        assert_eq!(kids.len(), 2);
        assert_eq!(tree.submesh(kids[0]), Submesh::new(0, 0, 2, 3));
        assert_eq!(tree.submesh(kids[1]), Submesh::new(2, 0, 2, 3));
        let grand = tree.children(kids[0]);
        assert_eq!(tree.submesh(grand[0]), Submesh::new(0, 0, 2, 2));
        assert_eq!(tree.submesh(grand[1]), Submesh::new(0, 2, 2, 1));
    }

    #[test]
    fn binary_tree_node_count() {
        // A full binary decomposition of P processors has 2P - 1 nodes.
        for (r, c) in [(4, 4), (8, 8), (4, 8), (5, 3)] {
            let mesh = Mesh::new(r, c);
            let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::binary());
            assert_eq!(tree.len(), 2 * mesh.nodes() - 1);
            check_invariants(&tree);
        }
    }

    #[test]
    fn quad_tree_on_square_mesh_has_fanout_four() {
        let mesh = Mesh::square(8);
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::quad());
        check_invariants(&tree);
        for id in tree.node_ids() {
            if !tree.is_leaf(id) {
                assert_eq!(tree.children(id).len(), 4, "node {id:?}");
                // Each child of a 2^k × 2^k submesh is a quadrant.
                let s = tree.submesh(id);
                for &c in tree.children(id) {
                    assert_eq!(tree.submesh(c).size() * 4, s.size());
                }
            }
        }
        // Height: 8x8 = 64 procs, log_4(64) = 3.
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn hex16_tree_on_16x16() {
        let mesh = Mesh::square(16);
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::hex16());
        check_invariants(&tree);
        assert_eq!(tree.children(tree.root()).len(), 16);
        assert_eq!(tree.height(), 2);
    }

    #[test]
    fn lk_tree_terminates_at_submesh_of_size_k() {
        let mesh = Mesh::square(8);
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::lk(2, 4));
        check_invariants(&tree);
        // Internal nodes just above the leaves represent submeshes of size <= 4
        // and have one child per processor.
        for id in tree.node_ids() {
            let children = tree.children(id);
            if !tree.is_leaf(id) && children.iter().all(|&c| tree.is_leaf(c)) {
                assert!(tree.submesh(id).size() <= 4);
                assert_eq!(children.len(), tree.submesh(id).size());
            }
        }
        // 2-4-ary is flatter than plain 2-ary.
        let binary = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::binary());
        assert!(tree.height() < binary.height());
    }

    #[test]
    fn leaf_order_is_identical_across_shapes() {
        let mesh = Mesh::new(8, 16);
        let shapes = [
            TreeShape::binary(),
            TreeShape::quad(),
            TreeShape::hex16(),
            TreeShape::lk(2, 4),
            TreeShape::lk(4, 16),
        ];
        let orders: Vec<Vec<NodeId>> = shapes
            .iter()
            .map(|&s| {
                DecompositionTree::build_on(&mesh.clone().into(), s)
                    .leaf_order()
                    .to_vec()
            })
            .collect();
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
    }

    #[test]
    fn leaf_order_preserves_locality() {
        // Consecutive processors in leaf order are close in the mesh: the
        // first half of the leaf order lies entirely in the first half of the
        // decomposition.
        let mesh = Mesh::square(8);
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::binary());
        let order = tree.leaf_order();
        let (first_half, _) = mesh.full().split().unwrap();
        for &p in &order[..order.len() / 2] {
            assert!(first_half.contains(&mesh, p));
        }
    }

    #[test]
    fn lca_and_tree_distance() {
        let mesh = Mesh::square(4);
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::binary());
        let a = tree.leaf_of(mesh.node_at(0, 0));
        let b = tree.leaf_of(mesh.node_at(0, 1));
        let c = tree.leaf_of(mesh.node_at(3, 3));
        assert_eq!(tree.lca(a, a), a);
        assert!(tree.level(tree.lca(a, b)) > tree.level(tree.lca(a, c)));
        assert_eq!(tree.lca(a, c), tree.root());
        assert_eq!(tree.tree_distance(a, c), tree.level(a) + tree.level(c));
        assert!(tree.is_ancestor(tree.root(), a));
        assert!(!tree.is_ancestor(a, tree.root()));
    }

    #[test]
    fn shape_names() {
        assert_eq!(TreeShape::binary().name(), "2-ary");
        assert_eq!(TreeShape::quad().name(), "4-ary");
        assert_eq!(TreeShape::hex16().name(), "16-ary");
        assert_eq!(TreeShape::lk(2, 4).name(), "2-4-ary");
        assert_eq!(TreeShape::lk(4, 16).name(), "4-16-ary");
        assert_eq!(TreeShape::lk(4, 8).name(), "4-8-ary");
    }

    #[test]
    #[should_panic]
    fn lk_rejects_invalid_base() {
        TreeShape::lk(3, 9);
    }

    #[test]
    fn path_to_root_starts_at_node_and_ends_at_root() {
        let mesh = Mesh::new(4, 6);
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::quad());
        for p in mesh.node_ids() {
            let leaf = tree.leaf_of(p);
            let path = tree.path_to_root(leaf);
            assert_eq!(path[0], leaf);
            assert_eq!(*path.last().unwrap(), tree.root());
            assert_eq!(path.len(), tree.level(leaf) + 1);
        }
    }

    #[test]
    fn non_power_of_two_meshes_are_handled() {
        for (r, c) in [(3, 5), (7, 7), (1, 9), (9, 1), (2, 2), (1, 1)] {
            let mesh = Mesh::new(r, c);
            for shape in [
                TreeShape::binary(),
                TreeShape::quad(),
                TreeShape::hex16(),
                TreeShape::lk(2, 3),
            ] {
                let tree = DecompositionTree::build_on(&mesh.clone().into(), shape);
                check_invariants(&tree);
            }
        }
    }

    /// One node of the reference tree: the record the tree kept before its
    /// nodes were split into hot and cold arrays, children in their own
    /// `Vec` and the leaf range as two bounds.
    struct RefNode {
        submesh: Submesh,
        parent: Option<TreeNodeId>,
        children: Vec<TreeNodeId>,
        level: usize,
        proc: Option<NodeId>,
        leaf_lo: u32,
        leaf_hi: u32,
    }

    struct RefTree {
        nodes: Vec<RefNode>,
        leaf_of_proc: Vec<TreeNodeId>,
        leaf_order: Vec<NodeId>,
    }

    /// The straightforward recursive construction, independent of
    /// `split_levels`, `count_nodes` and `link_children`.
    fn reference_tree(topo: &AnyTopology, shape: TreeShape) -> RefTree {
        let (rows, cols) = topo.layout();
        let grid = Mesh::new(rows, cols);
        let mut tree = RefTree {
            nodes: Vec::new(),
            leaf_of_proc: vec![TreeNodeId(0); topo.nodes()],
            leaf_order: Vec::new(),
        };
        ref_expand(&mut tree, &grid, shape, grid.full(), None, 0);
        tree
    }

    fn ref_expand(
        tree: &mut RefTree,
        grid: &Mesh,
        shape: TreeShape,
        submesh: Submesh,
        parent: Option<TreeNodeId>,
        level: usize,
    ) -> TreeNodeId {
        let id = TreeNodeId(tree.nodes.len() as u32);
        let leaf_lo = tree.leaf_order.len() as u32;
        let proc = submesh.is_single().then(|| submesh.node_at(grid, 0, 0));
        tree.nodes.push(RefNode {
            submesh,
            parent,
            children: Vec::new(),
            level,
            proc,
            leaf_lo,
            leaf_hi: leaf_lo + 1,
        });
        if let Some(p) = proc {
            tree.leaf_of_proc[p.index()] = id;
            tree.leaf_order.push(p);
            return id;
        }
        let mut subs = Vec::new();
        if submesh.size() <= shape.leaf_submesh {
            ref_split(submesh, usize::MAX, &mut subs);
        } else {
            ref_split(submesh, shape.levels_per_step as usize, &mut subs);
        }
        let children = subs
            .into_iter()
            .map(|s| ref_expand(tree, grid, shape, s, Some(id), level + 1))
            .collect();
        let node = &mut tree.nodes[id.index()];
        node.children = children;
        node.leaf_hi = tree.leaf_order.len() as u32;
        id
    }

    fn ref_split(submesh: Submesh, levels: usize, out: &mut Vec<Submesh>) {
        match submesh.split() {
            Some((a, b)) if levels > 0 => {
                ref_split(a, levels - 1, out);
                ref_split(b, levels - 1, out);
            }
            _ => out.push(submesh),
        }
    }

    fn assert_matches_reference(topo: &AnyTopology, shape: TreeShape) {
        let tree = DecompositionTree::build_on(topo, shape);
        let reference = reference_tree(topo, shape);
        let what = format!("{} {}", topo.name(), shape.name());
        assert_eq!(tree.len(), reference.nodes.len(), "{what}");
        for (i, r) in reference.nodes.iter().enumerate() {
            let id = TreeNodeId(i as u32);
            assert_eq!(tree.parent(id), r.parent, "{what} {id:?}");
            assert_eq!(tree.children(id), &r.children[..], "{what} {id:?}");
            assert_eq!(tree.level(id), r.level, "{what} {id:?}");
            assert_eq!(tree.submesh(id), r.submesh, "{what} {id:?}");
            let region = &reference.leaf_order[r.leaf_lo as usize..r.leaf_hi as usize];
            assert_eq!(tree.region(id), region, "{what} {id:?}");
            assert_eq!(tree.proc(id), r.proc, "{what} {id:?}");
            assert_eq!(tree.is_leaf(id), r.proc.is_some(), "{what} {id:?}");
        }
        // `is_ancestor` against the reference's parent walk over all pairs
        // up to 2 048 nodes; beyond, at the bounds of every subtree (the
        // reference numbers in preorder too, so a subtree is an id range).
        if tree.len() <= 2048 {
            let mut above = vec![false; tree.len()];
            for n in tree.node_ids() {
                above.fill(false);
                let mut cur = Some(n);
                while let Some(a) = cur {
                    above[a.index()] = true;
                    cur = reference.nodes[a.index()].parent;
                }
                for a in tree.node_ids() {
                    assert_eq!(
                        tree.is_ancestor(a, n),
                        above[a.index()],
                        "{what} {a:?} {n:?}"
                    );
                }
            }
        } else {
            let mut size = vec![1u32; tree.len()];
            for (i, r) in reference.nodes.iter().enumerate().rev() {
                if let Some(p) = r.parent {
                    size[p.index()] += size[i];
                }
            }
            for a in tree.node_ids() {
                let last = a.0 + size[a.index()] - 1;
                assert!(tree.is_ancestor(a, a), "{what} {a:?}");
                assert!(tree.is_ancestor(a, TreeNodeId(last)), "{what} {a:?}");
                assert!(a.0 == 0 || !tree.is_ancestor(a, TreeNodeId(a.0 - 1)));
                assert!(
                    last as usize + 1 == tree.len() || !tree.is_ancestor(a, TreeNodeId(last + 1))
                );
            }
        }
        assert_eq!(tree.leaf_order(), &reference.leaf_order[..], "{what}");
        for p in 0..topo.nodes() as u32 {
            assert_eq!(
                tree.leaf_of(NodeId(p)),
                reference.leaf_of_proc[p as usize],
                "{what}"
            );
        }
        let height = reference.nodes.iter().map(|n| n.level).max().unwrap();
        assert_eq!(tree.height(), height, "{what}");
    }

    #[test]
    fn flat_tree_equals_the_reference_construction() {
        let shapes = [
            TreeShape::binary(),
            TreeShape::quad(),
            TreeShape::hex16(),
            TreeShape::lk(2, 4),
            TreeShape::lk(4, 16),
        ];
        let dims = [
            (1, 1),
            (2, 2),
            (4, 4),
            (8, 8),
            (16, 16),
            (32, 32),
            (64, 64),
            (3, 5),
            (7, 7),
            (1, 9),
            (9, 1),
        ];
        let mut topos: Vec<AnyTopology> = Vec::new();
        for (r, c) in dims {
            topos.push(Mesh::new(r, c).into());
            topos.push(Mesh::torus(r, c).into());
        }
        for dim in 0..=12 {
            topos.push(Hypercube::new(dim).into());
            topos.push(FatTree::new(1 << dim).into());
        }
        for topo in &topos {
            for shape in shapes {
                assert_matches_reference(topo, shape);
            }
        }
    }

    #[test]
    fn a_node_costs_44_bytes_in_exactly_sized_arrays() {
        for (side, shape) in [(64, TreeShape::quad()), (100, TreeShape::binary())] {
            let tree = DecompositionTree::build_on(&Mesh::square(side).into(), shape);
            let procs = side * side;
            // 16 B hot, 24 B cold and 4 B as a child (all but the root) per
            // node; the leaf of and the leaf order position of a processor.
            assert_eq!(
                tree.heap_bytes(),
                44 * tree.len() - 4 + 8 * procs,
                "{side}x{side} {}",
                shape.name()
            );
            assert!(tree.heap_bytes() - 8 * procs <= 44 * tree.len());
        }
    }
}
