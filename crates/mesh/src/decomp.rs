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

/// One node of a [`DecompositionTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompNode {
    /// The submesh of the tree's layout this node represents.
    pub submesh: Submesh,
    /// Parent node (`None` for the root).
    pub parent: Option<TreeNodeId>,
    /// Children, ordered by the decomposition (first/"ceil" half first).
    pub children: Vec<TreeNodeId>,
    /// Depth of the node in the tree (root = 0).
    pub level: usize,
    /// For leaves: the processor this leaf represents.
    pub proc: Option<NodeId>,
    /// First index of this node's subtree in
    /// [`DecompositionTree::leaf_order`].
    pub leaf_lo: u32,
    /// One past the last index of this node's subtree in
    /// [`DecompositionTree::leaf_order`].
    pub leaf_hi: u32,
}

impl DecompNode {
    /// Whether this node is a leaf (represents a single processor).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.proc.is_some()
    }
}

/// A decomposition tree (equivalently, the template of every access tree) for
/// a given mesh and tree shape.
#[derive(Debug, Clone)]
pub struct DecompositionTree {
    topo: AnyTopology,
    /// The topology's row-major layout ([`AnyTopology::layout`]): the
    /// rectangle construction and the embedding rules read row/column
    /// geometry through it.
    grid: Mesh,
    shape: TreeShape,
    nodes: Vec<DecompNode>,
    /// Leaf tree node of each processor, indexed by `NodeId::index()`.
    leaf_of_proc: Vec<TreeNodeId>,
    /// Processors in left-to-right leaf order of the tree.
    leaf_order: Vec<NodeId>,
    /// The last node id of each node's subtree. Ids are preorder (`expand`
    /// numbers a node before its children), so a subtree is the id range
    /// from its root to this end: `is_ancestor`, which runs several times
    /// per simulated protocol hop, is two compares.
    subtree_end: Vec<u32>,
}

impl DecompositionTree {
    /// Build the decomposition tree of a topology with the given shape, per
    /// the paper's construction: recursively halve the submeshes of the
    /// topology's [layout](AnyTopology::layout) along their longer side,
    /// contracting `levels_per_step` binary levels per tree level and
    /// terminating at submeshes of at most `leaf_submesh` processors.
    pub fn build_on(topo: &AnyTopology, shape: TreeShape) -> Self {
        let (rows, cols) = topo.layout();
        let mut tree = DecompositionTree {
            topo: topo.clone(),
            grid: Mesh::new(rows, cols),
            shape,
            nodes: Vec::new(),
            leaf_of_proc: vec![TreeNodeId(0); topo.nodes()],
            leaf_order: Vec::new(),
            subtree_end: Vec::new(),
        };
        tree.expand(tree.grid.full(), None, 0);
        debug_assert_eq!(tree.leaf_order.len(), topo.nodes());
        tree
    }

    /// Recursively create the node for `submesh` and its descendants.
    fn expand(&mut self, submesh: Submesh, parent: Option<TreeNodeId>, level: usize) -> TreeNodeId {
        let id = TreeNodeId(self.nodes.len() as u32);
        let leaf_lo = self.leaf_order.len() as u32;
        let proc = if submesh.is_single() {
            Some(submesh.node_at(&self.grid, 0, 0))
        } else {
            None
        };
        self.nodes.push(DecompNode {
            submesh,
            parent,
            children: Vec::new(),
            level,
            proc,
            leaf_lo,
            leaf_hi: leaf_lo,
        });
        self.subtree_end.push(id.0);
        if let Some(p) = proc {
            self.leaf_of_proc[p.index()] = id;
            self.leaf_order.push(p);
            self.nodes[id.index()].leaf_hi = leaf_lo + 1;
            return id;
        }
        let child_submeshes = if submesh.size() <= self.shape.leaf_submesh {
            // Terminal submesh of an ℓ-k-ary tree: one child per processor, in
            // binary-decomposition (locality-preserving) order.
            let mut singles = Vec::with_capacity(submesh.size());
            collect_binary_leaves(submesh, &mut singles);
            singles
        } else {
            let mut subs = Vec::with_capacity(self.shape.max_fanout());
            split_levels(submesh, self.shape.levels_per_step, &mut subs);
            subs
        };
        let children: Vec<TreeNodeId> = child_submeshes
            .into_iter()
            .map(|s| self.expand(s, Some(id), level + 1))
            .collect();
        self.nodes[id.index()].children = children;
        self.nodes[id.index()].leaf_hi = self.leaf_order.len() as u32;
        self.subtree_end[id.index()] = self.nodes.len() as u32 - 1;
        id
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

    /// The shape the tree was built with.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Total number of tree nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true for a valid mesh).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id (always `TreeNodeId(0)`).
    pub fn root(&self) -> TreeNodeId {
        TreeNodeId(0)
    }

    /// Access a tree node.
    pub fn node(&self, id: TreeNodeId) -> &DecompNode {
        &self.nodes[id.index()]
    }

    /// Parent of a node, `None` for the root.
    pub fn parent(&self, id: TreeNodeId) -> Option<TreeNodeId> {
        self.node(id).parent
    }

    /// Children of a node.
    pub fn children(&self, id: TreeNodeId) -> &[TreeNodeId] {
        &self.node(id).children
    }

    /// Depth of a node (root = 0).
    pub fn level(&self, id: TreeNodeId) -> usize {
        self.node(id).level
    }

    /// The submesh of the layout represented by a node.
    pub fn submesh(&self, id: TreeNodeId) -> Submesh {
        self.node(id).submesh
    }

    /// The processors of the node's submesh, in decomposition (leaf) order.
    pub fn region(&self, id: TreeNodeId) -> &[NodeId] {
        let n = self.node(id);
        &self.leaf_order[n.leaf_lo as usize..n.leaf_hi as usize]
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(&self, id: TreeNodeId) -> bool {
        self.node(id).is_leaf()
    }

    /// The processor represented by a leaf.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf.
    pub fn leaf_proc(&self, id: TreeNodeId) -> NodeId {
        self.node(id).proc.expect("tree node is not a leaf")
    }

    /// The leaf tree node representing processor `p`.
    pub fn leaf_of(&self, p: NodeId) -> TreeNodeId {
        self.leaf_of_proc[p.index()]
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
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Whether `ancestor` is an ancestor of (or equal to) `node`.
    pub fn is_ancestor(&self, ancestor: TreeNodeId, node: TreeNodeId) -> bool {
        ancestor <= node && node.0 <= self.subtree_end[ancestor.index()]
    }

    /// Lowest common ancestor of two tree nodes.
    pub fn lca(&self, a: TreeNodeId, b: TreeNodeId) -> TreeNodeId {
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
        (0..self.nodes.len()).map(|i| TreeNodeId(i as u32))
    }

    /// Iterator over all leaf node ids.
    pub fn leaf_ids(&self) -> impl Iterator<Item = TreeNodeId> + '_ {
        self.node_ids().filter(|&id| self.is_leaf(id))
    }
}

/// Split `submesh` through `levels` binary decomposition levels, collecting
/// the resulting submeshes in decomposition order. Branches that reach a
/// single processor earlier stay as they are.
fn split_levels(submesh: Submesh, levels: u32, out: &mut Vec<Submesh>) {
    if levels == 0 {
        out.push(submesh);
        return;
    }
    match submesh.split() {
        None => out.push(submesh),
        Some((a, b)) => {
            split_levels(a, levels - 1, out);
            split_levels(b, levels - 1, out);
        }
    }
}

/// Collect the single-processor submeshes of `submesh` in binary
/// decomposition order (used for the terminal fan-out of ℓ-k-ary trees).
fn collect_binary_leaves(submesh: Submesh, out: &mut Vec<Submesh>) {
    match submesh.split() {
        None => out.push(submesh),
        Some((a, b)) => {
            collect_binary_leaves(a, out);
            collect_binary_leaves(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_invariants(tree: &DecompositionTree) {
        let mesh = tree.mesh().clone();
        // Root covers the whole mesh.
        assert_eq!(tree.submesh(tree.root()), mesh.full());
        // Children partition their parent.
        for id in tree.node_ids() {
            let n = tree.node(id);
            let sub = tree.submesh(id);
            // The leaf range covers exactly the submesh's processors.
            assert_eq!(tree.region(id).len(), sub.size());
            assert!(tree.region(id).iter().all(|&p| sub.contains(&mesh, p)));
            if n.is_leaf() {
                assert!(n.children.is_empty());
                assert_eq!(sub.size(), 1);
            } else {
                assert!(!n.children.is_empty());
                let total: usize = n.children.iter().map(|&c| tree.submesh(c).size()).sum();
                assert_eq!(total, sub.size(), "children must partition the parent");
                for &c in &n.children {
                    assert!(sub.contains_submesh(&tree.submesh(c)));
                    assert_eq!(tree.parent(c), Some(id));
                    assert_eq!(tree.level(c), n.level + 1);
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
            let n = tree.node(id);
            if !n.is_leaf() && tree.children(id).iter().all(|&c| tree.is_leaf(c)) {
                assert!(tree.submesh(id).size() <= 4);
                assert_eq!(n.children.len(), tree.submesh(id).size());
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
}
