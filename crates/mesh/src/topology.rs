//! The networks beyond the 2-D mesh, and the one interface over all four.
//!
//! The paper defines the access-tree strategy for *arbitrary* networks via a
//! hierarchical decomposition, but its experiments only ever instantiate 2-D
//! meshes. This module adds three further networks:
//!
//! * [`Torus`] — the 2-D torus: a mesh with wraparound links and
//!   shortest-way dimension-order routing.
//! * [`Hypercube`] — the binary hypercube with LSB-first e-cube routing.
//! * [`FatTree`] — a binary fat tree: processors at the leaves, switches
//!   inside, edge capacities growing towards the root (modelled as parallel
//!   physical links).
//!
//! [`AnyTopology`] — a closed enum over these and the reference [`Mesh`] —
//! is the interface the rest of the simulator uses: node/link enumeration,
//! deterministic routing (statically dispatched once per message),
//! pairwise distance, fault detours, and the row-major
//! [layout](AnyTopology::layout) the decomposition is built on. Each method
//! dispatches to the inherent method of the same name on the four types.
//! All answers are deterministic: the entire reproduction rests on runs
//! being bit-identical across hosts and thread counts.
//!
//! ## Link identifiers
//!
//! Every topology numbers its directed links densely from 0 and sizes the
//! per-link statistics via [`AnyTopology::link_slots`]. The mesh and torus
//! use the classic `4·node + direction` encoding (so [`LinkId::source`] /
//! [`LinkId::direction`] remain meaningful); the hypercube uses
//! `dim·node + bit`; the fat tree numbers its switch-to-switch channels
//! sequentially at construction time.

use crate::{Direction, LinkId, Mesh, NodeId};

/// Out-link enumerator of one node: called with a visitor that receives
/// each `(link, neighbor)` pair in a fixed deterministic order.
type EdgeEnumerator<'a> = &'a dyn Fn(NodeId, &mut dyn FnMut(LinkId, NodeId));

/// Shortest alive path by breadth-first search, shared by the direct
/// topologies. `edges` enumerates the out-links of one node in a fixed
/// deterministic order; together with the FIFO frontier that makes the
/// returned route a pure function of the inputs.
pub(crate) fn bfs_route(
    nodes: usize,
    from: NodeId,
    to: NodeId,
    dead: &dyn Fn(LinkId) -> bool,
    edges: EdgeEnumerator<'_>,
) -> Option<Vec<LinkId>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut pred: Vec<Option<(NodeId, LinkId)>> = vec![None; nodes];
    let mut seen = vec![false; nodes];
    let mut queue = std::collections::VecDeque::new();
    seen[from.index()] = true;
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        let mut reached = false;
        edges(v, &mut |l, next| {
            if reached || seen[next.index()] || dead(l) {
                return;
            }
            seen[next.index()] = true;
            pred[next.index()] = Some((v, l));
            if next == to {
                reached = true;
            } else {
                queue.push_back(next);
            }
        });
        if reached {
            let mut route = Vec::new();
            let mut cur = to;
            while cur != from {
                let (p, l) = pred[cur.index()].expect("BFS predecessor chain broken");
                route.push(l);
                cur = p;
            }
            route.reverse();
            return Some(route);
        }
    }
    None
}

/// A 2-dimensional torus: the mesh plus wraparound links in both dimensions.
///
/// Node numbering, coordinates and the `4·node + direction` link encoding are
/// identical to [`Mesh`]; every node additionally owns wraparound links, so
/// all four link slots exist whenever the corresponding dimension has at
/// least two lines. Routing is dimension-order (columns first, like the
/// mesh's X-Y routing) but takes the shorter way around each ring; ties
/// (exactly half the ring) deterministically go east/south.
///
/// The hierarchical decomposition reuses the mesh's rectangle splits — a
/// contiguous rectangle of a torus is connected through its internal mesh
/// links — so torus access trees are structurally identical to mesh access
/// trees; only routing (and therefore congestion and timing) differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    rows: usize,
    cols: usize,
}

impl Torus {
    /// Create a torus with the given number of rows and columns.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "torus dimensions must be positive");
        Torus { rows, cols }
    }

    /// Create a square `side × side` torus.
    pub fn square(side: usize) -> Self {
        Self::new(side, side)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row/column coordinate of a node (row-major numbering, like the mesh).
    #[inline]
    pub fn coord(&self, n: NodeId) -> (usize, usize) {
        let i = n.index();
        debug_assert!(i < self.rows * self.cols);
        (i / self.cols, i % self.cols)
    }

    /// Node id of the processor in row `r`, column `c`.
    #[inline]
    pub fn node_at(&self, r: usize, c: usize) -> NodeId {
        assert!(r < self.rows && c < self.cols, "coordinate out of range");
        NodeId((r * self.cols + c) as u32)
    }

    /// Ring distance (shorter way around) between two lines of a dimension
    /// of length `len`.
    #[inline]
    fn ring_dist(len: usize, a: usize, b: usize) -> usize {
        let fwd = (b + len - a) % len;
        fwd.min(len - fwd)
    }

    /// Call `f` for every directed link crossed by the shortest-way
    /// dimension-order route from `from` to `to` (columns first, then rows).
    pub fn for_each_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, mut f: F) {
        let (fr, fc) = self.coord(from);
        let (tr, tc) = self.coord(to);
        let cols = self.cols;
        let rows = self.rows;
        // Dimension 1: move along the row ring at row `fr`.
        let mut c = fc;
        if fc != tc {
            let fwd = (tc + cols - fc) % cols;
            let east = fwd <= cols - fwd; // tie → east
            let steps = fwd.min(cols - fwd);
            for _ in 0..steps {
                let cur = (fr * cols + c) as u32;
                let d = if east {
                    Direction::East
                } else {
                    Direction::West
                };
                f(LinkId(cur * 4 + d.index() as u32));
                c = if east {
                    (c + 1) % cols
                } else {
                    (c + cols - 1) % cols
                };
            }
        }
        // Dimension 2: move along the column ring at column `tc`.
        let mut r = fr;
        if fr != tr {
            let fwd = (tr + rows - fr) % rows;
            let south = fwd <= rows - fwd; // tie → south
            let steps = fwd.min(rows - fwd);
            for _ in 0..steps {
                let cur = (r * cols + tc) as u32;
                let d = if south {
                    Direction::South
                } else {
                    Direction::North
                };
                f(LinkId(cur * 4 + d.index() as u32));
                r = if south {
                    (r + 1) % rows
                } else {
                    (r + rows - 1) % rows
                };
            }
        }
    }

    /// Short human-readable name, e.g. `torus 8x8`.
    pub fn name(&self) -> String {
        format!("torus {}x{}", self.rows, self.cols)
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        self.rows * self.cols
    }

    /// Size of the directed-link index space (4 per node).
    pub fn link_slots(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Number of directed links that actually exist.
    pub fn links(&self) -> usize {
        let horizontal = if self.cols > 1 {
            self.rows * 2 * self.cols
        } else {
            0
        };
        let vertical = if self.rows > 1 {
            self.cols * 2 * self.rows
        } else {
            0
        };
        horizontal + vertical
    }

    /// All existing directed links.
    pub fn link_ids(&self) -> Vec<LinkId> {
        let mut out = Vec::with_capacity(self.links());
        for n in 0..self.rows * self.cols {
            for d in Direction::ALL {
                let exists = match d {
                    Direction::East | Direction::West => self.cols > 1,
                    Direction::South | Direction::North => self.rows > 1,
                };
                if exists {
                    out.push(LinkId((n * 4 + d.index()) as u32));
                }
            }
        }
        out
    }

    /// The distinct ring neighbours of `n`, ascending.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let (r, c) = self.coord(n);
        let mut out = Vec::with_capacity(4);
        if self.cols > 1 {
            out.push(self.node_at(r, (c + 1) % self.cols));
            out.push(self.node_at(r, (c + self.cols - 1) % self.cols));
        }
        if self.rows > 1 {
            out.push(self.node_at((r + 1) % self.rows, c));
            out.push(self.node_at((r + self.rows - 1) % self.rows, c));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of links crossed by the route from `a` to `b`.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ar, ac) = self.coord(a);
        let (br, bc) = self.coord(b);
        Self::ring_dist(self.rows, ar, br) + Self::ring_dist(self.cols, ac, bc)
    }

    /// Maximum routing distance between any two processors.
    pub fn diameter(&self) -> usize {
        self.rows / 2 + self.cols / 2
    }

    /// Shortest alive route by breadth-first search (see
    /// [`AnyTopology::route_links_avoiding`]).
    pub fn route_links_avoiding(
        &self,
        from: NodeId,
        to: NodeId,
        dead: &dyn Fn(LinkId) -> bool,
    ) -> Option<Vec<LinkId>> {
        let (rows, cols) = (self.rows, self.cols);
        bfs_route(rows * cols, from, to, dead, &|v, f| {
            let (r, c) = self.coord(v);
            for d in Direction::ALL {
                let exists = match d {
                    Direction::East | Direction::West => cols > 1,
                    Direction::South | Direction::North => rows > 1,
                };
                if !exists {
                    continue;
                }
                let nb = match d {
                    Direction::East => self.node_at(r, (c + 1) % cols),
                    Direction::West => self.node_at(r, (c + cols - 1) % cols),
                    Direction::South => self.node_at((r + 1) % rows, c),
                    Direction::North => self.node_at((r + rows - 1) % rows, c),
                };
                f(LinkId(v.0 * 4 + d.index() as u32), nb);
            }
        })
    }
}

/// A binary hypercube of `2^dim` processors.
///
/// Node `n` is adjacent to `n ^ (1 << b)` for every dimension `b`; the link
/// leaving `n` along dimension `b` has id `n·dim + b`. Routing is the
/// deterministic e-cube order: differing address bits are corrected from the
/// lowest dimension to the highest.
///
/// The hierarchical decomposition halves the 1×n strip of node ids, which
/// splits off the highest remaining dimension: every region is a subcube —
/// a contiguous, aligned id range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Create a hypercube of dimension `dim` (`2^dim` processors).
    ///
    /// # Panics
    /// Panics if `dim > 24` (the id spaces throughout the simulator are
    /// `u32`-based).
    pub fn new(dim: u32) -> Self {
        assert!(dim <= 24, "hypercube dimension {dim} out of range");
        Hypercube { dim }
    }

    /// The dimension.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Call `f` for every directed link of the e-cube route from `from` to
    /// `to`.
    pub fn for_each_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, mut f: F) {
        let mut cur = from.0;
        let diff = from.0 ^ to.0;
        for b in 0..self.dim {
            if diff >> b & 1 == 1 {
                f(LinkId(cur * self.dim + b));
                cur ^= 1 << b;
            }
        }
    }

    /// Short human-readable name, e.g. `hypercube-6`.
    pub fn name(&self) -> String {
        format!("hypercube-{}", self.dim)
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        1usize << self.dim
    }

    /// Size of the directed-link index space (`dim` per node, all used).
    pub fn link_slots(&self) -> usize {
        self.nodes() * self.dim as usize
    }

    /// Number of directed links.
    pub fn links(&self) -> usize {
        self.link_slots()
    }

    /// All directed links.
    pub fn link_ids(&self) -> Vec<LinkId> {
        (0..self.link_slots() as u32).map(LinkId).collect()
    }

    /// The `dim` neighbours of `n`, one per flipped bit, lowest bit first.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        (0..self.dim).map(|b| NodeId(n.0 ^ (1 << b))).collect()
    }

    /// Hamming distance between the two addresses.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        (a.0 ^ b.0).count_ones() as usize
    }

    /// Maximum routing distance between any two processors.
    pub fn diameter(&self) -> usize {
        self.dim as usize
    }

    /// Shortest alive route by breadth-first search (see
    /// [`AnyTopology::route_links_avoiding`]).
    pub fn route_links_avoiding(
        &self,
        from: NodeId,
        to: NodeId,
        dead: &dyn Fn(LinkId) -> bool,
    ) -> Option<Vec<LinkId>> {
        let dim = self.dim;
        bfs_route(self.nodes(), from, to, dead, &|v, f| {
            for b in 0..dim {
                f(LinkId(v.0 * dim + b), NodeId(v.0 ^ (1 << b)));
            }
        })
    }
}

/// A binary fat tree over `2^h` processors.
///
/// The processors sit at the leaves of a complete binary tree of switches;
/// a message from leaf `a` to leaf `b` climbs to their lowest common
/// ancestor switch and descends again. Following Leiserson's construction,
/// edge capacity grows towards the root: the edge above a subtree of `L ≥ 2`
/// leaves consists of `L/2` parallel physical links (its bisection width),
/// leaf edges are single links. A flow picks its channel deterministically
/// by `(a ⊕ b) mod multiplicity`, so distinct flows spread across the
/// parallel links while every run stays reproducible.
///
/// There are no direct processor-to-processor links
/// ([`FatTree::neighbors`] is empty); decomposition regions are subtrees —
/// contiguous aligned leaf ranges, the halves of the 1×n strip of leaf ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTree {
    leaves: usize,
    levels: u32,
    /// Channel multiplicity of the up-edge of each tree vertex, indexed by
    /// heap id (`1` = root, vertex `v` has children `2v` and `2v+1`, leaf
    /// `i` is vertex `leaves + i`). Entries 0 and 1 are unused.
    mult: Vec<u32>,
    /// First link id of each vertex's up-channel group; the down-channel
    /// group (parent → vertex) follows at `up_base + mult`.
    up_base: Vec<u32>,
    total_links: u32,
}

impl FatTree {
    /// Create a binary fat tree with the given number of leaf processors.
    ///
    /// # Panics
    /// Panics if `leaves` is not a power of two, zero, or exceeds `2^24`
    /// (mirroring [`Hypercube::new`]: the link-id space is `u32`-based, and
    /// a fat tree of `2^24` leaves already owns ~2^28 directed channels).
    pub fn new(leaves: usize) -> Self {
        assert!(
            leaves.is_power_of_two(),
            "fat tree needs a power-of-two leaf count, got {leaves}"
        );
        assert!(
            leaves <= 1 << 24,
            "fat tree leaf count {leaves} out of range"
        );
        let levels = leaves.trailing_zeros();
        let size = 2 * leaves;
        let mut mult = vec![0u32; size];
        let mut up_base = vec![0u32; size];
        let mut next = 0u32;
        for v in 2..size {
            let depth = (v as u32).ilog2();
            let under = leaves >> depth;
            // The edge above a subtree carries its bisection width, at
            // least one link.
            let m = (under / 2).max(1) as u32;
            mult[v] = m;
            up_base[v] = next;
            next += 2 * m;
        }
        FatTree {
            leaves,
            levels,
            mult,
            up_base,
            total_links: next,
        }
    }

    /// Number of leaf processors.
    #[inline]
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Number of switch levels between a leaf and the root.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    #[inline]
    fn leaf_vertex(&self, n: NodeId) -> usize {
        self.leaves + n.index()
    }

    /// Deterministic per-flow channel choice on an edge of multiplicity `m`.
    #[inline]
    fn channel(from: NodeId, to: NodeId, m: u32) -> u32 {
        (from.0 ^ to.0) % m
    }

    /// Call `f` for every directed link of the route from `from` to `to`:
    /// up-edges from `from`'s leaf to the LCA switch, then down-edges to
    /// `to`'s leaf.
    pub fn for_each_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, mut f: F) {
        if from == to {
            return;
        }
        let mut va = self.leaf_vertex(from);
        let mut vb = self.leaf_vertex(to);
        // Both endpoints are leaves, hence at equal depth: climb in lockstep.
        // The tree has at most 25 levels (u32 ids), so the down path fits a
        // fixed stack buffer — no per-message allocation.
        let mut down = [0usize; 32];
        let mut nd = 0;
        while va != vb {
            f(LinkId(
                self.up_base[va] + Self::channel(from, to, self.mult[va]),
            ));
            down[nd] = vb;
            nd += 1;
            va /= 2;
            vb /= 2;
        }
        for &v in down[..nd].iter().rev() {
            f(LinkId(
                self.up_base[v] + self.mult[v] + Self::channel(from, to, self.mult[v]),
            ));
        }
    }

    /// Short human-readable name, e.g. `fat-tree-64`.
    pub fn name(&self) -> String {
        format!("fat-tree-{}", self.leaves)
    }

    /// Number of processors (the leaves).
    pub fn nodes(&self) -> usize {
        self.leaves
    }

    /// Size of the directed-link index space (every slot is a channel).
    pub fn link_slots(&self) -> usize {
        self.total_links as usize
    }

    /// Number of directed channels.
    pub fn links(&self) -> usize {
        self.total_links as usize
    }

    /// All directed channels.
    pub fn link_ids(&self) -> Vec<LinkId> {
        (0..self.total_links).map(LinkId).collect()
    }

    /// Always empty: an indirect topology, all links connect switches.
    pub fn neighbors(&self, _n: NodeId) -> Vec<NodeId> {
        Vec::new()
    }

    /// Number of links crossed by the route from `a` to `b`: one up- and
    /// one down-edge per level climbed to the LCA switch.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        if a == b {
            return 0;
        }
        let mut va = self.leaf_vertex(a);
        let mut vb = self.leaf_vertex(b);
        let mut hops = 0;
        while va != vb {
            va /= 2;
            vb /= 2;
            hops += 2; // one up-edge and one down-edge per climbed level
        }
        hops
    }

    /// Maximum routing distance between any two processors.
    pub fn diameter(&self) -> usize {
        2 * self.levels as usize
    }

    /// The unique switch path with the default channel where it is alive,
    /// else the lowest alive parallel channel (see
    /// [`AnyTopology::route_links_avoiding`]).
    pub fn route_links_avoiding(
        &self,
        from: NodeId,
        to: NodeId,
        dead: &dyn Fn(LinkId) -> bool,
    ) -> Option<Vec<LinkId>> {
        // The switch path of a fat-tree flow is unique; only the channel
        // choice on each edge is free. Keep the default channel where it is
        // alive, otherwise fall back to the lowest alive parallel channel.
        let pick = |base: u32, m: u32, preferred: u32| -> Option<LinkId> {
            let l = LinkId(base + preferred);
            if !dead(l) {
                return Some(l);
            }
            (0..m).map(|c| LinkId(base + c)).find(|&l| !dead(l))
        };
        if from == to {
            return Some(Vec::new());
        }
        let mut va = self.leaf_vertex(from);
        let mut vb = self.leaf_vertex(to);
        let mut route = Vec::new();
        let mut down = [0usize; 32];
        let mut nd = 0;
        while va != vb {
            let m = self.mult[va];
            route.push(pick(self.up_base[va], m, Self::channel(from, to, m))?);
            down[nd] = vb;
            nd += 1;
            va /= 2;
            vb /= 2;
        }
        for &v in down[..nd].iter().rev() {
            let m = self.mult[v];
            route.push(pick(self.up_base[v] + m, m, Self::channel(from, to, m))?);
        }
        Some(route)
    }
}

/// A network of processors: a closed sum over the four provided topologies.
///
/// The configurations and the hot paths hold an `AnyTopology` (cheap to
/// clone, statically dispatched per message). It answers only
/// combinatorial questions — which links a message crosses, how many link
/// slots the statistics need, which row-major layout the decomposition
/// halves.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyTopology {
    /// The reference 2-D mesh.
    Mesh(Mesh),
    /// The 2-D torus (wraparound links).
    Torus(Torus),
    /// The binary hypercube.
    Hypercube(Hypercube),
    /// The binary fat tree.
    FatTree(FatTree),
}

/// Forward one method to the inherent method of the same name.
macro_rules! dispatch {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            AnyTopology::Mesh($t) => $e,
            AnyTopology::Torus($t) => $e,
            AnyTopology::Hypercube($t) => $e,
            AnyTopology::FatTree($t) => $e,
        }
    };
}

impl AnyTopology {
    /// The underlying mesh, when this topology is one.
    pub fn mesh(&self) -> Option<&Mesh> {
        match self {
            AnyTopology::Mesh(m) => Some(m),
            _ => None,
        }
    }

    /// Visit every directed link crossed by the deterministic route from
    /// `from` to `to`, in order; zero times when `from == to`. Used once
    /// per simulated message.
    #[inline]
    pub fn for_each_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, f: F) {
        dispatch!(self, t => t.for_each_route_link(from, to, f))
    }

    /// Short human-readable name (used in tables, e.g. `mesh 8x8`,
    /// `hypercube-6`).
    pub fn name(&self) -> String {
        dispatch!(self, t => t.name())
    }

    /// Number of processors.
    #[inline]
    pub fn nodes(&self) -> usize {
        dispatch!(self, t => t.nodes())
    }

    /// Size of the dense directed-link index space (some slots may be
    /// unused, e.g. the mesh's edge slots).
    pub fn link_slots(&self) -> usize {
        dispatch!(self, t => t.link_slots())
    }

    /// Number of directed links that actually exist.
    pub fn links(&self) -> usize {
        dispatch!(self, t => t.links())
    }

    /// All existing directed links.
    pub fn link_ids(&self) -> Vec<LinkId> {
        match self {
            AnyTopology::Mesh(m) => m.link_ids().collect(),
            AnyTopology::Torus(t) => t.link_ids(),
            AnyTopology::Hypercube(h) => h.link_ids(),
            AnyTopology::FatTree(f) => f.link_ids(),
        }
    }

    /// Processors directly connected to `n`. Empty for indirect topologies
    /// (the fat tree routes every message through switches).
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        dispatch!(self, t => t.neighbors(n))
    }

    /// Number of links crossed by a message from `a` to `b` under the
    /// deterministic routing.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        dispatch!(self, t => t.distance(a, b))
    }

    /// Row/column geometry for the topologies laid out on a 2-D grid with
    /// row-major node numbering (mesh, torus); `None` otherwise.
    pub fn grid_dims(&self) -> Option<(usize, usize)> {
        match self {
            AnyTopology::Mesh(m) => Some((m.rows(), m.cols())),
            AnyTopology::Torus(t) => Some((t.rows(), t.cols())),
            AnyTopology::Hypercube(_) | AnyTopology::FatTree(_) => None,
        }
    }

    /// The row-major `(rows, cols)` layout the decomposition, the embedding
    /// and the barrier work on: [`AnyTopology::grid_dims`] for the mesh and
    /// the torus, the `1 × n` strip of node ids otherwise. Programs see it
    /// as their `mesh_dims`.
    ///
    /// The strip is exact for the hypercube and the fat tree: halving a
    /// strip of `2^k` ids always yields aligned power-of-two id ranges —
    /// the subcubes of the top remaining dimension, the subtrees below a
    /// switch — so the rectangle decomposition *is* their bisection.
    pub fn layout(&self) -> (usize, usize) {
        self.grid_dims().unwrap_or((1, self.nodes()))
    }

    /// Maximum routing distance between any two processors.
    pub fn diameter(&self) -> usize {
        dispatch!(self, t => t.diameter())
    }

    /// A deterministic detour route from `from` to `to` that crosses no link
    /// for which `dead` returns true, or `None` when every path is cut (the
    /// network is partitioned for this pair).
    ///
    /// When no link on the pair's default route is dead the caller should
    /// prefer [`AnyTopology::for_each_route_link`]; this method exists for
    /// fault injection and makes no effort to match the default route.
    /// Direct topologies answer with a breadth-first search over alive links
    /// (shortest alive path, deterministic through the fixed neighbor
    /// enumeration order); the fat tree keeps its unique switch path and
    /// falls back to the lowest alive parallel channel per edge.
    pub fn route_links_avoiding(
        &self,
        from: NodeId,
        to: NodeId,
        dead: &dyn Fn(LinkId) -> bool,
    ) -> Option<Vec<LinkId>> {
        dispatch!(self, t => t.route_links_avoiding(from, to, dead))
    }
}

impl From<Mesh> for AnyTopology {
    fn from(m: Mesh) -> Self {
        AnyTopology::Mesh(m)
    }
}

impl From<Torus> for AnyTopology {
    fn from(t: Torus) -> Self {
        AnyTopology::Torus(t)
    }
}

impl From<Hypercube> for AnyTopology {
    fn from(h: Hypercube) -> Self {
        AnyTopology::Hypercube(h)
    }
}

impl From<FatTree> for AnyTopology {
    fn from(f: FatTree) -> Self {
        AnyTopology::FatTree(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routes must cross exactly `distance` links, stay within the link
    /// index space, and be deterministic.
    fn check_routing(topo: &AnyTopology) {
        let n = topo.nodes();
        let slots = topo.link_slots();
        let probes: Vec<usize> = vec![0, 1, n / 3, n / 2, n - 1];
        for &a in &probes {
            for &b in &probes {
                let (a, b) = (NodeId(a as u32), NodeId(b as u32));
                let mut route = Vec::new();
                topo.for_each_route_link(a, b, |l| route.push(l));
                assert_eq!(route.len(), topo.distance(a, b), "{} {a}->{b}", topo.name());
                assert!(route.iter().all(|l| l.index() < slots));
                let mut again = Vec::new();
                topo.for_each_route_link(a, b, |l| again.push(l));
                assert_eq!(route, again, "routing must be deterministic");
            }
        }
    }

    #[test]
    fn mesh_routing_through_the_trait() {
        check_routing(&Mesh::new(4, 6).into());
    }

    #[test]
    fn torus_routing_takes_the_short_way_around() {
        let t = Torus::new(8, 8);
        check_routing(&t.clone().into());
        // Opposite corners: 2 hops on the torus (one wraparound step per
        // dimension), 14 on the mesh.
        let a = t.node_at(0, 0);
        let b = t.node_at(7, 7);
        assert_eq!(t.distance(a, b), 2);
        assert_eq!(Mesh::square(8).distance(a, b), 14);
        // One step west of the origin wraps to the last column.
        let c = t.node_at(0, 7);
        let mut route = Vec::new();
        t.for_each_route_link(a, c, |l| route.push(l));
        assert_eq!(route.len(), 1);
        assert_eq!(route[0], LinkId(Direction::West.index() as u32));
    }

    #[test]
    fn torus_tie_goes_east_and_south() {
        let t = Torus::new(4, 4);
        let a = t.node_at(0, 0);
        let b = t.node_at(0, 2); // exactly half the ring either way
        let mut route = Vec::new();
        t.for_each_route_link(a, b, |l| route.push(l));
        assert_eq!(route[0].direction(), Direction::East);
        let c = t.node_at(2, 0);
        route.clear();
        t.for_each_route_link(a, c, |l| route.push(l));
        assert_eq!(route[0].direction(), Direction::South);
    }

    #[test]
    fn torus_link_counts() {
        let t = Torus::new(4, 4);
        assert_eq!(t.links(), 64); // 4 links per node, all used
        assert_eq!(t.link_ids().len(), 64);
        let line = Torus::new(1, 4);
        assert_eq!(line.links(), 8); // one ring of 4, both ways
    }

    #[test]
    fn hypercube_routing_is_ecube() {
        let h = Hypercube::new(6);
        check_routing(&h.into());
        let a = NodeId(0b000000);
        let b = NodeId(0b101001);
        let mut route = Vec::new();
        h.for_each_route_link(a, b, |l| route.push(l));
        // LSB-first: dimension 0, then 3, then 5.
        assert_eq!(route.len(), 3);
        assert_eq!(route[0], LinkId(0)); // node 0, bit 0
        assert_eq!(route[1], LinkId(6 + 3)); // node 0b1, bit 3
        assert_eq!(route[2], LinkId(0b001001 * 6 + 5));
    }

    #[test]
    fn hypercube_neighbors_are_bit_flips() {
        let h = Hypercube::new(4);
        let n = h.neighbors(NodeId(0b0101));
        assert_eq!(n.len(), 4);
        for m in n {
            assert_eq!(h.distance(NodeId(0b0101), m), 1);
        }
    }

    #[test]
    fn fat_tree_distances_and_routes() {
        let ft = FatTree::new(16);
        check_routing(&ft.clone().into());
        // Sibling leaves meet at their parent switch: 2 hops.
        assert_eq!(ft.distance(NodeId(0), NodeId(1)), 2);
        // Opposite halves meet at the root: 2·levels hops.
        assert_eq!(ft.distance(NodeId(0), NodeId(15)), 2 * ft.levels() as usize);
        assert_eq!(ft.diameter(), 8);
    }

    #[test]
    fn fat_tree_edge_multiplicity_grows_towards_the_root() {
        let ft = FatTree::new(16);
        // Root children cover 8 leaves each → 4 parallel links; leaf edges
        // are single links.
        assert_eq!(ft.mult[2], 4);
        assert_eq!(ft.mult[3], 4);
        assert_eq!(ft.mult[16], 1);
        // Total: per root child 2·4, per depth-2 vertex 2·2, per depth-3
        // vertex 2·1, per leaf 2·1 = 16 + 16 + 16 + 32 = 80.
        assert_eq!(ft.links(), 80);
    }

    #[test]
    fn fat_tree_flows_spread_over_parallel_channels() {
        let ft = FatTree::new(16);
        // Distinct flows crossing the root must not all share one channel.
        let mut first_links = std::collections::HashSet::new();
        for a in 0..8u32 {
            let mut route = Vec::new();
            ft.for_each_route_link(NodeId(a), NodeId(15), |l| route.push(l));
            assert_eq!(route.len(), 8);
            first_links.insert(route[3]); // the up-edge into the root
        }
        assert!(
            first_links.len() > 1,
            "all flows collapsed onto one channel"
        );
    }

    #[test]
    fn names_and_grid_dims() {
        assert_eq!(AnyTopology::from(Mesh::new(2, 3)).name(), "mesh 2x3");
        assert_eq!(AnyTopology::from(Torus::new(4, 4)).name(), "torus 4x4");
        assert_eq!(AnyTopology::from(Hypercube::new(3)).name(), "hypercube-3");
        assert_eq!(AnyTopology::from(FatTree::new(8)).name(), "fat-tree-8");
        assert_eq!(
            AnyTopology::from(Torus::new(4, 6)).grid_dims(),
            Some((4, 6))
        );
        assert_eq!(AnyTopology::from(Hypercube::new(3)).grid_dims(), None);
        assert_eq!(AnyTopology::from(FatTree::new(8)).grid_dims(), None);
    }

    #[test]
    #[should_panic]
    fn fat_tree_rejects_non_power_of_two() {
        FatTree::new(12);
    }

    /// With no dead links the detour search must find routes of the default
    /// length; with the default route's links killed it must find an alive
    /// detour (or detect the partition), deterministically.
    fn check_avoiding(topo: &AnyTopology) {
        let n = topo.nodes();
        let slots = topo.link_slots();
        let probes: Vec<usize> = vec![0, 1, n / 3, n / 2, n - 1];
        for &a in &probes {
            for &b in &probes {
                let (a, b) = (NodeId(a as u32), NodeId(b as u32));
                let intact = topo
                    .route_links_avoiding(a, b, &|_| false)
                    .expect("intact network cannot be partitioned");
                assert_eq!(
                    intact.len(),
                    topo.distance(a, b),
                    "{} {a}->{b}",
                    topo.name()
                );
                // Kill the whole default route and ask for a detour.
                let mut dead = std::collections::HashSet::new();
                topo.for_each_route_link(a, b, |l| {
                    dead.insert(l);
                });
                if dead.is_empty() {
                    continue;
                }
                let detour = topo.route_links_avoiding(a, b, &|l| dead.contains(&l));
                if let Some(route) = &detour {
                    assert!(!route.is_empty());
                    assert!(route.iter().all(|l| !dead.contains(l)), "{}", topo.name());
                    assert!(route.iter().all(|l| l.index() < slots));
                    let again = topo.route_links_avoiding(a, b, &|l| dead.contains(&l));
                    assert_eq!(detour, again, "detours must be deterministic");
                }
            }
        }
    }

    #[test]
    fn detours_avoid_dead_links_on_every_topology() {
        check_avoiding(&Mesh::new(4, 6).into());
        check_avoiding(&Torus::new(4, 4).into());
        check_avoiding(&Hypercube::new(4).into());
        check_avoiding(&FatTree::new(16).into());
    }

    #[test]
    fn mesh_detour_walks_adjacent_links() {
        // Kill the first link of the default (0,0) -> (0,3) route; the BFS
        // detour must still be a chain of adjacent alive links ending at the
        // destination.
        let m = Mesh::new(4, 4);
        let (a, b) = (m.node_at(0, 0), m.node_at(0, 3));
        let killed = m.link(a, Direction::East);
        let route = m
            .route_links_avoiding(a, b, &|l| l == killed)
            .expect("a 4x4 mesh minus one link stays connected");
        let mut cur = a;
        for l in &route {
            assert_ne!(*l, killed);
            let (src, dst) = m.link_endpoints(*l);
            assert_eq!(src, cur);
            cur = dst;
        }
        assert_eq!(cur, b);
    }

    #[test]
    fn isolated_node_reports_partition() {
        let m = Mesh::new(2, 2);
        // Both out-links of node 0 dead: nothing is reachable from it.
        let dead = |l: LinkId| l.source() == NodeId(0);
        assert_eq!(m.route_links_avoiding(NodeId(0), NodeId(3), &dead), None);
        // The reverse direction still works (directed links die independently).
        assert!(m
            .route_links_avoiding(NodeId(3), NodeId(0), &dead)
            .is_some());
    }

    #[test]
    fn fat_tree_falls_back_to_alive_channels() {
        let ft = FatTree::new(16);
        let (a, b) = (NodeId(0), NodeId(15));
        let mut default_route = Vec::new();
        ft.for_each_route_link(a, b, |l| default_route.push(l));
        // Kill the default channels of the multi-channel edges (the two top
        // up-edges and the two top down-edges of the 8-link route); the
        // detour must fall back to a parallel channel on each.
        let switch_dead: std::collections::HashSet<LinkId> =
            default_route[2..=5].iter().copied().collect();
        let detour = ft
            .route_links_avoiding(a, b, &|l| switch_dead.contains(&l))
            .expect("parallel channels keep the fat tree connected");
        assert_eq!(detour.len(), default_route.len());
        assert!(detour.iter().all(|l| !switch_dead.contains(l)));
        // Killing a leaf's only up-link cuts it off.
        let leaf_dead = default_route[0];
        assert_eq!(ft.route_links_avoiding(a, b, &|l| l == leaf_dead), None);
    }
}
