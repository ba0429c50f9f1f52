//! The networks beyond the 2-D grid, and the one interface over all of them.
//!
//! The paper defines the access-tree strategy for *arbitrary* networks via a
//! hierarchical decomposition, but its experiments only ever instantiate 2-D
//! meshes. Besides the torus (a [`Mesh`] with wraparound links, see
//! [`Mesh::torus`]) this module adds two further networks:
//!
//! * [`Hypercube`] — the binary hypercube with LSB-first e-cube routing.
//! * [`FatTree`] — a binary fat tree: processors at the leaves, switches
//!   inside, edge capacities growing towards the root (modelled as parallel
//!   physical links).
//!
//! [`AnyTopology`] — a closed enum over these and the [`Mesh`] —
//! is the interface the rest of the simulator uses: node/link enumeration,
//! deterministic routing (statically dispatched once per message),
//! pairwise distance, fault detours, and the row-major
//! [layout](AnyTopology::layout) the decomposition is built on. Each method
//! dispatches to the inherent method of the same name on the three types.
//! All answers are deterministic: the entire reproduction rests on runs
//! being bit-identical across hosts and thread counts.
//!
//! ## Link identifiers
//!
//! Every topology numbers its directed links densely from 0 and sizes the
//! per-link statistics via [`AnyTopology::link_slots`]. The mesh and torus
//! number each direction's links row by row or column by column (see
//! [`Mesh`]'s link numbering, decoded by [`Mesh::link_origin`]), so a
//! route's links come in runs of consecutive ids ([`Leg`]s); the hypercube
//! uses `dim·node + bit`; the fat tree numbers its switch-to-switch channels
//! sequentially at construction time.

use crate::{LinkId, Mesh, NodeId};
use std::ops::Range;

/// A run of links with consecutive ids that a route crosses in order: the
/// unit [`AnyTopology::for_each_leg`] describes a route in.
///
/// An ascending leg of `len` links from `first` crosses `first`,
/// `first + 1`, …; a descending one `first`, `first - 1`, …. A mesh route is
/// at most two legs and a torus route at most four; the hypercube and the
/// fat tree make every link a leg of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    lowest: u32,
    len: u32,
    ascending: bool,
}

impl Leg {
    /// `len ≥ 1` links from `first` upwards.
    #[inline]
    pub(crate) fn up(first: usize, len: usize) -> Leg {
        debug_assert!(len >= 1, "a leg crosses a link");
        Leg {
            lowest: first as u32,
            len: len as u32,
            ascending: true,
        }
    }

    /// `len ≥ 1` links from `first` downwards.
    #[inline]
    pub(crate) fn down(first: usize, len: usize) -> Leg {
        debug_assert!(len >= 1 && len <= first + 1, "a leg crosses a link");
        Leg {
            lowest: (first + 1 - len) as u32,
            len: len as u32,
            ascending: false,
        }
    }

    /// The ids the leg covers, lowest first.
    #[inline]
    pub fn ids(self) -> Range<usize> {
        self.lowest as usize..(self.lowest + self.len) as usize
    }

    /// Whether the route crosses [`Leg::ids`] lowest first (else highest
    /// first).
    #[inline]
    pub fn ascending(self) -> bool {
        self.ascending
    }

    /// The links of the leg, in the order the route crosses them.
    #[inline]
    pub fn links(self) -> impl Iterator<Item = LinkId> {
        let Leg {
            lowest,
            len,
            ascending,
        } = self;
        (0..len).map(move |k| {
            LinkId(if ascending {
                lowest + k
            } else {
                lowest + len - 1 - k
            })
        })
    }
}

/// The leg of the single link `l`.
impl From<LinkId> for Leg {
    #[inline]
    fn from(l: LinkId) -> Leg {
        Leg::up(l.index(), 1)
    }
}

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

    /// Call `f` for every directed link of the e-cube route from `from` to
    /// `to`, each as a leg of its own.
    #[inline]
    pub(crate) fn for_each_leg<F: FnMut(Leg)>(&self, from: NodeId, to: NodeId, mut f: F) {
        let mut cur = from.0;
        let diff = from.0 ^ to.0;
        for b in 0..self.dim {
            if diff >> b & 1 == 1 {
                f(Leg::from(LinkId(cur * self.dim + b)));
                cur ^= 1 << b;
            }
        }
    }

    /// Short human-readable name, e.g. `hypercube-6`.
    pub(crate) fn name(&self) -> String {
        format!("hypercube-{}", self.dim)
    }

    /// Number of processors.
    pub(crate) fn nodes(&self) -> usize {
        1usize << self.dim
    }

    /// Size of the directed-link index space (`dim` per node, all used).
    pub(crate) fn link_slots(&self) -> usize {
        self.nodes() * self.dim as usize
    }

    /// Number of directed links.
    pub(crate) fn links(&self) -> usize {
        self.link_slots()
    }

    /// All directed links.
    pub(crate) fn link_ids(&self) -> Vec<LinkId> {
        (0..self.link_slots() as u32).map(LinkId).collect()
    }

    /// The `dim` neighbours of `n`, one per flipped bit, lowest bit first.
    pub(crate) fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        (0..self.dim).map(|b| NodeId(n.0 ^ (1 << b))).collect()
    }

    /// Hamming distance between the two addresses.
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> usize {
        (a.0 ^ b.0).count_ones() as usize
    }

    /// Maximum routing distance between any two processors.
    pub(crate) fn diameter(&self) -> usize {
        self.dim as usize
    }

    /// Shortest alive route by breadth-first search (see
    /// [`AnyTopology::route_links_avoiding`]).
    pub(crate) fn route_links_avoiding(
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
/// (`FatTree::neighbors` is empty); decomposition regions are subtrees —
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

    /// Number of switch levels between a leaf and the root.
    #[cfg(test)]
    #[inline]
    pub(crate) fn levels(&self) -> u32 {
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

    /// Call `f` for every directed link of the route from `from` to `to`,
    /// each as a leg of its own: up-edges from `from`'s leaf to the LCA
    /// switch, then down-edges to `to`'s leaf.
    #[inline]
    pub(crate) fn for_each_leg<F: FnMut(Leg)>(&self, from: NodeId, to: NodeId, mut f: F) {
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
            f(Leg::from(LinkId(
                self.up_base[va] + Self::channel(from, to, self.mult[va]),
            )));
            down[nd] = vb;
            nd += 1;
            va /= 2;
            vb /= 2;
        }
        for &v in down[..nd].iter().rev() {
            f(Leg::from(LinkId(
                self.up_base[v] + self.mult[v] + Self::channel(from, to, self.mult[v]),
            )));
        }
    }

    /// Short human-readable name, e.g. `fat-tree-64`.
    pub(crate) fn name(&self) -> String {
        format!("fat-tree-{}", self.leaves)
    }

    /// Number of processors (the leaves).
    pub(crate) fn nodes(&self) -> usize {
        self.leaves
    }

    /// Size of the directed-link index space (every slot is a channel).
    pub(crate) fn link_slots(&self) -> usize {
        self.total_links as usize
    }

    /// Number of directed channels.
    pub(crate) fn links(&self) -> usize {
        self.total_links as usize
    }

    /// All directed channels.
    pub(crate) fn link_ids(&self) -> Vec<LinkId> {
        (0..self.total_links).map(LinkId).collect()
    }

    /// Always empty: an indirect topology, all links connect switches.
    pub(crate) fn neighbors(&self, _n: NodeId) -> Vec<NodeId> {
        Vec::new()
    }

    /// Number of links crossed by the route from `a` to `b`: one up- and
    /// one down-edge per level climbed to the LCA switch.
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> usize {
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
    pub(crate) fn route_links_avoiding(
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

/// A network of processors: a closed sum over the three provided topologies.
///
/// The configurations and the hot paths hold an `AnyTopology` (cheap to
/// clone, statically dispatched per message). It answers only
/// combinatorial questions — which links a message crosses, how many link
/// slots the statistics need, which row-major layout the decomposition
/// halves.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyTopology {
    /// The 2-D mesh or torus.
    Mesh(Mesh),
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
            AnyTopology::Hypercube($t) => $e,
            AnyTopology::FatTree($t) => $e,
        }
    };
}

impl AnyTopology {
    /// The underlying mesh or torus, when this topology is one.
    pub fn mesh(&self) -> Option<&Mesh> {
        match self {
            AnyTopology::Mesh(m) => Some(m),
            _ => None,
        }
    }

    /// Visit the deterministic route from `from` to `to` as [`Leg`]s, in
    /// route order; zero times when `from == to`. Used once per simulated
    /// message.
    #[inline]
    pub fn for_each_leg<F: FnMut(Leg)>(&self, from: NodeId, to: NodeId, f: F) {
        dispatch!(self, t => t.for_each_leg(from, to, f))
    }

    /// Visit every directed link crossed by the deterministic route from
    /// `from` to `to`, in order: [`AnyTopology::for_each_leg`], link by
    /// link.
    #[inline]
    pub fn for_each_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, mut f: F) {
        self.for_each_leg(from, to, |leg| leg.links().for_each(&mut f));
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
            AnyTopology::Hypercube(_) | AnyTopology::FatTree(_) => None,
        }
    }

    /// The row-major `(rows, cols)` layout the decomposition, the embedding
    /// and the barrier work on: [`AnyTopology::grid_dims`] for the mesh and
    /// the torus, the `1 × n` strip of node ids otherwise.
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
    use crate::Direction;

    /// The links of the route from `a` to `b`, in order.
    fn route(topo: &AnyTopology, a: NodeId, b: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        topo.for_each_route_link(a, b, |l| links.push(l));
        links
    }

    /// Routes must cross exactly `distance` links, stay within the link
    /// index space, and be deterministic; on a grid consecutive route links
    /// chain through `link_endpoints`. Networks of at most 16 nodes are
    /// checked over all pairs, which also pins `diameter` as the largest
    /// distance.
    fn check_routing(topo: &AnyTopology) {
        let n = topo.nodes();
        let slots = topo.link_slots();
        let probes: Vec<usize> = if n <= 16 {
            (0..n).collect()
        } else {
            vec![0, 1, n / 3, n / 2, n - 1]
        };
        let mut farthest = 0;
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
                if let Some(m) = topo.mesh() {
                    let mut cur = a;
                    for &l in &route {
                        let (src, dst) = m.link_endpoints(l);
                        assert_eq!(src, cur, "{} {a}->{b}: broken chain", topo.name());
                        cur = dst;
                    }
                    assert_eq!(cur, b, "{} {a}->{b}", topo.name());
                }
                farthest = farthest.max(route.len());
            }
        }
        if n <= 16 {
            assert_eq!(topo.diameter(), farthest, "{}", topo.name());
        }
    }

    #[test]
    fn mesh_routing_through_the_trait() {
        check_routing(&Mesh::new(4, 6).into());
    }

    #[test]
    fn torus_routing_takes_the_short_way_around() {
        let t = Mesh::torus(8, 8);
        check_routing(&t.clone().into());
        // Opposite corners: 2 hops on the torus (one wraparound step per
        // dimension), 14 on the mesh.
        let a = t.node_at(0, 0);
        let b = t.node_at(7, 7);
        assert_eq!(t.distance(a, b), 2);
        assert_eq!(Mesh::square(8).distance(a, b), 14);
        // One step west of the origin wraps to the last column.
        let c = t.node_at(0, 7);
        let route = route(&t.clone().into(), a, c);
        assert_eq!(route, [t.link(a, Direction::West)]);
    }

    #[test]
    fn torus_tie_goes_east_and_south() {
        let t = Mesh::torus(4, 4);
        let a = t.node_at(0, 0);
        let b = t.node_at(0, 2); // exactly half the ring either way
        let topo = AnyTopology::from(t.clone());
        assert_eq!(t.link_origin(route(&topo, a, b)[0]).1, Direction::East);
        let c = t.node_at(2, 0);
        assert_eq!(t.link_origin(route(&topo, a, c)[0]).1, Direction::South);
    }

    #[test]
    fn torus_link_counts() {
        let t = Mesh::torus(4, 4);
        assert_eq!(t.links(), 64); // 4 links per node, all used
        assert_eq!(t.link_ids().count(), 64);
    }

    /// Tori with a side of 1 or 2, which no figure runs: a side of 1 has no
    /// ring, a side of 2 reaches the same neighbour east and west over two
    /// distinct links.
    #[test]
    fn narrow_tori_count_links_and_route_within_their_diameter() {
        for (rows, cols, links) in [(1, 4, 8), (4, 1, 8), (2, 2, 16), (2, 3, 24), (3, 2, 24)] {
            let t = Mesh::torus(rows, cols);
            assert_eq!(t.links(), links, "{}", t.name());
            assert_eq!(t.link_ids().count(), links, "{}", t.name());
            for n in t.node_ids() {
                let nb = t.neighbors(n);
                let distinct: std::collections::HashSet<_> = nb.iter().collect();
                assert_eq!(distinct.len(), nb.len(), "{}: {n} has {nb:?}", t.name());
                // Each dimension of `len` lines adds min(len - 1, 2) nodes.
                assert_eq!(nb.len(), (rows - 1).min(2) + (cols - 1).min(2));
            }
            check_routing(&t.into());
        }
    }

    #[test]
    fn hypercube_routing_is_ecube() {
        let h = Hypercube::new(6);
        check_routing(&h.into());
        let a = NodeId(0b000000);
        let b = NodeId(0b101001);
        let route = route(&h.into(), a, b);
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
            let route = route(&ft.clone().into(), NodeId(a), NodeId(15));
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
        assert_eq!(AnyTopology::from(Mesh::torus(4, 4)).name(), "torus 4x4");
        assert_eq!(AnyTopology::from(Hypercube::new(3)).name(), "hypercube-3");
        assert_eq!(AnyTopology::from(FatTree::new(8)).name(), "fat-tree-8");
        assert_eq!(
            AnyTopology::from(Mesh::torus(4, 6)).grid_dims(),
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
        check_avoiding(&Mesh::torus(4, 4).into());
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
        let dead = |l: LinkId| m.link_origin(l).0 == NodeId(0);
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
        let default_route = route(&ft.clone().into(), a, b);
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
