//! The 2-dimensional mesh and torus and their dimension-order routing.

use crate::topology::bfs_route;
use crate::{Direction, LinkId, NodeId, Submesh};

/// A 2-dimensional grid of `rows × cols` processors: the mesh, or with
/// wraparound links the torus.
///
/// Nodes are numbered in row-major order. Neighbouring nodes are connected by
/// a pair of directed links (one per direction), matching the paper's
/// observation that the GCel achieves full bandwidth in both directions of a
/// link independently.
///
/// Routing follows the *dimension-by-dimension order* used by the GCel's
/// wormhole router and assumed in the theoretical analysis: a message first
/// travels along its row (dimension 1, changing the column) and then along the
/// column (dimension 2, changing the row).
///
/// A torus ([`Mesh::torus`]) adds the wraparound link of every row and column
/// of at least two lines, so all four link slots of a node exist whenever
/// the corresponding dimension has them. Its route is still dimension-order
/// but takes the shorter way around each ring; ties (exactly half the ring)
/// go east/south. The hierarchical decomposition reuses the mesh's rectangle
/// splits — a contiguous rectangle of a torus is connected through its
/// internal mesh links — so only routing (and therefore congestion and
/// timing) tells a torus from a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    rows: u32,
    cols: u32,
    wrap: bool,
}

// Every topology and decomposition tree holds a grid by value: the wrap flag
// must not grow it past two words.
const _: () = assert!(std::mem::size_of::<Mesh>() <= 16);

impl Mesh {
    /// Create a mesh with the given number of rows and columns.
    ///
    /// # Panics
    /// Panics if either dimension is zero or the grid has more than
    /// `u32::MAX` nodes.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::grid(rows, cols, false)
    }

    /// Create a square `side × side` mesh.
    pub fn square(side: usize) -> Self {
        Self::new(side, side)
    }

    /// Create a torus: a mesh with wraparound links in both dimensions.
    ///
    /// # Panics
    /// As [`Mesh::new`].
    pub fn torus(rows: usize, cols: usize) -> Self {
        Self::grid(rows, cols, true)
    }

    fn grid(rows: usize, cols: usize, wrap: bool) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        assert!(
            rows * cols <= u32::MAX as usize,
            "grid {rows}x{cols} out of range"
        );
        Mesh {
            rows: rows as u32,
            cols: cols as u32,
            wrap,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols as usize
    }

    /// Total number of processors.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Number of directed link *slots* (4 per node; a mesh's edge slots are
    /// unused).
    #[inline]
    pub(crate) fn link_slots(&self) -> usize {
        self.nodes() * 4
    }

    /// Number of directed links that actually exist.
    #[inline]
    pub(crate) fn links(&self) -> usize {
        // Links of one line of `len` nodes, one direction: a ring of two or
        // more nodes closes, a path does not.
        let line = |len: usize| match (self.wrap, len) {
            (true, 1) => 0,
            (true, _) => len,
            (false, _) => len - 1,
        };
        2 * (self.rows() * line(self.cols()) + self.cols() * line(self.rows()))
    }

    /// The whole mesh as a [`Submesh`].
    pub fn full(&self) -> Submesh {
        Submesh::new(0, 0, self.rows(), self.cols())
    }

    /// Node id of the processor in row `r`, column `c`.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the mesh.
    #[inline]
    pub fn node_at(&self, r: usize, c: usize) -> NodeId {
        assert!(
            r < self.rows() && c < self.cols(),
            "coordinate out of range"
        );
        NodeId((r * self.cols() + c) as u32)
    }

    /// Row/column coordinate of a node.
    #[inline]
    pub fn coord(&self, n: NodeId) -> (usize, usize) {
        let i = n.index();
        debug_assert!(i < self.nodes());
        (i / self.cols(), i % self.cols())
    }

    /// The neighbour of `n` in direction `d`, if it exists. On a torus a
    /// step off the grid wraps around when that dimension has at least two
    /// lines.
    pub(crate) fn neighbor(&self, n: NodeId, d: Direction) -> Option<NodeId> {
        let (r, c) = self.coord(n);
        let (dr, dc) = d.delta();
        let (rows, cols) = (self.rows() as isize, self.cols() as isize);
        let (mut nr, mut nc) = (r as isize + dr, c as isize + dc);
        if self.wrap && (if dr == 0 { cols } else { rows }) >= 2 {
            nr = nr.rem_euclid(rows);
            nc = nc.rem_euclid(cols);
        }
        if nr < 0 || nc < 0 || nr >= rows || nc >= cols {
            None
        } else {
            Some(self.node_at(nr as usize, nc as usize))
        }
    }

    /// The directed link leaving node `n` in direction `d`.
    ///
    /// # Panics
    /// Panics if there is no neighbour in that direction.
    pub fn link(&self, n: NodeId, d: Direction) -> LinkId {
        assert!(
            self.neighbor(n, d).is_some(),
            "no link from {n} in direction {d:?}"
        );
        LinkId(n.0 * 4 + d.index() as u32)
    }

    /// The directed link connecting two *adjacent* nodes of a mesh.
    ///
    /// # Panics
    /// Panics if the nodes are not orthogonal neighbours.
    fn link_between(&self, from: NodeId, to: NodeId) -> LinkId {
        let (fr, fc) = self.coord(from);
        let (tr, tc) = self.coord(to);
        let d = match (tr as isize - fr as isize, tc as isize - fc as isize) {
            (0, 1) => Direction::East,
            (0, -1) => Direction::West,
            (1, 0) => Direction::South,
            (-1, 0) => Direction::North,
            _ => panic!("nodes {from} and {to} are not adjacent"),
        };
        self.link(from, d)
    }

    /// The two endpoints `(source, target)` of a directed link.
    pub fn link_endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        let src = l.source();
        let dst = self
            .neighbor(src, l.direction())
            .expect("link id does not correspond to an existing link");
        (src, dst)
    }

    /// Routing distance between two nodes: the Manhattan distance, on a
    /// torus with the shorter way around each ring.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ar, ac) = self.coord(a);
        let (br, bc) = self.coord(b);
        let line = |len: usize, x: usize, y: usize| {
            let d = x.abs_diff(y);
            if self.wrap {
                d.min(len - d)
            } else {
                d
            }
        };
        line(self.rows(), ar, br) + line(self.cols(), ac, bc)
    }

    /// The sequence of nodes visited by a dimension-order route from `from` to
    /// `to` on a mesh, inclusive of both endpoints. The route first fixes the
    /// column (moving east/west within the row), then the row (moving
    /// south/north).
    ///
    /// # Panics
    /// Panics on a torus: this is the mesh route's reference form.
    pub(crate) fn xy_path_nodes(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        assert!(!self.wrap, "xy_path_nodes is the mesh route");
        let (fr, fc) = self.coord(from);
        let (tr, tc) = self.coord(to);
        let mut path = Vec::with_capacity(self.distance(from, to) + 1);
        path.push(from);
        let mut c = fc;
        while c != tc {
            if c < tc {
                c += 1;
            } else {
                c -= 1;
            }
            path.push(self.node_at(fr, c));
        }
        let mut r = fr;
        while r != tr {
            if r < tr {
                r += 1;
            } else {
                r -= 1;
            }
            path.push(self.node_at(r, tc));
        }
        path
    }

    /// The sequence of directed links crossed by a dimension-order route from
    /// `from` to `to` on a mesh. Empty when `from == to`.
    ///
    /// # Panics
    /// Panics on a torus, as `Mesh::xy_path_nodes`.
    pub fn xy_route(&self, from: NodeId, to: NodeId) -> Vec<LinkId> {
        let nodes = self.xy_path_nodes(from, to);
        nodes
            .windows(2)
            .map(|w| self.link_between(w[0], w[1]))
            .collect()
    }

    /// Call `f` for every directed link crossed by the dimension-order route
    /// from `from` to `to`, without allocating the route.
    ///
    /// This runs once per link crossing of every simulated message, so the
    /// link ids are computed directly from the walking node id (id
    /// arithmetic instead of the checked [`Mesh::link`] / [`Mesh::node_at`]
    /// path) — the route stays inside the mesh by construction.
    pub(crate) fn for_each_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, mut f: F) {
        if self.wrap {
            return self.for_each_ring_route_link(from, to, f);
        }
        let (fr, fc) = self.coord(from);
        let (tr, tc) = self.coord(to);
        let mut cur = from.0;
        let mut c = fc;
        while c != tc {
            let d = if c < tc {
                Direction::East
            } else {
                Direction::West
            };
            f(LinkId(cur * 4 + d.index() as u32));
            if c < tc {
                c += 1;
                cur += 1;
            } else {
                c -= 1;
                cur -= 1;
            }
        }
        let cols = self.cols;
        let mut r = fr;
        while r != tr {
            let d = if r < tr {
                Direction::South
            } else {
                Direction::North
            };
            f(LinkId(cur * 4 + d.index() as u32));
            if r < tr {
                r += 1;
                cur += cols;
            } else {
                r -= 1;
                cur -= cols;
            }
        }
    }

    /// The torus route: dimension-order, the shorter way around each ring,
    /// ties east/south.
    fn for_each_ring_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, mut f: F) {
        let (fr, fc) = self.coord(from);
        let (tr, tc) = self.coord(to);
        let (rows, cols) = (self.rows(), self.cols());
        // Dimension 1: move along the row ring at row `fr`.
        let mut c = fc;
        if fc != tc {
            let fwd = (tc + cols - fc) % cols;
            let east = fwd <= cols - fwd; // tie → east
            let d = if east {
                Direction::East
            } else {
                Direction::West
            };
            for _ in 0..fwd.min(cols - fwd) {
                f(LinkId((fr * cols + c) as u32 * 4 + d.index() as u32));
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
            let d = if south {
                Direction::South
            } else {
                Direction::North
            };
            for _ in 0..fwd.min(rows - fwd) {
                f(LinkId((r * cols + tc) as u32 * 4 + d.index() as u32));
                r = if south {
                    (r + 1) % rows
                } else {
                    (r + rows - 1) % rows
                };
            }
        }
    }

    /// Iterator over all node ids of the mesh, in row-major order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes()).map(|i| NodeId(i as u32))
    }

    /// Iterator over all existing directed links of the mesh.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.node_ids().flat_map(move |n| {
            Direction::ALL
                .into_iter()
                .filter(move |&d| self.neighbor(n, d).is_some())
                .map(move |d| self.link(n, d))
        })
    }

    /// Short human-readable name, e.g. `mesh 8x8` or `torus 8x8`.
    pub(crate) fn name(&self) -> String {
        let kind = if self.wrap { "torus" } else { "mesh" };
        format!("{kind} {}x{}", self.rows, self.cols)
    }

    /// The distinct orthogonal neighbours of `n`, in [`Direction::ALL`]
    /// order (on a torus with a side of 2, east and west are one node).
    pub(crate) fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(4);
        for m in Direction::ALL
            .into_iter()
            .filter_map(|d| self.neighbor(n, d))
        {
            if !out.contains(&m) {
                out.push(m);
            }
        }
        out
    }

    /// Maximum routing distance between any two processors.
    pub(crate) fn diameter(&self) -> usize {
        if self.wrap {
            self.rows() / 2 + self.cols() / 2
        } else {
            self.rows() - 1 + self.cols() - 1
        }
    }

    /// The shortest route from `from` to `to` over links for which `dead`
    /// is false (breadth-first search in [`Direction::ALL`] order), or
    /// `None` when every path is cut. See
    /// [`crate::AnyTopology::route_links_avoiding`].
    pub(crate) fn route_links_avoiding(
        &self,
        from: NodeId,
        to: NodeId,
        dead: &dyn Fn(LinkId) -> bool,
    ) -> Option<Vec<LinkId>> {
        bfs_route(self.nodes(), from, to, dead, &|v, f| {
            for d in Direction::ALL {
                if let Some(nb) = self.neighbor(v, d) {
                    f(LinkId(v.0 * 4 + d.index() as u32), nb);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinates_roundtrip() {
        let m = Mesh::new(4, 7);
        for r in 0..4 {
            for c in 0..7 {
                let n = m.node_at(r, c);
                assert_eq!(m.coord(n), (r, c));
            }
        }
        assert_eq!(m.nodes(), 28);
    }

    #[test]
    fn link_count_formula() {
        let m = Mesh::new(4, 3);
        // horizontal: 4 rows * 2 pairs * 2 directions = 16
        // vertical:   3 cols * 3 pairs * 2 directions = 18
        assert_eq!(m.links(), 34);
        assert_eq!(m.link_ids().count(), 34);
    }

    #[test]
    fn single_node_mesh_has_no_links() {
        let m = Mesh::new(1, 1);
        assert_eq!(m.links(), 0);
        assert_eq!(m.link_ids().count(), 0);
        assert_eq!(m.xy_route(NodeId(0), NodeId(0)).len(), 0);
    }

    #[test]
    fn neighbors_at_boundary() {
        let m = Mesh::new(3, 3);
        let corner = m.node_at(0, 0);
        assert_eq!(m.neighbor(corner, Direction::North), None);
        assert_eq!(m.neighbor(corner, Direction::West), None);
        assert_eq!(m.neighbor(corner, Direction::East), Some(m.node_at(0, 1)));
        assert_eq!(m.neighbor(corner, Direction::South), Some(m.node_at(1, 0)));
    }

    #[test]
    fn xy_route_goes_column_first_then_row() {
        let m = Mesh::new(4, 4);
        let from = m.node_at(3, 0);
        let to = m.node_at(0, 2);
        let nodes = m.xy_path_nodes(from, to);
        assert_eq!(
            nodes,
            vec![
                m.node_at(3, 0),
                m.node_at(3, 1),
                m.node_at(3, 2),
                m.node_at(2, 2),
                m.node_at(1, 2),
                m.node_at(0, 2),
            ]
        );
        assert_eq!(m.xy_route(from, to).len(), m.distance(from, to));
    }

    #[test]
    fn route_links_are_consecutive() {
        let m = Mesh::new(5, 6);
        let from = m.node_at(4, 5);
        let to = m.node_at(0, 0);
        let links = m.xy_route(from, to);
        let mut cur = from;
        for l in &links {
            let (src, dst) = m.link_endpoints(*l);
            assert_eq!(src, cur);
            assert_eq!(m.distance(src, dst), 1);
            cur = dst;
        }
        assert_eq!(cur, to);
    }

    #[test]
    fn for_each_route_link_matches_xy_route() {
        let m = Mesh::new(6, 4);
        for a in m.node_ids() {
            for b in [m.node_at(0, 0), m.node_at(5, 3), m.node_at(2, 2)] {
                let mut collected = Vec::new();
                m.for_each_route_link(a, b, |l| collected.push(l));
                assert_eq!(collected, m.xy_route(a, b));
            }
        }
    }

    #[test]
    fn link_between_panics_for_non_neighbors() {
        let m = Mesh::new(3, 3);
        let r = std::panic::catch_unwind(|| m.link_between(m.node_at(0, 0), m.node_at(2, 2)));
        assert!(r.is_err());
    }

    #[test]
    fn distance_is_symmetric_and_triangle() {
        let m = Mesh::new(4, 5);
        let nodes: Vec<_> = m.node_ids().collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(m.distance(a, b), m.distance(b, a));
                assert_eq!(m.xy_route(a, b).len(), m.distance(a, b));
            }
        }
    }
}
