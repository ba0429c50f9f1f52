//! The 2-dimensional mesh and torus and their dimension-order routing.

use crate::topology::{bfs_route, Leg};
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
///
/// ## Link numbering
///
/// The link slots form four blocks of `n = rows·cols`, one per direction,
/// and each block numbers its links line by line: east and west links
/// row-major (`r·cols + c`), south and north links column-major
/// (`c·rows + r`), from the node the link leaves. So the links of a row or
/// column in one direction have consecutive ids, and a dimension-order route
/// is at most two runs of consecutive ids ([`Leg`]s), four on a torus, where
/// a ring's wraparound link starts a new run. A mesh's slots that would
/// leave the grid are never used.
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
    /// `u32::MAX / 4` nodes (its four link slots per node have `u32` ids).
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
            rows * cols <= (u32::MAX / 4) as usize,
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
    /// unused; see [Link numbering](Mesh#link-numbering)).
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

    /// The id of the link leaving the node at `(r, c)` in direction `d`, in
    /// the grid's [link numbering](Mesh#link-numbering): a slot in block
    /// [`Direction::index`]. Along a row (east, west) or a column (south,
    /// north) one direction's ids are consecutive, so the link at position
    /// `p` of a line is the line's position-0 link plus `p`.
    #[inline]
    fn link_at(&self, r: usize, c: usize, d: Direction) -> LinkId {
        let pos = match d {
            Direction::East | Direction::West => r * self.cols() + c,
            Direction::South | Direction::North => c * self.rows() + r,
        };
        LinkId((d.index() * self.nodes() + pos) as u32)
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
        let (r, c) = self.coord(n);
        self.link_at(r, c, d)
    }

    /// The node a link leaves and its direction: the inverse of
    /// [`Mesh::link`].
    ///
    /// # Panics
    /// Panics if `l` is not a link slot of this grid.
    pub fn link_origin(&self, l: LinkId) -> (NodeId, Direction) {
        let (n, rows, cols) = (self.nodes(), self.rows(), self.cols());
        assert!(l.index() < 4 * n, "link {} outside the grid", l.0);
        let (d, pos) = (Direction::from_index(l.index() / n), l.index() % n);
        let node = match d {
            Direction::East | Direction::West => pos,
            Direction::South | Direction::North => (pos % rows) * cols + pos / rows,
        };
        (NodeId(node as u32), d)
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
        let (src, d) = self.link_origin(l);
        let dst = self
            .neighbor(src, d)
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

    /// Call `f` for every [`Leg`] of the dimension-order route from `from`
    /// to `to`, in route order: the row's leg, then the column's, each split
    /// in two where a torus ring wraps. No call when `from == to`.
    ///
    /// This runs once per simulated message, so the legs come straight from
    /// the coordinates; the route stays inside the grid by construction.
    #[inline]
    pub(crate) fn for_each_leg<F: FnMut(Leg)>(&self, from: NodeId, to: NodeId, mut f: F) {
        let (fr, fc) = self.coord(from);
        let (tr, tc) = self.coord(to);
        // Dimension 1 along row `fr`, then dimension 2 along column `tc`.
        let row = [Direction::East, Direction::West].map(|d| self.link_at(fr, 0, d));
        self.line_legs(fc, tc, self.cols(), row, &mut f);
        let col = [Direction::South, Direction::North].map(|d| self.link_at(0, tc, d));
        self.line_legs(fr, tr, self.rows(), col, &mut f);
    }

    /// The legs of one dimension's move from position `a` to `b` of a line
    /// of `len` nodes whose forward and backward links at position 0 are
    /// `base`: forward (east, south) when the target lies ahead, on a torus
    /// when ahead is the shorter way round, ties forward.
    #[inline]
    fn line_legs<F: FnMut(Leg)>(
        &self,
        a: usize,
        b: usize,
        len: usize,
        base: [LinkId; 2],
        f: &mut F,
    ) {
        if a == b {
            return;
        }
        let (forward, steps) = if self.wrap {
            let ahead = (b + len - a) % len;
            (ahead <= len - ahead, ahead.min(len - ahead))
        } else {
            (a < b, a.abs_diff(b))
        };
        // Only a torus route runs past the end of its line and goes on from
        // the other end.
        if forward {
            let run = steps.min(len - a);
            f(Leg::up(base[0].index() + a, run));
            if run < steps {
                f(Leg::up(base[0].index(), steps - run));
            }
        } else {
            let run = steps.min(a + 1);
            f(Leg::down(base[1].index() + a, run));
            if run < steps {
                f(Leg::down(base[1].index() + len - 1, steps - run));
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
            let (r, c) = self.coord(v);
            for d in Direction::ALL {
                if let Some(nb) = self.neighbor(v, d) {
                    f(self.link_at(r, c, d), nb);
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
        let topo = crate::AnyTopology::from(m.clone());
        for a in m.node_ids() {
            for b in [m.node_at(0, 0), m.node_at(5, 3), m.node_at(2, 2)] {
                let mut collected = Vec::new();
                topo.for_each_route_link(a, b, |l| collected.push(l));
                assert_eq!(collected, m.xy_route(a, b));
                let mut legs = 0;
                m.for_each_leg(a, b, |_| legs += 1);
                assert!(legs <= 2, "{a}->{b}: {legs} legs");
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
