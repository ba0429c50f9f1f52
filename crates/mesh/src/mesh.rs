//! The 2-dimensional mesh and its dimension-order routing.

use crate::topology::bfs_route;
use crate::{Direction, LinkId, NodeId, Submesh};

/// A 2-dimensional mesh of `rows × cols` processors.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    rows: usize,
    cols: usize,
}

impl Mesh {
    /// Create a mesh with the given number of rows and columns.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        Mesh { rows, cols }
    }

    /// Create a square `side × side` mesh.
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

    /// Total number of processors.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of directed link *slots* (4 per node; edge slots unused).
    #[inline]
    pub fn link_slots(&self) -> usize {
        self.nodes() * 4
    }

    /// Number of directed links that actually exist in the mesh.
    #[inline]
    pub fn links(&self) -> usize {
        2 * (self.rows * (self.cols.saturating_sub(1)) + self.cols * (self.rows.saturating_sub(1)))
    }

    /// The whole mesh as a [`Submesh`].
    pub fn full(&self) -> Submesh {
        Submesh::new(0, 0, self.rows, self.cols)
    }

    /// Node id of the processor in row `r`, column `c`.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the mesh.
    #[inline]
    pub fn node_at(&self, r: usize, c: usize) -> NodeId {
        assert!(r < self.rows && c < self.cols, "coordinate out of range");
        NodeId((r * self.cols + c) as u32)
    }

    /// Row/column coordinate of a node.
    #[inline]
    pub fn coord(&self, n: NodeId) -> (usize, usize) {
        let i = n.index();
        debug_assert!(i < self.nodes());
        (i / self.cols, i % self.cols)
    }

    /// Whether `n` is a valid node of this mesh.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        n.index() < self.nodes()
    }

    /// The neighbour of `n` in direction `d`, if it exists.
    pub fn neighbor(&self, n: NodeId, d: Direction) -> Option<NodeId> {
        let (r, c) = self.coord(n);
        let (dr, dc) = d.delta();
        let nr = r as isize + dr;
        let nc = c as isize + dc;
        if nr < 0 || nc < 0 || nr as usize >= self.rows || nc as usize >= self.cols {
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

    /// The directed link connecting two *adjacent* nodes.
    ///
    /// # Panics
    /// Panics if the nodes are not orthogonal neighbours.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> LinkId {
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

    /// Manhattan (routing) distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ar, ac) = self.coord(a);
        let (br, bc) = self.coord(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    /// The sequence of nodes visited by a dimension-order route from `from` to
    /// `to`, inclusive of both endpoints. The route first fixes the column
    /// (moving east/west within the row), then the row (moving south/north).
    pub fn xy_path_nodes(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
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
    /// `from` to `to`. Empty when `from == to`.
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
    pub fn for_each_route_link<F: FnMut(LinkId)>(&self, from: NodeId, to: NodeId, mut f: F) {
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
        let cols = self.cols as u32;
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

    /// Short human-readable name, e.g. `mesh 8x8`.
    pub fn name(&self) -> String {
        format!("mesh {}x{}", self.rows, self.cols)
    }

    /// The orthogonal neighbours of `n`, in [`Direction::ALL`] order.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        Direction::ALL
            .into_iter()
            .filter_map(|d| self.neighbor(n, d))
            .collect()
    }

    /// Maximum routing distance between any two processors.
    pub fn diameter(&self) -> usize {
        self.rows - 1 + self.cols - 1
    }

    /// The shortest route from `from` to `to` over links for which `dead`
    /// is false (breadth-first search in [`Direction::ALL`] order), or
    /// `None` when every path is cut. See
    /// [`crate::AnyTopology::route_links_avoiding`].
    pub fn route_links_avoiding(
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
