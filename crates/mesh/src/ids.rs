//! Strongly typed identifiers for mesh nodes, links and directions.

/// Identifier of a processor (node) in a mesh.
///
/// Nodes are numbered in row-major order: the node in row `r` and column `c`
/// of an `rows × cols` mesh has id `r * cols + c`. This matches the processor
/// numbering the paper uses for the modified access-tree embedding and for the
/// bitonic-sorting wire assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a *directed* network link.
///
/// Every topology numbers its links densely from 0 (see
/// [`crate::AnyTopology::link_slots`]); what an id means depends on the
/// topology that issued it. On the mesh and torus it takes the grid's
/// dimensions to decode one (see [`crate::Mesh::link_origin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The four mesh directions.
///
/// "East"/"West" move along a row (change the column, i.e. dimension 1 of the
/// dimension-order routing); "South"/"North" move along a column (change the
/// row, dimension 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increasing column.
    East,
    /// Decreasing column.
    West,
    /// Increasing row.
    South,
    /// Decreasing row.
    North,
}

impl Direction {
    /// All four directions.
    pub(crate) const ALL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::South,
        Direction::North,
    ];

    /// Stable index of the direction in `0..4`: its block of a grid's link
    /// slots (see [`crate::Mesh::link_origin`]).
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::South => 2,
            Direction::North => 3,
        }
    }

    /// Inverse of [`Direction::index`].
    ///
    /// # Panics
    /// Panics if `i >= 4`.
    #[inline]
    pub(crate) fn from_index(i: usize) -> Direction {
        Self::ALL[i]
    }

    /// Row/column delta of a single step in this direction.
    #[inline]
    pub(crate) fn delta(self) -> (isize, isize) {
        match self {
            Direction::East => (0, 1),
            Direction::West => (0, -1),
            Direction::South => (1, 0),
            Direction::North => (-1, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId(17);
        assert_eq!(n.index(), 17);
        assert_eq!(NodeId::from(17usize), n);
        assert_eq!(n.to_string(), "n17");
    }

    #[test]
    fn direction_index_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn link_id_encodes_source_and_direction() {
        for mesh in [crate::Mesh::new(3, 5), crate::Mesh::torus(4, 2)] {
            for node in mesh.node_ids() {
                for d in Direction::ALL {
                    if mesh.neighbor(node, d).is_some() {
                        assert_eq!(mesh.link_origin(mesh.link(node, d)), (node, d));
                    }
                }
            }
        }
    }
}
