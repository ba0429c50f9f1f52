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
/// [`crate::AnyTopology::link_slots`]). On the mesh and torus every node owns
/// four link slots, one per [`Direction`]: the link leaving node `n` in
/// direction `d` has id `4 * n + d`. Mesh slots that would leave the grid
/// (e.g. the eastern link of the last column) are never used, which wastes a
/// few indices but keeps the mapping trivially invertible.
/// `LinkId::source` and [`LinkId::direction`] decode this 4-slot grid
/// encoding and are meaningless for hypercube / fat-tree link ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The node this directed link leaves from.
    #[inline]
    pub(crate) fn source(self) -> NodeId {
        NodeId(self.0 / 4)
    }

    /// The direction this link points in.
    #[inline]
    pub fn direction(self) -> Direction {
        Direction::from_index((self.0 % 4) as usize)
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}→{:?}", self.source(), self.direction())
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

    /// Stable index of the direction in `0..4` (used in [`LinkId`] encoding).
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
        for node in 0..10u32 {
            for d in Direction::ALL {
                let l = LinkId(node * 4 + d.index() as u32);
                assert_eq!(l.source(), NodeId(node));
                assert_eq!(l.direction(), d);
            }
        }
    }
}
