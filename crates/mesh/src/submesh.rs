//! Rectangular submeshes of a 2-D mesh.

use crate::{Mesh, NodeId};

/// A rectangular region of a mesh: rows `row0 .. row0+rows`, columns
/// `col0 .. col0+cols` (half-open on both axes).
///
/// Submeshes are the building blocks of the hierarchical mesh decomposition
/// (Section 2 of the paper): the mesh is recursively split along its longer
/// side into two halves of sizes `⌈m1/2⌉ × m2` and `⌊m1/2⌋ × m2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Submesh {
    /// First row of the region.
    pub row0: usize,
    /// First column of the region.
    pub col0: usize,
    /// Number of rows in the region.
    pub rows: usize,
    /// Number of columns in the region.
    pub cols: usize,
}

impl Submesh {
    /// Create a submesh. Dimensions must be positive.
    pub(crate) fn new(row0: usize, col0: usize, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "submesh dimensions must be positive");
        Submesh {
            row0,
            col0,
            rows,
            cols,
        }
    }

    /// Number of processors in the submesh.
    #[inline]
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether this submesh consists of a single processor.
    #[inline]
    pub(crate) fn is_single(&self) -> bool {
        self.size() == 1
    }

    /// Whether the coordinate `(r, c)` lies inside the submesh.
    #[inline]
    pub(crate) fn contains_coord(&self, r: usize, c: usize) -> bool {
        r >= self.row0 && r < self.row0 + self.rows && c >= self.col0 && c < self.col0 + self.cols
    }

    /// Whether node `n` of `mesh` lies inside the submesh.
    pub fn contains(&self, mesh: &Mesh, n: NodeId) -> bool {
        let (r, c) = mesh.coord(n);
        self.contains_coord(r, c)
    }

    /// Whether `other` is fully contained in `self`.
    #[cfg(test)]
    pub(crate) fn contains_submesh(&self, other: &Submesh) -> bool {
        other.row0 >= self.row0
            && other.col0 >= self.col0
            && other.row0 + other.rows <= self.row0 + self.rows
            && other.col0 + other.cols <= self.col0 + self.cols
    }

    /// Split the submesh into two halves along its longer side, the first
    /// half receiving `⌈m1/2⌉` of the `m1` lines, following the paper's
    /// decomposition rule. When both sides are equal the split is along the
    /// rows (the first dimension).
    ///
    /// Returns `None` if the submesh is a single processor.
    pub(crate) fn split(&self) -> Option<(Submesh, Submesh)> {
        if self.is_single() {
            return None;
        }
        if self.rows >= self.cols {
            let upper = self.rows.div_ceil(2);
            let lower = self.rows - upper;
            Some((
                Submesh::new(self.row0, self.col0, upper, self.cols),
                Submesh::new(self.row0 + upper, self.col0, lower, self.cols),
            ))
        } else {
            let left = self.cols.div_ceil(2);
            let right = self.cols - left;
            Some((
                Submesh::new(self.row0, self.col0, self.rows, left),
                Submesh::new(self.row0, self.col0 + left, self.rows, right),
            ))
        }
    }

    /// Iterator over the node ids of `mesh` inside this submesh, in row-major
    /// order relative to the submesh.
    #[cfg(test)]
    pub(crate) fn node_ids<'a>(&'a self, mesh: &'a Mesh) -> impl Iterator<Item = NodeId> + 'a {
        let s = *self;
        (0..s.rows)
            .flat_map(move |dr| (0..s.cols).map(move |dc| mesh.node_at(s.row0 + dr, s.col0 + dc)))
    }

    /// Node id of the processor in relative row `dr`, relative column `dc` of
    /// the submesh.
    pub(crate) fn node_at(&self, mesh: &Mesh, dr: usize, dc: usize) -> NodeId {
        assert!(
            dr < self.rows && dc < self.cols,
            "relative coordinate out of range"
        );
        mesh.node_at(self.row0 + dr, self.col0 + dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_halves_partition_the_submesh() {
        let s = Submesh::new(0, 0, 4, 3);
        let (a, b) = s.split().unwrap();
        assert_eq!(a, Submesh::new(0, 0, 2, 3));
        assert_eq!(b, Submesh::new(2, 0, 2, 3));
        assert_eq!(a.size() + b.size(), s.size());
        assert!(s.contains_submesh(&a));
        assert!(s.contains_submesh(&b));
    }

    #[test]
    fn split_prefers_longer_side_and_ceil_first() {
        let s = Submesh::new(1, 2, 3, 5);
        let (a, b) = s.split().unwrap();
        // cols is longer: split columns 5 -> 3 + 2
        assert_eq!(a, Submesh::new(1, 2, 3, 3));
        assert_eq!(b, Submesh::new(1, 5, 3, 2));
    }

    #[test]
    fn split_single_is_none() {
        assert!(Submesh::new(0, 0, 1, 1).split().is_none());
    }

    #[test]
    fn contains_and_node_ids_agree() {
        let m = Mesh::new(6, 6);
        let s = Submesh::new(2, 1, 3, 2);
        let inside: Vec<_> = s.node_ids(&m).collect();
        assert_eq!(inside.len(), s.size());
        for n in m.node_ids() {
            assert_eq!(inside.contains(&n), s.contains(&m, n));
        }
    }

    #[test]
    fn node_at_relative_coordinates() {
        let m = Mesh::new(8, 8);
        let s = Submesh::new(4, 2, 2, 3);
        assert_eq!(s.node_at(&m, 0, 0), m.node_at(4, 2));
        assert_eq!(s.node_at(&m, 1, 2), m.node_at(5, 4));
    }

    #[test]
    fn repeated_splits_reach_singletons() {
        // Every chain of splits terminates in single-processor submeshes and
        // preserves total size.
        fn total(s: Submesh) -> usize {
            match s.split() {
                None => {
                    assert!(s.is_single());
                    1
                }
                Some((a, b)) => total(a) + total(b),
            }
        }
        let s = Submesh::new(0, 0, 7, 5);
        assert_eq!(total(s), 35);
    }
}
