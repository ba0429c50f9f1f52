//! Per-link traffic statistics and congestion.

use crate::{LinkId, Mesh};

/// Byte and message counters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LinkLoad {
    bytes: u64,
    msgs: u64,
}

/// Byte and message counters for every directed link of a mesh.
///
/// The *congestion* of an execution — the central metric of the paper — is
/// the maximum amount of data transmitted over any single link, available
/// here both in bytes ([`LinkStats::congestion_bytes`]) and in number of
/// messages ([`LinkStats::congestion_msgs`], the unit used by the Barnes-Hut
/// figures).
///
/// Both counters of a link share one entry so [`LinkStats::record`] — which
/// runs once per link crossing of every simulated message — touches a single
/// cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats {
    loads: Vec<LinkLoad>,
}

impl LinkStats {
    /// Create zeroed statistics for `mesh`.
    pub fn new(mesh: &Mesh) -> Self {
        Self::with_slots(mesh.link_slots())
    }

    /// Create zeroed statistics with the given number of directed-link
    /// slots ([`crate::AnyTopology::link_slots`] of the network in question).
    pub fn with_slots(slots: usize) -> Self {
        LinkStats {
            loads: vec![LinkLoad::default(); slots],
        }
    }

    /// Record one message of `bytes` bytes crossing `link`.
    #[inline]
    pub fn record(&mut self, link: LinkId, bytes: u64) {
        let load = &mut self.loads[link.index()];
        load.bytes += bytes;
        load.msgs += 1;
    }

    /// Bytes transmitted over `link` so far.
    #[cfg(test)]
    pub(crate) fn bytes_on(&self, link: LinkId) -> u64 {
        self.loads[link.index()].bytes
    }

    /// Messages transmitted over `link` so far.
    #[cfg(test)]
    pub(crate) fn msgs_on(&self, link: LinkId) -> u64 {
        self.loads[link.index()].msgs
    }

    /// Maximum bytes over any single link (congestion in bytes).
    pub fn congestion_bytes(&self) -> u64 {
        self.loads.iter().map(|l| l.bytes).max().unwrap_or(0)
    }

    /// Maximum messages over any single link (congestion in messages).
    pub fn congestion_msgs(&self) -> u64 {
        self.loads.iter().map(|l| l.msgs).max().unwrap_or(0)
    }

    /// Total bytes over all links (the "total communication load" of the
    /// earlier theoretical work the paper contrasts itself with).
    pub fn total_bytes(&self) -> u64 {
        self.loads.iter().map(|l| l.bytes).sum()
    }

    /// Total messages over all links.
    pub fn total_msgs(&self) -> u64 {
        self.loads.iter().map(|l| l.msgs).sum()
    }

    /// Add all counters of `other` into `self`.
    ///
    /// # Panics
    /// Panics if the two statistics belong to meshes of different sizes.
    pub fn merge(&mut self, other: &LinkStats) {
        assert_eq!(self.loads.len(), other.loads.len(), "mismatched meshes");
        for (a, b) in self.loads.iter_mut().zip(&other.loads) {
            a.bytes += b.bytes;
            a.msgs += b.msgs;
        }
    }

    /// Reset all counters to zero.
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.loads.iter_mut().for_each(|l| *l = LinkLoad::default());
    }

    /// A snapshot of the difference `self - earlier` (per-link), used for
    /// per-phase congestion measurements.
    ///
    /// # Panics
    /// Panics if `earlier` has more traffic than `self` on some link.
    #[cfg(test)]
    pub(crate) fn since(&self, earlier: &LinkStats) -> LinkStats {
        assert_eq!(self.loads.len(), earlier.loads.len(), "mismatched meshes");
        let loads = self
            .loads
            .iter()
            .zip(&earlier.loads)
            .map(|(a, b)| LinkLoad {
                bytes: a
                    .bytes
                    .checked_sub(b.bytes)
                    .expect("earlier snapshot has more traffic"),
                msgs: a
                    .msgs
                    .checked_sub(b.msgs)
                    .expect("earlier snapshot has more traffic"),
            })
            .collect();
        LinkStats { loads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;

    #[test]
    fn record_and_congestion() {
        let mesh = Mesh::square(3);
        let mut s = LinkStats::new(&mesh);
        let l1 = mesh.link(mesh.node_at(0, 0), Direction::East);
        let l2 = mesh.link(mesh.node_at(1, 1), Direction::South);
        s.record(l1, 100);
        s.record(l1, 50);
        s.record(l2, 120);
        assert_eq!(s.bytes_on(l1), 150);
        assert_eq!(s.msgs_on(l1), 2);
        assert_eq!(s.congestion_bytes(), 150);
        assert_eq!(s.congestion_msgs(), 2);
        assert_eq!(s.total_bytes(), 270);
        assert_eq!(s.total_msgs(), 3);
    }

    #[test]
    fn empty_stats() {
        let mesh = Mesh::square(2);
        let s = LinkStats::new(&mesh);
        assert_eq!(s.congestion_bytes(), 0);
        assert_eq!(s.congestion_msgs(), 0);
    }

    #[test]
    fn merge_and_reset() {
        let mesh = Mesh::square(2);
        let l = mesh.link(mesh.node_at(0, 0), Direction::East);
        let mut a = LinkStats::new(&mesh);
        let mut b = LinkStats::new(&mesh);
        a.record(l, 10);
        b.record(l, 5);
        a.merge(&b);
        assert_eq!(a.bytes_on(l), 15);
        assert_eq!(a.msgs_on(l), 2);
        a.reset();
        assert_eq!(a.total_bytes(), 0);
    }

    #[test]
    fn since_computes_phase_delta() {
        let mesh = Mesh::square(2);
        let l = mesh.link(mesh.node_at(0, 0), Direction::South);
        let mut s = LinkStats::new(&mesh);
        s.record(l, 10);
        let snap = s.clone();
        s.record(l, 30);
        let delta = s.since(&snap);
        assert_eq!(delta.bytes_on(l), 30);
        assert_eq!(delta.msgs_on(l), 1);
    }
}
