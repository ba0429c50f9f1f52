//! Per-variable transaction serialisation.

use super::{AccessKind, TxId};
use dm_mesh::NodeId;
use std::collections::VecDeque;

/// Serialises conflicting transactions on one variable.
///
/// Reads may proceed concurrently with each other; a write waits until all
/// outstanding transactions on the variable have completed and blocks any
/// later transaction until it completes itself (single-writer /
/// multiple-reader admission). The applications of the paper separate
/// conflicting accesses by barriers and locks, so queueing here is rare, but
/// the gate keeps the protocol state machines race-free in all cases.
///
/// The wait queue lives out of line: every variable carries a gate, few ever
/// queue, so an uncontended gate is 16 bytes and allocates nothing. The box
/// is allocated at the first contention and then kept, the way a `VecDeque`
/// keeps its capacity.
#[derive(Debug, Default)]
pub struct VarGate {
    readers: u32,
    writer_active: bool,
    queue: Option<Box<Queue>>,
}

/// Transactions waiting for admission, oldest first.
type Queue = VecDeque<(TxId, NodeId, AccessKind)>;

const _: () = assert!(std::mem::size_of::<VarGate>() == 16);

impl VarGate {
    /// Create an idle gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to admit a transaction. Returns `true` if it may start now;
    /// otherwise it is queued and will be returned by a later
    /// [`VarGate::release`].
    pub fn admit(&mut self, tx: TxId, proc: NodeId, kind: AccessKind) -> bool {
        let can_start = match kind {
            AccessKind::Read => !self.writer_active && self.queued() == 0,
            AccessKind::Write => !self.writer_active && self.readers == 0 && self.queued() == 0,
        };
        if can_start {
            match kind {
                AccessKind::Read => self.readers += 1,
                AccessKind::Write => self.writer_active = true,
            }
            true
        } else {
            self.queue
                .get_or_insert_with(Box::default)
                .push_back((tx, proc, kind));
            false
        }
    }

    /// Mark a previously admitted transaction of the given kind as finished.
    /// Returns the transactions that become runnable now (already accounted
    /// as admitted).
    pub fn release(&mut self, kind: AccessKind) -> Vec<(TxId, NodeId, AccessKind)> {
        match kind {
            AccessKind::Read => {
                debug_assert!(self.readers > 0, "release without admit");
                self.readers -= 1;
            }
            AccessKind::Write => {
                debug_assert!(self.writer_active, "release without admit");
                self.writer_active = false;
            }
        }
        let mut admitted = Vec::new();
        let Some(queue) = self.queue.as_deref_mut() else {
            return admitted;
        };
        while let Some(&(tx, proc, k)) = queue.front() {
            let can_start = match k {
                AccessKind::Read => !self.writer_active,
                AccessKind::Write => !self.writer_active && self.readers == 0,
            };
            if !can_start {
                break;
            }
            match k {
                AccessKind::Read => self.readers += 1,
                AccessKind::Write => self.writer_active = true,
            }
            queue.pop_front();
            admitted.push((tx, proc, k));
        }
        admitted
    }

    /// Number of transactions waiting in the queue.
    pub(crate) fn queued(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| q.len())
    }

    /// Whether no transaction is active or queued.
    pub fn is_idle(&self) -> bool {
        self.readers == 0 && !self.writer_active && self.queued() == 0
    }

    /// Heap bytes the wait queue holds (for footprint tests).
    #[cfg(test)]
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.queue.as_ref().map_or(0, |q| {
            size_of::<Queue>() + q.capacity() * size_of::<(TxId, NodeId, AccessKind)>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(i: u64) -> TxId {
        TxId(i)
    }
    fn p(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn concurrent_reads_are_admitted() {
        let mut g = VarGate::new();
        assert!(g.admit(tx(1), p(0), AccessKind::Read));
        assert!(g.admit(tx(2), p(1), AccessKind::Read));
        assert!(g.admit(tx(3), p(2), AccessKind::Read));
        assert_eq!(g.queued(), 0);
    }

    #[test]
    fn write_waits_for_readers() {
        let mut g = VarGate::new();
        assert!(g.admit(tx(1), p(0), AccessKind::Read));
        assert!(g.admit(tx(2), p(1), AccessKind::Read));
        assert!(!g.admit(tx(3), p(2), AccessKind::Write));
        assert!(g.release(AccessKind::Read).is_empty());
        let admitted = g.release(AccessKind::Read);
        assert_eq!(admitted, vec![(tx(3), p(2), AccessKind::Write)]);
    }

    #[test]
    fn reads_behind_a_queued_write_wait_their_turn() {
        let mut g = VarGate::new();
        assert!(g.admit(tx(1), p(0), AccessKind::Read));
        assert!(!g.admit(tx(2), p(1), AccessKind::Write));
        // A read arriving after a queued write must not overtake it.
        assert!(!g.admit(tx(3), p(2), AccessKind::Read));
        let after_read = g.release(AccessKind::Read);
        assert_eq!(after_read, vec![(tx(2), p(1), AccessKind::Write)]);
        let after_write = g.release(AccessKind::Write);
        assert_eq!(after_write, vec![(tx(3), p(2), AccessKind::Read)]);
        g.release(AccessKind::Read);
        assert!(g.is_idle());
    }

    #[test]
    fn writes_are_mutually_exclusive() {
        let mut g = VarGate::new();
        assert!(g.admit(tx(1), p(0), AccessKind::Write));
        assert!(!g.admit(tx(2), p(1), AccessKind::Write));
        let admitted = g.release(AccessKind::Write);
        assert_eq!(admitted, vec![(tx(2), p(1), AccessKind::Write)]);
    }

    #[test]
    fn release_admits_multiple_reads_at_once() {
        let mut g = VarGate::new();
        assert!(g.admit(tx(1), p(0), AccessKind::Write));
        assert!(!g.admit(tx(2), p(1), AccessKind::Read));
        assert!(!g.admit(tx(3), p(2), AccessKind::Read));
        let admitted = g.release(AccessKind::Write);
        assert_eq!(admitted.len(), 2);
        assert!(admitted.iter().all(|&(_, _, k)| k == AccessKind::Read));
    }

    #[test]
    fn an_uncontended_gate_never_allocates_its_queue() {
        let mut g = VarGate::new();
        for i in 0..4 {
            assert!(g.admit(tx(2 * i), p(0), AccessKind::Read));
            assert!(g.admit(tx(2 * i + 1), p(1), AccessKind::Read));
            assert!(g.release(AccessKind::Read).is_empty());
            assert!(g.release(AccessKind::Read).is_empty());
            assert!(g.admit(tx(9), p(2), AccessKind::Write));
            assert!(g.release(AccessKind::Write).is_empty());
        }
        assert!(g.is_idle());
        assert!(g.queue.is_none());
    }

    #[test]
    fn a_drained_queue_is_kept_and_reused() {
        let mut g = VarGate::new();
        assert!(g.admit(tx(1), p(0), AccessKind::Write));
        assert!(!g.admit(tx(2), p(1), AccessKind::Write));
        let first: *const Queue = &**g.queue.as_ref().unwrap();
        assert_eq!(g.release(AccessKind::Write).len(), 1);
        assert_eq!(g.queued(), 0);
        // Contended again: the same box takes the waiter.
        assert!(!g.admit(tx(3), p(2), AccessKind::Read));
        assert_eq!(g.queued(), 1);
        assert!(std::ptr::eq(first, &**g.queue.as_ref().unwrap()));
        assert_eq!(
            g.release(AccessKind::Write),
            vec![(tx(3), p(2), AccessKind::Read)]
        );
        g.release(AccessKind::Read);
        assert!(g.is_idle());
        assert!(g.queue.is_some());
    }

    #[test]
    fn the_benchmark_cycle_ends_idle() {
        // A write admitted, a read queued behind it, both released.
        let mut g = VarGate::new();
        for i in 0..3 {
            assert!(g.admit(tx(i), p(0), AccessKind::Write));
            assert!(!g.admit(tx(i), p(0), AccessKind::Read));
            assert_eq!(
                g.release(AccessKind::Write),
                vec![(tx(i), p(0), AccessKind::Read)]
            );
            assert!(g.release(AccessKind::Read).is_empty());
            assert!(g.is_idle());
        }
    }
}
