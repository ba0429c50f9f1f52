//! A deterministic event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry of the event queue: ordered by time, ties broken by insertion
/// sequence number so that the simulation is fully deterministic.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One operation of a recorded queue trace (see [`EventQueue::record_trace`]).
///
/// Traces capture the exact push/pop interleaving (and push times) of a real
/// simulation, so the queue can be timed offline on genuine workloads
/// instead of synthetic ones — the host benchmark's `engine.queue_hold_ns`
/// kernel replays a Barnes-Hut (fig8) trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp {
    /// An event was scheduled at the given virtual time.
    Push(SimTime),
    /// The earliest event was removed.
    Pop,
}

/// A min-heap of timestamped events with deterministic FIFO tie-breaking.
///
/// Events scheduled at the same virtual time pop in the order they were
/// pushed, which (together with the deterministic request ordering of the
/// runtime) makes every simulation run bit-reproducible.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    /// Optional push/pop trace; `None` (the default) keeps the hot path to a
    /// single well-predicted branch per operation.
    trace: Option<Vec<QueueOp>>,
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` pending events before the
    /// backing storage has to grow. The coordinator pre-sizes its queue from
    /// the processor count so the first simulated microseconds (when every
    /// processor issues its opening requests at once) do not regrow the heap
    /// repeatedly.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            trace: None,
        }
    }

    /// Number of pending events the queue can hold without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Start recording every push/pop into a trace retrievable with
    /// [`EventQueue::take_trace`]. Recording costs one branch per operation
    /// plus the trace memory; it exists for offline queue benchmarking and is
    /// never enabled in experiments.
    pub fn record_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded trace (empty if recording was never enabled).
    pub fn take_trace(&mut self) -> Vec<QueueOp> {
        self.trace.take().unwrap_or_default()
    }

    /// Schedule `item` at virtual time `time`.
    pub fn push(&mut self, time: SimTime, item: T) {
        if let Some(trace) = &mut self.trace {
            trace.push(QueueOp::Push(time));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, item });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let popped = self.heap.pop().map(|e| (e.time, e.item));
        if popped.is_some() {
            if let Some(trace) = &mut self.trace {
                trace.push(QueueOp::Pop);
            }
        }
        popped
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 1);
        q.push(2, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn with_capacity_presizes() {
        let mut q: EventQueue<u8> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        // A pre-sized queue behaves like a fresh one.
        q.push(2, 2);
        q.push(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
    }

    #[test]
    fn trace_records_pushes_and_pops_in_order() {
        let mut q = EventQueue::new();
        q.push(9, 'x'); // before recording: not traced
        q.record_trace();
        q.push(5, 'a');
        q.push(3, 'b');
        q.pop();
        q.pop();
        q.pop();
        q.pop(); // empty pops are not traced
        assert_eq!(
            q.take_trace(),
            vec![
                QueueOp::Push(5),
                QueueOp::Push(3),
                QueueOp::Pop,
                QueueOp::Pop,
                QueueOp::Pop,
            ]
        );
        // Taking the trace stops recording.
        q.push(1, 'c');
        assert_eq!(q.take_trace(), Vec::new());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(5, 5);
        q.push(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        q.push(3, 3);
        q.push(2, 2);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 5)));
    }
}
