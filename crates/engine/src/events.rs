//! A deterministic event queue: a calendar of time buckets (Brown, CACM
//! 1988).
//!
//! Pops come out in exactly the order of a binary heap keyed by
//! `(time, insertion seq)`, without a sequence number per event:
//!
//! * Time is cut into buckets `2^BUCKET_SHIFT` ns wide; bucket `b` lives in
//!   slot `b % SLOTS` of a ring, one lap of which is `SLOTS` buckets. A
//!   slot's list is sorted by time, and a push goes after every entry whose
//!   time is ≤ its own, so equal times keep their push order. All pending
//!   events of one time share a slot, so that order is the whole order.
//! * The current bucket only moves forward, to the earliest pending one.
//!   Events a lap or more ahead share their slot with nearer ones and sort
//!   after them; the slot is marked *lapped*, and a lapped slot whose head is
//!   not in the bucket being looked for is passed over. With no event within
//!   a lap, the queue jumps to the earliest head.
//! * A push before the current bucket goes, in sorted order, into the
//!   current bucket's slot, whose entries are the earliest pending ones.

use crate::time::SimTime;

/// A bucket is `2^BUCKET_SHIFT` ns wide: 8.192 µs.
const BUCKET_SHIFT: u32 = 13;
/// Slots in the ring: one lap covers 2 048 × 8.192 µs ≈ 16.8 ms, past the
/// p99 lead time of the serving and Barnes-Hut workloads.
const SLOTS: usize = 2048;
/// No node: an empty slot, or the end of the free list.
const NIL: u32 = u32::MAX;

/// A pending event, or a free entry of the slab.
struct Node<T> {
    time: SimTime,
    /// The next node of its slot's list (the tail points back to the head)
    /// or of the free list.
    next: u32,
    /// `None` on the free list.
    item: Option<T>,
}

/// A calendar queue of timestamped events with deterministic FIFO
/// tie-breaking (see the module docs).
///
/// Events scheduled at the same virtual time pop in the order they were
/// pushed, which (together with the deterministic request ordering of the
/// runtime) makes every simulation run bit-reproducible.
pub struct EventQueue<T> {
    /// Every node, pending or free.
    nodes: Vec<Node<T>>,
    /// Head of the free list.
    free: u32,
    /// The tail of each slot's circular list, or `NIL`.
    tails: Box<[u32; SLOTS]>,
    /// One bit per non-empty slot.
    occupied: [u64; SLOTS / 64],
    /// One bit per slot that took an event a lap or more ahead since it was
    /// last empty: only these slots can hold a head past its lap.
    lapped: [u64; SLOTS / 64],
    /// The current bucket, as `time >> BUCKET_SHIFT`. No pending event is
    /// in an earlier one, except pushes into the past, which sit in its slot.
    cur: u64,
    len: usize,
}

impl<T> EventQueue<T> {
    /// Bytes of one slab node holding a `T`: what a pending event costs.
    pub const NODE_BYTES: usize = std::mem::size_of::<Node<T>>();

    /// Create an empty queue.
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` pending events before the
    /// backing storage has to grow. The coordinator pre-sizes its queue from
    /// the processor count so the first simulated microseconds (when every
    /// processor issues its opening requests at once) do not regrow the slab
    /// repeatedly.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(cap),
            free: NIL,
            tails: Box::new([NIL; SLOTS]),
            occupied: [0; SLOTS / 64],
            lapped: [0; SLOTS / 64],
            cur: 0,
            len: 0,
        }
    }

    /// Number of pending events the queue can hold without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Schedule `item` at virtual time `time`.
    pub fn push(&mut self, time: SimTime, item: T) {
        let node = self.alloc(time, item);
        self.len += 1;
        let bucket = (time >> BUCKET_SHIFT).max(self.cur);
        let slot = bucket as usize % SLOTS;
        if bucket >= self.cur + SLOTS as u64 {
            self.lapped[slot / 64] |= 1 << (slot % 64);
        }
        self.link(slot, node);
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.len == 0 {
            return None;
        }
        let mut slot = self.cur as usize % SLOTS;
        let tail = self.tails[slot];
        if tail == NIL || (self.is_lapped(slot) && self.head_bucket(tail) > self.cur) {
            slot = self.advance();
        }
        let tail = self.tails[slot];
        let head = self.nodes[tail as usize].next;
        if head == tail {
            self.tails[slot] = NIL;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            self.lapped[slot / 64] &= !(1 << (slot % 64));
        } else {
            self.nodes[tail as usize].next = self.nodes[head as usize].next;
        }
        self.len -= 1;
        let node = &mut self.nodes[head as usize];
        let item = node.item.take().expect("a linked node holds an item");
        node.next = self.free;
        self.free = head;
        Some((node.time, item))
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A node holding `item`, from the free list if it has one.
    fn alloc(&mut self, time: SimTime, item: T) -> u32 {
        let node = Node {
            time,
            next: NIL,
            item: Some(item),
        };
        if self.free == NIL {
            let index = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("more than 2^32 - 1 pending events");
            self.nodes.push(node);
            index
        } else {
            let index = self.free;
            self.free = self.nodes[index as usize].next;
            self.nodes[index as usize] = node;
            index
        }
    }

    fn is_lapped(&self, slot: usize) -> bool {
        self.lapped[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// The bucket of the first entry of the list whose tail is `tail`.
    fn head_bucket(&self, tail: u32) -> u64 {
        self.nodes[self.nodes[tail as usize].next as usize].time >> BUCKET_SHIFT
    }

    /// Put `node` into `slot`'s list after every entry whose time is ≤ its
    /// own. Most pushes are later than the slot's tail and append.
    fn link(&mut self, slot: usize, node: u32) {
        let time = self.nodes[node as usize].time;
        let tail = self.tails[slot];
        if tail == NIL {
            self.nodes[node as usize].next = node;
            self.tails[slot] = node;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            return;
        }
        let mut prev = tail;
        if self.nodes[tail as usize].time <= time {
            self.tails[slot] = node;
        } else {
            // The tail is later, so the walk stops before it.
            loop {
                let next = self.nodes[prev as usize].next;
                if self.nodes[next as usize].time > time {
                    break;
                }
                prev = next;
            }
        }
        self.nodes[node as usize].next = self.nodes[prev as usize].next;
        self.nodes[prev as usize].next = node;
    }

    /// Move the current bucket to the earliest pending one and return its
    /// slot. Called with an event pending and none in the current bucket.
    /// Slots are visited in ring order from the current one; the first whose
    /// head is in the bucket at that distance holds the earliest event, since
    /// any earlier bucket would sit in a slot visited before. A slot never
    /// lapped holds only its bucket at that distance. With no match, every
    /// pending event is a lap or more ahead, and the earliest head is the
    /// earliest. Kept out of line: inlined into `pop`, it slowed the serving
    /// workloads by 3 %.
    #[inline(never)]
    fn advance(&mut self) -> usize {
        const WORDS: usize = SLOTS / 64;
        let start = self.cur as usize % SLOTS;
        let first = start / 64;
        let mut earliest = u64::MAX;
        // The first word is looked at twice: its slots from `start` on, and
        // at the end of the round, the ones before.
        for step in 0..=WORDS {
            let word = (first + step) % WORDS;
            let mut bits = self.occupied[word];
            if step == 0 {
                bits &= !0 << (start % 64);
            } else if step == WORDS {
                bits &= !(!0 << (start % 64));
            }
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = self.cur + ((slot + SLOTS - start) % SLOTS) as u64;
                let head = if self.is_lapped(slot) {
                    self.head_bucket(self.tails[slot])
                } else {
                    bucket
                };
                if head == bucket {
                    self.cur = bucket;
                    return slot;
                }
                earliest = earliest.min(head);
            }
        }
        self.cur = earliest;
        earliest as usize % SLOTS
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
    use crate::tests::Rng;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The binary-heap queue the calendar replaced, kept as its oracle: an
    /// entry is ordered by time, ties broken by insertion sequence number.
    struct HeapQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        next_seq: u64,
    }

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

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: SimTime, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, item });
        }

        fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|e| (e.time, e.item))
        }
    }

    const BUCKET: SimTime = 1 << BUCKET_SHIFT;
    const LAP: SimTime = BUCKET * SLOTS as SimTime;

    /// Both queues under one sequence of pushes and pops. The payload is the
    /// push index, so every pop is checked for its place in the order, not
    /// only for its time.
    struct Pair {
        calendar: EventQueue<u32>,
        oracle: HeapQueue<u32>,
        pushed: u32,
        now: SimTime,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                calendar: EventQueue::new(),
                oracle: HeapQueue::new(),
                pushed: 0,
                now: 0,
            }
        }

        fn push(&mut self, time: SimTime) {
            self.calendar.push(time, self.pushed);
            self.oracle.push(time, self.pushed);
            self.pushed += 1;
        }

        fn pop(&mut self, ctx: &str) -> Option<(SimTime, u32)> {
            let got = self.calendar.pop();
            assert_eq!(
                got,
                self.oracle.pop(),
                "{ctx}: pop after {} pushes",
                self.pushed
            );
            if let Some((t, _)) = got {
                self.now = t;
            }
            got
        }

        fn drain(&mut self, ctx: &str) {
            while self.pop(ctx).is_some() {}
            assert!(self.calendar.is_empty(), "{ctx}");
        }
    }

    /// A seeded simulation-like run: pop the earliest event, push a few
    /// after it at a lead drawn by `lead`, until `events` were pushed.
    fn hold(seed: u64, events: u32, lead: impl Fn(&mut Rng) -> SimTime) {
        let ctx = format!("seed {seed}");
        let mut rng = Rng(seed);
        let mut q = Pair::new();
        for _ in 0..8 {
            q.push(lead(&mut rng));
        }
        while q.pushed < events {
            if q.pop(&ctx).is_none() {
                q.push(q.now + lead(&mut rng));
            }
            for _ in 0..rng.below(3) {
                q.push(q.now + lead(&mut rng));
            }
        }
        q.drain(&ctx);
    }

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

    #[test]
    fn equal_time_ties_match_the_heap() {
        for seed in 0..20 {
            // Eight distinct times over two buckets: most pushes tie.
            hold(seed, 4_000, |rng| rng.below(8) * (BUCKET / 4));
        }
    }

    #[test]
    fn pushes_before_the_current_bucket_match_the_heap() {
        for seed in 0..20 {
            let ctx = format!("seed {seed}");
            let mut rng = Rng(seed);
            let mut q = Pair::new();
            q.push(10 * BUCKET);
            while q.pushed < 4_000 {
                if q.pop(&ctx).is_none() {
                    q.push(q.now + rng.below(4 * BUCKET));
                }
                for _ in 0..rng.below(3) {
                    // Up to four buckets into the past, ties included.
                    let back = rng.below(4 * BUCKET).min(q.now);
                    let time = if rng.below(4) == 0 {
                        q.now
                    } else {
                        q.now - back
                    };
                    q.push(time);
                }
                q.push(q.now + rng.below(4 * BUCKET));
            }
            q.drain(&ctx);
        }
    }

    #[test]
    fn pushes_a_lap_or_more_ahead_match_the_heap() {
        for seed in 0..20 {
            // Leads of up to three laps, rounded to 1 µs so that lapped
            // events tie with each other and with later near pushes.
            hold(seed, 4_000, |rng| rng.below(3 * LAP / 1_000) * 1_000);
        }
        // A lapped event, then near pushes at its time once it is within a
        // lap, and one into its slot a lap earlier.
        let mut q = Pair::new();
        q.push(LAP + 5);
        q.push(LAP / 2);
        q.pop("lapped tie");
        q.push(LAP + 5);
        q.push(5);
        q.push(LAP + 5);
        q.drain("lapped tie");
    }

    #[test]
    fn idle_jumps_past_an_empty_lap_match_the_heap() {
        for seed in 0..20 {
            let ctx = format!("seed {seed}");
            let mut rng = Rng(seed);
            let mut q = Pair::new();
            while q.pushed < 2_000 {
                // Empty the queue, then jump by up to a thousand laps.
                q.drain(&ctx);
                let base = q.now + rng.below(1_000 * LAP);
                for _ in 0..rng.below(6) + 1 {
                    q.push(base + rng.below(2 * LAP));
                }
                q.pop(&ctx);
            }
            q.drain(&ctx);
        }
    }

    #[test]
    fn bursts_in_ascending_and_descending_order_match_the_heap() {
        for seed in 0..4 {
            let mut rng = Rng(seed);
            let times: Vec<SimTime> = (0..4_096).map(|_| rng.below(2 * LAP)).collect();
            let mut ascending = times.clone();
            ascending.sort_unstable();
            let descending: Vec<SimTime> = ascending.iter().rev().copied().collect();
            for (order, burst) in [("ascending", ascending), ("descending", descending)] {
                let ctx = format!("seed {seed}, {order} burst");
                let mut q = Pair::new();
                for &t in &burst {
                    q.push(t);
                }
                // Half out, a second burst of the same times, then empty.
                for _ in 0..2_048 {
                    q.pop(&ctx);
                }
                for &t in &burst {
                    q.push(t.max(q.now));
                }
                q.drain(&ctx);
            }
        }
    }

    #[test]
    fn slab_nodes_are_reused() {
        let mut q = EventQueue::with_capacity(4);
        for round in 0..1_000u64 {
            q.push(round * BUCKET, round);
            q.push(round * BUCKET + 1, round);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert_eq!(q.nodes.len(), 2);
    }
}
