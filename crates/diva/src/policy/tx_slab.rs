//! One record per open transaction, found by position instead of by hash.
//!
//! A policy opens a slot when a transaction starts sending messages and puts
//! the slot number into every message of that transaction, next to the
//! [`TxId`]. The handler of a message then reaches the record with one index
//! and one compare. The compare is what makes a bare index safe: a slot is
//! recycled as soon as its transaction closes, so a stale or forged message
//! may well name a slot that is open again — for somebody else.
//!
//! Slots are invisible to the simulation: no message size, route, time or
//! counter depends on one, so the order in which they are recycled cannot
//! change a simulated result.

use super::TxId;

/// What a slot is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Use {
    /// Open for this transaction.
    Open(TxId),
    /// Free; the payload is the slot that was freed before it, if any.
    Free(Option<u32>),
}

#[derive(Debug)]
struct Slot<T> {
    in_use: Use,
    /// Kept while the slot is free, so its buffers are reused by the next
    /// transaction that opens it.
    rec: T,
}

/// Slab of per-transaction records, addressed by `(slot, id)`.
#[derive(Debug)]
pub(crate) struct TxSlab<T> {
    slots: Vec<Slot<T>>,
    /// The slot closed last, which is the one opened next: free slots form
    /// a stack threaded through [`Use::Free`].
    last_freed: Option<u32>,
}

impl<T> Default for TxSlab<T> {
    fn default() -> Self {
        TxSlab {
            slots: Vec::new(),
            last_freed: None,
        }
    }
}

impl<T> TxSlab<T> {
    /// Open a slot for transaction `id` and return it with its record: the
    /// record a closed transaction left behind (the caller resets it — its
    /// buffers keep their capacity), or `fresh()` when no slot is free.
    pub(crate) fn open(&mut self, id: TxId, fresh: impl FnOnce() -> T) -> (u32, &mut T) {
        let slot = self.last_freed.unwrap_or_else(|| {
            let slot = u32::try_from(self.slots.len()).expect("more than 2^32 open slots");
            self.slots.push(Slot {
                in_use: Use::Free(None),
                rec: fresh(),
            });
            slot
        });
        let s = &mut self.slots[slot as usize];
        let Use::Free(freed_before) = s.in_use else {
            unreachable!("an open slot on the free stack");
        };
        self.last_freed = freed_before;
        s.in_use = Use::Open(id);
        (slot, &mut s.rec)
    }

    /// The slot of transaction `id`, which must be what `slot` is open for.
    #[inline]
    fn slot_mut(&mut self, slot: u32, id: TxId) -> &mut Slot<T> {
        match self.slots.get_mut(slot as usize) {
            Some(s) if s.in_use == Use::Open(id) => s,
            _ => panic!("unknown transaction {id:?} (message names slot {slot})"),
        }
    }

    /// The record of transaction `id`, which must be what `slot` is open for.
    ///
    /// # Panics
    /// Panics with `unknown transaction` if the slot does not exist, is
    /// free, or is open for another transaction.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32, id: TxId) -> &mut T {
        &mut self.slot_mut(slot, id).rec
    }

    /// Close the slot of transaction `id`; its record stays behind for the
    /// next [`TxSlab::open`]. Panics like [`TxSlab::get_mut`].
    pub(crate) fn close(&mut self, slot: u32, id: TxId) {
        let freed_before = self.last_freed;
        self.slot_mut(slot, id).in_use = Use::Free(freed_before);
        self.last_freed = Some(slot);
    }

    /// Number of transactions currently open.
    #[cfg(test)]
    pub(crate) fn open_count(&self) -> usize {
        let open = |s: &&Slot<T>| matches!(s.in_use, Use::Open(_));
        self.slots.iter().filter(open).count()
    }

    /// Number of slots ever created: the most transactions that were open
    /// at once.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Every slot's record, with whether the slot is open.
    #[cfg(test)]
    pub(crate) fn records(&self) -> impl Iterator<Item = (bool, &T)> {
        self.slots
            .iter()
            .map(|s| (matches!(s.in_use, Use::Open(_)), &s.rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_rng::ChaCha8Rng;
    use std::collections::HashMap;

    /// A record with a buffer, like the policies' own.
    #[derive(Debug, Default)]
    struct Rec {
        value: u64,
        buf: Vec<u32>,
    }

    #[test]
    fn seeded_open_get_close_matches_a_hash_map_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x51AB);
        let mut slab: TxSlab<Rec> = TxSlab::default();
        // id -> (slot, value)
        let mut model: HashMap<TxId, (u32, u64)> = HashMap::new();
        let mut free_model: Vec<u32> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..4000u64 {
            let open_ids: Vec<TxId> = {
                let mut ids: Vec<TxId> = model.keys().copied().collect();
                ids.sort_unstable();
                ids
            };
            match rng.gen_range(0..3u32) {
                0 => {
                    // Ids are arbitrary and caller-chosen: scatter them.
                    next_id += 1 + u64::from(rng.gen_range(0..1000u32));
                    let id = TxId(next_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let expect_slot = free_model.pop().unwrap_or(slab.slot_count() as u32);
                    let (slot, rec) = slab.open(id, Rec::default);
                    assert_eq!(slot, expect_slot, "slots are recycled last-closed-first");
                    rec.value = step;
                    rec.buf.clear();
                    rec.buf.push(step as u32);
                    model.insert(id, (slot, step));
                }
                1 if !open_ids.is_empty() => {
                    let id = open_ids[rng.gen_range(0..open_ids.len() as u32) as usize];
                    let (slot, value) = model.get_mut(&id).unwrap();
                    assert_eq!(slab.get_mut(*slot, id).value, *value);
                    *value += 1;
                    slab.get_mut(*slot, id).value += 1;
                }
                2 if !open_ids.is_empty() => {
                    let id = open_ids[rng.gen_range(0..open_ids.len() as u32) as usize];
                    let (slot, value) = model.remove(&id).unwrap();
                    assert_eq!(slab.get_mut(slot, id).value, value);
                    slab.close(slot, id);
                    free_model.push(slot);
                }
                _ => {}
            }
            assert_eq!(slab.open_count(), model.len());
            assert_eq!(slab.slot_count(), model.len() + free_model.len());
        }
        for (id, (slot, value)) in model {
            assert_eq!(slab.get_mut(slot, id).value, value);
        }
    }

    #[test]
    fn a_recycled_record_keeps_its_buffer() {
        let mut slab: TxSlab<Rec> = TxSlab::default();
        let (slot, rec) = slab.open(TxId(7), Rec::default);
        rec.buf.extend(0..100);
        let capacity = rec.buf.capacity();
        slab.close(slot, TxId(7));
        let (again, rec) = slab.open(TxId(8), || panic!("a free slot must be reused"));
        assert_eq!(again, slot);
        assert_eq!(rec.buf.len(), 100, "the caller resets a recycled record");
        assert_eq!(rec.buf.capacity(), capacity);
    }

    #[test]
    #[should_panic(expected = "unknown transaction")]
    fn a_message_for_a_closed_slot_is_refused() {
        let mut slab: TxSlab<Rec> = TxSlab::default();
        let (slot, _) = slab.open(TxId(1), Rec::default);
        slab.close(slot, TxId(1));
        slab.get_mut(slot, TxId(1));
    }

    #[test]
    #[should_panic(expected = "unknown transaction")]
    fn a_message_for_a_slot_reopened_by_another_id_is_refused() {
        let mut slab: TxSlab<Rec> = TxSlab::default();
        let (slot, _) = slab.open(TxId(1), Rec::default);
        slab.close(slot, TxId(1));
        let (reopened, _) = slab.open(TxId(2), Rec::default);
        assert_eq!(reopened, slot);
        // A bare index would hand transaction 2's record to this message.
        slab.get_mut(slot, TxId(1));
    }

    #[test]
    #[should_panic(expected = "unknown transaction")]
    fn closing_twice_is_refused() {
        let mut slab: TxSlab<Rec> = TxSlab::default();
        let (slot, _) = slab.open(TxId(1), Rec::default);
        slab.close(slot, TxId(1));
        slab.close(slot, TxId(1));
    }
}
