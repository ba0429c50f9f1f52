//! Which processors hold a copy, per variable slot: one fixed-width record
//! each, so the cost follows the variables and their copies, never
//! `nprocs × nvars`.
//!
//! A 16-byte [`Holders`] record lists up to [`INLINE`] holder ids and their
//! count. The next holder *spills* the record to a dense bitset of
//! `⌈nprocs / 64⌉` words taken from a recycled pool of spill slots; when the
//! count drops back to [`INLINE`] the holders move inline again and the slot
//! returns to the free list. A membership test is at most two dependent
//! loads (the record, then a spill word), and the count is read off the
//! record.
//!
//! The fixed-home policy keeps its copy sets here, and the runtime's read
//! fast path reads them through the policy's
//! [`CopyView`](crate::policy::CopyView): the records are the one account
//! of who holds a copy.

/// Holder ids a [`Holders`] record keeps before it spills.
const INLINE: usize = 3;

/// An unused inline id. No processor has it, so a membership test compares
/// all [`INLINE`] ids without reading the count first.
const NO_HOLDER: u32 = u32::MAX;

/// The holders of one variable.
#[derive(Clone, Copy)]
struct Holders {
    /// While `count <= INLINE`: the holders, [`NO_HOLDER`] past `count`.
    /// Once spilled: `ids[0]` is the spill slot.
    ids: [u32; INLINE],
    /// Processors holding a copy.
    count: u32,
}

const _: () = assert!(std::mem::size_of::<Holders>() == 16);

const NOBODY: Holders = Holders {
    ids: [NO_HOLDER; INLINE],
    count: 0,
};

/// Holder records, one per variable slot, with their spill pool.
pub(crate) struct HolderLists {
    records: Vec<Holders>,
    /// Spill slots of `words` words each, back to back.
    spill: Vec<u64>,
    /// Words per spill slot: `⌈nprocs / 64⌉`.
    words: usize,
    /// Spill slots not in use; every word of a free slot is zero.
    free: Vec<u32>,
}

impl HolderLists {
    /// Records for `slots` variable slots on a machine of `nprocs`
    /// processors, nobody holding anything.
    pub(crate) fn new(nprocs: usize, slots: usize) -> Self {
        HolderLists {
            records: vec![NOBODY; slots],
            spill: Vec::new(),
            words: nprocs.div_ceil(64),
            free: Vec::new(),
        }
    }

    /// The spill bits of `slot`.
    fn slot_bits(&mut self, slot: u32) -> &mut [u64] {
        &mut self.spill[slot as usize * self.words..][..self.words]
    }

    /// Whether processor `proc` holds slot `idx`.
    #[inline]
    pub(crate) fn has(&self, proc: usize, idx: usize) -> bool {
        let Some(rec) = self.records.get(idx) else {
            return false;
        };
        if rec.count as usize > INLINE {
            let word = self.spill[rec.ids[0] as usize * self.words + proc / 64];
            word >> (proc % 64) & 1 == 1
        } else {
            rec.ids.contains(&(proc as u32))
        }
    }

    /// Number of processors holding slot `idx`.
    pub(crate) fn count(&self, idx: usize) -> u32 {
        self.records.get(idx).map_or(0, |rec| rec.count)
    }

    /// Make `proc` a holder of slot `idx` or not; returns whether that
    /// changed anything. Clearing past the records allocates nothing.
    pub(crate) fn set(&mut self, proc: usize, idx: usize, present: bool) -> bool {
        if idx >= self.records.len() {
            if !present {
                return false;
            }
            self.records.resize(idx + 1, NOBODY);
        }
        let rec = &mut self.records[idx];
        let n = rec.count as usize;
        if n > INLINE {
            let word = &mut self.spill[rec.ids[0] as usize * self.words + proc / 64];
            let mask = 1u64 << (proc % 64);
            if (*word & mask != 0) == present {
                return false;
            }
            *word ^= mask;
            if present {
                rec.count += 1;
            } else {
                rec.count -= 1;
                if rec.count as usize == INLINE {
                    self.unspill(idx);
                }
            }
            return true;
        }
        let id = proc as u32;
        match (rec.ids[..n].iter().position(|&h| h == id), present) {
            (Some(_), true) | (None, false) => false,
            (None, true) if n < INLINE => {
                rec.ids[n] = id;
                rec.count += 1;
                true
            }
            (None, true) => {
                self.spill(idx, id);
                true
            }
            (Some(i), false) => {
                rec.ids[i] = rec.ids[n - 1];
                rec.ids[n - 1] = NO_HOLDER;
                rec.count -= 1;
                true
            }
        }
    }

    /// Call `f` with every holder of slot `idx`, in ascending order.
    pub(crate) fn for_each(&self, idx: usize, mut f: impl FnMut(u32)) {
        let Some(&rec) = self.records.get(idx) else {
            return;
        };
        let n = rec.count as usize;
        if n > INLINE {
            let bits = &self.spill[rec.ids[0] as usize * self.words..][..self.words];
            for (w, &word) in bits.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    f((w * 64) as u32 + rest.trailing_zeros());
                    rest &= rest - 1;
                }
            }
        } else {
            let mut ids = rec.ids;
            ids[..n].sort_unstable();
            ids[..n].iter().for_each(|&h| f(h));
        }
    }

    /// Remove every holder of slot `idx`, returning its spill slot to the
    /// pool.
    pub(crate) fn clear(&mut self, idx: usize) {
        let Some(&rec) = self.records.get(idx) else {
            return;
        };
        if rec.count as usize > INLINE {
            self.slot_bits(rec.ids[0]).fill(0);
            self.free.push(rec.ids[0]);
        }
        self.records[idx] = NOBODY;
    }

    /// Move the [`INLINE`] holders of `records[idx]` and the new holder `id`
    /// into a spill slot.
    fn spill(&mut self, idx: usize, id: u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.spill.len() / self.words;
            self.spill.resize(self.spill.len() + self.words, 0);
            u32::try_from(slot).expect("holder spill pool outgrew u32 slots")
        });
        let ids = self.records[idx].ids;
        let bits = self.slot_bits(slot);
        for h in ids.into_iter().chain([id]) {
            bits[h as usize / 64] |= 1 << (h % 64);
        }
        self.records[idx] = Holders {
            ids: [slot, NO_HOLDER, NO_HOLDER],
            count: INLINE as u32 + 1,
        };
    }

    /// Move the [`INLINE`] holders left in the spill slot of `records[idx]`
    /// back inline and free the slot (zeroing what is left of it).
    fn unspill(&mut self, idx: usize) {
        let rec = &mut self.records[idx];
        let slot = rec.ids[0];
        let bits = &mut self.spill[slot as usize * self.words..][..self.words];
        let mut n = 0;
        for (w, word) in bits.iter_mut().enumerate() {
            while *word != 0 {
                rec.ids[n] = (w * 64) as u32 + word.trailing_zeros();
                n += 1;
                *word &= *word - 1;
            }
        }
        debug_assert_eq!(n, INLINE, "spill slot disagrees with its count");
        self.free.push(slot);
    }

    /// Heap bytes held: records, spill pool and free list.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.capacity() * size_of::<Holders>()
            + self.spill.capacity() * size_of::<u64>()
            + self.free.capacity() * size_of::<u32>()
    }

    /// Spill slots ever created.
    #[cfg(test)]
    pub(crate) fn spill_slots(&self) -> usize {
        self.spill.len() / self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_rng::ChaCha8Rng;
    use std::collections::BTreeSet;

    /// The records against a `BTreeSet<(slot, proc)>` model, over a seeded
    /// sequence that keeps a few hot slots swinging across 0 ↔ 3 ↔ 4+
    /// holders (spill and un-spill), clears pairs that are not set, clears
    /// whole slots, and reaches past the initial records. Spill slots must
    /// be recycled: the pool never holds more slots than were spilled at
    /// once, a free slot is all zero, and `for_each` lists a slot's holders
    /// in ascending order.
    #[test]
    fn holder_lists_match_a_naive_set() {
        // 64: spill slots of one word with the top bit in use. 130: spill
        // slots that end in a partly used word.
        for nprocs in [64, 130] {
            let mut rng = ChaCha8Rng::seed_from_u64(0x9A6E_D0B1 ^ nprocs as u64);
            let mut lists = HolderLists::new(nprocs, 40);
            let mut model: BTreeSet<(u32, usize)> = BTreeSet::new();
            let mut spilled_peak = 0;
            let (mut cleared_spilled, mut cleared_inline) = (0, 0);
            for step in 0..30_000 {
                // Hot slots draw holders from a small set, so their counts
                // hover around the spill threshold; the rest spread over the
                // processors and past the 40 initial records.
                let (proc, idx) = if rng.gen_range(0..4u32) != 0 {
                    let hot = [0, nprocs / 3, nprocs / 2, nprocs - 64, nprocs - 1];
                    let proc =
                        hot[rng.gen_range(0..5u32) as usize] + rng.gen_range(0..2u32) as usize;
                    (proc.min(nprocs - 1), rng.gen_range(0..4u32))
                } else {
                    let proc = rng.gen_range(0..nprocs as u32) as usize;
                    (proc, rng.gen_range(0..300u32))
                };
                if rng.gen_range(0..200u32) == 0 {
                    let free_before = lists.free.len();
                    let spilled = lists.count(idx as usize) as usize > INLINE;
                    lists.clear(idx as usize);
                    model.retain(|&(i, _)| i != idx);
                    assert_eq!(lists.count(idx as usize), 0);
                    assert_eq!(
                        lists.free.len(),
                        free_before + usize::from(spilled),
                        "{nprocs}: step {step}: clear kept the spill slot"
                    );
                    cleared_spilled += usize::from(spilled);
                    cleared_inline += usize::from(!spilled);
                } else {
                    let present = rng.gen_range(0..2u32) == 0;
                    let flipped = lists.set(proc, idx as usize, present);
                    let expected = if present {
                        model.insert((idx, proc))
                    } else {
                        model.remove(&(idx, proc))
                    };
                    assert_eq!(
                        flipped, expected,
                        "{nprocs}: step {step}: ({proc}, {idx}) := {present}"
                    );
                }
                let want: Vec<u32> = model
                    .range((idx, 0)..(idx + 1, 0))
                    .map(|&(_, p)| p as u32)
                    .collect();
                let mut got = Vec::new();
                lists.for_each(idx as usize, |h| got.push(h));
                assert_eq!(got, want, "{nprocs}: step {step}: holders of {idx}");
                assert_eq!(lists.count(idx as usize) as usize, want.len());

                let spilled = lists
                    .records
                    .iter()
                    .filter(|rec| rec.count as usize > INLINE)
                    .count();
                spilled_peak = spilled_peak.max(spilled);
                let slots = lists.spill_slots();
                assert_eq!(
                    slots, spilled_peak,
                    "{nprocs}: step {step}: slots not recycled"
                );
                assert_eq!(lists.free.len(), slots - spilled);
                for &slot in &lists.free {
                    let bits = &lists.spill[slot as usize * lists.words..][..lists.words];
                    assert!(bits.iter().all(|&w| w == 0), "free slot {slot} not zero");
                }
            }
            assert!(spilled_peak > 0, "{nprocs}: the sequence never spilled");
            assert!(
                cleared_spilled > 0 && cleared_inline > 0,
                "{nprocs}: {cleared_spilled} spilled and {cleared_inline} inline clears"
            );
            // Past the records: nothing set, nothing allocated by a clear.
            let bytes = lists.heap_bytes();
            assert!(!lists.set(0, 1_000_000, false));
            lists.clear(1_000_000);
            assert_eq!(lists.heap_bytes(), bytes);
            assert_eq!(lists.count(1_000_000), 0);
            for proc in 0..nprocs {
                for idx in 0..400 {
                    assert_eq!(
                        lists.has(proc, idx as usize),
                        model.contains(&(idx, proc)),
                        "{nprocs}: ({proc}, {idx})"
                    );
                }
                assert!(!lists.has(proc, 1_000_000));
            }
        }
    }
}
