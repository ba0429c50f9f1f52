//! The run's variable store: the current value of every global variable and
//! the presence record behind the read fast path — which processors hold a
//! valid copy of which variable.
//!
//! The store is plain data with a single owner — the coordinator's
//! [`EnvState`](super::coordinator::EnvState), which mutates it through
//! `&mut`. The stepper only borrows it (`&VarStore`) while a round is
//! gathered, the one window in which the coordinator is quiescent; that
//! borrow is what makes the read fast path race-free without a lock or an
//! atomic.
//!
//! ## Presence layout
//!
//! Presence is one fixed-width holder record per variable slot, so it costs
//! in proportion to the variables and their copies, never `nprocs × nvars`.
//! The layout is chosen once, from the processor count:
//!
//! - **≤ 64 processors:** a variable's record is one `u64`, bit `p` for
//!   processor `p`.
//! - **More:** a 16-byte [`Holders`] record lists up to [`INLINE`] holder
//!   ids and their count. The next holder *spills* the record to a dense
//!   bitset of `⌈nprocs / 64⌉` words taken from a recycled pool of spill
//!   slots; when the count drops back to [`INLINE`] the holders move inline
//!   again and the slot returns to the free list.
//!
//! Either way `has_copy` is at most two dependent loads (the record, then a
//! spill word), and the number of holders — the replication degree the
//! coordinator's high-water mark needs — is read off the record.
//!
//! Records exist for the variables registered before the run. A variable
//! allocated during the run past that range grows the record `Vec` like any
//! `Vec`; testing or clearing presence out there allocates nothing.

use crate::var::{Value, VarHandle};
use std::sync::Arc;

/// Holder ids a [`Holders`] record keeps before it spills.
const INLINE: usize = 3;

/// An unused inline id. No processor has it, so `has_copy` compares all
/// [`INLINE`] ids without reading the count first.
const NO_HOLDER: u32 = u32::MAX;

/// The holders of one variable on a machine of more than 64 processors.
#[derive(Clone, Copy)]
struct Holders {
    /// While `count <= INLINE`: the holders, [`NO_HOLDER`] past `count`.
    /// Once spilled: `ids[0]` is the spill slot.
    ids: [u32; INLINE],
    /// Processors holding a copy.
    count: u32,
}

const NOBODY: Holders = Holders {
    ids: [NO_HOLDER; INLINE],
    count: 0,
};

/// Holder records with their spill pool.
struct HolderLists {
    records: Vec<Holders>,
    /// Spill slots of `words` words each, back to back.
    spill: Vec<u64>,
    /// Words per spill slot: `⌈nprocs / 64⌉`.
    words: usize,
    /// Spill slots not in use; every word of a free slot is zero.
    free: Vec<u32>,
}

enum Presence {
    /// ≤ 64 processors: bit `p` of word `v` is (`p`, `v`).
    Words(Vec<u64>),
    /// More processors.
    Lists(HolderLists),
}

/// Values and presence of one run.
pub(crate) struct VarStore {
    /// Current value of every global variable, indexed by slot.
    values: Vec<Value>,
    presence: Presence,
    nprocs: usize,
}

/// Set bit `bit` of `word` to `present`; returns whether it changed.
fn flip(word: &mut u64, bit: usize, present: bool) -> bool {
    let mask = 1u64 << bit;
    let flipped = (*word & mask != 0) != present;
    if flipped {
        *word ^= mask;
    }
    flipped
}

impl HolderLists {
    #[inline]
    fn has(&self, proc: usize, idx: usize) -> bool {
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

    fn set(&mut self, proc: usize, idx: usize, present: bool) -> bool {
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
            if !flip(word, proc % 64, present) {
                return false;
            }
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

    /// Move the [`INLINE`] holders of `records[idx]` and the new holder `id`
    /// into a spill slot.
    fn spill(&mut self, idx: usize, id: u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.spill.len() / self.words;
            self.spill.resize(self.spill.len() + self.words, 0);
            u32::try_from(slot).expect("presence spill pool outgrew u32 slots")
        });
        let rec = &mut self.records[idx];
        let bits = &mut self.spill[slot as usize * self.words..][..self.words];
        for h in rec.ids.into_iter().chain([id]) {
            bits[h as usize / 64] |= 1 << (h % 64);
        }
        *rec = Holders {
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
}

impl VarStore {
    /// A store for `nprocs` processors holding the pre-run `values` (slot
    /// `i` is variable `i`), with no presence bit set.
    pub(crate) fn new(nprocs: usize, values: Vec<Value>) -> Self {
        let presence = if nprocs <= 64 {
            Presence::Words(vec![0; values.len()])
        } else {
            Presence::Lists(HolderLists {
                records: vec![NOBODY; values.len()],
                spill: Vec::new(),
                words: nprocs.div_ceil(64),
                free: Vec::new(),
            })
        };
        VarStore {
            values,
            presence,
            nprocs,
        }
    }

    /// Whether processor `proc` holds a valid copy of `var`.
    #[inline]
    pub(crate) fn has_copy(&self, proc: usize, var: VarHandle) -> bool {
        debug_assert!(proc < self.nprocs);
        match &self.presence {
            Presence::Words(words) => words
                .get(var.index())
                .is_some_and(|word| word >> proc & 1 == 1),
            Presence::Lists(lists) => lists.has(proc, var.index()),
        }
    }

    /// Set the presence bit of (`proc`, `var`) to `present`; returns whether
    /// the bit changed.
    pub(crate) fn set_copy(&mut self, proc: usize, var: VarHandle, present: bool) -> bool {
        debug_assert!(proc < self.nprocs);
        let idx = var.index();
        match &mut self.presence {
            Presence::Words(words) => {
                if idx >= words.len() {
                    if !present {
                        return false;
                    }
                    words.resize(idx + 1, 0);
                }
                flip(&mut words[idx], proc, present)
            }
            Presence::Lists(lists) => lists.set(proc, idx, present),
        }
    }

    /// Number of processors holding a copy of `var`.
    pub(crate) fn copies(&self, var: VarHandle) -> u32 {
        let idx = var.index();
        match &self.presence {
            Presence::Words(words) => words.get(idx).map_or(0, |word| word.count_ones()),
            Presence::Lists(lists) => lists.records.get(idx).map_or(0, |rec| rec.count),
        }
    }

    /// Current value of `var`.
    #[inline]
    pub(crate) fn value(&self, var: VarHandle) -> Value {
        self.values[var.index()].clone()
    }

    /// Overwrite the value of `var`.
    pub(crate) fn set_value(&mut self, var: VarHandle, value: Value) {
        self.values[var.index()] = value;
    }

    /// Store the value of a newly registered variable. The slot index is
    /// either the current length (a fresh slot) or inside the store (a
    /// recycled slot whose previous payload was dropped by
    /// [`VarStore::clear_value`]).
    pub(crate) fn store_value(&mut self, var: VarHandle, value: Value) {
        let idx = var.index();
        if idx == self.values.len() {
            self.values.push(value);
        } else {
            // Only a recycled slot may be overwritten — it must still hold
            // the unit tombstone `clear_value` installed at free time.
            debug_assert!(
                self.values[idx].downcast_ref::<()>().is_some(),
                "value store out of sync with registry: slot {idx} is not a freed tombstone"
            );
            self.values[idx] = value;
        }
    }

    /// Drop the payload of a freed variable. The slot keeps a unit tombstone:
    /// a read through a stale handle then fails its typed downcast loudly
    /// instead of returning the retired payload.
    pub(crate) fn clear_value(&mut self, var: VarHandle) {
        self.set_value(var, Arc::new(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_rng::ChaCha8Rng;
    use std::collections::HashSet;
    use std::mem::size_of;

    fn store(nprocs: usize, nvars: usize) -> VarStore {
        VarStore::new(nprocs, (0..nvars).map(|_| Arc::new(()) as Value).collect())
    }

    /// Heap bytes the presence record holds.
    fn presence_bytes(store: &VarStore) -> usize {
        match &store.presence {
            Presence::Words(words) => words.capacity() * size_of::<u64>(),
            Presence::Lists(lists) => {
                lists.records.capacity() * size_of::<Holders>()
                    + lists.spill.capacity() * size_of::<u64>()
                    + lists.free.capacity() * size_of::<u32>()
            }
        }
    }

    /// Both layouts against a `HashSet<(proc, var)>` model, over a seeded
    /// sequence that keeps a few hot variables swinging across 0 ↔ 3 ↔ 4+
    /// holders (spill and un-spill), clears pairs that are not set, and
    /// reaches past the pre-run range. Spill slots must be recycled: the
    /// pool never holds more slots than were spilled at once, and a free
    /// slot is all zero.
    #[test]
    fn presence_matches_a_naive_set() {
        // 64: the one-word layout with its top bit in use. 130: holder
        // lists whose spill slots end in a partly used word.
        for nprocs in [64, 130] {
            let mut rng = ChaCha8Rng::seed_from_u64(0x9A6E_D0B1 ^ nprocs as u64);
            let mut store = store(nprocs, 40);
            let mut model: HashSet<(usize, u32)> = HashSet::new();
            let mut copies = [0u32; 300];
            let mut spilled_peak = 0;
            for step in 0..30_000 {
                // Hot variables draw holders from a small set, so their
                // counts hover around the spill threshold; the rest spread
                // over the processors and past the 40 pre-run slots.
                let (proc, var) = if rng.gen_range(0..4u32) != 0 {
                    let hot = [0, nprocs / 3, nprocs / 2, nprocs - 64, nprocs - 1];
                    let proc =
                        hot[rng.gen_range(0..5u32) as usize] + rng.gen_range(0..2u32) as usize;
                    (proc.min(nprocs - 1), rng.gen_range(0..4u32))
                } else {
                    let proc = rng.gen_range(0..nprocs as u32) as usize;
                    (proc, rng.gen_range(0..300u32))
                };
                let present = rng.gen_range(0..2u32) == 0;
                let flipped = store.set_copy(proc, VarHandle(var), present);
                let expected = if present {
                    model.insert((proc, var))
                } else {
                    model.remove(&(proc, var))
                };
                assert_eq!(
                    flipped, expected,
                    "{nprocs}: step {step}: ({proc}, {var}) := {present}"
                );
                if expected {
                    copies[var as usize] = if present {
                        copies[var as usize] + 1
                    } else {
                        copies[var as usize] - 1
                    };
                }
                assert_eq!(store.copies(VarHandle(var)), copies[var as usize]);
                if let Presence::Lists(lists) = &store.presence {
                    let spilled = lists
                        .records
                        .iter()
                        .filter(|rec| rec.count as usize > INLINE)
                        .count();
                    spilled_peak = spilled_peak.max(spilled);
                    let slots = lists.spill.len() / lists.words;
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
            }
            if nprocs > 64 {
                assert!(spilled_peak > 0, "the sequence never spilled");
            }
            // Past the records: nothing set, nothing allocated by a clear.
            let bytes = presence_bytes(&store);
            assert!(!store.set_copy(0, VarHandle(1_000_000), false));
            assert_eq!(presence_bytes(&store), bytes);
            assert_eq!(store.copies(VarHandle(1_000_000)), 0);
            for proc in 0..nprocs {
                for var in 0..400 {
                    assert_eq!(
                        store.has_copy(proc, VarHandle(var)),
                        model.contains(&(proc, var)),
                        "{nprocs}: ({proc}, {var})"
                    );
                }
                assert!(!store.has_copy(proc, VarHandle(1_000_000)));
            }
        }
    }

    /// With owners spread round-robin over 4 096 processors (the
    /// `uniform_64` shape), presence costs one 16-byte record per variable
    /// and nothing per processor; further copies below the spill threshold
    /// cost nothing.
    #[test]
    fn round_robin_owners_cost_at_most_16_bytes_of_presence_per_variable() {
        const NPROCS: usize = 4_096;
        const NVARS: usize = 16_384;
        let mut store = store(NPROCS, NVARS);
        for var in 0..NVARS {
            assert!(store.set_copy(var % NPROCS, VarHandle(var as u32), true));
        }
        let bytes = presence_bytes(&store);
        assert!(bytes <= 16 * NVARS, "{bytes} bytes for {NVARS} variables");
        assert!(store.set_copy(0, VarHandle(1), true));
        assert!(store.set_copy(2, VarHandle(1), true));
        assert_eq!(store.copies(VarHandle(1)), 3);
        assert_eq!(presence_bytes(&store), bytes);
    }
}
