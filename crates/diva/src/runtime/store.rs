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
//! - **More:** a 16-byte holder record per variable
//!   ([`HolderLists`]) lists up to three holder ids and their count, and
//!   spills to a pooled dense bitset past that. The fixed-home policy keeps
//!   its copy sets in the same records.
//!
//! Either way `has_copy` is at most two dependent loads (the record, then a
//! spill word), and the number of holders — the replication degree the
//! coordinator's high-water mark needs — is read off the record.
//!
//! Records exist for the variables registered before the run. A variable
//! allocated during the run past that range grows the record `Vec` like any
//! `Vec`; testing or clearing presence out there allocates nothing.

use crate::holders::{flip, HolderLists};
use crate::var::{Value, VarHandle};
use std::sync::Arc;

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

impl VarStore {
    /// A store for `nprocs` processors holding the pre-run `values` (slot
    /// `i` is variable `i`), with no presence bit set.
    pub(crate) fn new(nprocs: usize, values: Vec<Value>) -> Self {
        let presence = if nprocs <= 64 {
            Presence::Words(vec![0; values.len()])
        } else {
            Presence::Lists(HolderLists::new(nprocs, values.len()))
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
            Presence::Lists(lists) => lists.count(idx),
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
            Presence::Lists(lists) => lists.heap_bytes(),
        }
    }

    /// Both layouts against a `HashSet<(proc, var)>` model, over a seeded
    /// sequence that keeps a few hot variables swinging across 0 ↔ 3 ↔ 4+
    /// holders (spill and un-spill), clears pairs that are not set, and
    /// reaches past the pre-run range. The holder records' own invariants
    /// (slot recycling, ascending `for_each`) are tested with the type.
    #[test]
    fn presence_matches_a_naive_set() {
        // 64: the one-word layout with its top bit in use. 130: holder
        // lists whose spill slots end in a partly used word.
        for nprocs in [64, 130] {
            let mut rng = ChaCha8Rng::seed_from_u64(0x9A6E_D0B1 ^ nprocs as u64);
            let mut store = store(nprocs, 40);
            let mut model: HashSet<(usize, u32)> = HashSet::new();
            let mut copies = [0u32; 300];
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
            }
            if let Presence::Lists(lists) = &store.presence {
                assert!(lists.spill_slots() > 0, "the sequence never spilled");
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
