//! The run's variable store: the current value of every global variable and
//! the per-processor presence bits behind the read fast path.
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
//! Presence is a paged bitset. A page is one cache line: eight `u64` words,
//! the bits of [`PAGE_VARS`] consecutive variable slots for one processor.
//! `table` holds `nprocs × stride` page indices (row-major by processor,
//! `stride` pages per processor) into `pool`, the one allocation all pages
//! live in. Index 0 is a shared all-zero page that is never written, so a
//! lookup is two dependent loads and no "is there a page" branch. A page is
//! allocated when the first bit is set in it and then stays: memory follows
//! the (processor, 512-variable window) pairs that ever held a copy, not the
//! dense `nprocs × nvars` product.
//!
//! The table is sized from the variables registered before the run. A
//! variable allocated during the run past that range re-strides the table
//! (at least doubling `stride`, so the copying stays amortised O(1) per
//! slot); the pool grows like any `Vec`.

use crate::var::{Value, VarHandle};
use std::sync::Arc;

/// Variable slots per presence page.
const PAGE_VARS: usize = 512;

/// One presence page: a cache line of bits.
type Page = [u64; PAGE_VARS / 64];

const EMPTY_PAGE: Page = [0; PAGE_VARS / 64];

/// Values and presence bits of one run.
pub(crate) struct VarStore {
    /// Current value of every global variable, indexed by slot.
    values: Vec<Value>,
    /// `nprocs × stride` indices into `pool`; 0 is the shared empty page.
    table: Vec<u32>,
    /// Pages per processor in `table`.
    stride: usize,
    nprocs: usize,
    /// Page storage; `pool[0]` stays all-zero.
    pool: Vec<Page>,
}

impl VarStore {
    /// A store for `nprocs` processors holding the pre-run `values` (slot
    /// `i` is variable `i`), with no presence bit set.
    pub(crate) fn new(nprocs: usize, values: Vec<Value>) -> Self {
        let stride = values.len().div_ceil(PAGE_VARS).max(1);
        // Every pre-run variable starts with one copy, so up to one page per
        // variable is needed before the first request — but never more than
        // the table has entries. Reserving that up front keeps `Vec`
        // doubling out of small runs entirely.
        let mut pool = Vec::with_capacity(1 + values.len().min(nprocs * stride));
        pool.push(EMPTY_PAGE);
        VarStore {
            values,
            table: vec![0; nprocs * stride],
            stride,
            nprocs,
            pool,
        }
    }

    /// Whether processor `proc` holds a valid copy of `var`.
    #[inline]
    pub(crate) fn has_copy(&self, proc: usize, var: VarHandle) -> bool {
        debug_assert!(proc < self.nprocs);
        let idx = var.index();
        let page = idx / PAGE_VARS;
        if page >= self.stride {
            return false;
        }
        let page = self.table[proc * self.stride + page] as usize;
        self.pool[page][idx % PAGE_VARS / 64] >> (idx % 64) & 1 == 1
    }

    /// Set the presence bit of (`proc`, `var`) to `present`; returns whether
    /// the bit changed.
    pub(crate) fn set_copy(&mut self, proc: usize, var: VarHandle, present: bool) -> bool {
        debug_assert!(proc < self.nprocs);
        let idx = var.index();
        let page = idx / PAGE_VARS;
        if page >= self.stride {
            if !present {
                return false;
            }
            self.restride(page + 1);
        }
        let entry = proc * self.stride + page;
        if self.table[entry] == 0 {
            if !present {
                return false;
            }
            self.table[entry] =
                u32::try_from(self.pool.len()).expect("presence page pool outgrew u32 indices");
            self.pool.push(EMPTY_PAGE);
        }
        let word = &mut self.pool[self.table[entry] as usize][idx % PAGE_VARS / 64];
        let bit = 1u64 << (idx % 64);
        let flipped = (*word & bit != 0) != present;
        if flipped {
            *word ^= bit;
        }
        flipped
    }

    /// Widen every processor's table row to at least `min_stride` pages.
    fn restride(&mut self, min_stride: usize) {
        let stride = min_stride.max(2 * self.stride);
        let mut table = vec![0; self.nprocs * stride];
        for (new, old) in table
            .chunks_exact_mut(stride)
            .zip(self.table.chunks_exact(self.stride))
        {
            new[..self.stride].copy_from_slice(old);
        }
        self.table = table;
        self.stride = stride;
    }

    /// Presence pages allocated so far.
    #[cfg(test)]
    fn pages(&self) -> usize {
        self.pool.len() - 1
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

    fn store(nprocs: usize, nvars: usize) -> VarStore {
        VarStore::new(nprocs, (0..nvars).map(|_| Arc::new(()) as Value).collect())
    }

    /// The paged bitset against a naive set of (processor, variable) pairs,
    /// over a seeded sequence that sets bits past the initial table (two
    /// re-strides), keeps returning to a small window of recycled slots, and
    /// clears bits on pages that were never allocated.
    #[test]
    fn paged_presence_matches_a_naive_set() {
        const NPROCS: usize = 7;
        let mut rng = ChaCha8Rng::seed_from_u64(0x9A6E_D0B1);
        let mut paged = store(NPROCS, 300);
        let mut naive: HashSet<(usize, u32)> = HashSet::new();
        assert_eq!(paged.stride, 1);
        // The variable range widens in stages so the table re-strides with
        // bits already set; half the draws stay inside the first 64 slots,
        // the ones a free list would recycle.
        for (stage, limit) in [400u32, 1_500, 9_000].into_iter().enumerate() {
            for _ in 0..4_000 {
                let proc = rng.gen_range(0..NPROCS as u32) as usize;
                let var = if rng.gen_range(0..2u32) == 0 {
                    rng.gen_range(0..64u32)
                } else {
                    rng.gen_range(0..limit)
                };
                let present = rng.gen_range(0..3u32) != 0;
                let flipped = paged.set_copy(proc, VarHandle(var), present);
                let expected = if present {
                    naive.insert((proc, var))
                } else {
                    naive.remove(&(proc, var))
                };
                assert_eq!(
                    flipped, expected,
                    "stage {stage}: ({proc}, {var}) := {present}"
                );
            }
            // Clearing a bit beyond the table or on an empty page is a no-op
            // that allocates nothing.
            let (stride, pages) = (paged.stride, paged.pages());
            assert!(!paged.set_copy(0, VarHandle(1_000_000), false));
            assert_eq!((paged.stride, paged.pages()), (stride, pages));
            for proc in 0..NPROCS {
                for var in 0..limit + 600 {
                    assert_eq!(
                        paged.has_copy(proc, VarHandle(var)),
                        naive.contains(&(proc, var)),
                        "stage {stage}: ({proc}, {var})"
                    );
                }
            }
        }
        assert!(paged.stride >= 9_000 / PAGE_VARS, "the table re-strided");
        assert!(paged.pages() <= NPROCS * paged.stride);
    }

    /// The regression the paged layout removes: with owners spread
    /// round-robin over the processors (the `uniform_64` shape), per-processor
    /// dense bitsets cost `P × V / 512` pages' worth — 131 072 here; paged,
    /// each variable costs at most its owner's page.
    #[test]
    fn round_robin_owners_allocate_pages_in_proportion_to_variables() {
        const NPROCS: usize = 4_096;
        const NVARS: usize = 16_384;
        let mut paged = store(NPROCS, NVARS);
        for var in 0..NVARS {
            assert!(paged.set_copy(var % NPROCS, VarHandle(var as u32), true));
        }
        assert!(paged.pages() <= NVARS, "{} pages", paged.pages());
        // A second copy in an already allocated page costs nothing.
        let pages = paged.pages();
        assert!(paged.set_copy(0, VarHandle(1), true));
        assert_eq!(paged.pages(), pages);
    }
}
