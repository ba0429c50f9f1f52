//! The run's variable store: the current value of every global variable and
//! the number of processors holding a copy of it.
//!
//! The store is plain data with a single owner — the coordinator's
//! [`EnvState`](super::coordinator::EnvState), which mutates it through
//! `&mut`. The stepper only borrows it (`&VarStore`) while a round is
//! gathered, the one window in which the coordinator is quiescent; that
//! borrow is what makes the read fast path race-free without a lock or an
//! atomic.
//!
//! Who holds the copies is not recorded here: the policy's copy set is the
//! one record of that, and the fast path asks it
//! ([`Policy::copies`](crate::policy::Policy::copies)). The store keeps
//! only a count per variable slot, moved by the policy's change
//! notifications, for the replication-degree high-water mark.

use crate::var::{Value, VarHandle};
use std::sync::Arc;

/// Values and copy counts of one run.
pub(crate) struct VarStore {
    /// Current value of every global variable, indexed by slot.
    values: Vec<Value>,
    /// Processors holding a copy of every variable, indexed by slot.
    copies: Vec<u32>,
}

impl VarStore {
    /// A store holding the pre-run `values` (slot `i` is variable `i`), with
    /// no copy counted.
    pub(crate) fn new(values: Vec<Value>) -> Self {
        VarStore {
            copies: vec![0; values.len()],
            values,
        }
    }

    /// Count one copy of `var` more (`present`) or less; returns the new
    /// count.
    ///
    /// # Panics
    /// In debug builds, if a copy is taken from a variable that has none.
    pub(crate) fn note_copy(&mut self, var: VarHandle, present: bool) -> u32 {
        let count = &mut self.copies[var.index()];
        if present {
            *count += 1;
        } else {
            debug_assert!(*count > 0, "{var} lost a copy it did not have");
            *count -= 1;
        }
        *count
    }

    /// Number of processors holding a copy of `var`.
    pub(crate) fn copies(&self, var: VarHandle) -> u32 {
        self.copies[var.index()]
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
            self.copies.push(0);
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
