//! Global variables (shared data objects), their registry, and the variable
//! lifecycle.
//!
//! # Variable lifecycle
//!
//! A global variable goes through three stages:
//!
//! 1. **register** — [`VarRegistry::register`] (via [`crate::Diva::alloc`]
//!    before the run or [`crate::ProcCtx::alloc`] / [`crate::Op::Alloc`]
//!    during it) assigns a slot and returns the [`VarHandle`];
//! 2. **access** — reads, writes and locks through the handle; every layer
//!    that keeps per-variable state indexes it by the handle: the registry
//!    (size, generation, copy count, value), the policy (copy set and
//!    protocol state) and the lock table;
//! 3. **free** — `VarRegistry::free` (via [`crate::ProcCtx::free`] /
//!    [`crate::Op::Free`], which free a list of variables in order within
//!    one request) retires the slot: the policy tears down the variable's
//!    protocol state, the registry drops the value, and the slot goes onto
//!    a free list to be **recycled** by a later registration.
//!
//! # Handle reuse rules
//!
//! Because freed slots are recycled, a handle is only valid between its
//! registration and its free. The registry keeps a per-slot *generation*
//! counter (odd while the slot is live, even while it sits on the free list)
//! and `debug_assert`s it on every metadata lookup, so touching a freed slot
//! fails loudly in debug builds instead of silently reading a recycled
//! variable. Applications must not cache handles across a free point: the
//! Barnes-Hut application, for example, rebuilds its cell handle lists from
//! scratch every time step and retires the previous step's cells at the step
//! barrier (see `dm-apps`).

use dm_mesh::NodeId;
use std::any::Any;
use std::sync::Arc;

/// Handle to a DIVA global variable.
///
/// A global variable is a shared data object that every processor can read
/// and write through [`crate::ProcCtx`]. Handles are plain `u32` slot indices
/// and can therefore be stored inside other global variables (this is how the
/// Barnes-Hut application builds its shared tree "with pointers", as the
/// paper describes). Slots are recycled after `VarRegistry::free`, so a
/// stored handle is only meaningful while its variable is live — see the
/// module documentation for the reuse rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarHandle(pub u32);

impl VarHandle {
    /// The handle as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VarHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "var{}", self.0)
    }
}

/// The dynamically typed value of a global variable.
///
/// Values live in one logical table, the [`VarRegistry`] (the simulator
/// does not physically replicate payloads — only the *accounting* of copies
/// is distributed), so they are shared as `Arc<dyn Any>` and downcast by the
/// typed accessors of [`crate::ProcCtx`].
pub type Value = Arc<dyn Any + Send + Sync>;

/// One slot of the registry slab: everything the run knows of a variable
/// apart from its protocol state, which the policy keeps.
#[derive(Debug)]
struct Slot {
    /// Size of the object in bytes; determines the size of every data message
    /// that carries the variable.
    bytes: u32,
    /// Seqlock-style generation: odd while the slot holds a live variable,
    /// even while it sits on the free list. Bumped by both `register` and
    /// `free`, so every (re-)incarnation of a slot is distinguishable.
    gen: u32,
    /// Processors holding a copy. Who they are is the policy's copy set;
    /// the count moves with the policy's change notifications.
    copies: u32,
    /// The current value; `None` while the slot is free.
    value: Option<Value>,
}

// No larger than the registry record, value and copy count it replaced
// together: every live variable of a run pays for one.
const _: () = assert!(std::mem::size_of::<Slot>() == 32);

/// The run's variable table — a generational slab holding every variable's
/// size, generation, copy count and value.
///
/// Freed slots are recycled (LIFO) by later registrations, so the table and
/// the dense per-variable arrays of the policies stay bounded by the *live*
/// variable count instead of growing with the total number of
/// registrations. The table also tracks the live-variable and copy-count
/// high-water marks, which the runtime surfaces through
/// [`crate::RunReport`] so reclamation and replication are observable.
///
/// It has one owner during a run, the coordinator, which mutates it between
/// gather windows; the stepper borrows it (`&VarRegistry`) while a round is
/// gathered, the one window in which the coordinator is quiescent — that
/// borrow is what makes the read fast path race-free without a lock or an
/// atomic.
#[derive(Debug, Default)]
pub struct VarRegistry {
    slots: Vec<Slot>,
    /// Freed slot indices, recycled LIFO.
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    copy_high_water: u32,
    registered: u64,
    freed: u64,
}

impl VarRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new variable and return its handle. Recycles the most
    /// recently freed slot if one is available. The variable's one copy, at
    /// its creator `owner`, is counted; the slot holds no value until
    /// `set_value`.
    pub fn register(&mut self, bytes: u32, _owner: NodeId) -> VarHandle {
        let slot = Slot {
            bytes,
            gen: 1,
            copies: 1,
            value: None,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                let old = &mut self.slots[idx as usize];
                debug_assert_eq!(old.gen & 1, 0, "recycling a live slot");
                *old = Slot {
                    gen: old.gen + 1,
                    ..slot
                };
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() as u32 - 1
            }
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        self.copy_high_water = self.copy_high_water.max(1);
        self.registered += 1;
        VarHandle(idx)
    }

    /// Free a variable: its value is dropped and its slot goes onto the free
    /// list, to be recycled by a later [`VarRegistry::register`].
    ///
    /// # Panics
    /// Panics if the variable is not live (double free, or a stale handle to
    /// a recycled slot whose current incarnation was already freed); in debug
    /// builds also if a copy of it is still counted.
    pub(crate) fn free(&mut self, var: VarHandle) {
        let slot = self
            .slots
            .get_mut(var.index())
            .unwrap_or_else(|| panic!("free of unknown variable {var}"));
        assert_eq!(
            slot.gen & 1,
            1,
            "double free of {var} (slot generation {})",
            slot.gen
        );
        debug_assert_eq!(
            slot.copies, 0,
            "policy teardown left a copy of {var} counted"
        );
        slot.gen += 1;
        slot.value = None;
        self.free.push(var.0);
        self.live -= 1;
        self.freed += 1;
    }

    /// The slot of a live variable.
    ///
    /// In debug builds this `debug_assert`s that the slot's generation is
    /// live, so use of a stale handle fails loudly instead of silently
    /// touching a recycled slot.
    #[inline]
    fn slot(&self, var: VarHandle) -> &Slot {
        let slot = &self.slots[var.index()];
        debug_assert_eq!(
            slot.gen & 1,
            1,
            "stale handle {var}: slot generation {} is freed",
            slot.gen
        );
        slot
    }

    /// [`VarRegistry::slot`], mutably.
    #[inline]
    fn slot_mut(&mut self, var: VarHandle) -> &mut Slot {
        #[cfg(debug_assertions)]
        self.slot(var);
        &mut self.slots[var.index()]
    }

    /// Size of a live variable in bytes.
    pub(crate) fn bytes(&self, var: VarHandle) -> u32 {
        self.slot(var).bytes
    }

    /// Current value of `var`.
    ///
    /// # Panics
    /// If the slot holds no value: the variable was freed (in release builds
    /// too), or its value was never set.
    #[inline]
    pub(crate) fn value(&self, var: VarHandle) -> Value {
        match &self.slots[var.index()].value {
            Some(value) => value.clone(),
            None => panic!("stale handle {var}: the slot holds no value"),
        }
    }

    /// Overwrite the value of a live variable.
    pub(crate) fn set_value(&mut self, var: VarHandle, value: Value) {
        self.slot_mut(var).value = Some(value);
    }

    /// Count one copy of `var` more (`present`) or less, raising the
    /// copy-count high-water mark.
    ///
    /// # Panics
    /// In debug builds, if a copy is taken from a variable that has none.
    pub(crate) fn note_copy(&mut self, var: VarHandle, present: bool) {
        let slot = self.slot_mut(var);
        if present {
            slot.copies += 1;
        } else {
            debug_assert!(slot.copies > 0, "{var} lost a copy it did not have");
            slot.copies -= 1;
        }
        let copies = slot.copies;
        self.copy_high_water = self.copy_high_water.max(copies);
    }

    /// Highest number of simultaneously live variables seen so far.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Highest number of copies any variable had at once.
    pub(crate) fn copy_high_water(&self) -> u32 {
        self.copy_high_water
    }

    /// Total number of registrations (including recycled slots).
    pub(crate) fn registered_count(&self) -> u64 {
        self.registered
    }

    /// Total number of frees.
    pub(crate) fn freed_count(&self) -> u64 {
        self.freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl VarRegistry {
        /// Whether the slot of `var` currently holds a live variable.
        fn is_live(&self, var: VarHandle) -> bool {
            self.slots.get(var.index()).is_some_and(|s| s.gen & 1 == 1)
        }

        /// Current generation of the slot of `var` (odd = live, even = freed).
        fn generation(&self, var: VarHandle) -> u32 {
            self.slots[var.index()].gen
        }

        /// Number of slots ever created (live + freed).
        fn len(&self) -> usize {
            self.slots.len()
        }

        /// Number of processors holding a copy of `var`.
        pub(crate) fn copies(&self, var: VarHandle) -> u32 {
            self.slots[var.index()].copies
        }

        /// Drop the creator's copy, as a policy's teardown does, and free.
        fn release(&mut self, var: VarHandle) {
            self.note_copy(var, false);
            self.free(var);
        }
    }

    #[test]
    fn register_assigns_sequential_handles() {
        let mut r = VarRegistry::new();
        assert_eq!(r.len(), 0);
        let a = r.register(100, NodeId(0));
        let b = r.register(200, NodeId(3));
        assert_eq!(a, VarHandle(0));
        assert_eq!(b, VarHandle(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.bytes(a), 100);
        assert_eq!(r.bytes(b), 200);
        assert_eq!(a.to_string(), "var0");
    }

    #[test]
    fn registration_counts_the_creators_copy() {
        let mut r = VarRegistry::new();
        assert_eq!(r.copy_high_water(), 0);
        let a = r.register(8, NodeId(2));
        assert_eq!(r.copies(a), 1);
        assert_eq!(r.copy_high_water(), 1);
    }

    #[test]
    fn free_recycles_slots_lifo_and_tracks_high_water() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        let b = r.register(16, NodeId(1));
        let c = r.register(24, NodeId(2));
        assert_eq!(r.high_water(), 3);
        r.release(b);
        r.release(a);
        assert!(!r.is_live(a));
        assert!(!r.is_live(b));
        assert!(r.is_live(c));
        // LIFO recycling: a's slot first, then b's; len never grows.
        let d = r.register(32, NodeId(3));
        let e = r.register(40, NodeId(4));
        assert_eq!(d, a);
        assert_eq!(e, b);
        assert_eq!(r.len(), 3);
        assert_eq!(r.bytes(d), 32);
        assert_eq!(r.bytes(e), 40);
        assert_eq!(r.high_water(), 3);
        assert_eq!(r.registered_count(), 5);
        assert_eq!(r.freed_count(), 2);
    }

    #[test]
    fn recycling_resets_the_count_and_installs_the_new_value() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        r.set_value(a, Arc::new(1u64));
        r.note_copy(a, true);
        r.note_copy(a, true);
        for _ in 0..3 {
            r.note_copy(a, false);
        }
        r.free(a);
        let b = r.register(8, NodeId(1));
        assert_eq!(b, a, "slot is recycled");
        assert_eq!(r.copies(b), 1, "the new creator's copy only");
        r.set_value(b, Arc::new(2u64));
        assert_eq!(r.value(b).downcast_ref::<u64>(), Some(&2));
    }

    #[test]
    fn the_copy_high_water_mark_survives_frees_and_recycling() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        r.note_copy(a, true);
        r.note_copy(a, true);
        assert_eq!(r.copy_high_water(), 3);
        for _ in 0..3 {
            r.note_copy(a, false);
        }
        r.free(a);
        assert_eq!(r.copy_high_water(), 3);
        let b = r.register(8, NodeId(0));
        r.note_copy(b, true);
        assert_eq!(r.copies(b), 2);
        assert_eq!(r.copy_high_water(), 3);
    }

    #[test]
    fn generations_distinguish_slot_incarnations() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        let g1 = r.generation(a);
        assert_eq!(g1 & 1, 1, "live slot has an odd generation");
        r.release(a);
        assert_eq!(r.generation(a), g1 + 1);
        let b = r.register(8, NodeId(0));
        assert_eq!(b, a, "slot is recycled");
        assert_eq!(r.generation(b), g1 + 2, "new incarnation, new generation");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        r.release(a);
        r.free(a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "policy teardown left a copy")]
    fn freeing_a_counted_copy_panics() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        r.free(a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale handle")]
    fn stale_handle_metadata_lookup_fails_loudly() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        r.release(a);
        let _ = r.bytes(a);
    }

    /// Unlike the metadata lookups, which check in debug builds only, a
    /// freed slot's missing value fails in release builds too.
    #[test]
    #[should_panic(expected = "the slot holds no value")]
    fn a_freed_slot_holds_no_value() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        r.set_value(a, Arc::new(7u64));
        r.release(a);
        assert!(r.slots[a.index()].value.is_none());
        let _ = r.value(a);
    }
}
