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
//!    (registry, value store, policy copy sets, lock table) keeps
//!    per-variable state indexed by the handle;
//! 3. **free** — `VarRegistry::free` (via [`crate::ProcCtx::free`] /
//!    [`crate::Op::Free`], which free a list of variables in order within
//!    one request) retires the slot: the policy tears down the variable's
//!    protocol state, the value store drops the payload, and the slot goes
//!    onto a free list to be **recycled** by a later registration.
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
/// Values live in one logical store (the simulator does not physically
/// replicate payloads — only the *accounting* of copies is distributed), so
/// they are shared as `Arc<dyn Any>` and downcast by the typed accessors of
/// [`crate::ProcCtx`].
pub type Value = Arc<dyn Any + Send + Sync>;

/// Static metadata of a global variable.
#[derive(Debug, Clone)]
pub(crate) struct VarInfo {
    /// Size of the object in bytes; determines the size of every data message
    /// that carries the variable.
    pub bytes: u32,
    /// Processor that created the variable and initially holds its only copy.
    pub owner: NodeId,
}

/// One slot of the registry slab.
#[derive(Debug)]
struct Slot {
    info: VarInfo,
    /// Seqlock-style generation: odd while the slot holds a live variable,
    /// even while it sits on the free list. Bumped by both `register` and
    /// `free`, so every (re-)incarnation of a slot is distinguishable.
    gen: u32,
}

/// Registry of all global variables of a run — a generational slab.
///
/// Freed slots are recycled (LIFO) by later registrations, so the dense
/// per-variable arrays every layer keeps (value store and copy counts,
/// policy state vectors) stay bounded by the *live* variable count instead of
/// growing with the total number of registrations. The registry also tracks
/// the live-variable high-water mark, which the runtime surfaces through
/// [`crate::RunReport`] so reclamation is observable.
#[derive(Debug, Default)]
pub struct VarRegistry {
    slots: Vec<Slot>,
    /// Freed slot indices, recycled LIFO.
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    registered: u64,
    freed: u64,
}

impl VarRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new variable and return its handle. Recycles the most
    /// recently freed slot if one is available.
    pub fn register(&mut self, bytes: u32, owner: NodeId) -> VarHandle {
        let info = VarInfo { bytes, owner };
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert_eq!(slot.gen & 1, 0, "recycling a live slot");
                slot.gen += 1;
                slot.info = info;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot { info, gen: 1 });
                idx
            }
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        self.registered += 1;
        VarHandle(idx)
    }

    /// Free a variable: its slot goes onto the free list and will be recycled
    /// by a later [`VarRegistry::register`].
    ///
    /// # Panics
    /// Panics if the variable is not live (double free, or a stale handle to
    /// a recycled slot whose current incarnation was already freed).
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
        slot.gen += 1;
        self.free.push(var.0);
        self.live -= 1;
        self.freed += 1;
    }

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

    /// Metadata of a live variable.
    ///
    /// In debug builds this `debug_assert`s that the slot's generation is
    /// live, so use of a stale handle fails loudly instead of silently
    /// touching a recycled slot.
    pub(crate) fn info(&self, var: VarHandle) -> &VarInfo {
        &self.slot(var).info
    }

    /// Size of a variable in bytes (same staleness check as
    /// [`VarRegistry::info`]).
    pub(crate) fn bytes(&self, var: VarHandle) -> u32 {
        self.slot(var).info.bytes
    }

    /// Number of slots ever created (live + freed); the dense per-variable
    /// arrays of the runtime are sized by this.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no variable has been registered yet.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Highest number of simultaneously live variables seen so far.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
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

    impl VarRegistry {
        /// Whether the slot of `var` currently holds a live variable.
        fn is_live(&self, var: VarHandle) -> bool {
            self.slots.get(var.index()).is_some_and(|s| s.gen & 1 == 1)
        }

        /// Current generation of the slot of `var` (odd = live, even = freed).
        fn generation(&self, var: VarHandle) -> u32 {
            self.slots[var.index()].gen
        }
    }

    #[test]
    fn register_assigns_sequential_handles() {
        let mut r = VarRegistry::new();
        assert!(r.is_empty());
        let a = r.register(100, NodeId(0));
        let b = r.register(200, NodeId(3));
        assert_eq!(a, VarHandle(0));
        assert_eq!(b, VarHandle(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.bytes(a), 100);
        assert_eq!(r.info(b).owner, NodeId(3));
        assert_eq!(a.to_string(), "var0");
    }

    #[test]
    fn free_recycles_slots_lifo_and_tracks_high_water() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        let b = r.register(16, NodeId(1));
        let c = r.register(24, NodeId(2));
        assert_eq!(r.high_water(), 3);
        r.free(b);
        r.free(a);
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
        assert_eq!(r.info(e).owner, NodeId(4));
        assert_eq!(r.high_water(), 3);
        assert_eq!(r.registered_count(), 5);
        assert_eq!(r.freed_count(), 2);
    }

    #[test]
    fn generations_distinguish_slot_incarnations() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        let g1 = r.generation(a);
        assert_eq!(g1 & 1, 1, "live slot has an odd generation");
        r.free(a);
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
        r.free(a);
        r.free(a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale handle")]
    fn stale_handle_metadata_lookup_fails_loudly() {
        let mut r = VarRegistry::new();
        let a = r.register(8, NodeId(0));
        r.free(a);
        let _ = r.bytes(a);
    }
}
