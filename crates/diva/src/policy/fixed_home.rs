//! The fixed-home (ownership) caching strategy — the CC-NUMA-like baseline.
//!
//! Every variable is assigned a *home* processor chosen uniformly at random.
//! The home plays the role of the main memory module of the classical
//! bus-based ownership scheme the paper describes:
//!
//! * at any time either one processor or the home ("main memory") owns the
//!   variable;
//! * a read by a processor without a valid copy asks the home; if a processor
//!   owns the variable, the home first fetches the value from the owner
//!   (ownership returns to the home), then forwards it to the reader, which
//!   keeps a cached copy;
//! * a write by a non-owner asks the home to invalidate every existing copy
//!   (one point-to-point invalidation message per copy holder, acknowledged
//!   back to the home — there is no snooping bus in a mesh), after which
//!   ownership is granted to the writer;
//! * reads and writes by a processor that already holds the necessary copy or
//!   ownership are served locally.
//!
//! Because the home serialises the distribution of copies and the collection
//! of acknowledgements, a heavily shared variable (e.g. the root cell of the
//! Barnes-Hut tree) makes both the home's links and its communication port a
//! bottleneck — exactly the effect the paper measures.

use super::tx_slab::TxSlab;
use super::{AccessKind, Copies, CopyView, Counter, Policy, PolicyEnv, PolicyMsg, TxId, VarGate};
use crate::holders::HolderLists;
use crate::var::VarHandle;
use dm_mesh::{AnyTopology, NodeId};
use dm_rng::ChaCha8Rng;

/// [`FhVar::owner`] while the home's main-memory copy is valid.
const NO_OWNER: u32 = u32::MAX;

/// Per-variable state of the fixed-home strategy. The copy set is the
/// variable's holder record in [`FixedHomePolicy::copies`].
#[derive(Debug)]
struct FhVar {
    home: NodeId,
    /// The processor that owns the variable (its cached value is the only
    /// up-to-date one), or [`NO_OWNER`]: the home's main-memory copy is
    /// valid.
    owner: u32,
    gate: VarGate,
}

// One per variable slot, registered or not.
const _: () = assert!(std::mem::size_of::<Option<FhVar>>() == 24);

impl FhVar {
    fn owner(&self) -> Option<NodeId> {
        (self.owner != NO_OWNER).then_some(NodeId(self.owner))
    }
}

/// Per-transaction protocol state.
#[derive(Debug, Clone, Copy)]
struct FhTx {
    proc: NodeId,
    pending_acks: u32,
}

/// The fixed-home / ownership data-management policy.
pub struct FixedHomePolicy {
    /// Number of processors of the network (homes are drawn uniformly from
    /// them — the policy needs nothing else from the topology).
    nprocs: usize,
    rng: ChaCha8Rng,
    vars: Vec<Option<FhVar>>,
    /// The processors holding a valid cached copy, one record per slot of
    /// `vars`. Listed in ascending order, so the invalidations of a write go
    /// out in a deterministic order.
    copies: HolderLists,
    /// The victims of the write being started, ascending; kept between
    /// writes so a write allocates nothing.
    victims: Vec<NodeId>,
    /// Open transactions; every `Fh*` message names its slot here.
    txs: TxSlab<FhTx>,
    /// Nodes whose data-management role failed, paired with the *live* node
    /// currently holding that role: when a successor itself fails, every
    /// redirect pointing at it is rewritten to the new successor, so lookup
    /// is a single scan and fail→restore→fail cycles cannot form a loop.
    /// Restoring a node removes its entry. Empty without a fault plan.
    failed: Vec<(NodeId, NodeId)>,
}

impl FixedHomePolicy {
    /// Create a fixed-home policy for a topology; `seed` drives the random
    /// home assignment.
    pub fn new_on(topo: &AnyTopology, seed: u64) -> Self {
        FixedHomePolicy {
            nprocs: topo.nodes(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x00F1_0ED0_0E00_u64),
            vars: Vec::new(),
            copies: HolderLists::new(topo.nodes(), 0),
            victims: Vec::new(),
            txs: TxSlab::default(),
            failed: Vec::new(),
        }
    }

    /// Resolve a drawn home through the re-homing redirects: the identity
    /// while no node failed (so the rng stream and all placements are
    /// untouched by the fault subsystem), otherwise the live inheritor of
    /// `h`'s role.
    fn live_home(&self, h: NodeId) -> NodeId {
        self.failed
            .iter()
            .find(|&&(v, _)| v == h)
            .map(|&(_, s)| s)
            .unwrap_or(h)
    }

    /// The processors currently holding a valid copy of `var`, in ascending
    /// order (for tests).
    #[cfg(test)]
    pub(crate) fn copy_set(&self, var: VarHandle) -> Vec<NodeId> {
        self.var(var); // an unknown variable panics
        let mut copies = Vec::new();
        self.copies
            .for_each(var.index(), |p| copies.push(NodeId(p)));
        copies
    }

    /// The current owner of `var` (`None` = the home's main memory).
    #[cfg(test)]
    pub(crate) fn owner_of(&self, var: VarHandle) -> Option<NodeId> {
        self.var(var).owner()
    }

    fn var(&self, var: VarHandle) -> &FhVar {
        self.vars
            .get(var.index())
            .and_then(|v| v.as_ref())
            .unwrap_or_else(|| panic!("unknown variable {var}"))
    }

    fn var_mut(&mut self, var: VarHandle) -> &mut FhVar {
        self.vars
            .get_mut(var.index())
            .and_then(|v| v.as_mut())
            .unwrap_or_else(|| panic!("unknown variable {var}"))
    }

    fn data_bytes(&self, env: &dyn PolicyEnv, var: VarHandle) -> u32 {
        env.var_bytes(var) + env.config().header_bytes
    }

    /// `(open transactions, slots ever created)` of the transaction slab.
    #[cfg(test)]
    pub(super) fn tx_slots(&self) -> (usize, usize) {
        (self.txs.open_count(), self.txs.slot_count())
    }

    /// Open a slot for `tx`, issued by `proc`.
    fn open_tx(&mut self, tx: TxId, proc: NodeId) -> u32 {
        let rec = FhTx {
            proc,
            pending_acks: 0,
        };
        let (slot, recycled) = self.txs.open(tx, || rec);
        *recycled = rec;
        slot
    }

    /// Start an admitted access.
    fn start_access(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    ) {
        let control = env.config().control_msg_bytes;
        match kind {
            AccessKind::Read => {
                debug_assert!(!self.copies.has(proc.index(), var.index()));
                let home = self.var(var).home;
                let slot = self.open_tx(tx, proc);
                env.send(proc, home, control, PolicyMsg::FhReadReq { tx, slot, var });
            }
            AccessKind::Write => {
                let v = self.var(var);
                if v.owner == proc.0 && self.copies.count(var.index()) == 1 {
                    // The writer owns the only copy: local write.
                    env.bump(Counter::WriteLocal, 1);
                    env.complete_at(tx, env.now() + env.config().local_access_ns());
                    self.finish_access(env, var, kind);
                    return;
                }
                env.bump(Counter::WriteRemote, 1);
                let home = v.home;
                let slot = self.open_tx(tx, proc);
                env.send(proc, home, control, PolicyMsg::FhWriteReq { tx, slot, var });
            }
        }
    }

    /// A read request arrived at the home.
    fn on_read_req(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let home = self.var(var).home;
        match self.var(var).owner() {
            Some(q) if q != home => {
                // Fetch the up-to-date value from the owner first.
                let control = env.config().control_msg_bytes;
                env.send(home, q, control, PolicyMsg::FhFetchOwner { tx, slot, var });
            }
            _ => {
                // Main memory (or the home's own cache) is valid.
                self.send_read_data(env, tx, slot, var);
            }
        }
    }

    /// The owner returns the value to the home; ownership moves back to main
    /// memory and the home forwards the value to the reader.
    fn on_owner_data(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        self.var_mut(var).owner = NO_OWNER;
        self.send_read_data(env, tx, slot, var);
    }

    fn send_read_data(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let home = self.var(var).home;
        let reader = self.txs.get_mut(slot, tx).proc;
        let bytes = self.data_bytes(env, var);
        env.send(home, reader, bytes, PolicyMsg::FhReadData { tx, slot, var });
    }

    /// The value arrived at the reader.
    fn on_read_data(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let reader = self.txs.get_mut(slot, tx).proc;
        if self.copies.set(reader.index(), var.index(), true) {
            env.bump(Counter::CopiesCreated, 1);
            env.set_presence(reader, var, true);
        }
        env.complete(tx);
        self.txs.close(slot, tx);
        self.finish_access(env, var, AccessKind::Read);
    }

    /// A write request arrived at the home: invalidate every other copy, then
    /// grant ownership to the writer.
    fn on_write_req(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let home = self.var(var).home;
        let writer = self.txs.get_mut(slot, tx).proc;
        // Update the bookkeeping now (writes are exclusive on this variable);
        // the invalidation/ack messages model the communication cost. The
        // victims are every copy holder and the owner, minus the writer,
        // which keeps its own copy if it has one.
        let idx = var.index();
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        self.copies.for_each(idx, |p| {
            if p != writer.0 {
                victims.push(NodeId(p));
            }
        });
        if let Some(q) = self.var(var).owner().filter(|&q| q != writer) {
            if let Err(pos) = victims.binary_search(&q) {
                victims.insert(pos, q);
            }
        }
        env.bump(Counter::Invalidations, victims.len() as u64);
        for &victim in &victims {
            if self.copies.set(victim.index(), idx, false) {
                env.set_presence(victim, var, false);
            }
        }
        if victims.is_empty() {
            self.send_write_grant(env, tx, slot, var, home);
        } else {
            self.txs.get_mut(slot, tx).pending_acks = victims.len() as u32;
            let control = env.config().control_msg_bytes;
            for &victim in &victims {
                env.send(home, victim, control, PolicyMsg::FhInval { tx, slot, var });
            }
        }
        self.victims = victims;
    }

    /// An invalidation arrived at a copy holder: acknowledge to the home.
    fn on_inval(
        &mut self,
        env: &mut dyn PolicyEnv,
        at: NodeId,
        tx: TxId,
        slot: u32,
        var: VarHandle,
    ) {
        let home = self.var(var).home;
        let control = env.config().control_msg_bytes;
        env.send(at, home, control, PolicyMsg::FhInvalAck { tx, slot, var });
    }

    /// An acknowledgement arrived at the home.
    fn on_inval_ack(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let home = self.var(var).home;
        let remaining = {
            let t = self.txs.get_mut(slot, tx);
            t.pending_acks -= 1;
            t.pending_acks
        };
        if remaining == 0 {
            self.send_write_grant(env, tx, slot, var, home);
        }
    }

    fn send_write_grant(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        home: NodeId,
    ) {
        let writer = self.txs.get_mut(slot, tx).proc;
        let control = env.config().control_msg_bytes;
        env.send(
            home,
            writer,
            control,
            PolicyMsg::FhWriteGrant { tx, slot, var },
        );
    }

    /// The grant arrived at the writer: it now owns the only copy.
    fn on_write_grant(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let writer = self.txs.get_mut(slot, tx).proc;
        self.var_mut(var).owner = writer.0;
        // The request invalidated every other copy; the writer may have kept
        // its own.
        if self.copies.set(writer.index(), var.index(), true) {
            env.bump(Counter::CopiesCreated, 1);
            env.set_presence(writer, var, true);
        }
        debug_assert_eq!(self.copies.count(var.index()), 1);
        env.complete(tx);
        self.txs.close(slot, tx);
        self.finish_access(env, var, AccessKind::Write);
    }

    /// Release the gate and start newly admitted transactions.
    fn finish_access(&mut self, env: &mut dyn PolicyEnv, var: VarHandle, kind: AccessKind) {
        let admitted = self.var_mut(var).gate.release(kind);
        for (tx, proc, kind) in admitted {
            self.start_access(env, tx, proc, var, kind);
        }
    }
}

impl Policy for FixedHomePolicy {
    fn register_var(&mut self, var: VarHandle, owner: NodeId, _bytes: u32) {
        let drawn = NodeId(self.rng.gen_range(0..self.nprocs as u32));
        let home = self.live_home(drawn);
        let idx = var.index();
        if self.vars.len() <= idx {
            self.vars.resize_with(idx + 1, || None);
        }
        debug_assert!(
            self.vars[idx].is_none() && self.copies.count(idx) == 0,
            "slot of {var} was recycled without a free_var teardown"
        );
        self.copies.set(owner.index(), idx, true);
        self.vars[idx] = Some(FhVar {
            home,
            owner: owner.0,
            gate: VarGate::new(),
        });
    }

    fn free_var(&mut self, env: &mut dyn PolicyEnv, var: VarHandle) {
        let v = self
            .vars
            .get_mut(var.index())
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("free of unknown variable {var}"));
        assert!(
            v.gate.is_idle(),
            "freeing {var} with active or queued transactions"
        );
        // The owner is in the copy set, so this notifies every copy once.
        self.copies
            .for_each(var.index(), |p| env.set_presence(NodeId(p), var, false));
        self.copies.clear(var.index());
    }

    fn copies(&self) -> CopyView<'_> {
        CopyView(Copies::Holders(&self.copies))
    }

    fn on_access(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    ) {
        if self.var_mut(var).gate.admit(tx, proc, kind) {
            self.start_access(env, tx, proc, var, kind);
        }
    }

    /// The variable's home.
    fn lock_manager(&self, var: VarHandle) -> NodeId {
        self.var(var).home
    }

    fn on_node_fail(&mut self, env: &mut dyn PolicyEnv, victim: NodeId, successor: NodeId) {
        // Fail-stop of the victim's data-management role: every home it
        // served moves to the successor, its owned values flush back to main
        // memory, its cached copies vanish. The migration traffic is real —
        // charged per variable through `charge_rehome`. Iteration is in
        // variable index order: charge order is send order, and send order
        // sets link contention.
        let control = env.config().control_msg_bytes;
        for idx in 0..self.vars.len() {
            let var = VarHandle(idx as u32);
            let Some(v) = self.vars[idx].as_mut() else {
                continue;
            };
            let was_home = v.home == victim;
            let was_owner = v.owner == victim.0;
            let had_copy = self.copies.set(victim.index(), idx, false);
            if !(was_home || was_owner || had_copy) {
                continue;
            }
            if was_owner {
                // The victim held the only up-to-date value: it flushes to
                // main memory (at the surviving home) on its way out.
                v.owner = NO_OWNER;
            }
            if was_home {
                v.home = successor;
            }
            let new_home = v.home;
            let owner_elsewhere = v.owner != NO_OWNER;
            if was_owner {
                let bytes = self.data_bytes(env, var);
                env.charge_rehome(victim, new_home, bytes);
            } else if was_home {
                // The directory record migrates; the main-memory value rides
                // along only when it is the valid copy.
                let bytes = if owner_elsewhere {
                    control
                } else {
                    self.data_bytes(env, var)
                };
                env.charge_rehome(victim, successor, bytes);
            }
            if had_copy {
                env.set_presence(victim, var, false);
            }
        }
        // Keep every redirect pointing at a live node: roles the victim
        // inherited from earlier failures move on to its successor.
        for entry in &mut self.failed {
            if entry.1 == victim {
                entry.1 = successor;
            }
        }
        self.failed.push((victim, successor));
    }

    fn on_node_restore(&mut self, victim: NodeId) {
        // The state it lost stays where it was re-homed; dropping the
        // redirect makes the node a fresh target for new registrations.
        self.failed.retain(|&(v, _)| v != victim);
    }

    fn on_message(&mut self, env: &mut dyn PolicyEnv, at: NodeId, msg: PolicyMsg) {
        match msg {
            PolicyMsg::FhReadReq { tx, slot, var } => self.on_read_req(env, tx, slot, var),
            PolicyMsg::FhFetchOwner { tx, slot, var } => {
                // The owner answers with the data.
                let home = self.var(var).home;
                let bytes = self.data_bytes(env, var);
                env.send(at, home, bytes, PolicyMsg::FhOwnerData { tx, slot, var });
            }
            PolicyMsg::FhOwnerData { tx, slot, var } => self.on_owner_data(env, tx, slot, var),
            PolicyMsg::FhReadData { tx, slot, var } => self.on_read_data(env, tx, slot, var),
            PolicyMsg::FhWriteReq { tx, slot, var } => self.on_write_req(env, tx, slot, var),
            PolicyMsg::FhInval { tx, slot, var } => self.on_inval(env, at, tx, slot, var),
            PolicyMsg::FhInvalAck { tx, slot, var } => self.on_inval_ack(env, tx, slot, var),
            PolicyMsg::FhWriteGrant { tx, slot, var } => self.on_write_grant(env, tx, slot, var),
            other => panic!("fixed-home policy received foreign message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mesh::Mesh;
    use std::mem::size_of;

    /// 16 384 variables with owners round-robin over the 64×64 mesh (the
    /// `uniform_64` shape) cost a 24-byte record and a 16-byte holder record
    /// each: no allocation of their own and no spill slot.
    #[test]
    fn fixed_home_state_is_a_record_and_a_holder_row() {
        const VARS: usize = 16_384;
        let topo = AnyTopology::from(Mesh::square(64));
        let mut policy = FixedHomePolicy::new_on(&topo, 1);
        for i in 0..VARS {
            policy.register_var(VarHandle(i as u32), NodeId((i % 4096) as u32), 64);
        }
        assert_eq!(policy.copies.spill_slots(), 0);
        let queues: usize = policy
            .vars
            .iter()
            .flatten()
            .map(|v| v.gate.heap_bytes())
            .sum();
        assert_eq!(queues, 0, "an uncontended gate allocated its queue");
        let bytes =
            policy.vars.capacity() * size_of::<Option<FhVar>>() + policy.copies.heap_bytes();
        assert!(bytes <= VARS * 40, "{bytes} bytes for {VARS} variables");
        assert_eq!(policy.copy_set(VarHandle(4097)), [NodeId(1)]);
        assert_eq!(policy.owner_of(VarHandle(4097)), Some(NodeId(1)));
    }
}
