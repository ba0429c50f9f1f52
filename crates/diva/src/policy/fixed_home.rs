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
use super::{AccessKind, Counter, LockTable, Policy, PolicyEnv, PolicyMsg, TxId, VarGate};
use crate::var::VarHandle;
use dm_mesh::{AnyTopology, NodeId};
use dm_rng::ChaCha8Rng;
use std::collections::HashMap;

/// Per-variable state of the fixed-home strategy.
#[derive(Debug)]
struct FhVar {
    home: NodeId,
    /// `Some(p)` — processor `p` owns the variable (its cached value is the
    /// only up-to-date one). `None` — the home's main-memory copy is valid.
    owner: Option<NodeId>,
    /// Processors holding a valid cached copy, in ascending order — so the
    /// invalidations of a write go out in a deterministic order by
    /// construction.
    copies: Vec<NodeId>,
    gate: VarGate,
}

/// Add `node` to a sorted copy set; `false` if it was already a member.
fn insert_copy(copies: &mut Vec<NodeId>, node: NodeId) -> bool {
    match copies.binary_search(&node) {
        Ok(_) => false,
        Err(pos) => {
            copies.insert(pos, node);
            true
        }
    }
}

/// Remove `node` from a sorted copy set; `false` if it was not a member.
fn remove_copy(copies: &mut Vec<NodeId>, node: NodeId) -> bool {
    match copies.binary_search(&node) {
        Ok(pos) => {
            copies.remove(pos);
            true
        }
        Err(_) => false,
    }
}

fn has_copy(copies: &[NodeId], node: NodeId) -> bool {
    copies.binary_search(&node).is_ok()
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
    /// Open transactions; every `Fh*` message names its slot here.
    txs: TxSlab<FhTx>,
    locks: LockTable,
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
            txs: TxSlab::default(),
            locks: LockTable::new(),
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

    /// The home processor of `var` (for tests).
    pub fn home_of(&self, var: VarHandle) -> NodeId {
        self.var(var).home
    }

    /// The processors currently holding a valid copy of `var`, in ascending
    /// order (for tests).
    pub fn copy_set(&self, var: VarHandle) -> &[NodeId] {
        &self.var(var).copies
    }

    /// The current owner of `var` (`None` = the home's main memory).
    pub fn owner_of(&self, var: VarHandle) -> Option<NodeId> {
        self.var(var).owner
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
                debug_assert!(!has_copy(&self.var(var).copies, proc));
                env.bump(Counter::ReadMiss, 1);
                let home = self.var(var).home;
                let slot = self.open_tx(tx, proc);
                env.bump(Counter::ControlMessages, 1);
                env.send(proc, home, control, PolicyMsg::FhReadReq { tx, slot, var });
            }
            AccessKind::Write => {
                let v = self.var(var);
                if v.owner == Some(proc) && v.copies.len() == 1 {
                    // The writer owns the only copy: local write.
                    env.bump(Counter::WriteLocal, 1);
                    env.complete_at(tx, env.now() + env.config().local_access_ns());
                    self.finish_access(env, var, kind);
                    return;
                }
                env.bump(Counter::WriteRemote, 1);
                let home = v.home;
                let slot = self.open_tx(tx, proc);
                env.bump(Counter::ControlMessages, 1);
                env.send(proc, home, control, PolicyMsg::FhWriteReq { tx, slot, var });
            }
        }
    }

    /// A read request arrived at the home.
    fn on_read_req(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let home = self.var(var).home;
        let owner = self.var(var).owner;
        match owner {
            Some(q) if q != home => {
                // Fetch the up-to-date value from the owner first.
                let control = env.config().control_msg_bytes;
                env.bump(Counter::ControlMessages, 1);
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
        self.var_mut(var).owner = None;
        self.send_read_data(env, tx, slot, var);
    }

    fn send_read_data(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let home = self.var(var).home;
        let reader = self.txs.get_mut(slot, tx).proc;
        let bytes = self.data_bytes(env, var);
        env.bump(Counter::DataMessages, 1);
        env.send(home, reader, bytes, PolicyMsg::FhReadData { tx, slot, var });
    }

    /// The value arrived at the reader.
    fn on_read_data(&mut self, env: &mut dyn PolicyEnv, tx: TxId, slot: u32, var: VarHandle) {
        let reader = self.txs.get_mut(slot, tx).proc;
        if insert_copy(&mut self.var_mut(var).copies, reader) {
            env.bump(Counter::CopiesCreated, 1);
        }
        env.set_presence(reader, var, true);
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
        // victims are every copy holder and the owner, minus the writer:
        // the copy set itself, which the writer's own copy (if any)
        // replaces.
        let victims = {
            let v = self.var_mut(var);
            let mut victims = std::mem::take(&mut v.copies);
            if remove_copy(&mut victims, writer) {
                v.copies.push(writer);
            }
            if let Some(q) = v.owner.filter(|&q| q != writer) {
                insert_copy(&mut victims, q);
            }
            victims
        };
        env.bump(Counter::Invalidations, victims.len() as u64);
        for &victim in &victims {
            env.set_presence(victim, var, false);
        }
        if victims.is_empty() {
            self.send_write_grant(env, tx, slot, var, home);
            return;
        }
        self.txs.get_mut(slot, tx).pending_acks = victims.len() as u32;
        let control = env.config().control_msg_bytes;
        for victim in victims {
            env.bump(Counter::ControlMessages, 1);
            env.send(home, victim, control, PolicyMsg::FhInval { tx, slot, var });
        }
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
        env.bump(Counter::ControlMessages, 1);
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
        env.bump(Counter::ControlMessages, 1);
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
        {
            let v = self.var_mut(var);
            v.owner = Some(writer);
            v.copies.clear();
            v.copies.push(writer);
        }
        env.set_presence(writer, var, true);
        env.bump(Counter::CopiesCreated, 1);
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
    fn name(&self) -> String {
        "fixed home".to_string()
    }

    fn register_var(&mut self, var: VarHandle, owner: NodeId, _bytes: u32) {
        let drawn = NodeId(self.rng.gen_range(0..self.nprocs as u32));
        let home = self.live_home(drawn);
        let idx = var.index();
        if self.vars.len() <= idx {
            self.vars.resize_with(idx + 1, || None);
        }
        debug_assert!(
            self.vars[idx].is_none(),
            "slot of {var} was recycled without a free_var teardown"
        );
        self.vars[idx] = Some(FhVar {
            home,
            owner: Some(owner),
            copies: vec![owner],
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
        // Every presence-true processor is in the copy set (the owner
        // included), so revoking the copies revokes all fast-path bits.
        for p in v.copies {
            env.set_presence(p, var, false);
        }
        self.locks.evict(var);
    }

    fn end_epoch(&mut self, _env: &mut dyn PolicyEnv) {
        while self.vars.last().is_some_and(Option::is_none) {
            self.vars.pop();
        }
    }

    fn on_access(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    ) {
        if kind == AccessKind::Read && has_copy(&self.var(var).copies, proc) {
            env.bump(Counter::ReadHit, 1);
            env.complete_at(tx, env.now() + env.config().local_access_ns());
            return;
        }
        if self.var_mut(var).gate.admit(tx, proc, kind) {
            self.start_access(env, tx, proc, var, kind);
        }
    }

    fn on_node_fail(&mut self, env: &mut dyn PolicyEnv, victim: NodeId, successor: NodeId) {
        // Fail-stop of the victim's data-management role: every home it
        // served moves to the successor, its owned values flush back to main
        // memory, its cached copies vanish. The migration traffic is real —
        // charged per variable through `charge_rehome`. Iteration is in
        // variable index order, so both backends charge identically.
        let control = env.config().control_msg_bytes;
        for idx in 0..self.vars.len() {
            let var = VarHandle(idx as u32);
            let Some(v) = self.vars[idx].as_mut() else {
                continue;
            };
            let was_home = v.home == victim;
            let was_owner = v.owner == Some(victim);
            let had_copy = remove_copy(&mut v.copies, victim);
            if !(was_home || was_owner || had_copy) {
                continue;
            }
            if was_owner {
                // The victim held the only up-to-date value: it flushes to
                // main memory (at the surviving home) on its way out.
                v.owner = None;
            }
            if was_home {
                v.home = successor;
            }
            let new_home = v.home;
            let owner_elsewhere = v.owner.is_some();
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

    fn on_app_loss(&mut self, env: &mut dyn PolicyEnv, victim: NodeId) {
        let homes: HashMap<VarHandle, NodeId> = self
            .locks
            .lock_vars()
            .into_iter()
            .map(|v| (v, self.var(v).home))
            .collect();
        let lookup = move |v: VarHandle| *homes.get(&v).expect("lock manager for unknown variable");
        self.locks.force_release(env, victim, lookup);
    }

    fn on_node_restore(&mut self, victim: NodeId) {
        // The state it lost stays where it was re-homed; dropping the
        // redirect makes the node a fresh target for new registrations.
        self.failed.retain(|&(v, _)| v != victim);
    }

    fn on_lock(&mut self, env: &mut dyn PolicyEnv, tx: TxId, proc: NodeId, var: VarHandle) {
        let manager = self.var(var).home;
        self.locks.acquire(env, tx, proc, var, manager);
    }

    fn on_unlock(&mut self, env: &mut dyn PolicyEnv, tx: TxId, proc: NodeId, var: VarHandle) {
        let manager = self.var(var).home;
        self.locks.release(env, tx, proc, var, manager);
    }

    fn on_message(&mut self, env: &mut dyn PolicyEnv, at: NodeId, msg: PolicyMsg) {
        match msg {
            PolicyMsg::FhReadReq { tx, slot, var } => self.on_read_req(env, tx, slot, var),
            PolicyMsg::FhFetchOwner { tx, slot, var } => {
                // The owner answers with the data.
                let home = self.var(var).home;
                let bytes = self.data_bytes(env, var);
                env.bump(Counter::DataMessages, 1);
                env.send(at, home, bytes, PolicyMsg::FhOwnerData { tx, slot, var });
            }
            PolicyMsg::FhOwnerData { tx, slot, var } => self.on_owner_data(env, tx, slot, var),
            PolicyMsg::FhReadData { tx, slot, var } => self.on_read_data(env, tx, slot, var),
            PolicyMsg::FhWriteReq { tx, slot, var } => self.on_write_req(env, tx, slot, var),
            PolicyMsg::FhInval { tx, slot, var } => self.on_inval(env, at, tx, slot, var),
            PolicyMsg::FhInvalAck { tx, slot, var } => self.on_inval_ack(env, tx, slot, var),
            PolicyMsg::FhWriteGrant { tx, slot, var } => self.on_write_grant(env, tx, slot, var),
            // Lock messages are shared between the policies. Only a release
            // asks for the manager (to grant the lock to the next waiter).
            lock @ (PolicyMsg::LockReq { .. }
            | PolicyMsg::LockGrant { .. }
            | PolicyMsg::LockRelease { .. }) => {
                let manager = match lock {
                    PolicyMsg::LockRelease { var, .. } => Some(self.var(var).home),
                    _ => None,
                };
                let manager_of = move |_| manager.expect("only a release asks for the manager");
                self.locks.on_message(env, at, &lock, manager_of);
            }
            other => panic!("fixed-home policy received foreign message {other:?}"),
        }
    }
}
