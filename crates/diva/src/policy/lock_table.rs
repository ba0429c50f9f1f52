//! Distributed locks on global variables.
//!
//! The paper states that the DIVA library implements locking (and barriers)
//! with "elegant algorithms that use access trees" but gives no further
//! detail. We model each lock as a FIFO queue managed at a single *manager
//! node* — the embedded root of the variable's access tree for the
//! access-tree strategy, the variable's home for the fixed-home strategy
//! ([`Policy::lock_manager`](super::Policy::lock_manager)). The node that
//! already anchors a variable's directory is the simplest stand-in for the
//! unpublished algorithm that still sends every lock operation through the
//! network. Requests, grants and releases are real simulated messages, so
//! lock contention produces network traffic and serialisation at the
//! manager, which is the behaviour that matters for the Barnes-Hut
//! tree-building phase.
//!
//! The runtime owns the one table of a run; the policies never see it.

use super::{Counter, PolicyEnv, PolicyMsg, TxId};
use crate::fasthash::FastMap;
use crate::var::VarHandle;
use dm_mesh::NodeId;
use std::collections::VecDeque;

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<NodeId>,
    /// Waiting requests: (transaction, requesting processor).
    queue: VecDeque<(TxId, NodeId)>,
}

/// The lock of every variable, whichever strategy manages its copies.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: FastMap<VarHandle, LockState>,
}

impl LockTable {
    /// Create an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A processor wants to acquire the lock of `var`, whose manager node is
    /// `manager`.
    pub fn acquire(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        manager: NodeId,
    ) {
        env.bump(Counter::Locks, 1);
        if proc == manager {
            let state = self.locks.entry(var).or_default();
            if state.held_by.is_none() {
                state.held_by = Some(proc);
                env.complete(tx);
            } else {
                state.queue.push_back((tx, proc));
            }
        } else {
            let bytes = env.config().control_msg_bytes;
            env.send(proc, manager, bytes, PolicyMsg::LockReq { tx, var, proc });
        }
    }

    /// A processor releases the lock of `var` (manager node `manager`). The
    /// release completes for the caller as soon as the release message has
    /// left its communication port.
    pub fn release(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        manager: NodeId,
    ) {
        if proc == manager {
            self.do_release(env, var, manager);
            env.complete(tx);
        } else {
            let bytes = env.config().control_msg_bytes;
            let sender_free = env.send(proc, manager, bytes, PolicyMsg::LockRelease { var, proc });
            env.complete_at(tx, sender_free);
        }
    }

    /// Handle a lock protocol message arriving at mesh node `at`. Returns
    /// `true` if the message was a lock message (and has been handled).
    pub fn on_message(
        &mut self,
        env: &mut dyn PolicyEnv,
        at: NodeId,
        msg: &PolicyMsg,
        manager_of: impl Fn(VarHandle) -> NodeId,
    ) -> bool {
        match *msg {
            // In-flight lock traffic from a processor lost to a node failure
            // is dropped: its held locks were already force-released at
            // failure time, so a straggling `LockReq` would wedge the lock on
            // a dead holder and a straggling `LockRelease` would release a
            // lock the teardown already handed to the next waiter.
            PolicyMsg::LockReq { proc, .. } | PolicyMsg::LockRelease { proc, .. }
                if env.app_lost(proc) =>
            {
                true
            }
            PolicyMsg::LockReq { tx, var, proc } => {
                let state = self.locks.entry(var).or_default();
                if state.held_by.is_none() {
                    state.held_by = Some(proc);
                    let bytes = env.config().control_msg_bytes;
                    env.send(at, proc, bytes, PolicyMsg::LockGrant { tx, var });
                } else {
                    state.queue.push_back((tx, proc));
                }
                true
            }
            PolicyMsg::LockGrant { tx, .. } => {
                env.complete(tx);
                true
            }
            PolicyMsg::LockRelease { var, .. } => {
                let manager = manager_of(var);
                self.do_release(env, var, manager);
                true
            }
            _ => false,
        }
    }

    /// Release the lock of `var` at its manager and grant it to the next
    /// waiter, if any.
    fn do_release(&mut self, env: &mut dyn PolicyEnv, var: VarHandle, manager: NodeId) {
        let state = self.locks.entry(var).or_default();
        assert!(
            state.held_by.is_some(),
            "unlock of a lock that is not held ({var})"
        );
        state.held_by = None;
        if let Some((tx, proc)) = state.queue.pop_front() {
            state.held_by = Some(proc);
            if proc == manager {
                env.complete(tx);
            } else {
                let bytes = env.config().control_msg_bytes;
                env.send(manager, proc, bytes, PolicyMsg::LockGrant { tx, var });
            }
        }
    }

    /// Tear down the lock footprint of a processor lost to a node failure:
    /// purge its queued requests and force-release any lock it holds,
    /// granting the lock to the next surviving waiter. Unlike
    /// [`LockTable::evict`] this deliberately operates on held and contended
    /// entries — a dead holder must never wedge its waiters. Entries are
    /// visited in variable-handle order, because the order of the table's
    /// `FastMap` keys is arbitrary and the grants must not depend on it;
    /// every forced release is tallied through
    /// [`PolicyEnv::note_force_release`].
    pub(crate) fn force_release(
        &mut self,
        env: &mut dyn PolicyEnv,
        victim: NodeId,
        manager_of: impl Fn(VarHandle) -> NodeId,
    ) {
        let mut vars: Vec<VarHandle> = self.locks.keys().copied().collect();
        vars.sort_unstable();
        for var in vars {
            let state = self.locks.get_mut(&var).expect("key just listed");
            // The victim's waiting requests can never be granted — its
            // processor is gone — so they leave the queue silently.
            state.queue.retain(|&(_, proc)| proc != victim);
            if state.held_by != Some(victim) {
                continue;
            }
            env.note_force_release();
            let next = state.queue.pop_front();
            state.held_by = next.map(|(_, proc)| proc);
            if let Some((tx, proc)) = next {
                let manager = manager_of(var);
                if proc == manager {
                    env.complete(tx);
                } else {
                    let bytes = env.config().control_msg_bytes;
                    env.send(manager, proc, bytes, PolicyMsg::LockGrant { tx, var });
                }
            }
        }
    }

    /// Evict the lock entry of a variable that is being freed. The lock must
    /// be quiescent: freeing a variable whose lock is still held (which
    /// includes an unlock whose release message has not yet reached the
    /// manager) or contended is an application lifecycle bug and fails
    /// loudly — a silently dropped entry would otherwise be recreated for a
    /// recycled handle and corrupt an unrelated variable's lock.
    pub(crate) fn evict(&mut self, var: VarHandle) {
        if let Some(state) = self.locks.remove(&var) {
            assert!(
                state.held_by.is_none() && state.queue.is_empty(),
                "freeing {var} whose lock is held by {:?} with {} waiter(s)",
                state.held_by,
                state.queue.len()
            );
        }
    }
}
