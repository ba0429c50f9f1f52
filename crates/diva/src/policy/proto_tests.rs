//! Protocol-level unit tests for the data-management policies, driven by a
//! mock environment that delivers messages instantly (but in FIFO order) and
//! records completions, presence updates and counters. Like the runtime,
//! the mock serves read hits from its presence bits and owns the lock table.

use super::access_tree::AccessTreePolicy;
use super::fixed_home::FixedHomePolicy;
use super::{AccessKind, Counter, LockTable, Policy, PolicyEnv, PolicyMsg, TxId, COUNTER_COUNT};
use crate::embedding::EmbeddingMode;
use crate::var::VarHandle;
use dm_engine::{MachineConfig, SimTime};
use dm_mesh::{AnyTopology, FatTree, Hypercube, Mesh, NodeId, Torus, TreeShape};
use std::collections::{HashMap, HashSet, VecDeque};

/// A deterministic mock of the runtime environment: messages are queued and
/// delivered in FIFO order with a fixed latency of 1 time unit per hop-free
/// message; no link model, no port model.
pub(super) struct MockEnv {
    topo: AnyTopology,
    cfg: MachineConfig,
    now: SimTime,
    queue: VecDeque<(NodeId, PolicyMsg)>,
    completed: Vec<(TxId, SimTime)>,
    presence: HashMap<(NodeId, VarHandle), bool>,
    counters: [u64; COUNTER_COUNT],
    var_sizes: HashMap<VarHandle, u32>,
    messages_sent: u64,
    /// `AtInval` / `AtInvalAck` messages among them.
    invals_sent: u64,
    inval_acks_sent: u64,
    bytes_sent: u64,
    rehomes: Vec<(NodeId, NodeId, u32)>,
    /// Processors whose application was lost to a node failure.
    lost: HashSet<NodeId>,
    /// Forced lock releases tallied through `note_force_release`.
    force_released: u64,
    /// Every variable's lock, driven the way the coordinator drives it.
    locks: LockTable,
}

impl MockEnv {
    pub(super) fn new_on(topo: AnyTopology) -> Self {
        MockEnv {
            topo,
            cfg: MachineConfig::parsytec_gcel(),
            now: 0,
            queue: VecDeque::new(),
            completed: Vec::new(),
            presence: HashMap::new(),
            counters: [0; COUNTER_COUNT],
            var_sizes: HashMap::new(),
            messages_sent: 0,
            invals_sent: 0,
            inval_acks_sent: 0,
            bytes_sent: 0,
            rehomes: Vec::new(),
            lost: HashSet::new(),
            force_released: 0,
            locks: LockTable::new(),
        }
    }

    /// Deliver queued messages until the protocol quiesces.
    fn run(&mut self, policy: &mut dyn Policy) {
        let mut steps = 0;
        while let Some((to, msg)) = self.queue.pop_front() {
            self.now += 1;
            self.deliver(policy, to, msg);
            steps += 1;
            assert!(steps < 1_000_000, "protocol does not quiesce");
        }
    }

    /// Hand a message to the lock table first and to the policy only if it
    /// is not a lock message, as the coordinator does.
    fn deliver(&mut self, policy: &mut dyn Policy, to: NodeId, msg: PolicyMsg) {
        let manager_of = |var| policy.lock_manager(var);
        if !self.with_locks(|locks, env| locks.on_message(env, to, &msg, manager_of)) {
            policy.on_message(self, to, msg);
        }
    }

    /// Run `f` on the lock table with the mock as its environment.
    fn with_locks<R>(&mut self, f: impl FnOnce(&mut LockTable, &mut Self) -> R) -> R {
        let mut locks = std::mem::take(&mut self.locks);
        let result = f(&mut locks, self);
        self.locks = locks;
        result
    }

    /// Register `var` and mark its owner's copy present, as the runtime
    /// does at allocation.
    fn register(&mut self, policy: &mut dyn Policy, var: VarHandle, owner: NodeId, bytes: u32) {
        policy.register_var(var, owner, bytes);
        self.presence.insert((owner, var), true);
    }

    /// Issue an access as the runtime does: a read of a present copy is a
    /// local hit that never reaches the policy.
    fn access(
        &mut self,
        policy: &mut dyn Policy,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    ) {
        if kind == AccessKind::Read && self.has_presence(proc, var) {
            self.counters[Counter::ReadHit.index()] += 1;
            self.completed.push((tx, self.now));
        } else {
            policy.on_access(self, tx, proc, var, kind);
        }
    }

    fn lock(&mut self, policy: &dyn Policy, tx: TxId, proc: NodeId, var: VarHandle) {
        let manager = policy.lock_manager(var);
        self.with_locks(|locks, env| locks.acquire(env, tx, proc, var, manager));
    }

    fn unlock(&mut self, policy: &dyn Policy, tx: TxId, proc: NodeId, var: VarHandle) {
        let manager = policy.lock_manager(var);
        self.with_locks(|locks, env| locks.release(env, tx, proc, var, manager));
    }

    /// The application processor of `victim` was lost: force-release its
    /// locks.
    fn app_loss(&mut self, policy: &dyn Policy, victim: NodeId) {
        let manager_of = |var| policy.lock_manager(var);
        self.with_locks(|locks, env| locks.force_release(env, victim, manager_of));
    }

    /// Retire `var`: the policy's teardown, then the lock's eviction.
    fn free(&mut self, policy: &mut dyn Policy, var: VarHandle) {
        policy.free_var(self, var);
        self.locks.evict(var);
    }

    fn completed_txs(&self) -> Vec<TxId> {
        self.completed.iter().map(|(t, _)| *t).collect()
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    fn has_presence(&self, proc: NodeId, var: VarHandle) -> bool {
        *self.presence.get(&(proc, var)).unwrap_or(&false)
    }
}

impl PolicyEnv for MockEnv {
    fn now(&self) -> SimTime {
        self.now
    }
    fn config(&self) -> &MachineConfig {
        &self.cfg
    }
    fn topology(&self) -> &AnyTopology {
        &self.topo
    }
    fn var_bytes(&self, var: VarHandle) -> u32 {
        *self.var_sizes.get(&var).unwrap_or(&64)
    }
    fn send(&mut self, _from: NodeId, to: NodeId, bytes: u32, msg: PolicyMsg) -> SimTime {
        self.messages_sent += 1;
        self.invals_sent += u64::from(matches!(msg, PolicyMsg::AtInval { .. }));
        self.inval_acks_sent += u64::from(matches!(msg, PolicyMsg::AtInvalAck { .. }));
        self.bytes_sent += bytes as u64;
        self.queue.push_back((to, msg));
        self.now
    }
    fn complete(&mut self, tx: TxId) {
        self.completed.push((tx, self.now));
    }
    fn complete_at(&mut self, tx: TxId, at: SimTime) {
        self.completed.push((tx, at));
    }
    fn set_presence(&mut self, proc: NodeId, var: VarHandle, present: bool) {
        self.presence.insert((proc, var), present);
    }
    fn bump(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }
    fn charge_rehome(&mut self, from: NodeId, to: NodeId, bytes: u32) {
        self.rehomes.push((from, to, bytes));
    }
    fn app_lost(&self, node: NodeId) -> bool {
        self.lost.contains(&node)
    }
    fn note_force_release(&mut self) {
        self.force_released += 1;
    }
}

fn setup_at(shape: TreeShape, side: usize) -> (AccessTreePolicy, MockEnv) {
    let mesh: AnyTopology = Mesh::square(side).into();
    let policy = AccessTreePolicy::new_on(&mesh, shape, EmbeddingMode::Modified, 7);
    let env = MockEnv::new_on(mesh);
    (policy, env)
}

fn setup_fh(side: usize) -> (FixedHomePolicy, MockEnv) {
    let mesh: AnyTopology = Mesh::square(side).into();
    let policy = FixedHomePolicy::new_on(&mesh, 7);
    let env = MockEnv::new_on(mesh);
    (policy, env)
}

// ---------------------------------------------------------------------------
// Access-tree strategy
// ---------------------------------------------------------------------------

#[test]
fn at_read_miss_creates_copies_on_the_tree_path() {
    let (mut policy, mut env) = setup_at(TreeShape::binary(), 4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(0), 64);
    policy.assert_copy_invariants(var);
    let reader = NodeId(15);
    policy.on_access(&mut env, TxId(1), reader, var, AccessKind::Read);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1)]);
    policy.assert_copy_invariants(var);
    // Both the owner's leaf and the reader's leaf must now hold copies, and
    // the component spans their tree path.
    let tree = policy.tree();
    let copies = policy.copy_set(var).unwrap();
    assert!(copies.contains(&tree.leaf_of(NodeId(0))));
    assert!(copies.contains(&tree.leaf_of(reader)));
    assert!(copies.len() >= tree.tree_distance(tree.leaf_of(NodeId(0)), tree.leaf_of(reader)));
    assert!(env.has_presence(reader, var));
    assert_eq!(env.counter(Counter::ReadMiss), 1);
    assert!(env.counter(Counter::DataMessages) >= 1);
}

#[test]
fn at_write_by_sole_owner_is_local() {
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(3), 256);
    policy.on_access(&mut env, TxId(9), NodeId(3), var, AccessKind::Write);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(9)]);
    assert_eq!(env.messages_sent, 0);
    assert_eq!(env.counter(Counter::WriteLocal), 1);
}

#[test]
fn at_write_after_shared_reads_invalidates_all_other_copies() {
    let (mut policy, mut env) = setup_at(TreeShape::binary(), 4);
    let var = VarHandle(0);
    let owner = NodeId(0);
    policy.register_var(var, owner, 128);
    // Several processors read the variable, creating a large copy component.
    for (i, reader) in [5u32, 10, 15, 12].iter().enumerate() {
        policy.on_access(
            &mut env,
            TxId(i as u64 + 1),
            NodeId(*reader),
            var,
            AccessKind::Read,
        );
        env.run(&mut policy);
        policy.assert_copy_invariants(var);
    }
    let copies_before = policy.copy_set(var).unwrap().len();
    assert!(copies_before > 2);
    // Now the owner writes: every other copy must be invalidated and exactly
    // the path from the nearest copy (the owner's own leaf) remains.
    policy.on_access(&mut env, TxId(100), owner, var, AccessKind::Write);
    env.run(&mut policy);
    assert!(env.completed_txs().contains(&TxId(100)));
    policy.assert_copy_invariants(var);
    let tree = policy.tree();
    let copies_after = policy.copy_set(var).unwrap();
    assert_eq!(copies_after.len(), 1);
    assert!(copies_after.contains(&tree.leaf_of(owner)));
    assert!(env.counter(Counter::Invalidations) >= (copies_before - 1) as u64);
    // Presence of the previous readers has been revoked.
    for reader in [5u32, 10, 15, 12] {
        assert!(!env.has_presence(NodeId(reader), var));
    }
    assert!(env.has_presence(owner, var));
}

#[test]
fn at_write_by_non_copy_holder_moves_the_copy_path_to_the_writer() {
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(0), 64);
    let writer = NodeId(15);
    policy.on_access(&mut env, TxId(1), writer, var, AccessKind::Write);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1)]);
    policy.assert_copy_invariants(var);
    let tree = policy.tree();
    let copies = policy.copy_set(var).unwrap();
    assert!(copies.contains(&tree.leaf_of(writer)));
    // Exactly the tree path from the nearest copy (the old owner's leaf, which
    // keeps its copy per the protocol: "u modifies its own copy") to the
    // writer's leaf holds copies after the write.
    let owner_leaf = tree.leaf_of(NodeId(0));
    let writer_leaf = tree.leaf_of(writer);
    assert!(copies.contains(&owner_leaf));
    assert_eq!(
        copies.len(),
        tree.tree_distance(owner_leaf, writer_leaf) + 1
    );
    assert!(env.has_presence(writer, var));
    assert_eq!(env.counter(Counter::WriteRemote), 1);
}

#[test]
fn at_copy_component_stays_connected_under_random_workload() {
    // Property-style test: a pseudo-random sequence of reads and writes from
    // random processors never breaks the connectivity invariant.
    for shape in [
        TreeShape::binary(),
        TreeShape::quad(),
        TreeShape::lk(2, 4),
        TreeShape::hex16(),
    ] {
        let (mut policy, mut env) = setup_at(shape, 8);
        let var = VarHandle(0);
        env.register(&mut policy, var, NodeId(17), 64);
        let mut state = 0x9E3779B97F4A7C15u64;
        for i in 0..200u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let proc = NodeId((state >> 33) as u32 % 64);
            let kind = if (state >> 7) & 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            env.access(&mut policy, TxId(i + 1), proc, var, kind);
            env.run(&mut policy);
            policy.assert_copy_invariants(var);
        }
        // Every submitted transaction completed exactly once.
        let mut seen = HashSet::new();
        for t in env.completed_txs() {
            assert!(seen.insert(t), "transaction {t:?} completed twice");
        }
        assert_eq!(seen.len(), 200);
    }
}

#[test]
fn at_flatter_trees_use_fewer_messages_per_read() {
    // A 16-ary tree has fewer levels than a 2-ary tree, so a single far read
    // needs fewer protocol messages (fewer startups) — the trade-off the
    // paper discusses.
    let mut msgs = Vec::new();
    for shape in [TreeShape::binary(), TreeShape::quad(), TreeShape::hex16()] {
        let (mut policy, mut env) = setup_at(shape, 16);
        let var = VarHandle(0);
        policy.register_var(var, NodeId(0), 1024);
        policy.on_access(&mut env, TxId(1), NodeId(255), var, AccessKind::Read);
        env.run(&mut policy);
        msgs.push(env.messages_sent);
    }
    assert!(
        msgs[0] > msgs[1],
        "2-ary should need more messages than 4-ary: {msgs:?}"
    );
    assert!(
        msgs[1] > msgs[2],
        "4-ary should need more messages than 16-ary: {msgs:?}"
    );
}

#[test]
fn at_lock_is_mutually_exclusive_and_fifo() {
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(0), 64);
    // Three processors request the lock; only the first succeeds immediately.
    env.lock(&policy, TxId(1), NodeId(1), var);
    env.lock(&policy, TxId(2), NodeId(2), var);
    env.lock(&policy, TxId(3), NodeId(3), var);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1)]);
    // Unlock by the holder grants to the next requester, in FIFO order.
    env.unlock(&policy, TxId(10), NodeId(1), var);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1), TxId(10), TxId(2)]);
    env.unlock(&policy, TxId(11), NodeId(2), var);
    env.run(&mut policy);
    assert!(env.completed_txs().contains(&TxId(3)));
    env.unlock(&policy, TxId(12), NodeId(3), var);
    env.run(&mut policy);
    assert_eq!(env.counter(Counter::Locks), 3);
}

#[test]
fn a_dead_lock_holder_never_wedges_its_waiters() {
    // The exact liveness hazard `LockTable::force_release` exists for:
    // processor 1 holds the lock when its node fails; processors 2 and 3
    // wait. The dead holder can never send its release (straggling lock
    // traffic from lost processors is dropped), the entry is held *and*
    // contended — `evict` would fail loudly — so without intervention the
    // waiters hang forever. The teardown must hand the lock to the next
    // waiter in FIFO order and tally the forced release.
    for at in [true, false] {
        let (mut policy, mut env): (Box<dyn Policy>, MockEnv) = if at {
            let (p, e) = setup_at(TreeShape::quad(), 4);
            (Box::new(p), e)
        } else {
            let (p, e) = setup_fh(4);
            (Box::new(p), e)
        };
        let var = VarHandle(0);
        policy.register_var(var, NodeId(0), 64);
        env.lock(policy.as_ref(), TxId(1), NodeId(1), var);
        env.lock(policy.as_ref(), TxId(2), NodeId(2), var);
        env.lock(policy.as_ref(), TxId(3), NodeId(3), var);
        env.run(policy.as_mut());
        assert_eq!(env.completed_txs(), vec![TxId(1)], "at={at}");

        // The holder's node fails mid-critical-section. A straggling
        // release from the dead processor must be dropped, not unlock on
        // its behalf.
        env.lost.insert(NodeId(1));
        env.deliver(
            policy.as_mut(),
            NodeId(0),
            PolicyMsg::LockRelease {
                var,
                proc: NodeId(1),
            },
        );
        env.run(policy.as_mut());
        assert_eq!(env.completed_txs(), vec![TxId(1)], "at={at}");
        assert_eq!(env.force_released, 0, "at={at}");

        // The teardown breaks the wedge: processor 2 is granted...
        env.app_loss(policy.as_ref(), NodeId(1));
        env.run(policy.as_mut());
        assert_eq!(env.completed_txs(), vec![TxId(1), TxId(2)], "at={at}");
        assert_eq!(env.force_released, 1, "at={at}");

        // ...and the normal hand-off chain resumes behind it.
        env.unlock(policy.as_ref(), TxId(10), NodeId(2), var);
        env.run(policy.as_mut());
        assert!(env.completed_txs().contains(&TxId(3)), "at={at}");
        env.unlock(policy.as_ref(), TxId(11), NodeId(3), var);
        env.run(policy.as_mut());
        // The entry is quiescent again: the teardown-on-free path (which
        // asserts exactly that) accepts it.
        env.free(policy.as_mut(), var);
    }
}

#[test]
fn at_write_invalidates_a_three_level_component_with_one_inval_and_one_ack_per_copy() {
    // The multicast plan is the BFS order of the copy component with every
    // node's children a contiguous run of it: each copy but the multicast
    // root must be reached exactly once and acknowledge exactly once —
    // whether the root is a leaf (the owner writes) or an interior node (a
    // processor without a copy writes, so the multicast also climbs).
    for writer in [NodeId(0), NodeId(3)] {
        let (mut policy, mut env) = setup_at(TreeShape::binary(), 4);
        let var = VarHandle(0);
        policy.register_var(var, NodeId(0), 128);
        for (i, reader) in [5u32, 10, 15, 12].iter().enumerate() {
            let tx = TxId(i as u64 + 1);
            policy.on_access(&mut env, tx, NodeId(*reader), var, AccessKind::Read);
            env.run(&mut policy);
        }
        let tree = policy.tree();
        let copies = policy.copy_set(var).unwrap();
        let levels: HashSet<usize> = copies.iter().map(|n| tree.level(n)).collect();
        assert!(levels.len() >= 3, "component spans {levels:?}");
        assert!(!copies.contains(&tree.leaf_of(NodeId(3))));
        let others = copies.len() as u64 - 1;

        policy.on_access(&mut env, TxId(100), writer, var, AccessKind::Write);
        env.run(&mut policy);
        assert!(env.completed_txs().contains(&TxId(100)));
        assert_eq!(env.invals_sent, others, "writer {writer:?}");
        assert_eq!(env.inval_acks_sent, others, "writer {writer:?}");
        assert_eq!(env.counter(Counter::Invalidations), others);
        policy.assert_copy_invariants(var);
        assert_eq!(policy.tx_slots().0, 0);
    }
}

// ---------------------------------------------------------------------------
// The transaction slab behind both strategies
// ---------------------------------------------------------------------------

/// Closed loop over a 4x4 mesh: every processor keeps one access to one of
/// four variables outstanding, issuing the next as soon as the previous one
/// completed, while messages are delivered one at a time in between.
fn run_closed_loop(policy: &mut dyn Policy, env: &mut MockEnv) {
    const NPROCS: usize = 16;
    const OPS_PER_PROC: u32 = 40;
    for v in 0..4u32 {
        env.register(policy, VarHandle(v), NodeId(5 * v), 64);
    }
    let mut state = 0xC105_ED10_u64;
    let mut issued = [0u32; NPROCS];
    // The transaction each processor waits for (`TxId(0)`: none).
    let mut waiting = [TxId(0); NPROCS];
    let mut next_tx = 0u64;
    let mut seen_completions = 0;
    loop {
        for p in 0..NPROCS {
            if waiting[p] == TxId(0) && issued[p] < OPS_PER_PROC {
                state = lcg(state);
                let var = VarHandle((state >> 33) as u32 % 4);
                let kind = if (state >> 7) & 1 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                next_tx += 1;
                issued[p] += 1;
                waiting[p] = TxId(next_tx);
                env.access(policy, TxId(next_tx), NodeId(p as u32), var, kind);
            }
        }
        let delivered = env.queue.pop_front().map(|(to, msg)| {
            env.now += 1;
            env.deliver(policy, to, msg);
        });
        for &(tx, _) in &env.completed[seen_completions..] {
            let p = waiting.iter().position(|&w| w == tx).expect("unissued");
            waiting[p] = TxId(0);
        }
        seen_completions = env.completed.len();
        if delivered.is_none() && waiting.iter().all(|&w| w == TxId(0)) {
            break;
        }
    }
    assert_eq!(env.completed.len(), NPROCS * OPS_PER_PROC as usize);
}

#[test]
fn a_closed_loop_never_holds_more_slots_than_processors() {
    let (mut at, mut env) = setup_at(TreeShape::quad(), 4);
    run_closed_loop(&mut at, &mut env);
    let (open, slots) = at.tx_slots();
    assert_eq!(open, 0, "access tree left transactions open");
    assert!((2..=16).contains(&slots), "access tree used {slots} slots");

    let (mut fh, mut env) = setup_fh(4);
    run_closed_loop(&mut fh, &mut env);
    let (open, slots) = fh.tx_slots();
    assert_eq!(open, 0, "fixed home left transactions open");
    assert!((2..=16).contains(&slots), "fixed home used {slots} slots");
}

/// Run a read miss of `TxId(1)` to completion and return a copy of its first
/// protocol message, which names the slot the transaction has closed since.
fn stale_message(policy: &mut dyn Policy, env: &mut MockEnv) -> (NodeId, PolicyMsg) {
    policy.register_var(VarHandle(0), NodeId(0), 64);
    policy.on_access(env, TxId(1), NodeId(15), VarHandle(0), AccessKind::Read);
    let stale = env.queue.front().cloned().expect("a read miss sends");
    env.run(policy);
    assert_eq!(env.completed_txs(), vec![TxId(1)]);
    stale
}

#[test]
#[should_panic(expected = "unknown transaction")]
fn at_message_of_a_finished_transaction_is_refused() {
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 4);
    let (to, stale) = stale_message(&mut policy, &mut env);
    policy.on_message(&mut env, to, stale);
}

#[test]
#[should_panic(expected = "unknown transaction")]
fn at_message_naming_a_slot_recycled_by_another_transaction_is_refused() {
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 4);
    let (to, stale) = stale_message(&mut policy, &mut env);
    // Another transaction recycles the slot: a bare index would now append
    // the stale message's tree node to *its* path.
    policy.on_access(
        &mut env,
        TxId(2),
        NodeId(10),
        VarHandle(0),
        AccessKind::Read,
    );
    assert_eq!(policy.tx_slots(), (1, 1));
    policy.on_message(&mut env, to, stale);
}

#[test]
#[should_panic(expected = "unknown transaction")]
fn fh_message_naming_a_slot_recycled_by_another_transaction_is_refused() {
    let (mut policy, mut env) = setup_fh(4);
    let (to, stale) = stale_message(&mut policy, &mut env);
    policy.on_access(
        &mut env,
        TxId(2),
        NodeId(10),
        VarHandle(0),
        AccessKind::Read,
    );
    assert_eq!(policy.tx_slots(), (1, 1));
    // The first message of a fixed-home read is relayed without a look at
    // the record; the reply the home then sends is what names the reader.
    policy.on_message(&mut env, to, stale);
    env.run(&mut policy);
}

// ---------------------------------------------------------------------------
// Fixed-home strategy
// ---------------------------------------------------------------------------

#[test]
fn fh_read_miss_fetches_from_owner_via_home() {
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    let owner = NodeId(6);
    policy.register_var(var, owner, 64);
    assert_eq!(policy.owner_of(var), Some(owner));
    let reader = NodeId(9);
    policy.on_access(&mut env, TxId(1), reader, var, AccessKind::Read);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1)]);
    // After the read, ownership is back at main memory and both processors
    // hold copies.
    let home = policy.lock_manager(var);
    let expected_owner = if home == owner { Some(owner) } else { None };
    assert_eq!(policy.owner_of(var), expected_owner);
    assert!(policy.copy_set(var).contains(&reader));
    assert!(policy.copy_set(var).contains(&owner));
    assert!(env.has_presence(reader, var));
    assert_eq!(env.counter(Counter::ReadMiss), 1);
}

#[test]
fn fh_write_invalidates_all_copies_and_transfers_ownership() {
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    let owner = NodeId(0);
    policy.register_var(var, owner, 64);
    // Three readers create copies.
    for (i, r) in [3u32, 7, 11].iter().enumerate() {
        policy.on_access(
            &mut env,
            TxId(i as u64 + 1),
            NodeId(*r),
            var,
            AccessKind::Read,
        );
        env.run(&mut policy);
    }
    assert_eq!(policy.copy_set(var).len(), 4);
    // Processor 7 writes.
    let writer = NodeId(7);
    policy.on_access(&mut env, TxId(50), writer, var, AccessKind::Write);
    env.run(&mut policy);
    assert!(env.completed_txs().contains(&TxId(50)));
    assert_eq!(policy.owner_of(var), Some(writer));
    assert_eq!(policy.copy_set(var).len(), 1);
    assert!(policy.copy_set(var).contains(&writer));
    assert!(env.counter(Counter::Invalidations) >= 3);
    assert!(!env.has_presence(NodeId(3), var));
    assert!(!env.has_presence(NodeId(11), var));
    assert!(env.has_presence(writer, var));
}

#[test]
fn fh_owner_write_after_exclusive_acquisition_is_local() {
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(5), 64);
    // Processor 5 owns the only copy, so its writes stay local.
    policy.on_access(&mut env, TxId(1), NodeId(5), var, AccessKind::Write);
    env.run(&mut policy);
    assert_eq!(env.messages_sent, 0);
    assert_eq!(env.counter(Counter::WriteLocal), 1);
    // After another processor reads, a second write by 5 is remote again.
    policy.on_access(&mut env, TxId(2), NodeId(9), var, AccessKind::Read);
    env.run(&mut policy);
    policy.on_access(&mut env, TxId(3), NodeId(5), var, AccessKind::Write);
    env.run(&mut policy);
    assert_eq!(env.counter(Counter::WriteRemote), 1);
    assert_eq!(policy.copy_set(var).len(), 1);
}

#[test]
fn fh_read_write_sequence_matches_ownership_scheme_counts() {
    // Write-after-read from the same processor: the read moves a copy to the
    // processor, the write invalidates the other copies — the "read before
    // write" pattern the paper notes makes the fixed-home strategy behave
    // like a P-ary access tree.
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(1), 64);
    let p = NodeId(14);
    policy.on_access(&mut env, TxId(1), p, var, AccessKind::Read);
    env.run(&mut policy);
    policy.on_access(&mut env, TxId(2), p, var, AccessKind::Write);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1), TxId(2)]);
    assert_eq!(policy.owner_of(var), Some(p));
    assert_eq!(policy.copy_set(var), [p]);
}

#[test]
fn fh_lock_contention_is_serialised_at_the_home() {
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(0), 64);
    env.lock(&policy, TxId(1), NodeId(4), var);
    env.lock(&policy, TxId(2), NodeId(8), var);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1)]);
    env.unlock(&policy, TxId(3), NodeId(4), var);
    env.run(&mut policy);
    assert!(env.completed_txs().contains(&TxId(2)));
}

// ---------------------------------------------------------------------------
// Variable lifecycle (free / epoch teardown)
// ---------------------------------------------------------------------------

#[test]
fn at_free_tears_down_copies_presence_and_locks() {
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(0), 64);
    // Spread copies over the tree and take/release the lock so a lock entry
    // exists.
    for (i, reader) in [5u32, 10, 15].iter().enumerate() {
        policy.on_access(
            &mut env,
            TxId(i as u64 + 1),
            NodeId(*reader),
            var,
            AccessKind::Read,
        );
        env.run(&mut policy);
    }
    env.lock(&policy, TxId(50), NodeId(5), var);
    env.run(&mut policy);
    env.unlock(&policy, TxId(51), NodeId(5), var);
    env.run(&mut policy);
    assert!(policy.copy_set(var).unwrap().len() > 1);

    env.free(&mut policy, var);
    assert!(policy.copy_set(var).is_none(), "copy set must be torn down");
    for p in 0..16u32 {
        assert!(
            !env.has_presence(NodeId(p), var),
            "presence of processor {p} must be revoked"
        );
    }
    // The slot can be recycled by a new registration (a fresh incarnation
    // reusing the pooled copy-set allocation).
    policy.register_var(var, NodeId(9), 32);
    policy.assert_copy_invariants(var);
    assert_eq!(policy.copy_set(var).unwrap().len(), 1);
}

#[test]
fn fh_free_tears_down_copies_and_presence() {
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(2), 64);
    for (i, r) in [3u32, 7, 11].iter().enumerate() {
        policy.on_access(
            &mut env,
            TxId(i as u64 + 1),
            NodeId(*r),
            var,
            AccessKind::Read,
        );
        env.run(&mut policy);
    }
    assert_eq!(policy.copy_set(var).len(), 4);
    policy.free_var(&mut env, var);
    for p in 0..16u32 {
        assert!(!env.has_presence(NodeId(p), var));
    }
    // Recycled incarnation starts from a clean single-copy state.
    policy.register_var(var, NodeId(5), 64);
    assert_eq!(policy.copy_set(var).len(), 1);
    assert_eq!(policy.owner_of(var), Some(NodeId(5)));
}

/// The lifecycle property loop: a pseudo-random interleaving of register,
/// read/write, lock/unlock and free over a pool of slots, for the access-tree
/// shapes and the fixed-home strategy. After every free the policy must have
/// torn down the copy set and every presence bit; after every re-register the
/// recycled slot must start from a clean single-copy state.
#[test]
fn lifecycle_property_loop_over_all_policies() {
    enum P {
        At(AccessTreePolicy),
        Fh(FixedHomePolicy),
    }
    impl P {
        fn as_policy(&mut self) -> &mut dyn Policy {
            match self {
                P::At(p) => p,
                P::Fh(p) => p,
            }
        }
        fn copies_len(&self, var: VarHandle) -> usize {
            match self {
                P::At(p) => p.copy_set(var).map(|c| c.len()).unwrap_or(0),
                P::Fh(p) => p.copy_set(var).len(),
            }
        }
        fn check_invariants(&self, var: VarHandle) {
            if let P::At(p) = self {
                p.assert_copy_invariants(var);
            }
        }
    }

    let setups: Vec<P> = vec![
        P::At(AccessTreePolicy::new_on(
            &Mesh::square(4).into(),
            TreeShape::binary(),
            EmbeddingMode::Modified,
            7,
        )),
        P::At(AccessTreePolicy::new_on(
            &Mesh::square(4).into(),
            TreeShape::quad(),
            EmbeddingMode::Modified,
            7,
        )),
        P::At(AccessTreePolicy::new_on(
            &Mesh::square(4).into(),
            TreeShape::lk(2, 4),
            EmbeddingMode::Modified,
            7,
        )),
        P::Fh(FixedHomePolicy::new_on(&Mesh::square(4).into(), 7)),
    ];
    for mut p in setups {
        let mut env = MockEnv::new_on(Mesh::square(4).into());
        const SLOTS: u32 = 8;
        // live[s] = Some(locked_by) once slot s is registered.
        let mut live: Vec<Option<Option<NodeId>>> = vec![None; SLOTS as usize];
        let mut state = 0xD1CE_5EED_u64;
        let mut tx = 0u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = ((state >> 33) % u64::from(SLOTS)) as usize;
            let var = VarHandle(slot as u32);
            let proc = NodeId((state >> 17) as u32 % 16);
            tx += 1;
            match (state >> 7) % 6 {
                // Register (if free) — recycles the slot.
                0 => {
                    if live[slot].is_none() {
                        env.register(p.as_policy(), var, proc, 64);
                        live[slot] = Some(None);
                        assert_eq!(p.copies_len(var), 1, "fresh incarnation");
                    }
                }
                // Free (if live and unlocked) — full teardown.
                1 => {
                    if live[slot] == Some(None) {
                        env.free(p.as_policy(), var);
                        live[slot] = None;
                        for q in 0..16u32 {
                            assert!(
                                !env.has_presence(NodeId(q), var),
                                "presence left behind after free"
                            );
                        }
                    }
                }
                // Read or write.
                2 | 3 => {
                    if live[slot].is_some() {
                        let kind = if (state >> 13) & 1 == 0 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        env.access(p.as_policy(), TxId(tx), proc, var, kind);
                        env.run(p.as_policy());
                        p.check_invariants(var);
                        assert!(p.copies_len(var) >= 1);
                    }
                }
                // Lock.
                4 => {
                    if live[slot] == Some(None) {
                        env.lock(p.as_policy(), TxId(tx), proc, var);
                        env.run(p.as_policy());
                        live[slot] = Some(Some(proc));
                    }
                }
                // Unlock (frees the slot for future eviction).
                _ => {
                    if let Some(Some(holder)) = live[slot] {
                        env.unlock(p.as_policy(), TxId(tx), holder, var);
                        env.run(p.as_policy());
                        live[slot] = Some(None);
                    }
                }
            }
        }
        // Drain: unlock and free everything that is still live — the final
        // lock-table eviction must find every entry quiescent.
        for slot in 0..SLOTS as usize {
            let var = VarHandle(slot as u32);
            if let Some(Some(holder)) = live[slot] {
                env.unlock(p.as_policy(), TxId(9000 + slot as u64), holder, var);
                env.run(p.as_policy());
                live[slot] = Some(None);
            }
            if live[slot].is_some() {
                env.free(p.as_policy(), var);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Node failure / re-homing
// ---------------------------------------------------------------------------

fn topologies16() -> Vec<AnyTopology> {
    vec![
        Mesh::square(4).into(),
        Torus::square(4).into(),
        Hypercube::new(4).into(),
        FatTree::new(16).into(),
    ]
}

fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

#[test]
fn fh_node_fail_migrates_homes_ownership_and_copies() {
    for topo in topologies16() {
        let name = topo.name();
        let mut policy = FixedHomePolicy::new_on(&topo, 7);
        let mut env = MockEnv::new_on(topo.clone());
        for i in 0..8u32 {
            env.register(&mut policy, VarHandle(i), NodeId((2 * i) % 16), 64);
        }
        // Spread copies and move some ownership around first.
        let mut tx = 0u64;
        for i in 0..8u32 {
            let var = VarHandle(i);
            tx += 1;
            env.access(
                &mut policy,
                TxId(tx),
                NodeId((i + 5) % 16),
                var,
                AccessKind::Read,
            );
            env.run(&mut policy);
            if i % 2 == 0 {
                tx += 1;
                env.access(
                    &mut policy,
                    TxId(tx),
                    NodeId((i + 9) % 16),
                    var,
                    AccessKind::Write,
                );
                env.run(&mut policy);
            }
        }
        // Fail the node that is home to variable 0.
        let victim = policy.lock_manager(VarHandle(0));
        let successor = NodeId((victim.0 + 1) % 16);
        policy.on_node_fail(&mut env, victim, successor);
        for i in 0..8u32 {
            let var = VarHandle(i);
            assert_ne!(
                policy.lock_manager(var),
                victim,
                "{name}: home must migrate"
            );
            assert_ne!(
                policy.owner_of(var),
                Some(victim),
                "{name}: ownership must not survive"
            );
            assert!(
                !policy.copy_set(var).contains(&victim),
                "{name}: copies must be dropped"
            );
            assert!(
                !env.has_presence(victim, var),
                "{name}: presence must be revoked"
            );
        }
        assert!(
            !env.rehomes.is_empty(),
            "{name}: the victim was a home — migration traffic must be charged"
        );
        assert!(env
            .rehomes
            .iter()
            .all(|&(from, to, _)| from == victim && to != victim));
        // Newly registered variables never home at the fallen node.
        for i in 8..40u32 {
            env.register(&mut policy, VarHandle(i), NodeId(0), 64);
            assert_ne!(policy.lock_manager(VarHandle(i)), victim, "{name}");
        }
        // The protocol still serves every variable — including requests from
        // the victim's (surviving) application processor.
        for i in 0..40u32 {
            tx += 1;
            let reader = if i % 4 == 0 {
                victim
            } else {
                NodeId((i + 3) % 16)
            };
            env.access(
                &mut policy,
                TxId(tx),
                reader,
                VarHandle(i % 8),
                AccessKind::Read,
            );
            env.run(&mut policy);
        }
    }
}

#[test]
fn at_node_fail_preserves_copy_invariants_on_every_topology() {
    let mut total_rehomes = 0usize;
    for topo in topologies16() {
        for shape in [TreeShape::binary(), TreeShape::quad()] {
            let name = format!("{} / {}", topo.name(), shape.name());
            let mut policy = AccessTreePolicy::new_on(&topo, shape, EmbeddingMode::Modified, 7);
            let mut env = MockEnv::new_on(topo.clone());
            for i in 0..6u32 {
                env.register(&mut policy, VarHandle(i), NodeId((3 * i) % 16), 64);
            }
            let mut state = 0xFA17_5EED_u64;
            let mut tx = 0u64;
            let mut alive = [true; 16];
            for (round, &victim) in [NodeId(5), NodeId(6), NodeId(0)].iter().enumerate() {
                // A burst of pseudo-random accesses (victims of earlier
                // rounds keep issuing: the application processor survives a
                // DM-role failure)...
                for _ in 0..40 {
                    state = lcg(state);
                    let var = VarHandle((state >> 33) as u32 % 6);
                    let proc = NodeId((state >> 17) as u32 % 16);
                    let kind = if (state >> 7) & 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    tx += 1;
                    env.access(&mut policy, TxId(tx), proc, var, kind);
                    env.run(&mut policy);
                    policy.assert_copy_invariants(var);
                }
                // ...then one more node loses its data-management role.
                alive[victim.index()] = false;
                let successor = {
                    let mut s = (victim.index() + 1) % 16;
                    while !alive[s] {
                        s = (s + 1) % 16;
                    }
                    NodeId(s as u32)
                };
                policy.on_node_fail(&mut env, victim, successor);
                let leaf = policy.tree().leaf_of(victim);
                for i in 0..6u32 {
                    let var = VarHandle(i);
                    policy.assert_copy_invariants(var);
                    assert!(
                        !policy.copy_set(var).unwrap().contains(&leaf),
                        "{name} round {round}: the victim's leaf copy must be dropped"
                    );
                    assert!(!env.has_presence(victim, var), "{name} round {round}");
                }
                // Locks still work (the manager may just have re-homed).
                tx += 1;
                let locker = TxId(tx);
                env.lock(&policy, locker, NodeId(2), VarHandle(0));
                env.run(&mut policy);
                tx += 1;
                env.unlock(&policy, TxId(tx), NodeId(2), VarHandle(0));
                env.run(&mut policy);
            }
            total_rehomes += env.rehomes.len();
        }
    }
    assert!(
        total_rehomes > 0,
        "across 8 configurations and 3 failures each, some directory state must have migrated"
    );
}

#[test]
fn at_sole_leaf_copy_climbs_to_the_parent_when_its_node_fails() {
    let mesh: AnyTopology = Mesh::square(4).into();
    let mut policy = AccessTreePolicy::new_on(&mesh, TreeShape::quad(), EmbeddingMode::Modified, 7);
    let mut env = MockEnv::new_on(mesh);
    let var = VarHandle(0);
    let victim = NodeId(9);
    // The victim's leaf holds the only copy.
    policy.register_var(var, victim, 64);
    let leaf = policy.tree().leaf_of(victim);
    assert_eq!(policy.copy_set(var).unwrap().len(), 1);
    assert!(policy.copy_set(var).unwrap().contains(&leaf));

    policy.on_node_fail(&mut env, victim, NodeId(10));
    policy.assert_copy_invariants(var);
    let copies = policy.copy_set(var).unwrap();
    assert!(
        !copies.contains(&leaf),
        "the failed leaf must not keep the copy"
    );
    let parent = policy.tree().parent(leaf).unwrap();
    assert!(
        copies.contains(&parent),
        "the value must climb to the parent"
    );
    // The climb is charged as migration traffic, not regular protocol load.
    // Exactly one data-sized migration (the climbing value) leaves the
    // victim; the root's directory role may add a small control-sized
    // charge if it happens to embed there.
    assert!(env.rehomes.iter().all(|r| r.0 == victim));
    let data: Vec<_> = env.rehomes.iter().filter(|r| r.2 >= 64).collect();
    assert_eq!(data.len(), 1, "rehomes: {:?}", env.rehomes);
    assert_eq!(env.messages_sent, 0);
}

#[test]
fn fh_many_readers_make_the_home_a_message_hotspot() {
    // Every read miss routes through the home — the congestion offset the
    // paper attributes to the fixed-home strategy for hot variables.
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    policy.register_var(var, NodeId(0), 1024);
    for i in 1..16u32 {
        policy.on_access(&mut env, TxId(i as u64), NodeId(i), var, AccessKind::Read);
        env.run(&mut policy);
    }
    // 15 read misses, each at least request + data = 2 messages, and the
    // first one also fetches from the owner.
    assert!(env.messages_sent >= 32);
    assert_eq!(env.counter(Counter::ReadMiss), 15);
    assert_eq!(policy.copy_set(var).len(), 16);
}
