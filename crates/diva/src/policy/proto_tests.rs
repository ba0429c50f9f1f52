//! The mock environment the policy tests run on, and the protocol tests that
//! `spec.rs`'s sequential specification does not subsume: locks, a dead lock
//! holder, transactions overlapping in flight (slots and plans), stale
//! messages, node failures, and message counts compared across tree shapes.
//! [`MockEnv`] delivers messages instantly, in FIFO order, and logs every
//! send, completion and counter. Like the runtime, it serves read hits from
//! the policy's [`CopyView`] and owns the lock table; it also models the
//! copies from the policy's notifications and checks the model against the
//! view whenever the protocol quiesces.

use super::access_tree::AccessTreePolicy;
use super::fixed_home::FixedHomePolicy;
use super::{AccessKind, Counter, LockTable, Policy, PolicyEnv, PolicyMsg, TxId, COUNTER_COUNT};
use crate::embedding::EmbeddingMode;
use crate::var::VarHandle;
use dm_engine::{MachineConfig, SimTime};
use dm_mesh::{AnyTopology, FatTree, Hypercube, Mesh, NodeId, TreeShape};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// A deterministic mock of the runtime environment: messages are queued and
/// delivered in FIFO order with a fixed latency of 1 time unit per hop-free
/// message; no link model, no port model.
pub(crate) struct MockEnv {
    topo: AnyTopology,
    cfg: MachineConfig,
    now: SimTime,
    queue: VecDeque<(NodeId, PolicyMsg)>,
    pub(super) completed: Vec<(TxId, SimTime)>,
    /// The copies the policy's notifications describe: `set_presence`
    /// must change this model on every call.
    presence: HashSet<(NodeId, VarHandle)>,
    /// Every variable ever registered, for the model check.
    vars: BTreeSet<VarHandle>,
    pub(super) counters: [u64; COUNTER_COUNT],
    /// The size of every registered variable.
    var_sizes: HashMap<VarHandle, u32>,
    /// Every message sent, in order: `(from, to, bytes, message)`.
    pub(super) sent: Vec<(NodeId, NodeId, u32, PolicyMsg)>,
    rehomes: Vec<(NodeId, NodeId, u32)>,
    /// Processors whose application was lost to a node failure.
    lost: HashSet<NodeId>,
    /// Forced lock releases tallied through `note_force_release`.
    force_released: u64,
    /// Every variable's lock, driven the way the coordinator drives it.
    locks: LockTable,
}

impl MockEnv {
    pub(crate) fn new_on(topo: AnyTopology) -> Self {
        MockEnv {
            topo,
            cfg: MachineConfig::parsytec_gcel(),
            now: 0,
            queue: VecDeque::new(),
            completed: Vec::new(),
            presence: HashSet::new(),
            vars: BTreeSet::new(),
            counters: [0; COUNTER_COUNT],
            var_sizes: HashMap::new(),
            sent: Vec::new(),
            rehomes: Vec::new(),
            lost: HashSet::new(),
            force_released: 0,
            locks: LockTable::new(),
        }
    }

    /// Deliver queued messages until the protocol quiesces, then check the
    /// notification model against the policy's copy view.
    pub(crate) fn run(&mut self, policy: &mut dyn Policy) {
        let mut steps = 0;
        while let Some((to, msg)) = self.queue.pop_front() {
            self.now += 1;
            self.deliver(policy, to, msg);
            steps += 1;
            assert!(steps < 1_000_000, "protocol does not quiesce");
        }
        self.assert_model_matches(policy);
    }

    /// The copies the notifications describe are exactly the ones the
    /// policy's view reports, for every processor and every variable ever
    /// registered.
    pub(super) fn assert_model_matches(&self, policy: &dyn Policy) {
        let view = policy.copies();
        for &var in &self.vars {
            for p in 0..self.topo.nodes() as u32 {
                let proc = NodeId(p);
                assert_eq!(
                    self.presence.contains(&(proc, var)),
                    view.has(proc, var),
                    "notifications and copy view disagree on ({proc:?}, {var})"
                );
            }
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

    /// Register `var` and count its owner's copy, as the runtime does at
    /// allocation.
    pub(crate) fn register(
        &mut self,
        policy: &mut dyn Policy,
        var: VarHandle,
        owner: NodeId,
        bytes: u32,
    ) {
        policy.register_var(var, owner, bytes);
        self.var_sizes.insert(var, bytes);
        assert!(
            self.presence.insert((owner, var)),
            "{var} registered over a live copy"
        );
        self.vars.insert(var);
    }

    /// Issue an access as the runtime does: a read that finds a copy in the
    /// policy's view is a local hit that never reaches the policy.
    pub(crate) fn access(
        &mut self,
        policy: &mut dyn Policy,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    ) {
        if kind == AccessKind::Read && policy.copies().has(proc, var) {
            self.counters[Counter::ReadHit.index()] += 1;
            self.completed.push((tx, self.now));
            return;
        }
        if kind == AccessKind::Read {
            self.counters[Counter::ReadMiss.index()] += 1;
        }
        policy.on_access(self, tx, proc, var, kind);
    }

    pub(super) fn lock(&mut self, policy: &dyn Policy, tx: TxId, proc: NodeId, var: VarHandle) {
        let manager = policy.lock_manager(var);
        self.with_locks(|locks, env| locks.acquire(env, tx, proc, var, manager));
    }

    pub(super) fn unlock(&mut self, policy: &dyn Policy, tx: TxId, proc: NodeId, var: VarHandle) {
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
    pub(super) fn free(&mut self, policy: &mut dyn Policy, var: VarHandle) {
        policy.free_var(self, var);
        self.locks.evict(var);
        self.var_sizes.remove(&var);
        self.assert_model_matches(policy);
    }

    fn completed_txs(&self) -> Vec<TxId> {
        self.completed.iter().map(|(t, _)| *t).collect()
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
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
        *self
            .var_sizes
            .get(&var)
            .unwrap_or_else(|| panic!("size of unregistered {var}"))
    }
    fn send(&mut self, from: NodeId, to: NodeId, bytes: u32, msg: PolicyMsg) -> SimTime {
        self.sent.push((from, to, bytes, msg.clone()));
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
        let changed = if present {
            self.presence.insert((proc, var))
        } else {
            self.presence.remove(&(proc, var))
        };
        assert!(
            changed,
            "redundant notification: ({proc:?}, {var}) := {present}"
        );
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
fn at_flatter_trees_use_fewer_messages_per_read() {
    // A 16-ary tree has fewer levels than a 2-ary tree, so a single far read
    // needs fewer protocol messages (fewer startups) — the trade-off the
    // paper discusses.
    let mut msgs = Vec::new();
    for shape in [TreeShape::binary(), TreeShape::quad(), TreeShape::hex16()] {
        let (mut policy, mut env) = setup_at(shape, 16);
        let var = VarHandle(0);
        env.register(&mut policy, var, NodeId(0), 1024);
        policy.on_access(&mut env, TxId(1), NodeId(255), var, AccessKind::Read);
        env.run(&mut policy);
        msgs.push(env.sent.len());
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

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

#[test]
fn at_lock_is_mutually_exclusive_and_fifo() {
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 4);
    let var = VarHandle(0);
    env.register(&mut policy, var, NodeId(0), 64);
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
        env.register(policy.as_mut(), var, NodeId(0), 64);
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
fn fh_lock_contention_is_serialised_at_the_home() {
    let (mut policy, mut env) = setup_fh(4);
    let var = VarHandle(0);
    env.register(&mut policy, var, NodeId(0), 64);
    env.lock(&policy, TxId(1), NodeId(4), var);
    env.lock(&policy, TxId(2), NodeId(8), var);
    env.run(&mut policy);
    assert_eq!(env.completed_txs(), vec![TxId(1)]);
    env.unlock(&policy, TxId(3), NodeId(4), var);
    env.run(&mut policy);
    assert!(env.completed_txs().contains(&TxId(2)));
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

/// Writes to distinct variables, each invalidating a component of several
/// copies, overlap in flight. A plan is lent per invalidation, so the pool
/// ends holding exactly as many plans as were lent at once, and no free
/// slot keeps one.
#[test]
fn plans_return_to_the_pool() {
    const K: u32 = 6;
    let (mut policy, mut env) = setup_at(TreeShape::quad(), 8);
    let mut tx = 0;
    for v in 0..K {
        let var = VarHandle(v);
        env.register(&mut policy, var, NodeId(9 * v), 64);
        for r in [7u32, 21, 42, 63] {
            tx += 1;
            env.access(
                &mut policy,
                TxId(tx),
                NodeId((r + v) % 64),
                var,
                AccessKind::Read,
            );
            env.run(&mut policy);
        }
    }
    assert_eq!(policy.plans(), (0, 0));
    for v in 0..K {
        tx += 1;
        let writer = NodeId((5 * v + 30) % 64);
        env.access(
            &mut policy,
            TxId(tx),
            writer,
            VarHandle(v),
            AccessKind::Write,
        );
    }
    let mut peak = 0;
    loop {
        let (pooled, lent) = policy.plans();
        peak = peak.max(lent);
        // A plan is made only when the pool is empty.
        assert_eq!(pooled + lent, peak);
        let Some((to, msg)) = env.queue.pop_front() else {
            break;
        };
        env.now += 1;
        env.deliver(&mut policy, to, msg);
    }
    assert!(peak > 1, "the writes never overlapped");
    assert_eq!(policy.plans(), (peak, 0));
    assert_eq!(policy.tx_slots().0, 0);
    assert_eq!(env.completed.len() as u64, tx);
}

/// Run a read miss of `TxId(1)` to completion and return a copy of its first
/// protocol message, which names the slot the transaction has closed since.
fn stale_message(policy: &mut dyn Policy, env: &mut MockEnv) -> (NodeId, PolicyMsg) {
    env.register(policy, VarHandle(0), NodeId(0), 64);
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
// Node failure / re-homing
// ---------------------------------------------------------------------------

fn topologies16() -> Vec<AnyTopology> {
    vec![
        Mesh::square(4).into(),
        Mesh::torus(4, 4).into(),
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
        env.assert_model_matches(&policy);
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
                !env.presence.contains(&(victim, var)),
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
        assert_eq!(policy.tx_slots().0, 0, "{name}");
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
                env.assert_model_matches(&policy);
                let leaf = policy.tree().leaf_of(victim);
                for i in 0..6u32 {
                    let var = VarHandle(i);
                    policy.assert_copy_invariants(var);
                    assert!(
                        !policy.copy_set(var).unwrap().contains(&leaf),
                        "{name} round {round}: the victim's leaf copy must be dropped"
                    );
                    assert!(
                        !env.presence.contains(&(victim, var)),
                        "{name} round {round}"
                    );
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
            assert_eq!(policy.tx_slots().0, 0, "{name}");
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
    env.register(&mut policy, var, victim, 64);
    let leaf = policy.tree().leaf_of(victim);
    assert_eq!(policy.copy_set(var).unwrap().len(), 1);
    assert!(policy.copy_set(var).unwrap().contains(&leaf));

    policy.on_node_fail(&mut env, victim, NodeId(10));
    env.assert_model_matches(&policy);
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
    assert!(env.sent.is_empty());
}
