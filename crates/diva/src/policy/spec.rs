//! A sequential specification of both data-management strategies, and the
//! tests that hold the message-level protocols to it.
//!
//! The specification executes a strategy's definition one operation at a
//! time, with nothing in flight. Its state is, per variable, the access-tree
//! nodes holding a copy, or fixed home's home, owner and copy holders.
//! [`Spec::apply`] returns the messages the definition implies, lock traffic
//! included, as `(message kind, from, to, bytes)`, and the [`Counter`]
//! deltas. Tree nodes sit where the policy's own embedding puts them, and
//! the home is the policy's lock manager. There are no slabs, gates, pools,
//! plans or handlers.
//!
//! The differential test checks every operation of seeded sequences on a
//! [`MockEnv`]: copy records, sends, counter deltas, completions and open
//! transactions. The whole-run test checks the full simulator's message,
//! byte and per-link totals against the specification's messages, routed.

use super::access_tree::AccessTreePolicy;
use super::fixed_home::FixedHomePolicy;
use super::proto_tests::MockEnv;
use super::{AccessKind, Counter, Policy, TxId, COUNTER_COUNT};
use crate::embedding::EmbeddingMode;
use crate::runtime::{Diva, DivaConfig, Op as ProgOp, ProcProgram, StepCtx, StrategyKind};
use crate::var::VarHandle;
use dm_engine::MachineConfig;
use dm_mesh::{AnyTopology, FatTree, Hypercube, LinkStats, Mesh, NodeId, TreeNodeId, TreeShape};
use dm_rng::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// One operation on one variable.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Register the variable with its only copy here, this many bytes large.
    Register(NodeId, u32),
    Read(NodeId),
    Write(NodeId),
    Lock(NodeId),
    Unlock(NodeId),
    Free,
}

/// A message: `(PolicyMsg variant, from, to, bytes)`.
type Msg = (String, NodeId, NodeId, u32);

/// What one operation does, with the sizes of its messages.
#[derive(Default)]
struct Effect {
    msgs: Vec<Msg>,
    counters: [u64; COUNTER_COUNT],
    control: u32,
    data: u32,
}

impl Effect {
    fn bump(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    /// Send a data message, or a control message.
    fn send(&mut self, kind: &str, from: NodeId, to: NodeId, data: bool) {
        let bytes = if data { self.data } else { self.control };
        self.msgs.push((kind.into(), from, to, bytes));
    }
}

/// [`Effect::send`] of a data message.
const DATA: bool = true;
/// [`Effect::send`] of a control message.
const CONTROL: bool = false;

/// A variable's state under the specification.
enum Copies {
    /// The access-tree nodes holding a copy.
    Tree(BTreeSet<TreeNodeId>),
    /// The home, the owner (`None`: the home's main memory) and the
    /// processors holding a copy.
    Home(NodeId, Option<NodeId>, BTreeSet<NodeId>),
}

/// The policy under test. The specification reads its placement only.
enum Subject {
    Tree(AccessTreePolicy),
    Home(FixedHomePolicy),
}

impl Subject {
    fn view(&self) -> &dyn Policy {
        match self {
            Subject::Tree(p) => p,
            Subject::Home(p) => p,
        }
    }
}

/// Every registered variable's size and state.
#[derive(Default)]
struct Spec {
    vars: BTreeMap<VarHandle, (u32, Copies)>,
}

impl Spec {
    /// Whether processor `p` holds a copy of `var`.
    fn holds(&self, sub: &Subject, p: NodeId, var: VarHandle) -> bool {
        match (self.vars.get(&var), sub) {
            (Some((_, Copies::Tree(nodes))), Subject::Tree(t)) => {
                nodes.contains(&t.tree().leaf_of(p))
            }
            (Some((_, Copies::Home(_, _, holders))), _) => holders.contains(&p),
            _ => false,
        }
    }

    fn apply(&mut self, sub: &Subject, cfg: &MachineConfig, var: VarHandle, op: Op) -> Effect {
        let mut e = Effect {
            control: cfg.control_msg_bytes,
            ..Effect::default()
        };
        // The lock table sends a request and its grant, or a release, unless
        // the processor manages the lock itself. Every lock is free when
        // taken, so the grant follows the request at once.
        let manager = || sub.view().lock_manager(var);
        match op {
            Op::Register(owner, bytes) => {
                let copies = match sub {
                    Subject::Tree(t) => Copies::Tree(BTreeSet::from([t.tree().leaf_of(owner)])),
                    Subject::Home(h) => {
                        Copies::Home(h.lock_manager(var), Some(owner), BTreeSet::from([owner]))
                    }
                };
                assert!(self.vars.insert(var, (bytes, copies)).is_none());
            }
            Op::Free => assert!(self.vars.remove(&var).is_some()),
            Op::Lock(p) => {
                e.bump(Counter::Locks, 1);
                if p != manager() {
                    e.send("LockReq", p, manager(), CONTROL);
                    e.send("LockGrant", manager(), p, CONTROL);
                }
            }
            Op::Unlock(p) if p != manager() => e.send("LockRelease", p, manager(), CONTROL),
            Op::Unlock(_) => {}
            Op::Read(p) if self.holds(sub, p, var) => e.bump(Counter::ReadHit, 1),
            Op::Read(p) | Op::Write(p) => {
                let write = matches!(op, Op::Write(_));
                let (bytes, copies) = self.vars.get_mut(&var).expect("unregistered");
                e.data = *bytes + cfg.header_bytes;
                match (copies, sub) {
                    (Copies::Tree(nodes), Subject::Tree(t)) => {
                        tree_access(t, var, nodes, p, write, &mut e)
                    }
                    (Copies::Home(home, owner, holders), _) => {
                        home_access(*home, owner, holders, p, write, &mut e)
                    }
                    _ => unreachable!("a tree variable of fixed home"),
                }
            }
        }
        e
    }

    /// The policy's copy records equal the specification's state, for every
    /// processor and every variable slot below `slots`.
    fn assert_matches(&self, sub: &Subject, slots: u32, nprocs: u32, ctx: &str) {
        let view = sub.view().copies();
        for var in (0..slots).map(VarHandle) {
            for p in (0..nprocs).map(NodeId) {
                let holds = self.holds(sub, p, var);
                assert_eq!(view.has(p, var), holds, "{ctx}: {p:?} holds {var}");
            }
            match (self.vars.get(&var), sub) {
                (Some((_, Copies::Tree(nodes))), Subject::Tree(t)) => {
                    t.assert_copy_invariants(var);
                    let got: BTreeSet<_> = t.copy_set(var).unwrap().iter().collect();
                    assert_eq!(&got, nodes, "{ctx}: copies of {var}");
                }
                (None, Subject::Tree(t)) => assert!(t.copy_set(var).is_none(), "{ctx}"),
                (Some((_, Copies::Home(_, owner, holders))), Subject::Home(h)) => {
                    assert!(h.copy_set(var).iter().eq(holders), "{ctx}: {var}");
                    assert_eq!(h.owner_of(var), *owner, "{ctx}: owner of {var}");
                }
                _ => {}
            }
        }
    }
}

/// A read miss or a write by `p` under the access-tree definition: the
/// request follows the tree path towards the topmost copy and stops at the
/// first copy on it, `u`. A write invalidates every other copy, each over
/// its tree edge towards `u`, and acknowledged back. The value returns along
/// the request's path, leaving a copy at every node.
fn tree_access(
    t: &AccessTreePolicy,
    var: VarHandle,
    nodes: &mut BTreeSet<TreeNodeId>,
    p: NodeId,
    write: bool,
    e: &mut Effect,
) {
    let tree = t.tree();
    let pos = |n| t.position(var, n);
    let leaf = tree.leaf_of(p);
    if write && nodes.iter().eq([&leaf]) {
        return e.bump(Counter::WriteLocal, 1);
    }
    let top = *nodes.iter().min_by_key(|&&n| tree.level(n)).unwrap();
    let mut path = tree_path(tree, leaf, top);
    path.truncate(path.iter().position(|n| nodes.contains(n)).unwrap() + 1);
    let u = path[path.len() - 1];
    // A write request carries the value.
    let (step, carries, back) = match write {
        true => ("AtWriteStep", DATA, "AtWriteData"),
        false => ("AtReadStep", CONTROL, "AtReadData"),
    };
    for hop in path.windows(2) {
        e.send(step, pos(hop[0]), pos(hop[1]), carries);
    }
    if write {
        e.bump(Counter::WriteRemote, 1);
        e.bump(Counter::Invalidations, nodes.len() as u64 - 1);
        for &n in nodes.iter().filter(|&&n| n != u) {
            let next = tree_path(tree, n, u)[1];
            e.send("AtInval", pos(next), pos(n), CONTROL);
            e.send("AtInvalAck", pos(n), pos(next), CONTROL);
        }
        nodes.retain(|&n| n == u);
    } else {
        e.bump(Counter::ReadMiss, 1);
    }
    for hop in path.windows(2).rev() {
        e.send(back, pos(hop[1]), pos(hop[0]), DATA);
    }
    let fresh = path.iter().filter(|n| !nodes.contains(n)).count();
    e.bump(Counter::CopiesCreated, fresh as u64);
    nodes.extend(path);
}

/// The tree path from `a` to `b`, both included: up to their lowest common
/// ancestor, then down.
fn tree_path(tree: &dm_mesh::DecompositionTree, a: TreeNodeId, b: TreeNodeId) -> Vec<TreeNodeId> {
    let (up, down) = (tree.path_to_root(a), tree.path_to_root(b));
    let lca = up.iter().position(|&n| tree.is_ancestor(n, b)).unwrap();
    let below = down.iter().position(|&n| n == up[lca]).unwrap();
    up[..=lca]
        .iter()
        .chain(down[..below].iter().rev())
        .copied()
        .collect()
}

/// A read miss or a write by `p` under the ownership scheme: a read asks
/// the home, which first takes the value back from an owner elsewhere; a
/// write asks the home to invalidate every other copy and the owner's, each
/// acknowledged, then gets ownership granted.
fn home_access(
    home: NodeId,
    owner: &mut Option<NodeId>,
    holders: &mut BTreeSet<NodeId>,
    p: NodeId,
    write: bool,
    e: &mut Effect,
) {
    if !write {
        e.bump(Counter::ReadMiss, 1);
        e.send("FhReadReq", p, home, CONTROL);
        if let Some(q) = owner.filter(|&q| q != home) {
            e.send("FhFetchOwner", home, q, CONTROL);
            e.send("FhOwnerData", q, home, DATA);
            *owner = None;
        }
        e.send("FhReadData", home, p, DATA);
        e.bump(Counter::CopiesCreated, u64::from(holders.insert(p)));
    } else if *owner == Some(p) && holders.iter().eq([&p]) {
        e.bump(Counter::WriteLocal, 1);
    } else {
        e.bump(Counter::WriteRemote, 1);
        e.send("FhWriteReq", p, home, CONTROL);
        let victims: BTreeSet<_> = holders.iter().copied().chain(*owner).collect();
        for &v in victims.iter().filter(|&&v| v != p) {
            e.send("FhInval", home, v, CONTROL);
            e.send("FhInvalAck", v, home, CONTROL);
            e.bump(Counter::Invalidations, 1);
        }
        e.send("FhWriteGrant", home, p, CONTROL);
        e.bump(Counter::CopiesCreated, u64::from(!holders.contains(&p)));
        *holders = BTreeSet::from([p]);
        *owner = Some(p);
    }
}

const SEED: u64 = 7;
/// Variable slots a sequence uses.
const SLOTS: u32 = 6;
const SIZES: [u32; 4] = [8, 64, 256, 1024];

/// A seeded sequence of `len` operations on `nprocs` processors. With
/// `lifecycle`, a variable is registered when first touched, then locked,
/// unlocked, freed and registered again, and freed at the end. Without, all
/// are registered first and then only read and written.
fn sequence(nprocs: u32, len: usize, seed: u64, lifecycle: bool) -> Vec<(VarHandle, Op)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ops = Vec::new();
    // Per slot: registered, with the holder of its lock.
    let mut live = vec![None; SLOTS as usize];
    while ops.len() < len {
        let v = match ops.len() {
            n if !lifecycle && n < SLOTS as usize => n,
            _ => rng.gen_range(0..SLOTS as usize),
        };
        let p = NodeId(rng.gen_range(0..nprocs));
        let r = rng.gen_range(0..10u32);
        let op = match live[v] {
            None => Op::Register(p, SIZES[rng.gen_range(0..SIZES.len())]),
            Some(Some(holder)) if r < 3 => Op::Unlock(holder),
            Some(None) if lifecycle && r == 0 => Op::Free,
            Some(None) if lifecycle && r == 1 => Op::Lock(p),
            _ if r < 6 => Op::Read(p),
            _ => Op::Write(p),
        };
        live[v] = match op {
            Op::Register(..) | Op::Unlock(_) => Some(None),
            Op::Lock(p) => Some(Some(p)),
            Op::Free => None,
            _ => live[v],
        };
        ops.push((VarHandle(v as u32), op));
    }
    for (v, lock) in live.into_iter().enumerate().filter(|_| lifecycle) {
        let v = VarHandle(v as u32);
        ops.extend(lock.flatten().map(|holder| (v, Op::Unlock(holder))));
        ops.extend(lock.map(|_| (v, Op::Free)));
    }
    ops
}

/// Run `ops` through the strategy's policy on a [`MockEnv`], checking every
/// operation against the specification; return the specification's
/// messages.
fn check(topo: &AnyTopology, strategy: StrategyKind, ops: &[(VarHandle, Op)]) -> Vec<Msg> {
    let mut sub = match strategy {
        StrategyKind::AccessTree(shape) => Subject::Tree(AccessTreePolicy::new_on(
            topo,
            shape,
            EmbeddingMode::Modified,
            SEED,
        )),
        StrategyKind::FixedHome => Subject::Home(FixedHomePolicy::new_on(topo, SEED)),
    };
    let mut env = MockEnv::new_on(topo.clone());
    let (cfg, mut spec, mut msgs) = (MachineConfig::parsytec_gcel(), Spec::default(), Vec::new());
    for (i, &(var, op)) in ops.iter().enumerate() {
        let (name, kind) = (topo.name(), strategy.name());
        let ctx = format!("{name} / {kind}: op {i} {op:?} on {var}");
        let tx = TxId(i as u64);
        let (counters, sent, done) = (env.counters, env.sent.len(), env.completed.len());
        let policy: &mut dyn Policy = match &mut sub {
            Subject::Tree(p) => p,
            Subject::Home(p) => p,
        };
        match op {
            Op::Register(owner, bytes) => env.register(policy, var, owner, bytes),
            Op::Read(p) => env.access(policy, tx, p, var, AccessKind::Read),
            Op::Write(p) => env.access(policy, tx, p, var, AccessKind::Write),
            Op::Lock(p) => env.lock(policy, tx, p, var),
            Op::Unlock(p) => env.unlock(policy, tx, p, var),
            Op::Free => env.free(policy, var),
        }
        env.run(policy);
        let mut want = spec.apply(&sub, &cfg, var, op);
        // A message's kind is its variant's name.
        let mut got: Vec<Msg> = env.sent[sent..]
            .iter()
            .map(|(from, to, bytes, msg)| {
                let kind = format!("{msg:?}").split(' ').next().unwrap().to_owned();
                (kind, *from, *to, *bytes)
            })
            .collect();
        got.sort_unstable();
        want.msgs.sort_unstable();
        assert_eq!(got, want.msgs, "{ctx}: sends");
        let delta: [u64; COUNTER_COUNT] = std::array::from_fn(|c| env.counters[c] - counters[c]);
        assert_eq!(delta, want.counters, "{ctx}: counter deltas");
        let completed: Vec<TxId> = env.completed[done..].iter().map(|&(t, _)| t).collect();
        let access = !matches!(op, Op::Register(..) | Op::Free);
        assert_eq!(completed, [tx][..usize::from(access)], "{ctx}: completions");
        spec.assert_matches(&sub, SLOTS, topo.nodes() as u32, &ctx);
        msgs.extend(want.msgs);
        // None open, and one slot since the first policy message: an access
        // that sends nothing opens none, and the lock table opens none.
        let slots = match &sub {
            Subject::Tree(t) => t.tx_slots(),
            Subject::Home(h) => h.tx_slots(),
        };
        let policy_msgs = msgs.iter().any(|m| !m.0.starts_with("Lock"));
        assert_eq!(slots, (0, usize::from(policy_msgs)), "{ctx}: slots");
    }
    msgs
}

/// Every strategy on a mesh, a torus, a hypercube and a fat tree of 16 and
/// of 64 nodes.
fn configurations() -> Vec<(AnyTopology, StrategyKind)> {
    let shapes = [
        TreeShape::binary(),
        TreeShape::quad(),
        TreeShape::hex16(),
        TreeShape::lk(2, 4),
    ];
    let strategies = shapes.map(StrategyKind::AccessTree);
    let mut configs = Vec::new();
    for side in [4usize, 8] {
        let topologies: [AnyTopology; 4] = [
            Mesh::square(side).into(),
            Mesh::torus(side, side).into(),
            Hypercube::new(2 * side.ilog2()).into(),
            FatTree::new(side * side).into(),
        ];
        for t in topologies {
            let all = strategies.iter().chain([&StrategyKind::FixedHome]);
            configs.extend(all.map(|&s| (t.clone(), s)));
        }
    }
    configs
}

#[test]
fn every_operation_does_what_the_specification_says() {
    for (i, (topo, strategy)) in configurations().into_iter().enumerate() {
        let ops = sequence(topo.nodes() as u32, 160, i as u64, true);
        check(&topo, strategy, &ops);
    }
}

/// A processor's operations, in order.
struct Script(VecDeque<ProgOp>);

impl ProcProgram for Script {
    fn step(&mut self, _: &mut StepCtx<'_>) -> ProgOp {
        self.0.pop_front().unwrap_or(ProgOp::Done)
    }
}

/// One access in flight at a time. The coordinator handles an operation as
/// soon as its processor is runnable, so computing until a slot would not
/// keep accesses apart: a processor instead waits for a token, a message of
/// no bytes, from the processor of the access before its own. The expected
/// totals route the tokens too.
#[test]
fn whole_runs_move_what_the_specification_routes() {
    for (i, (topo, strategy)) in configurations().into_iter().enumerate() {
        let ops = sequence(topo.nodes() as u32, 60, 100 + i as u64, false);
        let mut msgs = check(&topo, strategy, &ops);
        let mut diva = Diva::new(DivaConfig::on(topo.clone(), strategy).with_seed(SEED));
        let mut scripts: Vec<_> = (0..topo.nodes()).map(|_| Script(VecDeque::new())).collect();
        let mut last: Option<NodeId> = None;
        for (tag, &(var, op)) in ops.iter().enumerate() {
            let (p, access) = match op {
                Op::Register(owner, bytes) => {
                    assert_eq!(diva.alloc(owner.index(), bytes, ()), var);
                    continue;
                }
                Op::Read(p) => (p, ProgOp::Read(var)),
                Op::Write(p) => (p, ProgOp::Write(var, Arc::new(()))),
                _ => unreachable!("a read/write sequence"),
            };
            if let Some(q) = last.filter(|&q| q != p) {
                let (to, from, tag, value) = (p.index(), q.index(), tag as u64, Arc::new(()));
                let send = ProgOp::Send {
                    to,
                    bytes: 0,
                    tag,
                    value,
                };
                scripts[from].0.push_back(send);
                scripts[to].0.push_back(ProgOp::Recv { from, tag });
                msgs.push(("token".into(), q, p, 0));
            }
            scripts[p.index()].0.push_back(access);
            last = Some(p);
        }
        let report = diva.run_driven(scripts).expect_completed().report;
        let mut links = LinkStats::with_slots(topo.link_slots());
        for (_, from, to, bytes) in &msgs {
            topo.for_each_route_link(*from, *to, |l| links.record(l, u64::from(*bytes)));
        }
        let bytes: u64 = msgs.iter().map(|m| u64::from(m.3)).sum();
        let ctx = format!("{} / {}", topo.name(), strategy.name());
        assert_eq!(report.messages_sent, msgs.len() as u64, "{ctx}");
        assert_eq!(report.bytes_sent, bytes, "{ctx}");
        assert_eq!(report.link_stats, links, "{ctx}: per-link loads");
    }
}
