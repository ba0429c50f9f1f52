//! One kernel per layer: that layer's public functions, called in isolation
//! on inputs taken from the workload.
//!
//! Instrumentation inside the coordinator is a later change, so a layer's
//! unit cost is measured from the outside: the workload's topology,
//! strategy, seed, message size and — for the stream lengths and the derived
//! shares — the counts in its `RunReport`. Each kernel samples for a fixed
//! slice of the run's time and reports the minimum, like the whole-run reps.

use crate::workload::{App, Spec, KV_ZIPF_S, PLACEMENT_SEED, VALUE_BYTES};
use dm_apps::barnes_hut::reference_simulation;
use dm_apps::workload::{plummer_bodies, ZipfSampler};
use dm_bench::executor::{run_jobs, Job, JobResult};
use dm_bench::json::{self, FromJson, ToJson};
use dm_bench::stream::{SidecarHeader, SidecarWriter};
use dm_diva::barrier::{BarrierAction, BarrierMsg, TreeBarrier};
use dm_diva::policy::access_tree::AccessTreePolicy;
use dm_diva::policy::fixed_home::FixedHomePolicy;
use dm_diva::policy::{LockTable, VarGate};
use dm_diva::{
    AccessKind, Counter, Diva, Embedder, EmbeddingMode, Op, Policy, PolicyEnv, PolicyMsg,
    ProcProgram, QueueOp, RunReport, StepCtx, StrategyKind, TxId, VarHandle, VarPlacement,
    VarRegistry,
};
use dm_engine::{EventQueue, LinkNetwork, MachineConfig, SimTime, GLOBAL_REGION};
use dm_mesh::{AnyTopology, DecompositionTree, NodeId};
use dm_rng::ChaCha8Rng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accesses the policy kernel replays at most (the KV and uniform workloads
/// issue exactly this many).
const STREAM_CAP: usize = 131_072;
/// Local-hit reads every processor makes in the stepping kernel.
const HIT_READS: usize = 512;
/// Bodies of the reference-step kernel under the workloads without bodies.
const DEFAULT_BODIES: usize = 2_000;
/// The per-processor stream derivation of `dm_apps::kv` and `::uniform`.
const PROC_SEED_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seconds of one call.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Sample for `budget` (at least three times, after one unrecorded warm-up
/// sample) and return the element-wise minimum.
fn best_of<const N: usize>(budget: Duration, mut sample: impl FnMut() -> [f64; N]) -> [f64; N] {
    sample();
    let mut best = [f64::INFINITY; N];
    let start = Instant::now();
    let mut n = 0;
    while n < 3 || start.elapsed() < budget {
        let s = sample();
        for (b, s) in best.iter_mut().zip(s) {
            *b = b.min(s);
        }
        n += 1;
    }
    best
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the kernels take from the workload.
pub struct LayerInputs<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The run's seed.
    pub seed: u64,
    /// The report of the workload's (warm-up) rep.
    pub report: &'a RunReport,
    /// The coordinator's event-queue trace, where the app exposes it
    /// (Barnes-Hut); empty otherwise.
    pub queue_trace: &'a [QueueOp],
    /// Sampling time of each kernel.
    pub budget: Duration,
}

impl LayerInputs<'_> {
    fn topo(&self) -> AnyTopology {
        self.spec.topology()
    }

    fn rng(&self, salt: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed ^ salt.wrapping_mul(PROC_SEED_MUL))
    }

    fn writes(&self) -> u64 {
        self.report.counter(Counter::WriteLocal) + self.report.counter(Counter::WriteRemote)
    }
}

// ---------------------------------------------------------------------------
// mesh
// ---------------------------------------------------------------------------

/// `AnyTopology::for_each_route_link` over seeded pairs: ns per hop.
pub fn mesh_route_ns_per_hop(li: &LayerInputs) -> f64 {
    let topo = li.topo();
    let nodes = topo.nodes() as u32;
    let mut rng = li.rng(1);
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..nodes)),
                NodeId(rng.gen_range(0..nodes)),
            )
        })
        .collect();
    let hops: usize = pairs.iter().map(|&(a, b)| topo.distance(a, b)).sum();
    let [t] = best_of(li.budget, || {
        [secs(|| {
            let mut acc = 0u32;
            for &(a, b) in &pairs {
                topo.for_each_route_link(a, b, |l| acc = acc.wrapping_add(l.0));
            }
            black_box(acc);
        })]
    });
    ratio(t * 1e9, hops as f64)
}

/// `DecompositionTree::build_on` with the run's tree shape: seconds.
pub fn mesh_decomp_build_s(li: &LayerInputs) -> f64 {
    let topo = li.topo();
    let shape = li.spec.tree_shape();
    let [t] = best_of(li.budget, || {
        [secs(|| {
            black_box(DecompositionTree::build_on(&topo, shape).len());
        })]
    });
    t
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// Cost of one event through `EventQueue` (a pop and a push) and the number
/// of events of the run. With a recorded trace both are exact replays;
/// without one, the hold model at depth = processors (a closed loop keeps
/// one event per processor pending) and one event per message and per
/// operation.
pub fn engine_queue(li: &LayerInputs) -> (f64, f64) {
    if !li.queue_trace.is_empty() {
        let trace = li.queue_trace;
        let pops = trace.iter().filter(|op| matches!(op, QueueOp::Pop)).count();
        let [t] = best_of(li.budget, || {
            [secs(|| {
                let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
                let mut n = 0u32;
                let mut acc = 0u64;
                for op in trace {
                    match op {
                        QueueOp::Push(t) => {
                            q.push(*t, n);
                            n = n.wrapping_add(1);
                        }
                        QueueOp::Pop => {
                            let (t, item) = q.pop().expect("trace pops a non-empty queue");
                            acc = acc.wrapping_mul(31).wrapping_add(t ^ item as u64);
                        }
                    }
                }
                black_box(acc);
            })]
        });
        return (ratio(t * 1e9, pops as f64), pops as f64);
    }
    let depth = li.spec.nprocs();
    let mut rng = li.rng(2);
    // Message latencies on the GCel model are a few hundred µs.
    let gaps: Vec<SimTime> = (0..4096)
        .map(|_| rng.gen_range(100_000u64..1_000_000))
        .collect();
    let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
    for (i, gap) in gaps.iter().cycle().take(depth).enumerate() {
        q.push(*gap, i as u32);
    }
    let holds = 1 << 16;
    let [t] = best_of(li.budget, || {
        [secs(|| {
            for i in 0..holds {
                let (now, item) = q.pop().expect("the hold model never drains");
                q.push(now + gaps[i % gaps.len()], item);
            }
        })]
    });
    let events = li.report.messages_sent + li.spec.ops(li.report);
    (ratio(t * 1e9, holds as f64), events as f64)
}

/// `LinkNetwork::transmit` at two route lengths, split into a cost per
/// message and a cost per hop (ns each).
pub fn engine_transmit(li: &LayerInputs) -> (f64, f64) {
    let topo = li.topo();
    let nodes = topo.nodes();
    let far = (topo.diameter() / 2).max(2);
    let mut rng = li.rng(3);
    // Seeded sources, each paired with a neighbour and with the first node
    // (from a seeded offset) at distance `far`.
    let mut near_pairs = Vec::new();
    let mut far_pairs = Vec::new();
    while far_pairs.len() < 512 {
        let from = NodeId(rng.gen_range(0..nodes as u32));
        let offset = rng.gen_range(0..nodes as u32) as usize;
        let Some(to) = (0..nodes)
            .map(|i| NodeId(((i + offset) % nodes) as u32))
            .find(|&to| topo.distance(from, to) == far)
        else {
            continue;
        };
        far_pairs.push((from, to));
        near_pairs.push((from, topo.neighbors(from)[0]));
    }
    let time_set = |pairs: &[(NodeId, NodeId)]| {
        let mut net = LinkNetwork::new(topo.clone(), MachineConfig::parsytec_gcel());
        let mut now: SimTime = 0;
        let [t] = best_of(li.budget / 2, || {
            [secs(|| {
                for &(from, to) in pairs {
                    let d = net.transmit(now, from, to, VALUE_BYTES, GLOBAL_REGION);
                    now = d.sender_free;
                }
            })]
        });
        t * 1e9 / pairs.len() as f64
    };
    let near_ns = time_set(&near_pairs);
    let far_ns = time_set(&far_pairs);
    let per_hop = ((far_ns - near_ns) / (far - 1) as f64).max(0.0);
    let per_msg = (near_ns - per_hop).max(0.0);
    (per_msg, per_hop)
}

// ---------------------------------------------------------------------------
// diva: policies, embedding, gate, locks, barrier
// ---------------------------------------------------------------------------

/// A `PolicyEnv` that loops every message straight back: sends join a FIFO
/// the kernel drains into `on_message`, nothing is routed or timed. It keeps
/// the presence bits, because the runtime serves a read of a present copy
/// from its fast path without asking the policy.
struct Loopback {
    machine: MachineConfig,
    topo: AnyTopology,
    fifo: VecDeque<(NodeId, PolicyMsg)>,
    /// One bit per (processor, variable), like the runtime's own table:
    /// `uniform_64` has 67 M of them.
    present: Vec<u64>,
    n_vars: usize,
    now: SimTime,
    sends: u64,
    completed: u64,
}

impl Loopback {
    fn new(topo: AnyTopology, n_vars: usize) -> Self {
        let nprocs = topo.nodes();
        Loopback {
            machine: MachineConfig::parsytec_gcel(),
            topo,
            fifo: VecDeque::with_capacity(64),
            present: vec![0; (nprocs * n_vars).div_ceil(64)],
            n_vars,
            now: 0,
            sends: 0,
            completed: 0,
        }
    }

    fn has_copy(&self, proc: NodeId, var: VarHandle) -> bool {
        let bit = proc.index() * self.n_vars + var.index();
        self.present[bit / 64] >> (bit % 64) & 1 == 1
    }
}

impl PolicyEnv for Loopback {
    fn now(&self) -> SimTime {
        self.now
    }
    fn config(&self) -> &MachineConfig {
        &self.machine
    }
    fn topology(&self) -> &AnyTopology {
        &self.topo
    }
    fn var_bytes(&self, _var: VarHandle) -> u32 {
        VALUE_BYTES
    }
    fn send(&mut self, _from: NodeId, to: NodeId, _bytes: u32, msg: PolicyMsg) -> SimTime {
        self.sends += 1;
        self.fifo.push_back((to, msg));
        self.now
    }
    fn complete(&mut self, _tx: TxId) {
        self.completed += 1;
    }
    fn complete_at(&mut self, _tx: TxId, _at: SimTime) {
        self.completed += 1;
    }
    fn set_presence(&mut self, proc: NodeId, var: VarHandle, present: bool) {
        let bit = proc.index() * self.n_vars + var.index();
        if present {
            self.present[bit / 64] |= 1 << (bit % 64);
        } else {
            self.present[bit / 64] &= !(1 << (bit % 64));
        }
    }
    fn bump(&mut self, _counter: Counter, _n: u64) {}
}

/// One access of the replayed stream.
struct Access {
    proc: NodeId,
    var: u32,
    kind: AccessKind,
}

/// The workload's access stream, operation-major (operation `i` of every
/// processor before operation `i + 1` of any — the closed loop's order when
/// all requests take equally long). KV and uniform streams are the apps'
/// own: same per-processor rng derivation, same draws. Barnes-Hut's accesses
/// come out of its programs, not a generator, so its stream is a stand-in:
/// as many variables as the run kept live, the run's share of writes, the
/// run's share of those writes aimed at a variable the writer owns (a
/// processor mostly updates its own bodies), everything else uniform.
fn access_stream(li: &LayerInputs) -> (usize, Vec<Access>) {
    let nprocs = li.spec.nprocs();
    let mut own_write_percent = 0;
    let (n_vars, ops_per_proc, write_percent, zipf) = match li.spec.app {
        App::Kv {
            n_keys,
            ops_per_client,
            write_percent,
        } => (
            n_keys,
            ops_per_client,
            write_percent,
            Some(ZipfSampler::new(n_keys, KV_ZIPF_S)),
        ),
        App::Uniform {
            n_vars,
            ops_per_proc,
            write_percent,
        } => (n_vars, ops_per_proc, write_percent, None),
        App::BarnesHut { .. } => {
            let requests = li.report.serving.requests.max(1);
            own_write_percent =
                (li.report.counter(Counter::WriteLocal) * 100 / li.writes().max(1)) as u32;
            (
                (li.report.live_vars_high_water as usize).max(nprocs),
                requests as usize / nprocs,
                (li.writes() * 100 / requests) as u32,
                None,
            )
        }
    };
    let ops_per_proc = ops_per_proc.min(STREAM_CAP / nprocs).max(1);
    let mut rngs: Vec<ChaCha8Rng> = (0..nprocs)
        .map(|p| ChaCha8Rng::seed_from_u64(li.seed ^ (p as u64).wrapping_mul(PROC_SEED_MUL)))
        .collect();
    let mut stream = Vec::with_capacity(nprocs * ops_per_proc);
    for _ in 0..ops_per_proc {
        for (p, rng) in rngs.iter_mut().enumerate() {
            let mut var = match &zipf {
                Some(z) => z.sample(rng) as u32,
                None => rng.gen_range(0..n_vars as u32),
            };
            let kind = if rng.gen_range(0..100u32) < write_percent {
                rng.next_u64(); // the written value
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if kind == AccessKind::Write
                && own_write_percent > 0
                && rng.gen_range(0..100u32) < own_write_percent
            {
                // Owners go round-robin: the writer's own variables are
                // those congruent to it.
                var = var - var % nprocs as u32 + p as u32;
                if var as usize >= n_vars {
                    var -= nprocs as u32;
                }
            }
            stream.push(Access {
                proc: NodeId(p as u32),
                var,
                kind,
            });
        }
    }
    (n_vars, stream)
}

/// Unit costs of the strategy's protocol handling.
pub struct PolicyCosts {
    /// ns per read miss, its messages' handling included.
    pub read_ns: f64,
    /// ns per write that sent messages.
    pub write_ns: f64,
    /// ns per write served without a message (the writer held the only
    /// copy).
    pub write_local_ns: f64,
    /// Messages per access the policy handled.
    pub msgs_per_access: f64,
}

/// The workload's strategy, driven through the public `Policy` trait with a
/// loop-back environment.
pub fn diva_policy(li: &LayerInputs) -> PolicyCosts {
    let topo = li.topo();
    let nprocs = topo.nodes();
    let (n_vars, stream) = access_stream(li);
    let mut msgs_per_access = 0.0;
    let [read_ns, write_ns, write_local_ns] = best_of(li.budget, || {
        let mut policy: Box<dyn Policy> = match li.spec.strategy {
            StrategyKind::AccessTree(shape) => Box::new(AccessTreePolicy::new_on(
                &topo,
                shape,
                EmbeddingMode::Modified,
                PLACEMENT_SEED,
            )),
            StrategyKind::FixedHome => Box::new(FixedHomePolicy::new_on(&topo, PLACEMENT_SEED)),
        };
        let mut env = Loopback::new(topo.clone(), n_vars);
        let mut registry = VarRegistry::new();
        // Round-robin owners, as the apps allocate their pools.
        let vars: Vec<VarHandle> = (0..n_vars)
            .map(|i| {
                let owner = NodeId((i % nprocs) as u32);
                let var = registry.register(VALUE_BYTES, owner);
                policy.register_var(var, owner, VALUE_BYTES);
                env.set_presence(owner, var, true);
                var
            })
            .collect();
        // Read misses, writes that sent messages, writes that sent none.
        let mut spent = [Duration::ZERO; 3];
        let mut count = [0u64; 3];
        for (i, a) in stream.iter().enumerate() {
            let var = vars[a.var as usize];
            if a.kind == AccessKind::Read && env.has_copy(a.proc, var) {
                continue; // the runtime's fast path
            }
            let sends_before = env.sends;
            let t = Instant::now();
            policy.on_access(&mut env, TxId(i as u64 + 1), a.proc, var, a.kind);
            while let Some((at, msg)) = env.fifo.pop_front() {
                env.now += 1;
                policy.on_message(&mut env, at, msg);
            }
            let dt = t.elapsed();
            let slot = match a.kind {
                AccessKind::Read => 0,
                AccessKind::Write if env.sends > sends_before => 1,
                AccessKind::Write => 2,
            };
            spent[slot] += dt;
            count[slot] += 1;
        }
        let accesses: u64 = count.iter().sum();
        assert_eq!(env.completed, accesses, "a replayed transaction hung");
        msgs_per_access = ratio(env.sends as f64, accesses as f64);
        [0, 1, 2].map(|slot| ratio(spent[slot].as_nanos() as f64, count[slot] as f64))
    });
    PolicyCosts {
        read_ns,
        write_ns,
        write_local_ns,
        msgs_per_access,
    }
}

/// `Embedder::position` over seeded placements and every tree node: ns.
pub fn diva_embed_position_ns(li: &LayerInputs) -> f64 {
    let topo = li.topo();
    let tree = Arc::new(DecompositionTree::build_on(&topo, li.spec.tree_shape()));
    let embedder = Embedder::new(Arc::clone(&tree), EmbeddingMode::Modified);
    let mut rng = li.rng(4);
    let placements: Vec<VarPlacement> = (0..64)
        .map(|_| VarPlacement {
            root: NodeId(rng.gen_range(0..topo.nodes() as u32)),
            seed: rng.next_u64(),
        })
        .collect();
    let calls = placements.len() * tree.len();
    let [t] = best_of(li.budget, || {
        [secs(|| {
            let mut acc = 0u32;
            for &placement in &placements {
                for id in tree.node_ids() {
                    acc = acc.wrapping_add(embedder.position(placement, id).0);
                }
            }
            black_box(acc);
        })]
    });
    ratio(t * 1e9, calls as f64)
}

/// `VarGate`: a write admitted, a read queued behind it, both released —
/// ns per admit/release pair.
pub fn diva_gate_cycle_ns(li: &LayerInputs) -> f64 {
    let cycles = 1 << 14;
    let [t] = best_of(li.budget, || {
        [secs(|| {
            let mut gate = VarGate::new();
            let p = NodeId(0);
            for i in 0..cycles {
                let tx = TxId(i);
                black_box(gate.admit(tx, p, AccessKind::Write));
                black_box(gate.admit(tx, p, AccessKind::Read));
                black_box(gate.release(AccessKind::Write));
                black_box(gate.release(AccessKind::Read));
            }
            black_box(gate.is_idle());
        })]
    });
    t * 1e9 / (2 * cycles) as f64
}

/// `LockTable`: an uncontended remote acquire and release with their
/// request, grant and release messages looped back — ns per cycle.
pub fn diva_lock_cycle_ns(li: &LayerInputs) -> f64 {
    let topo = li.topo();
    let nprocs = topo.nodes() as u32;
    let n_vars = li.spec.pool_vars().min(4096) as u32;
    let manager_of = |var: VarHandle| NodeId(var.0.wrapping_mul(7) % nprocs);
    let cycles = 1 << 13;
    let [t] = best_of(li.budget, || {
        let mut table = LockTable::new();
        let mut env = Loopback::new(topo.clone(), 0);
        [secs(|| {
            let drain = |table: &mut LockTable, env: &mut Loopback| {
                while let Some((at, msg)) = env.fifo.pop_front() {
                    assert!(table.on_message(env, at, &msg, manager_of));
                }
            };
            for i in 0..cycles {
                let proc = NodeId(i % nprocs);
                let var = VarHandle(i % n_vars);
                table.acquire(&mut env, TxId(2 * i as u64), proc, var, manager_of(var));
                drain(&mut table, &mut env);
                table.release(&mut env, TxId(2 * i as u64 + 1), proc, var, manager_of(var));
                drain(&mut table, &mut env);
            }
            assert_eq!(env.completed, 2 * cycles as u64, "a lock cycle hung");
        })]
    });
    t * 1e9 / cycles as f64
}

/// `TreeBarrier`: every processor arrives, the waves run to the last wake —
/// µs per round.
pub fn diva_barrier_round_us(li: &LayerInputs) -> f64 {
    let topo = li.topo();
    let nprocs = topo.nodes();
    let mut barrier = TreeBarrier::new_on(&topo, dm_mesh::TreeShape::quad());
    let mut fifo: VecDeque<BarrierMsg> = VecDeque::with_capacity(nprocs);
    let rounds = (1 << 16) / nprocs;
    let [t] = best_of(li.budget, || {
        [secs(|| {
            for _ in 0..rounds {
                let mut woken = 0;
                let mut act = |actions: Vec<BarrierAction>, fifo: &mut VecDeque<BarrierMsg>| {
                    for a in actions {
                        match a {
                            BarrierAction::Send { msg, .. } => fifo.push_back(msg),
                            BarrierAction::Wake { .. } => woken += 1,
                        }
                    }
                };
                for p in 0..nprocs {
                    act(barrier.arrive(NodeId(p as u32)), &mut fifo);
                }
                while let Some(msg) = fifo.pop_front() {
                    act(barrier.on_message(msg), &mut fifo);
                }
                assert_eq!(woken, nprocs, "a barrier round released too few");
            }
        })]
    });
    t * 1e6 / rounds as f64
}

// ---------------------------------------------------------------------------
// diva: run construction and stepping
// ---------------------------------------------------------------------------

/// A program that is done at once.
struct Idle;

impl ProcProgram for Idle {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Op {
        Op::Done
    }
}

/// A program that reads a variable its own processor holds, `left` times.
struct Hitter {
    var: VarHandle,
    left: usize,
    pending: bool,
}

impl ProcProgram for Hitter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        if self.pending {
            black_box(ctx.take_value());
            self.pending = false;
        }
        if self.left == 0 {
            return Op::Done;
        }
        self.left -= 1;
        self.pending = true;
        Op::Read(self.var)
    }
}

/// Allocate the workload's variable pool (round-robin owners) on a fresh
/// `Diva`; returns it with the handles and the seconds the allocation took.
fn diva_with_pool(li: &LayerInputs) -> (Diva, Vec<VarHandle>, f64) {
    let nprocs = li.spec.nprocs();
    let mut diva = Diva::new(li.spec.config());
    let mut vars = Vec::with_capacity(li.spec.pool_vars());
    let t = secs(|| {
        for i in 0..li.spec.pool_vars() {
            vars.push(diva.alloc(i % nprocs, VALUE_BYTES, i as u64));
        }
    });
    (diva, vars, t)
}

/// What the run costs before and after its programs: the pool's allocation
/// plus `run_driven` of programs that are done at once (coordinator
/// construction and teardown), and what stepping costs: `run_driven` of
/// programs whose every read hits locally. Returns (`run_floor_s`,
/// `alloc_ns_per_var`, `step_hit_ns`).
pub fn diva_run_floor_and_step(li: &LayerInputs) -> (f64, f64, f64) {
    let nprocs = li.spec.nprocs();
    let [floor_s, alloc_s] = best_of(li.budget, || {
        let (diva, _vars, alloc_s) = diva_with_pool(li);
        let run_s = secs(|| {
            let out = diva.run_driven((0..nprocs).map(|_| Idle).collect());
            black_box(out.report().total_time);
        });
        [alloc_s + run_s, alloc_s]
    });
    let [hit_s] = best_of(li.budget, || {
        let (diva, vars, alloc_s) = diva_with_pool(li);
        // Variable `p` is owned by processor `p`: the pool has at least one
        // variable per processor and owners go round-robin.
        let programs = (0..nprocs)
            .map(|p| Hitter {
                var: vars[p],
                left: HIT_READS,
                pending: false,
            })
            .collect();
        let run_s = secs(|| {
            let out = diva.run_driven(programs);
            black_box(out.report().total_time);
        });
        [alloc_s + run_s]
    });
    let step_ns = (hit_s - floor_s).max(0.0) * 1e9 / (HIT_READS * nprocs) as f64;
    (
        floor_s,
        ratio(alloc_s * 1e9, li.spec.pool_vars() as f64),
        step_ns,
    )
}

// ---------------------------------------------------------------------------
// apps and rng
// ---------------------------------------------------------------------------

/// `ChaCha8Rng::next_u64`: ns.
pub fn rng_next_u64_ns(li: &LayerInputs) -> f64 {
    let mut rng = li.rng(5);
    let draws = 1 << 16;
    let [t] = best_of(li.budget, || {
        [secs(|| {
            let mut acc = 0u64;
            for _ in 0..draws {
                acc ^= rng.next_u64();
            }
            black_box(acc);
        })]
    });
    t * 1e9 / draws as f64
}

/// `ZipfSampler::sample` over the KV key space: ns.
pub fn apps_zipf_sample_ns(li: &LayerInputs) -> f64 {
    let n_keys = match li.spec.app {
        App::Kv { n_keys, .. } => n_keys,
        _ => 2_048,
    };
    let zipf = ZipfSampler::new(n_keys, KV_ZIPF_S);
    let mut rng = li.rng(6);
    let draws = 1 << 16;
    let [t] = best_of(li.budget, || {
        [secs(|| {
            let mut acc = 0usize;
            for _ in 0..draws {
                acc ^= zipf.sample(&mut rng);
            }
            black_box(acc);
        })]
    });
    t * 1e9 / draws as f64
}

/// Generating the workload's inputs from the seed: seconds.
pub fn apps_input_gen_s(li: &LayerInputs) -> f64 {
    // Batched: the KV and uniform inputs are a few words.
    let batch = 64;
    let [t] = best_of(li.budget, || {
        [secs(|| {
            for _ in 0..batch {
                black_box(li.spec.inputs(black_box(li.seed)));
            }
        })]
    });
    t / batch as f64
}

/// One step of `reference_simulation` — Barnes-Hut's pure computation
/// without any data management: seconds.
pub fn apps_bh_reference_step_s(li: &LayerInputs) -> f64 {
    let n_bodies = match li.spec.app {
        App::BarnesHut { n_bodies, .. } => n_bodies,
        _ => DEFAULT_BODIES,
    };
    let bodies = plummer_bodies(li.seed ^ n_bodies as u64, n_bodies);
    let params = dm_apps::barnes_hut::BhParams::new(n_bodies);
    let [t] = best_of(li.budget, || {
        [secs(|| {
            black_box(reference_simulation(&bodies, params.theta, params.dt, 1));
        })]
    });
    t
}

/// Host seconds the programs' own computation takes in one run, from the
/// unit costs above: Barnes-Hut's sequential steps, or the draws the KV and
/// uniform programs make per operation.
pub fn apps_compute_s(li: &LayerInputs, zipf_ns: f64, rng_ns: f64, bh_step_s: f64) -> f64 {
    let requests = li.report.serving.requests as f64;
    let writes = li.writes() as f64;
    match li.spec.app {
        App::BarnesHut { timesteps, .. } => timesteps as f64 * bh_step_s,
        // Key (one draw inside the sampler), read-or-write, written value.
        App::Kv { .. } => (requests * (zipf_ns + rng_ns) + writes * rng_ns) / 1e9,
        App::Uniform { .. } => (2.0 * requests + writes) * rng_ns / 1e9,
    }
}

// ---------------------------------------------------------------------------
// bench harness (informational)
// ---------------------------------------------------------------------------

/// The workload's own result row, as the figure harness would store it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Application operations.
    pub ops: u64,
    /// Simulated execution time in ns.
    pub sim_exec_ns: u64,
    /// Congestion in bytes.
    pub congestion_bytes: u64,
    /// Requests served.
    pub requests: u64,
    /// Requests served from a local copy.
    pub local_hits: u64,
    /// Host seconds of the run.
    pub host_s: f64,
}

dm_bench::impl_to_json!(ResultRow {
    workload,
    seed,
    ops,
    sim_exec_ns,
    congestion_bytes,
    requests,
    local_hits,
    host_s,
});

dm_bench::impl_from_json!(ResultRow {
    workload,
    seed,
    ops,
    sim_exec_ns,
    congestion_bytes,
    requests,
    local_hits,
    host_s,
});

impl ResultRow {
    /// The row of this workload's run.
    pub fn of(li: &LayerInputs, host_s: f64) -> Self {
        ResultRow {
            workload: li.spec.name.to_string(),
            seed: li.seed,
            ops: li.spec.ops(li.report),
            sim_exec_ns: li.report.total_time,
            congestion_bytes: li.report.congestion_bytes(),
            requests: li.report.serving.requests,
            local_hits: li.report.serving.local_hits,
            host_s,
        }
    }
}

/// `dm_bench::json`: the row written, parsed and rebuilt — ns.
pub fn bench_json_row_roundtrip_ns(li: &LayerInputs, row: &ResultRow) -> f64 {
    let batch = 256;
    let [t] = best_of(li.budget, || {
        [secs(|| {
            for _ in 0..batch {
                let text = black_box(row).to_json();
                let value = json::parse(&text).expect("the row's own JSON parses");
                let back = ResultRow::from_json(&value).expect("the row's own JSON converts");
                assert_eq!(&back, row);
            }
        })]
    });
    t * 1e9 / batch as f64
}

/// Seconds per fsync'd record appended to a fresh sidecar at `path`.
fn sidecar_append_s(li: &LayerInputs, row: &ResultRow, path: &Path) -> std::io::Result<f64> {
    let header = SidecarHeader {
        sweep: li.spec.name.to_string(),
        scale: "hostbench".to_string(),
        seed: li.seed,
        total_jobs: 0,
        shard: None,
    };
    let result = JobResult {
        value: row.clone(),
        host_ms: row.host_s * 1e3,
    };
    let mut writer = SidecarWriter::create(path, &header)?;
    let batch = 8;
    let mut job = 0;
    let mut outcome = Ok(());
    let [t] = best_of(li.budget, || {
        [secs(|| {
            for _ in 0..batch {
                if let Err(e) = writer.append(job, &result) {
                    outcome = Err(e);
                }
                job += 1;
            }
        })]
    });
    outcome.map(|()| t / batch as f64)
}

/// `dm_bench::stream`: one fsync'd sidecar record — µs. Disk timing:
/// informational only. An unwritable directory makes the metric
/// not-a-number, which the run reports as a failed check.
pub fn bench_sidecar_append_us(li: &LayerInputs, row: &ResultRow, dir: &Path) -> f64 {
    let path = dir.join(format!("sidecar-{}.partial.jsonl", li.spec.name));
    let timed = std::fs::create_dir_all(dir).and_then(|()| sidecar_append_s(li, row, &path));
    // Best effort: the file is scratch inside an ignored directory.
    let _ = std::fs::remove_file(&path);
    timed.map_or(f64::NAN, |s| s * 1e6)
}

/// `dm_bench::executor`: dispatching one described job on the serial path —
/// µs per job.
pub fn bench_executor_job_us(li: &LayerInputs, row: &ResultRow) -> f64 {
    let batch = 64;
    let [t] = best_of(li.budget, || {
        let jobs: Vec<Job<u64>> = (0..batch)
            .map(|i| {
                let ops = row.ops;
                Job::new(1, move || ops + i)
            })
            .collect();
        [secs(|| {
            black_box(run_jobs(1, jobs));
        })]
    });
    t * 1e6 / batch as f64
}
