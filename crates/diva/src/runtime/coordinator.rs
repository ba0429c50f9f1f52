//! The coordinator: a deterministic discrete-event loop that drives the
//! simulated processors (state machines stepped by a [`Stepper`]), the
//! data-management policy, the barrier and the explicit message-passing
//! layer over the simulated network.

use super::frontend::{Response, StepEnv, Stepper, TimedRequest};
use super::observer::Observer;
use super::program::{Op, ProcProgram};
use super::{Degraded, Diva, Partitioned, RunDone, RunOutcome};
use crate::barrier::{BarrierAction, BarrierMsg, TreeBarrier};
use crate::fasthash::FastMap;
use crate::fault::{FaultAction, TimedFault};
use crate::policy::{
    AccessKind, Counter, LockTable, Policy, PolicyEnv, PolicyMsg, TxId, COUNTER_COUNT,
};
use crate::report::{FaultTally, RegionReport, RunReport, ServingReport};
use crate::var::{Value, VarHandle, VarRegistry};
use dm_engine::{EventQueue, LinkNetwork, MachineConfig, RegionId, SimTime};
use dm_mesh::{AnyTopology, LinkStats, NodeId, TreeShape};
use std::collections::{BTreeMap, VecDeque};

/// What a blocked processor is waiting for (determines the response payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxKind {
    Read,
    Write,
    Lock,
    Unlock,
}

/// Bookkeeping for one in-flight transaction, kept in its processor's slot.
#[derive(Debug, Clone)]
pub(crate) struct TxRec {
    /// The id handed to the policy: a run-wide serial number above the
    /// processor's index (`serial << 32 | proc`).
    pub tx: TxId,
    pub var: Option<VarHandle>,
    pub kind: TxKind,
    /// Virtual time at which the processor issued the request; the
    /// completion time minus this is the per-request response time of the
    /// serving histogram.
    pub issued: SimTime,
}

/// Events of the coordinator's discrete-event loop.
pub(crate) enum Event {
    /// A protocol message arrives at mesh node `at`.
    PolicyDeliver { at: NodeId, msg: PolicyMsg },
    /// A barrier message arrives at its tree node.
    BarrierDeliver { msg: BarrierMsg },
    /// An explicit message-passing payload arrives at processor `to`.
    MpDeliver {
        to: usize,
        from: usize,
        tag: u64,
        value: Value,
    },
    /// A scheduled fault fires. Fault events are enqueued at construction,
    /// before any protocol traffic, so the FIFO tie-break of the event queue
    /// applies them ahead of same-time arrivals.
    Fault(FaultAction),
}

// The event queue holds each pending event in a slab node: a larger event is
// paid for by every push and pop of a run, and the node stays one cache line.
const _: () = assert!(std::mem::size_of::<Event>() == 48);
const _: () = assert!(EventQueue::<Event>::NODE_BYTES == 64);

/// The part of the coordinator state the policy is allowed to see
/// (implements [`PolicyEnv`]), with the run's observer.
pub(crate) struct EnvState<O: Observer = ()> {
    pub now: SimTime,
    pub machine: MachineConfig,
    pub topo: AnyTopology,
    pub network: LinkNetwork,
    pub events: EventQueue<Event>,
    /// Every variable's size, copy count and value. Owned here and mutated
    /// only between gather windows; the stepper borrows it for the duration
    /// of a gather.
    pub registry: VarRegistry,
    pub counters: [u64; COUNTER_COUNT],
    /// The open transaction of each processor. A processor never has two:
    /// Read, Write, Lock and Unlock block its program until they complete,
    /// and a lost processor issues nothing more.
    pub tx_table: Vec<Option<TxRec>>,
    pub completions: Vec<(TxId, SimTime)>,
    pub proc_region: Vec<RegionId>,
    /// Fault accounting for the report (all zero without a fault plan).
    pub faults: FaultTally,
    /// Which application processors were fail-stopped by a node failure
    /// (all false without a fault plan). Lives in the env so policy code
    /// can drop straggling traffic from dead processors (see
    /// [`PolicyEnv::app_lost`]).
    pub app_lost: Vec<bool>,
    /// Latest arrival of any re-homing migration message: folded into the
    /// total time so recovery traffic extends the run like protocol traffic.
    pub rehome_quiesce: SimTime,
    /// Serving-side metrics (requests, hits, bytes moved, response
    /// histogram), tallied here — and only here — so every policy reports
    /// identically. The replication high-water mark is the registry's.
    pub serving: ServingReport,
    next_tx: u64,
    obs: O,
}

impl<O: Observer> EnvState<O> {
    fn new_tx(&mut self, proc: usize, var: Option<VarHandle>, kind: TxKind) -> TxId {
        self.next_tx += 1;
        let tx = TxId(self.next_tx << 32 | proc as u64);
        let open = self.tx_table[proc].replace(TxRec {
            tx,
            var,
            kind,
            issued: self.now,
        });
        debug_assert!(
            open.is_none(),
            "processor {proc} opened a second transaction"
        );
        tx
    }

    /// Queue `ev` at `at`: the one place an event is scheduled.
    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.obs.scheduled(at);
        self.events.push(at, ev);
    }

    /// Transmit a message of `bytes` from `from` to `to` in the sender's
    /// region and schedule `arrival` for when it gets there. Returns when
    /// the sender is free again.
    fn send_event(&mut self, from: NodeId, to: NodeId, bytes: u32, arrival: Event) -> SimTime {
        let region = self.proc_region[from.index()];
        let d = self.network.transmit(self.now, from, to, bytes, region);
        self.schedule(d.arrival, arrival);
        d.sender_free
    }
}

impl<O: Observer> PolicyEnv for EnvState<O> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn config(&self) -> &MachineConfig {
        &self.machine
    }

    fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    fn var_bytes(&self, var: VarHandle) -> u32 {
        self.registry.bytes(var)
    }

    fn send(&mut self, from: NodeId, to: NodeId, bytes: u32, msg: PolicyMsg) -> SimTime {
        self.serving.bytes_moved += bytes as u64;
        self.send_event(from, to, bytes, Event::PolicyDeliver { at: to, msg })
    }

    fn complete(&mut self, tx: TxId) {
        let at = self.now;
        self.completions.push((tx, at));
    }

    fn complete_at(&mut self, tx: TxId, at: SimTime) {
        self.completions.push((tx, at.max(self.now)));
    }

    /// Count the copy gained or lost: policies notify only when their copy
    /// set changed.
    fn set_presence(&mut self, _proc: NodeId, var: VarHandle, present: bool) {
        self.registry.note_copy(var, present);
    }

    fn bump(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    fn app_lost(&self, node: NodeId) -> bool {
        self.app_lost[node.index()]
    }

    fn note_force_release(&mut self) {
        self.faults.locks_force_released += 1;
    }

    fn charge_rehome(&mut self, from: NodeId, to: NodeId, bytes: u32) {
        // Routed, timed and counted like any message (the congestion cost of
        // recovery is the point), but delivered to no handler: re-homing
        // mutates directory state in place at fault time.
        let region = self.proc_region[from.index()];
        let d = self.network.transmit(self.now, from, to, bytes, region);
        self.faults.rehome_msgs += 1;
        self.faults.rehome_bytes += bytes as u64;
        self.rehome_quiesce = self.rehome_quiesce.max(d.arrival);
    }
}

/// The coordinator of a [`Diva::run_observed`](crate::Diva::run_observed)
/// execution.
pub(crate) struct Coordinator<P: ProcProgram, O: Observer = ()> {
    env: EnvState<O>,
    policy: Box<dyn Policy>,
    barrier: TreeBarrier,
    /// Every variable's lock. Each lock is managed at the node the policy
    /// names ([`Policy::lock_manager`]); the table is the only lock state.
    locks: LockTable,
    stepper: Stepper<P>,
    nprocs: usize,
    finished: usize,
    strategy_name: String,

    proc_clock: Vec<SimTime>,
    proc_compute: Vec<SimTime>,

    // Measurement regions: index 0 is the implicit whole-run region, named
    // regions start at 1.
    region_names: Vec<String>,
    region_enter: Vec<SimTime>,
    region_wall: Vec<Vec<SimTime>>,
    region_compute: Vec<Vec<SimTime>>,

    // Explicit message passing.
    mailbox: FastMap<(usize, usize, u64), VecDeque<(SimTime, Value)>>,
    pending_recv: FastMap<(usize, usize, u64), VecDeque<SimTime>>,

    /// Double buffer for [`Coordinator::flush_completions`] so the drain
    /// loop reuses one allocation.
    completion_scratch: Vec<(TxId, SimTime)>,

    /// Which nodes currently carry their data-management role (all true
    /// without a fault plan; a [`FaultAction::RestoreNode`] flips the bit
    /// back and the node rejoins as a fresh successor candidate).
    node_alive: Vec<bool>,
    /// Per-processor "no further requests owed" flag: set on a normal
    /// [`Op::Done`] and when a node failure fail-stops the resident program.
    proc_done: Vec<bool>,
    /// Per-processor "arrived at the barrier, awaiting its wake" flag —
    /// barrier-membership removal of a lost processor must be deferred
    /// while this is set (its arrival was already counted; see
    /// [`TreeBarrier::remove`]).
    in_barrier: Vec<bool>,
    /// Application processors lost to node failures, in loss order.
    lost_procs: Vec<NodeId>,
    /// Virtual time of the first application-processor loss.
    first_loss: Option<SimTime>,
    /// Set when link failures disconnect the surviving network: `(time,
    /// first unreachable node)`. Ends the run cleanly.
    partitioned: Option<(SimTime, NodeId)>,

    last_event_time: SimTime,
}

impl<P: ProcProgram, O: Observer> Coordinator<P, O> {
    /// The run of `programs`, one per processor, on `diva`, watched by `obs`.
    pub(crate) fn new(diva: Diva, programs: Vec<P>, obs: O) -> Self {
        let Diva {
            cfg,
            registry,
            policy,
            barrier_tree,
        } = diva;
        let (topo, machine) = (cfg.topology, cfg.machine);
        let nprocs = topo.nodes();
        assert_eq!(
            programs.len(),
            nprocs,
            "run_driven needs exactly one program per processor"
        );
        // The 4-ary access trees' tree if there is one; otherwise the
        // barrier builds its own, at run start.
        let barrier = match barrier_tree {
            Some(tree) => TreeBarrier::with_tree(tree),
            None => TreeBarrier::new_on(&topo, TreeShape::quad()),
        };
        let faults: Vec<TimedFault> = cfg
            .fault_plan
            .map(|plan| plan.resolve(&topo))
            .unwrap_or_default();
        let network = LinkNetwork::new(topo.clone(), machine);
        let mut coord = Coordinator {
            env: EnvState {
                now: 0,
                machine,
                topo,
                network,
                // Pre-size from the processor count: the opening barrier /
                // first request round schedules O(nprocs) arrivals at once.
                // One slot per processor is the measured depth: the seed-1
                // peaks of the hostbench workloads are 254 and 180 at 256
                // processors (KV read / write), 4 018 at 4 096 (uniform) —
                // only Barnes-Hut at 64 (440) regrows, and the queue's node
                // slab regrows by doubling. Its ring of buckets costs a fixed
                // 8 KiB of heap whatever the size.
                events: EventQueue::with_capacity(nprocs),
                registry,
                counters: [0; COUNTER_COUNT],
                tx_table: vec![None; nprocs],
                completions: Vec::new(),
                proc_region: vec![dm_engine::GLOBAL_REGION; nprocs],
                faults: FaultTally::default(),
                app_lost: vec![false; nprocs],
                rehome_quiesce: 0,
                serving: ServingReport::default(),
                next_tx: 0,
                obs,
            },
            policy,
            barrier,
            locks: LockTable::new(),
            stepper: Stepper::new(programs, StepEnv { nprocs, machine }),
            nprocs,
            finished: 0,
            strategy_name: cfg.strategy.name(),
            proc_clock: vec![0; nprocs],
            proc_compute: vec![0; nprocs],
            region_names: Vec::new(),
            region_enter: vec![0; nprocs],
            region_wall: vec![vec![0; nprocs]],
            region_compute: vec![vec![0; nprocs]],
            mailbox: FastMap::default(),
            pending_recv: FastMap::default(),
            completion_scratch: Vec::new(),
            node_alive: vec![true; nprocs],
            proc_done: vec![false; nprocs],
            in_barrier: vec![false; nprocs],
            lost_procs: Vec::new(),
            first_loss: None,
            partitioned: None,
            last_event_time: 0,
        };
        // Enqueue the fault schedule before any protocol traffic: the
        // event queue's FIFO tie-break then applies a fault ahead of every
        // same-time message arrival.
        for f in faults {
            coord.env.schedule(f.at, Event::Fault(f.action));
        }
        coord
    }

    /// Run the event loop to completion and package the outcome — the
    /// report with the final program states, or, if link failures
    /// disconnected the machine or node failures lost application
    /// processors, the partitioned or degraded outcome — with the observer.
    pub(crate) fn run(mut self) -> (RunOutcome<P>, O) {
        let mut batch = Vec::new();
        loop {
            // 1. Gather one round of requests: one blocking operation per
            //    runnable processor.
            self.stepper
                .gather(&self.env.registry, self.policy.copies(), &mut batch);
            if !batch.is_empty() {
                // Deterministic handling order: by issue time, then processor
                // id — a total order (each processor contributes at most one
                // request per round), so any gather order produces the same
                // handling sequence. The keys are unique, so an unstable
                // sort gives that order without a stable sort's scratch
                // buffer the size of the batch. Steady-state rounds are
                // singletons; skip the sort machinery for those.
                if batch.len() > 1 {
                    let key = |r: &TimedRequest| (self.issue_time(r), r.proc);
                    batch.sort_unstable_by_key(key);
                    debug_assert!(
                        batch.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                        "two requests of one processor in a round"
                    );
                }
                for r in batch.drain(..) {
                    self.handle_request(r);
                }
                self.flush_completions();
                continue;
            }
            // 2. All processors blocked: advance the simulation.
            if self.finished == self.nprocs && self.env.events.is_empty() {
                break;
            }
            match self.env.events.pop() {
                Some((t, ev)) => {
                    self.env.obs.handled(t, !matches!(ev, Event::Fault(_)));
                    self.env.now = t;
                    self.last_event_time = self.last_event_time.max(t);
                    self.handle_event(ev);
                    self.flush_completions();
                    // A partition means some pending traffic can never be
                    // delivered: stop cleanly (before the next gather would
                    // block on it) instead of hanging or panicking deep in
                    // the network.
                    if self.partitioned.is_some() {
                        break;
                    }
                }
                None => {
                    // No runnable processor and no pending event. Without
                    // losses this is an application bug (missing send/recv,
                    // barrier or unlock). With lost application processors
                    // it is starvation, not a bug: a survivor blocked on a
                    // dead peer (say, a receive whose sender was lost) can
                    // never be woken — it is transitively lost, and the run
                    // ends degraded instead of hanging.
                    if self.lost_procs.is_empty() {
                        self.report_deadlock();
                    }
                    self.starvation_kill();
                }
            }
        }
        let report = self.build_report();
        let outcome = if let Some((at, unreachable)) = self.partitioned {
            RunOutcome::Partitioned(Partitioned {
                at,
                unreachable,
                report,
            })
        } else if let Some(at) = self.first_loss {
            let survivor_checksum = self.survivor_checksum();
            // Lost programs are frozen mid-operation; their final states are
            // meaningless and withheld as `None`.
            let results = self
                .stepper
                .into_programs()
                .into_iter()
                .zip(&self.env.app_lost)
                .map(|(program, &lost)| (!lost).then_some(program))
                .collect();
            RunOutcome::Degraded(Degraded {
                at,
                lost_procs: self.lost_procs,
                survivor_checksum,
                report,
                results,
            })
        } else {
            // A completed run is quiescent: every operation was answered.
            debug_assert!(
                self.env.tx_table.iter().all(Option::is_none) && self.env.completions.is_empty(),
                "a completed run left transactions open"
            );
            RunOutcome::Completed(RunDone {
                report,
                results: self.stepper.into_programs(),
                queue_trace: Vec::new(),
            })
        };
        (outcome, self.env.obs)
    }

    /// FNV-1a over `(processor id, final clock)` of the survivors of a
    /// degraded run (see [`Degraded::survivor_checksum`]).
    fn survivor_checksum(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for p in 0..self.nprocs {
            if self.env.app_lost[p] {
                continue;
            }
            for byte in (p as u64)
                .to_le_bytes()
                .into_iter()
                .chain(self.proc_clock[p].to_le_bytes())
            {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    }

    /// Issue time of a request: the processor's clock plus the locally
    /// accumulated compute/overhead time it carries.
    fn issue_time(&self, r: &TimedRequest) -> SimTime {
        self.proc_clock[r.proc] + r.compute_ns + r.overhead_ns
    }

    fn respond(&mut self, proc: usize, resp: Response) {
        // Whatever would have woken a lost processor evaporates: its program
        // is fail-stopped and must never become runnable again.
        if self.env.app_lost[proc] {
            return;
        }
        self.stepper.respond(proc, resp);
    }

    fn handle_request(&mut self, timed: TimedRequest) {
        let TimedRequest {
            proc,
            op,
            compute_ns,
            overhead_ns,
            hits,
        } = timed;
        let region = self.env.proc_region[proc];
        self.region_compute[region.0 as usize][proc] += compute_ns;
        self.proc_compute[proc] += compute_ns;
        self.proc_clock[proc] += compute_ns + overhead_ns;
        self.env.counters[Counter::ReadHit.index()] += hits;
        if hits > 0 {
            // Fast-path local reads: each was served in one local access
            // without a protocol transaction. They are requests too, and
            // their (constant) latency belongs in the response histogram.
            self.env.serving.requests += hits;
            self.env.serving.local_hits += hits;
            let bucket = ServingReport::bucket(self.env.machine.local_access_ns());
            self.env.serving.response_hist[bucket] += hits;
        }
        let now = self.proc_clock[proc];
        self.env.now = now;

        match op {
            Op::Compute { .. } => unreachable!("the stepper absorbs Op::Compute"),
            // Only the reads the fast path did not absorb arrive here.
            Op::Read(var) => self.access(proc, var, TxKind::Read, AccessKind::Read),
            Op::Write(var, value) => {
                self.env.registry.set_value(var, value);
                self.access(proc, var, TxKind::Write, AccessKind::Write);
            }
            Op::Alloc { bytes, value } => {
                let owner = NodeId(proc as u32);
                let var = self.env.registry.register(bytes, owner);
                self.env.registry.set_value(var, value);
                self.policy.register_var(var, owner, bytes);
                self.proc_clock[proc] += self.env.machine.local_access_ns();
                self.respond(proc, Response::Handle(var));
            }
            Op::Free(vars) => {
                // Retire each variable in list order: policy teardown, lock
                // eviction, then the registry drops the payload and recycles
                // the slot. Pure bookkeeping — no messages, no simulated time.
                for var in vars {
                    self.policy.free_var(&mut self.env, var);
                    self.locks.evict(var);
                    self.env.registry.free(var);
                }
                self.respond(proc, Response::Done);
            }
            Op::Barrier => {
                self.in_barrier[proc] = true;
                let actions = self.barrier.arrive(NodeId(proc as u32));
                self.apply_barrier_actions(actions);
            }
            Op::Lock(var) => {
                let tx = self.env.new_tx(proc, Some(var), TxKind::Lock);
                let manager = self.policy.lock_manager(var);
                self.locks
                    .acquire(&mut self.env, tx, NodeId(proc as u32), var, manager);
            }
            Op::Unlock(var) => {
                let tx = self.env.new_tx(proc, Some(var), TxKind::Unlock);
                let manager = self.policy.lock_manager(var);
                self.locks
                    .release(&mut self.env, tx, NodeId(proc as u32), var, manager);
            }
            Op::Send {
                to,
                bytes,
                tag,
                value,
            } => {
                let arrival = Event::MpDeliver {
                    to,
                    from: proc,
                    tag,
                    value,
                };
                // Non-blocking send: the sender continues once its send-side
                // startup is done.
                self.proc_clock[proc] =
                    self.env
                        .send_event(NodeId(proc as u32), NodeId(to as u32), bytes, arrival);
                self.respond(proc, Response::Done);
            }
            Op::Recv { from, tag } => {
                let key = (proc, from, tag);
                if let Some((arrival, value)) =
                    self.mailbox.get_mut(&key).and_then(|q| q.pop_front())
                {
                    self.proc_clock[proc] = now.max(arrival);
                    self.respond(proc, Response::Value(value));
                } else {
                    self.pending_recv.entry(key).or_default().push_back(now);
                }
            }
            Op::Region(name) => {
                self.switch_region(proc, &name, now);
                self.respond(proc, Response::Done);
            }
            Op::Done => {
                self.flush_region_time(proc, now);
                self.proc_done[proc] = true;
                self.finished += 1;
            }
        }
    }

    /// Start the protocol transaction of a read or write. A read that
    /// arrives here missed: the fast path absorbed the hits.
    fn access(&mut self, proc: usize, var: VarHandle, tx_kind: TxKind, kind: AccessKind) {
        self.env.serving.requests += 1;
        if kind == AccessKind::Read {
            self.env.counters[Counter::ReadMiss.index()] += 1;
        }
        let tx = self.env.new_tx(proc, Some(var), tx_kind);
        self.policy
            .on_access(&mut self.env, tx, NodeId(proc as u32), var, kind);
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::PolicyDeliver { at, msg } => {
                // Lock traffic is the runtime's; the rest is the policy's.
                let policy = &self.policy;
                let manager_of = |var| policy.lock_manager(var);
                if !self.locks.on_message(&mut self.env, at, &msg, manager_of) {
                    self.policy.on_message(&mut self.env, at, msg);
                }
            }
            Event::BarrierDeliver { msg } => {
                let actions = self.barrier.on_message(msg);
                self.apply_barrier_actions(actions);
            }
            Event::MpDeliver {
                to,
                from,
                tag,
                value,
            } => {
                // A payload that was in flight when its destination
                // processor was lost evaporates (and must not advance the
                // dead processor's frozen clock).
                if self.env.app_lost[to] {
                    return;
                }
                let key = (to, from, tag);
                let now = self.env.now;
                if let Some(issue) = self.pending_recv.get_mut(&key).and_then(|q| q.pop_front()) {
                    self.proc_clock[to] = issue.max(now);
                    self.respond(to, Response::Value(value));
                } else {
                    self.mailbox.entry(key).or_default().push_back((now, value));
                }
            }
            Event::Fault(action) => self.apply_fault(action),
        }
    }

    /// Apply one scheduled fault to the network and the protocol state.
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::DegradeLinks(victims) => {
                for (link, factor) in victims {
                    self.env.network.degrade_link(link, factor);
                    self.env.faults.links_degraded += 1;
                }
            }
            FaultAction::FailLinks(victims) => {
                for link in victims {
                    if self.env.network.fail_link(link) {
                        self.env.faults.links_failed += 1;
                    }
                }
                // One connectivity check per batch: if the survivors no
                // longer connect the machine, record the partition — the run
                // loop ends cleanly at the next iteration.
                if let Err(unreachable) = self.env.network.check_connected() {
                    self.partitioned = Some((self.env.now, unreachable));
                }
            }
            FaultAction::FailNode(victim) => {
                if !self.node_alive[victim.index()] {
                    return;
                }
                // Liveness backstop for hand-written or randomized plans:
                // the last alive node never fails (there would be no
                // successor for its data-management role).
                if self.node_alive.iter().filter(|&&a| a).count() == 1 {
                    return;
                }
                self.node_alive[victim.index()] = false;
                self.env.faults.nodes_failed += 1;
                let successor = self.successor_of(victim);
                self.policy.on_node_fail(&mut self.env, victim, successor);
                // Node failure is fail-stop of the *whole* node: the
                // resident application processor dies with its
                // data-management role.
                self.kill_app(victim);
            }
            FaultAction::HealLinks(links) => {
                for link in links {
                    if self.env.network.heal_link(link) {
                        self.env.faults.links_healed += 1;
                    }
                }
            }
            FaultAction::RestoreNode(victim) => {
                if self.node_alive[victim.index()] {
                    return;
                }
                self.node_alive[victim.index()] = true;
                self.env.faults.nodes_restored += 1;
                // The node rejoins as a *fresh* successor candidate: it is
                // again eligible to inherit roles from future failures, but
                // directory state re-homed away from it stays where it is
                // and its lost application processor does not come back
                // (fail-stop) — see docs/architecture.md for the rationale.
                self.policy.on_node_restore(victim);
            }
        }
    }

    /// Fail-stop the application processor resident on a failed node: drain
    /// its in-flight work so the run completes (degraded) instead of
    /// hanging. A program that already finished keeps its result — only the
    /// node's data-management role was lost.
    fn kill_app(&mut self, victim: NodeId) {
        let p = victim.index();
        if self.proc_done[p] {
            return;
        }
        self.env.app_lost[p] = true;
        self.lost_procs.push(victim);
        self.env.faults.procs_lost += 1;
        self.first_loss.get_or_insert(self.env.now);
        // The victim counts as finished for the termination condition; its
        // region wall time closes at its last known local clock (the clock
        // of a dead processor never advances again).
        let clock = self.proc_clock[p];
        self.flush_region_time(p, clock);
        self.proc_done[p] = true;
        self.finished += 1;
        // Never step (or wait for) the victim's program again.
        self.stepper.kill(p);
        // Receives the victim posted can never complete; payloads already
        // in flight towards it evaporate in `MpDeliver`.
        self.pending_recv.retain(|&(to, _, _), _| to != p);
        // Locks: purge the victim's queued requests and force-release any
        // lock it holds so a dead holder never wedges its waiters (the next
        // waiter is granted; straggling lock traffic from the victim is
        // dropped by the `LockTable`). After a node failure the policy has
        // already re-homed, so a moved manager grants from its new node.
        let policy = &self.policy;
        self.locks
            .force_release(&mut self.env, victim, |var| policy.lock_manager(var));
        // Barrier membership: if the victim is waiting inside the barrier
        // its arrival was already counted, so removal is deferred until the
        // round completes and its wake is dropped (see
        // `apply_barrier_actions`); otherwise rounds stop expecting it now.
        if !self.in_barrier[p] {
            let actions = self.barrier.remove(victim);
            self.apply_barrier_actions(actions);
        }
    }

    /// Kill every still-blocked unfinished processor: they are transitively
    /// lost (blocked on a dead peer), the simulation has no event left that
    /// could wake them. Only called when at least one processor was already
    /// lost to a node failure.
    fn starvation_kill(&mut self) {
        let stalled: Vec<NodeId> = (0..self.nprocs)
            .filter(|&p| !self.proc_done[p])
            .map(|p| NodeId(p as u32))
            .collect();
        debug_assert!(
            !stalled.is_empty(),
            "starvation kill with every processor finished"
        );
        for victim in stalled {
            self.kill_app(victim);
        }
    }

    /// Deterministic successor for a failed node's data-management role: the
    /// next alive node id, wrapping. The fault plan guarantees at least one
    /// survivor.
    fn successor_of(&self, victim: NodeId) -> NodeId {
        let n = self.nprocs;
        let mut i = (victim.index() + 1) % n;
        while !self.node_alive[i] {
            i = (i + 1) % n;
            debug_assert_ne!(i, victim.index(), "no alive successor");
        }
        NodeId(i as u32)
    }

    /// Carry out the barrier's actions at the current time.
    fn apply_barrier_actions(&mut self, actions: Vec<BarrierAction>) {
        for action in actions {
            match action {
                BarrierAction::Send { from, to, msg } => {
                    let bytes = self.env.machine.control_msg_bytes;
                    self.env
                        .send_event(from, to, bytes, Event::BarrierDeliver { msg });
                }
                BarrierAction::Wake { proc } => {
                    let p = proc.index();
                    self.in_barrier[p] = false;
                    if self.env.app_lost[p] {
                        // The processor died while waiting inside the
                        // barrier: its arrival was counted and the round
                        // completed normally. Its wake is dropped, and only
                        // now — with no in-flight arrival left — is its
                        // membership removed for future rounds.
                        let removal = self.barrier.remove(proc);
                        self.apply_barrier_actions(removal);
                        continue;
                    }
                    self.proc_clock[p] = self.proc_clock[p].max(self.env.now);
                    self.respond(p, Response::Done);
                }
            }
        }
    }

    /// Deliver all pending transaction completions to their processors.
    fn flush_completions(&mut self) {
        while !self.env.completions.is_empty() {
            let mut batch = std::mem::take(&mut self.completion_scratch);
            std::mem::swap(&mut self.env.completions, &mut batch);
            for (tx, at) in batch.drain(..) {
                let proc = tx.0 as u32 as usize;
                let rec = self
                    .env
                    .tx_table
                    .get_mut(proc)
                    .and_then(|slot| slot.take_if(|rec| rec.tx == tx))
                    .expect("completion of an unknown transaction");
                if self.env.app_lost[proc] {
                    // The transaction outlived its processor; the result
                    // evaporates and the dead clock stays frozen.
                    continue;
                }
                if matches!(rec.kind, TxKind::Read | TxKind::Write) {
                    let bucket = ServingReport::bucket(at.saturating_sub(rec.issued));
                    self.env.serving.response_hist[bucket] += 1;
                }
                self.proc_clock[proc] = self.proc_clock[proc].max(at);
                let resp = match rec.kind {
                    TxKind::Read => {
                        let var = rec.var.expect("read transaction without a variable");
                        Response::Value(self.env.registry.value(var))
                    }
                    TxKind::Write | TxKind::Lock | TxKind::Unlock => Response::Done,
                };
                self.respond(proc, resp);
            }
            self.completion_scratch = batch;
        }
    }

    fn switch_region(&mut self, proc: usize, name: &str, now: SimTime) {
        self.flush_region_time(proc, now);
        // A region's id is its position in first-seen order plus one (0 is
        // the whole run); programs declare a handful, so a scan finds it.
        let id = match self.region_names.iter().position(|n| n == name) {
            Some(pos) => pos + 1,
            None => {
                self.region_names.push(name.to_string());
                self.region_wall.push(vec![0; self.nprocs]);
                self.region_compute.push(vec![0; self.nprocs]);
                self.region_names.len()
            }
        };
        self.env.proc_region[proc] = RegionId(id as u16);
        self.region_enter[proc] = now;
    }

    /// Add the time since the processor entered its current region to that
    /// region's wall-time accumulator.
    fn flush_region_time(&mut self, proc: usize, now: SimTime) {
        let region = self.env.proc_region[proc];
        let elapsed = now.saturating_sub(self.region_enter[proc]);
        self.region_wall[region.0 as usize][proc] += elapsed;
        self.region_enter[proc] = now;
    }

    fn report_deadlock(&self) -> ! {
        let waiting_recvs: usize = self.pending_recv.values().map(|q| q.len()).sum();
        let open_txs = self.env.tx_table.iter().flatten().count();
        panic!(
            "simulation deadlock: {} of {} processors finished, {} open transactions, \
             {} processors waiting in recv(), no pending events — the application is \
             most likely missing a matching send/recv, barrier or unlock",
            self.finished, self.nprocs, open_txs, waiting_recvs
        );
    }

    fn build_report(&mut self) -> RunReport {
        let proc_max = self.proc_clock.iter().copied().max().unwrap_or(0);
        let total_time = proc_max
            .max(self.last_event_time)
            .max(self.env.rehome_quiesce);
        let compute_time = self.proc_compute.iter().copied().max().unwrap_or(0);
        // Close the current region of every processor at its final clock so
        // per-region wall times are complete even without explicit region
        // switches before finishing.
        let mut regions = BTreeMap::new();
        let no_traffic = LinkStats::with_slots(0);
        for (i, name) in self.region_names.iter().enumerate() {
            let id = RegionId(i as u16 + 1);
            let stats = self.env.network.region_stats(id).unwrap_or(&no_traffic);
            let wall = self.region_wall[id.0 as usize]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            let compute = self.region_compute[id.0 as usize]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            regions.insert(
                name.clone(),
                RegionReport {
                    wall_time: wall,
                    compute_time: compute,
                    congestion_msgs: stats.congestion_msgs(),
                    congestion_bytes: stats.congestion_bytes(),
                    total_msgs: stats.total_msgs(),
                    total_bytes: stats.total_bytes(),
                },
            );
        }
        RunReport {
            strategy: std::mem::take(&mut self.strategy_name),
            total_time,
            link_stats: self.env.network.take_stats(),
            counters: self.env.counters,
            regions,
            messages_sent: self.env.network.messages_sent(),
            bytes_sent: self.env.network.bytes_sent(),
            compute_time,
            barriers: self.barrier.rounds,
            vars_registered: self.env.registry.registered_count(),
            vars_freed: self.env.registry.freed_count(),
            live_vars_high_water: self.env.registry.high_water() as u64,
            faults: self.env.faults,
            serving: ServingReport {
                replication_high_water: self.env.registry.copy_high_water().into(),
                ..self.env.serving
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::program::StepCtx;
    use super::*;
    use crate::{DivaConfig, StrategyKind};
    use dm_mesh::Mesh;

    /// The coordinator under test is never run.
    struct Never;

    impl ProcProgram for Never {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Op {
            Op::Done
        }
    }

    /// A never-run coordinator over a 2×2 mesh with one variable, owned by
    /// processor 0.
    fn coordinator() -> (Coordinator<Never>, VarHandle) {
        let mut diva = Diva::new(DivaConfig::on(Mesh::square(2), StrategyKind::FixedHome));
        let var = diva.alloc(0, 8, 0u64);
        let coord = Coordinator::new(diva, (0..4).map(|_| Never).collect(), ());
        (coord, var)
    }

    #[test]
    fn a_completion_closes_its_processors_transaction() {
        let (mut coord, var) = coordinator();
        let tx = coord.env.new_tx(3, Some(var), TxKind::Write);
        assert_eq!(tx.0 as u32, 3, "the id carries the processor");
        coord.env.complete(tx);
        coord.flush_completions();
        assert!(coord.env.tx_table.iter().all(Option::is_none));
        // The next transaction of the processor gets a new id.
        assert_ne!(coord.env.new_tx(3, Some(var), TxKind::Read), tx);
    }

    #[test]
    #[should_panic(expected = "completion of an unknown transaction")]
    fn completing_a_closed_transaction_panics() {
        let (mut coord, var) = coordinator();
        let tx = coord.env.new_tx(1, Some(var), TxKind::Write);
        coord.env.complete(tx);
        coord.flush_completions();
        coord.env.complete(tx);
        coord.flush_completions();
    }

    #[test]
    #[should_panic(expected = "completion of an unknown transaction")]
    fn completing_a_stale_id_panics() {
        let (mut coord, var) = coordinator();
        let stale = coord.env.new_tx(1, Some(var), TxKind::Write);
        coord.env.complete(stale);
        coord.flush_completions();
        // The processor's slot is open again, for another transaction.
        coord.env.new_tx(1, Some(var), TxKind::Read);
        coord.env.complete(stale);
        coord.flush_completions();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "opened a second transaction")]
    fn a_second_open_transaction_of_one_processor_panics() {
        let (mut coord, var) = coordinator();
        coord.env.new_tx(2, Some(var), TxKind::Read);
        coord.env.new_tx(2, Some(var), TxKind::Write);
    }

    #[test]
    #[should_panic(expected = "2 open transactions")]
    fn a_deadlock_report_counts_the_open_transactions() {
        let (mut coord, var) = coordinator();
        coord.env.new_tx(0, Some(var), TxKind::Lock);
        coord.env.new_tx(2, Some(var), TxKind::Lock);
        coord.report_deadlock();
    }

    #[test]
    fn copy_counts_follow_presence_changes() {
        let (mut coord, var) = coordinator();
        let env = &mut coord.env;
        // The pre-run copy at the owner is counted once.
        assert_eq!(env.registry.copies(var), 1);
        assert_eq!(env.registry.copy_high_water(), 1);
        // 1 → 2 → 1 → 2 copies: the high-water mark stays at 2.
        env.set_presence(NodeId(1), var, true);
        assert_eq!(env.registry.copies(var), 2);
        env.set_presence(NodeId(1), var, false);
        assert_eq!(env.registry.copies(var), 1);
        env.set_presence(NodeId(2), var, true);
        assert_eq!(env.registry.copies(var), 2);
        assert_eq!(env.registry.copy_high_water(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lost a copy it did not have")]
    fn removing_a_copy_twice_panics() {
        let (mut coord, var) = coordinator();
        coord.env.set_presence(NodeId(0), var, false);
        coord.env.set_presence(NodeId(0), var, false);
    }
}
