//! End-to-end tests of the fault-injection subsystem: empty plans are
//! non-perturbing, degradations slow the clock, node failures re-home
//! directory state and fail-stop the resident program (degraded outcome),
//! healed links revert routes exactly, and disconnecting plans yield a
//! clean partitioned outcome — for state machines and, through
//! `Diva::run_prototype`, for closures: a lost processor's closure unwinds
//! silently and yields `None`, a partition joins every closure cleanly.

use dm_diva::{
    Diva, DivaConfig, FaultPlan, FaultTally, Observer, Op, ProcProgram, RunOutcome, StepCtx,
    StrategyKind, VarHandle,
};
use dm_engine::SimTime;
use dm_mesh::{Hypercube, Mesh, NodeId, TreeShape};
use std::sync::Arc;

fn configs(side: usize) -> Vec<DivaConfig> {
    vec![
        DivaConfig::on(
            Mesh::square(side),
            StrategyKind::AccessTree(TreeShape::quad()),
        ),
        DivaConfig::on(Mesh::square(side), StrategyKind::FixedHome),
    ]
}

/// Every processor reads each shared variable once, synchronises, done.
struct ReadAll {
    vars: Arc<Vec<VarHandle>>,
    next: usize,
    state: u8,
}

impl ProcProgram for ReadAll {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Op {
        match self.state {
            0 => {
                if self.next == self.vars.len() {
                    self.state = 1;
                    return Op::Barrier;
                }
                let var = self.vars[self.next];
                self.next += 1;
                Op::Read(var)
            }
            _ => Op::Done,
        }
    }
}

/// Build the instance and its 8 shared variables (one per owner, round
/// robin), shared by the state-machine and closure harnesses.
fn setup(cfg: DivaConfig) -> (Diva, Arc<Vec<VarHandle>>) {
    let mut diva = Diva::new(cfg);
    let vars: Vec<VarHandle> = (0..8)
        .map(|i| diva.alloc(i % diva.num_procs(), 256, vec![i as u32; 64]))
        .collect();
    (diva, Arc::new(vars))
}

/// The instance and one [`ReadAll`] per processor.
fn read_all(cfg: DivaConfig) -> (Diva, Vec<ReadAll>) {
    let (diva, vars) = setup(cfg);
    let programs: Vec<ReadAll> = (0..diva.num_procs())
        .map(|_| ReadAll {
            vars: Arc::clone(&vars),
            next: 0,
            state: 0,
        })
        .collect();
    (diva, programs)
}

fn run_read_all(cfg: DivaConfig) -> RunOutcome<ReadAll> {
    let (diva, programs) = read_all(cfg);
    diva.run_driven(programs)
}

/// [`ReadAll`] as a closure: what `Diva::run_prototype` does with a lost
/// processor and with a partition.
fn run_read_all_prototype(cfg: DivaConfig) -> RunOutcome<()> {
    let (diva, vars) = setup(cfg);
    diva.run_prototype(move |ctx| {
        for &v in vars.iter() {
            ctx.read::<Vec<u32>>(v);
        }
        ctx.barrier();
    })
}

#[test]
fn an_empty_plan_is_bit_identical_to_no_plan() {
    for cfg in configs(4) {
        let name = cfg.strategy.name();
        let base = run_read_all(cfg.clone()).expect_completed();
        let with_plan = run_read_all(cfg.with_fault_plan(FaultPlan::new(42))).expect_completed();
        assert_eq!(base.report, with_plan.report, "strategy {name}");
        assert_eq!(with_plan.report.faults, FaultTally::default());
    }
}

#[test]
fn degrading_every_link_slows_the_run_and_is_tallied() {
    for cfg in configs(4) {
        let name = cfg.strategy.name();
        let base = run_read_all(cfg.clone()).expect_completed();
        let plan = FaultPlan::new(7).degrade_links(1.0, 0.25, 0);
        let degraded = run_read_all(cfg.with_fault_plan(plan)).expect_completed();
        assert!(
            degraded.report.total_time > base.report.total_time,
            "strategy {name}: {} !> {}",
            degraded.report.total_time,
            base.report.total_time
        );
        assert!(degraded.report.faults.links_degraded > 0, "strategy {name}");
        assert_eq!(degraded.report.faults.links_failed, 0);
        assert_eq!(degraded.report.faults.nodes_failed, 0);
        // Degradation slows links but never reroutes or migrates state.
        assert_eq!(degraded.report.faults.rehome_msgs, 0, "strategy {name}");
    }
}

#[test]
fn a_node_failure_rehomes_directory_state_and_degrades_the_run() {
    for cfg in configs(4) {
        let name = cfg.strategy.name();
        let plan = FaultPlan::new(7).fail_node(NodeId(3), 0);
        let out = run_read_all(cfg.with_fault_plan(plan));
        let d = out
            .degraded()
            .expect("failing a node fail-stops its program: the run degrades");
        assert_eq!(d.report.faults.nodes_failed, 1, "strategy {name}");
        assert!(d.report.faults.rehome_msgs > 0, "strategy {name}");
        assert!(d.report.faults.rehome_bytes > 0, "strategy {name}");
        assert!(d.report.total_time > 0, "strategy {name}");
        // Only the resident program is lost; the survivors complete and
        // keep their results.
        assert_eq!(d.lost_procs, vec![NodeId(3)], "strategy {name}");
        assert_eq!(d.report.faults.procs_lost, 1, "strategy {name}");
        assert!(d.results[3].is_none(), "strategy {name}");
        assert_eq!(
            d.results.iter().filter(|r| r.is_some()).count(),
            15,
            "strategy {name}"
        );
    }
}

#[test]
fn node_failures_never_partition_and_runs_stay_deterministic() {
    // Links survive a node failure (only the node's roles stop), so even
    // many failed nodes leave the network connected — and repeated runs of
    // the same plan are bit-identical, down to the loss bookkeeping.
    for cfg in configs(4) {
        let name = cfg.strategy.name();
        let plan = FaultPlan::new(11)
            .fail_random_nodes(4, 0)
            .fail_node(NodeId(9), 500_000);
        let a = run_read_all(cfg.clone().with_fault_plan(plan.clone()));
        let b = run_read_all(cfg.with_fault_plan(plan));
        let (da, db) = (
            a.degraded().expect("node failures degrade the run"),
            b.degraded().expect("node failures degrade the run"),
        );
        assert_eq!(da.report, db.report, "strategy {name}");
        assert_eq!(da.at, db.at, "strategy {name}");
        assert_eq!(da.lost_procs, db.lost_procs, "strategy {name}");
        assert_eq!(
            da.survivor_checksum, db.survivor_checksum,
            "strategy {name}"
        );
        assert_eq!(da.report.faults.nodes_failed, 5, "strategy {name}");
        assert!(da.report.faults.procs_lost >= 4, "strategy {name}");
    }
}

#[test]
fn healing_failed_links_reverts_routes_exactly() {
    // Fail a batch of links at t=0 and heal them 1 ns later: the window is
    // too short for any message to be routed over the broken network (link
    // latencies are orders of magnitude larger), so after the heal every
    // simulated quantity must revert exactly — post-heal routes are
    // byte-equal to pre-fault routes — leaving only the fault tally as a
    // witness that the window existed.
    for cfg in configs(4) {
        let name = cfg.strategy.name();
        let base = run_read_all(cfg.clone()).expect_completed();
        let plan = FaultPlan::new(13).fail_links_for(0.1, 0, 1);
        let healed = run_read_all(cfg.with_fault_plan(plan)).expect_completed();
        assert!(healed.report.faults.links_failed > 0, "strategy {name}");
        assert_eq!(
            healed.report.faults.links_failed, healed.report.faults.links_healed,
            "strategy {name}"
        );
        let mut scrubbed = healed.report.clone();
        scrubbed.faults = base.report.faults;
        assert_eq!(scrubbed, base.report, "strategy {name}");
    }
}

#[test]
fn degraded_runs_with_heals_are_bit_identical_for_closures_and_state_machines() {
    // An active plan — node loss at t=0, a transient link-failure window
    // mid-run, and a later restore of the failed node — must produce
    // bit-identical degraded outcomes when the programs are state machines
    // and when they are closures (whose lost processor is `None`).
    let plan = FaultPlan::new(21)
        .fail_node(NodeId(5), 0)
        .fail_links_for(0.1, 200_000, 300_000)
        .restore_node(NodeId(5), 600_000);
    for cfg in configs(4) {
        let name = cfg.strategy.name();
        let driven = run_read_all(cfg.clone().with_fault_plan(plan.clone()));
        let d1 = driven
            .degraded()
            .expect("losing node 5's program degrades the run");
        assert_eq!(d1.lost_procs, vec![NodeId(5)], "strategy {name}");
        assert_eq!(d1.report.faults.nodes_restored, 1, "strategy {name}");
        assert_eq!(
            d1.report.faults.links_failed, d1.report.faults.links_healed,
            "strategy {name}"
        );
        let proto = run_read_all_prototype(cfg.with_fault_plan(plan.clone()));
        let dp = proto
            .degraded()
            .expect("the closures must degrade identically");
        assert_eq!(d1.report, dp.report, "strategy {name} prototype");
        assert_eq!(d1.at, dp.at, "strategy {name} prototype");
        assert_eq!(d1.lost_procs, dp.lost_procs, "strategy {name} prototype");
        assert_eq!(
            d1.survivor_checksum, dp.survivor_checksum,
            "strategy {name} prototype"
        );
        assert!(dp.results[5].is_none(), "strategy {name} prototype");
    }
}

#[test]
fn failing_every_link_partitions_closures_and_state_machines_identically() {
    let plan = FaultPlan::new(3).fail_links(1.0, 0);
    let cfg =
        DivaConfig::on(Mesh::square(4), StrategyKind::FixedHome).with_fault_plan(plan.clone());

    let driven = run_read_all(cfg);
    let p_driven = driven
        .partitioned()
        .expect("failing every link must partition the state machines' run");

    let mut diva =
        Diva::new(DivaConfig::on(Mesh::square(4), StrategyKind::FixedHome).with_fault_plan(plan));
    let v = diva.alloc(0, 256, vec![1u32; 64]);
    let proto = diva.run_prototype(move |ctx| ctx.read::<Vec<u32>>(v).len());
    let p_proto = proto
        .partitioned()
        .expect("failing every link must partition the closures' run");

    assert_eq!(p_driven.at, p_proto.at);
    assert_eq!(p_driven.unreachable, p_proto.unreachable);
    assert!(p_driven.report.faults.links_failed > 0);
    assert_eq!(
        p_driven.report.faults.links_failed,
        p_proto.report.faults.links_failed
    );
}

#[test]
fn partial_link_failure_reroutes_instead_of_partitioning() {
    // A torus or hypercube has enough path diversity that losing a modest
    // fraction of links leaves it connected: traffic takes detours and the
    // run completes. (A fat tree is excluded — its leaf uplinks are single
    // points of failure, so random link loss can legitimately partition it.)
    for topo in [
        dm_mesh::AnyTopology::from(Mesh::torus(4, 4)),
        Hypercube::new(4).into(),
    ] {
        let name = topo.name();
        let plan = FaultPlan::new(5).fail_links(0.1, 0);
        let cfg = DivaConfig::on(topo, StrategyKind::FixedHome).with_fault_plan(plan);
        let out = run_read_all(cfg);
        let done = match out {
            RunOutcome::Completed(done) => done,
            RunOutcome::Partitioned(p) => panic!(
                "{name}: 10% link loss should reroute, but partitioned at {} (node {})",
                p.at, p.unreachable.0
            ),
            RunOutcome::Degraded(d) => panic!(
                "{name}: link loss fails no node, yet {} processor(s) were lost",
                d.lost_procs.len()
            ),
        };
        assert!(done.report.faults.links_failed > 0, "{name}");
        assert!(done.report.total_time > 0, "{name}");
    }
}

/// Counts the events a run schedules and handles, and the handled ones that
/// deliver a message.
#[derive(Debug, Default)]
struct Conservation {
    scheduled: u64,
    handled: u64,
    deliveries: u64,
}

impl Observer for Conservation {
    fn scheduled(&mut self, _at: SimTime) {
        self.scheduled += 1;
    }

    fn handled(&mut self, _at: SimTime, delivery: bool) {
        self.handled += 1;
        self.deliveries += u64::from(delivery);
    }
}

#[test]
fn every_scheduled_event_is_handled_and_every_sent_message_delivered() {
    // A run that ends completed or degraded drains its queue: every event
    // scheduled was handled, and every message transmitted arrived, except
    // re-homing migrations, which are charged to the network but delivered
    // to no handler. A partition ends the run with traffic still in flight.
    let cases = [
        ("completed", None),
        ("degraded", Some(FaultPlan::new(7).fail_node(NodeId(3), 0))),
        // A link-failure window that heals.
        (
            "completed",
            Some(FaultPlan::new(13).fail_links_for(0.1, 0, 1)),
        ),
        ("partitioned", Some(FaultPlan::new(3).fail_links(1.0, 0))),
    ];
    for cfg in configs(4) {
        for (expected, plan) in &cases {
            let mut cfg = cfg.clone();
            if let Some(plan) = plan {
                cfg = cfg.with_fault_plan(plan.clone());
            }
            let name = format!("{} {plan:?}", cfg.strategy.name());
            let (diva, programs) = read_all(cfg.clone());
            let (outcome, seen) = diva.run_observed(programs, Conservation::default());
            let report = outcome.report();
            assert_eq!(
                report,
                run_read_all(cfg).report(),
                "{name}: observing changed the run"
            );
            assert!(seen.handled > 0, "{name}");
            let ended = match &outcome {
                RunOutcome::Completed(_) => "completed",
                RunOutcome::Degraded(_) => "degraded",
                RunOutcome::Partitioned(_) => "partitioned",
            };
            assert_eq!(ended, *expected, "{name}");
            if ended == "partitioned" {
                assert!(seen.handled <= seen.scheduled, "{name}: {seen:?}");
                continue;
            }
            assert_eq!(seen.handled, seen.scheduled, "{name}");
            assert_eq!(
                seen.deliveries,
                report.messages_sent - report.faults.rehome_msgs,
                "{name}"
            );
        }
    }
}
