//! The chaos soak: seeded randomized fault plans — mixed link degradations,
//! link failures, transient windows, node losses and restores, at random
//! times — thrown at every topology under both benchmark workloads. The
//! property under test is *liveness with classification*: every run must
//! terminate (no hang, no panic) in exactly one of the three outcome
//! classes — completed, `degraded@n` (node failures fail-stopped n resident
//! programs; survivors finished) or partitioned — with a fault tally that
//! is consistent with the outcome. A crafted plan with an active heal and an
//! app loss anchors the soak on every topology.
//!
//! `CHAOS_SOAK_PLANS` overrides the per-cell plan count (default 26, i.e.
//! 26 × 4 topologies × 2 workloads = 208 randomized runs) so CI can bound
//! the soak explicitly.

use dm_apps::barnes_hut::{try_run_shared_driven, BhParams};
use dm_apps::uniform::{try_run_uniform_driven, UniformParams};
use dm_apps::workload::plummer_bodies;
use dm_diva::{
    Diva, DivaConfig, FaultPlan, FaultTally, Op, ProcProgram, RunReport, StepCtx, StrategyKind,
    VarHandle,
};
use dm_mesh::{AnyTopology, FatTree, Hypercube, Mesh, NodeId, TreeShape};
use dm_rng::ChaCha8Rng;
use std::sync::Arc;

const MASTER_SEED: u64 = 0xC4A0_50AC;

/// Per-(topology, workload) randomized plan count; ≥200 runs in total at
/// the default. CI's chaos-soak step can bound it via `CHAOS_SOAK_PLANS`.
fn plans_per_cell() -> usize {
    std::env::var("CHAOS_SOAK_PLANS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(26)
}

fn topologies() -> Vec<AnyTopology> {
    vec![
        Mesh::square(4).into(),
        Mesh::torus(4, 4).into(),
        Hypercube::new(4).into(),
        FatTree::new(16).into(),
    ]
}

/// One randomized plan: 1–5 events of mixed kinds at random times, from
/// strike-at-t=0 through mid-run to past-the-end (events after the run's
/// natural end are simply never processed — that too must be safe).
fn random_plan(rng: &mut ChaCha8Rng, nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64());
    for _ in 0..rng.gen_range(1..6u32) {
        let at = rng.gen_range(0..1_500_000u64);
        let duration = rng.gen_range(10_000..800_000u64);
        plan = match rng.gen_range(0..7u32) {
            0 => plan.degrade_links(rng.gen_range(0.05..0.5), rng.gen_range(0.1..0.9), at),
            1 => plan.fail_links(rng.gen_range(0.02..0.15), at),
            2 => plan.degrade_links_for(
                rng.gen_range(0.05..0.5),
                rng.gen_range(0.1..0.9),
                at,
                duration,
            ),
            3 => plan.fail_links_for(rng.gen_range(0.02..0.15), at, duration),
            4 => {
                let victim = NodeId(rng.gen_range(0..nodes as u32));
                let plan = plan.fail_node(victim, at);
                if rng.gen_range(0..2u32) == 1 {
                    plan.restore_node(victim, at + rng.gen_range(1..500_000u64))
                } else {
                    plan
                }
            }
            5 => plan.fail_random_nodes(rng.gen_range(1..4u32) as usize, at),
            // A restore with no prior failure of that node is a no-op; the
            // soak deliberately generates such plans too.
            _ => plan.restore_node(NodeId(rng.gen_range(0..nodes as u32)), at),
        };
    }
    plan
}

fn mk_diva(topo: &AnyTopology, strategy: StrategyKind, plan: Option<FaultPlan>) -> Diva {
    let mut cfg = DivaConfig::on(topo.clone(), strategy);
    if let Some(plan) = plan {
        cfg = cfg.with_fault_plan(plan);
    }
    Diva::new(cfg)
}

/// The three liveness classes every run must land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Completed,
    Degraded,
    Partitioned,
}

/// Tally-vs-outcome consistency: the invariants every classified run must
/// satisfy.
fn check_tally(ctx: &str, class: Class, lost: usize, report: &RunReport) {
    let f = &report.faults;
    assert_eq!(
        f.procs_lost, lost as u64,
        "{ctx}: lost-program tally disagrees with the outcome"
    );
    match class {
        Class::Completed => assert_eq!(f.procs_lost, 0, "{ctx}"),
        Class::Degraded => {
            assert!(f.procs_lost > 0, "{ctx}");
            // Programs are only lost to node failures (directly or
            // transitively via starvation of their peers).
            assert!(f.nodes_failed > 0, "{ctx}");
        }
        Class::Partitioned => {}
    }
    assert!(f.nodes_restored <= f.nodes_failed, "{ctx}");
    assert!(
        f.links_healed <= f.links_failed + f.links_degraded,
        "{ctx}: more links healed than were ever faulted"
    );
}

/// Run one uniform point under `plan`; classify and sanity-check it.
fn soak_uniform(
    topo: &AnyTopology,
    strategy: StrategyKind,
    plan: Option<FaultPlan>,
) -> (Class, u64, RunReport) {
    let params = UniformParams {
        ops_per_proc: 6,
        ..UniformParams::new(topo.nodes())
    };
    let diva = mk_diva(topo, strategy, plan);
    match try_run_uniform_driven(diva, params) {
        Ok(out) => {
            let class = if out.procs_lost.is_empty() {
                Class::Completed
            } else {
                Class::Degraded
            };
            (class, out.checksum, out.report)
        }
        Err(p) => (Class::Partitioned, p.unreachable.0 as u64, p.report),
    }
}

/// Run one Barnes-Hut point under `plan`; classify and sanity-check it.
fn soak_bh(
    topo: &AnyTopology,
    strategy: StrategyKind,
    plan: Option<FaultPlan>,
) -> (Class, u64, RunReport) {
    let params = BhParams::small(32, 1);
    let bodies = plummer_bodies(MASTER_SEED, params.n_bodies);
    let diva = mk_diva(topo, strategy, plan);
    match try_run_shared_driven(diva, params, &bodies) {
        Ok(out) => {
            let class = if out.procs_lost.is_empty() {
                Class::Completed
            } else {
                Class::Degraded
            };
            (class, out.interactions, out.report)
        }
        Err(p) => (Class::Partitioned, p.unreachable.0 as u64, p.report),
    }
}

#[test]
fn randomized_fault_plans_always_terminate_in_a_classified_outcome() {
    let per_cell = plans_per_cell();
    let mut counts = [0usize; 3];
    for (t, topo) in topologies().iter().enumerate() {
        for workload in ["uniform", "barnes-hut"] {
            let mut rng =
                ChaCha8Rng::seed_from_u64(MASTER_SEED ^ ((t as u64) << 8) ^ workload.len() as u64);
            for i in 0..per_cell {
                let plan = random_plan(&mut rng, topo.nodes());
                // Alternate the strategy so both directory protocols soak.
                let strategy = if i % 2 == 0 {
                    StrategyKind::FixedHome
                } else {
                    StrategyKind::AccessTree(TreeShape::quad())
                };
                let ctx = format!("{} {workload} plan {i} (seed {})", topo.name(), plan.seed());
                let (class, _, report) = match workload {
                    "uniform" => soak_uniform(topo, strategy, Some(plan)),
                    _ => soak_bh(topo, strategy, Some(plan)),
                };
                if class != Class::Partitioned {
                    let lost = report.faults.procs_lost as usize;
                    check_tally(&ctx, class, lost, &report);
                    assert!(report.total_time > 0, "{ctx}");
                }
                counts[class as usize] += 1;
            }
        }
    }
    let total: usize = counts.iter().sum();
    assert_eq!(total, plans_per_cell() * topologies().len() * 2);
    // The mix must actually exercise the interesting classes: node-failure
    // events are frequent enough that both completions and degradations are
    // guaranteed at any soak size (partitions depend on topology luck).
    assert!(counts[Class::Completed as usize] > 0, "{counts:?}");
    assert!(counts[Class::Degraded as usize] > 0, "{counts:?}");
}

#[test]
fn an_empty_plan_soak_run_is_bit_identical_to_no_plan() {
    for topo in topologies() {
        for strategy in [
            StrategyKind::FixedHome,
            StrategyKind::AccessTree(TreeShape::quad()),
        ] {
            let (cn, fn_, rn) = soak_uniform(&topo, strategy, None);
            let (ce, fe, re) = soak_uniform(&topo, strategy, Some(FaultPlan::new(99)));
            assert_eq!(cn, Class::Completed, "{}", topo.name());
            assert_eq!(cn, ce, "{}", topo.name());
            assert_eq!(fn_, fe, "{}", topo.name());
            assert_eq!(rn, re, "{}", topo.name());
            assert_eq!(re.faults, FaultTally::default(), "{}", topo.name());
        }
    }
}

/// Every processor reads each shared variable once, synchronises, done —
/// the program of the crafted anchor.
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

fn setup(topo: &AnyTopology, plan: FaultPlan) -> (Diva, Arc<Vec<VarHandle>>) {
    let mut diva = mk_diva(
        topo,
        StrategyKind::AccessTree(TreeShape::quad()),
        Some(plan),
    );
    let vars: Vec<VarHandle> = (0..8)
        .map(|i| diva.alloc(i % diva.num_procs(), 256, vec![i as u32; 64]))
        .collect();
    (diva, Arc::new(vars))
}

#[test]
fn a_chaotic_plan_with_heal_and_app_loss_degrades_and_heals() {
    // The crafted anchor the acceptance criteria call for: at least one
    // heal (a transient link-degradation window, healed back to pristine
    // cost — a window of *failed* links could legitimately partition some
    // topologies, which would mask the degraded outcome under test) and at
    // least one app loss (a failed node, later restored as a fresh
    // successor) in a single plan, on every topology. (What `run_prototype`
    // makes of a lost closure is `dm-diva`'s `fault_tests.rs`; its adapter
    // never sees the topology.)
    for topo in topologies() {
        let name = topo.name();
        let victim = NodeId((topo.nodes() / 2) as u32);
        let plan = FaultPlan::new(77)
            .fail_node(victim, 0)
            .degrade_links_for(0.3, 0.25, 50_000, 100_000)
            .restore_node(victim, 250_000);
        let (diva, vars) = setup(&topo, plan);
        let programs: Vec<ReadAll> = (0..diva.num_procs())
            .map(|_| ReadAll {
                vars: Arc::clone(&vars),
                next: 0,
                state: 0,
            })
            .collect();
        let outcome = diva.run_driven(programs);
        let d = outcome
            .degraded()
            .expect("losing the victim's program degrades the run");
        assert_eq!(d.lost_procs, vec![victim], "{name}");
        assert!(d.report.faults.links_degraded > 0, "{name}");
        assert_eq!(
            d.report.faults.links_degraded, d.report.faults.links_healed,
            "{name}: the transient window must heal every link it degraded"
        );
        assert_eq!(d.report.faults.nodes_restored, 1, "{name}");
        check_tally(
            name.as_str(),
            Class::Degraded,
            d.lost_procs.len(),
            &d.report,
        );
    }
}
