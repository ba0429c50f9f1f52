//! The graceful-degradation experiment (Figure 13, beyond the paper).
//!
//! The paper proves the access-tree strategy competitive on an *intact*
//! network; this sweep asks how each strategy's congestion and completion
//! time decay when the network is not. Every (topology, strategy, workload)
//! group runs a fixed scenario ladder — intact, degraded links, failed
//! links, a transient link flap, failed nodes — under a seeded
//! [`FaultPlan`], and each faulted row reports its deltas against the
//! intact baseline of its own group, in the degradation-metric style of the
//! replication-in-data-grids literature.
//!
//! Faults need not strike at t=0: `--strike-at 0,25,50,75` runs every
//! faulted scenario once per strike time, expressed as a percent of the
//! group's *intact* run length. A non-zero strike makes the job run an
//! intact calibration copy first (jobs stay pure, so `--resume`/`--shard`
//! keep working) and the fault lands mid-run, after routes and directory
//! state have warmed up.
//!
//! Scenarios that disconnect the network (random link loss can sever a fat
//! tree's leaf uplinks) are *reported*, not failed: the row renders as
//! `partitioned@<node>` with the partial measurements, because a clean
//! partition diagnosis is exactly the graceful behaviour being tested.
//! Scenarios that fail nodes fail-stop the resident programs and render as
//! `degraded@<n>` (n programs lost); the survivors complete, so such rows
//! keep their deltas — partial completion cost *is* the degradation metric.
//!
//! Every point is an independent executor [`Job`], so `--jobs N`
//! parallelises the sweep with byte-identical tables and JSON for every `N`
//! (the `jobs_determinism` gate covers `fig13`; deltas are assembled after
//! the executor returns, like fig3's ratios).

use crate::bh_exp::{measured_time, BhPoint};
use crate::executor::Job;
use crate::stream::run_rows;
use crate::table::{emit, secs, Column};
use crate::topo_exp::{tier_workloads, topologies_at};
use crate::{for_each_group, make_diva, ExtraFlags, HarnessOpts, Sweep};
use dm_apps::uniform::{try_run_uniform_driven, UniformParams};
use dm_diva::{FaultPlan, Partitioned, RunReport, StrategyKind};
use dm_mesh::{AnyTopology, NodeId, TreeShape};

crate::row! {
    /// Measurements of one (topology, strategy, workload, scenario, strike)
    /// point.
    pub struct FaultRow: Row {
        /// Topology name (`mesh 4x4`, `torus 4x4`, `hypercube-4`,
        /// `fat-tree-16`).
        pub topology: String,
        /// Workload name (`uniform` or `barnes-hut`).
        pub workload: String,
        /// Strategy name.
        pub strategy: String,
        /// Failure scenario name (`intact`, `fail 10% links`, ...).
        pub scenario: String,
        /// Strike time of the scenario's faults as a percent of the group's
        /// intact run length (0 = at t=0; always 0 for the intact baseline).
        pub strike_pct: u64,
        /// `ok`; `degraded@<n>` when node failures fail-stopped `n` resident
        /// programs (survivors completed); or `partitioned@<node>` when the
        /// scenario disconnected the network (partial measurements up to the
        /// partition).
        pub outcome: String,
        /// Congestion in messages over the measured part of the run.
        pub congestion_msgs: u64,
        /// Congestion in bytes over the measured part of the run.
        pub congestion_bytes: u64,
        /// Execution time of the measured part of the run in ns.
        pub exec_time_ns: u64,
        /// Links degraded / failed and nodes failed by the scenario.
        pub links_degraded: u64,
        /// Links failed by the scenario.
        pub links_failed: u64,
        /// Links healed back to their pristine cost by the scenario.
        pub links_healed: u64,
        /// Nodes whose data-management role the scenario killed.
        pub nodes_failed: u64,
        /// Nodes restored as fresh data-management successors.
        pub nodes_restored: u64,
        /// Re-homing migration messages charged by node failures.
        pub rehome_msgs: u64,
        /// Re-homing migration bytes charged by node failures.
        pub rehome_bytes: u64,
        /// Locks force-released from fail-stopped programs.
        pub locks_force_released: u64,
        /// Resident programs lost to node failures.
        pub procs_lost: u64,
        /// Congestion delta vs. the group's intact baseline, in percent
        /// (0 for the baseline itself and for partitioned rows).
        pub congestion_delta_pct: f64,
        /// Execution-time delta vs. the group's intact baseline, in percent
        /// (0 for the baseline itself and for partitioned rows).
        pub time_delta_pct: f64,
        /// Host wall-clock milliseconds of this point (JSON sidecar only).
        pub host_ms: f64,
    }
}

crate::row! {
    /// Shared parameters of a graceful-degradation sweep.
    pub struct FaultMeta {
        /// Scale tier name.
        pub scale: String,
        /// Matched node count.
        pub nodes: usize,
        /// Uniform workload: accesses per processor.
        pub uniform_ops: usize,
        /// Barnes-Hut workload: body count.
        pub bh_bodies: usize,
        /// Barnes-Hut workload: simulated time steps.
        pub bh_timesteps: usize,
        /// Number of scenarios in the ladder (the intact baseline included).
        pub scenarios: usize,
        /// Strike times of the faulted scenarios, as percents of each
        /// group's intact run length.
        pub strikes: Vec<u64>,
        /// Seed of the sweep (workloads and fault plans).
        pub seed: u64,
    }
}

/// Constructor of one faulted rung of the scenario ladder: given the sweep
/// seed, the node count and the strike time (ns), build the rung's plan.
/// Plain function pointers so jobs stay `Send` and cheaply cloneable.
type PlanCtor = fn(u64, usize, u64) -> FaultPlan;

fn sc_degrade(seed: u64, _nodes: usize, at: u64) -> FaultPlan {
    FaultPlan::new(seed).degrade_links(0.20, 0.25, at)
}

fn sc_fail_10(seed: u64, _nodes: usize, at: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 1).fail_links(0.10, at)
}

fn sc_fail_20(seed: u64, _nodes: usize, at: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 2).fail_links(0.20, at)
}

fn sc_flap(seed: u64, _nodes: usize, at: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 5).fail_links_for(0.10, at, 1_000_000)
}

fn sc_fail_node(seed: u64, nodes: usize, at: u64) -> FaultPlan {
    let victim = NodeId((nodes / 2) as u32);
    FaultPlan::new(seed ^ 3)
        .fail_node(victim, at)
        .restore_node(victim, at + 1_000_000)
}

fn sc_fail_4_nodes(seed: u64, _nodes: usize, at: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 4).fail_random_nodes(4, at)
}

/// The scenario ladder: the intact baseline first, then link degradation,
/// link failure at two rates, a transient 1 ms link flap (failed links heal
/// and routes revert), and node failures — including a failed node restored
/// 1 ms later as a fresh successor (its program stays lost, so the row is
/// degraded). Each rung is a constructor taking the strike time, so the
/// same ladder runs at every `--strike-at` percent; plans are seeded from
/// the sweep seed, so victim sampling is deterministic per scenario.
fn scenarios() -> Vec<(&'static str, Option<PlanCtor>)> {
    vec![
        ("intact", None),
        ("degrade 20% links to 25% bw", Some(sc_degrade as PlanCtor)),
        ("fail 10% links", Some(sc_fail_10)),
        ("fail 20% links", Some(sc_fail_20)),
        ("flap 10% links for 1ms", Some(sc_flap)),
        ("fail 1 node (restore +1ms)", Some(sc_fail_node)),
        ("fail 4 nodes", Some(sc_fail_4_nodes)),
    ]
}

/// The strategy panel of the degradation sweep: the fixed-home reference and
/// the two access-tree arities the mesh figures single out.
fn fault_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::FixedHome,
        StrategyKind::AccessTree(TreeShape::quad()),
        StrategyKind::AccessTree(TreeShape::hex16()),
    ]
}

/// Which strategy a faulted point runs and what strikes it.
struct Rung {
    strategy: StrategyKind,
    scenario: &'static str,
    plan: Option<PlanCtor>,
    strike_pct: u64,
}

impl Rung {
    /// Simulations one point performs: a non-zero strike runs an intact
    /// calibration copy first (doubling the job's weight) to convert the
    /// percent into an absolute time.
    fn runs(&self) -> u64 {
        if self.strike_pct == 0 {
            1
        } else {
            2
        }
    }

    /// Run one point of `workload` on `topo`: `run` simulates it under an
    /// optional fault plan (see [`report_of`]). The faults land at
    /// `strike_pct` percent of the intact run's length and the outcome is
    /// reduced to a [`FaultRow`] (deltas filled in later): the whole run for
    /// uniform, everything outside the `warmup` region for Barnes-Hut — the
    /// fig12 conventions, so intact fig13 rows are comparable with fig12
    /// numbers.
    fn row(
        &self,
        topo: &AnyTopology,
        workload: &str,
        seed: u64,
        run: impl Fn(Option<FaultPlan>) -> (RunReport, Option<NodeId>),
    ) -> FaultRow {
        let at = match self.strike_pct {
            0 => 0,
            // The intact calibration run cannot partition.
            pct => run(None).0.total_time * pct / 100,
        };
        let (report, unreachable) = run(self.plan.map(|ctor| ctor(seed, topo.nodes(), at)));
        let outcome = match unreachable {
            Some(node) => format!("partitioned@{}", node.0),
            None if report.faults.procs_lost > 0 => {
                format!("degraded@{}", report.faults.procs_lost)
            }
            None => "ok".to_string(),
        };
        FaultRow {
            topology: topo.name(),
            workload: workload.to_string(),
            strategy: self.strategy.name(),
            scenario: self.scenario.to_string(),
            strike_pct: self.strike_pct,
            outcome,
            congestion_msgs: report.congestion_msgs(),
            congestion_bytes: report.congestion_bytes(),
            exec_time_ns: measured_time(&report),
            links_degraded: report.faults.links_degraded,
            links_failed: report.faults.links_failed,
            links_healed: report.faults.links_healed,
            nodes_failed: report.faults.nodes_failed,
            nodes_restored: report.faults.nodes_restored,
            rehome_msgs: report.faults.rehome_msgs,
            rehome_bytes: report.faults.rehome_bytes,
            locks_force_released: report.faults.locks_force_released,
            procs_lost: report.faults.procs_lost,
            congestion_delta_pct: 0.0,
            time_delta_pct: 0.0,
            host_ms: 0.0,
        }
    }
}

/// The report of a run — partial, with the node found unreachable, when the
/// fault plan partitioned the network.
fn report_of<T>(
    out: Result<T, Partitioned>,
    report: impl FnOnce(T) -> RunReport,
) -> (RunReport, Option<NodeId>) {
    match out {
        Ok(done) => (report(done), None),
        Err(p) => (p.report, Some(p.unreachable)),
    }
}

/// Describe one uniform-workload point as an executor job.
fn uniform_job(topo: AnyTopology, params: UniformParams, rung: Rung) -> Job<FaultRow> {
    let weight = rung.runs() * (params.ops_per_proc * topo.nodes()) as u64;
    Job::new(weight, move || {
        rung.row(&topo, "uniform", params.seed, |plan| {
            let diva = make_diva(topo.clone(), rung.strategy, params.seed, plan);
            report_of(try_run_uniform_driven(diva, params), |out| out.report)
        })
    })
}

/// Describe one Barnes-Hut point as an executor job (see [`BhPoint::job`]);
/// the calibration run of a non-zero strike shares the faulted run's body
/// set.
fn bh_job(point: BhPoint, rung: Rung) -> Job<FaultRow> {
    point.job(rung.runs(), move |point, bodies| {
        rung.row(&point.topo, "barnes-hut", point.seed, |plan| {
            report_of(point.run(bodies, plan), |out| out.report)
        })
    })
}

/// Percentage delta of `value` against `base` (0 when the baseline is 0).
fn delta_pct(value: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (value as f64 - base as f64) / base as f64 * 100.0
    }
}

/// Fill each row's deltas against the intact baseline of its scenario×strike
/// group. Rows arrive in description order, strike innermost within
/// scenario, so every group is a contiguous `group_len` chunk whose first
/// row is the intact run. `ok` rows and `degraded@<n>` rows are comparable
/// with it — the survivors ran to completion, and their cost *is* the
/// degradation being measured; partitioned rows are partial and keep zero
/// deltas.
fn fill_deltas(rows: &mut [FaultRow], group_len: usize) {
    for_each_group(rows, group_len, |intact, row| {
        debug_assert_eq!(intact.scenario, "intact");
        if row.outcome == "ok" || row.outcome.starts_with("degraded@") {
            row.congestion_delta_pct = delta_pct(row.congestion_msgs, intact.congestion_msgs);
            row.time_delta_pct = delta_pct(row.exec_time_ns, intact.exec_time_ns);
        }
    });
}

/// The Figure-13 sweep: the scenario ladder across all four topologies and
/// the degradation strategy panel, under both workloads and every
/// `--strike-at` strike time, at one matched node count per scale tier
/// (fig12's). `None` means the sweep is incomplete (shard run or cut-short
/// run); the sidecar holds the completed jobs. Deltas are always recomputed
/// at assembly, so they never ride stale through a resume.
pub(crate) fn graceful_degradation_sweep(opts: &HarnessOpts) -> Option<Sweep<FaultMeta, FaultRow>> {
    let (nodes, uniform_params, bh_params) = tier_workloads(opts);
    let scenario_list = scenarios();
    let strikes = opts.strikes();
    // One intact baseline per group (the strike axis is meaningless without
    // faults), then every faulted rung once per strike time.
    let group_len = 1 + (scenario_list.len() - 1) * strikes.len();
    let mut jobs = Vec::new();
    for topo in topologies_at(nodes) {
        for strategy in fault_strategies() {
            for workload in ["uniform", "barnes-hut"] {
                for &(scenario, plan) in &scenario_list {
                    let points = if plan.is_some() { &strikes[..] } else { &[0] };
                    for &strike_pct in points {
                        let rung = Rung {
                            strategy,
                            scenario,
                            plan,
                            strike_pct,
                        };
                        jobs.push(if workload == "uniform" {
                            uniform_job(topo.clone(), uniform_params, rung)
                        } else {
                            let point = BhPoint {
                                topo: topo.clone(),
                                strategy,
                                params: bh_params,
                                seed: opts.seed,
                            };
                            bh_job(point, rung)
                        });
                    }
                }
            }
        }
    }
    let mut rows = run_rows(opts, "", jobs)?;
    fill_deltas(&mut rows, group_len);
    Some(Sweep {
        meta: FaultMeta {
            scale: opts.scale.name().to_string(),
            nodes,
            uniform_ops: uniform_params.ops_per_proc,
            bh_bodies: bh_params.n_bodies,
            bh_timesteps: bh_params.timesteps,
            scenarios: scenario_list.len(),
            strikes,
            seed: opts.seed,
        },
        rows,
    })
}

/// `fig13`: the scenario ladder every (topology, strategy, workload) group
/// runs is intact, 20% of links degraded to quarter bandwidth, 10%/20% of
/// links failed, a transient 1 ms link flap, one node failed and restored,
/// four nodes failed. The module docs describe the strike-time axis and why
/// a partitioned or degraded run is a row, not an aborted sweep.
pub(crate) fn fig13(opts: &HarnessOpts, _: &ExtraFlags) {
    fn faulted(r: &FaultRow) -> bool {
        r.scenario != "intact"
    }
    /// A signed percent delta, or a dash for rows it does not apply to (the
    /// intact baseline and partitioned rows).
    fn pct(r: &FaultRow, value: f64) -> String {
        if faulted(r) && !r.outcome.starts_with("partitioned") {
            format!("{value:+.1}%")
        } else {
            "—".to_string()
        }
    }
    const COLUMNS: &[Column<FaultRow>] = &[
        ("topology", |r| r.topology.clone()),
        ("workload", |r| r.workload.clone()),
        ("strategy", |r| r.strategy.clone()),
        ("scenario", |r| r.scenario.clone()),
        ("strike", |r| {
            if faulted(r) {
                format!("{}%", r.strike_pct)
            } else {
                "—".to_string()
            }
        }),
        ("outcome", |r| r.outcome.clone()),
        ("congestion[msgs]", |r| r.congestion_msgs.to_string()),
        ("Δcongestion", |r| pct(r, r.congestion_delta_pct)),
        ("exec time[s]", |r| secs(r.exec_time_ns)),
        ("Δtime", |r| pct(r, r.time_delta_pct)),
        ("rehomed[B]", |r| r.rehome_bytes.to_string()),
    ];
    let Some(sweep) = graceful_degradation_sweep(opts) else {
        return;
    };
    let strikes: Vec<String> = sweep.meta.strikes.iter().map(u64::to_string).collect();
    let title = format!(
        "Figure 13 — graceful degradation under faults at {} nodes ({} scale, {} scenarios, \
         strikes at {}% of the intact run)",
        sweep.meta.nodes,
        sweep.meta.scale,
        sweep.meta.scenarios,
        strikes.join("/")
    );
    emit(opts, "fig13", &title, COLUMNS, &sweep.rows, &sweep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mesh::{FatTree, Mesh};

    /// One small fixed-home uniform point under the given faulted rung.
    fn uniform_point(
        topo: AnyTopology,
        scenario: &'static str,
        plan: PlanCtor,
        strike_pct: u64,
    ) -> FaultRow {
        let params = UniformParams {
            ops_per_proc: 8,
            ..UniformParams::new(16)
        };
        let rung = Rung {
            strategy: StrategyKind::FixedHome,
            scenario,
            plan: Some(plan),
            strike_pct,
        };
        uniform_job(topo, params, rung).call()
    }

    #[test]
    fn the_ladder_starts_intact() {
        let list = scenarios();
        assert_eq!(list[0].0, "intact");
        assert!(list[0].1.is_none());
        assert!(list[1..].iter().all(|(_, p)| p.is_some()));
        // Every faulted rung builds a plan at an arbitrary strike time.
        for (_, ctor) in list[1..].iter() {
            let _ = ctor.unwrap()(7, 16, 123_456);
        }
    }

    #[test]
    fn a_node_failure_point_reports_a_degraded_outcome_and_its_tally() {
        let topo: AnyTopology = Mesh::torus(4, 4).into();
        let row = uniform_point(topo, "fail 1 node (restore +1ms)", sc_fail_node, 0);
        assert_eq!(row.outcome, "degraded@1");
        assert_eq!(row.nodes_failed, 1);
        assert_eq!(row.nodes_restored, 1);
        assert_eq!(row.procs_lost, 1);
        assert_eq!(row.strike_pct, 0);
        assert!(row.rehome_msgs > 0);
        assert!(row.exec_time_ns > 0);
    }

    #[test]
    fn a_mid_run_strike_calibrates_against_the_intact_run() {
        // At strike 50 the faults land halfway through the intact run
        // length: the flap scenario must still fail and heal links, and the
        // row must carry its strike percent.
        let topo: AnyTopology = Mesh::torus(4, 4).into();
        let row = uniform_point(topo, "flap 10% links for 1ms", sc_flap, 50);
        assert_eq!(row.strike_pct, 50);
        assert_eq!(row.outcome, "ok");
        assert!(row.links_failed > 0);
        assert_eq!(row.links_failed, row.links_healed);
    }

    #[test]
    fn a_partitioning_point_renders_instead_of_failing() {
        // Severing every link cannot complete; the row must say so.
        fn sever(seed: u64, _nodes: usize, at: u64) -> FaultPlan {
            FaultPlan::new(seed).fail_links(1.0, at)
        }
        let topo: AnyTopology = FatTree::new(16).into();
        let row = uniform_point(topo, "fail all links", sever, 0);
        assert!(row.outcome.starts_with("partitioned@"), "{}", row.outcome);
        assert!(row.links_failed > 0);
    }

    #[test]
    fn deltas_compare_each_row_to_its_own_intact_baseline() {
        let mk = |scenario: &str, outcome: &str, msgs: u64, time: u64| FaultRow {
            topology: "t".into(),
            workload: "w".into(),
            strategy: "s".into(),
            scenario: scenario.into(),
            strike_pct: 0,
            outcome: outcome.into(),
            congestion_msgs: msgs,
            congestion_bytes: 0,
            exec_time_ns: time,
            links_degraded: 0,
            links_failed: 0,
            links_healed: 0,
            nodes_failed: 0,
            nodes_restored: 0,
            rehome_msgs: 0,
            rehome_bytes: 0,
            locks_force_released: 0,
            procs_lost: 0,
            congestion_delta_pct: 0.0,
            time_delta_pct: 0.0,
            host_ms: 0.0,
        };
        let mut rows = vec![
            mk("intact", "ok", 100, 1_000),
            mk("fail", "ok", 150, 1_200),
            mk("sever", "partitioned@3", 10, 50),
            mk("intact", "ok", 200, 2_000),
            mk("fail", "degraded@1", 100, 2_000),
            mk("sever", "ok", 300, 3_000),
        ];
        fill_deltas(&mut rows, 3);
        assert_eq!(rows[1].congestion_delta_pct, 50.0);
        assert_eq!(rows[1].time_delta_pct, 20.0);
        // Partitioned rows keep zero deltas: partial runs are not comparable.
        assert_eq!(rows[2].congestion_delta_pct, 0.0);
        // The second group compares against its own baseline — and degraded
        // rows keep their deltas (survivors completed; their cost is the
        // degradation being measured).
        assert_eq!(rows[4].congestion_delta_pct, -50.0);
        assert_eq!(rows[5].time_delta_pct, 50.0);
    }
}
