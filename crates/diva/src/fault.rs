//! Deterministic fault schedules.
//!
//! A [`FaultPlan`] is a declarative, seeded description of what breaks and
//! when: "20% of the links degrade to a quarter bandwidth at t = 1 ms",
//! "node 7 fails at t = 2 ms", "3 random nodes fail at t = 5 ms". The
//! coordinator resolves the plan against the run's topology once, up front,
//! into concrete timed actions (sampling via `dm-rng`, so the same plan and
//! seed pick the same victims on every host and for every worker count) and
//! injects them into the event queue like any other simulation event.
//!
//! ## Semantics
//!
//! * **Link degradation** multiplies a link's bandwidth; routing is
//!   unchanged (the hardware router is oblivious to bandwidth).
//! * **Link failure** removes a directed link from service; traffic detours
//!   around it deterministically ([`dm_mesh::AnyTopology::route_links_avoiding`]
//!   via the engine's cost table). If the surviving links no longer connect
//!   the machine, the run ends cleanly as
//!   [`RunOutcome::Partitioned`](crate::RunOutcome) instead of hanging.
//! * **Node failure** is fail-stop of the *whole node*. Its
//!   data-management role: every directory/home/lock responsibility the
//!   victim held migrates to a deterministic successor (the next alive
//!   node id, wrapping), and the migration traffic is charged to the
//!   simulation ([`FaultTally`](crate::FaultTally) tallies it). And its
//!   resident application program: the program is killed at the fault
//!   time, its in-flight requests drained, its held locks force-released
//!   (tallied, never leaked into a wedge), and its barrier membership
//!   removed deterministically; the survivors run to completion and the
//!   run ends as [`RunOutcome::Degraded`](crate::RunOutcome) with a
//!   partial survivor checksum. The victim's physical links stay up, so
//!   node failures never partition the network.
//!
//! * **Link healing** returns a link to service at its pristine cost
//!   (the machine's link bandwidth): bandwidth snaps back, the
//!   detour memo is invalidated, and routes deterministically revert to
//!   what an intact network would use. The windowed forms
//!   ([`FaultPlan::degrade_links_for`] / [`FaultPlan::fail_links_for`])
//!   sample their victims *once* and schedule the matching heal
//!   `duration` ns later, so a flapping link fails and heals as the same
//!   physical link.
//! * **Node restoration** brings a failed node back as a *fresh* DM
//!   successor: it inherits no directory state (what it held was already
//!   re-homed at failure time, and pulling it back would cost a second
//!   migration for no benefit — see `docs/architecture.md`), but it is
//!   eligible again as a successor for future failures, and it may itself
//!   fail again later. The application processor lost at failure time does
//!   **not** come back — fail-stop loses its program state permanently.
//!
//! Faults injected at time `t` apply before any same-time protocol message is
//! processed (the coordinator enqueues them first, and the event queue breaks
//! time ties by insertion order). Destructive actions at time `t` apply
//! before recovery actions at the same `t` (resolution stable-sorts by
//! `(time, destructive-before-recovery)`), so a zero-duration window still
//! tallies both edges. Requests a processor issued before `t` may
//! still have been costed against the pre-fault network — exactly like real
//! traffic already in flight when a link dies — and this boundary is
//! identical for every worker count, keeping runs bit-identical under any
//! plan.

use dm_engine::SimTime;
use dm_mesh::{AnyTopology, LinkId, NodeId};
use dm_rng::ChaCha8Rng;

/// One declarative fault specification of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultSpec {
    /// At time `at`, degrade a sampled `fraction` of all links to `factor`
    /// of their current bandwidth.
    DegradeLinks {
        /// Fraction of all links to degrade (0.0–1.0).
        fraction: f64,
        /// Remaining bandwidth multiplier (0 < factor ≤ 1).
        factor: f64,
        /// Injection time in ns.
        at: SimTime,
    },
    /// At time `at`, take a sampled `fraction` of all links out of service.
    FailLinks {
        /// Fraction of all links to fail (0.0–1.0).
        fraction: f64,
        /// Injection time in ns.
        at: SimTime,
    },
    /// At time `at`, fail one specific node's data-management role.
    FailNode {
        /// The victim.
        node: NodeId,
        /// Injection time in ns.
        at: SimTime,
    },
    /// At time `at`, fail `count` sampled distinct nodes.
    FailRandomNodes {
        /// Number of victims (capped so at least one node survives).
        count: usize,
        /// Injection time in ns.
        at: SimTime,
    },
    /// At time `at`, bring one failed node back as a fresh DM successor
    /// (no-op if the node is alive; its lost application processor does not
    /// come back).
    RestoreNode {
        /// The node to restore.
        node: NodeId,
        /// Injection time in ns.
        at: SimTime,
    },
    /// At time `at`, degrade a sampled `fraction` of all links to `factor`
    /// of their bandwidth, healing the *same* links `duration` ns later.
    DegradeLinksFor {
        /// Fraction of all links to degrade (0.0–1.0).
        fraction: f64,
        /// Remaining bandwidth multiplier (0 < factor ≤ 1).
        factor: f64,
        /// Injection time in ns.
        at: SimTime,
        /// Window length in ns; the heal fires at `at + duration`.
        duration: SimTime,
    },
    /// At time `at`, take a sampled `fraction` of all links out of service,
    /// healing the *same* links `duration` ns later.
    FailLinksFor {
        /// Fraction of all links to fail (0.0–1.0).
        fraction: f64,
        /// Injection time in ns.
        at: SimTime,
        /// Window length in ns; the heal fires at `at + duration`.
        duration: SimTime,
    },
}

/// A deterministic, seeded failure schedule for one run.
///
/// Built declaratively, resolved against the concrete topology by the
/// coordinator. The plan seed is independent of the run seed so the same
/// failure pattern can be replayed across strategies and seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan sampling with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Degrade a sampled `fraction` of all links to `factor` of their
    /// bandwidth at time `at`.
    pub fn degrade_links(mut self, fraction: f64, factor: f64, at: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        assert!(factor > 0.0 && factor <= 1.0, "factor out of range");
        self.specs.push(FaultSpec::DegradeLinks {
            fraction,
            factor,
            at,
        });
        self
    }

    /// Fail a sampled `fraction` of all links at time `at`.
    pub fn fail_links(mut self, fraction: f64, at: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        self.specs.push(FaultSpec::FailLinks { fraction, at });
        self
    }

    /// Fail one specific node's data-management role at time `at`.
    pub fn fail_node(mut self, node: NodeId, at: SimTime) -> Self {
        self.specs.push(FaultSpec::FailNode { node, at });
        self
    }

    /// Fail `count` sampled distinct nodes at time `at`.
    pub fn fail_random_nodes(mut self, count: usize, at: SimTime) -> Self {
        self.specs.push(FaultSpec::FailRandomNodes { count, at });
        self
    }

    /// Bring one failed node back as a fresh DM successor at time `at`.
    ///
    /// Dropped at resolution time unless an earlier spec (in builder order)
    /// failed that node: fail/restore pairs are matched in the order the
    /// plan was built, like the duplicate-victim rule of
    /// [`FaultPlan::fail_node`].
    pub fn restore_node(mut self, node: NodeId, at: SimTime) -> Self {
        self.specs.push(FaultSpec::RestoreNode { node, at });
        self
    }

    /// Degrade a sampled `fraction` of all links to `factor` of their
    /// bandwidth at time `at`, healing the same links at `at + duration`.
    pub fn degrade_links_for(
        mut self,
        fraction: f64,
        factor: f64,
        at: SimTime,
        duration: SimTime,
    ) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        assert!(factor > 0.0 && factor <= 1.0, "factor out of range");
        self.specs.push(FaultSpec::DegradeLinksFor {
            fraction,
            factor,
            at,
            duration,
        });
        self
    }

    /// Fail a sampled `fraction` of all links at time `at`, healing the
    /// same links at `at + duration`.
    pub fn fail_links_for(mut self, fraction: f64, at: SimTime, duration: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        self.specs.push(FaultSpec::FailLinksFor {
            fraction,
            at,
            duration,
        });
        self
    }

    /// Whether the plan contains no specifications.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The plan's sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolve the plan against a concrete topology into timed actions.
    ///
    /// Sampling draws from a ChaCha8 stream seeded from the plan seed alone,
    /// consuming draws in specification order — the resolution is a pure
    /// function of (plan, topology). Node victims are distinct across the
    /// whole plan, and at least one node always survives.
    pub(crate) fn resolve(&self, topo: &AnyTopology) -> Vec<TimedFault> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x00FA_017A_B1E0_u64);
        let mut out = Vec::with_capacity(self.specs.len());
        let mut fallen_nodes: Vec<NodeId> = Vec::new();
        let nprocs = topo.nodes();
        for spec in &self.specs {
            match *spec {
                FaultSpec::DegradeLinks {
                    fraction,
                    factor,
                    at,
                } => {
                    let victims = sample_links(&mut rng, topo, fraction);
                    out.push(TimedFault {
                        at,
                        action: FaultAction::DegradeLinks(
                            victims.into_iter().map(|l| (l, factor)).collect(),
                        ),
                    });
                }
                FaultSpec::FailLinks { fraction, at } => {
                    let victims = sample_links(&mut rng, topo, fraction);
                    out.push(TimedFault {
                        at,
                        action: FaultAction::FailLinks(victims),
                    });
                }
                FaultSpec::FailNode { node, at } => {
                    assert!(
                        node.index() < nprocs,
                        "fault plan names node {node} outside the topology"
                    );
                    if !fallen_nodes.contains(&node) && fallen_nodes.len() + 1 < nprocs {
                        fallen_nodes.push(node);
                        out.push(TimedFault {
                            at,
                            action: FaultAction::FailNode(node),
                        });
                    }
                }
                FaultSpec::FailRandomNodes { count, at } => {
                    for _ in 0..count {
                        if fallen_nodes.len() + 1 >= nprocs {
                            break; // keep at least one survivor
                        }
                        // Rejection-sample a not-yet-fallen node: bounded in
                        // expectation because victims stay a minority.
                        let node = loop {
                            let n = NodeId(rng.gen_range(0..nprocs as u32));
                            if !fallen_nodes.contains(&n) {
                                break n;
                            }
                        };
                        fallen_nodes.push(node);
                        out.push(TimedFault {
                            at,
                            action: FaultAction::FailNode(node),
                        });
                    }
                }
                FaultSpec::RestoreNode { node, at } => {
                    assert!(
                        node.index() < nprocs,
                        "fault plan names node {node} outside the topology"
                    );
                    // Only a currently fallen node can be restored; removing
                    // it from the fallen list makes it eligible to fail
                    // again (and frees its slot under the survivor cap).
                    if let Some(pos) = fallen_nodes.iter().position(|&n| n == node) {
                        fallen_nodes.remove(pos);
                        out.push(TimedFault {
                            at,
                            action: FaultAction::RestoreNode(node),
                        });
                    }
                }
                FaultSpec::DegradeLinksFor {
                    fraction,
                    factor,
                    at,
                    duration,
                } => {
                    // Sample once: the heal targets the exact links that
                    // degraded, whatever else the plan does in between.
                    let victims = sample_links(&mut rng, topo, fraction);
                    out.push(TimedFault {
                        at,
                        action: FaultAction::DegradeLinks(
                            victims.iter().map(|&l| (l, factor)).collect(),
                        ),
                    });
                    out.push(TimedFault {
                        at: at + duration,
                        action: FaultAction::HealLinks(victims),
                    });
                }
                FaultSpec::FailLinksFor {
                    fraction,
                    at,
                    duration,
                } => {
                    let victims = sample_links(&mut rng, topo, fraction);
                    out.push(TimedFault {
                        at,
                        action: FaultAction::FailLinks(victims.clone()),
                    });
                    out.push(TimedFault {
                        at: at + duration,
                        action: FaultAction::HealLinks(victims),
                    });
                }
            }
        }
        // Chronological order with fault-before-heal at equal times; the
        // stable sort preserves builder order within each (time, kind)
        // class, so plans without recovery events resolve exactly as
        // before.
        out.sort_by_key(|f| (f.at, f.action.recovery_rank()));
        out
    }
}

/// Sample `fraction` of the topology's links by partial Fisher-Yates over the
/// existing link ids (rounding the victim count to the nearest integer).
fn sample_links(rng: &mut ChaCha8Rng, topo: &AnyTopology, fraction: f64) -> Vec<LinkId> {
    let mut pool = topo.link_ids();
    let k = ((pool.len() as f64 * fraction).round() as usize).min(pool.len());
    for i in 0..k {
        let j = i + rng.gen_range(0..(pool.len() - i) as u32) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// One concrete fault, resolved and scheduled. A batch of link failures is
/// one action so connectivity is checked once per batch, not per link.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TimedFault {
    pub at: SimTime,
    pub action: FaultAction,
}

/// The concrete effect of one [`TimedFault`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultAction {
    /// Degrade each listed link to the paired bandwidth factor.
    DegradeLinks(Vec<(LinkId, f64)>),
    /// Take every listed link out of service, then re-check connectivity.
    FailLinks(Vec<LinkId>),
    /// Fail one node's data-management role and fail-stop its resident
    /// application processor.
    FailNode(NodeId),
    /// Return every listed link to service at its pristine cost.
    HealLinks(Vec<LinkId>),
    /// Bring one failed node back as a fresh DM successor.
    RestoreNode(NodeId),
}

impl FaultAction {
    /// Ordering class at equal times: destructive actions before recovery
    /// actions.
    fn recovery_rank(&self) -> u8 {
        match self {
            FaultAction::DegradeLinks(_) | FaultAction::FailLinks(_) | FaultAction::FailNode(_) => {
                0
            }
            FaultAction::HealLinks(_) | FaultAction::RestoreNode(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mesh::Mesh;

    fn mesh4() -> AnyTopology {
        Mesh::square(4).into()
    }

    #[test]
    fn resolution_is_deterministic() {
        let plan = FaultPlan::new(7)
            .degrade_links(0.2, 0.5, 1_000)
            .fail_links(0.1, 2_000)
            .fail_random_nodes(2, 3_000);
        let a = plan.resolve(&mesh4());
        let b = plan.resolve(&mesh4());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // A different seed picks different victims.
        let c = FaultPlan {
            seed: 8,
            specs: plan.specs.clone(),
        }
        .resolve(&mesh4());
        assert_ne!(a, c);
    }

    #[test]
    fn link_fractions_round_to_counts() {
        let topo = mesh4(); // 48 directed links
        let plan = FaultPlan::new(1).fail_links(0.25, 500);
        let faults = plan.resolve(&topo);
        assert_eq!(faults.len(), 1);
        match &faults[0].action {
            FaultAction::FailLinks(links) => {
                assert_eq!(links.len(), 12);
                let unique: std::collections::HashSet<_> = links.iter().collect();
                assert_eq!(unique.len(), links.len(), "victims must be distinct");
            }
            other => panic!("expected FailLinks, got {other:?}"),
        }
        assert_eq!(faults[0].at, 500);
    }

    #[test]
    fn node_victims_are_distinct_and_leave_a_survivor() {
        let topo = mesh4();
        let plan = FaultPlan::new(3)
            .fail_node(NodeId(5), 100)
            .fail_node(NodeId(5), 200) // duplicate: dropped
            .fail_random_nodes(100, 300); // far more than the node count
        let faults = plan.resolve(&topo);
        let victims: Vec<NodeId> = faults
            .iter()
            .map(|f| match f.action {
                FaultAction::FailNode(n) => n,
                ref other => panic!("expected FailNode, got {other:?}"),
            })
            .collect();
        let unique: std::collections::HashSet<_> = victims.iter().collect();
        assert_eq!(unique.len(), victims.len());
        assert_eq!(victims.len(), 15, "one node of 16 must survive");
        assert!(victims.contains(&NodeId(5)));
    }

    #[test]
    fn empty_plan_resolves_to_nothing() {
        let plan = FaultPlan::new(0);
        assert!(plan.is_empty());
        assert!(plan.resolve(&mesh4()).is_empty());
    }

    #[test]
    fn windowed_failure_heals_the_same_links() {
        let plan = FaultPlan::new(9).fail_links_for(0.25, 1_000, 500);
        let faults = plan.resolve(&mesh4());
        assert_eq!(faults.len(), 2);
        let failed = match &faults[0].action {
            FaultAction::FailLinks(links) => links.clone(),
            other => panic!("expected FailLinks, got {other:?}"),
        };
        let healed = match &faults[1].action {
            FaultAction::HealLinks(links) => links.clone(),
            other => panic!("expected HealLinks, got {other:?}"),
        };
        assert_eq!(faults[0].at, 1_000);
        assert_eq!(faults[1].at, 1_500);
        assert_eq!(failed, healed, "the heal must target the failed links");
    }

    #[test]
    fn restore_requires_a_preceding_failure_and_permits_refailure() {
        let plan = FaultPlan::new(4)
            .restore_node(NodeId(2), 50) // never failed: dropped
            .fail_node(NodeId(2), 100)
            .restore_node(NodeId(2), 200)
            .fail_node(NodeId(2), 300); // fallen slot freed: fails again
        let faults = plan.resolve(&mesh4());
        let kinds: Vec<_> = faults
            .iter()
            .map(|f| match f.action {
                FaultAction::FailNode(n) => ("fail", n, f.at),
                FaultAction::RestoreNode(n) => ("restore", n, f.at),
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("fail", NodeId(2), 100),
                ("restore", NodeId(2), 200),
                ("fail", NodeId(2), 300),
            ]
        );
    }

    #[test]
    fn resolution_orders_by_time_with_faults_before_heals() {
        // A zero-length window plus a later out-of-order spec: the resolved
        // schedule is chronological, and at the shared instant the failure
        // precedes the heal.
        let plan = FaultPlan::new(6)
            .fail_links_for(0.1, 2_000, 0)
            .degrade_links(0.1, 0.5, 1_000);
        let faults = plan.resolve(&mesh4());
        assert_eq!(faults.len(), 3);
        assert!(matches!(faults[0].action, FaultAction::DegradeLinks(_)));
        assert_eq!(faults[0].at, 1_000);
        assert!(matches!(faults[1].action, FaultAction::FailLinks(_)));
        assert!(matches!(faults[2].action, FaultAction::HealLinks(_)));
        assert_eq!(faults[1].at, 2_000);
        assert_eq!(faults[2].at, 2_000);
    }

    /// Link victims are drawn by position in `AnyTopology::link_ids`, whose
    /// order is node by node and, per node, east, west, south, north. This
    /// pins the physical links one fixed-seed plan fails on an 8×8 mesh, so
    /// a change to that order (or to how an id maps to a link) cannot
    /// silently move fig13's victims.
    #[test]
    fn fixed_seed_link_victims_are_pinned_to_physical_links() {
        use dm_mesh::Direction::{East, North, South, West};
        let mesh = Mesh::square(8);
        let faults = FaultPlan::new(13)
            .fail_links(0.1, 1_000)
            .resolve(&mesh.clone().into());
        let FaultAction::FailLinks(links) = &faults[0].action else {
            panic!("expected FailLinks, got {:?}", faults[0].action);
        };
        let victims: Vec<_> = links
            .iter()
            .map(|&l| {
                let (node, d) = mesh.link_origin(l);
                (node.0, d)
            })
            .collect();
        assert_eq!(
            victims,
            [
                (6, East),
                (46, East),
                (8, East),
                (36, North),
                (28, North),
                (14, South),
                (27, South),
                (1, East),
                (4, South),
                (52, West),
                (12, South),
                (33, North),
                (63, North),
                (34, West),
                (34, East),
                (52, South),
                (27, North),
                (57, North),
                (38, North),
                (24, South),
                (27, East),
                (5, West),
            ]
        );
    }
}
