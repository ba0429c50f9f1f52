//! Statistics reported by a simulation run.

use crate::policy::{Counter, COUNTER_COUNT};
use dm_engine::{ns_to_secs, SimTime};
use dm_mesh::LinkStats;
use std::collections::BTreeMap;

/// Per-region (per-phase) measurements.
///
/// Regions are declared by the application with
/// [`ProcCtx::region`](crate::ProcCtx::region); the Barnes-Hut harness uses
/// them to reproduce the per-phase congestion and time figures of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Wall-clock (virtual) time spent in the region — the maximum over all
    /// processors of the time between entering and leaving the region.
    pub wall_time: SimTime,
    /// Modelled local-computation time inside the region (maximum over
    /// processors).
    pub compute_time: SimTime,
    /// Maximum number of messages over any single link, attributed to this
    /// region.
    pub congestion_msgs: u64,
    /// Maximum number of bytes over any single link, attributed to this region.
    pub congestion_bytes: u64,
    /// Total messages attributed to this region.
    pub total_msgs: u64,
    /// Total bytes attributed to this region.
    pub total_bytes: u64,
}

impl RegionReport {
    /// Time spent communicating (wall time minus modelled computation).
    #[cfg(test)]
    pub(crate) fn comm_time(&self) -> SimTime {
        self.wall_time.saturating_sub(self.compute_time)
    }
}

/// Fault accounting of a run: what the [`FaultPlan`](crate::FaultPlan)
/// injected and what recovery cost. All fields stay zero when no plan is set,
/// so fault-free reports (and their JSON) are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Links whose bandwidth was degraded.
    pub links_degraded: u64,
    /// Links taken out of service.
    pub links_failed: u64,
    /// Nodes whose data-management role failed.
    pub nodes_failed: u64,
    /// Migration messages charged for re-homing directory state.
    pub rehome_msgs: u64,
    /// Migration bytes charged for re-homing directory state.
    pub rehome_bytes: u64,
    /// Links returned to service at their pristine cost.
    pub links_healed: u64,
    /// Failed nodes brought back as fresh DM successors.
    pub nodes_restored: u64,
    /// Locks force-released because their holder's processor was lost.
    pub locks_force_released: u64,
    /// Application processors fail-stopped (directly by a node failure, or
    /// transitively because they could only ever be unblocked by a lost
    /// processor).
    pub procs_lost: u64,
}

impl FaultTally {
    /// Whether any fault was injected or any recovery traffic charged.
    pub(crate) fn any(&self) -> bool {
        *self != FaultTally::default()
    }
}

/// Number of fixed log2 buckets of the per-request response-time histogram:
/// bucket `i` counts responses whose virtual latency lies in
/// `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0-latency responses, the last
/// bucket absorbs everything ≥ 2^31 ns ≈ 2.1 s).
pub const RESPONSE_BUCKETS: usize = 32;

/// Serving-side metrics of a request workload, in the vocabulary of the
/// replication literature (hit ratio, bytes moved, response time,
/// replication degree).
///
/// Tallied centrally by the coordinator's [`PolicyEnv`](crate::PolicyEnv)
/// implementation — not by the policies and not by the stepper — so both
/// strategies report them identically. All fields are simulated quantities
/// (no host clocks, no allocation addresses), which keeps them byte-exact
/// across `--jobs`, debug/release and resumed runs. Fields stay zero for
/// workloads that never touch shared variables, so reports of the
/// message-passing baselines are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingReport {
    /// Client read/write requests served (fast-path local hits included;
    /// lock/unlock traffic is synchronisation, not serving, and is excluded).
    pub requests: u64,
    /// Requests satisfied from a processor-local copy without any protocol
    /// transaction (the fast path).
    pub local_hits: u64,
    /// Bytes of every message sent through `PolicyEnv::send` — the "bytes
    /// moved" of the replication-metrics literature: the strategy's control
    /// and data messages and the lock protocol's requests, grants and
    /// releases, including hand-offs between tree nodes embedded at the same
    /// processor that cross no link. Excludes application message passing,
    /// barrier traffic and fault-recovery migrations (the latter are tallied
    /// in [`FaultTally`]).
    pub bytes_moved: u64,
    /// Per-request response-time histogram over [`RESPONSE_BUCKETS`] fixed
    /// log2 buckets of virtual nanoseconds. Completions that evaporated
    /// because their processor was lost to a node failure are not counted.
    pub response_hist: [u64; RESPONSE_BUCKETS],
    /// Highest number of simultaneously live copies of any single variable —
    /// the replication-degree high-water mark.
    pub replication_high_water: u64,
}

impl ServingReport {
    /// The histogram bucket of a response latency of `ns` virtual
    /// nanoseconds: `floor(log2(ns))`, clamped to the fixed bucket range.
    pub fn bucket(ns: SimTime) -> usize {
        (63 - ns.max(1).leading_zeros() as usize).min(RESPONSE_BUCKETS - 1)
    }

    /// Total responses recorded in the histogram.
    pub fn responses(&self) -> u64 {
        self.response_hist.iter().sum()
    }

    /// Fraction of requests served from a local copy (0 when no request was
    /// served).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.local_hits as f64 / self.requests as f64
        }
    }

    /// The latency quantile `q` (e.g. `0.5`, `0.99`) as the lower bound of
    /// the histogram bucket in which it falls, in virtual nanoseconds — a
    /// deterministic integer suitable for golden files. Returns 0 when the
    /// histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> SimTime {
        let total = self.responses();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut acc = 0;
        for (i, &count) in self.response_hist.iter().enumerate() {
            acc += count;
            if acc >= target {
                return 1 << i;
            }
        }
        1 << (RESPONSE_BUCKETS - 1)
    }

    /// Whether any serving activity was recorded.
    pub(crate) fn any(&self) -> bool {
        *self != ServingReport::default()
    }
}

/// The outcome of a simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the data-management strategy that produced this run.
    pub strategy: String,
    /// Virtual time at which the last processor finished (and all protocol
    /// traffic quiesced).
    pub total_time: SimTime,
    /// Per-link traffic statistics of the whole run.
    pub link_stats: LinkStats,
    /// Protocol counters (hits, misses, copies, invalidations, locks); read
    /// one with [`RunReport::counter`].
    pub(crate) counters: [u64; COUNTER_COUNT],
    /// Per-region measurements, keyed by the region name.
    pub regions: BTreeMap<String, RegionReport>,
    /// Total messages handed to the network (including node-local ones).
    pub messages_sent: u64,
    /// Total bytes handed to the network.
    pub bytes_sent: u64,
    /// Modelled local computation time (maximum over processors).
    pub compute_time: SimTime,
    /// Number of barrier synchronisations executed.
    pub barriers: u64,
    /// Total variable registrations (pre-run and in-run, including slots
    /// recycled after a free).
    pub vars_registered: u64,
    /// Total variables freed by [`crate::Op::Free`].
    pub vars_freed: u64,
    /// Highest number of simultaneously live variables — the footprint of
    /// the per-variable protocol state. With per-step reclamation this stays
    /// O(live working set) instead of growing with the run length.
    pub live_vars_high_water: u64,
    /// Fault accounting — all zero unless a `FaultPlan` was active.
    pub faults: FaultTally,
    /// Serving-side metrics (hit ratio, bytes moved, response-time
    /// histogram, replication degree) — see [`ServingReport`].
    pub serving: ServingReport,
}

impl RunReport {
    /// Congestion in messages: the maximum number of messages that crossed any
    /// single directed link (the unit of the paper's Barnes-Hut figures).
    pub fn congestion_msgs(&self) -> u64 {
        self.link_stats.congestion_msgs()
    }

    /// Congestion in bytes: the maximum number of bytes that crossed any
    /// single directed link.
    pub fn congestion_bytes(&self) -> u64 {
        self.link_stats.congestion_bytes()
    }

    /// Total bytes over all links ("total communication load").
    pub fn total_traffic_bytes(&self) -> u64 {
        self.link_stats.total_bytes()
    }

    /// Value of a protocol counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// The execution time in (virtual) seconds.
    pub fn total_time_secs(&self) -> f64 {
        ns_to_secs(self.total_time)
    }

    /// Wall time minus modelled computation time, in nanoseconds — the
    /// "communication time" of the paper's matrix-multiplication experiments.
    pub fn comm_time(&self) -> SimTime {
        self.total_time.saturating_sub(self.compute_time)
    }

    /// A region report by name, if the application declared it.
    pub fn region(&self, name: &str) -> Option<&RegionReport> {
        self.regions.get(name)
    }

    /// A compact human-readable summary (used by examples and the harness).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("strategy:            {}\n", self.strategy));
        s.push_str(&format!(
            "execution time:      {:.3} s (compute {:.3} s, communication {:.3} s)\n",
            self.total_time_secs(),
            ns_to_secs(self.compute_time),
            ns_to_secs(self.comm_time()),
        ));
        s.push_str(&format!(
            "congestion:          {} messages / {} bytes on the hottest link\n",
            self.congestion_msgs(),
            self.congestion_bytes()
        ));
        s.push_str(&format!(
            "network totals:      {} messages, {} bytes\n",
            self.messages_sent, self.bytes_sent
        ));
        s.push_str(&format!("barriers:            {}\n", self.barriers));
        s.push_str(&format!(
            "variables:           {} registered, {} freed, peak live {}\n",
            self.vars_registered, self.vars_freed, self.live_vars_high_water
        ));
        if self.faults.any() {
            s.push_str(&format!(
                "faults:              {} links degraded, {} links failed, {} nodes failed, re-homing {} msgs / {} bytes\n",
                self.faults.links_degraded,
                self.faults.links_failed,
                self.faults.nodes_failed,
                self.faults.rehome_msgs,
                self.faults.rehome_bytes
            ));
            let f = &self.faults;
            if f.links_healed + f.nodes_restored + f.locks_force_released + f.procs_lost > 0 {
                s.push_str(&format!(
                    "recovery:            {} links healed, {} nodes restored, {} locks force-released, {} procs lost\n",
                    f.links_healed, f.nodes_restored, f.locks_force_released, f.procs_lost
                ));
            }
        }
        if self.serving.any() {
            s.push_str(&format!(
                "serving:             {} requests, {:.1}% local hits, {} bytes moved, p50 {} ns, p99 {} ns, repl high-water {}\n",
                self.serving.requests,
                self.serving.hit_ratio() * 100.0,
                self.serving.bytes_moved,
                self.serving.quantile_ns(0.5),
                self.serving.quantile_ns(0.99),
                self.serving.replication_high_water
            ));
        }
        for c in Counter::ALL {
            s.push_str(&format!(
                "{:<20} {}\n",
                format!("{}:", c.name()),
                self.counter(c)
            ));
        }
        for (name, r) in &self.regions {
            s.push_str(&format!(
                "region {:<13} wall {:.3} s, compute {:.3} s, congestion {} msgs / {} bytes\n",
                name,
                ns_to_secs(r.wall_time),
                ns_to_secs(r.compute_time),
                r.congestion_msgs,
                r.congestion_bytes
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mesh::Mesh;

    #[test]
    fn report_accessors() {
        let mesh = Mesh::square(2);
        let mut stats = LinkStats::new(&mesh);
        let link = mesh.link_ids().next().unwrap();
        stats.record(link, 100);
        stats.record(link, 50);
        let mut counters = [0u64; COUNTER_COUNT];
        counters[Counter::ReadHit.index()] = 7;
        let mut regions = BTreeMap::new();
        regions.insert(
            "force".to_string(),
            RegionReport {
                wall_time: 10_000,
                compute_time: 4_000,
                congestion_msgs: 3,
                congestion_bytes: 300,
                total_msgs: 9,
                total_bytes: 900,
            },
        );
        let r = RunReport {
            strategy: "4-ary access tree".into(),
            total_time: 2_000_000_000,
            link_stats: stats,
            counters,
            regions,
            messages_sent: 12,
            bytes_sent: 1234,
            compute_time: 500_000_000,
            barriers: 3,
            vars_registered: 40,
            vars_freed: 30,
            live_vars_high_water: 10,
            faults: FaultTally::default(),
            serving: ServingReport::default(),
        };
        assert_eq!(r.congestion_bytes(), 150);
        assert_eq!(r.congestion_msgs(), 2);
        assert_eq!(r.counter(Counter::ReadHit), 7);
        assert_eq!(r.counter(Counter::ReadMiss), 0);
        assert!((r.total_time_secs() - 2.0).abs() < 1e-9);
        assert_eq!(r.comm_time(), 1_500_000_000);
        assert_eq!(r.region("force").unwrap().comm_time(), 6_000);
        assert!(r.region("missing").is_none());
        assert_eq!(r.vars_registered, 40);
        assert_eq!(r.vars_freed, 30);
        assert_eq!(r.live_vars_high_water, 10);
        let s = r.summary();
        assert!(s.contains("4-ary access tree"));
        assert!(s.contains("read_hits"));
        assert!(s.contains("region force"));
        assert!(s.contains("peak live 10"));
        // Fault-free runs keep the summary free of fault lines.
        assert!(!r.faults.any());
        assert!(!s.contains("faults:"));
        let mut faulty = r.clone();
        faulty.faults.links_failed = 2;
        faulty.faults.rehome_bytes = 640;
        assert!(faulty.faults.any());
        assert!(faulty.summary().contains("2 links failed"));
        // Recovery counters stay off the summary until one is non-zero.
        assert!(!faulty.summary().contains("recovery:"));
        faulty.faults.links_healed = 2;
        faulty.faults.locks_force_released = 1;
        faulty.faults.procs_lost = 1;
        let s = faulty.summary();
        assert!(s.contains("2 links healed"));
        assert!(s.contains("1 locks force-released"));
        assert!(s.contains("1 procs lost"));
        // Workloads without serving activity keep the summary line off.
        assert!(!r.serving.any());
        assert!(!r.summary().contains("serving:"));
        let mut serving = r.clone();
        serving.serving.requests = 200;
        serving.serving.local_hits = 50;
        serving.serving.bytes_moved = 4096;
        serving.serving.response_hist[ServingReport::bucket(900)] = 200;
        serving.serving.replication_high_water = 5;
        let s = serving.summary();
        assert!(s.contains("200 requests"));
        assert!(s.contains("25.0% local hits"));
        assert!(s.contains("repl high-water 5"));
    }

    #[test]
    fn serving_buckets_and_quantiles() {
        // floor(log2(ns)), with 0 absorbed into bucket 0 and a clamped tail.
        assert_eq!(ServingReport::bucket(0), 0);
        assert_eq!(ServingReport::bucket(1), 0);
        assert_eq!(ServingReport::bucket(2), 1);
        assert_eq!(ServingReport::bucket(3), 1);
        assert_eq!(ServingReport::bucket(1024), 10);
        assert_eq!(ServingReport::bucket(u64::MAX), RESPONSE_BUCKETS - 1);
        let mut s = ServingReport::default();
        assert_eq!(s.quantile_ns(0.5), 0, "empty histogram has no quantile");
        assert_eq!(s.hit_ratio(), 0.0);
        // 90 responses near 1 us, 10 near 1 ms: the median sits in the fast
        // bucket, the p99 in the slow one.
        s.response_hist[ServingReport::bucket(1_000)] = 90;
        s.response_hist[ServingReport::bucket(1_000_000)] = 10;
        assert_eq!(s.responses(), 100);
        assert_eq!(s.quantile_ns(0.5), 1 << 9);
        assert_eq!(s.quantile_ns(0.99), 1 << 19);
        s.requests = 100;
        s.local_hits = 25;
        assert!((s.hit_ratio() - 0.25).abs() < 1e-12);
        assert!(s.any());
    }
}
