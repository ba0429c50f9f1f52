//! The KV serving-tier experiment (Figure 14, beyond the paper).
//!
//! The paper proves the access-tree strategy competitive for *arbitrary*
//! access patterns; this sweep confronts it with the traffic a production
//! replication tier actually serves. All five strategies of the Barnes-Hut
//! figures run across the four topologies at matched node counts, under four
//! request workloads ([`dm_apps::kv`]) —
//!
//! * **uniform** — every key equally popular (the fig12 baseline shape);
//! * **zipf-0.9** / **zipf-1.2** — Zipf-skewed popularity below and above
//!   the classical web-caching exponent of 1;
//! * **hotspot** — 90% of the traffic on a `keys/16` window that migrates
//!   across the key space at `--strike-at`-style percent boundaries of the
//!   op stream (default `25,50,75`);
//!
//! each with client churn **off** and **on**. Churn composes both halves of
//! the machinery: seeded arrive/depart idle sessions at the application
//! level (`dm_apps::workload::churn_gaps`) plus a transient
//! link-degradation window from the PR 9 fault plans — the run completes
//! (no node loss), so rows stay directly comparable across the axis.
//!
//! Rows report the serving metrics of the replication literature
//! ([`dm_diva::ServingReport`]): local-hit ratio, bytes moved, response-time
//! p50/p99 (log2-bucket lower bounds) and the replication-degree high-water
//! mark. Every (topology, workload, churn, strategy) point is an independent
//! executor [`Job`], so `--jobs N` parallelises the sweep with
//! byte-identical tables and JSON for every `N`, and `--shard`/`--resume`/
//! `merge` work exactly as for fig12/fig13.

use crate::executor::Job;
use crate::stream::run_rows;
use crate::table::{emit, secs, Column};
use crate::topo_exp::topologies_at;
use crate::{barnes_hut_shapes, make_diva, ExtraFlags, HarnessOpts, Scale, Sweep};
use dm_apps::kv::{run_kv_driven, ChurnParams, KeyDist, KvParams};
use dm_diva::{FaultPlan, StrategyKind};
use dm_mesh::AnyTopology;

crate::row! {
    /// Measurements of one (topology, workload, churn, strategy) point. All
    /// fields except `host_ms` are simulated quantities and byte-identical
    /// across `--jobs`, debug/release and resumed runs.
    pub struct KvRow: Row {
        /// Topology name (`mesh 8x8`, `torus 8x8`, `hypercube-6`,
        /// `fat-tree-64`).
        pub topology: String,
        /// Workload label (`uniform`, `zipf-0.9`, `zipf-1.2`, `hotspot`).
        pub workload: String,
        /// Churn axis (`off` or `on`).
        pub churn: String,
        /// Strategy name.
        pub strategy: String,
        /// Matched processor count.
        pub nodes: usize,
        /// Client requests served (fast-path hits included).
        pub requests: u64,
        /// Requests served from a processor-local copy.
        pub local_hits: u64,
        /// Bytes of data-management protocol traffic ("bytes moved").
        pub bytes_moved: u64,
        /// Response-time median: lower bound of its log2 bucket, in ns.
        pub p50_ns: u64,
        /// Response-time 99th percentile: lower bound of its log2 bucket, in
        /// ns.
        pub p99_ns: u64,
        /// Replication-degree high-water mark (peak copies of any one key).
        pub repl_high_water: u64,
        /// Execution time of the run in ns.
        pub exec_time_ns: u64,
        /// Host wall-clock milliseconds of this point (JSON sidecar only).
        pub host_ms: f64,
    }
}

impl KvRow {
    /// The local-hit ratio as a percentage (derived from the exact integer
    /// tallies; rendered with one decimal in the table).
    pub(crate) fn hit_percent(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.local_hits as f64 * 100.0 / self.requests as f64
        }
    }
}

crate::row! {
    /// Shared parameters of a KV serving sweep.
    pub struct KvMeta {
        /// Scale tier name.
        pub scale: String,
        /// Matched node count.
        pub nodes: usize,
        /// Keys in the shared key space.
        pub n_keys: usize,
        /// Requests per client.
        pub ops_per_client: usize,
        /// Write percentage of the request mix.
        pub write_percent: u64,
        /// Value size in bytes.
        pub val_bytes: u64,
        /// Hotspot migration points in percent of the op stream.
        pub migrate_at: Vec<u64>,
        /// Churn: sessions per client on the churn-on axis.
        pub churn_sessions: u64,
        /// Churn: nominal idle gap between sessions, µs.
        pub churn_idle_us: u64,
        /// Seed of the sweep.
        pub seed: u64,
    }
}

/// Churn-on configuration: sessions per client, idle gap, and the transient
/// link-degradation window composed from the fault machinery (fraction,
/// factor, start ns, duration ns).
const CHURN_SESSIONS: usize = 3;
const CHURN_IDLE_US: u64 = 2_000;
const CHURN_DEGRADE: (f64, f64, u64, u64) = (0.2, 0.25, 500_000, 2_000_000);

/// The four request workloads of the sweep, in row order.
pub(crate) fn kv_workloads(migrate_at: &[u64]) -> Vec<KeyDist> {
    vec![
        KeyDist::Uniform,
        KeyDist::Zipf(0.9),
        KeyDist::Zipf(1.2),
        KeyDist::Hotspot {
            migrate_at: migrate_at.to_vec(),
            hot_permille: 900,
        },
    ]
}

/// Describe one serving point as an executor job.
fn kv_job(
    topo: AnyTopology,
    strategy: StrategyKind,
    params: KvParams,
    churn_label: &'static str,
) -> Job<KvRow> {
    let weight = (params.ops_per_client * topo.nodes()) as u64;
    Job::new(weight, move || {
        // The node-level half of the churn axis: a seeded transient
        // link-degradation window mid-run (heals itself, never partitions,
        // never loses a client).
        let plan = params.churn.map(|_| {
            let (fraction, factor, at, duration) = CHURN_DEGRADE;
            FaultPlan::new(params.seed ^ 0xC4).degrade_links_for(fraction, factor, at, duration)
        });
        let diva = make_diva(topo.clone(), strategy, params.seed, plan);
        let workload = params.dist.label();
        let out = run_kv_driven(diva, params);
        let s = &out.report.serving;
        KvRow {
            topology: topo.name(),
            workload,
            churn: churn_label.to_string(),
            strategy: strategy.name(),
            nodes: topo.nodes(),
            requests: s.requests,
            local_hits: s.local_hits,
            bytes_moved: s.bytes_moved,
            p50_ns: s.quantile_ns(0.5),
            p99_ns: s.quantile_ns(0.99),
            repl_high_water: s.replication_high_water,
            exec_time_ns: out.report.total_time,
            host_ms: 0.0,
        }
    })
}

/// The Figure-14 sweep: five strategies × four topologies × four request
/// workloads × churn off/on at one matched node count per scale tier.
/// `None` means the sweep is incomplete (shard run or cut-short run); the
/// sidecar holds the completed jobs.
pub(crate) fn kv_serving_sweep(opts: &HarnessOpts) -> Option<Sweep<KvMeta, KvRow>> {
    let (nodes, ops_per_client) = match opts.scale {
        Scale::Smoke => (16, 24),
        Scale::Default => (64, 64),
        Scale::Paper => (256, 128),
        Scale::Mega => (4_096, 128),
    };
    // Hotspot migration boundaries reuse the --strike-at percent convention;
    // without the flag the window migrates at the three quartiles.
    let migrate_at = if opts.strike_at.is_empty() {
        vec![25, 50, 75]
    } else {
        opts.strike_at.clone()
    };
    let base = KvParams {
        n_keys: 8 * nodes,
        ops_per_client,
        seed: opts.seed,
        ..KvParams::new(nodes)
    };

    let mut jobs = Vec::new();
    for topo in topologies_at(nodes) {
        for dist in kv_workloads(&migrate_at) {
            for (churn_label, churn) in [
                ("off", None),
                (
                    "on",
                    Some(ChurnParams {
                        sessions: CHURN_SESSIONS,
                        idle_us: CHURN_IDLE_US,
                    }),
                ),
            ] {
                for strategy in barnes_hut_shapes() {
                    let params = KvParams {
                        dist: dist.clone(),
                        churn,
                        ..base.clone()
                    };
                    jobs.push(kv_job(topo.clone(), strategy, params, churn_label));
                }
            }
        }
    }
    Some(Sweep {
        meta: KvMeta {
            scale: opts.scale.name().to_string(),
            nodes,
            n_keys: base.n_keys,
            ops_per_client,
            write_percent: base.write_percent as u64,
            val_bytes: base.val_bytes as u64,
            migrate_at,
            churn_sessions: CHURN_SESSIONS as u64,
            churn_idle_us: CHURN_IDLE_US,
            seed: opts.seed,
        },
        rows: run_rows(opts, "", jobs)?,
    })
}

/// `fig14`: the serving-side quantities a cache operator cares about, where
/// the paper's competitive guarantee only speaks of congestion.
pub(crate) fn fig14(opts: &HarnessOpts, _: &ExtraFlags) {
    const COLUMNS: &[Column<KvRow>] = &[
        ("topology", |r| r.topology.clone()),
        ("workload", |r| r.workload.clone()),
        ("churn", |r| r.churn.clone()),
        ("strategy", |r| r.strategy.clone()),
        ("hit%", |r| format!("{:.1}", r.hit_percent())),
        ("bytes moved", |r| r.bytes_moved.to_string()),
        ("p50[ns]", |r| r.p50_ns.to_string()),
        ("p99[ns]", |r| r.p99_ns.to_string()),
        ("repl", |r| r.repl_high_water.to_string()),
        ("exec time[s]", |r| secs(r.exec_time_ns)),
    ];
    let Some(sweep) = kv_serving_sweep(opts) else {
        return;
    };
    let title = format!(
        "Figure 14 — KV serving tier across topologies at {} nodes ({} scale)",
        sweep.meta.nodes, sweep.meta.scale
    );
    emit(opts, "fig14", &title, COLUMNS, &sweep.rows, &sweep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mesh::{FatTree, TreeShape};

    fn smoke_params(dist: KeyDist, churn: Option<ChurnParams>) -> KvParams {
        KvParams {
            n_keys: 128,
            ops_per_client: 8,
            seed: 0x5EED,
            dist,
            churn,
            ..KvParams::new(16)
        }
    }

    #[test]
    fn kv_point_runs_on_a_fat_tree() {
        let topo: AnyTopology = FatTree::new(16).into();
        let row = kv_job(
            topo,
            StrategyKind::FixedHome,
            smoke_params(KeyDist::Zipf(0.9), None),
            "off",
        )
        .call();
        assert_eq!(row.workload, "zipf-0.9");
        assert_eq!(row.churn, "off");
        assert_eq!(row.requests, 16 * 8);
        assert!(row.exec_time_ns > 0);
        assert!(row.bytes_moved > 0);
        assert!(row.p99_ns >= row.p50_ns);
    }

    #[test]
    fn churn_point_composes_the_degrade_window() {
        let topo: AnyTopology = dm_mesh::Mesh::square(4).into();
        let row = kv_job(
            topo,
            StrategyKind::AccessTree(TreeShape::quad()),
            smoke_params(
                KeyDist::Uniform,
                Some(ChurnParams {
                    sessions: 2,
                    idle_us: 1_000,
                }),
            ),
            "on",
        )
        .call();
        assert_eq!(row.churn, "on");
        assert_eq!(row.requests, 16 * 8, "churn must not drop requests");
    }

    #[test]
    fn workload_axis_has_stable_labels() {
        let labels: Vec<String> = kv_workloads(&[25, 50, 75])
            .iter()
            .map(|d| d.label())
            .collect();
        assert_eq!(labels, ["uniform", "zipf-0.9", "zipf-1.2", "hotspot"]);
    }
}
