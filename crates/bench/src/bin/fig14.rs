//! Figure 14 (beyond the paper): the five strategies as the replication
//! layer of a KV serving tier, across the four topologies, under
//! Internet-scale request workloads — uniform, Zipf-skewed (s = 0.9 and
//! s = 1.2), and a migrating hotspot — with client churn off and on.
//!
//! The paper's competitive guarantee covers arbitrary access patterns; this
//! figure measures the serving-side quantities a cache operator cares
//! about: local-hit ratio, bytes moved, response-time p50/p99 (log2-bucket
//! lower bounds) and the replication-degree high-water mark.

use dm_bench::kv_exp::{kv_serving_sweep, KvRow};
use dm_bench::table::{emit, secs, Column};
use dm_bench::HarnessOpts;

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

fn main() {
    let opts = HarnessOpts::from_args();
    let Some(sweep) = kv_serving_sweep(&opts) else {
        return;
    };
    let title = format!(
        "Figure 14 — KV serving tier across topologies at {} nodes ({} scale)",
        sweep.meta.nodes, sweep.meta.scale
    );
    emit(&opts, "fig14", &title, COLUMNS, &sweep.rows, &sweep);
}
