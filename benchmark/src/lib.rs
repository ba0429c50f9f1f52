//! # dm-hostbench — the host-performance benchmark of the DIVA simulator
//!
//! One process runs one workload, single-threaded, in one of two modes:
//!
//! * **end to end** ([`e2e`]): an untimed warm-up rep, then timed reps of
//!   the whole simulation for the requested number of seconds, then one
//!   untimed counting rep under the counting allocator. Host times are the
//!   *minimum* over the reps — the simulator is deterministic and
//!   single-threaded, so the minimum estimates the time without the
//!   sandbox's contention noise. Simulated results and heap counts repeat
//!   exactly.
//! * **traced** ([`traced`]): fewer whole-run reps, wrapped in spans, then
//!   one kernel per layer ([`layers`]) that calls that layer's public
//!   functions in isolation on inputs taken from the workload. All
//!   instrumentation lives in this package; the simulator is not touched.
//!
//! Every rep of either mode passes the correctness gate in [`workload`].
//! `README.md` next to this package explains the metrics and workloads.

#![warn(missing_docs)]

pub mod alloc;
pub mod e2e;
pub mod layers;
pub mod spans;
pub mod traced;
pub mod workload;

use dm_bench::json::ToJson;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x5EED;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [MetricDef; 8] = [
    ("host_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("heap_peak_mb", "MiB"),
    ("sim_exec_s", "s"),
    ("sim_congestion_bytes", "B"),
    ("sim_miss_ratio", "ratio"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [MetricDef; 42] = [
    ("mesh.route_ns_per_hop", "ns"),
    ("mesh.decomp_build_s", "s"),
    ("engine.queue_hold_ns", "ns"),
    ("engine.transmit_ns_per_msg", "ns"),
    ("engine.transmit_ns_per_hop", "ns"),
    ("engine.msgs", "count"),
    ("engine.link_crossings", "count"),
    ("engine.hops_per_msg", "ratio"),
    ("diva.policy_read_ns", "ns"),
    ("diva.policy_write_ns", "ns"),
    ("diva.policy_write_local_ns", "ns"),
    ("diva.policy_msgs_per_access", "ratio"),
    ("diva.embed_position_ns", "ns"),
    ("diva.gate_cycle_ns", "ns"),
    ("diva.lock_cycle_ns", "ns"),
    ("diva.barrier_round_us", "us"),
    ("diva.run_floor_s", "s"),
    ("diva.step_hit_ns", "ns"),
    ("diva.alloc_ns_per_var", "ns"),
    ("diva.hit_ratio", "ratio"),
    ("diva.msgs_per_op", "ratio"),
    ("diva.barriers", "count"),
    ("diva.locks", "count"),
    ("diva.vars_registered", "count"),
    ("apps.zipf_sample_ns", "ns"),
    ("apps.input_gen_s", "s"),
    ("apps.bh_reference_step_s", "s"),
    ("apps.ops", "count"),
    ("rng.next_u64_ns", "ns"),
    ("bench.json_row_roundtrip_ns", "ns"),
    ("bench.sidecar_append_us", "us"),
    ("bench.executor_job_us", "us"),
    ("alloc.count", "count"),
    ("alloc.mb", "MiB"),
    ("share.engine_transmit", "ratio"),
    ("share.engine_queue", "ratio"),
    ("share.diva_policy", "ratio"),
    ("share.diva_stepping", "ratio"),
    ("share.diva_run_floor", "ratio"),
    ("share.apps_compute", "ratio"),
    ("share.unattributed", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What a mode measured: every metric of its table by name, in the table's
/// order, and the whole-run reps it timed.
pub type Measured = (Vec<(&'static str, f64)>, usize);

/// Bytes per MiB, the unit of the memory metrics.
pub const MIB: f64 = 1_048_576.0;

/// The result of one run, in either mode.
#[derive(Debug)]
pub struct Outcome {
    /// The table the metric values follow: [`END_TO_END`] or [`PER_LAYER`].
    pub defs: &'static [MetricDef],
    /// One value per entry of `defs`, in order.
    pub values: Vec<f64>,
    /// Application operations run, over all reps.
    pub attempted: u64,
    /// Why the correctness gate failed, if it did; then every attempted
    /// operation counts as failed.
    pub failure: Option<String>,
    /// Whole-simulation reps timed.
    pub reps: usize,
}

impl Outcome {
    /// Package what a mode measured: the metric values and the reps timed,
    /// or why the correctness gate failed (the metrics are then not
    /// numbers). One rep runs `ops` operations; `extra_reps` untimed reps
    /// ran besides the timed ones.
    pub fn new(
        defs: &'static [MetricDef],
        measured: Result<Measured, String>,
        ops: u64,
        extra_reps: u64,
    ) -> Outcome {
        let (values, reps, failure) = match measured {
            Ok((named, reps)) => {
                let names: Vec<&str> = named.iter().map(|(name, _)| *name).collect();
                let listed: Vec<&str> = defs.iter().map(|(name, _)| *name).collect();
                assert_eq!(names, listed, "the mode reports exactly the listed metrics");
                (named.into_iter().map(|(_, v)| v).collect(), reps, None)
            }
            Err(why) => (vec![f64::NAN; defs.len()], 0, Some(why)),
        };
        Outcome {
            defs,
            values,
            attempted: ops.max(1) * (reps as u64 + extra_reps),
            failure,
            reps,
        }
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failure.is_none() && self.values.iter().all(|v| v.is_finite())
    }

    /// The value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|(n, _)| *n == name)?;
        self.values.get(i).copied()
    }

    /// The machine-readable result: one JSON object on one line, with
    /// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let correct = self.correct();
        let failed = if correct { 0 } else { self.attempted };
        let mut out = String::from("{\"correct\":");
        correct.write_json(&mut out);
        out.push_str(",\"attempted\":");
        self.attempted.write_json(&mut out);
        out.push_str(",\"failed\":");
        failed.write_json(&mut out);
        out.push_str(",\"metrics\":{");
        for (i, ((name, unit), value)) in self.defs.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push(',');
            }
            name.write_json(&mut out);
            out.push_str(":{\"value\":");
            value.write_json(&mut out);
            out.push_str(",\"unit\":");
            unit.write_json(&mut out);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The whole standard output of a run: every metric by name with its
    /// unit, the verdict, and the JSON line last.
    pub fn render(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "workload {workload}  seed {seed}  whole-run reps timed {}\n",
            self.reps
        );
        for ((name, unit), value) in self.defs.iter().zip(&self.values) {
            out.push_str(&format!("{name:<32} {value:>18.9} {unit}\n"));
        }
        match &self.failure {
            None => out.push_str("checks: passed\n"),
            Some(why) => out.push_str(&format!("checks: FAILED — {why}\n")),
        }
        out.push_str(&self.json_line());
        out.push('\n');
        out
    }
}

/// Where the traced mode writes its files: `out/` inside this package.
/// `cargo run` passes the package's directory in the environment; a binary
/// started by hand falls back to where it was built.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}
