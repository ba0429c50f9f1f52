//! The traced mode: whole-run reps inside spans, then the layer kernels,
//! then the shares of the whole run each layer's unit costs account for.

use crate::e2e::{counting_rep, timed_rep, MIN_REPS};
use crate::layers::{self, LayerInputs, ResultRow};
use crate::spans::Recorder;
use crate::workload::{Rep, Spec};
use crate::{Measured, Outcome, MIB, PER_LAYER};
use dm_diva::Counter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Share of `--seconds` the whole-run reps get; the kernels share the rest.
const REPS_SHARE: f64 = 0.4;
/// Number of slices the rest is divided into: the kernels sample 18 times,
/// and each sampling also takes an unrecorded warm-up sample.
const KERNEL_SLOTS: u32 = 22;

/// The span file of a workload inside the output directory `dir`.
pub fn trace_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("trace-{workload}.json"))
}

/// One whole-run rep inside spans: `rep[..]` → `setup`, `apps.run_driven`.
/// Returns the rep and the seconds of the `apps.run_driven` span.
fn traced_rep(rec: &mut Recorder, label: &str, spec: &Spec, seed: u64) -> (Rep, f64) {
    rec.span(label, |rec| {
        let ready = rec.span("setup", |_| spec.setup(seed));
        rec.timed_span("apps.run_driven", |_| ready.run())
    })
}

/// Everything after the warm-up rep `first`. Returns the per-layer metric
/// values and the whole-run reps timed.
fn measure(
    rec: &mut Recorder,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    first: &Rep,
) -> Result<Measured, String> {
    rec.span("check", |_| spec.check_reference(seed, first))?;
    let ops = spec.ops(&first.report);

    // Whole-run reps, alternately inside spans and bare: the two minima
    // differ by what the tracing costs.
    let mut host_traced = f64::INFINITY;
    let mut host_bare = f64::INFINITY;
    let mut reps = 0;
    let start = Instant::now();
    while reps < 2 * MIN_REPS || start.elapsed().as_secs_f64() < seconds * REPS_SHARE {
        let rep = if reps % 2 == 0 {
            let (rep, host_s) = traced_rep(rec, &format!("rep[{reps}]"), spec, seed);
            host_traced = host_traced.min(host_s);
            rep
        } else {
            let (rep, host_s) = timed_rep(spec, seed);
            host_bare = host_bare.min(host_s);
            rep
        };
        reps += 1;
        rec.span("check", |_| rep.check_same_as(first))
            .map_err(|why| format!("rep {reps}: {why}"))?;
    }

    let (counted_rep, heap) = rec.span("rep[counting]", |_| counting_rep(spec, seed));
    counted_rep
        .check_same_as(first)
        .map_err(|why| format!("counting rep: {why}"))?;
    drop(counted_rep);

    // Only Barnes-Hut's outcome carries the event-queue trace; recording it
    // must not change the run.
    let mut queue_trace = Vec::new();
    if spec.exposes_queue_trace() {
        let rep = rec.span("rep[queue-trace]", |_| {
            spec.setup_from(spec.config().with_queue_trace(true), seed)
                .run()
        });
        rep.check_same_as(first)
            .map_err(|why| format!("queue-trace rep: {why}"))?;
        queue_trace = rep.queue_trace;
    }

    let report = &first.report;
    let li = LayerInputs {
        spec,
        seed,
        report,
        queue_trace: &queue_trace,
        budget: Duration::from_secs_f64(seconds * (1.0 - REPS_SHARE) / KERNEL_SLOTS as f64),
    };
    let row = ResultRow::of(&li, host_bare);

    let route_ns = rec.span("layer.mesh.route", |_| layers::mesh_route_ns_per_hop(&li));
    let decomp_s = rec.span("layer.mesh.decomp_build", |_| {
        layers::mesh_decomp_build_s(&li)
    });
    let (queue_ns, events) = rec.span("layer.engine.queue", |_| layers::engine_queue(&li));
    let (msg_ns, hop_ns) = rec.span("layer.engine.transmit", |_| layers::engine_transmit(&li));
    let policy = rec.span("layer.diva.policy", |_| layers::diva_policy(&li));
    let embed_ns = rec.span("layer.diva.embed_position", |_| {
        layers::diva_embed_position_ns(&li)
    });
    let gate_ns = rec.span("layer.diva.gate", |_| layers::diva_gate_cycle_ns(&li));
    let lock_ns = rec.span("layer.diva.lock", |_| layers::diva_lock_cycle_ns(&li));
    let barrier_us = rec.span("layer.diva.barrier", |_| layers::diva_barrier_round_us(&li));
    let (floor_s, alloc_ns, step_ns) = rec.span("layer.diva.run_floor_and_step", |_| {
        layers::diva_run_floor_and_step(&li)
    });
    let zipf_ns = rec.span("layer.apps.zipf_sample", |_| {
        layers::apps_zipf_sample_ns(&li)
    });
    let input_gen_s = rec.span("layer.apps.input_gen", |_| layers::apps_input_gen_s(&li));
    let bh_step_s = rec.span("layer.apps.bh_reference_step", |_| {
        layers::apps_bh_reference_step_s(&li)
    });
    let rng_ns = rec.span("layer.rng.next_u64", |_| layers::rng_next_u64_ns(&li));
    let json_ns = rec.span("layer.bench.json_row_roundtrip", |_| {
        layers::bench_json_row_roundtrip_ns(&li, &row)
    });
    let sidecar_us = rec.span("layer.bench.sidecar_append", |_| {
        layers::bench_sidecar_append_us(&li, &row, dir)
    });
    let executor_us = rec.span("layer.bench.executor_job", |_| {
        layers::bench_executor_job_us(&li, &row)
    });

    // Exact counts of the run.
    let msgs = report.messages_sent as f64;
    let crossings = report.link_stats.total_msgs() as f64;
    let read_misses = report.counter(Counter::ReadMiss) as f64;
    let writes_remote = report.counter(Counter::WriteRemote) as f64;
    let writes_local = report.counter(Counter::WriteLocal) as f64;

    // Shares: count × unit cost ÷ host_s. What is left is what timing from
    // the outside cannot see.
    let host_s = host_bare;
    let share_transmit = (msgs * msg_ns + crossings * hop_ns) / 1e9 / host_s;
    let share_queue = events * queue_ns / 1e9 / host_s;
    let share_policy = (read_misses * policy.read_ns
        + writes_remote * policy.write_ns
        + writes_local * policy.write_local_ns)
        / 1e9
        / host_s;
    let share_stepping = ops as f64 * step_ns / 1e9 / host_s;
    let share_floor = floor_s / host_s;
    let share_compute = layers::apps_compute_s(&li, zipf_ns, rng_ns, bh_step_s) / host_s;
    let unattributed = 1.0
        - (share_transmit
            + share_queue
            + share_policy
            + share_stepping
            + share_floor
            + share_compute);

    let values = vec![
        ("mesh.route_ns_per_hop", route_ns),
        ("mesh.decomp_build_s", decomp_s),
        ("engine.queue_hold_ns", queue_ns),
        ("engine.transmit_ns_per_msg", msg_ns),
        ("engine.transmit_ns_per_hop", hop_ns),
        ("engine.msgs", msgs),
        ("engine.link_crossings", crossings),
        ("engine.hops_per_msg", crossings / msgs.max(1.0)),
        ("diva.policy_read_ns", policy.read_ns),
        ("diva.policy_write_ns", policy.write_ns),
        ("diva.policy_write_local_ns", policy.write_local_ns),
        ("diva.policy_msgs_per_access", policy.msgs_per_access),
        ("diva.embed_position_ns", embed_ns),
        ("diva.gate_cycle_ns", gate_ns),
        ("diva.lock_cycle_ns", lock_ns),
        ("diva.barrier_round_us", barrier_us),
        ("diva.run_floor_s", floor_s),
        ("diva.step_hit_ns", step_ns),
        ("diva.alloc_ns_per_var", alloc_ns),
        ("diva.hit_ratio", report.serving.hit_ratio()),
        ("diva.msgs_per_op", msgs / (ops as f64).max(1.0)),
        ("diva.barriers", report.barriers as f64),
        ("diva.locks", report.counter(Counter::Locks) as f64),
        ("diva.vars_registered", report.vars_registered as f64),
        ("apps.zipf_sample_ns", zipf_ns),
        ("apps.input_gen_s", input_gen_s),
        ("apps.bh_reference_step_s", bh_step_s),
        ("apps.ops", ops as f64),
        ("rng.next_u64_ns", rng_ns),
        ("bench.json_row_roundtrip_ns", json_ns),
        ("bench.sidecar_append_us", sidecar_us),
        ("bench.executor_job_us", executor_us),
        ("alloc.count", heap.count as f64),
        ("alloc.mb", heap.bytes as f64 / MIB),
        ("share.engine_transmit", share_transmit),
        ("share.engine_queue", share_queue),
        ("share.diva_policy", share_policy),
        ("share.diva_stepping", share_stepping),
        ("share.diva_run_floor", share_floor),
        ("share.apps_compute", share_compute),
        ("share.unattributed", unattributed),
        ("trace.overhead_share", host_traced / host_bare - 1.0),
    ];
    Ok((values, reps))
}

/// Run one workload in traced mode: every per-layer metric, and the span
/// file in `dir`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let mut rec = Recorder::new();
    let (first, _) = traced_rep(&mut rec, "rep[warmup]", spec, seed);
    let measured = measure(&mut rec, spec, seed, seconds, dir, &first).and_then(|ok| {
        rec.write(&trace_path(dir, spec.name), spec.name, seed)
            .map_err(|e| format!("writing the span file: {e}"))?;
        Ok(ok)
    });
    // Besides the timed reps: warm-up, counting rep, queue-trace rep.
    let extra_reps = 2 + spec.exposes_queue_trace() as u64;
    Outcome::new(&PER_LAYER, measured, spec.ops(&first.report), extra_reps)
}
