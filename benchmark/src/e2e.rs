//! The end-to-end mode: warm-up rep, timed reps, counting rep.

use crate::alloc::{counted, AllocStats};
use crate::workload::{Rep, Spec};
use crate::{Measured, Outcome, END_TO_END, MIB};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest timed reps a run takes, however short `--seconds` is.
pub const MIN_REPS: usize = 3;
/// Shortest batch of set-ups that is timed as one sample. One set-up takes
/// 5 µs to 2 ms, too little for one clock reading on the small ones.
const SETUP_BATCH: Duration = Duration::from_millis(1);

/// What the timed phase of a run measured.
pub struct Timed {
    /// Minimum wall-clock seconds of one `run_*_driven` call.
    pub host_s: f64,
    /// Minimum seconds of one set-up (built and dropped).
    pub setup_s: f64,
    /// Reps timed.
    pub reps: usize,
}

/// How many set-ups make a batch of at least [`SETUP_BATCH`].
pub fn setup_batch_size(spec: &Spec, seed: u64) -> u32 {
    let t = Instant::now();
    black_box(spec.setup(black_box(seed)));
    let one = t.elapsed().max(Duration::from_nanos(100));
    (SETUP_BATCH.as_nanos() / one.as_nanos() + 1) as u32
}

/// Seconds per set-up over one batch of `n`.
pub fn time_setup_batch(spec: &Spec, seed: u64, n: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        black_box(spec.setup(black_box(seed)));
    }
    t.elapsed().as_secs_f64() / n as f64
}

/// One timed rep: a fresh simulation is set up (untimed), then the app's
/// `run_*_driven` call is timed. Returns the rep and the call's seconds.
pub fn timed_rep(spec: &Spec, seed: u64) -> (Rep, f64) {
    let ready = spec.setup(seed);
    let t = Instant::now();
    let rep = ready.run();
    (rep, t.elapsed().as_secs_f64())
}

/// Timed reps for `seconds`, each checked against the warm-up rep `first`,
/// with one batch of set-ups between each pair of reps. Stops at the first
/// failed check.
pub fn timed_phase(spec: &Spec, seed: u64, seconds: f64, first: &Rep) -> Result<Timed, String> {
    let batch = setup_batch_size(spec, seed);
    let mut timed = Timed {
        host_s: f64::INFINITY,
        setup_s: f64::INFINITY,
        reps: 0,
    };
    let start = Instant::now();
    while timed.reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (rep, host_s) = timed_rep(spec, seed);
        timed.host_s = timed.host_s.min(host_s);
        timed.reps += 1;
        rep.check_same_as(first)
            .map_err(|why| format!("rep {}: {why}", timed.reps))?;
        drop(rep);
        timed.setup_s = timed.setup_s.min(time_setup_batch(spec, seed, batch));
    }
    Ok(timed)
}

/// The counting rep: set-up and run under the counting allocator. The rep
/// is returned alive, so the window ends at the peak, before its drop.
pub fn counting_rep(spec: &Spec, seed: u64) -> (Rep, AllocStats) {
    counted(|| spec.setup(seed).run())
}

/// Peak resident set of this process so far in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Everything after the warm-up rep `first`: the gate, the timed reps, the
/// counting rep. Returns the eight metric values and the reps timed.
fn measure(spec: &Spec, seed: u64, seconds: f64, first: &Rep) -> Result<Measured, String> {
    spec.check_reference(seed, first)?;
    let timed = timed_phase(spec, seed, seconds, first)?;
    let (rep, heap) = counting_rep(spec, seed);
    rep.check_same_as(first)
        .map_err(|why| format!("counting rep: {why}"))?;
    let report = &first.report;
    let values = vec![
        ("host_s", timed.host_s),
        ("sim_ops_per_s", spec.ops(report) as f64 / timed.host_s),
        ("setup_s", timed.setup_s),
        ("peak_rss_mb", peak_rss_mib()?),
        ("heap_peak_mb", heap.peak_bytes as f64 / MIB),
        ("sim_exec_s", report.total_time_secs()),
        ("sim_congestion_bytes", report.congestion_bytes() as f64),
        ("sim_miss_ratio", 1.0 - report.serving.hit_ratio()),
    ];
    Ok((values, timed.reps))
}

/// Run one workload end to end and return the eight end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let first = spec.setup(seed).run();
    let measured = measure(spec, seed, seconds, &first);
    // Besides the timed reps, the warm-up and the counting rep ran the
    // operations too.
    Outcome::new(&END_TO_END, measured, spec.ops(&first.report), 2)
}
