//! The parallel sweep executor: run independent simulation points on a pool
//! of worker threads.
//!
//! Every figure of the evaluation is a grid of *independent* simulation runs
//! (sweep point × strategy). Since the event-driven backend produces every
//! simulated quantity deterministically per run, host-level parallelism is
//! free accuracy-wise: the sweep first *describes* its points as
//! self-contained [`Job`] values (parameters + strategy + seed, with the
//! [`Diva`](dm_diva::Diva) instance constructed up front and moved into the
//! job — the compile-time `Send` audit in `dm-diva` guarantees whole
//! simulations can cross threads), then hands them to [`run_jobs`].
//!
//! Guarantees and mechanics:
//!
//! * **Deterministic results** — outputs come back in *description order*
//!   regardless of completion order, so rendered tables and JSON rows are
//!   byte-identical for any `--jobs` value (enforced by the
//!   `jobs_determinism` integration test). Only the per-job host-time
//!   measurements differ between runs.
//! * **Longest-job-first scheduling** — jobs are dispatched by decreasing
//!   [`Job::weight`] (ties in description order), so a mega point does not
//!   straggle at the tail of the sweep behind a queue of cheap smoke points.
//! * **Memory governor** — jobs whose scheduling weight reaches
//!   `HEAVY_WEIGHT` (mega-scale points, whose live octrees peak at
//!   hundreds of thousands of variables — on any topology) are capped at
//!   `max_heavy_concurrent` in flight, a cap sized from the host's
//!   available memory; workers that would exceed the cap pick lighter jobs
//!   instead, or wait.
//! * **Per-job host timing** — each [`JobResult`] carries the wall-clock
//!   milliseconds the job spent on its worker. Host times are contention-
//!   skewed under high `--jobs` and are therefore reported only in the JSON
//!   sidecar, never in the golden-diffed tables.
//! * **Streaming completion** — `run_jobs_streamed` invokes a caller sink
//!   as each job finishes (in completion order, serialized under a lock),
//!   which is what the resumable sweep engine (`crate::stream`) uses to
//!   append every finished point to its append-only JSONL checkpoint the
//!   moment it exists, instead of buffering a 40-minute sweep in memory
//!   until the end. The streamed variant also accepts a completion budget
//!   (stop after N newly executed jobs) — the deterministic crash-injection
//!   hook the resume tests kill sweeps with.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Host-memory budget assumed per memory-heavy job (mega-scale Barnes-Hut
/// points keep >600 000 live variables plus octree scratch per run). The
/// governor cap is `MemAvailable / HEAVY_JOB_BYTES`, so a 16 GiB box admits
/// four heavy points, an 8 GiB one two — see [`max_heavy_concurrent`].
pub(crate) const HEAVY_JOB_BYTES: u64 = 4 << 30;

/// Fallback heavy-job cap when host memory cannot be determined (no
/// `/proc/meminfo`, unparsable content). Two in flight bounds the peak
/// footprint while still overlapping the two strategies of a `scale --bh`
/// sweep — the historical fixed cap.
pub(crate) const FALLBACK_HEAVY_CONCURRENT: usize = 2;

/// Maximum number of memory-heavy jobs in flight at once, independent of
/// `--jobs`: available host memory divided by the per-job budget
/// [`HEAVY_JOB_BYTES`], clamped to `[1, 8]` (at least one heavy job must
/// always be admissible or the sweep deadlocks; above eight the working
/// sets thrash the shared caches long before memory runs out). Falls back
/// to [`FALLBACK_HEAVY_CONCURRENT`] when `/proc/meminfo` is unavailable.
/// Computed once per process.
pub(crate) fn max_heavy_concurrent() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        std::fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|text| heavy_cap_from_meminfo(&text))
            .unwrap_or(FALLBACK_HEAVY_CONCURRENT)
    })
}

/// The governor cap for a given `/proc/meminfo` content: prefers
/// `MemAvailable` (free + reclaimable page cache), falls back to `MemTotal`,
/// divides by [`HEAVY_JOB_BYTES`] and clamps to `[1, 8]`. `None` when
/// neither field parses.
fn heavy_cap_from_meminfo(text: &str) -> Option<usize> {
    let bytes = meminfo_field(text, "MemAvailable").or_else(|| meminfo_field(text, "MemTotal"))?;
    Some(((bytes / HEAVY_JOB_BYTES) as usize).clamp(1, 8))
}

/// One `/proc/meminfo` field in bytes (the file reports kB).
fn meminfo_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
}

/// Scheduling weight at which a job counts as memory-heavy.
/// Weights are the sweeps' cost estimates (bodies × time steps × network
/// nodes for Barnes-Hut, nodes × block size for matmul, ...), so the
/// threshold is topology-agnostic: a mega fat-tree or hypercube point trips
/// it exactly like the 64×64-mesh points it was calibrated on (the lightest
/// historically-capped point, fig8 `--mega` at 50 000 bodies × 5 steps ×
/// 4 096 nodes, weighs 1.02e9; the heaviest never-capped paper point weighs
/// ~1e8).
pub(crate) const HEAVY_WEIGHT: u64 = 1_000_000_000;

/// A self-contained unit of sweep work: one simulation run (or one figure
/// point), described up front and executed on an arbitrary worker thread.
pub struct Job<T> {
    /// Scheduling weight — an arbitrary monotonic cost estimate (bodies ×
    /// time steps × network nodes, nodes × block size, ...). Heavier jobs
    /// start first.
    pub weight: u64,
    /// Memory-heavy job (weight ≥ `HEAVY_WEIGHT`, or flagged explicitly):
    /// capped at `max_heavy_concurrent` in flight.
    pub heavy: bool,
    run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Job<T> {
    /// Describe a job with the given scheduling weight. Jobs whose weight
    /// reaches `HEAVY_WEIGHT` are automatically treated as memory-heavy
    /// (see `max_heavy_concurrent`).
    pub fn new(weight: u64, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job {
            weight,
            heavy: weight >= HEAVY_WEIGHT,
            run: Box::new(run),
        }
    }

    /// Mark the job as memory-heavy regardless of its weight (see
    /// [`max_heavy_concurrent`]).
    pub(crate) fn heavy(mut self) -> Self {
        self.heavy = true;
        self
    }

    /// Execute the job's closure on the calling thread. Used by wrappers
    /// that decorate a described job (progress lines, extra timing) before
    /// re-describing it with the same weight and heaviness.
    pub(crate) fn call(self) -> T {
        (self.run)()
    }
}

/// The outcome of one [`Job`].
pub struct JobResult<T> {
    /// The job's return value.
    pub value: T,
    /// Host wall-clock milliseconds the job spent executing (excluding queue
    /// wait). Contention-skewed under high `--jobs`; excluded from goldens.
    pub host_ms: f64,
}

/// Scheduler state shared by the worker threads.
struct SchedState<T> {
    /// Indices into `slots`, sorted heaviest-first; workers pop from the
    /// front (skipping over heavy jobs while the governor cap is reached).
    queue: Vec<usize>,
    /// The jobs themselves, taken (`None`) once dispatched.
    slots: Vec<Option<Job<T>>>,
    /// Results, written at the job's description index.
    results: Vec<Option<JobResult<T>>>,
    /// Number of heavy jobs currently executing.
    heavy_running: usize,
    /// Remaining completion budget (`None` = unlimited). Decremented at
    /// dispatch time — every dispatched job runs to completion, so the
    /// budget bounds *newly executed* jobs exactly.
    budget: Option<usize>,
}

/// A streaming completion sink: called with the job's description index and
/// its result as each job finishes (completion order, serialized — workers
/// take a lock around the call, so the sink may hold a file handle).
pub(crate) type Sink<'a, T> = Box<dyn FnMut(usize, &JobResult<T>) + Send + 'a>;

/// Run `jobs` on up to `workers` threads and return their results in
/// description order. `workers == 1` executes serially on the calling thread
/// (no pool, no reordering of side effects) — the baseline the determinism
/// test compares every parallel run against.
pub fn run_jobs<T: Send>(workers: usize, jobs: Vec<Job<T>>) -> Vec<JobResult<T>> {
    run_jobs_streamed(workers, jobs, None, None)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

/// [`run_jobs`] with streaming completion and an optional completion budget.
///
/// * `sink` — invoked as each job finishes with `(description_index,
///   &result)`, before `run_jobs_streamed` returns; calls are serialized
///   under a lock, in completion order (nondeterministic under `workers >
///   1` — sidecar records are self-describing precisely so this never
///   matters).
/// * `max_new` — stop dispatching after this many jobs have been started
///   (every started job still completes and reaches the sink). Used by the
///   resume tests to simulate a killed sweep at a deterministic point; the
///   remaining slots come back as `None`.
///
/// Results are in description order; `None` marks jobs the budget cut off.
pub(crate) fn run_jobs_streamed<T: Send>(
    workers: usize,
    jobs: Vec<Job<T>>,
    sink: Option<Sink<'_, T>>,
    max_new: Option<usize>,
) -> Vec<Option<JobResult<T>>> {
    let workers = workers.max(1).min(jobs.len().max(1));
    if workers <= 1 {
        let mut sink = sink;
        let mut results: Vec<Option<JobResult<T>>> = Vec::with_capacity(jobs.len());
        let mut budget = max_new;
        for (i, job) in jobs.into_iter().enumerate() {
            if budget == Some(0) {
                results.push(None);
                continue;
            }
            if let Some(b) = &mut budget {
                *b -= 1;
            }
            let result = execute(job);
            if let Some(cb) = sink.as_mut() {
                cb(i, &result);
            }
            results.push(Some(result));
        }
        return results;
    }

    let n = jobs.len();
    // Longest-job-first dispatch order; ties keep description order (sort is
    // stable), so scheduling itself is deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].weight));

    let state = Mutex::new(SchedState {
        queue: order,
        slots: jobs.into_iter().map(Some).collect(),
        results: (0..n).map(|_| None).collect(),
        heavy_running: 0,
        budget: max_new,
    });
    let idle = Condvar::new();
    let sink = Mutex::new(sink);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&state, &idle, &sink));
        }
    });

    state
        .into_inner()
        .expect("executor state poisoned — a job panicked")
        .results
}

fn execute<T>(job: Job<T>) -> JobResult<T> {
    let start = Instant::now();
    let value = (job.run)();
    JobResult {
        value,
        host_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Releases a heavy job's governor slot on unwind. Without this, a heavy
/// job that panics would leave `heavy_running` elevated forever: workers
/// parked on the condvar never wake, `std::thread::scope` blocks joining
/// them, and the sweep hangs instead of propagating the panic.
struct HeavySlotGuard<'a, T> {
    state: &'a Mutex<SchedState<T>>,
    idle: &'a Condvar,
    armed: bool,
}

impl<T> Drop for HeavySlotGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            // Never panic inside this drop (it may already run during a
            // panic): take the state even if another worker poisoned it.
            let mut guard = self
                .state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.heavy_running -= 1;
            self.idle.notify_all();
        }
    }
}

fn worker_loop<T: Send>(
    state: &Mutex<SchedState<T>>,
    idle: &Condvar,
    sink: &Mutex<Option<Sink<'_, T>>>,
) {
    let heavy_cap = max_heavy_concurrent();
    let mut guard = state.lock().expect("executor state poisoned");
    loop {
        // The completion budget is exhausted: leave the rest of the queue
        // undispatched (the streamed caller reports them as None). Wake any
        // parked workers so they observe the same cutoff and exit too.
        if guard.budget == Some(0) {
            guard.queue.clear();
            idle.notify_all();
            return;
        }
        // First queued job the governor admits: heavy jobs only while fewer
        // than the cap are in flight, light jobs always.
        let admitted = guard
            .queue
            .iter()
            .position(|&i| {
                let heavy = guard.slots[i].as_ref().is_some_and(|j| j.heavy);
                !heavy || guard.heavy_running < heavy_cap
            })
            .map(|pos| guard.queue.remove(pos));
        match admitted {
            Some(idx) => {
                let job = guard.slots[idx].take().expect("job dispatched twice");
                let heavy = job.heavy;
                if heavy {
                    guard.heavy_running += 1;
                }
                if let Some(b) = &mut guard.budget {
                    *b -= 1;
                }
                drop(guard);
                let mut slot = HeavySlotGuard {
                    state,
                    idle,
                    armed: heavy,
                };
                let result = execute(job);
                // Normal completion: release the slot under the re-taken
                // lock below instead (one acquisition, not two).
                slot.armed = false;
                // Stream the completion before recording it, outside the
                // scheduler lock: a slow fsync in the sink must not stall
                // other workers' dispatching, only other sinks.
                if let Some(cb) = sink.lock().expect("sink poisoned").as_mut() {
                    cb(idx, &result);
                }
                guard = state.lock().expect("executor state poisoned");
                guard.results[idx] = Some(result);
                if heavy {
                    guard.heavy_running -= 1;
                    // A governor slot freed up: wake workers parked on it.
                    idle.notify_all();
                }
            }
            None if guard.queue.is_empty() => return,
            None => {
                // Only heavy jobs remain and the governor cap is reached;
                // wait for a heavy job to finish.
                guard = idle.wait(guard).expect("executor state poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn results_come_back_in_description_order() {
        // Weights force the *execution* order to be the reverse of the
        // description order; results must still come back as described.
        for workers in [1, 2, 4] {
            let jobs: Vec<Job<usize>> = (0..16)
                .map(|i| Job::new(i as u64, move || i * 10))
                .collect();
            let out = run_jobs(workers, jobs);
            let values: Vec<usize> = out.iter().map(|r| r.value).collect();
            assert_eq!(values, (0..16).map(|i| i * 10).collect::<Vec<_>>());
            assert!(out.iter().all(|r| r.host_ms >= 0.0));
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_jobs(4, Vec::<Job<u8>>::new()).is_empty());
    }

    #[test]
    fn serial_path_runs_in_description_order() {
        // workers == 1 must not apply longest-first reordering to side
        // effects: progress output of a serial sweep reads top to bottom.
        let log = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job<()>> = (0..4)
            .map(|i| {
                let log = Arc::clone(&log);
                Job::new(i as u64, move || log.lock().unwrap().push(i))
            })
            .collect();
        run_jobs(1, jobs);
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn heavy_flag_derives_from_the_weight() {
        assert!(!Job::new(HEAVY_WEIGHT - 1, || ()).heavy);
        assert!(Job::new(HEAVY_WEIGHT, || ()).heavy);
        // Explicit flagging still works for weight-light but memory-heavy
        // special cases.
        assert!(Job::new(1, || ()).heavy().heavy);
    }

    #[test]
    fn governor_caps_concurrent_heavy_jobs() {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job<()>> = (0..8)
            .map(|_| {
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                Job::new(1, move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                })
                .heavy()
            })
            .collect();
        run_jobs(8, jobs);
        assert!(
            peak.load(Ordering::SeqCst) <= max_heavy_concurrent(),
            "governor admitted {} heavy jobs at once (cap {})",
            peak.load(Ordering::SeqCst),
            max_heavy_concurrent()
        );
    }

    #[test]
    fn heavy_cap_derives_from_available_memory() {
        // 20 GiB available → five 4 GiB heavy jobs.
        let text = "MemTotal:       32000000 kB\nMemAvailable:   20971520 kB\n";
        assert_eq!(heavy_cap_from_meminfo(text), Some(5));
        // MemAvailable missing (pre-3.14 kernels): fall back to MemTotal.
        let total_only = "MemTotal:       8388608 kB\nMemFree:        1024 kB\n";
        assert_eq!(heavy_cap_from_meminfo(total_only), Some(2));
        // Tiny hosts still admit one heavy job — a zero cap would deadlock.
        assert_eq!(heavy_cap_from_meminfo("MemAvailable: 512 kB\n"), Some(1));
        // Huge hosts are clamped: beyond eight the caches thrash first.
        assert_eq!(
            heavy_cap_from_meminfo("MemAvailable: 999999999 kB\n"),
            Some(8)
        );
        // Garbage in, None out (the caller falls back to the fixed cap).
        assert_eq!(heavy_cap_from_meminfo("SwapTotal: 0 kB\n"), None);
        assert_eq!(heavy_cap_from_meminfo("MemAvailable: lots\n"), None);
        // The process-wide cap is always usable, whatever the host.
        assert!((1..=8).contains(&max_heavy_concurrent()));
    }

    #[test]
    fn light_jobs_overtake_capped_heavy_jobs() {
        // With the governor saturated by heavy jobs, a spare worker must
        // pick up light jobs instead of idling behind them.
        let jobs: Vec<Job<u32>> = vec![
            Job::new(100, || 0).heavy(),
            Job::new(99, || 1).heavy(),
            Job::new(98, || 2).heavy(),
            Job::new(1, || 3),
        ];
        let out = run_jobs(4, jobs);
        assert_eq!(
            out.iter().map(|r| r.value).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn panicking_heavy_job_propagates_instead_of_hanging() {
        // Regression: a heavy job that panics must release its governor
        // slot (HeavySlotGuard), so workers parked on the condvar wake up
        // and the panic propagates out of run_jobs — in any interleaving —
        // rather than the scope join hanging forever.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let result = std::panic::catch_unwind(|| {
            let jobs: Vec<Job<u32>> = vec![
                Job::new(3, || panic!("simulated point failure")).heavy(),
                Job::new(2, || {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    1
                })
                .heavy(),
                Job::new(1, || 2).heavy(),
                Job::new(0, || 3).heavy(),
            ];
            run_jobs(3, jobs)
        });
        std::panic::set_hook(prev_hook);
        assert!(result.is_err(), "the job panic must propagate");
    }

    #[test]
    fn streaming_sink_sees_every_completion_with_its_index() {
        for workers in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let jobs: Vec<Job<usize>> = (0..12).map(|i| Job::new(i as u64, move || i)).collect();
            let results = run_jobs_streamed(
                workers,
                jobs,
                Some(Box::new(|idx, r: &JobResult<usize>| {
                    seen.lock().unwrap().push((idx, r.value));
                })),
                None,
            );
            assert!(results.iter().all(|r| r.is_some()));
            let mut seen = seen.into_inner().unwrap();
            seen.sort();
            assert_eq!(seen, (0..12).map(|i| (i, i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn completion_budget_cuts_the_sweep_short() {
        // The crash-injection hook: with a budget of 3, exactly 3 jobs run
        // (serial path — deterministic: the first three in description
        // order), the rest come back as None, and the sink saw only the
        // executed ones.
        let executed = Mutex::new(0usize);
        let jobs: Vec<Job<usize>> = (0..8).map(|i| Job::new(1, move || i)).collect();
        let results = run_jobs_streamed(
            1,
            jobs,
            Some(Box::new(|_, _: &JobResult<usize>| {
                *executed.lock().unwrap() += 1;
            })),
            Some(3),
        );
        assert_eq!(*executed.lock().unwrap(), 3);
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 3);
        assert!(results[..3].iter().all(|r| r.is_some()));
        assert!(results[3..].iter().all(|r| r.is_none()));
        // Parallel path: the budget still bounds executions exactly, though
        // longest-first scheduling picks which jobs run.
        let jobs: Vec<Job<usize>> = (0..8).map(|i| Job::new(i as u64, move || i)).collect();
        let results = run_jobs_streamed(4, jobs, None, Some(5));
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 5);
        // A zero budget executes nothing and terminates.
        let jobs: Vec<Job<usize>> = (0..4).map(|i| Job::new(1, move || i)).collect();
        let results = run_jobs_streamed(4, jobs, None, Some(0));
        assert!(results.iter().all(|r| r.is_none()));
    }

    #[test]
    fn moves_whole_simulations_across_threads() {
        // The point of the Send audit: a described job owns a full Diva
        // instance and its report crosses back.
        use dm_diva::{Diva, DivaConfig, StrategyKind};
        use dm_mesh::Mesh;
        let jobs: Vec<Job<u64>> = (0..2)
            .map(|seed| {
                let diva = Diva::new(
                    DivaConfig::on(Mesh::square(2), StrategyKind::FixedHome).with_seed(seed),
                );
                Job::new(1, move || {
                    let outcome = diva.run_prototype(|ctx| ctx.barrier()).expect_completed();
                    outcome.report.total_time
                })
            })
            .collect();
        let out = run_jobs(2, jobs);
        assert!(out.iter().all(|r| r.value > 0));
    }
}
