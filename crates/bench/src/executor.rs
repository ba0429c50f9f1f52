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
//!   `--jobs` is the only concurrency control: no point of the suite needs
//!   more than 2 GiB (the largest, `scale --bh --mega`'s 128×128 access-tree
//!   run, peaks at 1.91 GiB), so the queue admits whatever is at its front.
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

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// A self-contained unit of sweep work: one simulation run (or one figure
/// point), described up front and executed on an arbitrary worker thread.
pub struct Job<T> {
    /// Scheduling weight — an arbitrary monotonic cost estimate (bodies ×
    /// time steps × network nodes, nodes × block size, ...). Heavier jobs
    /// start first.
    pub weight: u64,
    run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Job<T> {
    /// Describe a job with the given scheduling weight.
    pub fn new(weight: u64, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job {
            weight,
            run: Box::new(run),
        }
    }

    /// Execute the job's closure on the calling thread. Used by wrappers
    /// that decorate a described job (progress lines, extra timing) before
    /// re-describing it with the same weight.
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
    /// `(description index, job)` in dispatch order; workers pop the front.
    queue: VecDeque<(usize, Job<T>)>,
    /// Results, written at the job's description index.
    results: Vec<Option<JobResult<T>>>,
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
/// description order. `workers == 1` executes them in description order on
/// the calling thread (no pool, no reordering of side effects) — the
/// baseline the determinism test compares every parallel run against.
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
    let n = jobs.len();
    let mut queue: Vec<(usize, Job<T>)> = jobs.into_iter().enumerate().collect();
    if workers > 1 {
        // Longest-job-first dispatch order; ties keep description order
        // (the sort is stable), so scheduling itself is deterministic.
        queue.sort_by_key(|(_, job)| Reverse(job.weight));
    }
    let state = Mutex::new(SchedState {
        queue: queue.into(),
        results: (0..n).map(|_| None).collect(),
        budget: max_new,
    });
    let sink = Mutex::new(sink);
    if workers == 1 {
        worker_loop(&state, &sink);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&state, &sink));
            }
        });
    }
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

fn worker_loop<T: Send>(state: &Mutex<SchedState<T>>, sink: &Mutex<Option<Sink<'_, T>>>) {
    loop {
        let mut guard = state.lock().expect("executor state poisoned");
        // The completion budget is exhausted: leave the rest of the queue
        // undispatched (the streamed caller reports them as None).
        if guard.budget == Some(0) {
            return;
        }
        let Some((idx, job)) = guard.queue.pop_front() else {
            return;
        };
        if let Some(b) = &mut guard.budget {
            *b -= 1;
        }
        drop(guard);
        let result = execute(job);
        // Stream the completion before recording it, outside the scheduler
        // lock: a slow fsync in the sink must not stall other workers'
        // dispatching, only other sinks.
        if let Some(cb) = sink.lock().expect("sink poisoned").as_mut() {
            cb(idx, &result);
        }
        state.lock().expect("executor state poisoned").results[idx] = Some(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn panicking_job_propagates_instead_of_hanging() {
        // A job that panics on one worker must surface as that panic out of
        // run_jobs once the other workers drain the queue — in any
        // interleaving — rather than the scope join hanging forever.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let propagated = [2, 3].map(|workers| {
            std::panic::catch_unwind(|| {
                let jobs: Vec<Job<u32>> = vec![
                    Job::new(3, || panic!("simulated point failure")),
                    Job::new(2, || 1),
                    Job::new(1, || 2),
                    Job::new(0, || 3),
                ];
                run_jobs(workers, jobs)
            })
            .is_err()
        });
        std::panic::set_hook(prev_hook);
        assert_eq!(propagated, [true, true], "the job panic must propagate");
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
                    let outcome = diva
                        .run_prototype(|ctx| async move { ctx.barrier().await })
                        .expect_completed();
                    outcome.report.total_time
                })
            })
            .collect();
        let out = run_jobs(2, jobs);
        assert!(out.iter().all(|r| r.value > 0));
    }
}
