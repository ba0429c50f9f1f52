//! The resumable, shardable sweep engine: streaming JSONL checkpoints over
//! the parallel executor.
//!
//! Mega sweeps run 40 minutes to hours. Before this module the executor
//! buffered every result in memory and emitted one table at the end — a
//! crash lost the whole run, and one machine was the ceiling. `run_sweep`
//! closes both gaps without touching the determinism contract:
//!
//! * **Streaming** — every completed [`Job`] is appended to an append-only
//!   JSONL *sidecar* (`<json>.partial.jsonl`, one self-describing record per
//!   job, fsync'd per record) the moment it finishes, via the executor's
//!   completion sink. Killing the process loses at most the in-flight jobs.
//! * **Resume** (`--resume`) — on startup the sidecar is read back, records
//!   for already-completed job IDs are restored (tolerating a torn final
//!   line from the crash itself), and only the missing jobs execute. The
//!   reassembled results are in description order, so tables and JSON come
//!   out **byte-identical** to an uninterrupted run (modulo the per-job
//!   `host_ms` wall-clock sidecar field) — gated by the
//!   `resume_determinism` integration test, exactly like the `--jobs`
//!   invariance gate of PR 4.
//! * **Sharding** (`--shard i/n`) — the deterministic description-order job
//!   list is partitioned by `job_id % n == i`; each shard writes its own
//!   sidecar (`<json>.shard<i>of<n>.partial.jsonl`) and exits without
//!   rendering. `fig merge` ([`crate::merge`]) stitches shard sidecars back
//!   into the canonical one; a final `--resume` run (all records present,
//!   zero jobs executed) renders the canonical table and JSON. Shards can
//!   run on different machines — the job list is a pure function of the
//!   figure, tier and seed.
//!
//! The sidecar format is line-oriented so a reader never needs the whole
//! file in memory and a half-written record can only ever be the last line:
//!
//! ```text
//! {"sweep":"","scale":"default","seed":24301,"total_jobs":15,"shard":null}
//! {"job":3,"host_ms":812.4,"value":{...row...}}
//! {"job":0,"host_ms":911.0,"value":{...row...}}
//! ```
//!
//! The header pins what the records mean; resuming with a different tier,
//! seed or sweep shape is refused instead of silently mixing incompatible
//! points.

use crate::executor::{run_jobs_streamed, Job, JobResult};
use crate::json::{self, FromJson, JsonValue, ToJson};
use crate::HarnessOpts;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Environment variable that aborts a sweep after N newly executed jobs
/// (checkpoint records are written and the process exits without rendering,
/// exactly as if it had been killed between two fsyncs). This is the
/// deterministic crash-injection hook of the `resume_determinism` test; it
/// is read per sweep, so a multi-sweep figure (`scale`) applies it to each.
pub(crate) const KILL_AFTER_ENV: &str = "DM_SWEEP_KILL_AFTER";

crate::row! {
    /// The first line of every sidecar: what sweep the records belong to.
    /// Resume refuses a sidecar whose header does not match the current
    /// invocation — a checkpoint from a different tier, seed or sweep shape
    /// must never be silently mixed into a run.
    pub struct SidecarHeader {
        /// Sweep tag within the figure (empty for single-sweep figures;
        /// `scale` distinguishes `matmul`/`bitonic`/`bh`).
        pub sweep: String,
        /// Scale tier name.
        pub scale: String,
        /// Sweep seed.
        pub seed: u64,
        /// Total number of jobs in the full (unsharded) description.
        pub total_jobs: usize,
        /// The shard this sidecar belongs to, `None` for the canonical file.
        pub shard: Option<(usize, usize)>,
    }
}

/// The canonical sidecar path for a figure's `--json` output path and sweep
/// tag: `<json>.partial.jsonl`, with the tag infixed for multi-sweep
/// figures (`<json>.matmul.partial.jsonl`) and the shard infixed for shard
/// runs (`<json>.shard0of2.partial.jsonl`).
pub(crate) fn sidecar_path(json_path: &str, tag: &str, shard: Option<(usize, usize)>) -> PathBuf {
    let mut name = String::from(json_path);
    if !tag.is_empty() {
        name.push('.');
        name.push_str(tag);
    }
    if let Some((i, n)) = shard {
        name.push_str(&format!(".shard{i}of{n}"));
    }
    name.push_str(".partial.jsonl");
    PathBuf::from(name)
}

/// A sidecar file whose `flush` persists what was written (`sync_data`).
struct Synced(File);

impl Write for Synced {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

/// Append-only sidecar writer. Every line is written whole and fsync'd
/// (`sync_data`) before the call returns, so a completed job survives any
/// subsequent crash — the page cache is not trusted with 40 minutes of
/// simulation. Every error it returns names the file.
pub struct SidecarWriter {
    path: PathBuf,
    /// The file; a short-write test substitutes a writer that fails.
    out: Box<dyn Write + Send>,
}

impl SidecarWriter {
    /// Start a fresh sidecar (truncating any stale one) and persist the
    /// header line.
    pub fn create(path: &Path, header: &SidecarHeader) -> io::Result<Self> {
        let file = File::create(path).map_err(named(path))?;
        Self::start(path, Box::new(Synced(file)), header)
    }

    /// A sidecar over `out`, its header line written and persisted.
    pub(crate) fn start(
        path: &Path,
        out: Box<dyn Write + Send>,
        header: &SidecarHeader,
    ) -> io::Result<Self> {
        let mut writer = SidecarWriter {
            path: path.to_path_buf(),
            out,
        };
        writer.write_line(header.to_json())?;
        Ok(writer)
    }

    /// Open an existing sidecar for appending (the resume path). The header
    /// must already have been validated by [`read_sidecar`].
    ///
    /// A record is complete only when its `\n` is on disk, so a torn tail
    /// — the bytes after the last newline, which [`read_sidecar_lines`]
    /// ignores — is truncated (and the truncation fsync'd) first: appending
    /// after it would glue the next record onto the fragment and turn the
    /// crash's harmless tail into corruption mid-file.
    pub(crate) fn append_to(path: &Path) -> io::Result<Self> {
        let open = || {
            let complete = std::fs::read(path)?
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let file = OpenOptions::new().append(true).open(path)?;
            file.set_len(complete as u64)?;
            file.sync_data()?;
            Ok(file)
        };
        let file = open().map_err(named(path))?;
        Ok(SidecarWriter {
            path: path.to_path_buf(),
            out: Box::new(Synced(file)),
        })
    }

    /// Persist one completed job: a self-describing single-line record.
    pub fn append<T: ToJson>(&mut self, job_id: usize, result: &JobResult<T>) -> io::Result<()> {
        let mut line = String::from("{\"job\":");
        job_id.write_json(&mut line);
        line.push_str(",\"host_ms\":");
        result.host_ms.write_json(&mut line);
        line.push_str(",\"value\":");
        result.value.write_json(&mut line);
        line.push('}');
        self.write_line(line)
    }

    /// Write `line` and its newline in one call, then persist them.
    pub(crate) fn write_line(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.flush())
            .map_err(named(&self.path))
    }
}

/// Prefix an I/O error with the file it happened on.
fn named(path: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Read a sidecar: its header, then `(job_id, decode(line, record))` for
/// every record line. A line is complete only when its `\n` is on disk: the
/// bytes after the last newline are the torn write of the crash the sidecar
/// exists to survive and are ignored, even when they happen to parse
/// ([`SidecarWriter::append_to`] truncates exactly them). A complete line
/// that fails to parse is corruption, and an error naming the file and the
/// line.
fn read_records<R>(
    path: &Path,
    mut decode: impl FnMut(&str, &JsonValue) -> Result<R, String>,
) -> Result<(SidecarHeader, Vec<(usize, R)>), String> {
    let file = path.display();
    let bytes = std::fs::read(path).map_err(|e| format!("reading {file}: {e}"))?;
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text = std::str::from_utf8(&bytes[..complete])
        .map_err(|e| format!("{file}: invalid UTF-8 at byte {}", e.valid_up_to()))?;
    let mut lines = text.lines().zip(1..);
    let (header_line, _) = lines
        .next()
        .ok_or_else(|| format!("{file}:1: no complete header line"))?;
    let header = json::parse(header_line)
        .and_then(|v| SidecarHeader::from_json(&v))
        .map_err(|e| format!("{file}:1: header: {e}"))?;
    if !bytes[complete..].trim_ascii().is_empty() {
        // The record was not fully written, so the job simply counts as not
        // completed.
        eprintln!("note: ignoring torn final record in {file}");
    }
    let mut records = Vec::new();
    for (line, n) in lines.filter(|(l, _)| !l.trim().is_empty()) {
        let at = |e: String| format!("{file}:{n}: record {}: {e}", n - 1);
        let v = json::parse(line).map_err(at)?;
        let job: usize = json::field(&v, "job").map_err(at)?;
        if job >= header.total_jobs {
            return Err(at(format!(
                "job {job} is outside the sweep's {} jobs — sidecar does not belong to this sweep",
                header.total_jobs
            )));
        }
        records.push((job, decode(line, &v).map_err(at)?));
    }
    Ok((header, records))
}

/// Read a sidecar without interpreting the row payloads: the header plus
/// `(job_id, raw record line)` pairs (see [`read_records`]).
pub(crate) fn read_sidecar_lines(
    path: &Path,
) -> Result<(SidecarHeader, Vec<(usize, String)>), String> {
    read_records(path, |line, _| Ok(line.to_string()))
}

/// The resume loader: a sidecar's completed jobs as typed results, keyed by
/// job ID. Duplicate records for a job (possible after a crash-during-merge)
/// keep the last occurrence — every record for a job ID holds an identical
/// simulated payload by the determinism contract. An error names the file
/// and the line.
pub fn read_sidecar<T: FromJson>(
    path: &Path,
) -> Result<(SidecarHeader, BTreeMap<usize, JobResult<T>>), String> {
    let (header, records) = read_records(path, |_, v| {
        let host_ms: f64 = json::field(v, "host_ms")?;
        let value = T::from_json(v.get("value").ok_or("missing value")?)?;
        Ok(JobResult { value, host_ms })
    })?;
    Ok((header, records.into_iter().collect()))
}

/// Report an operator mistake (bad flag, mismatched checkpoint, unwritable
/// output) and exit with status 2 — never a panic, never a silent fallback.
pub(crate) fn operator_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Run a described sweep through the checkpointed executor.
///
/// Without `--json` this is exactly [`crate::executor::run_jobs`] (nothing
/// to name a sidecar after — `--resume`/`--shard` are refused). With
/// `--json <out>`:
///
/// 1. the sidecar path is derived from `<out>`, the sweep `tag` and the
///    shard (see [`sidecar_path`]);
/// 2. `--resume` restores completed jobs from the sidecar (validating its
///    header against the current sweep) and appends to it; a fresh run
///    truncates it;
/// 3. the jobs not yet completed — restricted to `job_id % n == i` under
///    `--shard i/n` — execute on the parallel executor, each completion
///    streamed to the sidecar with a per-record fsync;
/// 4. if every job of the full sweep is now accounted for, the results are
///    returned in description order (byte-identical assembly); otherwise
///    (a shard run, or a sweep cut short by [`KILL_AFTER_ENV`]) a progress
///    note goes to stderr and `None` is returned — the caller skips
///    rendering, and a later `--resume` or `fig merge` finishes the job.
pub(crate) fn run_sweep<T>(
    opts: &HarnessOpts,
    tag: &str,
    jobs: Vec<Job<T>>,
) -> Option<Vec<JobResult<T>>>
where
    T: Send + ToJson + FromJson,
{
    let total = jobs.len();
    let Some(json_path) = &opts.json else {
        if opts.shard.is_some() {
            operator_error("--shard requires --json (shard sidecars are named after it)");
        }
        if opts.resume {
            operator_error("--resume requires --json (the checkpoint sidecar is named after it)");
        }
        return Some(crate::executor::run_jobs(opts.jobs(), jobs));
    };
    if let Some((i, n)) = opts.shard {
        if n == 0 || i >= n {
            operator_error(&format!(
                "--shard {i}/{n}: the index must satisfy i < n, n >= 1"
            ));
        }
    }

    let path = sidecar_path(json_path, tag, opts.shard);
    let header = SidecarHeader {
        sweep: tag.to_string(),
        scale: opts.scale.name().to_string(),
        seed: opts.seed,
        total_jobs: total,
        shard: opts.shard,
    };

    // Restore completed jobs when resuming.
    let mut done: BTreeMap<usize, JobResult<T>> = BTreeMap::new();
    let mut writer = if opts.resume && path.exists() {
        match read_sidecar::<T>(&path) {
            Ok((old, records)) => {
                if old != header {
                    operator_error(&format!(
                        "refusing to resume from {path:?}: its header {} does not match this \
                         invocation {} — different tier, seed, shard or sweep shape",
                        old.to_json(),
                        header.to_json()
                    ));
                }
                done = records;
                SidecarWriter::append_to(&path)
                    .unwrap_or_else(|e| operator_error(&format!("opening {e}")))
            }
            Err(e) => operator_error(&e),
        }
    } else {
        SidecarWriter::create(&path, &header)
            .unwrap_or_else(|e| operator_error(&format!("creating {e}")))
    };
    let restored = done.len();

    // The jobs still missing, restricted to this shard's residue class.
    let (ids, to_run): (Vec<usize>, Vec<Job<T>>) = jobs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !done.contains_key(i))
        .filter(|(i, _)| opts.shard.is_none_or(|(s, n)| i % n == s))
        .unzip();

    let kill_after = std::env::var(KILL_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    let sink_ids = ids.clone();
    let results = run_jobs_streamed(
        opts.jobs(),
        to_run,
        // A failed append (disk full, file-size limit) exits here, on the
        // worker that met it: a panic would poison the sink lock under the
        // others. The records already fsync'd are a valid checkpoint.
        Some(Box::new(move |k: usize, r: &JobResult<T>| {
            writer
                .append(sink_ids[k], r)
                .unwrap_or_else(|e| operator_error(&format!("writing sweep checkpoint {e}")));
        })),
        kill_after,
    );
    for (k, result) in results.into_iter().enumerate() {
        if let Some(r) = result {
            done.insert(ids[k], r);
        }
    }

    if done.len() == total {
        if restored > 0 {
            eprintln!(
                "resumed {restored}/{total} jobs from {}; executed {}",
                path.display(),
                total - restored
            );
        }
        // BTreeMap iteration is key order == description order.
        Some(done.into_values().collect())
    } else {
        eprintln!(
            "checkpoint: {}/{} jobs complete in {} — rerun with --resume (or merge shards) \
             to finish and render",
            done.len(),
            total,
            path.display()
        );
        None
    }
}

/// A result row of a figure sweep: checkpointable, restorable, and stamped
/// with its job's host wall-clock. Declared with [`crate::row!`].
pub(crate) trait Row: ToJson + FromJson + Send {
    /// Record the host milliseconds the row's job took on its worker.
    fn set_host_ms(&mut self, ms: f64);
}

/// Run a described sweep of row-producing jobs through [`run_sweep`] and
/// return the rows in description order, each carrying its job's host time.
/// `None` means the sweep is incomplete (a shard run or a cut-short run
/// whose completed jobs are checkpointed in the sidecar): the caller must
/// not render.
pub(crate) fn run_rows<R: Row>(opts: &HarnessOpts, tag: &str, jobs: Vec<Job<R>>) -> Option<Vec<R>> {
    let rows = run_sweep(opts, tag, jobs)?.into_iter().map(|r| {
        let mut row = r.value;
        row.set_host_ms(r.host_ms);
        row
    });
    Some(rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Job;

    fn opts_with_json(path: &Path) -> HarnessOpts {
        HarnessOpts {
            json: Some(path.to_string_lossy().into_owned()),
            jobs: Some(1),
            scale: crate::Scale::Smoke,
            ..HarnessOpts::default()
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dm_bench_stream_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn jobs(n: usize) -> Vec<Job<u64>> {
        (0..n).map(|i| Job::new(1, move || i as u64 * 10)).collect()
    }

    #[test]
    fn fresh_run_writes_a_complete_sidecar_and_returns_ordered_results() {
        let json = tmp("fresh.json");
        let opts = opts_with_json(&json);
        let out = run_sweep(&opts, "", jobs(5)).expect("complete run");
        assert_eq!(
            out.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![0, 10, 20, 30, 40]
        );
        let side = sidecar_path(opts.json.as_ref().unwrap(), "", None);
        let (header, records) = read_sidecar::<u64>(&side).unwrap();
        assert_eq!(header.total_jobs, 5);
        assert_eq!(header.shard, None);
        assert_eq!(records.len(), 5);
        assert_eq!(records[&3].value, 30);
    }

    #[test]
    fn resume_skips_restored_jobs_and_completes() {
        let json = tmp("resume.json");
        let mut opts = opts_with_json(&json);
        // Simulate a crash: only 2 of 6 jobs checkpointed.
        let side = sidecar_path(opts.json.as_ref().unwrap(), "", None);
        let header = SidecarHeader {
            sweep: "".into(),
            scale: "smoke".into(),
            seed: opts.seed,
            total_jobs: 6,
            shard: None,
        };
        let mut w = SidecarWriter::create(&side, &header).unwrap();
        w.append(
            1,
            &JobResult {
                value: 10u64,
                host_ms: 1.0,
            },
        )
        .unwrap();
        w.append(
            4,
            &JobResult {
                value: 40u64,
                host_ms: 1.0,
            },
        )
        .unwrap();
        drop(w);
        opts.resume = true;
        // Jobs that would panic if re-executed prove the restore is real.
        let jobs: Vec<Job<u64>> = (0..6)
            .map(|i| {
                Job::new(1, move || {
                    assert!(i != 1 && i != 4, "restored job {i} re-executed");
                    i as u64 * 10
                })
            })
            .collect();
        let out = run_sweep(&opts, "", jobs).expect("complete after resume");
        assert_eq!(
            out.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![0, 10, 20, 30, 40, 50]
        );
        // The sidecar now holds all six records.
        let (_, records) = read_sidecar::<u64>(&side).unwrap();
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn torn_final_record_is_dropped_not_fatal() {
        let json = tmp("torn.json");
        let opts = opts_with_json(&json);
        let side = sidecar_path(opts.json.as_ref().unwrap(), "", None);
        let header = SidecarHeader {
            sweep: "".into(),
            scale: "smoke".into(),
            seed: opts.seed,
            total_jobs: 3,
            shard: None,
        };
        let mut w = SidecarWriter::create(&side, &header).unwrap();
        w.append(
            0,
            &JobResult {
                value: 0u64,
                host_ms: 1.0,
            },
        )
        .unwrap();
        drop(w);
        // A torn write: the crash landed mid-record.
        let mut f = OpenOptions::new().append(true).open(&side).unwrap();
        f.write_all(b"{\"job\":2,\"host_ms\":1.0,\"val").unwrap();
        drop(f);
        let (_, records) = read_sidecar::<u64>(&side).unwrap();
        assert_eq!(records.len(), 1, "torn record must not count as completed");
        // But corruption *before* the tail is a hard error.
        let text = std::fs::read_to_string(&side).unwrap();
        let corrupted = text.replacen("{\"job\":0", "{\"jo", 1);
        std::fs::write(&side, corrupted).unwrap();
        assert!(read_sidecar::<u64>(&side).is_err());
    }

    #[test]
    fn shard_runs_cover_exactly_their_residue_class() {
        let json = tmp("shard.json");
        let mut opts = opts_with_json(&json);
        opts.shard = Some((1, 2));
        assert!(
            run_sweep(&opts, "", jobs(5)).is_none(),
            "a shard run must not render"
        );
        let side = sidecar_path(opts.json.as_ref().unwrap(), "", Some((1, 2)));
        let (header, records) = read_sidecar::<u64>(&side).unwrap();
        assert_eq!(header.shard, Some((1, 2)));
        assert_eq!(records.keys().copied().collect::<Vec<_>>(), vec![1, 3]);
        // The complementary shard plus this one covers everything; after a
        // merge (simulated by writing the canonical sidecar) a resume run
        // executes nothing and renders.
        opts.shard = Some((0, 2));
        assert!(run_sweep(&opts, "", jobs(5)).is_none());
        let side0 = sidecar_path(opts.json.as_ref().unwrap(), "", Some((0, 2)));
        let (_, r0) = read_sidecar::<u64>(&side0).unwrap();
        assert_eq!(r0.keys().copied().collect::<Vec<_>>(), vec![0, 2, 4]);
    }

    #[test]
    fn sidecar_paths_encode_tag_and_shard() {
        assert_eq!(
            sidecar_path("out.json", "", None),
            PathBuf::from("out.json.partial.jsonl")
        );
        assert_eq!(
            sidecar_path("out.json", "matmul", None),
            PathBuf::from("out.json.matmul.partial.jsonl")
        );
        assert_eq!(
            sidecar_path("out.json", "", Some((0, 2))),
            PathBuf::from("out.json.shard0of2.partial.jsonl")
        );
        assert_eq!(
            sidecar_path("out.json", "bh", Some((2, 3))),
            PathBuf::from("out.json.bh.shard2of3.partial.jsonl")
        );
    }

    #[test]
    fn headers_round_trip_with_and_without_shard() {
        for shard in [None, Some((3, 8))] {
            let h = SidecarHeader {
                sweep: "bh".into(),
                scale: "mega".into(),
                seed: 42,
                total_jobs: 100,
                shard,
            };
            let back = SidecarHeader::from_json(&json::parse(&h.to_json()).unwrap()).unwrap();
            assert_eq!(back, h);
        }
    }
}
