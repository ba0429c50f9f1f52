//! Short writes: a writer that fails after `k` bytes, driven over every `k`
//! through a sidecar record append, a table print and `fig merge`'s output.
//! Each ends in an error that names the file — never a panic — and a cut
//! checkpoint still loads: the records whose newline made it, or an error
//! when its header did not.

use crate::executor::JobResult;
use crate::merge::write_records;
use crate::stream::{read_sidecar, SidecarHeader, SidecarWriter};
use crate::table::{write_stdout, Table};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Passes `left` more bytes on to `inner`, then fails like a full disk.
struct FailAfter<W> {
    inner: W,
    left: usize,
}

impl<W: Write> Write for FailAfter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("no space left (short write)"));
        }
        let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dm_bench_short_writes");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn header(total_jobs: usize) -> SidecarHeader {
    SidecarHeader {
        sweep: String::new(),
        scale: "smoke".into(),
        seed: 1,
        total_jobs,
        shard: None,
    }
}

/// A sidecar at `path` whose bytes go through a [`FailAfter`] of `k`.
fn failing_sidecar(path: &Path, k: usize, total_jobs: usize) -> io::Result<SidecarWriter> {
    let file = std::fs::File::create(path).unwrap();
    let out = Box::new(FailAfter {
        inner: file,
        left: k,
    });
    SidecarWriter::start(path, out, &header(total_jobs))
}

/// Check what a checkpoint cut after `k` of its `full` bytes holds: the
/// records of `want` whose line fit, or no header.
fn check_cut(path: &Path, k: usize, full: &[u8], want: &[u64]) {
    let lines = full[..k].iter().filter(|&&b| b == b'\n').count();
    match read_sidecar::<u64>(path) {
        Ok((_, done)) => {
            let got: Vec<u64> = done.values().map(|r| r.value).collect();
            assert_eq!(got, want[..lines - 1], "cut at {k}");
        }
        Err(e) => {
            assert_eq!(lines, 0, "cut at {k}: {e}");
            assert!(e.contains(&path.display().to_string()), "cut at {k}: {e}");
        }
    }
}

#[test]
fn a_short_sidecar_append_names_the_file_and_leaves_a_resumable_checkpoint() {
    let path = tmp("append.partial.jsonl");
    let values = [10u64, 20];
    let append = |w: &mut SidecarWriter| {
        values.iter().enumerate().try_for_each(|(job, &value)| {
            w.append(
                job,
                &JobResult {
                    value,
                    host_ms: 1.5,
                },
            )
        })
    };
    let mut w = SidecarWriter::create(&path, &header(2)).unwrap();
    append(&mut w).unwrap();
    let full = std::fs::read(&path).unwrap();
    for k in 0..full.len() {
        let err = failing_sidecar(&path, k, 2)
            .and_then(|mut w| append(&mut w))
            .expect_err("a short write must fail");
        assert!(
            err.to_string().starts_with(&path.display().to_string()),
            "{err}"
        );
        check_cut(&path, k, &full, &values);
    }
}

#[test]
fn a_short_merge_output_names_the_file_and_leaves_a_resumable_checkpoint() {
    let path = tmp("merged.partial.jsonl");
    let values = [7u64, 8, 9];
    let records: BTreeMap<usize, String> = values
        .iter()
        .enumerate()
        .map(|(job, v)| {
            (
                job,
                format!("{{\"job\":{job},\"host_ms\":1,\"value\":{v}}}"),
            )
        })
        .collect();
    let out = SidecarWriter::create(&path, &header(3)).unwrap();
    write_records(out, records.clone()).unwrap();
    let full = std::fs::read(&path).unwrap();
    for k in 0..full.len() {
        let err = failing_sidecar(&path, k, 3)
            .and_then(|out| write_records(out, records.clone()))
            .expect_err("a short write must fail");
        assert!(
            err.to_string().starts_with(&path.display().to_string()),
            "{err}"
        );
        check_cut(&path, k, &full, &values);
    }
}

#[test]
fn a_short_table_print_names_stdout() {
    let mut table = Table::new(&["strategy", "congestion"]);
    table.row(vec!["fixed home".into(), "1509".into()]);
    let text = format!("Figure 8\n{}", table.render());
    for k in 0..=text.len() {
        let mut out = FailAfter {
            inner: Vec::new(),
            left: k,
        };
        let err = write_stdout(&mut out, "the table", &text).expect_err("a short write must fail");
        assert!(err.starts_with("writing the table to stdout: "), "{err}");
    }
}
