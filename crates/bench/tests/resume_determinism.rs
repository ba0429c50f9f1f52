//! Resume/shard determinism gate for the streaming sweep engine.
//!
//! Three ways of producing a figure must emit byte-identical rendered
//! tables and JSON (modulo the per-job `host_ms` sidecar field, the only
//! run-dependent quantity):
//!
//! 1. a fresh uninterrupted run;
//! 2. a run killed mid-sweep (via the deterministic `DM_SWEEP_KILL_AFTER`
//!    crash-injection hook) and finished with `--resume`;
//! 3. two `--shard i/2` runs stitched together by `fig merge` and
//!    rendered by a final `--resume` pass that executes nothing.
//!
//! Covers the direct-row Barnes-Hut path (`fig8`) and the delta-assembled
//! fault path (`fig13`, whose deltas are recomputed at assembly from
//! checkpointed pre-delta rows), at smoke scale like the `--jobs` gate.

mod common;

use common::fig;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run `fig <bin> --smoke --jobs 2 --json <json>` with extra args and env;
/// return (status ok, stdout, stderr).
fn run(bin: &str, json: &PathBuf, extra: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = fig(bin);
    cmd.args(["--smoke", "--jobs", "2", "--json"]).arg(json);
    cmd.args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"));
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("figure stdout is UTF-8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Drop every `,"host_ms":<number>` field (same helper as the `--jobs`
/// gate; `host_ms` is serialized last in each record).
fn strip_host_ms(json: &str) -> String {
    let marker = ",\"host_ms\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find(marker) {
        out.push_str(&rest[..i]);
        let tail = &rest[i + marker.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        assert!(end > 0, "host_ms field without a numeric value");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

fn assert_resume_invariant(bin: &str) {
    // 1. The fresh, uninterrupted baseline.
    let fresh_json = tmp(&format!("{bin}_fresh.json"));
    let (ok, fresh_table, err) = run(bin, &fresh_json, &[], &[]);
    assert!(ok, "{bin} fresh run failed:\n{err}");
    assert!(!fresh_table.is_empty(), "{bin} fresh run rendered nothing");
    let fresh = strip_host_ms(&read(&fresh_json));

    // 2. Kill after 3 completed jobs, then resume. The cut-short run must
    //    exit cleanly, render nothing, and leave a resumable checkpoint.
    let cut_json = tmp(&format!("{bin}_cut.json"));
    let (ok, cut_table, err) = run(bin, &cut_json, &[], &[("DM_SWEEP_KILL_AFTER", "3")]);
    assert!(ok, "{bin} cut-short run failed:\n{err}");
    assert!(
        cut_table.is_empty(),
        "{bin} cut-short run rendered a table:\n{cut_table}"
    );
    assert!(
        err.contains("checkpoint:"),
        "{bin} cut-short run printed no checkpoint note:\n{err}"
    );
    let (ok, resumed_table, err) = run(bin, &cut_json, &["--resume"], &[]);
    assert!(ok, "{bin} resume run failed:\n{err}");
    assert!(
        err.contains("resumed 3/"),
        "{bin} resume did not restore the 3 checkpointed jobs:\n{err}"
    );
    assert_eq!(
        fresh_table, resumed_table,
        "{bin}: resumed table differs from the fresh run"
    );
    assert_eq!(
        fresh,
        strip_host_ms(&read(&cut_json)),
        "{bin}: resumed JSON differs from the fresh run beyond host_ms"
    );

    // 3. Two shards, merged, rendered by a final --resume pass.
    let shard_json = tmp(&format!("{bin}_shard.json"));
    for shard in ["0/2", "1/2"] {
        let (ok, table, err) = run(bin, &shard_json, &["--shard", shard], &[]);
        assert!(ok, "{bin} shard {shard} failed:\n{err}");
        assert!(
            table.is_empty(),
            "{bin} shard {shard} rendered a table:\n{table}"
        );
    }
    let canonical = format!("{}.partial.jsonl", shard_json.display());
    let merge = fig("merge")
        .arg(&canonical)
        .arg(format!("{}.shard0of2.partial.jsonl", shard_json.display()))
        .arg(format!("{}.shard1of2.partial.jsonl", shard_json.display()))
        .output()
        .expect("running merge");
    assert!(
        merge.status.success(),
        "merge failed:\n{}",
        String::from_utf8_lossy(&merge.stderr)
    );
    let (ok, merged_table, err) = run(bin, &shard_json, &["--resume"], &[]);
    assert!(ok, "{bin} post-merge render failed:\n{err}");
    assert!(
        err.contains("executed 0"),
        "{bin} post-merge render re-executed jobs:\n{err}"
    );
    assert_eq!(
        fresh_table, merged_table,
        "{bin}: shard-merged table differs from the fresh run"
    );
    assert_eq!(
        fresh,
        strip_host_ms(&read(&shard_json)),
        "{bin}: shard-merged JSON differs from the fresh run beyond host_ms"
    );
}

#[test]
fn fig8_survives_kill_resume_and_shard_merge() {
    assert_resume_invariant("fig8");
}

#[test]
fn fig13_delta_assembly_survives_kill_resume_and_shard_merge() {
    assert_resume_invariant("fig13");
}

#[test]
fn fig14_serving_sweep_survives_kill_resume_and_shard_merge() {
    // The serving sweep's hotspot phases are keyed on op index (never
    // virtual time) and its churn gaps are seeded per client, so a killed,
    // resumed or sharded run must reproduce the fresh tables byte for byte.
    assert_resume_invariant("fig14");
}

#[test]
fn resuming_a_mismatched_checkpoint_is_refused() {
    // A fig8 smoke checkpoint must not resume a fig8 default-tier run: the
    // header pins tier, seed and job count.
    let json = tmp("mismatch.json");
    let bin = "fig8";
    let (ok, _, err) = run(bin, &json, &[], &[("DM_SWEEP_KILL_AFTER", "2")]);
    assert!(ok, "cut-short smoke run failed:\n{err}");
    let out = fig(bin)
        .args(["--jobs", "2", "--resume", "--json"]) // default tier
        .arg(&json)
        .output()
        .expect("running fig8");
    assert!(
        !out.status.success(),
        "default-tier resume from a smoke checkpoint was accepted"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("refusing to resume"),
        "unexpected refusal message:\n{err}"
    );
}

#[test]
fn a_record_corrupted_mid_sidecar_is_refused_not_skipped() {
    // Only a torn *final* record is the crash's own doing; damage anywhere
    // else means the checkpoint cannot be trusted.
    let json = tmp("midcorrupt.json");
    let bin = "fig8";
    let (ok, _, err) = run(bin, &json, &[], &[("DM_SWEEP_KILL_AFTER", "3")]);
    assert!(ok, "cut-short smoke run failed:\n{err}");
    let sidecar = PathBuf::from(format!("{}.partial.jsonl", json.display()));
    let text = read(&sidecar);
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "need a header and three records:\n{text}");
    // Line 0 is the header, so this is record 2 of at least three.
    lines[2] = &lines[2][..lines[2].len() / 2];
    std::fs::write(&sidecar, lines.join("\n") + "\n").expect("rewriting the sidecar");

    let out = fig(bin)
        .args(["--smoke", "--jobs", "2", "--resume", "--json"])
        .arg(&json)
        .output()
        .expect("running fig8");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("record 2"), "unexpected message:\n{err}");
    assert!(out.stdout.is_empty(), "a table was rendered");
}

#[test]
fn a_torn_tail_is_truncated_before_resume_appends() {
    // Crash → resume → crash → resume. Appending after the first crash's
    // torn fragment would glue the next record onto it; the second crash
    // then leaves that glued line mid-file, and the last resume refused
    // the checkpoint (`record 4: expected ',' or '}' at byte 25`).
    let json = tmp("torntail.json");
    let sidecar = PathBuf::from(format!("{}.partial.jsonl", json.display()));
    let fig8 = |resume: bool, kill_after: Option<&str>| {
        let mut cmd = fig("fig8");
        cmd.args(["--smoke", "--jobs", "1", "--json"]).arg(&json);
        if resume {
            cmd.arg("--resume");
        }
        if let Some(k) = kill_after {
            cmd.env("DM_SWEEP_KILL_AFTER", k);
        }
        let out = cmd.output().expect("running fig8");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        (
            out.status.code(),
            String::from_utf8(out.stdout).unwrap(),
            err,
        )
    };

    let (code, _, err) = fig8(false, Some("3"));
    assert_eq!(code, Some(0), "{err}");
    // The crash landed mid-record: the first 25 bytes of the last record
    // line, without its newline.
    let text = read(&sidecar);
    let last = text.lines().last().expect("a record line");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&sidecar)
        .expect("opening the sidecar");
    std::io::Write::write_all(&mut f, &last.as_bytes()[..25]).expect("tearing the tail");
    drop(f);

    // A kill budget of 2 puts the first appended record mid-file.
    let (code, table, err) = fig8(true, Some("2"));
    assert_eq!(code, Some(0), "{err}");
    assert!(table.is_empty(), "a cut-short resume rendered:\n{table}");
    assert!(err.contains("5/10 jobs complete"), "{err}");

    let (code, table, err) = fig8(true, None);
    assert_eq!(code, Some(0), "{err}");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/fig8.txt");
    assert_eq!(table, read(&PathBuf::from(golden)));
}

#[test]
fn merging_shards_of_different_seeds_is_refused() {
    let json = tmp("seedmix.json");
    let bin = "fig8";
    for (shard, seed) in [("0/2", "1"), ("1/2", "2")] {
        let (ok, _, err) = run(bin, &json, &["--shard", shard, "--seed", seed], &[]);
        assert!(ok, "shard {shard} failed:\n{err}");
    }
    let merged = tmp("seedmix.merged.jsonl");
    let _ = std::fs::remove_file(&merged);
    let out = fig("merge")
        .arg(&merged)
        .arg(format!("{}.shard0of2.partial.jsonl", json.display()))
        .arg(format!("{}.shard1of2.partial.jsonl", json.display()))
        .output()
        .expect("running merge");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("does not match the first shard's"),
        "unexpected message:\n{err}"
    );
    assert!(!merged.exists(), "merge wrote {merged:?} anyway");
}

#[test]
fn a_failed_checkpoint_append_is_an_operator_error_and_leaves_a_resumable_sidecar() {
    // A one-block file-size limit with SIGXFSZ ignored: the sidecar's header
    // fits, the first records do not, and `append` meets EFBIG — the same
    // path a full disk takes.
    let json = tmp("appendfail.json");
    let script = format!(
        "trap '' XFSZ; ulimit -f 1; exec '{}' fig8 --smoke --jobs 1 --json '{}'",
        env!("CARGO_BIN_EXE_fig"),
        json.display()
    );
    let out = match std::process::Command::new("sh")
        .args(["-c", &script])
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("skipping: cannot run sh ({e})");
            return;
        }
    };
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "a table was rendered");
    let sidecar = format!("{}.partial.jsonl", json.display());
    assert!(
        err.contains(&format!("error: writing sweep checkpoint {sidecar}: ")),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");

    // What the limit left behind is a torn-tail checkpoint: without the
    // limit, `--resume` finishes the sweep and renders the golden table.
    let (ok, table, err) = run("fig8", &json, &["--resume"], &[]);
    assert!(ok, "resume after the failed append failed:\n{err}");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/fig8.txt");
    assert_eq!(table, read(&PathBuf::from(golden)));
}
