//! Executor determinism gate: a sweep must produce byte-identical rendered
//! tables and JSON rows for `--jobs 1` (serial, on the calling thread) and
//! `--jobs 4` (parallel executor) — the only admissible difference is the
//! per-job `host_ms` field of the JSON sidecar, which measures host
//! wall-clock and is excluded from all goldens.
//!
//! Covers both sweep shapes: the ratio-assembled matmul path (`fig3`, whose
//! rows are computed *after* the executor returns, from the baseline of each
//! point group) and the direct-row Barnes-Hut path (`fig8`, five strategies
//! per point — the sweep the issue's ÷N wall-clock target is about).

mod common;

use common::fig;
use std::path::PathBuf;

/// Run figure `bin` at smoke scale with the given jobs count; return
/// (stdout, JSON).
fn run_smoke(bin: &str, jobs: &str) -> (String, String) {
    let json_path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{bin}_jobs{jobs}.json"));
    let out = fig(bin)
        .args(["--smoke", "--jobs", jobs, "--json"])
        .arg(&json_path)
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} --smoke --jobs {jobs} failed with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("figure output is UTF-8");
    let json = std::fs::read_to_string(&json_path).expect("JSON sidecar written");
    (stdout, json)
}

/// Drop every `,"host_ms":<number>` field — the only run-dependent quantity
/// in the sidecar. `host_ms` is serialized last in each row, so the field is
/// always comma-prefixed.
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

fn assert_jobs_invariant(bin: &str) {
    let (table_serial, json_serial) = run_smoke(bin, "1");
    let (table_parallel, json_parallel) = run_smoke(bin, "4");
    assert_eq!(
        table_serial, table_parallel,
        "{bin}: rendered table differs between --jobs 1 and --jobs 4"
    );
    assert_ne!(
        json_serial, "",
        "{bin}: empty JSON sidecar — the sweep wrote nothing"
    );
    assert!(
        json_serial.contains("\"host_ms\":"),
        "{bin}: JSON sidecar carries no per-job host_ms fields"
    );
    assert_eq!(
        strip_host_ms(&json_serial),
        strip_host_ms(&json_parallel),
        "{bin}: JSON rows differ between --jobs 1 and --jobs 4 beyond host_ms"
    );
}

#[test]
fn fig8_rows_are_jobs_invariant() {
    assert_jobs_invariant("fig8");
}

#[test]
fn fig3_ratio_assembly_is_jobs_invariant() {
    assert_jobs_invariant("fig3");
}

#[test]
fn fig12_cross_topology_sweep_is_jobs_invariant() {
    // The new sweep mixes two workloads and four topologies per strategy —
    // its description-order guarantee must hold like the mesh figures'.
    assert_jobs_invariant("fig12");
}

#[test]
fn fig13_delta_assembly_is_jobs_invariant() {
    // The degradation sweep assembles per-group deltas after the executor
    // returns (like fig3's ratios) and renders partitioned rows from
    // partial reports — both must be independent of worker interleaving.
    assert_jobs_invariant("fig13");
}

#[test]
fn fig14_serving_sweep_is_jobs_invariant() {
    // The serving sweep's rows carry the new ServingReport tallies and the
    // hotspot/churn machinery — their description-order assembly must be
    // independent of executor interleaving like every other figure's.
    assert_jobs_invariant("fig14");
}

#[test]
fn strip_host_ms_removes_only_the_field() {
    let row = r#"[{"a":1,"host_ms":12.5},{"a":2,"host_ms":3e-2}]"#;
    assert_eq!(strip_host_ms(row), r#"[{"a":1},{"a":2}]"#);
    // Idempotent on already-clean input.
    assert_eq!(strip_host_ms(r#"{"a":1}"#), r#"{"a":1}"#);
}
