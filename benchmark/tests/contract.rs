//! The benchmark's contract: every workload runs through both modes at a
//! tiny size, the printed result and `BENCHMARK.json` parse and agree, and a
//! failed check fails every operation.

use dm_bench::json::{self, JsonValue};
use dm_hostbench::workload::{Spec, WORKLOADS};
use dm_hostbench::{e2e, out_dir, traced, MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const SEED: u64 = 7;

fn tiny(name: &str) -> Spec {
    Spec::tiny(name).expect("a listed workload has a tiny size")
}

/// A directory of this test's own inside the ignored `out/`: tests run on
/// parallel threads and must not share files.
fn scratch(test: &str) -> PathBuf {
    out_dir().join(format!("test-{test}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    match v.get(key) {
        Some(JsonValue::Str(s)) => s,
        other => panic!("field {key:?}: expected a string, got {other:?}"),
    }
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The last line of a run's output parses, has exactly the contract's keys,
/// and lists exactly the metrics of `defs` with their units.
fn assert_result_line(outcome: &Outcome, defs: &[MetricDef]) {
    let rendered = outcome.render("w", SEED);
    let last = rendered.lines().last().expect("output has a last line");
    let doc = json::parse(last).expect("the result line is JSON");
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(json::field::<u64>(&doc, "failed"), Ok(0));
    assert!(json::field::<u64>(&doc, "attempted").expect("attempted") >= 1);
    let metrics = doc.get("metrics").expect("metrics");
    assert_eq!(
        keys(metrics),
        defs.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    for (name, unit) in defs {
        let m = metrics.get(name).expect("metric present");
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(str_field(m, "unit"), *unit);
        let value: f64 = json::field(m, "value").expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        // The human-readable part names every metric with its unit too.
        assert!(
            rendered
                .lines()
                .any(|l| l.starts_with(name) && l.ends_with(unit)),
            "{name} is not printed"
        );
    }
}

#[test]
fn every_workload_runs_end_to_end_at_tiny_size() {
    for name in WORKLOADS {
        let outcome = e2e::run(&tiny(name), SEED, 0.0);
        assert_eq!(outcome.failure, None, "{name}");
        assert!(outcome.reps >= e2e::MIN_REPS);
        assert_result_line(&outcome, &END_TO_END);
        // End-to-end metrics are never zero.
        for ((metric, _), value) in END_TO_END.iter().zip(&outcome.values) {
            assert!(*value > 0.0, "{name}: {metric} = {value}");
        }
    }
}

#[test]
fn every_workload_runs_traced_at_tiny_size() {
    for name in WORKLOADS {
        let dir = scratch("traced");
        let outcome = traced::run(&tiny(name), SEED, 0.1, &dir);
        assert_eq!(outcome.failure, None, "{name}");
        assert_result_line(&outcome, &PER_LAYER);

        let text =
            std::fs::read_to_string(traced::trace_path(&dir, name)).expect("span file written");
        let doc = json::parse(&text).expect("span file is JSON");
        assert_eq!(str_field(&doc, "workload"), name);
        let spans = doc.get("spans").and_then(|s| s.as_arr()).expect("spans");
        let names: Vec<&str> = spans.iter().map(|s| str_field(s, "name")).collect();
        for want in [
            "rep[warmup]",
            "setup",
            "apps.run_driven",
            "check",
            "rep[0]",
            "rep[counting]",
            "layer.mesh.route",
            "layer.diva.policy",
            "layer.bench.executor_job",
        ] {
            assert!(names.contains(&want), "{name}: no span {want:?}");
        }
        // `apps.run_driven` runs inside a rep.
        let child = spans
            .iter()
            .find(|s| str_field(s, "name") == "apps.run_driven")
            .expect("found above");
        assert_eq!(json::field::<usize>(child, "parent"), Ok(0));
    }
}

#[test]
fn exact_counts_repeat_between_traced_runs() {
    let spec = tiny("kv_zipf_write");
    let dir = scratch("exact-counts");
    let a = traced::run(&spec, SEED, 0.0, &dir);
    let b = traced::run(&spec, SEED, 0.0, &dir);
    for metric in [
        "engine.msgs",
        "engine.link_crossings",
        "apps.ops",
        "diva.policy_msgs_per_access",
        "diva.vars_registered",
    ] {
        assert_eq!(a.value(metric), b.value(metric), "{metric}");
        assert!(a.value(metric).expect("listed metric") > 0.0, "{metric}");
    }
}

#[test]
fn a_failed_check_fails_every_operation() {
    // Two different seeds give two different runs: the per-rep gate must
    // tell them apart.
    let spec = tiny("uniform_64");
    let one = spec.setup(1).run();
    let other = spec.setup(2).run();
    assert!(one.check_same_as(&one).is_ok());
    let why = other.check_same_as(&one).expect_err("different runs");

    let mut outcome = e2e::run(&spec, 1, 0.0);
    outcome.failure = Some(why);
    assert!(!outcome.correct());
    let doc = json::parse(&outcome.json_line()).expect("the result line is JSON");
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
    assert_eq!(
        json::field::<u64>(&doc, "failed"),
        json::field::<u64>(&doc, "attempted")
    );
    assert!(outcome.render("uniform_64", 1).contains("checks: FAILED"));
}

#[test]
fn benchmark_json_agrees_with_the_program() {
    let text = include_str!("../../BENCHMARK.json");
    let doc = json::parse(text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        json::field::<f64>(&doc, "run_seconds"),
        Ok(dm_hostbench::DEFAULT_SECONDS)
    );

    let listed = |key: &str| -> Vec<&JsonValue> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .collect()
    };
    let workloads = listed("workloads");
    assert_eq!(
        workloads
            .iter()
            .map(|w| str_field(w, "name"))
            .collect::<Vec<_>>(),
        WORKLOADS
    );
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(Spec::full(str_field(w, "name")).is_some());
    }

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let metrics = listed(key);
        assert_eq!(metrics.len(), defs.len(), "{key}");
        for (m, (name, unit)) in metrics.iter().zip(defs) {
            assert_eq!(str_field(m, "name"), *name);
            assert_eq!(str_field(m, "unit"), *unit, "{name}");
            assert!(well_formed(name), "{name}");
            assert!(
                ["lower", "higher"].contains(&str_field(m, "better")),
                "{name}"
            );
            if key == "end_to_end" {
                assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
                let bound: f64 = json::field(m, "bound").expect("bound");
                assert!((0.0..=0.25).contains(&bound), "{name}: bound {bound}");
            } else {
                assert_eq!(keys(m), ["name", "unit", "better"]);
            }
        }
    }
    let setup = listed("end_to_end")
        .into_iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(str_field(setup, "unit"), "s");
    assert_eq!(str_field(setup, "better"), "lower");

    // Names are used once across workloads and metrics.
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}
