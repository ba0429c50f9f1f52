//! `fig trajectory diff`: compare two `BENCH_<fig>.json` perf-trajectory
//! snapshots.

use crate::figures::usage_error;
use crate::json::{self, JsonValue};
use crate::stream::operator_error;
use crate::table::{print_stdout, Table};

/// Flatten a snapshot into `(path, leaf)` pairs, e.g.
/// `payload.rows[3].congestion_msgs`. The `host_ms` subtrees are collected
/// under their own flag so the caller can split exact from informational.
fn flatten(v: &JsonValue, path: String, out: &mut Vec<(String, String, bool)>, in_host_ms: bool) {
    match v {
        JsonValue::Obj(fields) => {
            for (key, value) in fields {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(value, sub, out, in_host_ms || key == "host_ms");
            }
        }
        JsonValue::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, format!("{path}[{i}]"), out, in_host_ms);
            }
        }
        JsonValue::Null => out.push((path, "null".to_string(), in_host_ms)),
        JsonValue::Bool(b) => out.push((path, b.to_string(), in_host_ms)),
        JsonValue::Num(raw) => out.push((path, raw.clone(), in_host_ms)),
        JsonValue::Str(s) => out.push((path, s.clone(), in_host_ms)),
    }
}

/// A snapshot's leaves; an error names the file and the byte.
fn load(path: &str) -> Result<Vec<(String, String, bool)>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| format!("{path}: invalid UTF-8 at byte {}", e.valid_up_to()))?;
    let v = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    flatten(&v, String::new(), &mut out, false);
    Ok(out)
}

/// Relative drift of two numeric leaves as a display string, when both
/// parse as finite numbers.
fn drift(old: &str, new: &str) -> String {
    match (old.parse::<f64>(), new.parse::<f64>()) {
        (Ok(a), Ok(b)) if a.is_finite() && b.is_finite() && a != 0.0 => {
            format!("{:+.2}%", (b - a) / a * 100.0)
        }
        _ => "—".to_string(),
    }
}

/// `fig trajectory diff [--strict] OLD_SNAPSHOT NEW_SNAPSHOT` (`args` is
/// what follows `trajectory`).
///
/// Every figure writes a normalized snapshot with `--snapshot FILE` (figure
/// tag, tier, seed, full result payload). CI regenerates the snapshots each
/// run and diffs them against the checked-in previous ones:
///
/// ```text
/// fig trajectory diff BENCH_fig8.json new/BENCH_fig8.json
/// ```
///
/// Simulated quantities are compared **exactly** — any drift is a behaviour
/// change that must be explained by the commit under review. `host_ms`
/// leaves are reported separately and informationally (host wall-clock is
/// run-dependent by design). Exit status is 0 unless `--strict` is given
/// and a simulated quantity changed.
pub fn run(args: &[String]) {
    let strict = args.iter().any(|a| a == "--strict");
    let files: Vec<&String> = args
        .iter()
        .filter(|a| *a != "--strict" && *a != "diff")
        .collect();
    if files.len() != 2 {
        usage_error("trajectory diff needs exactly two snapshot files");
    }
    let (report, changed) = diff(files[0], files[1]).unwrap_or_else(|e| operator_error(&e));
    print_stdout("the trajectory diff", &report);
    if strict && changed > 0 {
        std::process::exit(1);
    }
}

/// [`run`] without the exit: the report comparing two snapshot files and
/// the number of simulated quantities that changed, or the diagnosis, which
/// names the file and the byte.
pub fn diff(old_path: &str, new_path: &str) -> Result<(String, usize), String> {
    let old = load(old_path)?;
    let new = load(new_path)?;

    let old_map: std::collections::BTreeMap<&str, (&str, bool)> = old
        .iter()
        .map(|(p, v, h)| (p.as_str(), (v.as_str(), *h)))
        .collect();
    let new_map: std::collections::BTreeMap<&str, (&str, bool)> = new
        .iter()
        .map(|(p, v, h)| (p.as_str(), (v.as_str(), *h)))
        .collect();

    let mut sim_changes: Vec<(String, String, String)> = Vec::new();
    let mut host_changes = 0usize;
    let mut added = 0usize;
    let mut removed = 0usize;
    for (path, (old_value, is_host)) in &old_map {
        match new_map.get(path) {
            None => removed += 1,
            Some((new_value, _)) if new_value == old_value => {}
            Some((new_value, _)) => {
                if *is_host {
                    host_changes += 1;
                } else {
                    sim_changes.push((
                        (*path).to_string(),
                        (*old_value).to_string(),
                        (*new_value).to_string(),
                    ));
                }
            }
        }
    }
    for path in new_map.keys() {
        if !old_map.contains_key(path) {
            added += 1;
        }
    }

    if sim_changes.is_empty() {
        let report = format!(
            "trajectory {old_path} → {new_path}: simulated quantities identical \
             ({} leaves; {host_changes} host_ms drifted, {added} added, {removed} removed)",
            old_map.len()
        );
        return Ok((report, 0));
    }
    let mut table = Table::new(&["path", "old", "new", "drift"]);
    for (path, old_value, new_value) in &sim_changes {
        table.row(vec![
            path.clone(),
            old_value.clone(),
            new_value.clone(),
            drift(old_value, new_value),
        ]);
    }
    let report = format!(
        "trajectory {old_path} → {new_path}: {} simulated quantities changed \
         ({host_changes} host_ms drifted, {added} leaves added, {removed} removed)\n{}",
        sim_changes.len(),
        table.render()
    );
    Ok((report, sim_changes.len()))
}
