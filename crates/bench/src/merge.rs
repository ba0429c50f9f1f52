//! `fig merge`: stitch shard sidecars back into the canonical checkpoint.

use crate::figures::usage_error;
use crate::json::ToJson;
use crate::stream::{operator_error, read_sidecar_lines, SidecarHeader};
use std::collections::BTreeMap;
use std::path::Path;

/// `fig merge OUT_SIDECAR SHARD_SIDECAR...` (`args` is what follows
/// `merge`).
///
/// A sharded sweep (`fig fig13 --mega --json out.json --shard 0/2` on one
/// machine, `--shard 1/2` on another) leaves one sidecar per shard. This
/// merges them into the canonical `<out>.partial.jsonl`, after which the
/// figure rerun with `--resume --json out.json` finds every job completed,
/// executes nothing, and renders the table and JSON byte-identically to a
/// single-machine run:
///
/// ```text
/// fig merge out.json.partial.jsonl out.json.shard0of2.partial.jsonl \
///                                  out.json.shard1of2.partial.jsonl
/// fig fig13 --mega --resume --json out.json
/// ```
///
/// Shard headers must agree on sweep, tier, seed and total job count
/// (differing only in their shard stamp); the merged file carries the
/// canonical (shard-free) header. Jobs are deduplicated by ID and written
/// in ID order — overlapping shards are fine because every record for a
/// job ID holds the identical simulated payload. Merging an *incomplete*
/// set of shards is allowed: the output is a valid partial checkpoint that
/// `--resume` finishes.
pub fn run(args: &[String]) {
    if args.len() < 2 {
        usage_error("merge needs an output sidecar and at least one shard sidecar");
    }
    let (out_path, shard_paths) = (Path::new(&args[0]), &args[1..]);
    let mut canonical: Option<SidecarHeader> = None;
    let mut records: BTreeMap<usize, String> = BTreeMap::new();
    for shard_path in shard_paths {
        let (header, lines) =
            read_sidecar_lines(Path::new(shard_path)).unwrap_or_else(|e| operator_error(&e));
        let stripped = SidecarHeader {
            shard: None,
            ..header.clone()
        };
        match &canonical {
            None => canonical = Some(stripped),
            Some(expect) if *expect == stripped => {}
            Some(expect) => operator_error(&format!(
                "{shard_path}: header {} does not match the first shard's {} — \
                 shards of different sweeps cannot be merged",
                stripped.to_json(),
                expect.to_json()
            )),
        }
        for (job, line) in lines {
            records.entry(job).or_insert(line);
        }
    }
    let header = canonical.expect("at least one shard sidecar was read");
    let mut out = String::with_capacity(records.len() * 128);
    out.push_str(&header.to_json());
    out.push('\n');
    for line in records.values() {
        out.push_str(line);
        out.push('\n');
    }
    std::fs::write(out_path, out)
        .unwrap_or_else(|e| operator_error(&format!("writing {}: {e}", out_path.display())));
    let total = header.total_jobs;
    let have = records.len();
    eprintln!(
        "merged {have}/{total} jobs into {}{}",
        out_path.display(),
        if have == total {
            " — rerun the figure with --resume to render"
        } else {
            " — incomplete; run the missing shards or finish with --resume"
        }
    );
}
