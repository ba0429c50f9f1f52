//! `fig merge`: stitch shard sidecars back into the canonical checkpoint.

use crate::figures::usage_error;
use crate::json::ToJson;
use crate::stream::{operator_error, read_sidecar_lines, SidecarHeader, SidecarWriter};
use std::collections::BTreeMap;
use std::io;
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
    match merge(Path::new(&args[0]), &args[1..]) {
        Ok(note) => eprintln!("{note}"),
        Err(e) => operator_error(&e),
    }
}

/// [`run`] without the exit: merge `shard_paths` into `out_path` and return
/// the note for the operator, or the diagnosis, which names the file (and
/// the line, for a shard that does not parse).
pub fn merge(out_path: &Path, shard_paths: &[String]) -> Result<String, String> {
    let mut canonical: Option<SidecarHeader> = None;
    let mut records: BTreeMap<usize, String> = BTreeMap::new();
    for shard_path in shard_paths {
        let (header, lines) = read_sidecar_lines(Path::new(shard_path))?;
        let stripped = SidecarHeader {
            shard: None,
            ..header
        };
        match &canonical {
            None => canonical = Some(stripped),
            Some(expect) if *expect == stripped => {}
            Some(expect) => {
                return Err(format!(
                    "{shard_path}: header {} does not match the first shard's {} — \
                     shards of different sweeps cannot be merged",
                    stripped.to_json(),
                    expect.to_json()
                ))
            }
        }
        for (job, line) in lines {
            records.entry(job).or_insert(line);
        }
    }
    let header = canonical.ok_or("merge needs at least one shard sidecar")?;
    let have = records.len();
    SidecarWriter::create(out_path, &header)
        .and_then(|out| write_records(out, records))
        .map_err(|e| format!("writing {e}"))?;
    let (have, total) = (have, header.total_jobs);
    Ok(format!(
        "merged {have}/{total} jobs into {}{}",
        out_path.display(),
        if have == total {
            " — rerun the figure with --resume to render"
        } else {
            " — incomplete; run the missing shards or finish with --resume"
        }
    ))
}

/// Write the merged records after the header `out` already holds, in job
/// order, and persist them before `fig merge` reports success: the merged
/// file may be the only complete copy of a cross-machine sweep.
pub(crate) fn write_records(
    mut out: SidecarWriter,
    records: BTreeMap<usize, String>,
) -> io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    out.write_line(records.into_values().collect::<Vec<_>>().join("\n"))
}
