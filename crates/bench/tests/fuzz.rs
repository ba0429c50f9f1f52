//! Seeded mutation fuzzing of every input the harness reads: a checkpoint
//! sidecar written by a smoke run, each committed `BENCH_*.json` snapshot
//! and the command lines of `flags.rs`, mutated (truncation at every byte,
//! byte flips, spliced and duplicated lines, a missing or doubled header,
//! huge numbers and NaN, deep nesting) and fed in-process, under
//! `catch_unwind`, to the resume loader, `trajectory diff`, `merge` and
//! `HarnessOpts::parse_from`.
//!
//! The oracle: nothing panics, and each call either gives the clean input's
//! result (for a truncation: the result for the records that survive it)
//! or an error that names the file and the line or byte — a command-line
//! error names the argument.

mod common;

use common::fig;
use dm_bench::bh_exp::BhRow;
use dm_bench::stream::read_sidecar;
use dm_bench::{merge, trajectory, HarnessOpts};
use dm_rng::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run `f`, failing the test with `what` if it panics.
fn no_panic<R>(what: &str, f: impl FnOnce() -> R) -> R {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("panicked on {what}"))
}

/// Whether `err` names `file` and a line (`file:N:`) or a byte (`at byte N`).
fn names_place(err: &str, file: &str) -> bool {
    let line = err
        .split_once(&format!("{file}:"))
        .is_some_and(|(_, rest)| rest.starts_with(|c: char| c.is_ascii_digit()));
    err.contains(file) && (line || err.contains(" at byte "))
}

/// The mutants of `clean`: every truncation is separate (see [`truncations`]);
/// these are seeded flips, spliced and duplicated lines, a missing and a
/// doubled header, huge numbers and NaN, and deep nesting.
fn mutants(clean: &[u8], seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
    let mut out = vec![
        lines[1..].concat(),
        [&lines[..1], &lines[..]].concat().concat(),
    ];
    // A number, or the first digit of one, replaced by something no writer
    // of this harness produces.
    let digits: Vec<usize> = (0..clean.len())
        .filter(|&i| clean[i].is_ascii_digit() && (i == 0 || !clean[i - 1].is_ascii_digit()))
        .collect();
    let nesting = "[".repeat(10_000) + &"]".repeat(10_000);
    let oddities = [
        "1e999",
        "-1e999",
        "NaN",
        "-1",
        "99999999999999999999999999",
        "1.5",
        "null",
        "\"x\"",
        nesting.as_str(),
    ];
    for _ in 0..count {
        let mut m = clean.to_vec();
        match rng.gen_range(0..4u32) {
            0 => {
                let at = rng.gen_range(0..m.len());
                m[at] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                // The head of one line glued to the tail of another.
                let (i, j) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
                let cut_i = rng.gen_range(0..lines[i].len());
                let cut_j = rng.gen_range(0..lines[j].len());
                let spliced = [&lines[i][..cut_i], &lines[j][cut_j..]].concat();
                let mut with: Vec<&[u8]> = lines.clone();
                with[i] = &spliced;
                m = with.concat();
            }
            2 => {
                let i = rng.gen_range(0..lines.len());
                let mut with: Vec<&[u8]> = lines.clone();
                with.insert(i, lines[i]);
                m = with.concat();
            }
            _ => {
                let at = digits[rng.gen_range(0..digits.len())];
                let end = (at..m.len())
                    .find(|&k| !matches!(m[k], b'0'..=b'9' | b'.' | b'e' | b'-'))
                    .unwrap_or(m.len());
                let odd = oddities[rng.gen_range(0..oddities.len())];
                m.splice(at..end, odd.bytes());
            }
        }
        out.push(m);
    }
    out
}

/// Every strict prefix of `clean`, longest first.
fn truncations(clean: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..clean.len()).rev().map(|k| &clean[..k])
}

/// A smoke sidecar cut short after three Barnes-Hut points.
fn smoke_sidecar() -> Vec<u8> {
    let json = tmp("fuzz_smoke.json");
    let out = fig("fig8")
        .args(["--smoke", "--jobs", "1", "--json"])
        .arg(&json)
        .env("DM_SWEEP_KILL_AFTER", "3")
        .output()
        .expect("running fig8 --smoke");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(format!("{}.partial.jsonl", json.display())).expect("reading the sidecar")
}

type Loaded = Vec<(usize, BhRow, u64)>;

/// The resume loader's result, host times as bits so NaN compares.
fn load(path: &Path) -> Result<Loaded, String> {
    let (_, records) = read_sidecar::<BhRow>(path)?;
    Ok(records
        .into_iter()
        .map(|(job, r)| (job, r.value, r.host_ms.to_bits()))
        .collect())
}

/// The jobs of the records a truncation of the sidecar at `len` bytes keeps:
/// those whose line ends with its newline.
fn surviving(clean: &[u8], len: usize) -> usize {
    clean[..len]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        .saturating_sub(1)
}

#[test]
fn the_resume_loader_and_merge_survive_every_mutated_sidecar() {
    let clean = smoke_sidecar();
    let (path, out) = (tmp("fuzz_shard.jsonl"), tmp("fuzz_merged.jsonl"));
    let file = path.display().to_string();
    std::fs::write(&path, &clean).unwrap();
    let want = load(&path).expect("the clean sidecar loads");
    assert_eq!(want.len(), 3);
    let shard = [file.clone()];

    // Truncation at every byte: the records whose newline survives, or an
    // error when the header does not.
    for cut in truncations(&clean) {
        std::fs::write(&path, cut).unwrap();
        let what = format!("the sidecar cut at byte {}", cut.len());
        let kept = surviving(&clean, cut.len());
        match no_panic(&what, || load(&path)) {
            Ok(got) => assert_eq!(got[..], want[..kept], "{what}"),
            Err(e) => {
                assert!(!cut.contains(&b'\n'), "{what}: {e}");
                assert!(names_place(&e, &file), "{what}: {e}");
            }
        }
        // Merge pays two fsyncs a call: every seventh cut.
        if cut.len() % 7 == 0 {
            merged(&shard, &out, &what, Some(kept));
        }
    }
    for (i, m) in mutants(&clean, 14, 400).into_iter().enumerate() {
        std::fs::write(&path, &m).unwrap();
        let what = format!("sidecar mutant {i}: {}", String::from_utf8_lossy(&m));
        if let Err(e) = no_panic(&what, || load(&path)) {
            assert!(names_place(&e, &file), "{what}\n→ {e}");
        }
        if i % 4 == 0 {
            merged(&shard, &out, &what, None);
        }
    }
}

/// `merge` of `shards` into `out`: an error naming the shard and the line,
/// or a checkpoint that the resume loader reads back (with `kept` records,
/// when known) or refuses naming the merged file and the line — `merge`
/// copies records without decoding their rows.
fn merged(shards: &[String], out: &Path, what: &str, kept: Option<usize>) {
    let _ = std::fs::remove_file(out);
    match no_panic(what, || merge::merge(out, shards)) {
        Ok(_) => match (load(out), kept) {
            (Ok(back), Some(kept)) => assert_eq!(back.len(), kept, "{what}"),
            (Ok(_), None) => {}
            (Err(e), _) => {
                assert!(kept.is_none(), "{what}: {e}");
                assert!(names_place(&e, &out.display().to_string()), "{what}\n→ {e}");
            }
        },
        Err(e) => assert!(names_place(&e, &shards[0]), "{what}\n→ {e}"),
    }
}

#[test]
fn trajectory_diff_survives_every_mutated_snapshot() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mutant = tmp("fuzz_snapshot.json");
    let file = mutant.display().to_string();
    for (n, name) in [
        "BENCH_fig8.json",
        "BENCH_fig12.json",
        "BENCH_fig13.json",
        "BENCH_fig14.json",
    ]
    .into_iter()
    .enumerate()
    {
        let clean_path = format!("{root}/{name}");
        let clean = std::fs::read(&clean_path).unwrap();
        let diff = |what: &str| no_panic(what, || trajectory::diff(&file, &clean_path));
        // A truncated snapshot never parses. Every byte of the smallest; some
        // 48 seeded cuts of the others, whose parse is longer.
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let sample = (clean.len() / 48) as u32;
        for cut in truncations(&clean).filter(|_| n == 0 || rng.gen_range(0..sample) == 0) {
            std::fs::write(&mutant, cut).unwrap();
            let what = format!("{name} cut at byte {}", cut.len());
            let e = diff(&what).expect_err(&what);
            assert!(names_place(&e, &file), "{what}: {e}");
        }
        // A mutant may still parse: then it is a snapshot like any other.
        let count = if n == 0 { 150 } else { 12 };
        for (i, m) in mutants(&clean, n as u64, count).into_iter().enumerate() {
            std::fs::write(&mutant, &m).unwrap();
            let what = format!("{name} mutant {i}");
            if let Err(e) = diff(&what) {
                assert!(names_place(&e, &file), "{what}: {e}");
            }
        }
    }
}

#[test]
fn the_flag_parser_survives_every_mutated_command_line() {
    // The command lines of `flags.rs`, good and bad.
    let lines = [
        "--smoke --resume --json out.json --snapshot snap.json",
        "--paper --timesteps 7 --jobs 4 --seed 42 --shard 1/2",
        "--mega --strike-at 0,25,99 --bh",
        "--bh --json a.json --smoke --shard 0/3 --jobs 2",
        "--shard 3/2 --jobs x --seed x --strike-at 0,,50 --timesteps many",
        "--smoke --smoke --paper --json",
        "--jobs --smoke --json --resume --snapshot",
    ];
    let declared = &["--bh", "--timesteps N", "--strike-at P1,P2,..."];
    let odd = [
        "",
        "-",
        "--",
        "0",
        "NaN",
        "-1",
        "1e999",
        "99999999999999999999999",
        "/",
        "é",
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    for line in lines {
        let args: Vec<String> = line.split(' ').map(str::to_string).collect();
        let mut argvs: Vec<Vec<String>> = Vec::new();
        for i in 0..args.len() {
            // Truncation of each argument at every byte, and of the line.
            for k in 0..args[i].len() {
                let mut a = args.clone();
                a[i].truncate(k);
                argvs.push(a);
            }
            argvs.push(args[..i].to_vec());
            // The argument duplicated, dropped, or replaced by an oddity.
            let mut a = args.clone();
            a.insert(i, args[i].clone());
            argvs.push(a);
            let mut a = args.clone();
            a.remove(i);
            argvs.push(a);
            for o in odd {
                let mut a = args.clone();
                a[i] = o.to_string();
                argvs.push(a);
            }
        }
        for _ in 0..64 {
            let mut a = args.clone();
            let i = rng.gen_range(0..a.len());
            let mut bytes = a[i].clone().into_bytes();
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..7u32);
            }
            a[i] = String::from_utf8_lossy(&bytes).into_owned();
            argvs.push(a);
        }
        for argv in argvs {
            let what = format!("{argv:?}");
            if let Err(e) = no_panic(&what, || HarnessOpts::parse_from(&argv, declared)) {
                let named = |a: &String| e.contains(if a.is_empty() { "\"\"" } else { a });
                assert!(argv.iter().any(named), "{what}: {e:?} names no argument");
            }
        }
    }
}

/// One vector per defect the fuzzer found: each error used to name neither
/// the line nor the byte.
#[test]
fn regression_vectors() {
    let path = tmp("fuzz_vector.jsonl");
    let file = path.display().to_string();
    let header = r#"{"sweep":"","scale":"smoke","seed":1,"total_jobs":3,"shard":null}"#;
    let vectors: [(&[u8], &str); 6] = [
        // A record cut inside a string, or right after a key.
        (
            b"{\"job\":0,\"host_ms\":1,\"value\":\"\n",
            ":2: record 1: unterminated string at byte",
        ),
        (
            b"{\"job\":0,\"host_ms\":\n",
            ":2: record 1: unexpected end of input at byte",
        ),
        (
            b"{\"job\":0,\"host_ms\":1,\"value\":\"\\q\"}\n",
            "bad escape at byte",
        ),
        // A record whose row does not decode.
        (
            b"{\"job\":0,\"host_ms\":1,\"value\":{}}\n",
            ":2: record 1: missing field",
        ),
        // A flipped byte that is not UTF-8.
        (
            b"{\"job\":0,\"host_ms\":1,\"value\":\"\xff\"}\n",
            ": invalid UTF-8 at byte",
        ),
        // Nothing but a torn header.
        (b"", ":1: no complete header line"),
    ];
    for (record, want) in vectors {
        let body = if record.is_empty() {
            header.as_bytes()[..20].to_vec()
        } else {
            [header.as_bytes(), b"\n", record].concat()
        };
        std::fs::write(&path, &body).unwrap();
        let e = load(&path).expect_err(want);
        assert!(e.contains(&file) && e.contains(want), "{want:?}: {e}");
    }
    // An empty argument, and an empty path that would have named the
    // sidecar `.partial.jsonl`.
    for (line, want) in [
        (&["--smoke", ""][..], "unknown argument \"\""),
        (&["--json", ""][..], "--json needs a file path"),
        (&["--snapshot", ""][..], "--snapshot needs a file path"),
    ] {
        let argv: Vec<String> = line.iter().map(|a| a.to_string()).collect();
        let e = HarnessOpts::parse_from(&argv, &[]).expect_err(want);
        assert_eq!(e, want);
    }
    // The same for a snapshot.
    let snapshot = tmp("fuzz_vector.json");
    let snap = snapshot.display().to_string();
    let vectors: [(&[u8], &str); 2] = [
        (b"{\"a\":[1,", "unexpected end of input at byte 8"),
        (b"[\"\xff\"]", "invalid UTF-8 at byte 2"),
    ];
    for (text, want) in vectors {
        std::fs::write(&snapshot, text).unwrap();
        let e = trajectory::diff(&snap, &snap).expect_err(want);
        assert!(e.contains(&snap) && e.contains(want), "{want:?}: {e}");
    }
}
