//! Strict-flag gate: an operator mistake on a figure's command line is
//! diagnosed and refused (exit 2, nothing on stdout) — it never turns into a
//! different experiment than the one asked for.

mod common;

use common::fig;
use dm_bench::{HarnessOpts, Scale};

/// A boolean flag and both value flags, as a figure declares them.
const DECLARED: &[&str] = &["--bh", "--timesteps N", "--strike-at P1,P2,..."];

fn parse_with(
    line: &str,
    declared: &[&'static str],
) -> Result<(HarnessOpts, dm_bench::ExtraFlags), String> {
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    HarnessOpts::parse_from(&args, declared)
}

fn parse(line: &str) -> Result<(HarnessOpts, dm_bench::ExtraFlags), String> {
    parse_with(line, DECLARED)
}

/// The default options with one field set.
fn with(set: impl FnOnce(&mut HarnessOpts)) -> HarnessOpts {
    let mut opts = HarnessOpts::default();
    set(&mut opts);
    opts
}

#[test]
fn every_flag_parses_from_a_good_line() {
    let path = || Some("out.json".to_string());
    let good = [
        ("", with(|_| ())),
        ("--smoke", with(|o| o.scale = Scale::Smoke)),
        ("--paper", with(|o| o.scale = Scale::Paper)),
        ("--mega", with(|o| o.scale = Scale::Mega)),
        ("--resume", with(|o| o.resume = true)),
        ("--timesteps 7", with(|o| o.timesteps = Some(7))),
        ("--jobs 4", with(|o| o.jobs = Some(4))),
        ("--seed 42", with(|o| o.seed = 42)),
        ("--json out.json", with(|o| o.json = path())),
        ("--snapshot out.json", with(|o| o.snapshot = path())),
        ("--shard 1/2", with(|o| o.shard = Some((1, 2)))),
        (
            "--strike-at 0,25,99",
            with(|o| o.strike_at = vec![0, 25, 99]),
        ),
        ("--bh", with(|_| ())),
    ];
    for (line, want) in good {
        let (opts, extra) = parse(line).unwrap_or_else(|e| panic!("{line:?} refused: {e}"));
        assert_eq!(opts, want, "{line:?}");
        assert_eq!(extra.has("--bh"), line == "--bh", "{line:?}");
    }
    // Flags compose in any order, values bind to the flag before them.
    let (opts, extra) = parse("--bh --json a.json --smoke --shard 0/3 --jobs 2").unwrap();
    assert!(extra.has("--bh") && opts.scale == Scale::Smoke);
    assert_eq!(opts.json.as_deref(), Some("a.json"));
    assert_eq!((opts.shard, opts.jobs), (Some((0, 3)), Some(2)));
}

#[test]
fn every_operator_mistake_is_refused_with_a_diagnosis() {
    let bad = [
        ("--smok", "unknown argument --smok"),
        ("stray", "unknown argument stray"),
        ("--arity-sweep", "unknown argument --arity-sweep"), // not declared by this figure
        ("--shard 3/2", "--shard needs i/n with i < n"),
        ("--shard 2/2", "--shard needs"),
        ("--shard 1", "--shard needs"),
        ("--shard x/2", "--shard needs"),
        ("--jobs x", "--jobs needs a positive integer"),
        ("--jobs 0", "--jobs needs a positive integer"),
        ("--workers 2", "unknown argument --workers"),
        ("--no-reclaim", "unknown argument --no-reclaim"),
        (
            "--smoke --smoke",
            "--smoke after --smoke: give one tier flag",
        ),
        ("--smoke --mega", "--mega after --smoke: give one tier flag"),
        ("--paper --json a.json --smoke", "--smoke after --paper"),
        ("--timesteps many", "--timesteps needs a positive integer"),
        ("--seed x", "--seed needs an integer"),
        (
            "--strike-at 120",
            "--strike-at needs a comma-separated list of percents below 100",
        ),
        ("--strike-at 0,,50", "--strike-at needs"),
        // A value flag at the end of the line, or with a flag where its
        // value should be.
        ("--smoke --json", "--json needs a file path"),
        ("--snapshot", "--snapshot needs a file path"),
        ("--seed", "--seed needs an integer"),
        ("--shard", "--shard needs"),
        ("--jobs --smoke", "--jobs needs a positive integer"),
        ("--json --resume", "--json needs a file path"),
    ];
    for (line, diagnosis) in bad {
        match parse(line) {
            Ok((opts, _)) => panic!("{line:?} was accepted as {opts:?}"),
            Err(e) => assert!(e.contains(diagnosis), "{line:?}: {e:?} lacks {diagnosis:?}"),
        }
    }
    // A value flag's spelling in the table is not a boolean flag.
    let spelled = ["--timesteps N".to_string()];
    let refused = HarnessOpts::parse_from(&spelled, DECLARED).err();
    assert_eq!(refused.as_deref(), Some("unknown argument --timesteps N"));
    // A value flag the figure does not declare is refused, not ignored.
    for (line, diagnosis) in [
        ("--timesteps 7", "unknown argument --timesteps"),
        ("--strike-at 50", "unknown argument --strike-at"),
    ] {
        match parse_with(line, &["--bh"]) {
            Ok((opts, _)) => panic!("{line:?} was accepted as {opts:?}"),
            Err(e) => assert!(e.contains(diagnosis), "{line:?}: {e:?} lacks {diagnosis:?}"),
        }
    }
}

#[test]
fn a_mistyped_shard_exits_2_without_running_the_sweep() {
    let out = fig("fig8")
        .args(["--smoke", "--shard", "3/2"])
        .output()
        .expect("running fig8");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run rendered a table");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: --shard needs i/n"), "{err}");
    assert!(err.contains("usage: fig <figure>"), "{err}");
}

#[test]
fn an_unwritable_output_path_is_an_error_not_a_panic() {
    let out = fig("fig4")
        .args(["--smoke", "--snapshot", "/nonexistent-dir/BENCH_fig4.json"])
        .output()
        .expect("running fig4");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: writing /nonexistent-dir/BENCH_fig4.json:"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn an_unknown_missing_or_misflagged_command_exits_2_with_the_usage_and_the_figure_list() {
    let bare = || std::process::Command::new(env!("CARGO_BIN_EXE_fig"));
    let with_args = |name: &str, args: &[&str]| {
        let mut cmd = fig(name);
        cmd.args(args);
        cmd
    };
    for (mut cmd, diagnosis) in [
        (fig("nosuch"), "error: unknown command nosuch"),
        (bare(), "error: no command given"),
        // fig3's and fig6's flag, not fig8's.
        (
            with_args("fig8", &["--arity-sweep"]),
            "error: unknown argument --arity-sweep",
        ),
        // Flags the figure would ignore: only the Barnes-Hut figures read
        // --timesteps, only fig13 and fig14 read --strike-at.
        (
            with_args("fig3", &["--timesteps", "7"]),
            "error: unknown argument --timesteps",
        ),
        (
            with_args("fig4", &["--strike-at", "50"]),
            "error: unknown argument --strike-at",
        ),
        (
            with_args("fig8", &["--no-reclaim"]),
            "error: unknown argument --no-reclaim",
        ),
        (
            with_args("fig8", &["--smoke", "--paper"]),
            "error: --paper after --smoke: give one tier flag",
        ),
        (
            with_args("scale", &["--paper"]),
            "error: scale has no --paper tier",
        ),
    ] {
        let out = cmd.output().expect("running fig");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: {err}");
        assert!(out.stdout.is_empty(), "{cmd:?} wrote to stdout");
        assert!(err.contains(diagnosis), "{cmd:?}: {err}");
        assert!(err.contains("usage: fig <figure>"), "{cmd:?}: {err}");
        assert!(
            err.contains("figures: fig3 [--arity-sweep], fig4,") && err.contains("scale [--bh]"),
            "{cmd:?}: {err}"
        );
    }
    let help = fig("--help").output().expect("running fig --help");
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8_lossy(&help.stdout);
    for figure in dm_bench::figures::FIGURES {
        assert!(text.contains(figure.about), "--help lacks {}", figure.name);
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_stdout_is_an_error_not_a_panic() {
    let snapshot = format!("{}/../../BENCH_fig8.json", env!("CARGO_MANIFEST_DIR"));
    let cases: [(&str, &[&str], &str); 4] = [
        ("fig4", &["--smoke"], "the table"),
        ("--help", &[], "the help"),
        ("--list", &[], "the figure list"),
        (
            "trajectory",
            &["diff", &snapshot, &snapshot],
            "the trajectory diff",
        ),
    ];
    for (command, args, what) in cases {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("opening /dev/full");
        let out = fig(command)
            .args(args)
            .stdout(full)
            .output()
            .unwrap_or_else(|e| panic!("running fig {command}: {e}"));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "fig {command}: {err}");
        assert!(
            err.contains(&format!("error: writing {what} to stdout:")),
            "fig {command}: {err}"
        );
        assert!(!err.contains("panicked"), "fig {command}: {err}");
    }
}
