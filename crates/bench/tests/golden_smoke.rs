//! The figure-suite smoke gate: every figure runs at `--smoke` scale
//! and its rendered table must match the checked-in golden byte for byte.
//!
//! The tables contain only *simulated* quantities (virtual nanoseconds,
//! messages, bytes), which the single-threaded event-driven backend produces
//! deterministically — so the goldens are stable across machines and any
//! diff is a real behaviour change. CI runs the same comparison via
//! `.github/workflows/ci.yml` and uploads the JSON rows as artifacts.
//!
//! To update the goldens after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test -p dm-bench --test golden_smoke
//! git diff crates/bench/goldens/   # review before committing
//! ```

mod common;

use common::fig;
use std::path::Path;

/// Run figure `bin` with `args` and return its stdout.
fn run(bin: &str, args: &[&str]) -> String {
    let out = fig(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure output is UTF-8")
}

fn check_golden(name: &str, bin: &str, args: &[&str]) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{name}.txt"));
    let got = run(bin, args);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&golden_path, &got).expect("writing golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {golden_path:?} ({e}); run UPDATE_GOLDENS=1 cargo test -p dm-bench \
             --test golden_smoke"
        )
    });
    assert_eq!(
        got, want,
        "{name}: smoke output diverged from {golden_path:?} — if intentional, regenerate with \
         UPDATE_GOLDENS=1"
    );
}

macro_rules! golden {
    ($test:ident, $name:literal, $bin:expr, $args:expr) => {
        #[test]
        fn $test() {
            check_golden($name, $bin, $args);
        }
    };
}

golden!(fig3_smoke, "fig3", "fig3", &["--smoke"]);
golden!(fig4_smoke, "fig4", "fig4", &["--smoke"]);
golden!(fig6_smoke, "fig6", "fig6", &["--smoke"]);
golden!(fig7_smoke, "fig7", "fig7", &["--smoke"]);
golden!(fig8_smoke, "fig8", "fig8", &["--smoke"]);
golden!(fig9_smoke, "fig9", "fig9", &["--smoke"]);
golden!(fig10_smoke, "fig10", "fig10", &["--smoke"]);
golden!(fig11_smoke, "fig11", "fig11", &["--smoke"]);
// The cross-topology gate: the strategies must simulate identically on the
// mesh, torus, hypercube and fat tree from one PR to the next.
golden!(fig12_smoke, "fig12", "fig12", &["--smoke"]);
// The graceful-degradation gate: fault sampling, detour routing, healing,
// re-homing charges and app-loss bookkeeping must stay deterministic from
// one PR to the next — including the rows that diagnose a partition or a
// degraded (programs-lost) run. The second strike time exercises the
// mid-run fault path: a 50% strike calibrates against the intact run and
// lands the faults on warmed-up routes and directory state.
golden!(
    fig13_smoke,
    "fig13",
    "fig13",
    &["--smoke", "--strike-at", "0,50"]
);
// The serving gate: Zipf inverse-CDF sampling, hotspot migration phases,
// churn session gaps and the serving-side tallies (hits, bytes moved,
// response-time buckets, replication high-water) must stay deterministic
// from one PR to the next.
golden!(fig14_smoke, "fig14", "fig14", &["--smoke"]);
golden!(scale_smoke, "scale", "scale", &["--smoke"]);
golden!(scale_bh_smoke, "scale_bh", "scale", &["--smoke", "--bh"]);

/// The table is the suite: `fig --list` is `FIGURES` in order, every listed
/// figure is gated by at least one golden, and no golden is an orphan.
#[test]
fn every_listed_figure_has_a_golden_and_every_golden_a_figure() {
    let listed = run("--list", &[]);
    let names: Vec<&str> = listed.lines().collect();
    let table: Vec<&str> = dm_bench::figures::FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names, table, "fig --list is not the FIGURES table");

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens");
    let stems: Vec<String> = std::fs::read_dir(&dir)
        .expect("reading goldens/")
        .map(|e| e.expect("reading goldens/").path())
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    // `scale_bh` belongs to `scale`: a golden is its figure's name, plus a
    // `_variant` suffix when the figure has several.
    let owner = |stem: &str| names.iter().find(|n| stem.split('_').next() == Some(**n));
    for name in &names {
        assert!(
            stems.iter().any(|s| owner(s) == Some(name)),
            "figure {name} has no golden in {dir:?} — add a golden! line"
        );
    }
    for stem in &stems {
        assert!(owner(stem).is_some(), "golden {stem}.txt names no figure");
    }
}
