//! # dm-bench — the experiment harness of the DIVA reproduction
//!
//! One executable, `fig`, regenerates every figure of the evaluation
//! section: `fig <figure> [flags]`. A figure is one entry of
//! [`figures::FIGURES`], whose `run` function lives in the module of the row
//! type it renders, next to the sweep and the columns.
//!
//! Every figure accepts four scale tiers, at most one per command line
//! (see [`Scale`]): `--smoke` (seconds — the CI figure-suite gate), the
//! default (reduced scale preserving the qualitative shape of every result),
//! `--paper` (the paper's full scale) and `--mega` (beyond-paper scale:
//! 64×64 meshes, ≥100 000-body Barnes-Hut sweeps). `--json FILE` writes the
//! rows — plus sweep metadata for the Barnes-Hut figures — as JSON, and
//! turns on streaming JSONL checkpoints (`<FILE>.partial.jsonl`): a killed
//! sweep resumes with `--resume`, splits across machines with
//! `--shard i/n` + `fig merge` ([`merge`]), and `--snapshot FILE` emits the
//! normalized `BENCH_<fig>.json` snapshot that `fig trajectory diff`
//! ([`trajectory`]) compares across commits (see [`stream`]). See
//! `crates/bench/README.md` and `docs/running-experiments.md` for
//! per-figure flags and expected runtimes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bh_exp;
pub mod bitonic_exp;
pub mod executor;
pub mod fault_exp;
pub mod figures;
pub mod json;
pub mod kv_exp;
pub mod matmul_exp;
pub mod merge;
mod scale;
#[cfg(test)]
mod short_writes;
pub mod stream;
pub mod table;
pub mod topo_exp;
pub mod trajectory;

use dm_diva::{Diva, DivaConfig, FaultPlan, StrategyKind};
use dm_mesh::{AnyTopology, TreeShape};
use json::ToJson;

/// The scale tier of a figure run. Every `figN` figure supports all four
/// (`scale`, already beyond-paper by design, has `--smoke` and `--mega`
/// tiers only); the exact sweep points per tier live in the figure's `run`
/// function or the sweep function it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast CI tier: tiny meshes and inputs, used by the figure-suite
    /// smoke gate which diffs the rendered tables against checked-in goldens.
    Smoke,
    /// The default: reduced scale preserving the qualitative shape of every
    /// result, re-tuned upwards for the event-driven backend.
    Default,
    /// The paper's full scale (16×16/32×32 meshes, up to 60 000 bodies).
    Paper,
    /// Beyond-paper scale: 64×64+ meshes and ≥100 000-body Barnes-Hut
    /// sweeps, only reachable on the event-driven backend.
    Mega,
}

impl Scale {
    /// Tier name as printed in figure titles and JSON metadata.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Paper => "paper",
            Scale::Mega => "mega",
        }
    }
}

/// Command-line options shared by all figures.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOpts {
    /// The scale tier: `--smoke`, `--paper` or `--mega`; the default tier
    /// without any of them.
    pub scale: Scale,
    /// Optional path to write the result rows as JSON.
    pub json: Option<String>,
    /// Optional seed override.
    pub seed: u64,
    /// Optional override of the Barnes-Hut time-step count
    /// (`--timesteps N`, declared by the figures that run Barnes-Hut);
    /// per-step reclamation is what makes large step counts affordable at
    /// mega scale.
    pub timesteps: Option<usize>,
    /// Worker-thread count of the parallel sweep executor (`--jobs N`).
    /// `None` uses the host's available parallelism; `1` runs the sweep
    /// serially on the calling thread. Every simulated quantity is identical
    /// for every value — only host wall-clock (and the per-job host-ms
    /// fields of the JSON sidecar) changes.
    pub jobs: Option<usize>,
    /// Resume from the checkpoint sidecar next to the `--json` output
    /// (`--resume`): completed jobs are restored from
    /// `<json>.partial.jsonl` and only the missing ones execute. The
    /// reassembled tables and JSON are byte-identical to an uninterrupted
    /// run (modulo per-job `host_ms`). See [`stream`].
    pub resume: bool,
    /// Run only shard `i` of `n` (`--shard i/n`): job `j` of the
    /// deterministic description-order job list belongs to shard `i` iff
    /// `j % n == i`. A shard run writes its own sidecar and renders
    /// nothing; `fig merge` stitches shard sidecars back into the
    /// canonical one, which a final `--resume` run renders. See [`stream`].
    pub shard: Option<(usize, usize)>,
    /// Optional path for a normalized `BENCH_<fig>.json` perf-trajectory
    /// snapshot (`--snapshot FILE`): figure tag, tier, seed and the full
    /// result payload, in the shape `fig trajectory diff` compares across
    /// commits (simulated quantities exactly; `host_ms` informational).
    pub snapshot: Option<String>,
    /// Strike times of the fig13 fault scenarios (`--strike-at 0,25,50,75`),
    /// as percents of the group's *intact* run length. Empty means `[0]`
    /// (every fault strikes at t=0). A non-zero strike makes each faulted
    /// job run an intact calibration copy first to convert the percent into
    /// an absolute simulated time — jobs stay pure, so `--resume`/`--shard`
    /// keep working, at the cost of one extra run per non-zero-strike point.
    pub strike_at: Vec<u64>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::Default,
            json: None,
            seed: 0x5EED,
            timesteps: None,
            jobs: None,
            resume: false,
            shard: None,
            snapshot: None,
            strike_at: Vec::new(),
        }
    }
}

/// Which of a figure's extra boolean flags ([`figures::Figure::flags`]) were
/// present on the command line (second half of [`HarnessOpts::parse_from`]).
/// The value flags a figure declares land in [`HarnessOpts`] instead.
#[derive(Debug, Clone)]
pub struct ExtraFlags {
    names: Vec<&'static str>,
    seen: Vec<bool>,
}

impl ExtraFlags {
    /// Whether `flag` (e.g. `"--bh"`) was given. Panics if the flag was not
    /// declared in the [`HarnessOpts::parse_from`] call — a figure asking
    /// for a flag its table entry does not list, not a user error.
    pub fn has(&self, flag: &str) -> bool {
        match self.names.iter().position(|n| *n == flag) {
            Some(i) => self.seen[i],
            None => panic!("flag {flag} was not declared in HarnessOpts::parse_from"),
        }
    }
}

/// The value token of `flag`: the next argument, converted by `convert`. A
/// missing value, another flag in its place or an unconvertible token is
/// the operator's mistake, reported as "`flag` needs `what`".
fn value<T>(
    flag: &str,
    rest: &mut std::slice::Iter<'_, String>,
    what: &str,
    convert: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    rest.next()
        .filter(|v| !v.starts_with("--"))
        .and_then(|v| convert(v))
        .ok_or_else(|| format!("{flag} needs {what}"))
}

impl HarnessOpts {
    /// The worker-thread count of the sweep executor: `--jobs N` if given,
    /// the host's available parallelism otherwise.
    pub(crate) fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The fig13 strike-time axis: the `--strike-at` percents, or `[0]`
    /// when the flag was not given (all faults strike at t=0).
    pub(crate) fn strikes(&self) -> Vec<u64> {
        if self.strike_at.is_empty() {
            vec![0]
        } else {
            self.strike_at.clone()
        }
    }

    /// Parse the shared harness options plus the listed figure-specific
    /// flags from `args` (the command line after the figure name).
    /// This is *the* flag parser of the figure suite: every figure shares
    /// the `--smoke/--paper/--mega/--json/--seed/--jobs/...` handling, and
    /// gets its extra boolean flags back through [`ExtraFlags::has`]. The
    /// value flags `--timesteps` and `--strike-at` are accepted only when
    /// listed with their value (`"--timesteps N"`, `"--strike-at P1,P2,..."`),
    /// as the figures that read them do. `Err` carries the diagnosis of the
    /// first mistake; a figure never runs on a guess of what the operator
    /// meant — a mistyped `--shard` silently ignored would run the whole
    /// sweep into the canonical sidecar, and a flag the figure ignores would
    /// run the sweep unchanged.
    pub fn parse_from(
        args: &[String],
        extra_flags: &[&'static str],
    ) -> Result<(Self, ExtraFlags), String> {
        let mut opts = HarnessOpts::default();
        let mut extra = ExtraFlags {
            names: extra_flags.to_vec(),
            seen: vec![false; extra_flags.len()],
        };
        let positive = |v: &str| v.parse::<usize>().ok().filter(|n| *n > 0);
        let path = |v: &str| (!v.is_empty()).then(|| v.to_string());
        let takes_value = |flag: &str| {
            extra_flags
                .iter()
                .any(|f| f.split(' ').next() == Some(flag))
        };
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let flag = flag.as_str();
            match flag {
                "--smoke" | "--paper" | "--mega" => {
                    if opts.scale != Scale::Default {
                        let first = opts.scale.name();
                        return Err(format!("{flag} after --{first}: give one tier flag"));
                    }
                    opts.scale = match flag {
                        "--smoke" => Scale::Smoke,
                        "--paper" => Scale::Paper,
                        _ => Scale::Mega,
                    };
                }
                "--resume" => opts.resume = true,
                "--timesteps" if takes_value(flag) => {
                    opts.timesteps = Some(value(flag, &mut rest, "a positive integer", positive)?)
                }
                "--jobs" => {
                    opts.jobs = Some(value(flag, &mut rest, "a positive integer", positive)?)
                }
                "--seed" => opts.seed = value(flag, &mut rest, "an integer", |v| v.parse().ok())?,
                "--json" => opts.json = Some(value(flag, &mut rest, "a file path", path)?),
                "--snapshot" => opts.snapshot = Some(value(flag, &mut rest, "a file path", path)?),
                "--shard" => {
                    opts.shard = Some(value(flag, &mut rest, "i/n with i < n (e.g. 0/2)", |v| {
                        let (i, n) = v.split_once('/')?;
                        let (i, n): (usize, usize) = (i.parse().ok()?, n.parse().ok()?);
                        (i < n).then_some((i, n))
                    })?)
                }
                "--strike-at" if takes_value(flag) => {
                    let what = "a comma-separated list of percents below 100 (e.g. 0,25,50,75)";
                    opts.strike_at = value(flag, &mut rest, what, |v| {
                        v.split(',')
                            .map(|t| t.trim().parse::<u64>().ok().filter(|p| *p < 100))
                            .collect()
                    })?
                }
                _ => match extra_flags
                    .iter()
                    .position(|f| *f == flag && !f.contains(' '))
                {
                    Some(idx) => extra.seen[idx] = true,
                    None if flag.is_empty() => return Err("unknown argument \"\"".to_string()),
                    None => return Err(format!("unknown argument {flag}")),
                },
            }
        }
        Ok((opts, extra))
    }
}

/// A sweep's result payload: the parameters all rows share plus one row per
/// point, serialised as `{"meta":…,"rows":[…]}`.
#[derive(Debug, Clone)]
pub struct Sweep<M, R> {
    /// The sweep's shared parameters.
    pub meta: M,
    /// One row per sweep point, in description order.
    pub rows: Vec<R>,
}

impl<M: ToJson, R: ToJson> ToJson for Sweep<M, R> {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"meta\":");
        self.meta.write_json(out);
        out.push_str(",\"rows\":");
        self.rows.write_json(out);
        out.push('}');
    }
}

/// Construct the DIVA instance of one experiment point: GCel machine
/// parameters on `topology` and an optional fault schedule.
pub(crate) fn make_diva(
    topology: impl Into<AnyTopology>,
    strategy: StrategyKind,
    seed: u64,
    plan: Option<FaultPlan>,
) -> Diva {
    let mut cfg = DivaConfig::on(topology, strategy).with_seed(seed);
    cfg.fault_plan = plan;
    Diva::new(cfg)
}

/// Describe the runs of one baseline-relative point on a `mesh_side`² mesh
/// (the matmul and bitonic figures): the hand-optimized baseline first, at
/// half the `weight` of a dynamic strategy, then one job per strategy.
/// `run` simulates a constructed DIVA instance — `None` names the baseline,
/// `Some(strategy name)` a dynamic strategy — and reduces it to a row. The
/// instances are constructed *here*, at description time, and move into
/// their jobs: whole simulations crossing worker threads is exactly what
/// the compile-time `Send` audit in dm-diva guarantees.
pub(crate) fn baseline_jobs<R: 'static>(
    mesh_side: usize,
    weight: u64,
    strategies: &[StrategyKind],
    opts: &HarnessOpts,
    run: impl Fn(Diva, Option<String>) -> R + Clone + Send + 'static,
) -> Vec<executor::Job<R>> {
    let diva = |strategy| {
        let mesh = dm_mesh::Mesh::square(mesh_side);
        make_diva(mesh, strategy, opts.seed, None)
    };
    let (baseline, reduce) = (diva(StrategyKind::FixedHome), run.clone());
    let mut jobs = vec![executor::Job::new(weight / 2, move || {
        reduce(baseline, None)
    })];
    for &strategy in strategies {
        let (diva, name, reduce) = (diva(strategy), strategy.name(), run.clone());
        jobs.push(executor::Job::new(weight, move || reduce(diva, Some(name))));
    }
    jobs
}

/// The access-tree shapes evaluated by the Barnes-Hut figures, in the order
/// the paper lists them.
pub(crate) fn barnes_hut_shapes() -> Vec<StrategyKind> {
    vec![
        StrategyKind::FixedHome,
        StrategyKind::AccessTree(TreeShape::hex16()),
        StrategyKind::AccessTree(TreeShape::lk(4, 16)),
        StrategyKind::AccessTree(TreeShape::quad()),
        StrategyKind::AccessTree(TreeShape::binary()),
    ]
}

/// Ratio of two quantities as used throughout the paper's figures.
pub(crate) fn ratio(value: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        f64::NAN
    } else {
        value as f64 / baseline as f64
    }
}

/// The baseline-relative post-pass of a sweep: `rows` arrive in description
/// order as contiguous `len`-row groups whose first row is the group's
/// baseline (the hand-optimized run, the intact network); `fill` sees every
/// other row together with its baseline. Always run at assembly, so derived
/// columns never ride stale through a resume.
pub(crate) fn for_each_group<R>(rows: &mut [R], len: usize, mut fill: impl FnMut(&R, &mut R)) {
    for group in rows.chunks_mut(len) {
        let (baseline, rest) = group.split_first_mut().expect("chunks are never empty");
        rest.iter_mut().for_each(|row| fill(baseline, row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_baseline() {
        assert!(ratio(5, 0).is_nan());
        assert!((ratio(30, 10) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn barnes_hut_shape_list_matches_the_paper() {
        let shapes = barnes_hut_shapes();
        assert_eq!(shapes.len(), 5);
        assert_eq!(shapes[0].name(), "fixed home");
        assert_eq!(shapes[4].name(), "2-ary access tree");
    }

    #[test]
    fn make_diva_uses_the_requested_strategy() {
        let d = make_diva(dm_mesh::Mesh::new(4, 4), StrategyKind::FixedHome, 1, None);
        assert_eq!(d.num_procs(), 16);
        assert_eq!(d.config().strategy, StrategyKind::FixedHome);
        assert!(d.config().fault_plan.is_none());
    }

    #[test]
    fn strike_axis_defaults_to_time_zero() {
        let mut opts = HarnessOpts::default();
        assert_eq!(opts.strikes(), vec![0]);
        opts.strike_at = vec![0, 25, 50, 75];
        assert_eq!(opts.strikes(), vec![0, 25, 50, 75]);
    }

    #[test]
    fn jobs_default_to_available_parallelism_and_an_explicit_jobs_wins() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut opts = HarnessOpts::default();
        assert_eq!(opts.jobs(), cores);
        opts.jobs = Some(7);
        assert_eq!(opts.jobs(), 7);
    }
}
