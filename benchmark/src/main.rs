//! `dm-hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints every metric by name with its unit and, as the
//! last line, one JSON object. Exits 0 when every check passed, 1 when one
//! failed, 2 on a bad command line.

use dm_hostbench::workload::{Spec, WORKLOADS};
use dm_hostbench::{e2e, out_dir, traced, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = parse_seed(&value).ok_or_else(|| format!("bad --seed {value:?}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::full(&workload)
        .ok_or_else(|| format!("unknown workload {workload:?} (one of {WORKLOADS:?})"))?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("dm-hostbench: {why}");
            eprintln!("usage: dm-hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced::run(&args.spec, args.seed, args.seconds, &out_dir())
    } else {
        e2e::run(&args.spec, args.seed, args.seconds)
    };
    print!("{}", outcome.render(args.spec.name, args.seed));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "bh_fig8",
            "--seed",
            "17",
            "--seconds",
            "25",
            "--trace",
            "1",
        ])
        .expect("valid command line");
        assert_eq!(args.spec.name, "bh_fig8");
        assert_eq!((args.seed, args.seconds, args.trace), (17, 25.0, true));
        assert_eq!(
            parse(&["--workload", "uniform_64", "--seed", "0x5EED"]).map(|a| a.seed),
            Ok(0x5EED)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "bh_fig8", "--trace", "2"],
            &["--workload", "bh_fig8", "--seconds", "-1"],
            &["--workload", "bh_fig8", "--seed"],
            &["--workload", "bh_fig8", "--size", "9"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
