//! The figure table of the `fig` program: a figure is one [`Figure`] entry of
//! [`FIGURES`] — adding one is a `run` function next to the row type it
//! renders plus one entry here — and the command line (which names exist,
//! which extra flags each accepts, what `--help` says) is read off the table.

use crate::stream::operator_error;
use crate::{bh_exp, bitonic_exp, fault_exp, kv_exp, matmul_exp, scale, topo_exp};
use crate::{ExtraFlags, HarnessOpts};

/// One figure of the suite.
pub struct Figure {
    /// The command-line name (`fig <name>`), also the `"fig"` tag of the
    /// figure's `--snapshot` and the stem of its smoke goldens.
    pub name: &'static str,
    /// What the figure shows; printed by `fig --help`.
    pub about: &'static str,
    /// The flags this figure accepts beyond the shared [`HarnessOpts`] ones:
    /// boolean flags, handed to `run` as [`ExtraFlags`], and the value flags
    /// it reads, written with their value (`"--timesteps N"`) and parsed
    /// into [`HarnessOpts`]. Any other figure refuses them.
    pub flags: &'static [&'static str],
    /// Run the sweep and render it: table to stdout, `--json` and
    /// `--snapshot` files — nothing when the sweep is incomplete (a shard
    /// run or a cut-short run).
    pub run: fn(&HarnessOpts, &ExtraFlags),
}

/// Every figure, in the order `fig --list` prints them.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig3",
        about: "Figure 3: matrix multiplication on a fixed mesh — congestion and time ratios vs \
                block size (--arity-sweep: the arity comparison of Section 3.1)",
        flags: &["--arity-sweep"],
        run: matmul_exp::fig3,
    },
    Figure {
        name: "fig4",
        about: "Figure 4: matrix multiplication with a fixed block size — ratios vs network size",
        flags: &[],
        run: matmul_exp::fig4,
    },
    Figure {
        name: "fig6",
        about: "Figure 6: bitonic sorting on a fixed mesh — congestion and time ratios vs keys \
                per processor (--arity-sweep: the arity comparison of Section 3.2)",
        flags: &["--arity-sweep"],
        run: bitonic_exp::fig6,
    },
    Figure {
        name: "fig7",
        about: "Figure 7: bitonic sorting with fixed keys per processor — ratios vs network size",
        flags: &[],
        run: bitonic_exp::fig7,
    },
    Figure {
        name: "fig8",
        about: "Figure 8: Barnes-Hut — total congestion and execution time vs number of bodies",
        flags: &["--timesteps N"],
        run: bh_exp::fig8,
    },
    Figure {
        name: "fig9",
        about: "Figure 9: Barnes-Hut — tree-building phase congestion and time",
        flags: &["--timesteps N"],
        run: bh_exp::fig9,
    },
    Figure {
        name: "fig10",
        about: "Figure 10: Barnes-Hut — force-computation phase congestion, time and local compute",
        flags: &["--timesteps N"],
        run: bh_exp::fig10,
    },
    Figure {
        name: "fig11",
        about: "Figure 11: Barnes-Hut — scaling the network size with N = bodies-per-processor · P",
        flags: &["--timesteps N"],
        run: bh_exp::fig11,
    },
    Figure {
        name: "fig12",
        about: "(beyond paper) all five strategies across mesh, torus, hypercube and fat tree at \
                matched node counts, uniform-random + Barnes-Hut workloads",
        flags: &["--timesteps N"],
        run: topo_exp::fig12,
    },
    Figure {
        name: "fig13",
        about:
            "(beyond paper) graceful degradation under a seeded fault-scenario ladder (degraded \
                links, failed links, failed nodes), deltas vs the intact baseline",
        flags: &["--timesteps N", "--strike-at P1,P2,..."],
        run: fault_exp::fig13,
    },
    Figure {
        name: "fig14",
        about: "(beyond paper) KV serving tier under Zipf-skewed, migrating-hotspot and churning \
                requests: hit ratio, bytes moved, response percentiles, replication high-water",
        flags: &["--strike-at P1,P2,..."],
        run: kv_exp::fig14,
    },
    Figure {
        name: "scale",
        about: "(beyond paper) network-size sweeps at 64×64 (--mega: 128×128), no --paper tier: \
                matmul + bitonic, or Barnes-Hut with --bh",
        flags: &["--bh", "--timesteps N"],
        run: scale::run,
    },
];

/// The usage lines and the figure names, each with the extra flags it accepts.
fn usage() -> String {
    let figures: Vec<String> = FIGURES
        .iter()
        .map(|f| {
            f.flags
                .iter()
                .fold(f.name.to_string(), |s, flag| s + " [" + flag + "]")
        })
        .collect();
    format!(
        "usage: fig <figure> [--smoke|--paper|--mega] [--json FILE] [--seed N] [--jobs N] \
         [--resume] [--shard I/N] [--snapshot FILE] [figure flags]\n\
         \x20      fig merge OUT_SIDECAR SHARD_SIDECAR...   (stitch --shard checkpoints; \
         render with --resume)\n\
         \x20      fig trajectory diff [--strict] OLD_SNAPSHOT NEW_SNAPSHOT\n\
         \x20      fig --list | --help\n\
         figures: {}",
        figures.join(", ")
    )
}

/// What `fig --help` prints: the usage, then what each figure shows.
pub fn help() -> String {
    FIGURES
        .iter()
        .fold(usage(), |out, f| out + "\n  " + f.name + ": " + f.about)
}

/// Refuse a command line: `error: <msg>`, the usage and the figure list on
/// stderr, exit status 2.
pub fn usage_error(msg: &str) -> ! {
    operator_error(&format!("{msg}\n{}", usage()))
}
