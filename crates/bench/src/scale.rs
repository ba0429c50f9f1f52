//! Beyond-paper scaling (the `scale` figure): network-size sweeps extended
//! to mesh sizes the paper's platform could never reach (64×64 = 4096 and
//! 128×128 = 16384 processors).

use crate::bh_exp::{self, BhRow};
use crate::bitonic_exp::{self, BitonicRow};
use crate::executor::Job;
use crate::figures::usage_error;
use crate::matmul_exp::{self, MatmulRow};
use crate::stream::run_rows;
use crate::table::{emit, print_table};
use crate::{impl_to_json, ExtraFlags, HarnessOpts, Scale};
use std::time::Instant;

/// The `--json` payload: every sweep the scaling scenario ran.
#[derive(Default)]
struct ScaleRows {
    matmul: Vec<MatmulRow>,
    bitonic: Vec<BitonicRow>,
    barnes_hut: Vec<BhRow>,
}

impl_to_json!(ScaleRows {
    matmul,
    bitonic,
    barnes_hut,
});

/// Figure-4/7-style: fixed block size and keys per processor, growing mesh.
const BLOCK: usize = 256;
const KEYS: usize = 256;

/// Figure-11-style: the body count grows with the processor count. 25
/// bodies per processor keeps the per-point runtime in minutes while the
/// 64×64 point still simulates ≥100 000 bodies.
const BODIES_PER_PROC: usize = 25;

fn run_barnes_hut(opts: &HarnessOpts, sides: &[usize]) -> Option<Vec<BhRow>> {
    // `--timesteps 7` pushes a mega sweep to the paper's step count —
    // affordable only because per-step reclamation caps protocol state at
    // O(cells per step).
    let params = bh_exp::sweep_params(opts, 0, 3, 1);
    let meshes: Vec<(usize, usize)> = sides.iter().map(|&s| (s, s)).collect();
    // Wrap to keep the per-point progress lines on stderr (they are not
    // part of the golden-diffed stdout).
    let jobs = bh_exp::scaling_jobs(opts, &meshes, BODIES_PER_PROC, params)
        .into_iter()
        .map(|inner| {
            Job::new(inner.weight, move || {
                let t = Instant::now();
                let row = inner.call();
                eprintln!(
                    "barnes-hut {}x{} n={} {} done in {:.1?}",
                    row.mesh.0,
                    row.mesh.1,
                    row.n_bodies,
                    row.strategy,
                    t.elapsed()
                );
                row
            })
        })
        .collect();
    run_rows(opts, "bh", jobs)
}

/// Bitonic sorting, Figure-7 style: fixed keys per processor, growing mesh.
fn run_bitonic(opts: &HarnessOpts, sides: &[usize]) -> Option<Vec<BitonicRow>> {
    let points: Vec<(usize, usize)> = sides.iter().map(|&s| (s, KEYS)).collect();
    bitonic_exp::sweep(&points, &bitonic_exp::figure_strategies(), opts, "bitonic")
}

/// `scale`: block and key sizes are reduced relative to the paper sweeps so
/// the simulated data volume per processor stays constant while the network
/// grows — the regime where the congestion-ratio curves of Figures 4 and 7
/// are interesting.
///
/// Modes:
/// * default — Figure-4/7-style matmul and bitonic sweeps up to 64×64;
/// * `--bh` — a Figure-11-style Barnes-Hut sweep instead (25 bodies per
///   processor, so the 64×64 point simulates 102 400 bodies);
/// * `--mega` — adds the 128×128 points to either mode (for `--bh` that is
///   409 600 bodies — expect ~20 minutes for the two strategies);
/// * `--smoke` — 4×4 and 8×8 only, for the CI figure-suite gate.
///
/// `--paper` is refused: the figure is beyond-paper by design.
pub(crate) fn run(opts: &HarnessOpts, flags: &ExtraFlags) {
    let sides: Vec<usize> = match opts.scale {
        Scale::Paper => usage_error("scale has no --paper tier"),
        Scale::Mega => vec![16, 32, 64, 128],
        // CI tier: exercise the sweep machinery, not the scale.
        Scale::Smoke => vec![4, 8],
        Scale::Default => vec![16, 32, 64],
    };
    let mut payload = ScaleRows::default();

    if flags.has("--bh") {
        let Some(rows) = run_barnes_hut(opts, &sides) else {
            return;
        };
        payload.barnes_hut = rows;
        let title =
            format!("Beyond-paper scaling — Barnes-Hut, {BODIES_PER_PROC} bodies per processor");
        let (columns, rows) = (bh_exp::SCALING_COLUMNS, &payload.barnes_hut);
        emit(opts, "scale", &title, columns, rows, &payload);
        return;
    }

    // Matrix square, Figure-4 style: fixed block size, growing mesh.
    let matmul_points: Vec<(usize, usize)> = sides.iter().map(|&s| (s, BLOCK)).collect();
    let t = Instant::now();
    // A shard or cut-short run checkpoints each sweep into its own tagged
    // sidecar and renders nothing; `--resume` finishes both and renders.
    let Some(matmul_rows) = matmul_exp::sweep(
        &matmul_points,
        &matmul_exp::figure_strategies(),
        opts,
        "matmul",
    ) else {
        // Still push the bitonic shard through its own sidecar, so one
        // `scale --shard i/n` invocation advances both sweeps.
        let _ = run_bitonic(opts, &sides);
        return;
    };
    payload.matmul = matmul_rows;
    eprintln!("matmul sweep done in {:.1?}", t.elapsed());
    print_table(
        &format!("Beyond-paper scaling — matrix multiplication, block size {BLOCK}"),
        matmul_exp::MESH_COLUMNS,
        &payload.matmul,
    );

    let t = Instant::now();
    let Some(bitonic_rows) = run_bitonic(opts, &sides) else {
        return;
    };
    payload.bitonic = bitonic_rows;
    eprintln!("bitonic sweep done in {:.1?}", t.elapsed());
    let title = format!("Beyond-paper scaling — bitonic sorting, {KEYS} keys per processor");
    let (columns, rows) = (bitonic_exp::MESH_COLUMNS, &payload.bitonic);
    emit(opts, "scale", &title, columns, rows, &payload);
}
