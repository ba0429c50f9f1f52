//! Matrix multiplication (matrix square), Section 3.1 of the paper.
//!
//! The paper computes the matrix square `A := A · A` (rather than a general
//! product) because it forces the data-management strategies to invalidate
//! copies in the write phase. The `n × n` matrix is partitioned into `P`
//! blocks of `m = n²/P` integers; processor `p_{i,j}` owns block `A[i][j]`
//! (the only copy initially resides in its cache) and computes its new value
//! as `Σ_k A[i][k] · A[k][j]`.
//!
//! Both parallel variants are the paper's sequential per-processor code, one
//! [`Diva::run_prototype`] closure each:
//!
//! * [`run_shared_driven`] — the DIVA version: blocks are global variables,
//!   the read phase uses the staggered schedule of the paper (`k = (k' + i +
//!   j) mod √P`, so at most two processors read the same block in the same
//!   step), a barrier separates it from the write phase.
//! * [`run_hand_optimized_driven`] — the message-passing baseline: every
//!   processor pipelines its block along its row and column
//!   (neighbour-to-neighbour forwarding), which achieves minimal congestion
//!   `m · √P`.
//! * [`reference_square`] — a sequential implementation used to verify both.

use crate::workload::block_matrix;
use dm_diva::{Diva, RunReport, VarHandle};
use std::sync::Arc;

/// Parameters of the matrix-square experiment.
#[derive(Debug, Clone, Copy)]
pub struct MatmulParams {
    /// Block size `m` in matrix entries (the paper uses 64…4096 integers).
    /// Local block multiplication is not modelled: the paper's Figures 3
    /// and 4 measure the *communication* time.
    pub block_ints: usize,
}

impl MatmulParams {
    /// Parameters with a given block size.
    pub fn new(block_ints: usize) -> Self {
        MatmulParams { block_ints }
    }

    /// Side length `b` of a block (`m = b²`).
    ///
    /// # Panics
    /// Panics if `block_ints` is not a perfect square.
    pub(crate) fn block_side(&self) -> usize {
        let b = (self.block_ints as f64).sqrt().round() as usize;
        assert_eq!(
            b * b,
            self.block_ints,
            "block size must be a perfect square"
        );
        b
    }
}

/// The outcome of one matrix-square run.
pub struct MatmulOutcome {
    /// Simulation statistics.
    pub report: RunReport,
    /// Resulting blocks, indexed by processor id (row-major block order).
    pub blocks: Vec<Vec<i64>>,
}

/// Multiply two `b × b` blocks and add the result into `acc`.
pub(crate) fn block_multiply_add(acc: &mut [i64], a: &[i64], b: &[i64], side: usize) {
    debug_assert_eq!(acc.len(), side * side);
    debug_assert_eq!(a.len(), side * side);
    debug_assert_eq!(b.len(), side * side);
    for i in 0..side {
        for k in 0..side {
            let aik = a[i * side + k];
            if aik == 0 {
                continue;
            }
            for j in 0..side {
                acc[i * side + j] += aik * b[k * side + j];
            }
        }
    }
}

/// Sequentially compute the blocked matrix square of `blocks` (a `q × q` grid
/// of `b × b` blocks), returning the resulting blocks in the same layout.
pub fn reference_square(blocks: &[Vec<i64>], q: usize, side: usize) -> Vec<Vec<i64>> {
    let mut out = vec![vec![0i64; side * side]; q * q];
    for i in 0..q {
        for j in 0..q {
            for k in 0..q {
                let (a, b) = (&blocks[i * q + k], &blocks[k * q + j]);
                block_multiply_add(&mut out[i * q + j], a, b, side);
            }
        }
    }
    out
}

/// Allocate the initial blocks (one per processor, owned by that processor)
/// and return their handles in row-major block order.
fn allocate_blocks(diva: &mut Diva, params: &MatmulParams, q: usize) -> Vec<VarHandle> {
    let side = params.block_side();
    let bytes = (params.block_ints * diva.config().machine.word_bytes as usize) as u32;
    (0..q * q)
        .map(|p| {
            let (i, j) = (p / q, p % q);
            diva.alloc(p, bytes, block_matrix(i, j, side))
        })
        .collect()
}

/// Check that the network is a square grid and return its side length `√P`.
fn grid_side(diva: &Diva) -> usize {
    let (rows, cols) = diva
        .config()
        .topology
        .grid_dims()
        .expect("the matrix-square experiment requires a grid topology");
    assert_eq!(
        rows, cols,
        "the matrix-square experiment requires a square grid"
    );
    rows
}

/// Run the matrix square through the DIVA shared-variable interface.
pub fn run_shared_driven(mut diva: Diva, params: MatmulParams) -> MatmulOutcome {
    let q = grid_side(&diva);
    let side = params.block_side();
    let vars = &allocate_blocks(&mut diva, &params, q);
    let outcome = diva
        .run_prototype(|ctx| async move {
            let (i, j) = (ctx.proc_id() / q, ctx.proc_id() % q);
            let mut h = vec![0i64; side * side];
            ctx.region("read-phase").await;
            for kp in 0..q {
                // The staggered `k`: at most two processors read the same
                // block in the same step.
                let k = (kp + i + j) % q;
                let a = ctx.read::<Vec<i64>>(vars[i * q + k]).await;
                let b = ctx.read::<Vec<i64>>(vars[k * q + j]).await;
                block_multiply_add(&mut h, &a, &b, side);
            }
            ctx.barrier().await;
            ctx.region("write-phase").await;
            ctx.write(vars[i * q + j], h.clone()).await;
            ctx.barrier().await;
            // The blocks are dead after the final barrier: each processor
            // frees its own, exercising full copy-set teardown (readers of
            // the block hold copies all over the mesh). Pure bookkeeping —
            // all simulated quantities are bit-identical to a run that leaks
            // the blocks; only the report's variable-lifecycle statistics
            // move.
            ctx.free(&[vars[i * q + j]]).await;
            h
        })
        .expect_completed();
    MatmulOutcome {
        report: outcome.report,
        blocks: outcome.results,
    }
}

/// Message tags of the hand-optimized variant, one per forwarding direction:
/// east, west, south, north.
const TAGS: [u64; 4] = [1, 2, 3, 4];

/// Run the matrix square with the hand-optimized message-passing strategy:
/// every block is pipelined along its row and its column by
/// neighbour-to-neighbour messages, which achieves minimal congestion. The
/// baseline does not use shared variables; blocks live in local memory.
pub fn run_hand_optimized_driven(diva: Diva, params: MatmulParams) -> MatmulOutcome {
    let q = grid_side(&diva);
    let side = params.block_side();
    let word = diva.config().machine.word_bytes as usize;
    let bytes = (params.block_ints * word) as u32;
    let outcome = diva
        .run_prototype(|ctx| async move {
            let (i, j) = (ctx.proc_id() / q, ctx.proc_id() % q);
            // The neighbour one hop east, west, south or north (`dir` 0…3).
            let next = |dir: usize| {
                let (r, c) = match dir {
                    0 => (i, j + 1),
                    1 => (i, j.checked_sub(1)?),
                    2 => (i + 1, j),
                    _ => (i.checked_sub(1)?, j),
                };
                (r < q && c < q).then_some(r * q + c)
            };
            // Row `i` of the blocks travels east and west, column `j` south
            // and north: `blocks[dir / 2][k]` is `A[i][k]`, resp. `A[k][j]`.
            let own = Arc::new(block_matrix(i, j, side));
            let mut blocks = [vec![None; q], vec![None; q]];
            blocks[0][j] = Some(Arc::clone(&own));
            blocks[1][i] = Some(Arc::clone(&own));
            // Kick off the four pipelines with the own block.
            for dir in 0..4 {
                if let Some(to) = next(dir) {
                    let idx = if dir < 2 { j } else { i };
                    ctx.send_msg(to, bytes, TAGS[dir], (idx, Arc::clone(&own)))
                        .await;
                }
            }
            // Blocks still expected per direction; a cyclic scan over the
            // directions keeps all four pipelines moving.
            let mut remaining = [j, q - 1 - j, i, q - 1 - i];
            let mut scan = 0;
            while let Some(dir) = (scan..scan + 4).map(|d| d % 4).find(|&d| remaining[d] > 0) {
                remaining[dir] -= 1;
                scan = dir + 1;
                let from = next(dir ^ 1).expect("a block arrives from upstream");
                let msg = ctx
                    .recv_msg::<(usize, Arc<Vec<i64>>)>(from, TAGS[dir])
                    .await;
                let (idx, block) = (*msg).clone();
                // Forward the block one hop along its pipeline before
                // storing it, if it has further to go.
                if let Some(to) = next(dir) {
                    ctx.send_msg(to, bytes, TAGS[dir], (idx, Arc::clone(&block)))
                        .await;
                }
                blocks[dir / 2][idx] = Some(block);
            }
            // All blocks of row i and column j are local: compute the new
            // block.
            let mut h = vec![0i64; side * side];
            for (a, b) in blocks[0].iter().zip(&blocks[1]) {
                let a = a.as_ref().expect("missing row block");
                let b = b.as_ref().expect("missing column block");
                block_multiply_add(&mut h, a, b, side);
            }
            ctx.barrier().await;
            h
        })
        .expect_completed();
    MatmulOutcome {
        report: outcome.report,
        blocks: outcome.results,
    }
}

/// The initial blocks of the experiment (used by tests to verify results).
pub fn initial_blocks(q: usize, side: usize) -> Vec<Vec<i64>> {
    (0..q * q)
        .map(|p| block_matrix(p / q, p % q, side))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_diva::{DivaConfig, StrategyKind};
    use dm_mesh::{Mesh, TreeShape};

    fn diva(side: usize, strategy: StrategyKind) -> Diva {
        Diva::new(DivaConfig::on(Mesh::square(side), strategy))
    }

    #[test]
    fn block_multiply_matches_naive() {
        let a = vec![1, 2, 3, 4];
        let b = vec![5, 6, 7, 8];
        let mut acc = vec![0i64; 4];
        block_multiply_add(&mut acc, &a, &b, 2);
        assert_eq!(acc, vec![19, 22, 43, 50]);
    }

    #[test]
    fn reference_square_of_identity_blocks() {
        // A block-diagonal identity squared is itself.
        let q = 2;
        let side = 2;
        let mut blocks = vec![vec![0i64; 4]; 4];
        blocks[0] = vec![1, 0, 0, 1];
        blocks[3] = vec![1, 0, 0, 1];
        let sq = reference_square(&blocks, q, side);
        assert_eq!(sq, blocks);
    }

    /// Meshes of side 1 and 2 are the edge shapes: a processor without
    /// neighbours, and one whose staggered schedule has a single other
    /// block per row.
    #[test]
    fn shared_version_computes_the_correct_square() {
        for q in [1, 2, 4] {
            for strategy in [
                StrategyKind::AccessTree(TreeShape::quad()),
                StrategyKind::FixedHome,
            ] {
                let params = MatmulParams::new(16);
                let out = run_shared_driven(diva(q, strategy), params);
                let expected = reference_square(&initial_blocks(q, 4), q, 4);
                assert_eq!(out.blocks, expected, "{q}×{q} {strategy:?}");
                // One block per processor, each freed by its owner at the
                // end: frees cost no time and move no traffic, so nothing
                // else in the report would notice one going missing.
                let procs = (q * q) as u64;
                assert_eq!(out.report.vars_registered, procs, "{q}×{q} {strategy:?}");
                assert_eq!(out.report.vars_freed, procs, "{q}×{q} {strategy:?}");
            }
        }
    }

    #[test]
    fn hand_optimized_version_computes_the_correct_square() {
        for q in [1, 2, 4] {
            let params = MatmulParams::new(16);
            let strategy = StrategyKind::AccessTree(TreeShape::quad());
            let out = run_hand_optimized_driven(diva(q, strategy), params);
            let expected = reference_square(&initial_blocks(q, 4), q, 4);
            assert_eq!(out.blocks, expected, "{q}×{q}");
        }
    }

    #[test]
    fn shared_and_hand_optimized_agree_on_a_bigger_mesh() {
        let params = MatmulParams::new(64);
        let a = run_shared_driven(diva(8, StrategyKind::AccessTree(TreeShape::quad())), params);
        let b = run_hand_optimized_driven(diva(8, StrategyKind::FixedHome), params);
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn shared_run_is_exact_under_an_active_fault_plan() {
        // A seeded plan that degrades links mid-run — permanently and
        // through a transient window that heals — loses nothing: fault and
        // recovery application are events like any other. (Node-failure
        // plans fail-stop programs and are gated separately; here every
        // program completes, so the numeric result must still be exact.)
        use dm_diva::FaultPlan;
        for strategy in [
            StrategyKind::AccessTree(TreeShape::quad()),
            StrategyKind::FixedHome,
        ] {
            let plan = FaultPlan::new(0xFA01)
                .degrade_links(0.2, 0.5, 200_000)
                .degrade_links_for(0.3, 0.25, 600_000, 400_000);
            let mk =
                |s| Diva::new(DivaConfig::on(Mesh::square(4), s).with_fault_plan(plan.clone()));
            let params = MatmulParams::new(64);
            let out = run_shared_driven(mk(strategy), params);
            // The result is still correct despite the turbulence.
            let side = params.block_side();
            let expected = reference_square(&initial_blocks(4, side), 4, side);
            assert_eq!(out.blocks, expected, "{strategy:?}");
            assert!(out.report.faults.links_degraded > 0, "{strategy:?}");
            assert!(out.report.faults.links_healed > 0, "{strategy:?}");
            assert_eq!(out.report.faults.nodes_failed, 0, "{strategy:?}");
        }
    }

    #[test]
    fn hand_optimized_congestion_is_close_to_the_lower_bound() {
        // The paper: the hand-optimized strategy achieves congestion m·√P
        // (in words). Allow protocol headers as slack.
        let params = MatmulParams::new(256);
        let out = run_hand_optimized_driven(diva(4, StrategyKind::FixedHome), params);
        let word = 4;
        let lower_bound = (256 * word * 4) as u64; // m bytes · √P
        let measured = out.report.congestion_bytes();
        assert!(
            measured >= lower_bound / 2,
            "congestion {measured} below plausible range"
        );
        assert!(
            measured <= lower_bound * 2,
            "congestion {measured} far above the m·√P bound {lower_bound}"
        );
    }

    #[test]
    fn access_tree_produces_less_congestion_than_fixed_home() {
        // The central claim of Figure 3, at small scale.
        let params = MatmulParams::new(256);
        let at = run_shared_driven(diva(8, StrategyKind::AccessTree(TreeShape::quad())), params);
        let fh = run_shared_driven(diva(8, StrategyKind::FixedHome), params);
        assert!(
            at.report.congestion_bytes() < fh.report.congestion_bytes(),
            "access tree {} vs fixed home {}",
            at.report.congestion_bytes(),
            fh.report.congestion_bytes()
        );
    }

    #[test]
    fn read_phase_carries_almost_all_the_traffic() {
        let params = MatmulParams::new(256);
        let out = run_shared_driven(diva(4, StrategyKind::AccessTree(TreeShape::quad())), params);
        let read = out.report.region("read-phase").unwrap();
        let write = out.report.region("write-phase").unwrap();
        assert!(read.total_bytes > 5 * write.total_bytes);
    }
}
