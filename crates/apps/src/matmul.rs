//! Matrix multiplication (matrix square), Section 3.1 of the paper.
//!
//! The paper computes the matrix square `A := A · A` (rather than a general
//! product) because it forces the data-management strategies to invalidate
//! copies in the write phase. The `n × n` matrix is partitioned into `P`
//! blocks of `m = n²/P` integers; processor `p_{i,j}` owns block `A[i][j]`
//! (the only copy initially resides in its cache) and computes its new value
//! as `Σ_k A[i][k] · A[k][j]`.
//!
//! Three variants are provided:
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
use dm_diva::{Diva, Op, ProcProgram, RunReport, StepCtx, VarHandle};
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

/// State of the matrix-square program (see [`MatmulProgram`]).
enum MmState {
    /// About to enter the read phase.
    Start,
    /// Read-phase region entered; issue the first `A`-block read.
    ReadA,
    /// Waiting for the `A` block of round `kp`.
    AwaitA,
    /// Waiting for the `B` block of round `kp`.
    AwaitB,
    /// All reads done and barrier passed; enter the write phase.
    EnterWritePhase,
    /// Write-phase region entered; write the own block.
    WriteOwn,
    /// Own block written; final barrier.
    FinalBarrier,
    /// Final barrier passed; free the own (now dead) block.
    FreeOwn,
    /// Block freed; finish.
    Finish,
}

/// The shared-variable matrix square of one processor: the staggered read
/// schedule, the barrier and the write phase as an explicit state machine.
struct MatmulProgram {
    q: usize,
    side: usize,
    vars: Arc<Vec<VarHandle>>,
    i: usize,
    j: usize,
    kp: usize,
    a: Option<Arc<Vec<i64>>>,
    h: Vec<i64>,
    state: MmState,
}

impl MatmulProgram {
    fn new(proc: usize, q: usize, side: usize, vars: Arc<Vec<VarHandle>>) -> Self {
        MatmulProgram {
            q,
            side,
            vars,
            i: proc / q,
            j: proc % q,
            kp: 0,
            a: None,
            h: vec![0i64; side * side],
            state: MmState::Start,
        }
    }

    /// The staggered `k` of round `kp`: at most two processors read the same
    /// block in the same step.
    fn k(&self) -> usize {
        (self.kp + self.i + self.j) % self.q
    }
}

impl ProcProgram for MatmulProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        match self.state {
            MmState::Start => {
                self.state = MmState::ReadA;
                Op::Region("read-phase".to_string())
            }
            MmState::ReadA => {
                self.state = MmState::AwaitA;
                Op::Read(self.vars[self.i * self.q + self.k()])
            }
            MmState::AwaitA => {
                self.a = Some(ctx.take::<Vec<i64>>());
                self.state = MmState::AwaitB;
                Op::Read(self.vars[self.k() * self.q + self.j])
            }
            MmState::AwaitB => {
                let b = ctx.take::<Vec<i64>>();
                let a = self.a.take().expect("A block missing");
                block_multiply_add(&mut self.h, &a, &b, self.side);
                self.kp += 1;
                if self.kp < self.q {
                    self.state = MmState::AwaitA;
                    Op::Read(self.vars[self.i * self.q + self.k()])
                } else {
                    self.state = MmState::EnterWritePhase;
                    Op::Barrier
                }
            }
            MmState::EnterWritePhase => {
                self.state = MmState::WriteOwn;
                Op::Region("write-phase".to_string())
            }
            MmState::WriteOwn => {
                self.state = MmState::FinalBarrier;
                Op::Write(
                    self.vars[self.i * self.q + self.j],
                    Arc::new(self.h.clone()),
                )
            }
            MmState::FinalBarrier => {
                self.state = MmState::FreeOwn;
                Op::Barrier
            }
            MmState::FreeOwn => {
                // The blocks are dead after the final barrier: each processor
                // frees its own, exercising full copy-set teardown (readers
                // of the block hold copies all over the mesh). Pure
                // bookkeeping — all simulated quantities are bit-identical to
                // a run that leaks the blocks; only the report's
                // variable-lifecycle statistics move.
                self.state = MmState::Finish;
                Op::Free(vec![self.vars[self.i * self.q + self.j]])
            }
            MmState::Finish => Op::Done,
        }
    }
}

/// Run the matrix square through the DIVA shared-variable interface.
pub fn run_shared_driven(mut diva: Diva, params: MatmulParams) -> MatmulOutcome {
    let q = grid_side(&diva);
    let side = params.block_side();
    let vars = Arc::new(allocate_blocks(&mut diva, &params, q));
    let programs: Vec<MatmulProgram> = (0..q * q)
        .map(|p| MatmulProgram::new(p, q, side, Arc::clone(&vars)))
        .collect();
    let outcome = diva.run_driven(programs).expect_completed();
    MatmulOutcome {
        report: outcome.report,
        blocks: outcome.results.into_iter().map(|p| p.h).collect(),
    }
}

/// Message tags of the hand-optimized variant (one per forwarding direction).
const TAG_EAST: u64 = 1;
const TAG_WEST: u64 = 2;
const TAG_SOUTH: u64 = 3;
const TAG_NORTH: u64 = 4;

/// State of the hand-optimized program.
enum HoState {
    /// Issuing the kick-off sends of the four pipelines.
    Kickoff,
    /// Waiting for the block travelling in `cur_dir`.
    AwaitRecv,
    /// Forward send issued; the received block still has to be stored.
    AfterForward,
    /// Final barrier issued.
    Finish,
}

/// The hand-optimized matrix square of one processor: pipelined
/// neighbour-to-neighbour forwarding as an explicit state machine.
struct MatmulHandOptProgram {
    q: usize,
    side: usize,
    block_bytes: u32,
    i: usize,
    j: usize,
    row_blocks: Vec<Option<Vec<i64>>>,
    col_blocks: Vec<Option<Vec<i64>>>,
    /// Kick-off sends still to issue: `(to, tag, payload)`.
    kickoff: Vec<(usize, u64, (usize, Vec<i64>))>,
    /// Blocks still expected per direction (east←west, west←east,
    /// south←north, north←south).
    remaining: [usize; 4],
    /// Cyclic scan position over the four directions.
    scan: usize,
    /// Direction currently being received.
    cur_dir: usize,
    /// Received block waiting to be stored after its forward send.
    stash: Option<(usize, Vec<i64>)>,
    h: Vec<i64>,
    state: HoState,
}

impl MatmulHandOptProgram {
    fn new(proc: usize, q: usize, side: usize, block_bytes: u32) -> Self {
        let (i, j) = (proc / q, proc % q);
        let own: Vec<i64> = block_matrix(i, j, side);
        let mut row_blocks: Vec<Option<Vec<i64>>> = vec![None; q];
        let mut col_blocks: Vec<Option<Vec<i64>>> = vec![None; q];
        row_blocks[j] = Some(own.clone());
        col_blocks[i] = Some(own.clone());
        let proc_of = |r: usize, c: usize| r * q + c;
        // Kick off the four pipelines with the processor's own block.
        let mut kickoff = Vec::new();
        if j + 1 < q {
            kickoff.push((proc_of(i, j + 1), TAG_EAST, (j, own.clone())));
        }
        if j > 0 {
            kickoff.push((proc_of(i, j - 1), TAG_WEST, (j, own.clone())));
        }
        if i + 1 < q {
            kickoff.push((proc_of(i + 1, j), TAG_SOUTH, (i, own.clone())));
        }
        if i > 0 {
            kickoff.push((proc_of(i - 1, j), TAG_NORTH, (i, own)));
        }
        kickoff.reverse(); // issued by popping from the back
        MatmulHandOptProgram {
            q,
            side,
            block_bytes,
            i,
            j,
            row_blocks,
            col_blocks,
            kickoff,
            remaining: [j, q - 1 - j, i, q - 1 - i],
            scan: 0,
            cur_dir: 0,
            stash: None,
            h: Vec::new(),
            state: HoState::Kickoff,
        }
    }

    fn proc_of(&self, r: usize, c: usize) -> usize {
        r * self.q + c
    }

    /// The neighbour a block travelling in `dir` is received from.
    fn recv_source(&self, dir: usize) -> (usize, u64) {
        match dir {
            0 => (self.proc_of(self.i, self.j - 1), TAG_EAST),
            1 => (self.proc_of(self.i, self.j + 1), TAG_WEST),
            2 => (self.proc_of(self.i - 1, self.j), TAG_SOUTH),
            _ => (self.proc_of(self.i + 1, self.j), TAG_NORTH),
        }
    }

    /// Store a received block in the row/column table of its direction.
    fn store(&mut self, dir: usize, idx: usize, block: Vec<i64>) {
        if dir < 2 {
            self.row_blocks[idx] = Some(block);
        } else {
            self.col_blocks[idx] = Some(block);
        }
    }

    /// Pick the next direction with outstanding blocks (a cyclic scan, so
    /// all four pipelines keep moving) and issue its receive — or, when all
    /// pipelines have drained, compute the block product and issue the final
    /// barrier.
    fn next_op(&mut self) -> Op {
        for off in 0..4 {
            let dir = (self.scan + off) % 4;
            if self.remaining[dir] > 0 {
                self.remaining[dir] -= 1;
                self.scan = (dir + 1) % 4;
                self.cur_dir = dir;
                self.state = HoState::AwaitRecv;
                let (from, tag) = self.recv_source(dir);
                return Op::Recv { from, tag };
            }
        }
        // All blocks of row i and column j are local: compute the new block.
        let mut h = vec![0i64; self.side * self.side];
        for k in 0..self.q {
            let a = self.row_blocks[k].as_ref().expect("missing row block");
            let b = self.col_blocks[k].as_ref().expect("missing column block");
            block_multiply_add(&mut h, a, b, self.side);
        }
        self.h = h;
        self.state = HoState::Finish;
        Op::Barrier
    }

    /// Forward a block one hop along its pipeline, if it has further to go.
    fn forward(&mut self, dir: usize, idx: usize, block: &[i64]) -> Option<Op> {
        let to = match dir {
            0 if self.j + 1 < self.q => self.proc_of(self.i, self.j + 1),
            1 if self.j > 0 => self.proc_of(self.i, self.j - 1),
            2 if self.i + 1 < self.q => self.proc_of(self.i + 1, self.j),
            3 if self.i > 0 => self.proc_of(self.i - 1, self.j),
            _ => return None,
        };
        let tag = [TAG_EAST, TAG_WEST, TAG_SOUTH, TAG_NORTH][dir];
        Some(Op::Send {
            to,
            bytes: self.block_bytes,
            tag,
            value: Arc::new((idx, block.to_vec())),
        })
    }
}

impl ProcProgram for MatmulHandOptProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        match self.state {
            HoState::Kickoff => {
                if let Some((to, tag, payload)) = self.kickoff.pop() {
                    // Stay in Kickoff until all initial sends are out.
                    return Op::Send {
                        to,
                        bytes: self.block_bytes,
                        tag,
                        value: Arc::new(payload),
                    };
                }
                self.next_op()
            }
            HoState::AwaitRecv => {
                let msg = ctx.take::<(usize, Vec<i64>)>();
                let (idx, block) = (*msg).clone();
                let dir = self.cur_dir;
                if let Some(op) = self.forward(dir, idx, &block) {
                    self.stash = Some((idx, block));
                    self.state = HoState::AfterForward;
                    return op;
                }
                self.store(dir, idx, block);
                self.next_op()
            }
            HoState::AfterForward => {
                let (idx, block) = self.stash.take().expect("no forwarded block stashed");
                self.store(self.cur_dir, idx, block);
                self.next_op()
            }
            HoState::Finish => Op::Done,
        }
    }
}

/// Run the matrix square with the hand-optimized message-passing strategy:
/// every block is pipelined along its row and its column by
/// neighbour-to-neighbour messages, which achieves minimal congestion. The
/// baseline does not use shared variables; blocks live in local memory.
pub fn run_hand_optimized_driven(diva: Diva, params: MatmulParams) -> MatmulOutcome {
    let q = grid_side(&diva);
    let side = params.block_side();
    let word = diva.config().machine.word_bytes as usize;
    let block_bytes = (params.block_ints * word) as u32;
    let programs: Vec<MatmulHandOptProgram> = (0..q * q)
        .map(|p| MatmulHandOptProgram::new(p, q, side, block_bytes))
        .collect();
    let outcome = diva.run_driven(programs).expect_completed();
    MatmulOutcome {
        report: outcome.report,
        blocks: outcome.results.into_iter().map(|p| p.h).collect(),
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

    #[test]
    fn shared_version_computes_the_correct_square() {
        for strategy in [
            StrategyKind::AccessTree(TreeShape::quad()),
            StrategyKind::FixedHome,
        ] {
            let params = MatmulParams::new(16);
            let out = run_shared_driven(diva(4, strategy), params);
            let expected = reference_square(&initial_blocks(4, 4), 4, 4);
            assert_eq!(out.blocks, expected);
            // One block per processor, each freed by its owner at the end:
            // frees cost no time and move no traffic, so nothing else in the
            // report would notice one going missing.
            assert_eq!(out.report.vars_registered, 16, "{strategy:?}");
            assert_eq!(out.report.vars_freed, 16, "{strategy:?}");
        }
    }

    #[test]
    fn hand_optimized_version_computes_the_correct_square() {
        let params = MatmulParams::new(16);
        let out =
            run_hand_optimized_driven(diva(4, StrategyKind::AccessTree(TreeShape::quad())), params);
        let expected = reference_square(&initial_blocks(4, 4), 4, 4);
        assert_eq!(out.blocks, expected);
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
