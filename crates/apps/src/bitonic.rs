//! Bitonic sorting, Section 3.2 of the paper.
//!
//! A variant of Batcher's bitonic sorting circuit: every processor simulates
//! one wire and holds `m` keys; the compare-exchange operation of the circuit
//! is replaced by a merge&split (the lower wire keeps the smaller half of the
//! merged key sequence, the upper wire the larger half). Wires are assigned to
//! processors through the left-to-right leaf numbering of the mesh
//! decomposition tree, so both the arrangement of the merging circuits and
//! their internal structure map to topological locality — the locality the
//! access-tree strategy exploits.
//!
//! Variants:
//!
//! * [`run_shared_driven`] — DIVA version: each wire's keys live in a global
//!   variable; a merge&split step reads the partner's variable and rewrites
//!   the own one, with barriers separating the read and write halves of every
//!   step.
//! * [`run_hand_optimized_driven`] — message-passing baseline: partners
//!   simply exchange their keys with two point-to-point messages per step
//!   (optimal congestion for this embedding).

use crate::workload::sort_keys;
use dm_diva::{Diva, Op, ProcProgram, RunReport, StepCtx, VarHandle};
use dm_mesh::{DecompositionTree, TreeShape};
use std::sync::Arc;

/// Parameters of the bitonic-sorting experiment.
#[derive(Debug, Clone, Copy)]
pub struct BitonicParams {
    /// Keys per processor (the paper uses 256…16384).
    pub keys_per_proc: usize,
    /// Seed of the random input keys.
    pub seed: u64,
}

impl BitonicParams {
    /// Parameters with the given number of keys per processor.
    pub fn new(keys_per_proc: usize) -> Self {
        BitonicParams {
            keys_per_proc,
            seed: 0xB170_41C5,
        }
    }
}

/// Outcome of a sorting run: the report plus the final keys per *wire*
/// (wire order, i.e. already in globally sorted order if the sort worked).
pub struct BitonicOutcome {
    /// Simulation statistics.
    pub report: RunReport,
    /// Final keys per wire, in wire order.
    pub keys_per_wire: Vec<Vec<u64>>,
}

/// One compare-exchange of the bitonic circuit: `(wire_low, wire_high,
/// ascending)` — after the step, the smaller keys are on `wire_low` if
/// `ascending`, on `wire_high` otherwise.
pub(crate) type Comparator = (usize, usize, bool);

/// The merge&split steps of the bitonic sorting circuit for `p` wires
/// (a power of two), grouped by parallel step.
pub(crate) fn bitonic_schedule(p: usize) -> Vec<Vec<Comparator>> {
    assert!(
        p.is_power_of_two(),
        "bitonic sort requires a power-of-two number of wires"
    );
    let mut steps = Vec::new();
    let mut k = 2;
    while k <= p {
        let mut j = k / 2;
        while j >= 1 {
            let mut step = Vec::new();
            for wire in 0..p {
                let partner = wire ^ j;
                if partner > wire {
                    let ascending = wire & k == 0;
                    step.push((wire, partner, ascending));
                }
            }
            steps.push(step);
            j /= 2;
        }
        k *= 2;
    }
    steps
}

/// For every wire and step, its partner wire and whether it keeps the lower
/// half of the merged keys.
fn per_wire_schedule(p: usize) -> Vec<Vec<(usize, bool)>> {
    let steps = bitonic_schedule(p);
    let mut per_wire = vec![Vec::with_capacity(steps.len()); p];
    for step in &steps {
        for &(lo, hi, ascending) in step {
            per_wire[lo].push((hi, ascending));
            per_wire[hi].push((lo, !ascending));
        }
    }
    per_wire
}

/// Merge two sorted sequences and keep the lower (`keep_low`) or upper half.
pub(crate) fn merge_split(mine: &[u64], other: &[u64], keep_low: bool) -> Vec<u64> {
    debug_assert_eq!(mine.len(), other.len());
    let m = mine.len();
    let mut merged = Vec::with_capacity(2 * m);
    merged.extend_from_slice(mine);
    merged.extend_from_slice(other);
    merged.sort_unstable();
    if keep_low {
        merged[..m].to_vec()
    } else {
        merged[m..].to_vec()
    }
}

/// Modelled cost of a merge&split (merging `2m` keys ≈ `2m` integer
/// comparisons plus data movement).
fn merge_ops(m: usize) -> u64 {
    4 * m as u64
}

/// Modelled cost of the initial local sort of `m` keys (`m log m`
/// comparisons).
fn sort_ops(m: usize) -> u64 {
    m as u64 * u64::from((m.max(2) as u64).ilog2())
}

/// The wire → processor assignment: wire `w` is simulated by the `w`-th
/// processor in the left-to-right leaf order of the mesh decomposition tree.
pub(crate) fn wire_to_proc(diva: &Diva) -> Vec<usize> {
    let tree = DecompositionTree::build_on(&diva.config().topology, TreeShape::binary());
    tree.leaf_order().iter().map(|n| n.index()).collect()
}

/// State of the shared-variable bitonic program.
enum BtState {
    /// Read the own wire's keys.
    Start,
    /// Own keys arrived; account the initial sort and start the first step.
    AwaitOwn,
    /// Waiting for the partner's keys of the current step.
    AwaitPartner,
    /// Partner keys stashed; the pre-write barrier was issued.
    Barriered,
    /// Own variable rewritten; the post-write barrier was issued.
    Written,
    /// Post-write barrier passed; start the next step.
    BetweenRounds,
    /// The own (now dead) wire variable was freed after the last step.
    Freed,
    /// All steps done.
    Finish,
}

/// One wire of the shared-variable bitonic sort.
struct BitonicProgram {
    wire: usize,
    var_own: VarHandle,
    vars: Arc<Vec<VarHandle>>,
    schedule: Arc<Vec<Vec<(usize, bool)>>>,
    step_idx: usize,
    mine: Vec<u64>,
    other: Option<Arc<Vec<u64>>>,
    state: BtState,
}

impl BitonicProgram {
    /// Issue the partner read of step `step_idx`, or the end of the program.
    fn next_round(&mut self) -> Op {
        match self.schedule[self.wire].get(self.step_idx) {
            Some(&(partner, _)) => {
                self.state = BtState::AwaitPartner;
                Op::Read(self.vars[partner])
            }
            None => {
                // All merge&split steps are behind the last barrier: the
                // wire variables are dead, so each processor frees its own.
                // Pure bookkeeping — all simulated quantities are
                // bit-identical to a leaking run; only the
                // variable-lifecycle statistics move.
                self.state = BtState::Freed;
                Op::Free(vec![self.var_own])
            }
        }
    }
}

impl ProcProgram for BitonicProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        match self.state {
            BtState::Start => {
                self.state = BtState::AwaitOwn;
                Op::Read(self.var_own)
            }
            BtState::AwaitOwn => {
                self.mine = (*ctx.take::<Vec<u64>>()).clone();
                // Initial local sort: m log m comparisons (already sorted
                // here, but the real algorithm pays for it).
                ctx.compute_int_ops(sort_ops(self.mine.len()));
                self.next_round()
            }
            BtState::AwaitPartner => {
                // The partner's current keys are read; wait until everybody
                // has read before overwriting the own variable.
                self.other = Some(ctx.take::<Vec<u64>>());
                self.state = BtState::Barriered;
                Op::Barrier
            }
            BtState::Barriered => {
                let other = self.other.take().expect("partner keys missing");
                let (_, keep_low) = self.schedule[self.wire][self.step_idx];
                ctx.compute_int_ops(merge_ops(self.mine.len()));
                self.mine = merge_split(&self.mine, &other, keep_low);
                self.state = BtState::Written;
                Op::Write(self.var_own, Arc::new(self.mine.clone()))
            }
            BtState::Written => {
                self.step_idx += 1;
                // The post-write barrier; the next round starts afterwards.
                self.state = BtState::BetweenRounds;
                Op::Barrier
            }
            BtState::BetweenRounds => self.next_round(),
            BtState::Freed => {
                self.state = BtState::Finish;
                Op::Done
            }
            BtState::Finish => Op::Done,
        }
    }
}

/// Run the bitonic sort through the DIVA shared-variable interface.
pub fn run_shared_driven(mut diva: Diva, params: BitonicParams) -> BitonicOutcome {
    let p = diva.num_procs();
    let m = params.keys_per_proc;
    let wire_of_proc = invert(&wire_to_proc(&diva));
    let word = diva.config().machine.word_bytes.max(4) as usize;
    let bytes = (m * word) as u32;
    // One global variable per wire, owned by the processor simulating it.
    let proc_of_wire = wire_to_proc(&diva);
    let vars: Vec<VarHandle> = (0..p)
        .map(|w| {
            let mut keys = sort_keys(params.seed, w, m);
            keys.sort_unstable();
            diva.alloc(proc_of_wire[w], bytes, keys)
        })
        .collect();
    let vars = Arc::new(vars);
    let schedule = Arc::new(per_wire_schedule(p));
    let programs: Vec<BitonicProgram> = (0..p)
        .map(|proc| {
            let wire = wire_of_proc[proc];
            BitonicProgram {
                wire,
                var_own: vars[wire],
                vars: Arc::clone(&vars),
                schedule: Arc::clone(&schedule),
                step_idx: 0,
                mine: Vec::new(),
                other: None,
                state: BtState::Start,
            }
        })
        .collect();
    let outcome = diva.run_driven(programs).expect_completed();
    let mut keys_per_wire = vec![Vec::new(); p];
    for prog in outcome.results {
        keys_per_wire[prog.wire] = prog.mine;
    }
    BitonicOutcome {
        report: outcome.report,
        keys_per_wire,
    }
}

/// State of the hand-optimized bitonic program.
enum BtHoState {
    /// Send the own keys of the current step.
    SendMine,
    /// Send issued; receive the partner's keys.
    Sent,
    /// Waiting for the partner's keys.
    AwaitOther,
    /// Final barrier issued.
    Finish,
}

/// One wire of the hand-optimized bitonic sort.
struct BitonicHandOptProgram {
    wire: usize,
    proc_of_wire: Arc<Vec<usize>>,
    schedule: Arc<Vec<Vec<(usize, bool)>>>,
    bytes: u32,
    step_idx: usize,
    mine: Vec<u64>,
    state: BtHoState,
}

impl ProcProgram for BitonicHandOptProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        match self.state {
            BtHoState::SendMine => {
                if self.step_idx == 0 {
                    ctx.compute_int_ops(sort_ops(self.mine.len()));
                }
                match self.schedule[self.wire].get(self.step_idx) {
                    Some(&(partner, _)) => {
                        self.state = BtHoState::Sent;
                        Op::Send {
                            to: self.proc_of_wire[partner],
                            bytes: self.bytes,
                            tag: self.step_idx as u64,
                            value: Arc::new(self.mine.clone()),
                        }
                    }
                    None => {
                        self.state = BtHoState::Finish;
                        Op::Barrier
                    }
                }
            }
            BtHoState::Sent => {
                let (partner, _) = self.schedule[self.wire][self.step_idx];
                self.state = BtHoState::AwaitOther;
                Op::Recv {
                    from: self.proc_of_wire[partner],
                    tag: self.step_idx as u64,
                }
            }
            BtHoState::AwaitOther => {
                let other = ctx.take::<Vec<u64>>();
                let (_, keep_low) = self.schedule[self.wire][self.step_idx];
                ctx.compute_int_ops(merge_ops(self.mine.len()));
                self.mine = merge_split(&self.mine, &other, keep_low);
                self.step_idx += 1;
                self.state = BtHoState::SendMine;
                self.step(ctx)
            }
            BtHoState::Finish => Op::Done,
        }
    }
}

/// Run the bitonic sort with the hand-optimized message-passing strategy.
pub fn run_hand_optimized_driven(diva: Diva, params: BitonicParams) -> BitonicOutcome {
    let p = diva.num_procs();
    let m = params.keys_per_proc;
    let wire_of_proc = invert(&wire_to_proc(&diva));
    let proc_of_wire = Arc::new(wire_to_proc(&diva));
    let word = diva.config().machine.word_bytes.max(4) as usize;
    let bytes = (m * word) as u32;
    let schedule = Arc::new(per_wire_schedule(p));
    let programs: Vec<BitonicHandOptProgram> = (0..p)
        .map(|proc| {
            let wire = wire_of_proc[proc];
            let mut mine = sort_keys(params.seed, wire, m);
            mine.sort_unstable();
            BitonicHandOptProgram {
                wire,
                proc_of_wire: Arc::clone(&proc_of_wire),
                schedule: Arc::clone(&schedule),
                bytes,
                step_idx: 0,
                mine,
                state: BtHoState::SendMine,
            }
        })
        .collect();
    let outcome = diva.run_driven(programs).expect_completed();
    let mut keys_per_wire = vec![Vec::new(); p];
    for prog in outcome.results {
        keys_per_wire[prog.wire] = prog.mine;
    }
    BitonicOutcome {
        report: outcome.report,
        keys_per_wire,
    }
}

/// Check that the keys are globally sorted across wires (and locally within
/// every wire) and that they are a permutation of the generated input.
pub fn verify_sorted(out: &BitonicOutcome, params: &BitonicParams) -> Result<(), String> {
    let p = out.keys_per_wire.len();
    let m = params.keys_per_proc;
    let mut all: Vec<u64> = Vec::with_capacity(p * m);
    let mut prev_max: Option<u64> = None;
    for (wire, keys) in out.keys_per_wire.iter().enumerate() {
        if keys.len() != m {
            return Err(format!(
                "wire {wire} holds {} keys, expected {m}",
                keys.len()
            ));
        }
        if keys.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("wire {wire} is not locally sorted"));
        }
        if let (Some(pm), Some(&first)) = (prev_max, keys.first()) {
            if pm > first {
                return Err(format!(
                    "wire {wire} starts below the previous wire's maximum"
                ));
            }
        }
        prev_max = keys.last().copied();
        all.extend_from_slice(keys);
    }
    let mut expected: Vec<u64> = (0..p).flat_map(|w| sort_keys(params.seed, w, m)).collect();
    expected.sort_unstable();
    all.sort_unstable();
    if all != expected {
        return Err("output keys are not a permutation of the input keys".to_string());
    }
    Ok(())
}

/// Invert a permutation.
fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; perm.len()];
    for (i, &v) in perm.iter().enumerate() {
        inv[v] = i;
    }
    inv
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
    fn schedule_has_the_right_depth_and_width() {
        for p in [2usize, 4, 8, 16, 64] {
            let steps = bitonic_schedule(p);
            let logp = p.ilog2() as usize;
            assert_eq!(steps.len(), logp * (logp + 1) / 2);
            for step in &steps {
                assert_eq!(step.len(), p / 2);
            }
        }
    }

    #[test]
    fn schedule_matches_figure_5_for_eight_wires() {
        // Figure 5 of the paper: 8 wires, 6 steps; the first step compares
        // neighbouring wires with alternating directions.
        let steps = bitonic_schedule(8);
        assert_eq!(steps.len(), 6);
        assert_eq!(
            steps[0],
            vec![(0, 1, true), (2, 3, false), (4, 5, true), (6, 7, false)]
        );
        // The final merging phase compares with stride 4, 2, 1, all ascending.
        assert!(steps[3].iter().all(|&(a, b, asc)| asc && b == a + 4));
        assert!(steps[5].iter().all(|&(a, b, asc)| asc && b == a + 1));
    }

    #[test]
    fn merge_split_keeps_the_right_halves() {
        let a = vec![1, 4, 6, 9];
        let b = vec![2, 3, 7, 8];
        assert_eq!(merge_split(&a, &b, true), vec![1, 2, 3, 4]);
        assert_eq!(merge_split(&a, &b, false), vec![6, 7, 8, 9]);
    }

    #[test]
    fn shared_version_sorts_correctly() {
        for strategy in [
            StrategyKind::AccessTree(TreeShape::lk(2, 4)),
            StrategyKind::FixedHome,
        ] {
            let params = BitonicParams::new(32);
            let out = run_shared_driven(diva(4, strategy), params);
            verify_sorted(&out, &params).unwrap();
            // Every processor frees its wire variable after the last step;
            // a free costs no time and moves no traffic, so nothing else in
            // the report would notice one going missing.
            assert_eq!(out.report.vars_freed, 16, "{strategy:?}");
        }
    }

    #[test]
    fn hand_optimized_version_sorts_correctly() {
        let params = BitonicParams::new(64);
        let out = run_hand_optimized_driven(diva(4, StrategyKind::FixedHome), params);
        verify_sorted(&out, &params).unwrap();
    }

    #[test]
    fn shared_version_sorts_on_a_non_trivial_mesh() {
        let params = BitonicParams::new(16);
        let out = run_shared_driven(diva(8, StrategyKind::AccessTree(TreeShape::quad())), params);
        verify_sorted(&out, &params).unwrap();
    }

    #[test]
    fn access_tree_congestion_stays_below_fixed_home() {
        let params = BitonicParams::new(256);
        let at = run_shared_driven(
            diva(4, StrategyKind::AccessTree(TreeShape::lk(2, 4))),
            params,
        );
        let fh = run_shared_driven(diva(4, StrategyKind::FixedHome), params);
        assert!(
            at.report.congestion_bytes() <= fh.report.congestion_bytes(),
            "access tree {} vs fixed home {}",
            at.report.congestion_bytes(),
            fh.report.congestion_bytes()
        );
    }

    #[test]
    fn verify_rejects_unsorted_output() {
        let params = BitonicParams::new(8);
        let mut out = run_hand_optimized_driven(diva(2, StrategyKind::FixedHome), params);
        out.keys_per_wire[0][0] = u64::MAX; // corrupt
        assert!(verify_sorted(&out, &params).is_err());
    }
}
