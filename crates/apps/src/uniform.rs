//! Uniform-random shared-variable workload.
//!
//! The canonical synthetic workload of the data-management literature (and
//! of this repository's protocol microbenches): every processor performs a
//! fixed number of accesses, each to a variable drawn uniformly at random
//! from a shared pool, reading or writing with a configurable mix. Unlike
//! the structured applications (matrix square, bitonic, Barnes-Hut) it has
//! no exploitable locality, which makes it the cleanest probe of a
//! topology's raw congestion behaviour — the `fig12` cross-topology sweep
//! runs it next to Barnes-Hut on the mesh, torus, hypercube and fat tree.
//!
//! The workload is topology-agnostic by construction (it never looks at
//! coordinates).

use dm_diva::{Diva, Op, Partitioned, ProcProgram, RunOutcome, RunReport, StepCtx, VarHandle};
use dm_rng::ChaCha8Rng;
use std::sync::Arc;

/// Parameters of the uniform-random access workload.
#[derive(Debug, Clone, Copy)]
pub struct UniformParams {
    /// Number of shared variables in the pool (owners assigned round-robin).
    pub n_vars: usize,
    /// Accesses performed by every processor.
    pub ops_per_proc: usize,
    /// Percentage of accesses that are writes (`0..=100`).
    pub write_percent: u32,
    /// Size of every variable in bytes (determines message sizes).
    pub var_bytes: u32,
    /// Seed of the per-processor access streams.
    pub seed: u64,
}

impl UniformParams {
    /// A medium-contention default: a pool of `4·nprocs` variables, 64
    /// accesses per processor, 30% writes, 256-byte variables.
    pub fn new(nprocs: usize) -> Self {
        UniformParams {
            n_vars: 4 * nprocs,
            ops_per_proc: 64,
            write_percent: 30,
            var_bytes: 256,
            seed: 0x0FA7_500D,
        }
    }
}

/// Result of a uniform-random workload run.
pub struct UniformOutcome {
    /// Timing, congestion and protocol statistics.
    pub report: RunReport,
    /// Order-independent fold over every value read — equal across repeated
    /// runs of the same configuration (determinism check). In a degraded
    /// run this is the *partial* checksum over surviving processors.
    pub checksum: u64,
    /// Processors lost to node failures (empty unless the fault plan failed
    /// nodes before their programs finished); the run is degraded.
    pub procs_lost: Vec<usize>,
}

/// Execution state of a [`UniformProgram`].
enum UniformState {
    /// Issuing accesses.
    Running,
    /// All accesses issued; waiting at the closing barrier.
    AtBarrier,
    /// Barrier passed.
    Finished,
}

/// One processor of the uniform-random workload.
struct UniformProgram {
    vars: Arc<Vec<VarHandle>>,
    rng: ChaCha8Rng,
    ops_left: usize,
    write_percent: u32,
    /// The previous op was a read whose value arrives before this step.
    pending_read: bool,
    checksum: u64,
    state: UniformState,
}

impl UniformProgram {
    fn new(proc: usize, params: &UniformParams, vars: Arc<Vec<VarHandle>>) -> Self {
        UniformProgram {
            vars,
            rng: ChaCha8Rng::seed_from_u64(
                params.seed ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            ops_left: params.ops_per_proc,
            write_percent: params.write_percent,
            pending_read: false,
            checksum: 0,
            state: UniformState::Running,
        }
    }
}

impl ProcProgram for UniformProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        if self.pending_read {
            self.pending_read = false;
            self.checksum = self
                .checksum
                .rotate_left(7)
                .wrapping_add(*ctx.take::<u64>());
        }
        match self.state {
            UniformState::Running => {
                if self.ops_left == 0 {
                    self.state = UniformState::AtBarrier;
                    return Op::Barrier;
                }
                self.ops_left -= 1;
                let var = self.vars[self.rng.gen_range(0..self.vars.len() as u32) as usize];
                if self.rng.gen_range(0..100u32) < self.write_percent {
                    Op::Write(var, Arc::new(self.rng.next_u64()))
                } else {
                    self.pending_read = true;
                    Op::Read(var)
                }
            }
            UniformState::AtBarrier => {
                self.state = UniformState::Finished;
                Op::Done
            }
            UniformState::Finished => Op::Done,
        }
    }
}

/// Run the uniform-random workload: allocate the variable pool (round-robin
/// owners, deterministic initial values), run one access stream per
/// processor, close with a barrier.
pub fn run_uniform_driven(diva: Diva, params: UniformParams) -> UniformOutcome {
    match try_run_uniform_driven(diva, params) {
        Ok(out) => out,
        Err(p) => panic!(
            "uniform workload partitioned at {} ns (node {} unreachable)",
            p.at, p.unreachable
        ),
    }
}

/// Like [`run_uniform_driven`], but a fault plan that disconnects the
/// network yields `Err` (with the partial report) instead of panicking —
/// the graceful-degradation sweep (`fig13`) reports such points as
/// partitioned rows. A plan that fails nodes degrades the run instead:
/// `Ok` with [`UniformOutcome::procs_lost`] set and the checksum folded
/// over the surviving processors only (lost processors contribute an empty
/// slot).
// The Err carries the partial report by value; these run once per
// simulation, so the lint's by-value-return cost is irrelevant here.
#[allow(clippy::result_large_err)]
pub fn try_run_uniform_driven(
    mut diva: Diva,
    params: UniformParams,
) -> Result<UniformOutcome, Partitioned> {
    assert!(
        params.n_vars > 0,
        "the workload needs at least one variable"
    );
    assert!(params.write_percent <= 100);
    let nprocs = diva.num_procs();
    let vars: Vec<VarHandle> = (0..params.n_vars)
        .map(|i| {
            diva.alloc(
                i % nprocs,
                params.var_bytes,
                (i as u64).wrapping_mul(0xD134_57E6) ^ params.seed,
            )
        })
        .collect();
    let vars = Arc::new(vars);
    let programs: Vec<UniformProgram> = (0..nprocs)
        .map(|p| UniformProgram::new(p, &params, Arc::clone(&vars)))
        .collect();
    let (report, results, procs_lost) = match diva.run_driven(programs) {
        RunOutcome::Completed(done) => {
            let results = done.results.into_iter().map(Some).collect::<Vec<_>>();
            (done.report, results, Vec::new())
        }
        RunOutcome::Degraded(d) => {
            let lost = d.lost_procs.iter().map(|n| n.index()).collect();
            (d.report, d.results, lost)
        }
        RunOutcome::Partitioned(p) => return Err(p),
    };
    // Lost processors contribute an empty slot so the partial checksum
    // stays position-dependent.
    let checksum = results.iter().fold(0u64, |acc, p| match p {
        Some(p) => acc.rotate_left(13) ^ p.checksum,
        None => acc.rotate_left(13),
    });
    Ok(UniformOutcome {
        report,
        checksum,
        procs_lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_diva::{DivaConfig, StrategyKind};
    use dm_mesh::{AnyTopology, FatTree, Hypercube, Mesh, TreeShape};

    fn run(topo: AnyTopology, strategy: StrategyKind) -> UniformOutcome {
        let nprocs = topo.nodes();
        let diva = Diva::new(DivaConfig::on(topo, strategy));
        let params = UniformParams {
            ops_per_proc: 16,
            ..UniformParams::new(nprocs)
        };
        run_uniform_driven(diva, params)
    }

    fn topologies() -> Vec<AnyTopology> {
        vec![
            Mesh::square(4).into(),
            Mesh::torus(4, 4).into(),
            Hypercube::new(4).into(),
            FatTree::new(16).into(),
        ]
    }

    #[test]
    fn runs_on_every_topology_under_both_strategies() {
        for topo in topologies() {
            for strategy in [
                StrategyKind::AccessTree(TreeShape::quad()),
                StrategyKind::FixedHome,
            ] {
                let name = topo.name();
                let out = run(topo.clone(), strategy);
                assert!(out.report.total_time > 0, "{name} {strategy:?}");
                assert!(out.report.congestion_msgs() > 0, "{name} {strategy:?}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        for topo in topologies() {
            let a = run(topo.clone(), StrategyKind::AccessTree(TreeShape::binary()));
            let b = run(topo.clone(), StrategyKind::AccessTree(TreeShape::binary()));
            assert_eq!(a.checksum, b.checksum, "{}", topo.name());
            assert_eq!(a.report, b.report, "{}", topo.name());
        }
    }

    #[test]
    fn topology_changes_the_congestion_picture() {
        // Same seed and mix on two topologies of equal node count: the
        // wraparound links must change where (and how much) traffic
        // concentrates.
        let mesh = run(
            Mesh::square(4).into(),
            StrategyKind::AccessTree(TreeShape::quad()),
        );
        let torus = run(
            Mesh::torus(4, 4).into(),
            StrategyKind::AccessTree(TreeShape::quad()),
        );
        assert_ne!(
            mesh.report.congestion_bytes(),
            torus.report.congestion_bytes(),
            "wraparound links must change the congestion picture"
        );
    }
}
