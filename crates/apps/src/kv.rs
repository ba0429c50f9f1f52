//! A trace-driven KV/cache serving tier over DIVA global variables.
//!
//! The paper proves the access-tree strategy competitive for *arbitrary*
//! access patterns, but the structured applications (matrix square, bitonic,
//! Barnes-Hut) all lack the skewed, time-varying traffic a production
//! replication tier actually serves. This module closes that gap: every
//! client processor runs a request stream against a shared key space with
//!
//! * **uniform popularity** ([`KeyDist::Uniform`]) — with no churn, this is
//!   the uniform-random workload of [`crate::uniform`];
//! * **Zipf-skewed popularity** ([`KeyDist::Zipf`]) — deterministic
//!   inverse-CDF sampling off `dm-rng` ([`crate::workload::ZipfSampler`]);
//! * **migrating hotspots** ([`KeyDist::Hotspot`]) — a popular window that
//!   jumps across the key space at percent-of-op-stream boundaries
//!   (`crate::workload::HotspotSchedule`, the `--strike-at` timing convention);
//! * a configurable **read/write mix**; and
//! * **client churn** ([`ChurnParams`]) — clients arrive late, depart and
//!   re-arrive on a seeded per-client schedule (`crate::workload::churn_gaps`).
//!   A departed client is simply *silent* (its processor idles), which is
//!   the application-level half of churn; node-level churn composes
//!   orthogonally through the existing [`FaultPlan`](dm_diva::FaultPlan)
//!   machinery rather than duplicating it (the `fig14` sweep's churn axis
//!   does both).
//!
//! Serving-side metrics (hit ratio, bytes moved, response-time histogram,
//! replication-degree high-water) are tallied centrally by the runtime — see
//! [`dm_diva::ServingReport`] — so both strategies report them identically,
//! whatever the worker count.

use crate::uniform::UniformParams;
use crate::workload::{churn_gaps, HotspotSchedule, ZipfSampler};
use dm_diva::{Diva, Op, Partitioned, ProcProgram, RunOutcome, RunReport, StepCtx, VarHandle};
use dm_rng::ChaCha8Rng;
use std::sync::Arc;

/// The popularity distribution of the key space.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key equally popular.
    Uniform,
    /// Zipf-skewed popularity with the given exponent (key 0 hottest).
    Zipf(f64),
    /// A migrating hotspot: `hot_permille`/1000 of the traffic aims at a
    /// window of `n_keys/16` keys whose position jumps at each listed
    /// percent of the op stream (the `--strike-at` timing convention).
    Hotspot {
        /// Migration points in percent of the op stream, each `< 100`.
        migrate_at: Vec<u64>,
        /// Per-mille of the traffic aimed at the hot window.
        hot_permille: u32,
    },
}

impl KeyDist {
    /// A short stable label for tables and JSON rows.
    pub fn label(&self) -> String {
        match self {
            KeyDist::Uniform => "uniform".to_string(),
            KeyDist::Zipf(s) => format!("zipf-{s}"),
            KeyDist::Hotspot { .. } => "hotspot".to_string(),
        }
    }
}

/// Client-churn parameters: each client's op stream is cut into `sessions`
/// seeded sessions separated by idle gaps of roughly `idle_us` microseconds
/// (plus a staggered seeded arrival delay before its first op).
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Sessions per client (1 = a single arrival delay, no mid-run churn).
    pub sessions: usize,
    /// Nominal idle time between sessions, in whole microseconds.
    pub idle_us: u64,
}

/// Parameters of the KV serving workload.
#[derive(Debug, Clone)]
pub struct KvParams {
    /// Number of keys (shared variables; owners assigned round-robin).
    pub n_keys: usize,
    /// Requests issued by every client processor.
    pub ops_per_client: usize,
    /// Percentage of requests that are writes (`0..=100`).
    pub write_percent: u32,
    /// Size of every value in bytes (determines data-message sizes).
    pub val_bytes: u32,
    /// Seed of the per-client request streams (and the hotspot placement).
    pub seed: u64,
    /// Popularity distribution of the key space.
    pub dist: KeyDist,
    /// Client churn; `None` keeps every client active for the whole run.
    pub churn: Option<ChurnParams>,
}

impl KvParams {
    /// A read-mostly serving default: `8·nprocs` keys, 64 requests per
    /// client, 10% writes, 256-byte values, uniform popularity, no churn.
    pub fn new(nprocs: usize) -> Self {
        KvParams {
            n_keys: 8 * nprocs,
            ops_per_client: 64,
            write_percent: 10,
            val_bytes: 256,
            seed: 0x0C_AFFE,
            dist: KeyDist::Uniform,
            churn: None,
        }
    }
}

/// The uniform workload is this client with uniform keys and no churn.
impl From<UniformParams> for KvParams {
    fn from(p: UniformParams) -> KvParams {
        KvParams {
            n_keys: p.n_vars,
            ops_per_client: p.ops_per_proc,
            write_percent: p.write_percent,
            val_bytes: p.var_bytes,
            seed: p.seed,
            dist: KeyDist::Uniform,
            churn: None,
        }
    }
}

/// Result of a KV workload run.
pub struct KvOutcome {
    /// Timing, congestion, protocol and serving statistics.
    pub report: RunReport,
    /// Order-dependent fold over every value read — equal across repeated
    /// runs and worker counts (determinism witness). Partial over survivors
    /// in a degraded run.
    pub checksum: u64,
    /// Processors lost to node failures (empty without a fault plan).
    pub procs_lost: Vec<usize>,
}

/// The per-client key picker, resolved once per run.
enum Picker {
    Uniform { n_keys: usize },
    Zipf(ZipfSampler),
    Hotspot(HotspotSchedule),
}

impl Picker {
    fn resolve(params: &KvParams) -> Picker {
        match &params.dist {
            KeyDist::Uniform => Picker::Uniform {
                n_keys: params.n_keys,
            },
            KeyDist::Zipf(s) => Picker::Zipf(ZipfSampler::new(params.n_keys, *s)),
            KeyDist::Hotspot {
                migrate_at,
                hot_permille,
            } => Picker::Hotspot(HotspotSchedule::new(
                params.n_keys,
                migrate_at,
                *hot_permille,
                params.seed,
            )),
        }
    }

    /// Draw the key of op `op_idx` out of `total_ops`.
    fn pick(&self, rng: &mut ChaCha8Rng, op_idx: usize, total_ops: usize) -> usize {
        match self {
            Picker::Uniform { n_keys } => rng.gen_range(0..*n_keys),
            Picker::Zipf(z) => z.sample(rng),
            Picker::Hotspot(h) => h.key_for(rng, op_idx, total_ops),
        }
    }
}

/// What every client of one run shares: the key space and the request mix.
struct KvRun {
    keys: Vec<VarHandle>,
    picker: Picker,
    total_ops: usize,
    write_percent: u32,
    /// Per-client churn gaps `(op index, idle µs)`, sorted by op index;
    /// empty without churn.
    gaps: Vec<Vec<(usize, u64)>>,
}

impl KvRun {
    /// Allocate the key space (round-robin owners, deterministic initial
    /// values) and resolve the picker and every client's churn schedule.
    fn new(diva: &mut Diva, params: &KvParams) -> KvRun {
        let nprocs = diva.num_procs();
        let keys = (0..params.n_keys)
            .map(|i| {
                diva.alloc(
                    i % nprocs,
                    params.val_bytes,
                    (i as u64).wrapping_mul(0x9D8F_3B1D) ^ params.seed,
                )
            })
            .collect();
        let gaps = match params.churn {
            Some(c) => (0..nprocs)
                .map(|proc| {
                    churn_gaps(
                        params.seed,
                        proc,
                        params.ops_per_client,
                        c.sessions,
                        c.idle_us,
                    )
                })
                .collect(),
            None => Vec::new(),
        };
        KvRun {
            keys,
            picker: Picker::resolve(params),
            total_ops: params.ops_per_client,
            write_percent: params.write_percent,
            gaps,
        }
    }

    /// The idle time a client sits out before its request `op_idx`, if its
    /// churn schedule has a gap there.
    fn gap_before(&self, proc: usize, op_idx: usize) -> Option<u64> {
        let gaps = self.gaps.get(proc)?;
        let at = gaps.binary_search_by_key(&op_idx, |&(at, _)| at).ok()?;
        Some(gaps[at].1)
    }
}

/// Where a client is in its request stream.
#[derive(Clone, Copy)]
enum Phase {
    /// About to issue request `op_idx`, after any churn gap before it.
    Issuing,
    /// The previous request was a read whose value arrives before this step.
    Reading,
    /// All requests issued; waiting at the closing barrier.
    AtBarrier,
}

/// One client of the KV workload. One of these exists per processor, so the
/// per-run constants live behind the shared [`KvRun`].
struct KvProgram {
    run: Arc<KvRun>,
    rng: ChaCha8Rng,
    /// `u32` keeps the program at 160 bytes (`validate` checks the count).
    op_idx: u32,
    checksum: u64,
    phase: Phase,
}

const _: () = assert!(std::mem::size_of::<KvProgram>() <= 160);

impl ProcProgram for KvProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        match self.phase {
            Phase::AtBarrier => return Op::Done,
            Phase::Reading => {
                self.checksum = self
                    .checksum
                    .rotate_left(7)
                    .wrapping_add(*ctx.take::<u64>());
                self.phase = Phase::Issuing;
            }
            Phase::Issuing => {}
        }
        let run = &*self.run;
        // Sleep any churn gap scheduled before the next request; a departed
        // client is silent, its processor merely idles.
        let op_idx = self.op_idx as usize;
        if let Some(idle_us) = run.gap_before(ctx.proc_id(), op_idx) {
            ctx.compute(idle_us as f64);
        }
        if op_idx == run.total_ops {
            self.phase = Phase::AtBarrier;
            return Op::Barrier;
        }
        let key = run.picker.pick(&mut self.rng, op_idx, run.total_ops);
        self.op_idx += 1;
        let var = run.keys[key];
        if self.rng.gen_range(0..100u32) < run.write_percent {
            self.phase = Phase::Issuing;
            Op::Write(var, Arc::new(self.rng.next_u64()))
        } else {
            self.phase = Phase::Reading;
            Op::Read(var)
        }
    }
}

/// Run the KV workload. Panics if a fault plan partitions the network; see
/// `try_run_kv_driven` for the fallible form.
pub fn run_kv_driven(diva: Diva, params: KvParams) -> KvOutcome {
    match try_run_kv_driven(diva, params) {
        Ok(out) => out,
        Err(p) => panic!(
            "KV workload partitioned at {} ns (node {} unreachable)",
            p.at, p.unreachable
        ),
    }
}

/// Like [`run_kv_driven`], but a fault plan that disconnects the network
/// yields `Err` (with the partial report) instead of panicking. A plan that
/// fails nodes degrades the run instead: `Ok` with
/// [`KvOutcome::procs_lost`] set and the checksum folded over the surviving
/// clients only (lost clients contribute an empty slot).
// The Err carries the partial report by value; these run once per
// simulation, so the lint's by-value-return cost is irrelevant here.
#[allow(clippy::result_large_err)]
pub(crate) fn try_run_kv_driven(
    mut diva: Diva,
    params: KvParams,
) -> Result<KvOutcome, Partitioned> {
    validate(&params);
    let run = Arc::new(KvRun::new(&mut diva, &params));
    let programs: Vec<KvProgram> = (0..diva.num_procs())
        .map(|proc| KvProgram {
            run: Arc::clone(&run),
            // The same per-client derivation as the other workloads.
            rng: ChaCha8Rng::seed_from_u64(
                params.seed ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            op_idx: 0,
            checksum: 0,
            phase: Phase::Issuing,
        })
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
    // Lost clients contribute an empty slot so the partial checksum stays
    // position-dependent.
    let checksum = results.iter().fold(0u64, |acc, p| match p {
        Some(p) => acc.rotate_left(13) ^ p.checksum,
        None => acc.rotate_left(13),
    });
    Ok(KvOutcome {
        report,
        checksum,
        procs_lost,
    })
}

fn validate(params: &KvParams) {
    assert!(params.n_keys > 0, "the KV workload needs at least one key");
    assert!(params.write_percent <= 100);
    assert!(u32::try_from(params.ops_per_client).is_ok());
    if let Some(c) = &params.churn {
        assert!(c.sessions > 0 && c.idle_us > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_diva::{Counter, DivaConfig, FaultPlan, StrategyKind};
    use dm_mesh::{AnyTopology, FatTree, Hypercube, Mesh, TreeShape};

    fn params(nprocs: usize, dist: KeyDist, churn: Option<ChurnParams>) -> KvParams {
        KvParams {
            ops_per_client: 24,
            dist,
            churn,
            ..KvParams::new(nprocs)
        }
    }

    fn run(topo: AnyTopology, strategy: StrategyKind, dist: KeyDist) -> KvOutcome {
        let nprocs = topo.nodes();
        let diva = Diva::new(DivaConfig::on(topo, strategy));
        run_kv_driven(diva, params(nprocs, dist, None))
    }

    fn dists() -> Vec<KeyDist> {
        vec![
            KeyDist::Uniform,
            KeyDist::Zipf(0.9),
            KeyDist::Zipf(1.2),
            KeyDist::Hotspot {
                migrate_at: vec![25, 50, 75],
                hot_permille: 900,
            },
        ]
    }

    #[test]
    fn runs_on_every_topology_under_both_strategies() {
        for topo in [
            AnyTopology::from(Mesh::square(4)),
            Mesh::torus(4, 4).into(),
            Hypercube::new(4).into(),
            FatTree::new(16).into(),
        ] {
            for strategy in [
                StrategyKind::AccessTree(TreeShape::quad()),
                StrategyKind::FixedHome,
            ] {
                let name = topo.name();
                let out = run(topo.clone(), strategy, KeyDist::Zipf(0.9));
                assert!(out.report.total_time > 0, "{name} {strategy:?}");
                let s = &out.report.serving;
                assert_eq!(s.requests, 16 * 24, "{name} {strategy:?}");
                // Every request of a completed run got a response.
                assert_eq!(s.responses(), s.requests, "{name} {strategy:?}");
                assert!(s.bytes_moved > 0, "{name} {strategy:?}");
                assert!(s.replication_high_water >= 1, "{name} {strategy:?}");
                // Every request is a read hit, a read miss or a write, and
                // the hits are the fast path's local hits.
                let count = |c| out.report.counter(c);
                let (hits, misses) = (count(Counter::ReadHit), count(Counter::ReadMiss));
                let writes = count(Counter::WriteLocal) + count(Counter::WriteRemote);
                assert_eq!(hits + misses + writes, s.requests, "{name} {strategy:?}");
                assert_eq!(hits, s.local_hits, "{name} {strategy:?}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical_for_every_distribution() {
        for dist in dists() {
            let a = run(
                Mesh::square(4).into(),
                StrategyKind::AccessTree(TreeShape::quad()),
                dist.clone(),
            );
            let b = run(
                Mesh::square(4).into(),
                StrategyKind::AccessTree(TreeShape::quad()),
                dist.clone(),
            );
            assert_eq!(a.checksum, b.checksum, "{}", dist.label());
            assert_eq!(a.report, b.report, "{}", dist.label());
        }
    }

    #[test]
    fn topology_changes_the_congestion_picture() {
        // Same seed and mix on two topologies of equal node count: the
        // wraparound links must change where (and how much) traffic
        // concentrates.
        let quad = StrategyKind::AccessTree(TreeShape::quad());
        let mesh = run(Mesh::square(4).into(), quad, KeyDist::Uniform);
        let torus = run(Mesh::torus(4, 4).into(), quad, KeyDist::Uniform);
        assert_ne!(
            mesh.report.congestion_bytes(),
            torus.report.congestion_bytes(),
            "wraparound links must change the congestion picture"
        );
    }

    #[test]
    fn skew_raises_the_local_hit_ratio_under_caching() {
        // Zipf-1.2 concentrates reads on a few hot keys; the access-tree
        // strategy replicates them towards the readers, so the local-hit
        // ratio must beat the uniform workload's.
        let uniform = run(
            Mesh::square(4).into(),
            StrategyKind::AccessTree(TreeShape::quad()),
            KeyDist::Uniform,
        );
        let zipf = run(
            Mesh::square(4).into(),
            StrategyKind::AccessTree(TreeShape::quad()),
            KeyDist::Zipf(1.2),
        );
        assert!(
            zipf.report.serving.hit_ratio() > uniform.report.serving.hit_ratio(),
            "zipf {} <= uniform {}",
            zipf.report.serving.hit_ratio(),
            uniform.report.serving.hit_ratio()
        );
    }

    #[test]
    fn churn_stretches_the_run_without_changing_the_request_count() {
        let nprocs = 16;
        let steady = run_kv_driven(
            Diva::new(DivaConfig::on(
                Mesh::square(4),
                StrategyKind::AccessTree(TreeShape::quad()),
            )),
            params(nprocs, KeyDist::Uniform, None),
        );
        let churned = run_kv_driven(
            Diva::new(DivaConfig::on(
                Mesh::square(4),
                StrategyKind::AccessTree(TreeShape::quad()),
            )),
            params(
                nprocs,
                KeyDist::Uniform,
                Some(ChurnParams {
                    sessions: 3,
                    idle_us: 2_000,
                }),
            ),
        );
        assert_eq!(
            steady.report.serving.requests,
            churned.report.serving.requests
        );
        assert!(
            churned.report.total_time > steady.report.total_time,
            "idle sessions must stretch the run"
        );
        // Deterministic under repetition, like everything else.
        let again = run_kv_driven(
            Diva::new(DivaConfig::on(
                Mesh::square(4),
                StrategyKind::AccessTree(TreeShape::quad()),
            )),
            params(
                nprocs,
                KeyDist::Uniform,
                Some(ChurnParams {
                    sessions: 3,
                    idle_us: 2_000,
                }),
            ),
        );
        assert_eq!(churned.report, again.report);
        assert_eq!(churned.checksum, again.checksum);
    }

    #[test]
    fn app_churn_composes_with_node_faults() {
        // Client churn (app-level) and a transient link-degradation window
        // (PR 9 fault machinery) in one run: completes, stays deterministic,
        // and tallies both the serving metrics and the fault edges.
        let mk = || {
            let cfg = DivaConfig::on(Mesh::square(4), StrategyKind::AccessTree(TreeShape::quad()))
                .with_fault_plan(FaultPlan::new(5).degrade_links_for(0.25, 0.25, 50_000, 400_000));
            run_kv_driven(
                Diva::new(cfg),
                params(
                    16,
                    KeyDist::Zipf(0.9),
                    Some(ChurnParams {
                        sessions: 2,
                        idle_us: 1_000,
                    }),
                ),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.report, b.report);
        assert_eq!(a.checksum, b.checksum);
        assert!(a.procs_lost.is_empty());
        assert_eq!(a.report.faults.links_degraded, a.report.faults.links_healed);
        assert!(a.report.faults.links_degraded > 0);
        assert!(a.report.serving.requests > 0);
    }
}
