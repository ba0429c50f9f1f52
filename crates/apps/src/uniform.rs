//! Uniform-random shared-variable workload: the KV client of [`crate::kv`]
//! with uniform keys and no churn, the locality-free probe of `fig12`.

use crate::kv::{self, KvOutcome};
use dm_diva::{Diva, Partitioned};

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

/// Run the workload; panics if a fault plan partitions the network.
pub fn run_uniform_driven(diva: Diva, params: UniformParams) -> KvOutcome {
    kv::run_kv_driven(diva, params.into())
}

/// Like [`run_uniform_driven`], but a partitioned network yields `Err`.
#[allow(clippy::result_large_err)] // one per simulation; by-value is fine
pub fn try_run_uniform_driven(diva: Diva, params: UniformParams) -> Result<KvOutcome, Partitioned> {
    kv::try_run_kv_driven(diva, params.into())
}
