//! The four workloads: what they simulate, how a rep is set up and run, and
//! the correctness gate every rep passes.
//!
//! A workload is a [`Spec`]: a mesh, a strategy and an application with its
//! sizes. The sizes are plain fields, so the tests run every workload at a
//! tiny size through exactly the code the full-size runs use. The seed is the
//! only other input, and only the generated inputs depend on it: the
//! simulator's own randomness (where the strategy places tree roots and
//! homes) is configuration, fixed at [`PLACEMENT_SEED`].

use dm_apps::barnes_hut::{reference_simulation, run_shared_driven, BhParams};
use dm_apps::kv::{run_kv_driven, KeyDist, KvParams};
use dm_apps::uniform::{run_uniform_driven, UniformParams};
use dm_apps::workload::plummer_bodies;
use dm_apps::Body;
use dm_diva::{Counter, Diva, DivaConfig, RunReport, StrategyKind};
use dm_mesh::{AnyTopology, Mesh, TreeShape};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["kv_zipf_read", "kv_zipf_write", "bh_fig8", "uniform_64"];

/// `DivaConfig::seed` of every run: the figure binaries' default seed. It is
/// not taken from `--seed`, because congestion — a maximum over links — moves
/// by ±15 % with where the hot keys' tree roots land, which would drown a
/// real change of the inputs' cost in placement luck.
pub const PLACEMENT_SEED: u64 = 0x5EED;
/// Skew of the KV workloads' key popularity (the fig14 `zipf-0.9` column).
pub const KV_ZIPF_S: f64 = 0.9;
/// Value size of the KV and uniform workloads in bytes (the apps' default).
pub const VALUE_BYTES: u32 = 256;
/// Largest position error against `reference_simulation` the Barnes-Hut
/// gate accepts — the tolerance of the app's own reference test.
pub const BH_POS_TOLERANCE: f64 = 1e-6;

/// The application a workload runs, with its sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    /// `dm_apps::kv`: Zipf-skewed closed-loop clients.
    Kv {
        /// Number of keys.
        n_keys: usize,
        /// Requests per client processor.
        ops_per_client: usize,
        /// Percentage of requests that are writes.
        write_percent: u32,
    },
    /// `dm_apps::barnes_hut` on the driven backend.
    BarnesHut {
        /// Number of Plummer bodies.
        n_bodies: usize,
        /// Simulated time steps.
        timesteps: usize,
        /// Leading steps excluded from the app's measured regions.
        warmup_steps: usize,
    },
    /// `dm_apps::uniform`: uniform-random accesses to a shared pool.
    Uniform {
        /// Number of variables in the pool.
        n_vars: usize,
        /// Accesses per processor.
        ops_per_proc: usize,
        /// Percentage of accesses that are writes.
        write_percent: u32,
    },
}

/// One workload: network, strategy, application and sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Data-management strategy.
    pub strategy: StrategyKind,
    /// Application and sizes.
    pub app: App,
}

impl Spec {
    /// The full-size workload of that name.
    ///
    /// Sizes are chosen so that one rep takes 30–50 ms. The sandbox's
    /// interference comes in bursts with quiet gaps of some tens of
    /// milliseconds: the minimum over ~500 reps of 40 ms finds the gaps (it
    /// moved by 6 % between 20-s windows of one noisy stretch), the minimum
    /// over ~60 reps of 0.4 s does not (30 %). The figure binaries' default
    /// tiers run points of this size too.
    pub fn full(name: &str) -> Option<Spec> {
        let quad = StrategyKind::AccessTree(TreeShape::quad());
        let (name, side, strategy, app) = match name {
            "kv_zipf_read" => (
                WORKLOADS[0],
                16,
                quad,
                App::Kv {
                    n_keys: 2_048,
                    ops_per_client: 64,
                    write_percent: 5,
                },
            ),
            "kv_zipf_write" => (
                WORKLOADS[1],
                16,
                quad,
                App::Kv {
                    n_keys: 2_048,
                    ops_per_client: 64,
                    write_percent: 50,
                },
            ),
            "bh_fig8" => (
                WORKLOADS[2],
                8,
                quad,
                App::BarnesHut {
                    n_bodies: 500,
                    timesteps: 2,
                    warmup_steps: 1,
                },
            ),
            "uniform_64" => (
                WORKLOADS[3],
                64,
                StrategyKind::FixedHome,
                App::Uniform {
                    n_vars: 16_384,
                    ops_per_proc: 2,
                    write_percent: 30,
                },
            ),
            _ => return None,
        };
        Some(Spec {
            name,
            rows: side,
            cols: side,
            strategy,
            app,
        })
    }

    /// The same workload shrunk to a 4×4 mesh and a few hundred operations:
    /// same code path, test-suite cost.
    pub fn tiny(name: &str) -> Option<Spec> {
        let mut spec = Spec::full(name)?;
        spec.rows = 4;
        spec.cols = 4;
        spec.app = match spec.app {
            App::Kv { write_percent, .. } => App::Kv {
                n_keys: 64,
                ops_per_client: 16,
                write_percent,
            },
            App::BarnesHut { .. } => App::BarnesHut {
                n_bodies: 64,
                timesteps: 2,
                warmup_steps: 1,
            },
            App::Uniform { write_percent, .. } => App::Uniform {
                n_vars: 64,
                ops_per_proc: 8,
                write_percent,
            },
        };
        Some(spec)
    }

    /// The simulated network.
    pub fn topology(&self) -> AnyTopology {
        AnyTopology::Mesh(Mesh::new(self.rows, self.cols))
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.rows * self.cols
    }

    /// Shape of the decomposition tree the run builds: the strategy's access
    /// tree, or the 4-ary barrier tree under the fixed-home strategy.
    pub fn tree_shape(&self) -> TreeShape {
        match self.strategy {
            StrategyKind::AccessTree(shape) => shape,
            StrategyKind::FixedHome => TreeShape::quad(),
        }
    }

    /// Whether the app's outcome carries the coordinator's event-queue
    /// trace when the configuration asks for one.
    pub fn exposes_queue_trace(&self) -> bool {
        matches!(self.app, App::BarnesHut { .. })
    }

    /// Number of variables allocated before the run starts.
    pub fn pool_vars(&self) -> usize {
        match self.app {
            App::Kv { n_keys, .. } => n_keys,
            // Bodies, one reduction slot per processor, root/bounds/depth.
            App::BarnesHut { n_bodies, .. } => n_bodies + self.nprocs() + 3,
            App::Uniform { n_vars, .. } => n_vars,
        }
    }

    /// Generate the application's inputs from the seed.
    pub fn inputs(&self, seed: u64) -> Inputs {
        match self.app {
            App::Kv {
                n_keys,
                ops_per_client,
                write_percent,
            } => Inputs::Kv(KvParams {
                n_keys,
                ops_per_client,
                write_percent,
                val_bytes: VALUE_BYTES,
                seed,
                dist: KeyDist::Zipf(KV_ZIPF_S),
                churn: None,
            }),
            App::BarnesHut {
                n_bodies,
                timesteps,
                warmup_steps,
            } => Inputs::BarnesHut(
                BhParams {
                    timesteps,
                    warmup_steps,
                    ..BhParams::new(n_bodies)
                },
                // The figure harness's convention (`bh_exp::run_point`).
                plummer_bodies(seed ^ n_bodies as u64, n_bodies),
            ),
            App::Uniform {
                n_vars,
                ops_per_proc,
                write_percent,
            } => Inputs::Uniform(UniformParams {
                n_vars,
                ops_per_proc,
                write_percent,
                var_bytes: VALUE_BYTES,
                seed,
            }),
        }
    }

    /// The run's configuration: GCel machine, modified embedding, one worker.
    pub fn config(&self) -> DivaConfig {
        DivaConfig::on(self.topology(), self.strategy).with_seed(PLACEMENT_SEED)
    }

    /// Build a ready-to-run simulation — what `setup_s` times: topology,
    /// configuration, `Diva::new` (the strategy's trees or homes) and the
    /// generated inputs.
    pub fn setup(&self, seed: u64) -> Ready {
        self.setup_from(self.config(), seed)
    }

    /// [`Spec::setup`] from an adjusted configuration (the traced mode
    /// switches the event-queue trace on for one rep).
    pub fn setup_from(&self, cfg: DivaConfig, seed: u64) -> Ready {
        Ready {
            diva: Diva::new(cfg),
            inputs: self.inputs(seed),
        }
    }

    /// Application operations of one run: the requests served, plus — for
    /// Barnes-Hut, whose programs also synchronise — the locks taken and
    /// the barrier calls issued.
    pub fn ops(&self, report: &RunReport) -> u64 {
        match self.app {
            App::Kv { .. } | App::Uniform { .. } => report.serving.requests,
            App::BarnesHut { .. } => {
                report.serving.requests
                    + report.counter(Counter::Locks)
                    + report.barriers * self.nprocs() as u64
            }
        }
    }

    /// Requests a complete run must have served, where the workload fixes
    /// that number up front.
    fn expected_requests(&self) -> Option<u64> {
        match self.app {
            App::Kv { ops_per_client, .. } => Some((self.nprocs() * ops_per_client) as u64),
            App::Uniform { ops_per_proc, .. } => Some((self.nprocs() * ops_per_proc) as u64),
            App::BarnesHut { .. } => None,
        }
    }

    /// The once-per-run part of the correctness gate, applied to the
    /// warm-up rep: every request was served, and Barnes-Hut's final bodies
    /// equal the sequential reference.
    pub fn check_reference(&self, seed: u64, rep: &Rep) -> Result<(), String> {
        rep.check_completed()?;
        if let Some(want) = self.expected_requests() {
            let got = rep.report.serving.requests;
            if got != want {
                return Err(format!("served {got} requests, expected {want}"));
            }
        }
        if let Inputs::BarnesHut(params, bodies) = self.inputs(seed) {
            let want = reference_simulation(&bodies, params.theta, params.dt, params.timesteps);
            if rep.bodies.len() != want.len() {
                return Err(format!(
                    "{} final bodies, expected {}",
                    rep.bodies.len(),
                    want.len()
                ));
            }
            for (i, (got, want)) in rep.bodies.iter().zip(&want).enumerate() {
                for k in 0..3 {
                    let err = (got.pos[k] - want.pos[k]).abs();
                    if err.is_nan() || err >= BH_POS_TOLERANCE {
                        return Err(format!(
                            "body {i} axis {k}: {} vs reference {}",
                            got.pos[k], want.pos[k]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Generated inputs of one run.
pub enum Inputs {
    /// KV request-stream parameters.
    Kv(KvParams),
    /// Barnes-Hut parameters and the initial bodies.
    BarnesHut(BhParams, Vec<Body>),
    /// Uniform access-stream parameters.
    Uniform(UniformParams),
}

/// A simulation that is set up but has not run.
pub struct Ready {
    diva: Diva,
    inputs: Inputs,
}

impl Ready {
    /// Run the simulation through the app's public `run_*_driven` entry
    /// point — the call `host_s` times.
    pub fn run(self) -> Rep {
        match self.inputs {
            Inputs::Kv(params) => {
                let out = run_kv_driven(self.diva, params);
                Rep {
                    report: out.report,
                    checksum: out.checksum,
                    procs_lost: out.procs_lost.len(),
                    bodies: Vec::new(),
                    queue_trace: Vec::new(),
                }
            }
            Inputs::BarnesHut(params, bodies) => {
                let out = run_shared_driven(self.diva, params, &bodies);
                Rep {
                    report: out.report,
                    checksum: body_checksum(&out.bodies) ^ out.interactions,
                    procs_lost: out.procs_lost.len(),
                    bodies: out.bodies,
                    queue_trace: out.queue_trace,
                }
            }
            Inputs::Uniform(params) => {
                let out = run_uniform_driven(self.diva, params);
                Rep {
                    report: out.report,
                    checksum: out.checksum,
                    procs_lost: out.procs_lost.len(),
                    bodies: Vec::new(),
                    queue_trace: Vec::new(),
                }
            }
        }
    }
}

/// What one rep produced.
pub struct Rep {
    /// The run's report.
    pub report: RunReport,
    /// Fold over the values the programs read (KV, uniform) or over the
    /// final bodies' bits (Barnes-Hut): a determinism witness.
    pub checksum: u64,
    /// Processors lost to node failures; a complete run has none.
    pub procs_lost: usize,
    /// Final bodies (Barnes-Hut only).
    pub bodies: Vec<Body>,
    /// Event-queue trace, when it was asked for.
    pub queue_trace: Vec<dm_diva::QueueOp>,
}

impl Rep {
    /// The run completed on every processor. (A partitioned run never gets
    /// here: the `run_*_driven` entry points panic on it.)
    pub fn check_completed(&self) -> Result<(), String> {
        if self.procs_lost > 0 {
            return Err(format!("{} processors lost", self.procs_lost));
        }
        Ok(())
    }

    /// The per-rep part of the correctness gate: this rep completed and
    /// reproduced the warm-up rep bit for bit.
    pub fn check_same_as(&self, first: &Rep) -> Result<(), String> {
        self.check_completed()?;
        if self.checksum != first.checksum {
            return Err(format!(
                "checksum {:#x} differs from the first rep's {:#x}",
                self.checksum, first.checksum
            ));
        }
        if self.report != first.report {
            return Err("RunReport differs from the first rep's".to_string());
        }
        Ok(())
    }
}

fn body_checksum(bodies: &[Body]) -> u64 {
    bodies.iter().fold(0u64, |acc, b| {
        b.pos
            .iter()
            .chain(&b.vel)
            .fold(acc, |acc, x| acc.rotate_left(5) ^ x.to_bits())
    })
}
