//! The parallel driven frontend: round-level parallelism inside one
//! simulation, bit-identical to [`DrivenFrontend`](super::frontend::DrivenFrontend).
//!
//! ## Design: the round *is* the safe window
//!
//! The driven backend's schedule is round-based: a round collects exactly one
//! blocking operation from every runnable processor, and the coordinator
//! handles them sorted by `(issue time, processor id)`. While a round is
//! gathered the coordinator is quiescent — no policy code runs, no network
//! state moves, no shared value changes. Producing a round's requests is
//! therefore embarrassingly parallel: each program steps against its own
//! state plus the *frozen* variable store the coordinator lends to
//! [`Frontend::gather`] (plain data, so `&VarStore` crosses threads), so
//! the requests are identical whatever order (or thread) produces them, and
//! the coordinator's sort — a total order, since a processor contributes at
//! most one request per round — re-serialises handling deterministically.
//! This is the conservative safe-window synchronisation of the
//! Chandy–Misra–Bryant family with the window boundaries placed where this
//! simulator already has barriers: between gather and handling. Within the
//! window the lookahead is effectively infinite (requests in a round are
//! causally independent by construction); across windows nothing is
//! parallelised, so no null messages are needed and bit-identity to the
//! serial backend is structural rather than re-derived.
//!
//! Event-level sharding (per-partition event queues synchronised by
//! link-latency lookahead, the textbook null-message design) was evaluated
//! and rejected: the network's contention model (`LinkNetwork`'s
//! `link_free`/`port_free` occupancy vectors) and the event queue's global
//! FIFO tie-break make delivery times depend on the *call order* of
//! `transmit`, so any out-of-order handling produces different — not just
//! reordered — timings, breaking the repo's #1 invariant. See
//! `docs/architecture.md` ("Parallel driven backend") for the measured
//! round-size distribution that bounds what parallel gathering can win.
//!
//! ## Partitioning
//!
//! Processors are assigned to workers by [`dm_mesh::partition_regions`] —
//! the same recursive bisection that builds the decomposition tree, so a
//! worker owns a geometrically compact region of the topology. Each
//! partition owns its members' programs and slots outright; a scoped worker
//! thread borrows one partition mutably, steps its runnable members, and
//! writes into a per-partition output buffer. Buffers are concatenated in
//! partition order (deterministic, but irrelevant: the coordinator's sort
//! normalises any merge order). Rounds smaller than
//! [`ParallelFrontend::threshold`] are stepped inline — the steady state of
//! most workloads is a singleton round, where spawning would only add
//! overhead.

use super::frontend::{step_to_request, Frontend, Slot, StepEnv};
use super::program::ProcProgram;
use super::request::{Response, TimedRequest};
use super::store::VarStore;
use dm_mesh::NodeId;

/// Smallest round (runnable-processor count) worth fanning out across
/// threads: below this, scoped-spawn overhead (~tens of µs) exceeds the
/// stepping work of typical programs.
const PARALLEL_ROUND_MIN: usize = 24;

/// One worker's share of the processors.
struct Partition<P> {
    /// Global processor ids of the members, in partition-local order.
    procs: Vec<usize>,
    /// Program state machines of the members (same local order).
    programs: Vec<P>,
    /// Per-member frontend slots (same local order).
    slots: Vec<Slot>,
    /// Partition-local indices of members whose previous operation
    /// completed; drained by the next gather.
    runnable: Vec<u32>,
    /// Per-partition request buffer, reused across rounds.
    out: Vec<TimedRequest>,
}

/// The parallel driven frontend. Produces the exact request stream of
/// [`DrivenFrontend`](super::frontend::DrivenFrontend); only the host-side
/// scheduling of program stepping differs.
pub(crate) struct ParallelFrontend<P: ProcProgram> {
    parts: Vec<Partition<P>>,
    /// `proc` → `(partition index, partition-local index)`.
    locate: Vec<(u32, u32)>,
    env: StepEnv,
    /// Number of runnable processors across all partitions (the size of the
    /// round the next gather will produce).
    runnable_total: usize,
    /// Rounds at least this large are stepped on worker threads.
    threshold: usize,
}

impl<P: ProcProgram> ParallelFrontend<P> {
    /// `regions` is the worker partition of the processor set (disjoint
    /// cover of `0..programs.len()`, one entry per worker) — see
    /// [`dm_mesh::partition_regions`].
    pub(crate) fn new(programs: Vec<P>, env: StepEnv, regions: &[Vec<NodeId>]) -> Self {
        let nprocs = programs.len();
        let mut pool: Vec<Option<P>> = programs.into_iter().map(Some).collect();
        let mut locate = vec![(u32::MAX, u32::MAX); nprocs];
        let mut parts = Vec::with_capacity(regions.len());
        for (pi, region) in regions.iter().enumerate() {
            let mut part = Partition {
                procs: Vec::with_capacity(region.len()),
                programs: Vec::with_capacity(region.len()),
                slots: Vec::with_capacity(region.len()),
                runnable: (0..region.len() as u32).collect(),
                out: Vec::new(),
            };
            for (li, node) in region.iter().enumerate() {
                let proc = node.index();
                let program = pool[proc]
                    .take()
                    .expect("worker partition assigns a processor twice");
                locate[proc] = (pi as u32, li as u32);
                part.procs.push(proc);
                part.programs.push(program);
                part.slots.push(Slot::new());
            }
            parts.push(part);
        }
        assert!(
            locate.iter().all(|&(p, _)| p != u32::MAX),
            "worker partition does not cover every processor"
        );
        let threshold = PARALLEL_ROUND_MIN.max(2 * parts.len());
        ParallelFrontend {
            parts,
            locate,
            env,
            runnable_total: nprocs,
            threshold,
        }
    }

    /// The final program states in processor order, consumed after the run.
    pub(crate) fn into_programs(self) -> Vec<P> {
        let mut out: Vec<Option<P>> = (0..self.env.nprocs).map(|_| None).collect();
        for part in self.parts {
            for (li, program) in part.programs.into_iter().enumerate() {
                out[part.procs[li]] = Some(program);
            }
        }
        out.into_iter()
            .map(|p| p.expect("partition lost a program"))
            .collect()
    }
}

impl<P: ProcProgram> Frontend for ParallelFrontend<P> {
    fn gather(&mut self, store: &VarStore, batch: &mut Vec<TimedRequest>) {
        if self.runnable_total == 0 {
            return;
        }
        let env = &self.env;
        if self.runnable_total >= self.threshold && self.parts.len() > 1 {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(self.parts.len());
                for part in self.parts.iter_mut().filter(|p| !p.runnable.is_empty()) {
                    handles.push(scope.spawn(move || {
                        while let Some(li) = part.runnable.pop() {
                            let li = li as usize;
                            let req = step_to_request(
                                &mut part.programs[li],
                                &mut part.slots[li],
                                part.procs[li],
                                env,
                                store,
                            );
                            part.out.push(req);
                        }
                    }));
                }
                for h in handles {
                    if let Err(payload) = h.join() {
                        // Propagate program panics exactly like the inline
                        // path would.
                        std::panic::resume_unwind(payload);
                    }
                }
            });
            for part in &mut self.parts {
                batch.append(&mut part.out);
            }
        } else {
            for part in &mut self.parts {
                while let Some(li) = part.runnable.pop() {
                    let li = li as usize;
                    let req = step_to_request(
                        &mut part.programs[li],
                        &mut part.slots[li],
                        part.procs[li],
                        env,
                        store,
                    );
                    batch.push(req);
                }
            }
        }
        self.runnable_total = 0;
    }

    fn respond(&mut self, proc: usize, resp: Response) {
        let (pi, li) = self.locate[proc];
        let part = &mut self.parts[pi as usize];
        part.slots[li as usize].absorb(resp);
        part.runnable.push(li);
        self.runnable_total += 1;
    }

    fn kill(&mut self, proc: usize) {
        // Faults fire only while every processor is blocked, so the victim
        // cannot be runnable; the sweep is a cheap safety net (removal
        // order is irrelevant — the coordinator sorts every round).
        let (pi, li) = self.locate[proc];
        let part = &mut self.parts[pi as usize];
        if let Some(pos) = part.runnable.iter().position(|&x| x == li) {
            part.runnable.swap_remove(pos);
            self.runnable_total -= 1;
        }
    }
}
