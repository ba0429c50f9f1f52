//! Barnes-Hut N-body simulation, Section 3.3 of the paper.
//!
//! A reproduction of the SPLASH-2 Barnes-Hut application on top of the DIVA
//! shared-variable interface. The main data structure is the Barnes-Hut
//! octree; every cell and every body is a global variable, and the tree is
//! rebuilt (with fresh cell variables, i.e. "with pointers") in every time
//! step. Each step runs the six phases of the paper, separated by barriers:
//!
//! 1. **tree build** — processors insert their bodies into the shared octree,
//!    protected by per-cell locks;
//! 2. **centre of mass** — an upward pass computes mass, centre of mass and
//!    aggregated work counts, level by level;
//! 3. **partition** — costzones: every processor takes a contiguous zone of
//!    the tree's body sequence whose work equals its fair share. Processor
//!    identifiers follow the left-to-right leaf order of the mesh
//!    decomposition tree, so physical locality translates into topological
//!    locality (the property the access-tree strategy exploits);
//! 4. **force computation** — the dominant phase: each processor traverses
//!    the tree once per assigned body with the opening criterion
//!    `size/distance < θ`;
//! 5. **update** — leapfrog integration of the assigned bodies;
//! 6. **bounds** — a small reduction computes the bounding cube of the next
//!    step.

use crate::octree::{child_centre_of, octant_of, ArenaOctree, PackedChild, Slot, MAX_DEPTH};
use crate::workload::{bounding_cube, Body};
use dm_diva::{Diva, Op, ProcProgram, RunReport, StepCtx, VarHandle};
use dm_mesh::{DecompositionTree, TreeShape};
use std::collections::HashMap;
use std::sync::Arc;

/// Gravitational softening used by both the parallel and the reference code.
pub(crate) const SOFTENING: f64 = 0.025;
/// Modelled floating-point operations per body/cell interaction.
const FLOPS_PER_INTERACTION: u64 = 25;

/// Decoded reference to a child slot of an octree cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChildRef {
    /// No child.
    Empty,
    /// A single body (leaf).
    Body(VarHandle),
    /// A sub-cell.
    Cell(VarHandle),
}

/// An octree cell, stored in a global variable.
///
/// The in-memory representation is kept compact so that the millions of cell
/// variables a beyond-paper sweep allocates (the tree is rebuilt with fresh
/// variables every time step) stay cheap: child slots are packed `u32`
/// arena-style indices into the variable space (see [`PackedChild`])
/// instead of boxed/tagged
/// 8-byte enums, and the depth is a single byte. Note that the *simulated*
/// size of a cell variable (`CELL_BYTES`, 160) is modelled after the paper's
/// cell record — the host-side layout only affects how much real memory a
/// sweep needs.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// Geometric centre of the cell.
    pub centre: [f64; 3],
    /// Half of the cell's side length.
    pub half: f64,
    /// Centre of mass (valid after phase 2).
    pub com: [f64; 3],
    /// Total mass (valid after phase 2).
    pub mass: f64,
    /// Aggregated work of the bodies below this cell (valid after phase 2),
    /// saturating at `u32::MAX`. A `u32` is part of the compact cell layout:
    /// per-subtree work stays far below 2³² even at 409 600-body sweeps
    /// (~10⁹ interactions per step), and the costzones arithmetic widens to
    /// `u64` before accumulating offsets.
    pub work: u32,
    /// The eight child slots, packed.
    children: [PackedChild; 8],
    /// Number of bodies below this cell (valid after phase 2).
    pub count: u32,
    /// Depth in the tree (root = 0).
    pub depth: u8,
}

impl Cell {
    fn new(centre: [f64; 3], half: f64, depth: u8) -> Self {
        Cell {
            centre,
            half,
            depth,
            children: [PackedChild::EMPTY; 8],
            com: [0.0; 3],
            mass: 0.0,
            count: 0,
            work: 0,
        }
    }

    /// Decode child slot `idx`.
    pub(crate) fn child(&self, idx: usize) -> ChildRef {
        match self.children[idx].decode() {
            Slot::Empty => ChildRef::Empty,
            Slot::Body(b) => ChildRef::Body(VarHandle(b)),
            Slot::Cell(c) => ChildRef::Cell(VarHandle(c)),
        }
    }

    /// Store `child` in slot `idx`.
    pub(crate) fn set_child(&mut self, idx: usize, child: ChildRef) {
        self.children[idx] = match child {
            ChildRef::Empty => PackedChild::EMPTY,
            ChildRef::Body(h) => PackedChild::body(h.0),
            ChildRef::Cell(h) => PackedChild::cell(h.0),
        };
    }

    /// Index of the octant of `pos` relative to the cell centre.
    fn octant(&self, pos: &[f64; 3]) -> usize {
        octant_of(&self.centre, pos)
    }

    /// Centre of the child cell in octant `idx`.
    fn child_centre(&self, idx: usize) -> [f64; 3] {
        child_centre_of(&self.centre, self.half, idx)
    }
}

/// Clamp a per-body `u64` work counter into the saturating `u32` cell
/// aggregate.
fn clamp_work(w: u64) -> u32 {
    w.min(u64::from(u32::MAX)) as u32
}

/// Approximate size of a cell variable in bytes (the paper's cells carry a
/// similar amount of data: geometry, child pointers and mass information).
const CELL_BYTES: u32 = 160;
/// Approximate size of a body variable in bytes.
const BODY_BYTES: u32 = 80;

/// Parameters of the N-body experiment.
#[derive(Debug, Clone, Copy)]
pub struct BhParams {
    /// Number of bodies.
    pub n_bodies: usize,
    /// Number of simulated time steps (the paper simulates 7).
    pub timesteps: usize,
    /// Leading steps excluded from the measurement (the paper excludes 2).
    pub warmup_steps: usize,
    /// Opening criterion θ of the force computation.
    pub theta: f64,
    /// Integration time step.
    pub dt: f64,
}

impl BhParams {
    /// Parameters with the paper's defaults for a given body count (7 steps,
    /// the last 5 measured, θ = 1.0).
    pub fn new(n_bodies: usize) -> Self {
        BhParams {
            n_bodies,
            timesteps: 7,
            warmup_steps: 2,
            theta: 1.0,
            dt: 0.025,
        }
    }

    /// A small configuration for tests: fewer steps, no warm-up.
    pub fn small(n_bodies: usize, timesteps: usize) -> Self {
        BhParams {
            n_bodies,
            timesteps,
            warmup_steps: 0,
            theta: 0.8,
            dt: 0.0125,
        }
    }
}

/// Outcome of an N-body run.
pub struct BhOutcome {
    /// Simulation statistics (regions: `tree-build`, `com`, `partition`,
    /// `force`, `update`, `bounds` — accumulated over the measured steps —
    /// plus `warmup` for the excluded leading steps).
    pub report: RunReport,
    /// Final body states, indexed like the input body slice.
    pub bodies: Vec<Body>,
    /// Total number of body/cell interactions computed in the force phases.
    pub interactions: u64,
    /// Event-queue push/pop trace of the run — empty unless the [`Diva`] was
    /// configured with `trace_queue` (the host benchmark replays a recorded
    /// Barnes-Hut trace for its `engine.queue_hold_ns` kernel).
    pub queue_trace: Vec<dm_diva::QueueOp>,
    /// Processors lost to node failures (empty unless the fault plan failed
    /// nodes before their programs finished); the run is degraded, and the
    /// bodies owned by lost processors keep their last committed state.
    pub procs_lost: Vec<usize>,
}

/// The acceleration exerted on a body at `pos` by a point mass at `src`.
pub(crate) fn pairwise_accel(pos: &[f64; 3], src: &[f64; 3], mass: f64) -> [f64; 3] {
    let dx = src[0] - pos[0];
    let dy = src[1] - pos[1];
    let dz = src[2] - pos[2];
    let dist2 = dx * dx + dy * dy + dz * dz + SOFTENING * SOFTENING;
    let inv = 1.0 / (dist2 * dist2.sqrt());
    [mass * dx * inv, mass * dy * inv, mass * dz * inv]
}

/// Build (into the pooled `chain` buffer) the chain of cells needed to
/// separate two bodies that fall into the same octant of `parent`, topmost
/// cell first. Child pointers between the chain's cells are wired when the
/// cells are allocated, deepest first.
fn build_subdivision_chain(
    chain: &mut Vec<Cell>,
    parent: &Cell,
    octant: usize,
    a: (VarHandle, [f64; 3]),
    b: (VarHandle, [f64; 3]),
) {
    chain.clear();
    let mut centre = parent.child_centre(octant);
    let mut half = parent.half / 2.0;
    let mut depth = parent.depth + 1;
    loop {
        let cell = Cell::new(centre, half, depth);
        let ia = cell.octant(&a.1);
        let ib = cell.octant(&b.1);
        if ia != ib || u32::from(depth) >= MAX_DEPTH {
            let mut leaf = cell;
            if ia != ib {
                leaf.set_child(ia, ChildRef::Body(a.0));
                leaf.set_child(ib, ChildRef::Body(b.0));
            } else {
                // Coincident (or nearly coincident) bodies: place them in the
                // first two free slots of the deepest allowed cell.
                leaf.set_child(ia, ChildRef::Body(a.0));
                let free = (0..8).find(|&i| i != ia).unwrap();
                leaf.set_child(free, ChildRef::Body(b.0));
            }
            chain.push(leaf);
            return;
        }
        let next_centre = cell.child_centre(ia);
        chain.push(cell);
        centre = next_centre;
        half /= 2.0;
        depth += 1;
    }
}

// ---------------------------------------------------------------------------
// The parallel program: the six phases as one explicit state machine.
// ---------------------------------------------------------------------------

/// State of the Barnes-Hut program. One variant per suspension point — every
/// place the sequential algorithm waits for a read, a lock or a barrier; the
/// recursive tree walks (insert, costzones, force) carry explicit stacks in
/// the program's scratch fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BhSt {
    /// Begin a timestep: clear per-step state, enter the tree-build region.
    StepBegin,
    /// Tree-build region entered.
    TbRegion,
    /// (me == 0) bounding cube read; allocate the root cell.
    TbBounds,
    /// (me == 0) root cell allocated; publish it.
    TbRootAlloc,
    /// (me == 0) root pointer written; synchronise.
    TbRootWritten,
    /// Pre-insert barrier passed; read the root pointer.
    TbSynced,
    /// Root pointer read; start inserting bodies.
    TbRootPtr,
    /// Issue the position read of the next body to insert (or finish P1).
    InsNext,
    /// Body position read; start the descent at the root.
    InsPos,
    /// A cell along the descent was read.
    InsCell,
    /// The cell to modify is locked; re-read it.
    InsLocked,
    /// The locked cell was re-read; decide how to modify it.
    InsFresh,
    /// Lost the race (slot filled by a sub-cell): unlocked, retry the cell.
    InsRetry,
    /// A colliding body's position was read; allocate the subdivision chain.
    InsOtherPos,
    /// One subdivision cell was allocated; allocate the next or link up.
    InsAlloc,
    /// The modified cell was written back; release its lock.
    InsWrote,
    /// Lock released; move to the next body.
    InsUnlocked,
    /// Post-insert barrier passed; enter the centre-of-mass region.
    ComBegin,
    /// Region entered; publish this processor's tree depth.
    ComRegion,
    /// Depth contribution written; synchronise.
    ComReduceW,
    /// First COM barrier passed.
    ComSync1,
    /// (me == 0) one depth contribution read.
    ComReadRed,
    /// (me == 0) global depth written; synchronise.
    ComDepthW,
    /// Second COM barrier passed; read the global depth.
    ComSync2,
    /// Global depth read; start the per-level upward pass.
    ComDepth,
    /// Find this processor's next cell of the current level.
    ComScan,
    /// A cell of the current level was read; aggregate its children.
    ComCell,
    /// Iterate the children of the current cell.
    ComChild,
    /// A child body was read.
    ComChildBody,
    /// A child cell was read.
    ComChildCell,
    /// The aggregated cell was written back.
    ComCellW,
    /// Per-level barrier passed; next level or partition phase.
    ComLevelSync,
    /// Partition region entered; read the root cell.
    PartRegion,
    /// Root cell read; start the costzones walk.
    PartRoot,
    /// A cell of the costzones walk was read.
    CzCell,
    /// Advance the costzones walk (local bookkeeping).
    CzAdvance,
    /// A body's work counter was read during the costzones walk.
    CzBody,
    /// Post-partition barrier passed; enter the force region.
    ForceBegin,
    /// Force region entered.
    ForceRegion,
    /// Issue the read of the next assigned body (or finish P4).
    FNext,
    /// An assigned body was read; start its tree traversal.
    FBody,
    /// Pop the next cell of the traversal stack.
    FPop,
    /// A traversal cell was read; open it or approximate.
    FCell,
    /// Iterate the children of an opened cell.
    FChild,
    /// A child body was read during the traversal.
    FChildBody,
    /// Post-force barrier passed; enter the update region.
    UpdBegin,
    /// Update region entered.
    UpdRegion,
    /// Issue the read of the next body to advance (or finish P5).
    UNext,
    /// A body was read; integrate and write it back.
    UBody,
    /// The advanced body was written.
    UWrote,
    /// Post-update barrier passed; enter the bounds region.
    BndBegin,
    /// Bounds region entered; publish the local bounding box.
    BndRegion,
    /// Local box written; synchronise.
    BndReduceW,
    /// First bounds barrier passed.
    BndSync1,
    /// (me == 0) one local box read.
    BndRead,
    /// (me == 0) next bounding cube written; synchronise.
    BndW,
    /// Final barrier of the step passed.
    BndSync2,
    /// This step's cells were freed at the step barrier.
    StepFreed,
    /// Read the next owned body's final state (last step only).
    FinNext,
    /// A final body state was read.
    FinBody,
    /// Program complete.
    Finished,
}

/// The Barnes-Hut program of one processor; the recursion of the tree walks
/// is replaced by the explicit stacks below.
///
/// The parallel sweep executor in `dm-bench` moves whole simulations (the
/// `Diva` plus its programs) across worker threads; `ProcProgram`'s `Send`
/// supertrait already forces every implementor `Send` at its impl site.
struct BhProgram {
    params: BhParams,
    me: usize,
    nprocs: usize,
    root_ptr: VarHandle,
    bounds_var: VarHandle,
    depth_var: VarHandle,
    reduce_vars: Arc<Vec<VarHandle>>,
    st: BhSt,
    step_no: usize,
    my_bodies: Vec<VarHandle>,
    /// The cells this processor allocated in the current step, with their
    /// depths, in allocation order: the step barrier frees them in it.
    my_cells: Vec<(u8, VarHandle)>,
    interactions_total: u64,
    final_bodies: Vec<(VarHandle, Body)>,
    root: VarHandle,

    // Insert scratch.
    body_idx: usize,
    ins_body: VarHandle,
    ins_pos: [f64; 3],
    ins_cur: VarHandle,
    ins_oct: usize,
    ins_fresh: Option<Cell>,
    ins_other: VarHandle,
    ins_chain: Vec<Cell>,
    ins_chain_pos: usize,

    // Centre-of-mass scratch.
    reduce_idx: usize,
    depth_acc: u32,
    depth_iter: u32,
    cell_scan: usize,
    com_cell_var: VarHandle,
    com_cell: Option<Cell>,
    com_child: usize,
    com_mass: f64,
    com_com: [f64; 3],
    com_count: u32,
    com_work: u32,

    // Costzones scratch.
    cz_frames: Vec<(Arc<Cell>, usize)>,
    cz_off: u64,
    cz_lo: u64,
    cz_hi: u64,
    cz_body: VarHandle,
    assigned: Vec<VarHandle>,

    // Force scratch.
    f_stack: Vec<VarHandle>,
    f_cell: Option<Arc<Cell>>,
    f_child: usize,
    f_pos: [f64; 3],
    f_body: VarHandle,
    f_acc: [f64; 3],
    f_inter: u64,
    updates: Vec<(VarHandle, [f64; 3], u64)>,

    // Update / bounds scratch.
    upd_idx: usize,
    local_min: [f64; 3],
    local_max: [f64; 3],
    bnd_min: [f64; 3],
    bnd_max: [f64; 3],
}

impl BhProgram {
    #[allow(clippy::too_many_arguments)]
    fn new(
        me: usize,
        nprocs: usize,
        params: BhParams,
        my_bodies: Vec<VarHandle>,
        root_ptr: VarHandle,
        bounds_var: VarHandle,
        depth_var: VarHandle,
        reduce_vars: Arc<Vec<VarHandle>>,
    ) -> Self {
        BhProgram {
            params,
            me,
            nprocs,
            root_ptr,
            bounds_var,
            depth_var,
            reduce_vars,
            st: BhSt::StepBegin,
            step_no: 0,
            my_bodies,
            my_cells: Vec::new(),
            interactions_total: 0,
            final_bodies: Vec::new(),
            root: VarHandle(u32::MAX),
            body_idx: 0,
            ins_body: VarHandle(u32::MAX),
            ins_pos: [0.0; 3],
            ins_cur: VarHandle(u32::MAX),
            ins_oct: 0,
            ins_fresh: None,
            ins_other: VarHandle(u32::MAX),
            ins_chain: Vec::new(),
            ins_chain_pos: 0,
            reduce_idx: 0,
            depth_acc: 0,
            depth_iter: 0,
            cell_scan: 0,
            com_cell_var: VarHandle(u32::MAX),
            com_cell: None,
            com_child: 0,
            com_mass: 0.0,
            com_com: [0.0; 3],
            com_count: 0,
            com_work: 0,
            cz_frames: Vec::new(),
            cz_off: 0,
            cz_lo: 0,
            cz_hi: 0,
            cz_body: VarHandle(u32::MAX),
            assigned: Vec::new(),
            f_stack: Vec::new(),
            f_cell: None,
            f_child: 0,
            f_pos: [0.0; 3],
            f_body: VarHandle(u32::MAX),
            f_acc: [0.0; 3],
            f_inter: 0,
            updates: Vec::new(),
            upd_idx: 0,
            local_min: [f64::INFINITY; 3],
            local_max: [f64::NEG_INFINITY; 3],
            bnd_min: [f64::INFINITY; 3],
            bnd_max: [f64::NEG_INFINITY; 3],
        }
    }

    /// Region name of the current step ("warmup" while excluded).
    fn region(&self, name: &str) -> String {
        if self.step_no >= self.params.warmup_steps {
            name.to_string()
        } else {
            "warmup".to_string()
        }
    }

    /// Advance past the end of a time step: start the next step, or harvest
    /// the final body states after the last one.
    fn finish_step(&mut self) {
        if self.step_no + 1 == self.params.timesteps {
            self.body_idx = 0;
            self.st = BhSt::FinNext;
        } else {
            self.step_no += 1;
            self.st = BhSt::StepBegin;
        }
    }

    /// Advance by one transition; `None` means only local bookkeeping
    /// happened and the caller should advance again.
    fn advance(&mut self, ctx: &mut StepCtx<'_>) -> Option<Op> {
        match self.st {
            BhSt::StepBegin => {
                self.my_cells.clear();
                self.st = BhSt::TbRegion;
                Some(Op::Region(self.region("tree-build")))
            }
            BhSt::TbRegion => {
                if self.me == 0 {
                    self.st = BhSt::TbBounds;
                    Some(Op::Read(self.bounds_var))
                } else {
                    self.st = BhSt::TbSynced;
                    Some(Op::Barrier)
                }
            }
            BhSt::TbBounds => {
                let (centre, half) = *ctx.take::<([f64; 3], f64)>();
                self.st = BhSt::TbRootAlloc;
                Some(Op::Alloc {
                    bytes: CELL_BYTES,
                    value: Arc::new(Cell::new(centre, half, 0)),
                })
            }
            BhSt::TbRootAlloc => {
                let root = ctx.take_handle();
                self.my_cells.push((0, root));
                self.st = BhSt::TbRootWritten;
                Some(Op::Write(self.root_ptr, Arc::new(root)))
            }
            BhSt::TbRootWritten => {
                self.st = BhSt::TbSynced;
                Some(Op::Barrier)
            }
            BhSt::TbSynced => {
                self.st = BhSt::TbRootPtr;
                Some(Op::Read(self.root_ptr))
            }
            BhSt::TbRootPtr => {
                self.root = *ctx.take::<VarHandle>();
                self.body_idx = 0;
                self.st = BhSt::InsNext;
                None
            }
            BhSt::InsNext => {
                if self.body_idx < self.my_bodies.len() {
                    self.ins_body = self.my_bodies[self.body_idx];
                    self.st = BhSt::InsPos;
                    Some(Op::Read(self.ins_body))
                } else {
                    self.st = BhSt::ComBegin;
                    Some(Op::Barrier)
                }
            }
            BhSt::InsPos => {
                self.ins_pos = ctx.take::<Body>().pos;
                self.ins_cur = self.root;
                self.st = BhSt::InsCell;
                Some(Op::Read(self.ins_cur))
            }
            BhSt::InsCell => {
                let cell = ctx.take::<Cell>();
                let idx = cell.octant(&self.ins_pos);
                match cell.child(idx) {
                    ChildRef::Cell(next) => {
                        self.ins_cur = next;
                        Some(Op::Read(self.ins_cur))
                    }
                    _ => {
                        self.st = BhSt::InsLocked;
                        Some(Op::Lock(self.ins_cur))
                    }
                }
            }
            BhSt::InsLocked => {
                self.st = BhSt::InsFresh;
                Some(Op::Read(self.ins_cur))
            }
            BhSt::InsFresh => {
                let fresh = (*ctx.take::<Cell>()).clone();
                let idx = fresh.octant(&self.ins_pos);
                self.ins_oct = idx;
                match fresh.child(idx) {
                    ChildRef::Cell(_) => {
                        // Another processor filled the slot: retry the
                        // descent from the same cell.
                        self.st = BhSt::InsRetry;
                        Some(Op::Unlock(self.ins_cur))
                    }
                    ChildRef::Empty => {
                        let mut updated = fresh;
                        updated.set_child(idx, ChildRef::Body(self.ins_body));
                        self.st = BhSt::InsWrote;
                        Some(Op::Write(self.ins_cur, Arc::new(updated)))
                    }
                    ChildRef::Body(other) => {
                        self.ins_fresh = Some(fresh);
                        self.ins_other = other;
                        self.st = BhSt::InsOtherPos;
                        Some(Op::Read(other))
                    }
                }
            }
            BhSt::InsRetry => {
                self.st = BhSt::InsCell;
                Some(Op::Read(self.ins_cur))
            }
            BhSt::InsOtherPos => {
                let other_pos = ctx.take::<Body>().pos;
                let parent = self.ins_fresh.as_ref().expect("no locked cell stashed");
                // Build the chain of cells separating the two bodies into the
                // pooled buffer.
                build_subdivision_chain(
                    &mut self.ins_chain,
                    parent,
                    self.ins_oct,
                    (self.ins_body, self.ins_pos),
                    (self.ins_other, other_pos),
                );
                // Allocate from the deepest cell upwards.
                self.ins_chain_pos = self.ins_chain.len() - 1;
                let deepest = self.ins_chain[self.ins_chain_pos].clone();
                self.st = BhSt::InsAlloc;
                Some(Op::Alloc {
                    bytes: CELL_BYTES,
                    value: Arc::new(deepest),
                })
            }
            BhSt::InsAlloc => {
                let handle = ctx.take_handle();
                let depth = self.ins_chain[self.ins_chain_pos].depth;
                self.my_cells.push((depth, handle));
                if self.ins_chain_pos == 0 {
                    // The topmost new cell links into the locked parent.
                    let mut updated = self.ins_fresh.take().expect("no locked cell stashed");
                    updated.set_child(self.ins_oct, ChildRef::Cell(handle));
                    self.ins_chain.clear();
                    self.st = BhSt::InsWrote;
                    Some(Op::Write(self.ins_cur, Arc::new(updated)))
                } else {
                    self.ins_chain_pos -= 1;
                    let mut cell = self.ins_chain[self.ins_chain_pos].clone();
                    let idx = cell.octant(&self.ins_pos);
                    cell.set_child(idx, ChildRef::Cell(handle));
                    Some(Op::Alloc {
                        bytes: CELL_BYTES,
                        value: Arc::new(cell),
                    })
                }
            }
            BhSt::InsWrote => {
                self.st = BhSt::InsUnlocked;
                Some(Op::Unlock(self.ins_cur))
            }
            BhSt::InsUnlocked => {
                self.body_idx += 1;
                self.st = BhSt::InsNext;
                None
            }
            BhSt::ComBegin => {
                self.st = BhSt::ComRegion;
                Some(Op::Region(self.region("com")))
            }
            BhSt::ComRegion => {
                let my_depth = self.my_cells.iter().map(|&(d, _)| d).max().unwrap_or(0);
                self.st = BhSt::ComReduceW;
                Some(Op::Write(
                    self.reduce_vars[self.me],
                    Arc::new(([0.0f64; 3], [0.0f64; 3], u32::from(my_depth))),
                ))
            }
            BhSt::ComReduceW => {
                self.st = BhSt::ComSync1;
                Some(Op::Barrier)
            }
            BhSt::ComSync1 => {
                if self.me == 0 {
                    self.reduce_idx = 0;
                    self.depth_acc = 0;
                    self.st = BhSt::ComReadRed;
                    Some(Op::Read(self.reduce_vars[0]))
                } else {
                    self.st = BhSt::ComSync2;
                    Some(Op::Barrier)
                }
            }
            BhSt::ComReadRed => {
                let contribution = ctx.take::<([f64; 3], [f64; 3], u32)>().2;
                self.depth_acc = self.depth_acc.max(contribution);
                self.reduce_idx += 1;
                if self.reduce_idx < self.nprocs {
                    Some(Op::Read(self.reduce_vars[self.reduce_idx]))
                } else {
                    self.st = BhSt::ComDepthW;
                    Some(Op::Write(self.depth_var, Arc::new(self.depth_acc)))
                }
            }
            BhSt::ComDepthW => {
                self.st = BhSt::ComSync2;
                Some(Op::Barrier)
            }
            BhSt::ComSync2 => {
                self.st = BhSt::ComDepth;
                Some(Op::Read(self.depth_var))
            }
            BhSt::ComDepth => {
                self.depth_iter = *ctx.take::<u32>();
                self.cell_scan = 0;
                self.st = BhSt::ComScan;
                None
            }
            BhSt::ComScan => {
                while self.cell_scan < self.my_cells.len() {
                    let (d, cell_var) = self.my_cells[self.cell_scan];
                    if u32::from(d) == self.depth_iter {
                        self.com_cell_var = cell_var;
                        self.st = BhSt::ComCell;
                        return Some(Op::Read(cell_var));
                    }
                    self.cell_scan += 1;
                }
                self.st = BhSt::ComLevelSync;
                Some(Op::Barrier)
            }
            BhSt::ComCell => {
                self.com_cell = Some((*ctx.take::<Cell>()).clone());
                self.com_child = 0;
                self.com_mass = 0.0;
                self.com_com = [0.0; 3];
                self.com_count = 0;
                self.com_work = 0;
                self.st = BhSt::ComChild;
                None
            }
            BhSt::ComChild => {
                let cell = self.com_cell.as_ref().expect("no COM cell");
                while self.com_child < 8 {
                    match cell.child(self.com_child) {
                        ChildRef::Empty => self.com_child += 1,
                        ChildRef::Body(b) => {
                            self.st = BhSt::ComChildBody;
                            return Some(Op::Read(b));
                        }
                        ChildRef::Cell(c) => {
                            self.st = BhSt::ComChildCell;
                            return Some(Op::Read(c));
                        }
                    }
                }
                // All children aggregated: finalize and write back.
                let mut cell = self.com_cell.take().expect("no COM cell");
                if self.com_mass > 0.0 {
                    for k in 0..3 {
                        self.com_com[k] /= self.com_mass;
                    }
                } else {
                    self.com_com = cell.centre;
                }
                cell.mass = self.com_mass;
                cell.com = self.com_com;
                cell.count = self.com_count;
                cell.work = self.com_work;
                self.st = BhSt::ComCellW;
                Some(Op::Write(self.com_cell_var, Arc::new(cell)))
            }
            BhSt::ComChildBody => {
                let body = ctx.take::<Body>();
                self.com_mass += body.mass;
                for k in 0..3 {
                    self.com_com[k] += body.mass * body.pos[k];
                }
                self.com_count += 1;
                self.com_work = self.com_work.saturating_add(clamp_work(body.work.max(1)));
                self.com_child += 1;
                self.st = BhSt::ComChild;
                None
            }
            BhSt::ComChildCell => {
                let sub = ctx.take::<Cell>();
                self.com_mass += sub.mass;
                for k in 0..3 {
                    self.com_com[k] += sub.mass * sub.com[k];
                }
                self.com_count += sub.count;
                self.com_work = self.com_work.saturating_add(sub.work);
                self.com_child += 1;
                self.st = BhSt::ComChild;
                None
            }
            BhSt::ComCellW => {
                self.cell_scan += 1;
                self.st = BhSt::ComScan;
                None
            }
            BhSt::ComLevelSync => {
                if self.depth_iter > 0 {
                    self.depth_iter -= 1;
                    self.cell_scan = 0;
                    self.st = BhSt::ComScan;
                    None
                } else {
                    self.st = BhSt::PartRegion;
                    Some(Op::Region(self.region("partition")))
                }
            }
            BhSt::PartRegion => {
                self.st = BhSt::PartRoot;
                Some(Op::Read(self.root))
            }
            BhSt::PartRoot => {
                let root_cell = ctx.take::<Cell>();
                // A saturated total would silently drop bodies from every
                // costzones zone (child sums can exceed the clamped root);
                // fail loudly instead when a sweep outgrows the u32 envelope.
                assert!(
                    root_cell.work < u32::MAX,
                    "total per-step work saturated the u32 cell aggregate"
                );
                let total_work = u64::from(root_cell.work).max(1);
                self.cz_lo = total_work * self.me as u64 / self.nprocs as u64;
                self.cz_hi = total_work * (self.me as u64 + 1) / self.nprocs as u64;
                self.cz_off = 0;
                self.cz_frames.clear();
                self.assigned.clear();
                // Every cell of the walk goes through `CzCell`, the root
                // (read again, a local hit by now) included.
                self.st = BhSt::CzCell;
                Some(Op::Read(self.root))
            }
            BhSt::CzCell => {
                let cell = ctx.take::<Cell>();
                let end = self.cz_off + u64::from(cell.work);
                if end <= self.cz_lo || self.cz_off >= self.cz_hi {
                    // Whole subtree outside the zone: skip it.
                    self.cz_off = end;
                } else {
                    self.cz_frames.push((cell, 0));
                }
                self.st = BhSt::CzAdvance;
                None
            }
            BhSt::CzAdvance => {
                loop {
                    let Some((cell, child)) = self.cz_frames.last_mut() else {
                        // Walk complete: the zone's bodies are this step's
                        // assignment.
                        std::mem::swap(&mut self.my_bodies, &mut self.assigned);
                        self.st = BhSt::ForceBegin;
                        return Some(Op::Barrier);
                    };
                    if *child >= 8 {
                        self.cz_frames.pop();
                        continue;
                    }
                    let slot = cell.child(*child);
                    *child += 1;
                    match slot {
                        ChildRef::Empty => {}
                        ChildRef::Body(b) => {
                            self.cz_body = b;
                            self.st = BhSt::CzBody;
                            return Some(Op::Read(b));
                        }
                        ChildRef::Cell(c) => {
                            self.st = BhSt::CzCell;
                            return Some(Op::Read(c));
                        }
                    }
                }
            }
            BhSt::CzBody => {
                let work = ctx.take::<Body>().work.max(1);
                if self.cz_off >= self.cz_lo && self.cz_off < self.cz_hi {
                    self.assigned.push(self.cz_body);
                }
                self.cz_off += work;
                self.st = BhSt::CzAdvance;
                None
            }
            BhSt::ForceBegin => {
                self.st = BhSt::ForceRegion;
                Some(Op::Region(self.region("force")))
            }
            BhSt::ForceRegion => {
                self.body_idx = 0;
                self.updates.clear();
                self.st = BhSt::FNext;
                None
            }
            BhSt::FNext => {
                if self.body_idx < self.my_bodies.len() {
                    self.f_body = self.my_bodies[self.body_idx];
                    self.st = BhSt::FBody;
                    Some(Op::Read(self.f_body))
                } else {
                    self.st = BhSt::UpdBegin;
                    Some(Op::Barrier)
                }
            }
            BhSt::FBody => {
                self.f_pos = ctx.take::<Body>().pos;
                self.f_acc = [0.0; 3];
                self.f_inter = 0;
                self.f_stack.clear();
                self.f_stack.push(self.root);
                self.st = BhSt::FPop;
                None
            }
            BhSt::FPop => {
                if let Some(cell_var) = self.f_stack.pop() {
                    self.st = BhSt::FCell;
                    Some(Op::Read(cell_var))
                } else {
                    // Traversal of this body complete.
                    ctx.compute_flops(self.f_inter * FLOPS_PER_INTERACTION);
                    self.interactions_total += self.f_inter;
                    self.updates.push((self.f_body, self.f_acc, self.f_inter));
                    self.body_idx += 1;
                    self.st = BhSt::FNext;
                    None
                }
            }
            BhSt::FCell => {
                let cell = ctx.take::<Cell>();
                if cell.count == 0 {
                    self.st = BhSt::FPop;
                    return None;
                }
                let dx = cell.com[0] - self.f_pos[0];
                let dy = cell.com[1] - self.f_pos[1];
                let dz = cell.com[2] - self.f_pos[2];
                let dist = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-12);
                if (2.0 * cell.half) / dist < self.params.theta {
                    let a = pairwise_accel(&self.f_pos, &cell.com, cell.mass);
                    for k in 0..3 {
                        self.f_acc[k] += a[k];
                    }
                    self.f_inter += 1;
                    self.st = BhSt::FPop;
                    None
                } else {
                    self.f_cell = Some(cell);
                    self.f_child = 0;
                    self.st = BhSt::FChild;
                    None
                }
            }
            BhSt::FChild => {
                let cell = self.f_cell.as_ref().expect("no opened cell");
                while self.f_child < 8 {
                    let slot = cell.child(self.f_child);
                    self.f_child += 1;
                    match slot {
                        ChildRef::Empty => {}
                        ChildRef::Body(b) => {
                            if b != self.f_body {
                                self.st = BhSt::FChildBody;
                                return Some(Op::Read(b));
                            }
                        }
                        ChildRef::Cell(c) => self.f_stack.push(c),
                    }
                }
                self.f_cell = None;
                self.st = BhSt::FPop;
                None
            }
            BhSt::FChildBody => {
                let other = ctx.take::<Body>();
                let a = pairwise_accel(&self.f_pos, &other.pos, other.mass);
                for k in 0..3 {
                    self.f_acc[k] += a[k];
                }
                self.f_inter += 1;
                self.st = BhSt::FChild;
                None
            }
            BhSt::UpdBegin => {
                self.st = BhSt::UpdRegion;
                Some(Op::Region(self.region("update")))
            }
            BhSt::UpdRegion => {
                self.upd_idx = 0;
                self.local_min = [f64::INFINITY; 3];
                self.local_max = [f64::NEG_INFINITY; 3];
                self.st = BhSt::UNext;
                None
            }
            BhSt::UNext => {
                if self.upd_idx < self.updates.len() {
                    self.st = BhSt::UBody;
                    Some(Op::Read(self.updates[self.upd_idx].0))
                } else {
                    self.st = BhSt::BndBegin;
                    Some(Op::Barrier)
                }
            }
            BhSt::UBody => {
                let (b, acc, count) = self.updates[self.upd_idx];
                let mut body = *ctx.take::<Body>();
                for k in 0..3 {
                    body.vel[k] += acc[k] * self.params.dt;
                    body.pos[k] += body.vel[k] * self.params.dt;
                    self.local_min[k] = self.local_min[k].min(body.pos[k]);
                    self.local_max[k] = self.local_max[k].max(body.pos[k]);
                }
                body.work = count.max(1);
                self.st = BhSt::UWrote;
                Some(Op::Write(b, Arc::new(body)))
            }
            BhSt::UWrote => {
                self.upd_idx += 1;
                self.st = BhSt::UNext;
                None
            }
            BhSt::BndBegin => {
                self.st = BhSt::BndRegion;
                Some(Op::Region(self.region("bounds")))
            }
            BhSt::BndRegion => {
                self.st = BhSt::BndReduceW;
                Some(Op::Write(
                    self.reduce_vars[self.me],
                    Arc::new((self.local_min, self.local_max, 0u32)),
                ))
            }
            BhSt::BndReduceW => {
                self.st = BhSt::BndSync1;
                Some(Op::Barrier)
            }
            BhSt::BndSync1 => {
                if self.me == 0 {
                    self.reduce_idx = 0;
                    self.bnd_min = [f64::INFINITY; 3];
                    self.bnd_max = [f64::NEG_INFINITY; 3];
                    self.st = BhSt::BndRead;
                    Some(Op::Read(self.reduce_vars[0]))
                } else {
                    self.st = BhSt::BndSync2;
                    Some(Op::Barrier)
                }
            }
            BhSt::BndRead => {
                let (lmin, lmax, _) = *ctx.take::<([f64; 3], [f64; 3], u32)>();
                for k in 0..3 {
                    self.bnd_min[k] = self.bnd_min[k].min(lmin[k]);
                    self.bnd_max[k] = self.bnd_max[k].max(lmax[k]);
                }
                self.reduce_idx += 1;
                if self.reduce_idx < self.nprocs {
                    Some(Op::Read(self.reduce_vars[self.reduce_idx]))
                } else {
                    let centre = [
                        (self.bnd_min[0] + self.bnd_max[0]) / 2.0,
                        (self.bnd_min[1] + self.bnd_max[1]) / 2.0,
                        (self.bnd_min[2] + self.bnd_max[2]) / 2.0,
                    ];
                    let half = (0..3)
                        .map(|k| (self.bnd_max[k] - self.bnd_min[k]) / 2.0)
                        .fold(0.0f64, f64::max)
                        .max(1e-6)
                        * 1.001;
                    self.st = BhSt::BndW;
                    Some(Op::Write(self.bounds_var, Arc::new((centre, half))))
                }
            }
            BhSt::BndW => {
                self.st = BhSt::BndSync2;
                Some(Op::Barrier)
            }
            BhSt::BndSync2 => {
                // Step barrier reached: all protocol traffic on the cells has
                // quiesced (every phase ended in a barrier), so the cells
                // this processor allocated are freed in one request, in
                // allocation order. Costs no simulated time, and caps
                // per-variable protocol state at O(cells per step) instead
                // of O(steps × cells).
                self.st = BhSt::StepFreed;
                Some(Op::Free(self.my_cells.iter().map(|&(_, v)| v).collect()))
            }
            BhSt::StepFreed => {
                self.finish_step();
                None
            }
            BhSt::FinNext => {
                if self.body_idx < self.my_bodies.len() {
                    self.st = BhSt::FinBody;
                    Some(Op::Read(self.my_bodies[self.body_idx]))
                } else {
                    self.st = BhSt::Finished;
                    Some(Op::Done)
                }
            }
            BhSt::FinBody => {
                let body = *ctx.take::<Body>();
                self.final_bodies
                    .push((self.my_bodies[self.body_idx], body));
                self.body_idx += 1;
                self.st = BhSt::FinNext;
                None
            }
            BhSt::Finished => Some(Op::Done),
        }
    }
}

impl ProcProgram for BhProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        loop {
            if let Some(op) = self.advance(ctx) {
                return op;
            }
        }
    }
}

/// Run the Barnes-Hut simulation through the DIVA shared-variable interface.
pub fn run_shared_driven(diva: Diva, params: BhParams, bodies: &[Body]) -> BhOutcome {
    match try_run_shared_driven(diva, params, bodies) {
        Ok(out) => out,
        Err(p) => panic!(
            "Barnes-Hut run partitioned at {} ns (node {} unreachable)",
            p.at, p.unreachable
        ),
    }
}

/// Like [`run_shared_driven`], but a fault plan that disconnects the network
/// yields `Err` (with the partial report) instead of panicking — the
/// graceful-degradation sweep (`fig13`) reports such points as partitioned
/// rows.
// The Err carries the partial report by value; these run once per
// simulation, so the lint's by-value-return cost is irrelevant here.
#[allow(clippy::result_large_err)]
pub fn try_run_shared_driven(
    mut diva: Diva,
    params: BhParams,
    bodies: &[Body],
) -> Result<BhOutcome, dm_diva::Partitioned> {
    assert_eq!(bodies.len(), params.n_bodies);
    let nprocs = diva.num_procs();
    let n = params.n_bodies;
    assert!(n >= nprocs, "need at least one body per processor");

    // Pre-allocate one global variable per body; the initial owner follows a
    // block distribution over the decomposition-tree leaf order (bodies are
    // generated in no particular spatial order, so this mirrors the paper's
    // "each processor initially holds about an equal number of bodies").
    let leaf_order: Vec<usize> =
        DecompositionTree::build_on(&diva.config().topology, TreeShape::binary())
            .leaf_order()
            .iter()
            .map(|p| p.index())
            .collect();
    let mut body_vars = Vec::with_capacity(n);
    let mut initial_assignment: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
    for (i, b) in bodies.iter().enumerate() {
        let owner = leaf_order[i * nprocs / n];
        let h = diva.alloc(owner, BODY_BYTES, *b);
        initial_assignment[owner].push(i);
        body_vars.push(h);
    }
    let handle_to_index: HashMap<VarHandle, usize> =
        body_vars.iter().enumerate().map(|(i, &h)| (h, i)).collect();

    // Shared control variables.
    let (centre, half) = bounding_cube(bodies);
    let root_ptr = diva.alloc(0, 16, VarHandle(u32::MAX));
    let bounds_var = diva.alloc(0, 64, (centre, half));
    let depth_var = diva.alloc(0, 8, 0u32);
    // Per-processor reduction slots (bounds and tree depth contributions).
    let reduce_vars: Arc<Vec<VarHandle>> = Arc::new(
        (0..nprocs)
            .map(|p| diva.alloc(p, 64, ([0.0f64; 3], [0.0f64; 3], 0u32)))
            .collect(),
    );

    let programs: Vec<BhProgram> = (0..nprocs)
        .map(|me| {
            let my_bodies = initial_assignment[me]
                .iter()
                .map(|&i| body_vars[i])
                .collect();
            BhProgram::new(
                me,
                nprocs,
                params,
                my_bodies,
                root_ptr,
                bounds_var,
                depth_var,
                Arc::clone(&reduce_vars),
            )
        })
        .collect();

    let (report, results, queue_trace, procs_lost) = match diva.run_driven(programs) {
        dm_diva::RunOutcome::Completed(done) => {
            let results = done.results.into_iter().map(Some).collect::<Vec<_>>();
            (done.report, results, done.queue_trace, Vec::new())
        }
        dm_diva::RunOutcome::Degraded(d) => {
            let lost = d.lost_procs.iter().map(|n| n.index()).collect();
            (d.report, d.results, Vec::new(), lost)
        }
        dm_diva::RunOutcome::Partitioned(p) => return Err(p),
    };
    let mut final_bodies = bodies.to_vec();
    let mut interactions = 0u64;
    for prog in results.into_iter().flatten() {
        interactions += prog.interactions_total;
        for (handle, body) in prog.final_bodies {
            let idx = handle_to_index[&handle];
            final_bodies[idx] = body;
        }
    }
    Ok(BhOutcome {
        report,
        bodies: final_bodies,
        interactions,
        queue_trace,
        procs_lost,
    })
}

// ---------------------------------------------------------------------------
// Sequential reference implementation (arena octree, no DIVA).
// ---------------------------------------------------------------------------

/// Advance `bodies` by `timesteps` leapfrog steps of the sequential
/// Barnes-Hut algorithm with the same opening criterion as the parallel code.
///
/// The tree is an `ArenaOctree`; the arena and the acceleration buffer are
/// pooled across time steps, so once warmed up the loop performs no per-step
/// allocations — the same discipline the parallel programs follow.
pub fn reference_simulation(bodies: &[Body], theta: f64, dt: f64, timesteps: usize) -> Vec<Body> {
    let mut bodies = bodies.to_vec();
    let mut tree = ArenaOctree::new();
    let mut accs: Vec<[f64; 3]> = Vec::new();
    for _ in 0..timesteps {
        let (centre, half) = bounding_cube(&bodies);
        tree.build(&bodies, centre, half);
        tree.compute_com(&bodies);
        accs.clear();
        accs.extend((0..bodies.len()).map(|i| tree.force(i, &bodies, theta, pairwise_accel)));
        for (b, acc) in bodies.iter_mut().zip(&accs) {
            for k in 0..3 {
                b.vel[k] += acc[k] * dt;
                b.pos[k] += b.vel[k] * dt;
            }
        }
    }
    bodies
}

/// Compute the exact (O(N²)) accelerations — used by tests to bound the
/// Barnes-Hut approximation error.
#[cfg(test)]
pub(crate) fn direct_accelerations(bodies: &[Body]) -> Vec<[f64; 3]> {
    let mut accs = vec![[0.0f64; 3]; bodies.len()];
    for i in 0..bodies.len() {
        for j in 0..bodies.len() {
            if i == j {
                continue;
            }
            let a = pairwise_accel(&bodies[i].pos, &bodies[j].pos, bodies[j].mass);
            for k in 0..3 {
                accs[i][k] += a[k];
            }
        }
    }
    accs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::plummer_bodies;
    use dm_diva::{DivaConfig, StrategyKind};
    use dm_mesh::{Mesh, TreeShape};

    fn diva(side: usize, strategy: StrategyKind) -> Diva {
        Diva::new(DivaConfig::on(Mesh::square(side), strategy))
    }

    #[test]
    fn octant_and_child_centre_are_consistent() {
        let cell = Cell::new([0.0; 3], 2.0, 0);
        for idx in 0..8 {
            let c = cell.child_centre(idx);
            assert_eq!(cell.octant(&c), idx);
        }
    }

    #[test]
    fn reference_tree_matches_direct_forces_for_small_theta() {
        let bodies = plummer_bodies(11, 80);
        let direct = direct_accelerations(&bodies);
        // With θ → 0 the tree never approximates, so forces must match the
        // direct sum almost exactly.
        let (centre, half) = bounding_cube(&bodies);
        let mut tree = ArenaOctree::new();
        tree.build(&bodies, centre, half);
        tree.compute_com(&bodies);
        for i in 0..bodies.len() {
            let acc = tree.force(i, &bodies, 1e-9, pairwise_accel);
            for k in 0..3 {
                assert!((acc[k] - direct[i][k]).abs() < 1e-9, "body {i} axis {k}");
            }
        }
    }

    #[test]
    fn simulated_cell_stays_compact() {
        // The packed-children + u32-work layout is what keeps million-cell
        // sweeps cheap; a regression here silently inflates the memory of
        // every mega run. The payload is 105 bytes (64 geometry/COM + 32
        // packed children + 4 work + 4 count + 1 depth); f64 alignment pads
        // the struct to 112.
        assert!(
            std::mem::size_of::<Cell>() <= 112,
            "Cell grew to {} bytes",
            std::mem::size_of::<Cell>()
        );
    }

    #[test]
    fn work_clamp_saturates_at_u32_max() {
        assert_eq!(clamp_work(0), 0);
        assert_eq!(clamp_work(12345), 12345);
        assert_eq!(clamp_work(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(clamp_work(u64::from(u32::MAX) + 1), u32::MAX);
        assert_eq!(u32::MAX.saturating_add(clamp_work(u64::MAX)), u32::MAX);
    }

    #[test]
    fn live_var_high_water_stays_flat_across_timesteps_with_reclamation() {
        // The reclamation acceptance: with per-step frees the live-variable
        // peak is O(bodies + cells per step) — flat in the step count.
        let run = |timesteps: usize| {
            let params = BhParams {
                n_bodies: 300,
                timesteps,
                warmup_steps: 0,
                theta: 0.9,
                dt: 0.01,
            };
            let bodies = plummer_bodies(47, params.n_bodies);
            run_shared_driven(
                diva(4, StrategyKind::AccessTree(TreeShape::quad())),
                params,
                &bodies,
            )
            .report
            .live_vars_high_water
        };
        let one = run(1);
        let four = run(4);
        // Tree shapes drift as the bodies move, so allow a small margin —
        // but nothing near another step's worth of cells.
        assert!(
            four <= one + one / 4,
            "live high-water grew with steps despite reclamation: {one} -> {four}"
        );
    }

    #[test]
    fn parallel_simulation_matches_the_sequential_reference() {
        let params = BhParams {
            n_bodies: 120,
            timesteps: 2,
            warmup_steps: 0,
            theta: 0.7,
            dt: 0.01,
        };
        let bodies = plummer_bodies(5, params.n_bodies);
        let expected = reference_simulation(&bodies, params.theta, params.dt, params.timesteps);
        for strategy in [
            StrategyKind::AccessTree(TreeShape::quad()),
            StrategyKind::FixedHome,
        ] {
            let out = run_shared_driven(diva(2, strategy), params, &bodies);
            assert_eq!(out.bodies.len(), expected.len());
            for (i, (got, want)) in out.bodies.iter().zip(&expected).enumerate() {
                for k in 0..3 {
                    assert!(
                        (got.pos[k] - want.pos[k]).abs() < 1e-6,
                        "body {i} axis {k}: {} vs {}",
                        got.pos[k],
                        want.pos[k]
                    );
                }
            }
            assert!(out.interactions > 0);
        }
    }

    #[test]
    fn run_produces_phase_regions_and_traffic() {
        let params = BhParams {
            n_bodies: 200,
            timesteps: 2,
            warmup_steps: 1,
            theta: 1.0,
            dt: 0.01,
        };
        let bodies = plummer_bodies(9, params.n_bodies);
        let out = run_shared_driven(
            diva(4, StrategyKind::AccessTree(TreeShape::quad())),
            params,
            &bodies,
        );
        let report = &out.report;
        for phase in [
            "tree-build",
            "com",
            "partition",
            "force",
            "update",
            "bounds",
            "warmup",
        ] {
            assert!(report.region(phase).is_some(), "missing region {phase}");
        }
        // The force phase dominates the traffic among the measured phases of a
        // freshly built tree... at minimum it must produce traffic and time.
        let force = report.region("force").unwrap();
        assert!(force.total_msgs > 0);
        assert!(force.wall_time > 0);
        assert!(report.counter(dm_diva::Counter::Locks) >= params.n_bodies as u64 / 2);
        assert!(report.congestion_msgs() > 0);
    }

    #[test]
    fn access_tree_beats_fixed_home_on_tree_build_congestion() {
        // Figure 9's qualitative claim at small scale: the hot root cell makes
        // the fixed home a bottleneck, the access tree distributes the copies.
        let params = BhParams {
            n_bodies: 256,
            timesteps: 1,
            warmup_steps: 0,
            theta: 1.0,
            dt: 0.01,
        };
        let bodies = plummer_bodies(21, params.n_bodies);
        let at = run_shared_driven(
            diva(4, StrategyKind::AccessTree(TreeShape::quad())),
            params,
            &bodies,
        );
        let fh = run_shared_driven(diva(4, StrategyKind::FixedHome), params, &bodies);
        assert!(
            at.report.congestion_msgs() < fh.report.congestion_msgs(),
            "access tree {} vs fixed home {}",
            at.report.congestion_msgs(),
            fh.report.congestion_msgs()
        );
    }
}
