//! Processor programs: the explicit state machines a run steps.
//!
//! A program implements [`ProcProgram`]. The coordinator *pulls* the next
//! operation of a processor by calling [`ProcProgram::step`] and delivers the
//! operation's result through the [`StepCtx`] before the next call. No
//! threads, no channels — every simulated processor is just a struct owned
//! by the run, which is what makes large meshes practical (a 64×64 mesh is
//! 4096 structs, not 4096 threads).
//!
//! [`Diva::run_prototype`](crate::Diva::run_prototype) offers the same
//! operations as `async` methods of a [`ProcCtx`](crate::ProcCtx), for code
//! that would rather keep ordinary control flow; a `ProcProgram` polls each
//! closure's future once per step, up to the next operation it awaits.
//!
//! The contract between the driver and a program:
//!
//! * `step` is called exactly once per *blocking* operation; the returned
//!   [`Op`] describes the operation to perform.
//! * Before the next `step` call, the result of the previous operation is
//!   available in the context: [`StepCtx::take_value`] after [`Op::Read`] /
//!   [`Op::Recv`], [`StepCtx::take_handle`] after [`Op::Alloc`]. Other
//!   operations complete without a payload.
//! * Reads that hit a valid local copy are always satisfied inline by the
//!   driver (the fast path) without a simulated protocol round trip; `step`
//!   is simply called again.
//! * Local computation is accounted either by returning [`Op::Compute`] or by
//!   calling the `compute*` methods on the context; both charge the time to
//!   the next blocking operation.
//! * After [`Op::Done`] the program is never stepped again.

use crate::var::{Value, VarHandle};
use dm_engine::MachineConfig;
use std::any::Any;
use std::sync::Arc;

/// One blocking operation of a simulated processor, returned by
/// [`ProcProgram::step`].
#[derive(Debug)]
pub enum Op {
    /// Read a global variable; the value is delivered through
    /// [`StepCtx::take_value`] before the next step.
    Read(VarHandle),
    /// Write a new value into a global variable.
    Write(VarHandle, Value),
    /// Allocate a new global variable whose only copy starts at this
    /// processor; the handle is delivered through [`StepCtx::take_handle`].
    Alloc {
        /// Size of the variable in bytes (determines message sizes).
        bytes: u32,
        /// Initial value.
        value: Value,
    },
    /// Acquire the FIFO lock attached to a variable.
    Lock(VarHandle),
    /// Release the lock attached to a variable.
    Unlock(VarHandle),
    /// Wait until every processor has reached the barrier.
    Barrier,
    /// Enter a named measurement region.
    Region(String),
    /// Explicit message-passing send (non-blocking at the receiver side; the
    /// processor continues once its send-side startup is done).
    Send {
        /// Destination processor.
        to: usize,
        /// Message size in bytes.
        bytes: u32,
        /// Message tag (matched by `Recv`).
        tag: u64,
        /// Payload.
        value: Value,
    },
    /// Explicit message-passing receive (blocks until a matching send
    /// arrives); the payload is delivered through [`StepCtx::take_value`].
    Recv {
        /// Source processor.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// Free global variables, in list order, within one request: each one's
    /// protocol state (copy set, copy count, lock entry) is torn down and
    /// its slot recycled for later allocations. Pure bookkeeping — no
    /// messages, no simulated time; the variables must be quiescent and the
    /// handles must not be used afterwards (see [`crate::var`] for the
    /// lifecycle rules).
    Free(Vec<VarHandle>),
    /// Account `ns` nanoseconds of local computation and step again
    /// immediately (no blocking operation is issued).
    Compute {
        /// Modelled local computation time in nanoseconds.
        ns: u64,
    },
    /// The program has finished; it will not be stepped again.
    Done,
}

/// A simulated processor program: an explicit state machine the coordinator
/// drives directly off its event queue.
///
/// Implementations typically keep a small state enum plus whatever data the
/// algorithm carries between operations; see the `dm-apps` applications for
/// full examples.
pub trait ProcProgram: Send {
    /// Produce the next blocking operation. The result of the previous
    /// operation (if it carries one) is available on `ctx`.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op;
}

/// The per-step context handed to [`ProcProgram::step`]: identification of
/// the simulated processor, the machine parameters, the result of the
/// previous operation, and local-computation accounting.
pub struct StepCtx<'a> {
    pub(crate) proc: usize,
    pub(crate) nprocs: usize,
    pub(crate) machine: &'a MachineConfig,
    pub(crate) value: &'a mut Option<Value>,
    pub(crate) handle: &'a mut Option<VarHandle>,
    pub(crate) pending_compute_ns: &'a mut u64,
}

impl StepCtx<'_> {
    /// The id of this simulated processor (row-major mesh numbering).
    pub fn proc_id(&self) -> usize {
        self.proc
    }

    /// Total number of simulated processors.
    pub fn num_procs(&self) -> usize {
        self.nprocs
    }

    /// Take the dynamically typed result of the previous `Read` / `Recv`.
    ///
    /// # Panics
    /// Panics if the previous operation did not deliver a value.
    pub fn take_value(&mut self) -> Value {
        self.value
            .take()
            .expect("no value pending — the previous op was not a read or recv")
    }

    /// Take the result of the previous `Read` / `Recv` downcast to `T`.
    ///
    /// # Panics
    /// Panics if no value is pending or it is not of type `T`.
    pub fn take<T: Any + Send + Sync>(&mut self) -> Arc<T> {
        self.take_value()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("pending value does not have the requested type"))
    }

    /// Take the handle of the variable created by the previous `Alloc`.
    ///
    /// # Panics
    /// Panics if the previous operation was not an `Alloc`.
    pub fn take_handle(&mut self) -> VarHandle {
        self.handle
            .take()
            .expect("no handle pending — the previous op was not an alloc")
    }

    /// Account the modelled time of `n` integer operations.
    pub fn compute_int_ops(&mut self, n: u64) {
        *self.pending_compute_ns += self.machine.int_ops_ns(n);
    }

    /// Account the modelled time of `n` floating-point operations.
    pub fn compute_flops(&mut self, n: u64) {
        *self.pending_compute_ns += self.machine.flops_ns(n);
    }
}
