//! The per-processor handle through which application code accesses DIVA,
//! and the adapter that turns the closure holding it into a [`ProcProgram`].

use super::program::{Op, ProcProgram, StepCtx};
use crate::var::{Value, VarHandle};
use dm_engine::{us_to_ns, MachineConfig};
use std::any::Any;
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// What a completed operation hands back to the closure: the payload of a
/// read or receive, the handle of an allocation, nothing otherwise.
struct Reply {
    value: Option<Value>,
    handle: Option<VarHandle>,
}

/// Unwind payload of a closure thread or a run whose other side is gone: the
/// run dropped the closure's program (processor lost, network partitioned,
/// run unwinding), or the closure panicked and dropped its [`ProcCtx`].
/// Raised with `resume_unwind`, which skips the panic hook, so the expected
/// cases stay silent; [`Diva::run_prototype`](crate::Diva::run_prototype)
/// tells it apart from a closure's own panic by type.
pub(super) struct Severed;

/// The interface a simulated processor uses to access global variables,
/// synchronise, and (for the hand-optimized baselines) exchange explicit
/// messages.
///
/// One `ProcCtx` is handed to the program closure of every simulated
/// processor by [`Diva::run_prototype`](crate::Diva::run_prototype). All methods account virtual
/// time: `compute()` calls accumulate locally and are charged, together with
/// the library overhead of local cache hits, at the next blocking operation;
/// everything else blocks the simulated processor until the simulated
/// operation completes.
pub struct ProcCtx {
    proc: usize,
    nprocs: usize,
    machine: MachineConfig,
    pending_compute_ns: u64,
    ops: Sender<(u64, Op)>,
    replies: Receiver<Reply>,
}

/// The [`ProcProgram`] side of a closure: each step answers the closure's
/// previous operation and blocks until its thread issues the next one. From
/// its first operation to its last the closure runs only while its program
/// is inside `step`, so the run stays as deterministic as one of
/// hand-written state machines — and fast-path hits, the carry of their
/// overhead and processor loss are the stepper's business, not this file's.
pub(super) struct ClosureProgram {
    ops: Receiver<(u64, Op)>,
    replies: Sender<Reply>,
    /// Whether the closure has issued an operation that awaits its reply.
    started: bool,
}

/// The two ends of processor `proc`'s closure: the program the run steps and
/// the context its closure thread calls into.
pub(super) fn closure_pair(
    proc: usize,
    nprocs: usize,
    machine: MachineConfig,
) -> (ClosureProgram, ProcCtx) {
    let (ops_tx, ops_rx) = channel();
    let (replies_tx, replies_rx) = channel();
    let program = ClosureProgram {
        ops: ops_rx,
        replies: replies_tx,
        started: false,
    };
    let ctx = ProcCtx {
        proc,
        nprocs,
        machine,
        pending_compute_ns: 0,
        ops: ops_tx,
        replies: replies_rx,
    };
    (program, ctx)
}

impl ProcProgram for ClosureProgram {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        if self.started {
            let reply = Reply {
                value: ctx.value.take(),
                handle: ctx.handle.take(),
            };
            // A closure that is gone is noticed by the receive below.
            let _ = self.replies.send(reply);
        }
        self.started = true;
        match self.ops.recv() {
            Ok((compute_ns, op)) => {
                *ctx.pending_compute_ns += compute_ns;
                op
            }
            // The closure panicked: it dropped its context without the
            // `Op::Done` of `ProcCtx::finish`. End the run; `run_prototype`
            // resumes the closure's own panic in place of this marker.
            Err(_) => resume_unwind(Box::new(Severed)),
        }
    }
}

impl ProcCtx {
    /// The id of this simulated processor (row-major mesh numbering).
    pub fn proc_id(&self) -> usize {
        self.proc
    }

    /// Total number of simulated processors.
    pub fn num_procs(&self) -> usize {
        self.nprocs
    }

    /// Read a global variable, returning a shared handle to its current value.
    ///
    /// # Panics
    /// Panics if the stored value is not of type `T`.
    pub fn read<T: Any + Send + Sync>(&mut self, var: VarHandle) -> Arc<T> {
        let value = self.read_value(var);
        value.downcast::<T>().unwrap_or_else(|_| {
            panic!("variable {var} does not hold a value of the requested type")
        })
    }

    /// Read a global variable as a dynamically typed value.
    ///
    /// The read always goes to the run, which owns the variable store; a hit
    /// on a local copy is answered while stepping, without a protocol
    /// transaction and without ending this processor's turn.
    pub(crate) fn read_value(&mut self, var: VarHandle) -> Value {
        self.request(Op::Read(var))
            .value
            .expect("a read completed without a value")
    }

    /// Write a new value into a global variable.
    pub fn write<T: Any + Send + Sync>(&mut self, var: VarHandle, value: T) {
        self.write_value(var, Arc::new(value));
    }

    /// Write a dynamically typed value into a global variable.
    pub(crate) fn write_value(&mut self, var: VarHandle, value: Value) {
        self.request(Op::Write(var, value));
    }

    /// Allocate a new global variable of `bytes` bytes whose only copy
    /// initially resides at this processor.
    pub fn alloc<T: Any + Send + Sync>(&mut self, bytes: u32, value: T) -> VarHandle {
        self.alloc_value(bytes, Arc::new(value))
    }

    /// Allocate a new global variable holding a dynamically typed value.
    pub(crate) fn alloc_value(&mut self, bytes: u32, value: Value) -> VarHandle {
        self.request(Op::Alloc { bytes, value })
            .handle
            .expect("an alloc completed without a handle")
    }

    /// Wait until every processor has reached the barrier.
    pub fn barrier(&mut self) {
        self.request(Op::Barrier);
    }

    /// Acquire the lock attached to `var` (blocking, FIFO).
    pub fn lock(&mut self, var: VarHandle) {
        self.request(Op::Lock(var));
    }

    /// Release the lock attached to `var`.
    pub fn unlock(&mut self, var: VarHandle) {
        self.request(Op::Unlock(var));
    }

    /// Free global variables in list order: tear down their protocol state
    /// and recycle their slots (see [`crate::var`] for the lifecycle and
    /// handle-reuse rules).
    ///
    /// Freeing is pure bookkeeping — it sends no messages and consumes no
    /// simulated time, so a run that frees its dead variables is
    /// bit-identical (in simulated quantities) to one that leaks them. The
    /// variables must be quiescent: free after a barrier, never while another
    /// processor may still access one or while a lock release is in flight.
    pub fn free(&mut self, vars: &[VarHandle]) {
        self.request(Op::Free(vars.to_vec()));
    }

    /// Account `us` microseconds of local computation.
    pub fn compute(&mut self, us: f64) {
        debug_assert!(us >= 0.0);
        self.pending_compute_ns += us_to_ns(us);
    }

    /// Account the modelled time of `n` integer operations.
    pub fn compute_int_ops(&mut self, n: u64) {
        self.pending_compute_ns += self.machine.int_ops_ns(n);
    }

    /// Send an explicit message of `bytes` bytes carrying `value` to
    /// processor `to` (non-blocking; used by the hand-optimized baselines).
    pub fn send_msg<T: Any + Send + Sync>(&mut self, to: usize, bytes: u32, tag: u64, value: T) {
        self.send_msg_value(to, bytes, tag, Arc::new(value));
    }

    /// Send an explicit, dynamically typed message.
    pub(crate) fn send_msg_value(&mut self, to: usize, bytes: u32, tag: u64, value: Value) {
        self.request(Op::Send {
            to,
            bytes,
            tag,
            value,
        });
    }

    /// Receive the next explicit message with tag `tag` from processor `from`
    /// (blocking).
    pub fn recv_msg<T: Any + Send + Sync>(&mut self, from: usize, tag: u64) -> Arc<T> {
        self.recv_msg_value(from, tag)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("message from {from} (tag {tag}) has an unexpected type"))
    }

    /// Receive the next explicit message as a dynamically typed value.
    pub(crate) fn recv_msg_value(&mut self, from: usize, tag: u64) -> Value {
        self.request(Op::Recv { from, tag })
            .value
            .expect("a receive completed without a value")
    }

    /// Enter the named measurement region; subsequent traffic and time of this
    /// processor is attributed to it (until the next `region` call).
    pub fn region(&mut self, name: &str) {
        self.request(Op::Region(name.to_string()));
    }

    /// Issue a blocking operation, with the compute time accumulated since
    /// the previous one, and wait until the run has completed it.
    fn request(&mut self, op: Op) -> Reply {
        let compute_ns = std::mem::take(&mut self.pending_compute_ns);
        if self.ops.send((compute_ns, op)).is_err() {
            self.coordinator_gone();
        }
        match self.replies.recv() {
            Ok(reply) => reply,
            Err(_) => self.coordinator_gone(),
        }
    }

    /// Unwind this closure's thread because the run dropped its program: the
    /// processor was lost to a node failure, the network partitioned, or the
    /// run itself is unwinding.
    fn coordinator_gone(&self) -> ! {
        resume_unwind(Box::new(Severed))
    }

    /// Tell the run that this processor's closure has returned.
    pub(super) fn finish(mut self) {
        let compute_ns = std::mem::take(&mut self.pending_compute_ns);
        // The run may already be unwinding (another closure panicked); that
        // panic is the one to report, so a failed send is not an error.
        let _ = self.ops.send((compute_ns, Op::Done));
    }
}
