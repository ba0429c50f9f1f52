//! The per-processor handle through which application code accesses DIVA.

use super::request::{Request, Response, TimedRequest};
use crate::policy::AccessKind;
use crate::var::{Value, VarHandle};
use dm_engine::{us_to_ns, MachineConfig};
use std::any::Any;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

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
    pub(crate) proc: usize,
    pub(crate) nprocs: usize,
    pub(crate) mesh_dims: (usize, usize),
    pub(crate) req_tx: Sender<TimedRequest>,
    pub(crate) resp_rx: Receiver<Response>,
    pub(crate) machine: MachineConfig,
    pub(crate) pending_compute_ns: u64,
    pub(crate) finished: bool,
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

    /// Grid dimensions `(rows, cols)` for grid topologies (mesh, torus);
    /// `(1, nprocs)` for topologies without a 2-D layout.
    pub fn mesh_dims(&self) -> (usize, usize) {
        self.mesh_dims
    }

    /// The machine parameters of the simulated platform.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
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
    /// The read always goes to the coordinator thread, which owns the
    /// variable store; a hit on a local copy is answered by its frontend
    /// without a protocol transaction and without ending this processor's
    /// turn.
    pub fn read_value(&mut self, var: VarHandle) -> Value {
        let resp = self.request(Request::Access {
            proc: self.proc,
            var,
            kind: AccessKind::Read,
            value: None,
        });
        match resp {
            Response::Value(v) => v,
            other => panic!("unexpected response to read: {other:?}"),
        }
    }

    /// Write a new value into a global variable.
    pub fn write<T: Any + Send + Sync>(&mut self, var: VarHandle, value: T) {
        self.write_value(var, Arc::new(value));
    }

    /// Write a dynamically typed value into a global variable.
    pub fn write_value(&mut self, var: VarHandle, value: Value) {
        let resp = self.request(Request::Access {
            proc: self.proc,
            var,
            kind: AccessKind::Write,
            value: Some(value),
        });
        debug_assert!(matches!(resp, Response::Done));
    }

    /// Allocate a new global variable of `bytes` bytes whose only copy
    /// initially resides at this processor.
    pub fn alloc<T: Any + Send + Sync>(&mut self, bytes: u32, value: T) -> VarHandle {
        self.alloc_value(bytes, Arc::new(value))
    }

    /// Allocate a new global variable holding a dynamically typed value.
    pub fn alloc_value(&mut self, bytes: u32, value: Value) -> VarHandle {
        let resp = self.request(Request::Alloc {
            proc: self.proc,
            bytes,
            value,
        });
        match resp {
            Response::Handle(h) => h,
            other => panic!("unexpected response to alloc: {other:?}"),
        }
    }

    /// Wait until every processor has reached the barrier.
    pub fn barrier(&mut self) {
        let resp = self.request(Request::Barrier { proc: self.proc });
        debug_assert!(matches!(resp, Response::Done));
    }

    /// Acquire the lock attached to `var` (blocking, FIFO).
    pub fn lock(&mut self, var: VarHandle) {
        let resp = self.request(Request::Lock {
            proc: self.proc,
            var,
        });
        debug_assert!(matches!(resp, Response::Done));
    }

    /// Release the lock attached to `var`.
    pub fn unlock(&mut self, var: VarHandle) {
        let resp = self.request(Request::Unlock {
            proc: self.proc,
            var,
        });
        debug_assert!(matches!(resp, Response::Done));
    }

    /// Free a global variable: tear down its protocol state and recycle its
    /// slot (see [`crate::var`] for the lifecycle and handle-reuse rules).
    ///
    /// Freeing is pure bookkeeping — it sends no messages and consumes no
    /// simulated time, so a run that frees its dead variables is
    /// bit-identical (in simulated quantities) to one that leaks them. The
    /// variable must be quiescent: free after a barrier, never while another
    /// processor may still access it or while a lock release is in flight.
    pub fn free(&mut self, var: VarHandle) {
        let resp = self.request(Request::Free {
            proc: self.proc,
            var,
        });
        debug_assert!(matches!(resp, Response::Done));
    }

    /// Free every variable this processor allocated with
    /// [`ProcCtx::alloc`] (and did not already free) since its previous
    /// `end_epoch` call — the bulk form of [`ProcCtx::free`] for per-phase
    /// allocations.
    pub fn end_epoch(&mut self) {
        let resp = self.request(Request::EndEpoch { proc: self.proc });
        debug_assert!(matches!(resp, Response::Done));
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

    /// Account the modelled time of `n` floating-point operations.
    pub fn compute_flops(&mut self, n: u64) {
        self.pending_compute_ns += self.machine.flops_ns(n);
    }

    /// Send an explicit message of `bytes` bytes carrying `value` to
    /// processor `to` (non-blocking; used by the hand-optimized baselines).
    pub fn send_msg<T: Any + Send + Sync>(&mut self, to: usize, bytes: u32, tag: u64, value: T) {
        self.send_msg_value(to, bytes, tag, Arc::new(value));
    }

    /// Send an explicit, dynamically typed message.
    pub fn send_msg_value(&mut self, to: usize, bytes: u32, tag: u64, value: Value) {
        assert!(to < self.nprocs, "send to non-existent processor {to}");
        let resp = self.request(Request::Send {
            proc: self.proc,
            to,
            bytes,
            tag,
            value,
        });
        debug_assert!(matches!(resp, Response::Done));
    }

    /// Receive the next explicit message with tag `tag` from processor `from`
    /// (blocking).
    pub fn recv_msg<T: Any + Send + Sync>(&mut self, from: usize, tag: u64) -> Arc<T> {
        self.recv_msg_value(from, tag)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("message from {from} (tag {tag}) has an unexpected type"))
    }

    /// Receive the next explicit message as a dynamically typed value.
    pub fn recv_msg_value(&mut self, from: usize, tag: u64) -> Value {
        assert!(
            from < self.nprocs,
            "receive from non-existent processor {from}"
        );
        let resp = self.request(Request::Recv {
            proc: self.proc,
            from,
            tag,
        });
        match resp {
            Response::Value(v) => v,
            other => panic!("unexpected response to recv: {other:?}"),
        }
    }

    /// Enter the named measurement region; subsequent traffic and time of this
    /// processor is attributed to it (until the next `region` call).
    pub fn region(&mut self, name: &str) {
        let resp = self.request(Request::Region {
            proc: self.proc,
            name: name.to_string(),
        });
        debug_assert!(matches!(resp, Response::Done));
    }

    /// Send a blocking request to the coordinator and wait for its response.
    fn request(&mut self, req: Request) -> Response {
        let timed = self.timed(req);
        if self.req_tx.send(timed).is_err() {
            self.coordinator_gone();
        }
        match self.resp_rx.recv() {
            Ok(resp) => resp,
            Err(_) => self.coordinator_gone(),
        }
    }

    /// Stamp `req` with the compute time accumulated since the previous
    /// request. Hit overhead and hit counts are the frontend's to add.
    fn timed(&mut self, req: Request) -> TimedRequest {
        TimedRequest {
            req,
            compute_ns: std::mem::take(&mut self.pending_compute_ns),
            overhead_ns: 0,
            hits: 0,
        }
    }

    /// Unwind this worker because the coordinator dropped its channels — it
    /// either partitioned the network mid-run (the expected case, handled by
    /// [`crate::Diva::run_prototype`]) or crashed. `resume_unwind` skips the
    /// panic hook, so the expected case stays silent; the runtime rethrows
    /// the payload if the run did *not* end in a partition.
    fn coordinator_gone(&self) -> ! {
        std::panic::resume_unwind(Box::new(format!(
            "coordinator terminated before processor {} finished",
            self.proc
        )))
    }

    /// Notify the coordinator that this processor's program has finished.
    /// Called automatically by the runtime; idempotent.
    pub(crate) fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let timed = self.timed(Request::Finish { proc: self.proc });
        // The coordinator may already be gone if another worker panicked; the
        // error is ignored so the original panic propagates cleanly.
        let _ = self.req_tx.send(timed);
    }
}
