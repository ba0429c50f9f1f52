//! The per-processor handle through which application code accesses DIVA,
//! and the adapter that turns the closure holding it into a [`ProcProgram`].

use super::frontend::StepEnv;
use super::program::{Op, ProcProgram, StepCtx};
use crate::var::{Value, VarHandle};
use dm_engine::us_to_ns;
use std::any::Any;
use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// What a closure and its program hand each other between two steps: the
/// operation the closure awaits, the compute time it accounted since its
/// previous operation, and that operation's value or handle; plus the run's
/// constants. A program lives on the thread that steps it and its closure
/// runs only inside `step`, so a `RefCell` is never borrowed twice.
struct Link {
    op: Option<Op>,
    compute_ns: u64,
    value: Option<Value>,
    handle: Option<VarHandle>,
    env: Rc<StepEnv>,
}

/// The interface a simulated processor uses to access global variables,
/// synchronise, and (for the hand-optimized baselines) exchange explicit
/// messages.
///
/// One `ProcCtx` is handed to the program closure of every simulated
/// processor by [`Diva::run_prototype`](crate::Diva::run_prototype). All
/// methods account virtual time: `compute()` calls accumulate locally and
/// are charged, together with the library overhead of local cache hits, at
/// the next operation; every `async` operation completes when the simulated
/// operation does.
pub struct ProcCtx {
    proc: usize,
    link: Rc<RefCell<Link>>,
}

// A closure's future holds its `ProcCtx`: one per processor.
const _: () = assert!(std::mem::size_of::<ProcCtx>() <= 24);

/// The [`ProcProgram`] side of a closure: each step hands the closure's
/// future the reply to its previous operation and polls it once, up to the
/// next operation it awaits. The closure runs only while its program is
/// inside `step`, on the thread that steps every program, so the run stays
/// as deterministic as one of hand-written state machines — and fast-path
/// hits, the carry of their overhead and processor loss are the stepper's
/// business, not this file's.
pub(super) struct ClosureProgram<Fut: Future> {
    future: Pin<Box<Fut>>,
    link: Rc<RefCell<Link>>,
    /// The closure's return value, once its future is ready.
    pub(super) output: Option<Fut::Output>,
}

impl<Fut: Future> ClosureProgram<Fut> {
    /// Processor `proc`'s program, running the future `program` makes of
    /// the processor's context.
    pub(super) fn new(proc: usize, env: &Rc<StepEnv>, program: impl Fn(ProcCtx) -> Fut) -> Self {
        let link = Rc::new(RefCell::new(Link {
            op: None,
            compute_ns: 0,
            value: None,
            handle: None,
            env: Rc::clone(env),
        }));
        let ctx = ProcCtx {
            proc,
            link: Rc::clone(&link),
        };
        ClosureProgram {
            future: Box::pin(program(ctx)),
            link,
            output: None,
        }
    }
}

impl<Fut: Future> ProcProgram for ClosureProgram<Fut> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Op {
        let mut link = self.link.borrow_mut();
        link.value = ctx.value.take();
        link.handle = ctx.handle.take();
        drop(link);
        let poll = self
            .future
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()));
        let mut link = self.link.borrow_mut();
        *ctx.pending_compute_ns += std::mem::take(&mut link.compute_ns);
        match poll {
            Poll::Ready(output) => {
                self.output = Some(output);
                Op::Done
            }
            Poll::Pending => link
                .op
                .take()
                .expect("a closure awaited something other than a ProcCtx operation"),
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
        self.link.borrow().env.nprocs
    }

    /// Read a global variable, returning a shared handle to its current value.
    ///
    /// The read always goes to the run, which owns the variable table; a hit
    /// on a local copy is answered while stepping, without a protocol
    /// transaction and without ending this processor's turn.
    ///
    /// # Panics
    /// Panics if the stored value is not of type `T`.
    pub async fn read<T: Any + Send + Sync>(&self, var: VarHandle) -> Arc<T> {
        let (value, _) = self.request(Op::Read(var)).await;
        let value = value.expect("a read completed without a value");
        value.downcast::<T>().unwrap_or_else(|_| {
            panic!("variable {var} does not hold a value of the requested type")
        })
    }

    /// Write a new value into a global variable.
    pub async fn write<T: Any + Send + Sync>(&self, var: VarHandle, value: T) {
        self.request(Op::Write(var, Arc::new(value))).await;
    }

    /// Allocate a new global variable of `bytes` bytes whose only copy
    /// initially resides at this processor.
    pub async fn alloc<T: Any + Send + Sync>(&self, bytes: u32, value: T) -> VarHandle {
        let value = Arc::new(value);
        let (_, handle) = self.request(Op::Alloc { bytes, value }).await;
        handle.expect("an alloc completed without a handle")
    }

    /// Wait until every processor has reached the barrier.
    pub async fn barrier(&self) {
        self.request(Op::Barrier).await;
    }

    /// Acquire the lock attached to `var` (FIFO).
    pub async fn lock(&self, var: VarHandle) {
        self.request(Op::Lock(var)).await;
    }

    /// Release the lock attached to `var`.
    pub async fn unlock(&self, var: VarHandle) {
        self.request(Op::Unlock(var)).await;
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
    pub async fn free(&self, vars: &[VarHandle]) {
        self.request(Op::Free(vars.to_vec())).await;
    }

    /// Account `us` microseconds of local computation.
    pub fn compute(&self, us: f64) {
        self.link.borrow_mut().compute_ns += us_to_ns(us);
    }

    /// Account the modelled time of `n` integer operations.
    pub fn compute_int_ops(&self, n: u64) {
        let mut link = self.link.borrow_mut();
        link.compute_ns += link.env.machine.int_ops_ns(n);
    }

    /// Send an explicit message of `bytes` bytes carrying `value` to
    /// processor `to` (non-blocking at the receiver; used by the
    /// hand-optimized baselines).
    pub async fn send_msg<T: Any + Send + Sync>(&self, to: usize, bytes: u32, tag: u64, value: T) {
        let value = Arc::new(value);
        self.request(Op::Send {
            to,
            bytes,
            tag,
            value,
        })
        .await;
    }

    /// Receive the next explicit message with tag `tag` from processor
    /// `from`.
    pub async fn recv_msg<T: Any + Send + Sync>(&self, from: usize, tag: u64) -> Arc<T> {
        let (value, _) = self.request(Op::Recv { from, tag }).await;
        let value = value.expect("a receive completed without a value");
        value
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("message from {from} (tag {tag}) has an unexpected type"))
    }

    /// Enter the named measurement region; subsequent traffic and time of this
    /// processor is attributed to it (until the next `region` call).
    pub async fn region(&self, name: &str) {
        self.request(Op::Region(name.to_string())).await;
    }

    /// Hand `op` to the run and yield until the run has taken it and
    /// stepped this closure again; then take the operation's value and
    /// handle.
    async fn request(&self, op: Op) -> (Option<Value>, Option<VarHandle>) {
        self.link.borrow_mut().op = Some(op);
        poll_fn(|_| match self.link.borrow().op {
            Some(_) => Poll::Pending,
            None => Poll::Ready(()),
        })
        .await;
        let mut link = self.link.borrow_mut();
        (link.value.take(), link.handle.take())
    }
}
