//! The request/response protocol between a frontend and the coordinator.

use crate::policy::AccessKind;
use crate::var::{Value, VarHandle};

/// A blocking operation issued by a simulated processor.
#[derive(Debug)]
pub(crate) enum Request {
    /// Read or write a global variable. The coordinator only ever sees reads
    /// the fast path did not absorb: the frontends absorb hits while stepping
    /// (see [`step_to_request`](super::frontend::step_to_request)).
    Access {
        proc: usize,
        var: VarHandle,
        kind: AccessKind,
        /// New value for writes.
        value: Option<Value>,
    },
    /// Allocate a new global variable owned by `proc`.
    Alloc {
        proc: usize,
        bytes: u32,
        value: Value,
    },
    /// Barrier synchronisation.
    Barrier { proc: usize },
    /// Acquire the lock attached to `var`.
    Lock { proc: usize, var: VarHandle },
    /// Release the lock attached to `var`.
    Unlock { proc: usize, var: VarHandle },
    /// Explicit message-passing send (non-blocking).
    Send {
        proc: usize,
        to: usize,
        bytes: u32,
        tag: u64,
        value: Value,
    },
    /// Explicit message-passing receive (blocks until a matching send arrives).
    Recv { proc: usize, from: usize, tag: u64 },
    /// Free a global variable: tear down its protocol state and recycle its
    /// slot. Pure bookkeeping — costs no simulated time.
    Free { proc: usize, var: VarHandle },
    /// End the issuing processor's allocation epoch: free every variable it
    /// allocated (and did not already free) since its previous epoch end.
    EndEpoch { proc: usize },
    /// Enter a named measurement region.
    Region { proc: usize, name: String },
    /// The worker's program returned.
    Finish { proc: usize },
}

impl Request {
    /// The processor that issued the request.
    pub(crate) fn proc(&self) -> usize {
        match self {
            Request::Access { proc, .. }
            | Request::Alloc { proc, .. }
            | Request::Barrier { proc }
            | Request::Lock { proc, .. }
            | Request::Unlock { proc, .. }
            | Request::Send { proc, .. }
            | Request::Recv { proc, .. }
            | Request::Free { proc, .. }
            | Request::EndEpoch { proc }
            | Request::Region { proc, .. }
            | Request::Finish { proc } => *proc,
        }
    }
}

/// A request together with the locally accumulated time since the
/// processor's previous blocking operation.
#[derive(Debug)]
pub(crate) struct TimedRequest {
    pub req: Request,
    /// Modelled computation time accumulated via `compute()`, in ns.
    pub compute_ns: u64,
    /// Library overhead accumulated by fast-path hits, in ns.
    pub overhead_ns: u64,
    /// Number of fast-path read hits since the previous blocking operation.
    pub hits: u64,
}

/// The coordinator's answer to a blocking operation.
#[derive(Debug)]
pub(crate) enum Response {
    /// The value of a read or receive.
    Value(Value),
    /// The handle of a newly allocated variable.
    Handle(VarHandle),
    /// Completion of an operation without a payload.
    Done,
}
