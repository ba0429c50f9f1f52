//! Data-management policies (strategies).
//!
//! A [`Policy`] decides how copies of global variables are created, located
//! and invalidated. The two policies of the paper are implemented:
//!
//! * [`AccessTreePolicy`](access_tree::AccessTreePolicy) — the access-tree
//!   strategy (the paper's contribution), and
//! * [`FixedHomePolicy`](fixed_home::FixedHomePolicy) — the standard
//!   fixed-home / ownership caching scheme used as the baseline.
//!
//! Policies are driven by the runtime: `on_access` is called when a processor
//! issues a read that misses its local copy or any write, and `on_message`
//! whenever a protocol message scheduled by the policy arrives at its
//! destination. Whether a read hits is read off the policy's own copy
//! records ([`Policy::copies`]); the runtime keeps no second record. Policies
//! talk back to the runtime exclusively through [`PolicyEnv`]: they send
//! messages (which are routed, timed and counted by the network model) and
//! eventually complete the transaction.
//!
//! Locks are not a policy's business: the runtime owns the one
//! [`LockTable`] and asks the policy only where each variable's lock is
//! managed ([`Policy::lock_manager`]).

pub mod access_tree;
pub mod fixed_home;
mod gate;
mod lock_table;
#[cfg(test)]
pub(crate) mod proto_tests;
#[cfg(test)]
mod spec;
mod tx_slab;

pub use gate::VarGate;
pub use lock_table::LockTable;

use crate::holders::HolderLists;
use crate::var::VarHandle;
use dm_engine::{MachineConfig, SimTime};
use dm_mesh::{AnyTopology, NodeId, TreeNodeId};

/// Identifier of an in-flight transaction (one blocked processor operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// Kind of a shared-variable access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

/// Statistics counters of a run; they end up in the
/// [`RunReport`](crate::RunReport). The runtime counts read hits and misses,
/// the policies the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Read satisfied by a copy already held by the reading processor.
    ReadHit,
    /// Read that required protocol communication.
    ReadMiss,
    /// Write served locally (the writer already held the only copy).
    WriteLocal,
    /// Write that required protocol communication.
    WriteRemote,
    /// Copies of variables created (on any node of an access tree, or any
    /// processor cache for the fixed-home strategy).
    CopiesCreated,
    /// Copies invalidated.
    Invalidations,
    /// Lock acquisitions.
    Locks,
}

/// Number of distinct [`Counter`] variants (size of the counter table).
pub(crate) const COUNTER_COUNT: usize = 7;

impl Counter {
    /// Dense index of the counter: its declaration order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// All counters, in index order.
    pub(crate) const ALL: [Counter; COUNTER_COUNT] = [
        Counter::ReadHit,
        Counter::ReadMiss,
        Counter::WriteLocal,
        Counter::WriteRemote,
        Counter::CopiesCreated,
        Counter::Invalidations,
        Counter::Locks,
    ];

    /// Human-readable name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Counter::ReadHit => "read_hits",
            Counter::ReadMiss => "read_misses",
            Counter::WriteLocal => "writes_local",
            Counter::WriteRemote => "writes_remote",
            Counter::CopiesCreated => "copies_created",
            Counter::Invalidations => "invalidations",
            Counter::Locks => "locks",
        }
    }
}

/// A protocol message in flight between two mesh nodes.
///
/// The variants cover both policies and the runtime's lock protocol; a policy
/// only ever receives the variants it sent. Every message of a data
/// transaction carries, beside the [`TxId`], the slot of the transaction's
/// record in the sending policy's `TxSlab`: the handler indexes the record
/// and checks the id instead of hashing it.
#[derive(Debug, Clone)]
pub enum PolicyMsg {
    // ---- access-tree strategy -------------------------------------------------
    /// Read request travelling up/down the access tree; `at` is the tree node
    /// that processes the message next.
    AtReadStep {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being read.
        var: VarHandle,
        /// Tree node the message is arriving at.
        at: TreeNodeId,
        /// Mesh position of `at` (computed by the sender; carried so the
        /// receiver does not re-derive the embedding).
        at_pos: NodeId,
    },
    /// Data message carrying the value back towards the reader, creating a
    /// copy at every tree node it passes. `path_pos` indexes into the
    /// transaction's recorded path (counting down towards the requester).
    AtReadData {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being read.
        var: VarHandle,
        /// Index into the recorded request path of the node being visited.
        path_pos: u32,
        /// Mesh position of the visited node (carried by the sender).
        at_pos: NodeId,
    },
    /// Write request (carrying the new value) travelling towards the nearest
    /// copy.
    AtWriteStep {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
        /// Tree node the message is arriving at.
        at: TreeNodeId,
        /// Mesh position of `at` (carried by the sender).
        at_pos: NodeId,
    },
    /// Invalidation multicast over the copy component.
    AtInval {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
        /// Node being invalidated, as its index in the transaction's
        /// invalidation plan.
        at: u32,
        /// Mesh position of `at` (carried by the sender).
        at_pos: NodeId,
    },
    /// Acknowledgement of an invalidation subtree, travelling back towards the
    /// multicast root.
    AtInvalAck {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
        /// Node the acknowledgement is delivered to (the sender's multicast
        /// parent), as its index in the transaction's invalidation plan.
        to: u32,
        /// Mesh position of `to` (carried by the sender).
        to_pos: NodeId,
    },
    /// Modified value travelling back from the update point to the writer,
    /// creating copies along the way.
    AtWriteData {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
        /// Index into the recorded request path of the node being visited.
        path_pos: u32,
        /// Mesh position of the visited node (carried by the sender).
        at_pos: NodeId,
    },

    // ---- fixed-home strategy ---------------------------------------------------
    /// Read request arriving at the variable's home.
    FhReadReq {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being read.
        var: VarHandle,
    },
    /// Home asks the current owner for the up-to-date value.
    FhFetchOwner {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being read.
        var: VarHandle,
    },
    /// Owner returns the value to the home (main memory).
    FhOwnerData {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being read.
        var: VarHandle,
    },
    /// Home delivers the value to the reader.
    FhReadData {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being read.
        var: VarHandle,
    },
    /// Write request arriving at the variable's home.
    FhWriteReq {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
    },
    /// Invalidation of one cached copy.
    FhInval {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
    },
    /// Acknowledgement of an invalidation, back to the home.
    FhInvalAck {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
    },
    /// Home grants ownership to the writer.
    FhWriteGrant {
        /// Transaction this message belongs to.
        tx: TxId,
        /// Where the policy keeps the transaction's record.
        slot: u32,
        /// Variable being written.
        var: VarHandle,
    },

    // ---- distributed locks (the runtime's `LockTable`) -------------------------
    /// Lock request arriving at the lock manager node.
    LockReq {
        /// Transaction of the requesting processor's `lock` call.
        tx: TxId,
        /// Variable whose lock is requested.
        var: VarHandle,
        /// Requesting processor.
        proc: NodeId,
    },
    /// Lock grant arriving at the requesting processor.
    LockGrant {
        /// Transaction of the requesting processor's `lock` call.
        tx: TxId,
        /// Variable whose lock is granted.
        var: VarHandle,
    },
    /// Lock release arriving at the lock manager node.
    LockRelease {
        /// Variable whose lock is released.
        var: VarHandle,
        /// Processor releasing the lock.
        proc: NodeId,
    },
}

// Every queued event holds one: a larger message is paid for by every node
// of the event queue.
const _: () = assert!(std::mem::size_of::<PolicyMsg>() == 32);

/// Who holds a readable copy of which variable, read straight off a
/// policy's own copy records ([`Policy::copies`]). The runtime takes one per
/// request round and serves every read that finds a copy here itself.
#[derive(Clone, Copy)]
pub struct CopyView<'a>(Copies<'a>);

#[derive(Clone, Copy)]
enum Copies<'a> {
    /// The access tree's copy-set rows, `stride` words each, and every
    /// processor's leaf: a processor holds a copy when its leaf does.
    Rows(&'a [u64], usize, &'a [TreeNodeId]),
    /// Fixed home's holder records.
    Holders(&'a HolderLists),
}

impl CopyView<'_> {
    /// Whether processor `proc` holds a readable copy of `var`. A variable
    /// past the policy's records has no copy anywhere.
    #[inline]
    pub(crate) fn has(&self, proc: NodeId, var: VarHandle) -> bool {
        match self.0 {
            Copies::Rows(words, stride, leaf_of_proc) => {
                let leaf = leaf_of_proc[proc.index()].index();
                words
                    .get(var.index() * stride + leaf / 64)
                    .is_some_and(|word| word >> (leaf % 64) & 1 == 1)
            }
            Copies::Holders(lists) => lists.has(proc.index(), var.index()),
        }
    }
}

/// The interface through which a policy interacts with the runtime.
///
/// All sends are routed along the topology's deterministic paths, timed by
/// the [`dm_engine::LinkNetwork`] model, and counted towards the congestion
/// statistics. `complete` wakes the processor whose operation started the
/// transaction.
pub trait PolicyEnv {
    /// Current virtual time (issue time of the operation being handled, or
    /// arrival time of the message being handled).
    fn now(&self) -> SimTime;
    /// The machine parameters.
    fn config(&self) -> &MachineConfig;
    /// The network topology.
    fn topology(&self) -> &AnyTopology;
    /// Size of a variable in bytes.
    fn var_bytes(&self, var: VarHandle) -> u32;
    /// Send a protocol message of `bytes` bytes from mesh node `from` to mesh
    /// node `to`; it is delivered to [`Policy::on_message`] at its arrival
    /// time. Returns the time at which the sender's communication port is
    /// free again.
    fn send(&mut self, from: NodeId, to: NodeId, bytes: u32, msg: PolicyMsg) -> SimTime;
    /// Complete a transaction at the current time, waking the processor that
    /// issued it.
    fn complete(&mut self, tx: TxId);
    /// Complete a transaction at an explicit time `at` (≥ `now`).
    fn complete_at(&mut self, tx: TxId, at: SimTime);
    /// Processor `proc` gained (`present`) or lost a readable copy of `var`.
    /// Sent only when the policy's copy set changed, once per copy; the
    /// runtime counts the owner's copy at registration itself.
    fn set_presence(&mut self, proc: NodeId, var: VarHandle, present: bool);
    /// Bump a statistics counter by `n`.
    fn bump(&mut self, counter: Counter, n: u64);
    /// Charge one re-homing migration message of `bytes` bytes from the
    /// failed node to its successor: the traffic is routed, timed and counted
    /// like any message (so robustness costs show up in congestion) and
    /// tallied in the report's [`FaultTally`](crate::FaultTally), but
    /// delivers to no handler — re-homing mutates directory state in place.
    /// Default no-op so protocol test harnesses need not model faults.
    fn charge_rehome(&mut self, _from: NodeId, _to: NodeId, _bytes: u32) {}
    /// Whether `node`'s application processor has been fail-stopped by a
    /// node failure. Lock handling consults this to drop in-flight requests
    /// and releases from dead processors. Default `false`: without the fault
    /// subsystem no processor is ever lost.
    fn app_lost(&self, _node: NodeId) -> bool {
        false
    }
    /// Tally one lock force-released because its holder's processor was
    /// lost. Default no-op so protocol test harnesses need not model faults.
    fn note_force_release(&mut self) {}
}

/// A data-management strategy.
///
/// Besides the protocol callbacks, a policy participates in the **variable
/// lifecycle** (see [`crate::var`]): `register_var` sets up per-variable
/// protocol state, `free_var` tears it down again when the runtime retires
/// the variable. Lifecycle calls are pure bookkeeping: they send no messages
/// and consume no simulated time, so a run with reclamation produces
/// bit-identical simulated quantities to one without.
pub trait Policy: Send {
    /// Register a newly created variable whose only copy lives at `owner`.
    /// The slot of `var` may be recycled from an earlier freed variable.
    fn register_var(&mut self, var: VarHandle, owner: NodeId, bytes: u32);

    /// Tear down all per-variable protocol state of `var`: clear the copy
    /// set, notifying [`PolicyEnv::set_presence`] once for every processor
    /// that held a copy. The variable must be quiescent — no
    /// in-flight transactions (the runtime's applications free at barriers,
    /// where this holds).
    ///
    /// # Panics
    /// Panics if the variable is unknown or still gated.
    fn free_var(&mut self, env: &mut dyn PolicyEnv, var: VarHandle);

    /// Who holds a readable copy of what, as the policy's copy records say
    /// now: the runtime serves a read that finds a copy here itself.
    fn copies(&self) -> CopyView<'_>;

    /// A processor issued a write, or a read of a variable it holds no copy
    /// of: the caller serves reads that hit a local copy itself.
    fn on_access(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    );

    /// The node that manages the lock of `var` (it queues requests and
    /// grants the lock; see [`LockTable`]). It follows the variable's
    /// directory role, so it moves with a re-homing.
    fn lock_manager(&self, var: VarHandle) -> NodeId;

    /// A protocol message previously sent via [`PolicyEnv::send`] arrived at
    /// mesh node `at`.
    fn on_message(&mut self, env: &mut dyn PolicyEnv, at: NodeId, msg: PolicyMsg);

    /// Node `victim`'s data-management role failed (fail-stop): migrate every
    /// directory/home/lock responsibility it held to `successor`, charging
    /// the migration traffic through [`PolicyEnv::charge_rehome`]; the run
    /// fail-stops the victim's *application* processor right after this
    /// call. Default no-op: a policy that ignores node failures keeps
    /// routing protocol traffic through the victim.
    fn on_node_fail(&mut self, _env: &mut dyn PolicyEnv, _victim: NodeId, _successor: NodeId) {}

    /// Node `victim` rejoined as a fresh DM successor. Pure bookkeeping: the
    /// directory state it lost stays where it was re-homed (pulling it back
    /// would cost a second migration for no placement benefit — the
    /// successor is as good a host as the restored node), so the policy only
    /// drops the victim's re-homing redirect, making it eligible again for
    /// new registrations and future successions. Default no-op.
    fn on_node_restore(&mut self, _victim: NodeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_are_dense_and_unique() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} is not at its index in ALL");
            assert!(!c.name().is_empty());
        }
    }
}
