//! The access-tree data-management strategy (the paper's contribution).
//!
//! Every global variable has its own access tree — a copy of the hierarchical
//! mesh-decomposition tree — embedded into the mesh by a randomized but
//! locality-preserving rule (see [`crate::embedding`]). The nodes of the tree
//! that hold a copy of the variable always form a *connected component*
//! containing at least one node. Reads and writes are routed along the tree:
//!
//! * **read** — the request climbs from the reader's leaf towards the root
//!   until it reaches either a node holding a copy or a node whose subtree
//!   contains the copy component; in the latter case it descends towards the
//!   topmost copy node. The value then travels back along the same path,
//!   leaving a copy at every tree node it passes.
//! * **write** — the new value travels to the nearest copy node `u` the same
//!   way; `u` multicasts invalidations over the copy component (following the
//!   tree edges, acknowledgements aggregate back to `u`), updates its own
//!   copy and sends the modified value back to the writer, again leaving
//!   copies on the path. Afterwards exactly the path from `u` to the writer
//!   holds copies.
//!
//! Every tree-edge hop is a real simulated message between the embedded
//! positions of the two tree nodes, so flatter trees (4-ary, 16-ary, ℓ-k-ary)
//! trade congestion for fewer per-message startup costs exactly as discussed
//! in the paper.

use super::tx_slab::TxSlab;
use super::{AccessKind, Counter, Policy, PolicyEnv, PolicyMsg, TxId, VarGate};
use crate::embedding::{Embedder, EmbeddingMode, VarPlacement};
use crate::var::VarHandle;
use dm_mesh::{AnyTopology, DecompositionTree, NodeId, TreeNodeId, TreeShape};
use dm_rng::ChaCha8Rng;
use std::sync::Arc;

/// The copy set of one variable: a read-only view of its row of the
/// policy's copy-set arena, a dense bitset over the nodes of the
/// decomposition tree.
///
/// Membership tests run on the hot path of every request step and every
/// invalidation BFS, so the set is a flat bit vector (word `n / 64`, bit
/// `n % 64`) instead of a hash set.
///
/// The size is computed by popcount instead of a cached counter: a cached
/// `len += usize::from(fresh)` next to the `|=` store miscompiled under
/// `opt-level >= 2` on rustc 1.95 (the counter silently stopped advancing
/// once `insert` was inlined into `on_data_step`), which made release builds
/// take the "sole copy at the writer" write fast path spuriously and
/// simulate a *different* — wrong — protocol run than debug builds. The
/// figure-suite goldens (generated in release, checked by `cargo test` in
/// debug) gate against any such cross-profile divergence recurring. The
/// per-write "is the writer's leaf the sole copy" test uses the early-exit
/// [`CopySet::sole_copy`] so its cost stays O(1) words in the common
/// multi-copy case even on 128×128 trees (~350 words).
#[derive(Debug, Clone, Copy)]
pub struct CopySet<'a> {
    words: &'a [u64],
}

impl<'a> CopySet<'a> {
    /// Whether `node` holds a copy.
    #[inline]
    pub fn contains(&self, node: &TreeNodeId) -> bool {
        self.words[node.index() / 64] >> (node.0 % 64) & 1 == 1
    }

    /// Number of tree nodes holding a copy.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no node holds a copy (never true between operations).
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether exactly one node holds a copy. Early-exits on the second set
    /// bit, so the hot multi-copy case touches O(1) words.
    pub fn sole_copy(&self) -> bool {
        let mut total = 0u32;
        for w in self.words {
            total += w.count_ones();
            if total > 1 {
                return false;
            }
        }
        total == 1
    }

    /// Iterate over the members in increasing node order, visiting set bits
    /// only.
    pub fn iter(&self) -> impl Iterator<Item = TreeNodeId> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    TreeNodeId(wi as u32 * 64 + b)
                })
            })
        })
    }
}

/// The copy sets of all variables in one arena: row `i`, `stride` words
/// from word `i * stride`, belongs to variable slot `i` — the index `vars`
/// uses. The registry's slot recycling is therefore the row recycling: a
/// freed variable's row is zeroed and waits for the slot's next owner, and
/// a variable costs its row and nothing else (no allocation of its own).
#[derive(Debug)]
struct CopyRows {
    words: Vec<u64>,
    /// Words per row: `⌈tree.len() / 64⌉`.
    stride: usize,
}

impl CopyRows {
    fn new(tree_len: usize) -> Self {
        CopyRows {
            words: Vec::new(),
            stride: tree_len.div_ceil(64),
        }
    }

    /// The row of `var`.
    fn get(&self, var: VarHandle) -> CopySet<'_> {
        CopySet {
            words: &self.words[var.index() * self.stride..][..self.stride],
        }
    }

    /// Whether `node` holds a copy of `var`.
    #[inline]
    fn contains(&self, var: VarHandle, node: TreeNodeId) -> bool {
        self.words[var.index() * self.stride + node.index() / 64] >> (node.0 % 64) & 1 == 1
    }

    /// Insert `node` into the row of `var`; returns whether it was newly
    /// inserted.
    fn insert(&mut self, var: VarHandle, node: TreeNodeId) -> bool {
        let w = &mut self.words[var.index() * self.stride + node.index() / 64];
        let bit = 1u64 << (node.0 % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Remove `node` from the row of `var`; returns whether it was present.
    fn remove(&mut self, var: VarHandle, node: TreeNodeId) -> bool {
        let w = &mut self.words[var.index() * self.stride + node.index() / 64];
        let bit = 1u64 << (node.0 % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Zero the row of `var`.
    fn clear(&mut self, var: VarHandle) {
        self.words[var.index() * self.stride..][..self.stride].fill(0);
    }

    /// Grow the arena to rows for `slots` variable slots, new rows empty.
    fn cover(&mut self, slots: usize) {
        let len = slots * self.stride;
        if self.words.len() < len {
            self.words.resize(len, 0);
        }
    }

    /// Drop the rows from slot `slots` on.
    fn truncate(&mut self, slots: usize) {
        self.words.truncate(slots * self.stride);
    }
}

/// Per-variable state of the access-tree strategy. Its copy set is the
/// variable's row of [`CopyRows`]; the [`VarPlacement`] is stored flat, so
/// the record has no padding.
#[derive(Debug)]
struct AtVar {
    /// [`VarPlacement::seed`].
    seed: u64,
    /// [`VarPlacement::root`].
    root: NodeId,
    /// The copy node closest to the root.
    top: TreeNodeId,
    gate: VarGate,
}

// One per variable slot, registered or not.
const _: () = assert!(std::mem::size_of::<Option<AtVar>>() == 32);

impl AtVar {
    fn placement(&self) -> VarPlacement {
        VarPlacement {
            root: self.root,
            seed: self.seed,
        }
    }
}

/// The state of `var`. A function of the `vars` field alone, so a handler
/// can hold a variable beside the tree and a transaction record.
fn var_ref(vars: &[Option<AtVar>], var: VarHandle) -> &AtVar {
    vars.get(var.index())
        .and_then(|v| v.as_ref())
        .unwrap_or_else(|| panic!("unknown variable {var}"))
}

/// Mutable twin of [`var_ref`].
fn var_mut(vars: &mut [Option<AtVar>], var: VarHandle) -> &mut AtVar {
    vars.get_mut(var.index())
        .and_then(|v| v.as_mut())
        .unwrap_or_else(|| panic!("unknown variable {var}"))
}

fn data_bytes(env: &dyn PolicyEnv, var: VarHandle) -> u32 {
    env.var_bytes(var) + env.config().header_bytes
}

/// One node of an invalidation-multicast plan. Nodes name each other by
/// their index in [`InvalPlan::nodes`], and so do the messages of the
/// multicast.
#[derive(Debug, Clone, Copy)]
struct InvalNode {
    /// The tree node.
    node: TreeNodeId,
    /// Its parent in the multicast tree (itself for the root).
    parent: u32,
    /// Acknowledgements still outstanding from its multicast children.
    pending: u32,
    /// Its multicast children are `nodes[child_start..][..child_len]`.
    child_start: u32,
    child_len: u32,
}

/// Invalidation-multicast plan over a copy component: the order in which a
/// BFS from the multicast root discovers the component. Built once per write
/// into the transaction's recycled buffer.
#[derive(Debug, Default)]
struct InvalPlan {
    /// `nodes[0]` is the multicast root `u`. A BFS appends the undiscovered
    /// neighbours of the node it expands in one go, so the children of every
    /// node are a contiguous run.
    nodes: Vec<InvalNode>,
}

/// Per-transaction protocol state; lives in a [`TxSlab`] slot, whose
/// recycling keeps the buffers' capacity across transactions.
#[derive(Debug, Default)]
struct AtTx {
    /// Tree nodes visited by the request, starting at the requester's leaf.
    path: Vec<TreeNodeId>,
    /// Invalidation multicast plan (write transactions only).
    inval: InvalPlan,
}

/// The embedding rule seen through the re-homing redirects of failed nodes:
/// where the nodes of the access trees live *now*. A field of its own, so a
/// handler can ask for a position while it holds a variable and a
/// transaction record mutably.
struct LiveEmbedder {
    rule: Embedder,
    /// Nodes whose data-management role failed, paired with the *live* node
    /// currently holding that role: when a successor itself fails, every
    /// redirect pointing at it is rewritten to the new successor, so lookup
    /// is a single scan and fail→restore→fail cycles cannot form a loop.
    /// Restoring a node removes its entry. Empty without a fault plan; while
    /// empty the embedding is byte-identical to a build without the fault
    /// subsystem.
    failed: Vec<(NodeId, NodeId)>,
}

impl LiveEmbedder {
    fn tree(&self) -> &DecompositionTree {
        self.rule.tree()
    }

    /// The live processor simulating `node` in the access tree of a variable
    /// with the given placement. Asked anew for every message: a position
    /// must reflect the redirects current when the message is sent.
    fn position(&self, placement: VarPlacement, node: TreeNodeId) -> NodeId {
        let pos = self.rule.position(placement, node);
        // Leaves stay pinned to their own processor — the *application*
        // processor survives a node failure; only the data-management role
        // (carried by interior tree nodes and the root) re-homes.
        if self.failed.is_empty() || self.tree().node(node).proc.is_some() {
            return pos;
        }
        // The live inheritor of `pos`'s role, if `pos` failed.
        self.failed
            .iter()
            .find(|&&(v, _)| v == pos)
            .map_or(pos, |&(_, s)| s)
    }
}

/// The access-tree data-management policy.
pub struct AccessTreePolicy {
    embedder: LiveEmbedder,
    rng: ChaCha8Rng,
    vars: Vec<Option<AtVar>>,
    /// The copy sets, one row per slot of `vars`. A registered variable's
    /// row is always a connected component of the tree.
    rows: CopyRows,
    /// Open transactions; every `At*` message names its slot here.
    txs: TxSlab<AtTx>,
    /// BFS visit stamps per tree node (generation-tagged so the scratch is
    /// never cleared).
    bfs_seen: Vec<u64>,
    /// Current BFS generation.
    bfs_gen: u64,
}

impl AccessTreePolicy {
    /// Create an access-tree policy for a topology with trees of the given
    /// shape and embedding mode: the access trees are copies of the
    /// topology's recursive decomposition (see
    /// [`DecompositionTree::build_on`]). `seed` drives the random placement
    /// of tree roots.
    pub fn new_on(topo: &AnyTopology, shape: TreeShape, mode: EmbeddingMode, seed: u64) -> Self {
        let tree = Arc::new(DecompositionTree::build_on(topo, shape));
        let tree_len = tree.len();
        AccessTreePolicy {
            embedder: LiveEmbedder {
                rule: Embedder::new(tree, mode),
                failed: Vec::new(),
            },
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x00AC_CE55_00EE_u64),
            vars: Vec::new(),
            rows: CopyRows::new(tree_len),
            txs: TxSlab::default(),
            bfs_seen: vec![0; tree_len],
            bfs_gen: 0,
        }
    }

    /// Open a slot for `tx`, whose request starts at `leaf`.
    fn open_tx(&mut self, tx: TxId, leaf: TreeNodeId) -> u32 {
        let (slot, rec) = self.txs.open(tx, AtTx::default);
        rec.path.clear();
        rec.path.push(leaf);
        slot
    }

    /// The decomposition tree shared by all access trees.
    pub fn tree(&self) -> &DecompositionTree {
        self.embedder.tree()
    }

    /// The tree nodes currently holding a copy of `var` (for tests).
    pub fn copy_set(&self, var: VarHandle) -> Option<CopySet<'_>> {
        self.vars
            .get(var.index())
            .and_then(|v| v.as_ref())
            .map(|_| self.rows.get(var))
    }

    /// `(open transactions, slots ever created)` of the transaction slab.
    #[cfg(test)]
    pub(super) fn tx_slots(&self) -> (usize, usize) {
        (self.txs.open_count(), self.txs.slot_count())
    }

    /// Check that the copy set of `var` is a non-empty connected component of
    /// the tree whose topmost node is the recorded `top` (test helper).
    pub fn assert_copy_invariants(&self, var: VarHandle) {
        let tree = self.embedder.tree();
        let v = var_ref(&self.vars, var);
        let copies = self.rows.get(var);
        assert!(!copies.is_empty(), "{var}: copy set must never be empty");
        assert!(copies.contains(&v.top), "{var}: top must hold a copy");
        for c in copies.iter() {
            // Walking up from any copy node must stay inside the copy set
            // until `top` is reached (connectivity + top is the unique
            // highest node).
            let mut cur = c;
            while cur != v.top {
                let parent = tree
                    .parent(cur)
                    .unwrap_or_else(|| panic!("{var}: node above top without reaching it"));
                assert!(
                    copies.contains(&parent),
                    "{var}: copy component is disconnected at {cur:?}"
                );
                cur = parent;
            }
        }
    }

    /// Start an admitted access (the gate has already been passed).
    fn start_access(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    ) {
        let leaf = self.embedder.tree().leaf_of(proc);
        let copies = self.rows.get(var);
        let holds_leaf = copies.contains(&leaf);
        match kind {
            AccessKind::Read => {
                debug_assert!(!holds_leaf, "read hits are filtered before start_access");
                env.bump(Counter::ReadMiss, 1);
                let slot = self.open_tx(tx, leaf);
                // The leaf of `proc` is always embedded at `proc` itself.
                self.forward_request(env, tx, slot, var, leaf, proc, kind);
            }
            AccessKind::Write => {
                if holds_leaf && copies.sole_copy() {
                    // The writer holds the only copy: no message, no slot.
                    env.bump(Counter::WriteLocal, 1);
                    env.complete_at(tx, env.now() + env.config().local_access_ns());
                    self.finish_tx_no_record(env, var, kind);
                    return;
                }
                env.bump(Counter::WriteRemote, 1);
                let slot = self.open_tx(tx, leaf);
                if holds_leaf {
                    // The writer already holds a copy (read-before-write): the
                    // nearest copy node is its own leaf, no request travels.
                    self.start_invalidation(env, tx, slot, var, leaf, proc);
                } else {
                    self.forward_request(env, tx, slot, var, leaf, proc, kind);
                }
            }
        }
    }

    /// Forward the request of `tx` one tree hop from `from` towards the
    /// nearest copy node (climbing, or descending towards `top` once an
    /// ancestor of `top` has been reached).
    #[allow(clippy::too_many_arguments)]
    fn forward_request(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        from: TreeNodeId,
        from_pos: NodeId,
        step_kind: AccessKind,
    ) {
        let tree = self.embedder.tree();
        let v = var_ref(&self.vars, var);
        let at = if tree.is_ancestor(from, v.top) {
            // Descend towards the topmost copy node.
            *tree
                .children(from)
                .iter()
                .find(|&&c| tree.is_ancestor(c, v.top))
                .expect("descending node must have a child towards top")
        } else {
            tree.parent(from)
                .expect("climbing past the root — top not found")
        };
        let at_pos = self.embedder.position(v.placement(), at);
        // Read requests are small control messages, write requests carry the
        // new value.
        let (bytes, counter, msg) = match step_kind {
            AccessKind::Read => (
                env.config().control_msg_bytes,
                Counter::ControlMessages,
                PolicyMsg::AtReadStep {
                    tx,
                    slot,
                    var,
                    at,
                    at_pos,
                },
            ),
            AccessKind::Write => (
                data_bytes(env, var),
                Counter::DataMessages,
                PolicyMsg::AtWriteStep {
                    tx,
                    slot,
                    var,
                    at,
                    at_pos,
                },
            ),
        };
        env.bump(counter, 1);
        env.send(from_pos, at_pos, bytes, msg);
    }

    /// A request step arrived at tree node `at` (embedded at `at_pos`).
    #[allow(clippy::too_many_arguments)]
    fn on_request_step(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        at: TreeNodeId,
        at_pos: NodeId,
        kind: AccessKind,
    ) {
        self.txs.get_mut(slot, tx).path.push(at);
        if !self.rows.contains(var, at) {
            self.forward_request(env, tx, slot, var, at, at_pos, kind);
            return;
        }
        match kind {
            AccessKind::Read => {
                // The nearest copy is at the end of the recorded path: the
                // value goes back the way the request came.
                let prev = self.txs.get_mut(slot, tx).path.len() as u32 - 2;
                self.send_data(env, tx, slot, var, prev, at_pos, kind);
            }
            AccessKind::Write => self.start_invalidation(env, tx, slot, var, at, at_pos),
        }
    }

    /// Send the value from a node embedded at `from_pos` to the node at
    /// `path_pos` of the recorded path, one step back towards the requester.
    #[allow(clippy::too_many_arguments)]
    fn send_data(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        path_pos: u32,
        from_pos: NodeId,
        kind: AccessKind,
    ) {
        let next = self.txs.get_mut(slot, tx).path[path_pos as usize];
        let at_pos = self
            .embedder
            .position(var_ref(&self.vars, var).placement(), next);
        env.bump(Counter::DataMessages, 1);
        let msg = match kind {
            AccessKind::Read => PolicyMsg::AtReadData {
                tx,
                slot,
                var,
                path_pos,
                at_pos,
            },
            AccessKind::Write => PolicyMsg::AtWriteData {
                tx,
                slot,
                var,
                path_pos,
                at_pos,
            },
        };
        env.send(from_pos, at_pos, data_bytes(env, var), msg);
    }

    /// A data message (read return or write-back) arrived at the path
    /// position `path_pos`; create a copy there and forward it towards the
    /// requester.
    #[allow(clippy::too_many_arguments)]
    fn on_data_step(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        path_pos: u32,
        at_pos: NodeId,
        kind: AccessKind,
    ) {
        let tree = self.embedder.tree();
        let at = self.txs.get_mut(slot, tx).path[path_pos as usize];
        // Create a copy at this tree node.
        if self.rows.insert(var, at) {
            env.bump(Counter::CopiesCreated, 1);
            let v = var_mut(&mut self.vars, var);
            if tree.is_ancestor(at, v.top) {
                v.top = at;
            }
        }
        if let Some(p) = tree.node(at).proc {
            env.set_presence(p, var, true);
        }
        if path_pos == 0 {
            // The value reached the requester.
            env.complete(tx);
            self.txs.close(slot, tx);
            self.finish_tx_no_record(env, var, kind);
        } else {
            self.send_data(env, tx, slot, var, path_pos - 1, at_pos, kind);
        }
    }

    /// The write request reached the nearest copy node `u`: invalidate every
    /// other copy by a multicast over the copy component, then (once all
    /// acknowledgements returned) send the modified value back to the writer.
    fn start_invalidation(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        u: TreeNodeId,
        u_pos: NodeId,
    ) {
        let tree = self.embedder.tree();
        let copies = self.rows.get(var);
        // Build the multicast tree: BFS over the copy component starting at
        // u, directly into the transaction's recycled plan.
        let nodes = &mut self.txs.get_mut(slot, tx).inval.nodes;
        nodes.clear();
        let seen = &mut self.bfs_seen;
        self.bfs_gen += 1;
        let gen = self.bfs_gen;
        seen[u.index()] = gen;
        nodes.push(InvalNode {
            node: u,
            parent: 0,
            pending: 0,
            child_start: 0,
            child_len: 0,
        });
        let mut qi = 0;
        while qi < nodes.len() {
            let n = nodes[qi].node;
            let child_start = nodes.len() as u32;
            // Component neighbours: tree parent and tree children that
            // hold copies.
            let parent_nb = tree.parent(n).filter(|p| copies.contains(p));
            for nb in parent_nb.into_iter().chain(
                tree.children(n)
                    .iter()
                    .copied()
                    .filter(|c| copies.contains(c)),
            ) {
                if seen[nb.index()] != gen {
                    seen[nb.index()] = gen;
                    nodes.push(InvalNode {
                        node: nb,
                        parent: qi as u32,
                        pending: 0,
                        child_start: 0,
                        child_len: 0,
                    });
                }
            }
            nodes[qi].child_start = child_start;
            nodes[qi].child_len = nodes.len() as u32 - child_start;
            qi += 1;
        }

        // Invalidate the state now (writes are exclusive on this variable):
        // every discovered node except the multicast root loses its copy.
        for n in &nodes[1..] {
            self.rows.remove(var, n.node);
        }
        var_mut(&mut self.vars, var).top = u;
        env.bump(Counter::Invalidations, nodes.len() as u64 - 1);
        for n in &nodes[1..] {
            if let Some(p) = tree.node(n.node).proc {
                env.set_presence(p, var, false);
            }
        }

        if nodes[0].child_len == 0 {
            // Nothing to invalidate: go straight to the write-back phase.
            self.start_write_back(env, tx, slot, var, u_pos);
        } else {
            self.send_invals(env, tx, slot, var, 0, u_pos);
        }
    }

    /// Send an invalidation from plan node `from` (embedded at `from_pos`)
    /// to each of its multicast children and expect their acknowledgements.
    fn send_invals(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        from: u32,
        from_pos: NodeId,
    ) {
        let placement = var_ref(&self.vars, var).placement();
        let nodes = &mut self.txs.get_mut(slot, tx).inval.nodes;
        let InvalNode {
            child_start,
            child_len,
            ..
        } = nodes[from as usize];
        nodes[from as usize].pending = child_len;
        let control = env.config().control_msg_bytes;
        for at in child_start..child_start + child_len {
            let at_pos = self.embedder.position(placement, nodes[at as usize].node);
            env.bump(Counter::ControlMessages, 1);
            env.send(
                from_pos,
                at_pos,
                control,
                PolicyMsg::AtInval {
                    tx,
                    slot,
                    var,
                    at,
                    at_pos,
                },
            );
        }
    }

    /// Acknowledge a finished invalidation subtree from a node embedded at
    /// `from_pos` to its multicast parent, plan node `to`.
    fn send_inval_ack(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        to: u32,
        from_pos: NodeId,
    ) {
        let parent = self.txs.get_mut(slot, tx).inval.nodes[to as usize].node;
        let to_pos = self
            .embedder
            .position(var_ref(&self.vars, var).placement(), parent);
        env.bump(Counter::ControlMessages, 1);
        env.send(
            from_pos,
            to_pos,
            env.config().control_msg_bytes,
            PolicyMsg::AtInvalAck {
                tx,
                slot,
                var,
                to,
                to_pos,
            },
        );
    }

    /// An invalidation arrived at plan node `at`: forward it to the component
    /// children (per the multicast plan) or acknowledge if there are none.
    fn on_inval(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        at: u32,
        at_pos: NodeId,
    ) {
        let n = self.txs.get_mut(slot, tx).inval.nodes[at as usize];
        if n.child_len == 0 {
            self.send_inval_ack(env, tx, slot, var, n.parent, at_pos);
        } else {
            self.send_invals(env, tx, slot, var, at, at_pos);
        }
    }

    /// An acknowledgement arrived at plan node `to` (embedded at `to_pos`).
    fn on_inval_ack(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        to: u32,
        to_pos: NodeId,
    ) {
        let n = &mut self.txs.get_mut(slot, tx).inval.nodes[to as usize];
        debug_assert!(n.pending > 0, "ack without pending count");
        n.pending -= 1;
        if n.pending > 0 {
            return;
        }
        let parent = n.parent;
        if to == 0 {
            // All copies invalidated; send the modified value back to the writer.
            self.start_write_back(env, tx, slot, var, to_pos);
        } else {
            self.send_inval_ack(env, tx, slot, var, parent, to_pos);
        }
    }

    /// Send the modified value from the update point back to the writer along
    /// the recorded path (or complete immediately if the writer is the update
    /// point).
    fn start_write_back(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        slot: u32,
        var: VarHandle,
        u_pos: NodeId,
    ) {
        let path = &self.txs.get_mut(slot, tx).path;
        if let [leaf] = path[..] {
            // The writer's leaf was the nearest copy: it already holds the
            // (only) copy.
            env.set_presence(self.embedder.tree().leaf_proc(leaf), var, true);
            env.complete(tx);
            self.txs.close(slot, tx);
            self.finish_tx_no_record(env, var, AccessKind::Write);
        } else {
            let prev = path.len() as u32 - 2;
            self.send_data(env, tx, slot, var, prev, u_pos, AccessKind::Write);
        }
    }

    /// Release the variable gate after a transaction of `kind` finished and
    /// start any newly admitted transactions.
    fn finish_tx_no_record(&mut self, env: &mut dyn PolicyEnv, var: VarHandle, kind: AccessKind) {
        let admitted = var_mut(&mut self.vars, var).gate.release(kind);
        for (tx, proc, kind) in admitted {
            self.start_access(env, tx, proc, var, kind);
        }
    }
}

impl Policy for AccessTreePolicy {
    fn register_var(&mut self, var: VarHandle, owner: NodeId, bytes: u32) {
        let tree = self.embedder.tree();
        let nprocs = tree.topology().nodes();
        let root = NodeId(self.rng.gen_range(0..nprocs as u32));
        let seed = self.rng.next_u64();
        let leaf = tree.leaf_of(owner);
        let idx = var.index();
        if self.vars.len() <= idx {
            self.vars.resize_with(idx + 1, || None);
            self.rows.cover(idx + 1);
        }
        let _ = bytes; // size is tracked by the registry, not per policy
        debug_assert!(
            self.vars[idx].is_none(),
            "slot of {var} was recycled without a free_var teardown"
        );
        debug_assert!(
            self.rows.get(var).is_empty(),
            "row of {var} was not cleared when its last owner was freed"
        );
        self.rows.insert(var, leaf);
        self.vars[idx] = Some(AtVar {
            seed,
            root,
            top: leaf,
            gate: VarGate::new(),
        });
    }

    fn free_var(&mut self, env: &mut dyn PolicyEnv, var: VarHandle) {
        let v = self
            .vars
            .get_mut(var.index())
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("free of unknown variable {var}"));
        assert!(
            v.gate.is_idle(),
            "freeing {var} with active or queued transactions"
        );
        let tree = self.embedder.tree();
        for node in self.rows.get(var).iter() {
            if let Some(p) = tree.node(node).proc {
                env.set_presence(p, var, false);
            }
        }
        self.rows.clear(var);
    }

    fn end_epoch(&mut self, _env: &mut dyn PolicyEnv) {
        // Trim the dense per-variable vector back to the live prefix so it
        // does not keep the high-water length of a past epoch.
        while self.vars.last().is_some_and(Option::is_none) {
            self.vars.pop();
        }
        self.rows.truncate(self.vars.len());
    }

    fn on_access(
        &mut self,
        env: &mut dyn PolicyEnv,
        tx: TxId,
        proc: NodeId,
        var: VarHandle,
        kind: AccessKind,
    ) {
        if var_mut(&mut self.vars, var).gate.admit(tx, proc, kind) {
            self.start_access(env, tx, proc, var, kind);
        }
    }

    /// The embedded root of the variable's access tree.
    fn lock_manager(&self, var: VarHandle) -> NodeId {
        let root = self.embedder.tree().root();
        self.embedder
            .position(var_ref(&self.vars, var).placement(), root)
    }

    fn on_node_fail(&mut self, env: &mut dyn PolicyEnv, victim: NodeId, successor: NodeId) {
        // Fail-stop of the victim's data-management role. Interior tree
        // nodes embedded at the victim re-home to the successor (the
        // `embed` remap takes effect once the failure is recorded below);
        // here the migration traffic is charged against the *old* embedding
        // and the victim's own leaf copies are dropped. Iteration is in
        // variable index order, so both backends charge identically.
        let control = env.config().control_msg_bytes;
        let tree = self.embedder.tree();
        let leaf = tree.leaf_of(victim);
        let root = tree.root();
        for idx in 0..self.vars.len() {
            let var = VarHandle(idx as u32);
            if self.vars[idx].is_none() {
                continue;
            }
            let v = var_ref(&self.vars, var);
            let copies = self.rows.get(var);
            let embed = |node| self.embedder.position(v.placement(), node);
            // Did the victim hold cached values for interior tree nodes?
            let interior_at_victim = copies
                .iter()
                .any(|c| tree.node(c).proc.is_none() && embed(c) == victim);
            let root_at_victim = embed(root) == victim;
            let had_leaf_copy = copies.contains(&leaf);
            // The victim's leaf was the whole copy component: the value must
            // survive, so it climbs to the leaf's parent before the leaf
            // copy is dropped.
            let climb = if had_leaf_copy && v.top == leaf {
                let parent = tree
                    .parent(leaf)
                    .expect("sole leaf copy in a single-node tree");
                let pos = embed(parent);
                Some((parent, if pos == victim { successor } else { pos }))
            } else {
                None
            };
            if interior_at_victim {
                // The victim's interior caches move to the successor in one
                // migration message per variable.
                env.charge_rehome(victim, successor, data_bytes(env, var));
            } else if root_at_victim {
                // No cached value to move, but the root's directory role
                // (lock management, request routing) migrates.
                env.charge_rehome(victim, successor, control);
            }
            if had_leaf_copy {
                if let Some((parent, _)) = climb {
                    self.rows.insert(var, parent);
                    var_mut(&mut self.vars, var).top = parent;
                }
                self.rows.remove(var, leaf);
                env.set_presence(victim, var, false);
                if let Some((_, parent_pos)) = climb {
                    env.charge_rehome(victim, parent_pos, data_bytes(env, var));
                }
            }
        }
        // Keep every redirect pointing at a live node: roles the victim
        // inherited from earlier failures move on to its successor. Done
        // after the charging loop above, which must see the pre-failure
        // embedding.
        for entry in &mut self.embedder.failed {
            if entry.1 == victim {
                entry.1 = successor;
            }
        }
        self.embedder.failed.push((victim, successor));
    }

    fn on_node_restore(&mut self, victim: NodeId) {
        // The state it lost stays where it was re-homed; dropping the
        // redirect makes the node a fresh embedding target again.
        self.embedder.failed.retain(|&(v, _)| v != victim);
    }

    fn on_message(&mut self, env: &mut dyn PolicyEnv, _at: NodeId, msg: PolicyMsg) {
        match msg {
            PolicyMsg::AtReadStep {
                tx,
                slot,
                var,
                at,
                at_pos,
            } => self.on_request_step(env, tx, slot, var, at, at_pos, AccessKind::Read),
            PolicyMsg::AtWriteStep {
                tx,
                slot,
                var,
                at,
                at_pos,
            } => self.on_request_step(env, tx, slot, var, at, at_pos, AccessKind::Write),
            PolicyMsg::AtReadData {
                tx,
                slot,
                var,
                path_pos,
                at_pos,
            } => self.on_data_step(env, tx, slot, var, path_pos, at_pos, AccessKind::Read),
            PolicyMsg::AtWriteData {
                tx,
                slot,
                var,
                path_pos,
                at_pos,
            } => self.on_data_step(env, tx, slot, var, path_pos, at_pos, AccessKind::Write),
            PolicyMsg::AtInval {
                tx,
                slot,
                var,
                at,
                at_pos,
            } => self.on_inval(env, tx, slot, var, at, at_pos),
            PolicyMsg::AtInvalAck {
                tx,
                slot,
                var,
                to,
                to_pos,
            } => self.on_inval_ack(env, tx, slot, var, to, to_pos),
            other => panic!("access-tree policy received foreign message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::proto_tests::MockEnv;
    use dm_mesh::Mesh;
    use std::collections::HashSet;
    use std::mem::size_of;

    /// The model's members of `slot`, in increasing node order.
    fn model_row(model: &HashSet<(usize, TreeNodeId)>, slot: usize) -> Vec<TreeNodeId> {
        let mut row: Vec<TreeNodeId> = model
            .iter()
            .filter(|&&(s, _)| s == slot)
            .map(|&(_, n)| n)
            .collect();
        row.sort();
        row
    }

    /// The arena against a `HashSet<(slot, node)>` model: slots are
    /// registered, freed and re-registered, with random inserts and removes
    /// between, and every few steps the epoch ends.
    #[test]
    fn copy_rows_match_a_naive_set() {
        const SLOTS: usize = 24;
        let cases = [
            (Mesh::square(16), TreeShape::quad()),
            (Mesh::new(6, 5), TreeShape::binary()),
        ];
        for (mesh, shape) in cases {
            let topo = AnyTopology::from(mesh);
            let mut policy = AccessTreePolicy::new_on(&topo, shape, EmbeddingMode::Modified, 3);
            let mut env = MockEnv::new_on(topo.clone());
            let nprocs = topo.nodes() as u32;
            let tree_len = policy.tree().len() as u32;
            let mut rng = ChaCha8Rng::seed_from_u64(u64::from(tree_len));
            let mut model = HashSet::new();
            let mut live = [false; SLOTS];
            let (mut recycled, mut trimmed) = (0, 0);
            for step in 0..4_000 {
                let s = rng.gen_range(0..SLOTS);
                let var = VarHandle(s as u32);
                match (live[s], rng.gen_range(0..8u32)) {
                    (false, _) => {
                        let owner = NodeId(rng.gen_range(0..nprocs));
                        let leaf = policy.tree().leaf_of(owner);
                        recycled += usize::from(s < policy.vars.len());
                        policy.register_var(var, owner, 8);
                        live[s] = true;
                        model.insert((s, leaf));
                        assert_eq!(policy.rows.get(var).iter().collect::<Vec<_>>(), [leaf]);
                    }
                    (true, 0) => {
                        policy.free_var(&mut env, var);
                        live[s] = false;
                        model.retain(|&(m, _)| m != s);
                        assert!(policy.rows.get(var).is_empty(), "freed row {s} is not zero");
                    }
                    (true, 1..=4) => {
                        let n = TreeNodeId(rng.gen_range(0..tree_len));
                        assert_eq!(policy.rows.insert(var, n), model.insert((s, n)));
                    }
                    (true, _) => {
                        // Mostly a member, sometimes any node.
                        let row = model_row(&model, s);
                        let n = if row.is_empty() || rng.gen_range(0..4u32) == 0 {
                            TreeNodeId(rng.gen_range(0..tree_len))
                        } else {
                            row[rng.gen_range(0..row.len())]
                        };
                        assert_eq!(policy.rows.remove(var, n), model.remove(&(s, n)));
                    }
                }
                if step % 50 == 49 {
                    let before = policy.rows.words.len();
                    policy.end_epoch(&mut env);
                    let live_prefix = live.iter().rposition(|&l| l).map_or(0, |i| i + 1);
                    assert_eq!(policy.vars.len(), live_prefix);
                    assert_eq!(policy.rows.words.len(), live_prefix * policy.rows.stride);
                    trimmed += usize::from(policy.rows.words.len() < before);
                }
                for slot in 0..policy.vars.len() {
                    let var = VarHandle(slot as u32);
                    let row = policy.rows.get(var);
                    let want = model_row(&model, slot);
                    assert_eq!(row.iter().collect::<Vec<_>>(), want, "slot {slot}");
                    assert_eq!(row.len(), want.len());
                    assert!(want.iter().all(|n| row.contains(n)));
                    let n = TreeNodeId(rng.gen_range(0..tree_len));
                    assert_eq!(policy.rows.contains(var, n), model.contains(&(slot, n)));
                    assert_eq!(policy.copy_set(var).is_some(), live[slot]);
                }
            }
            assert!(
                recycled > 0 && trimmed > 0,
                "{recycled} recycled, {trimmed} trims"
            );
        }
    }

    /// 2 048 variables on the 16x16 mesh's 4-ary tree (the KV benchmark's
    /// key count) cost a 32-byte record and a row of `stride` words each,
    /// and no allocation of their own.
    #[test]
    fn per_variable_policy_state_is_a_record_and_a_row() {
        const VARS: usize = 2048;
        let topo = AnyTopology::from(Mesh::square(16));
        let mut policy =
            AccessTreePolicy::new_on(&topo, TreeShape::quad(), EmbeddingMode::Modified, 1);
        for i in 0..VARS {
            policy.register_var(VarHandle(i as u32), NodeId((i % 256) as u32), 64);
        }
        let stride = policy.rows.stride;
        assert_eq!(stride, 341usize.div_ceil(64));
        let queues: usize = policy
            .vars
            .iter()
            .flatten()
            .map(|v| v.gate.heap_bytes())
            .sum();
        assert_eq!(queues, 0, "an uncontended gate allocated its queue");
        let bytes = policy.vars.capacity() * size_of::<Option<AtVar>>()
            + policy.rows.words.capacity() * size_of::<u64>();
        assert!(
            bytes <= VARS * (32 + 8 * stride),
            "{bytes} bytes for {VARS} variables"
        );
    }

    #[test]
    fn copy_set_iter_equals_the_naive_bit_filter() {
        // The node counts of the 4-ary trees over 16x16 and 64x64 meshes.
        for tree_len in [341usize, 5461] {
            let mut rng = ChaCha8Rng::seed_from_u64(tree_len as u64);
            let var = VarHandle(0);
            // From empty (only empty words) over sparse to nearly full.
            for members in [0, 1, 7, tree_len / 9, tree_len - 1] {
                let mut rows = CopyRows::new(tree_len);
                rows.cover(1);
                for _ in 0..members {
                    rows.insert(var, TreeNodeId(rng.gen_range(0..tree_len as u32)));
                }
                if members > 0 {
                    // The last bit of a word, beside its neighbour's first.
                    rows.insert(var, TreeNodeId(63));
                    rows.insert(var, TreeNodeId(64));
                }
                let set = rows.get(var);
                let naive: Vec<TreeNodeId> = (0..tree_len as u32)
                    .map(TreeNodeId)
                    .filter(|n| set.contains(n))
                    .collect();
                assert_eq!(set.iter().collect::<Vec<_>>(), naive);
                assert_eq!(set.len(), naive.len());
            }
        }
    }
}
