//! Combining-tree barrier synchronisation.
//!
//! The DIVA library provides barrier synchronisation built on the same
//! hierarchical mesh decomposition as the access trees. We implement the
//! classic combining tree: every processor reports its arrival to its leaf's
//! parent; an internal node that has heard from all of its children reports to
//! its own parent; when the root has heard from everybody it broadcasts a
//! release wave back down the tree. All arrive/release hops are real simulated
//! messages, so barriers contribute (a small amount of) traffic and latency,
//! identically for every data-management strategy.
//!
//! The barrier tree uses a fixed, deterministic embedding (every tree node
//! is simulated by the centre processor of its submesh — on the 1×n strip
//! of a hypercube or fat tree, the middle id `lo + len/2` of its range),
//! since there is exactly one barrier object shared by all processors.

use dm_mesh::{AnyTopology, DecompositionTree, NodeId, TreeNodeId, TreeShape};
use std::sync::Arc;

/// A barrier protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMsg {
    /// All processors below `node` have arrived; reported to `node`'s parent's
    /// simulator — the message is addressed to tree node `node`.
    Arrive {
        /// Tree node the arrival is reported to.
        node: TreeNodeId,
    },
    /// Release wave travelling down; addressed to tree node `node`.
    Release {
        /// Tree node the release is delivered to.
        node: TreeNodeId,
    },
}

/// An action the runtime must perform on behalf of the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAction {
    /// Send `msg` from mesh node `from` to mesh node `to`.
    Send {
        /// Sending mesh node.
        from: NodeId,
        /// Receiving mesh node.
        to: NodeId,
        /// The barrier message.
        msg: BarrierMsg,
    },
    /// Wake processor `proc`, whose `barrier()` call completes now.
    Wake {
        /// The processor to wake.
        proc: NodeId,
    },
}

/// The combining-tree barrier state machine.
///
/// The barrier itself performs no I/O: [`TreeBarrier::arrive`] and
/// [`TreeBarrier::on_message`] return the [`BarrierAction`]s the runtime must
/// carry out (sending messages through the network model, waking blocked
/// processors).
pub struct TreeBarrier {
    tree: Arc<DecompositionTree>,
    /// Mesh position simulating each tree node.
    pos: Vec<NodeId>,
    /// Arrivals seen so far per internal tree node.
    arrived: Vec<u32>,
    /// Arrivals each tree node still expects per round: the child count for
    /// internal nodes, 1 for leaves whose processor is an active member.
    /// [`TreeBarrier::remove`] decrements along the victim's path; a node at
    /// 0 has no active processor below it and drops out of both waves.
    expected: Vec<u32>,
    /// Rounds released so far: a round counts once its last remaining
    /// member arrived, however many members a node failure removed.
    pub(crate) rounds: u64,
}

impl TreeBarrier {
    /// Build a barrier over a topology using a combining tree of the given
    /// shape.
    pub fn new_on(topo: &AnyTopology, shape: TreeShape) -> Self {
        Self::with_tree(Arc::new(DecompositionTree::build_on(topo, shape)))
    }

    /// A barrier over an already built decomposition tree, which the caller
    /// may share (the runtime hands in the 4-ary access trees' tree).
    pub(crate) fn with_tree(tree: Arc<DecompositionTree>) -> Self {
        let pos = tree
            .node_ids()
            .map(|id| {
                let s = tree.submesh(id);
                tree.mesh()
                    .node_at(s.row0 + s.rows / 2, s.col0 + s.cols / 2)
            })
            .collect();
        let arrived = vec![0; tree.len()];
        let expected = tree
            .node_ids()
            .map(|id| {
                if tree.is_leaf(id) {
                    1
                } else {
                    tree.children(id).len() as u32
                }
            })
            .collect();
        TreeBarrier {
            tree,
            pos,
            arrived,
            expected,
            rounds: 0,
        }
    }

    /// Mesh node simulating tree node `id`.
    pub(crate) fn position(&self, id: TreeNodeId) -> NodeId {
        self.pos[id.index()]
    }

    /// Processor `proc` arrives at the barrier.
    pub fn arrive(&mut self, proc: NodeId) -> Vec<BarrierAction> {
        let leaf = self.tree.leaf_of(proc);
        match self.tree.parent(leaf) {
            None => {
                self.rounds += 1; // a single-processor mesh: released at once
                vec![BarrierAction::Wake { proc }]
            }
            Some(parent) => vec![BarrierAction::Send {
                from: proc,
                to: self.position(parent),
                msg: BarrierMsg::Arrive { node: parent },
            }],
        }
    }

    /// A barrier message arrived at its tree node.
    pub fn on_message(&mut self, msg: BarrierMsg) -> Vec<BarrierAction> {
        match msg {
            BarrierMsg::Arrive { node } => {
                self.arrived[node.index()] += 1;
                self.check_fire(node)
            }
            BarrierMsg::Release { node } => {
                if let Some(proc) = self.tree.proc(node) {
                    vec![BarrierAction::Wake { proc }]
                } else {
                    self.release(node)
                }
            }
        }
    }

    /// Deterministically remove `proc` from the barrier membership: its leaf
    /// stops counting towards (and receiving) both waves, empty subtrees
    /// drop out entirely, and a round that was only waiting for the victim
    /// fires immediately (the returned actions carry the wave onward).
    /// Idempotent. Must not be called while `proc` is *inside* the barrier —
    /// its arrival is already counted then, so the runtime defers the
    /// removal until the victim's wake (which it drops).
    pub(crate) fn remove(&mut self, proc: NodeId) -> Vec<BarrierAction> {
        let leaf = self.tree.leaf_of(proc);
        if self.expected[leaf.index()] == 0 {
            return Vec::new();
        }
        self.expected[leaf.index()] = 0;
        let mut node = leaf;
        while let Some(parent) = self.tree.parent(node) {
            let idx = parent.index();
            self.expected[idx] -= 1;
            if self.expected[idx] > 0 {
                // The parent keeps active members; the round may now be
                // complete without the victim.
                return self.check_fire(parent);
            }
            // The whole subtree under `parent` is empty: it can hold no
            // pending arrivals (a fired subtree's processors are inside the
            // barrier, where removal is deferred), so it drops out of its
            // own parent's expectation.
            debug_assert_eq!(self.arrived[idx], 0, "empty subtree with arrivals");
            node = parent;
        }
        Vec::new()
    }

    /// Fire `node`'s arrival upward (or release at the root) if every
    /// remaining member below it has arrived.
    fn check_fire(&mut self, node: TreeNodeId) -> Vec<BarrierAction> {
        let idx = node.index();
        if self.expected[idx] == 0 || self.arrived[idx] < self.expected[idx] {
            return Vec::new();
        }
        self.arrived[idx] = 0;
        match self.tree.parent(node) {
            Some(parent) => vec![BarrierAction::Send {
                from: self.position(node),
                to: self.position(parent),
                msg: BarrierMsg::Arrive { node: parent },
            }],
            None => {
                self.rounds += 1;
                self.release(node)
            }
        }
    }

    /// Broadcast the release wave from `node` to its children (skipping
    /// subtrees with no active member left).
    fn release(&self, node: TreeNodeId) -> Vec<BarrierAction> {
        self.tree
            .children(node)
            .iter()
            .filter(|&&c| self.expected[c.index()] > 0)
            .map(|&c| {
                if let Some(proc) = self.tree.proc(c) {
                    // Leaf children that are simulated by the same processor as
                    // `node` still get an explicit (local, cheap) message so
                    // their wake time is well defined.
                    BarrierAction::Send {
                        from: self.position(node),
                        to: proc,
                        msg: BarrierMsg::Release { node: c },
                    }
                } else {
                    BarrierAction::Send {
                        from: self.position(node),
                        to: self.position(c),
                        msg: BarrierMsg::Release { node: c },
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mesh::Mesh;
    use std::collections::{HashSet, VecDeque};

    /// Drive the barrier to completion with instant message delivery and
    /// return the set of woken processors and the number of messages sent.
    fn run_barrier(mesh: &Mesh, shape: TreeShape, arrivals: &[u32]) -> (HashSet<u32>, usize) {
        let mut barrier = TreeBarrier::new_on(&mesh.clone().into(), shape);
        let mut queue: VecDeque<BarrierMsg> = VecDeque::new();
        let mut woken = HashSet::new();
        let mut messages = 0;
        let handle = |actions: Vec<BarrierAction>,
                      queue: &mut VecDeque<BarrierMsg>,
                      woken: &mut HashSet<u32>,
                      messages: &mut usize| {
            for a in actions {
                match a {
                    BarrierAction::Send { msg, .. } => {
                        *messages += 1;
                        queue.push_back(msg);
                    }
                    BarrierAction::Wake { proc } => {
                        woken.insert(proc.0);
                    }
                }
            }
        };
        for &p in arrivals {
            let acts = barrier.arrive(NodeId(p));
            handle(acts, &mut queue, &mut woken, &mut messages);
        }
        while let Some(msg) = queue.pop_front() {
            let acts = barrier.on_message(msg);
            handle(acts, &mut queue, &mut woken, &mut messages);
        }
        (woken, messages)
    }

    #[test]
    fn nobody_is_released_until_everyone_arrived() {
        let mesh = Mesh::square(4);
        let all_but_one: Vec<u32> = (0..15).collect();
        let (woken, _) = run_barrier(&mesh, TreeShape::quad(), &all_but_one);
        assert!(woken.is_empty());
    }

    #[test]
    fn everyone_is_released_after_all_arrived() {
        for shape in [TreeShape::binary(), TreeShape::quad(), TreeShape::hex16()] {
            let mesh = Mesh::square(4);
            let all: Vec<u32> = (0..16).collect();
            let (woken, messages) = run_barrier(&mesh, shape, &all);
            assert_eq!(woken.len(), 16, "{shape:?}");
            // Arrive wave + release wave: at most 2 messages per tree edge.
            assert!(
                messages <= 4 * mesh.nodes(),
                "{shape:?}: {messages} messages"
            );
        }
    }

    #[test]
    fn arrival_order_does_not_matter() {
        let mesh = Mesh::new(3, 5);
        let mut order: Vec<u32> = (0..15).collect();
        order.reverse();
        let (woken, _) = run_barrier(&mesh, TreeShape::quad(), &order);
        assert_eq!(woken.len(), 15);
    }

    #[test]
    fn consecutive_barriers_reuse_the_state_machine() {
        let mesh = Mesh::square(2);
        let mut barrier = TreeBarrier::new_on(&mesh.clone().into(), TreeShape::quad());
        for _round in 0..3 {
            let mut queue: VecDeque<BarrierMsg> = VecDeque::new();
            let mut woken = HashSet::new();
            for p in 0..4u32 {
                for a in barrier.arrive(NodeId(p)) {
                    match a {
                        BarrierAction::Send { msg, .. } => queue.push_back(msg),
                        BarrierAction::Wake { proc } => {
                            woken.insert(proc.0);
                        }
                    }
                }
            }
            while let Some(msg) = queue.pop_front() {
                for a in barrier.on_message(msg) {
                    match a {
                        BarrierAction::Send { msg, .. } => queue.push_back(msg),
                        BarrierAction::Wake { proc } => {
                            woken.insert(proc.0);
                        }
                    }
                }
            }
            assert_eq!(woken.len(), 4);
        }
    }

    #[test]
    fn removing_the_last_straggler_fires_the_round() {
        // 15 of 16 processors arrive; the 16th is removed (app-processor
        // loss) — the round must complete and wake exactly the survivors.
        let mesh = Mesh::square(4);
        let mut barrier = TreeBarrier::new_on(&mesh.clone().into(), TreeShape::quad());
        let mut queue: VecDeque<BarrierMsg> = VecDeque::new();
        let mut woken = HashSet::new();
        let drain = |actions: Vec<BarrierAction>,
                     queue: &mut VecDeque<BarrierMsg>,
                     woken: &mut HashSet<u32>| {
            for a in actions {
                match a {
                    BarrierAction::Send { msg, .. } => queue.push_back(msg),
                    BarrierAction::Wake { proc } => {
                        woken.insert(proc.0);
                    }
                }
            }
        };
        for p in 0..15u32 {
            let acts = barrier.arrive(NodeId(p));
            drain(acts, &mut queue, &mut woken);
        }
        while let Some(msg) = queue.pop_front() {
            let acts = barrier.on_message(msg);
            drain(acts, &mut queue, &mut woken);
        }
        assert!(woken.is_empty(), "stuck on the straggler");
        let acts = barrier.remove(NodeId(15));
        drain(acts, &mut queue, &mut woken);
        drain(barrier.remove(NodeId(15)), &mut queue, &mut woken); // idempotent
        while let Some(msg) = queue.pop_front() {
            let acts = barrier.on_message(msg);
            drain(acts, &mut queue, &mut woken);
        }
        assert_eq!(woken, (0..15u32).collect::<HashSet<_>>());
        // The next round works without the removed member.
        woken.clear();
        for p in 0..15u32 {
            let acts = barrier.arrive(NodeId(p));
            drain(acts, &mut queue, &mut woken);
        }
        while let Some(msg) = queue.pop_front() {
            let acts = barrier.on_message(msg);
            drain(acts, &mut queue, &mut woken);
        }
        assert_eq!(woken.len(), 15);
    }

    #[test]
    fn removing_a_whole_subtree_drops_it_from_both_waves() {
        // Remove all four processors of one quad-tree subtree before anyone
        // arrives: the remaining 12 must synchronise among themselves, and
        // no message may target the empty subtree.
        let mesh = Mesh::square(4);
        let mut barrier = TreeBarrier::new_on(&mesh.clone().into(), TreeShape::quad());
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::quad());
        let removed: Vec<u32> = tree
            .region(tree.children(tree.root())[0])
            .iter()
            .map(|n| n.0)
            .collect();
        assert_eq!(removed.len(), 4);
        for &p in &removed {
            assert!(barrier.remove(NodeId(p)).is_empty());
        }
        let survivors: Vec<u32> = (0..16).filter(|p| !removed.contains(p)).collect();
        let (woken, _) = {
            let mut queue: VecDeque<BarrierMsg> = VecDeque::new();
            let mut woken = HashSet::new();
            let mut messages = 0usize;
            let drain = |actions: Vec<BarrierAction>,
                         queue: &mut VecDeque<BarrierMsg>,
                         woken: &mut HashSet<u32>,
                         messages: &mut usize| {
                for a in actions {
                    match a {
                        BarrierAction::Send { msg, .. } => {
                            *messages += 1;
                            queue.push_back(msg);
                        }
                        BarrierAction::Wake { proc } => {
                            woken.insert(proc.0);
                        }
                    }
                }
            };
            for &p in &survivors {
                let acts = barrier.arrive(NodeId(p));
                drain(acts, &mut queue, &mut woken, &mut messages);
            }
            while let Some(msg) = queue.pop_front() {
                let acts = barrier.on_message(msg);
                drain(acts, &mut queue, &mut woken, &mut messages);
            }
            (woken, messages)
        };
        assert_eq!(woken, survivors.iter().copied().collect::<HashSet<_>>());
    }

    #[test]
    fn single_processor_mesh_wakes_immediately() {
        let mesh = Mesh::new(1, 1);
        let mut barrier = TreeBarrier::new_on(&mesh.clone().into(), TreeShape::quad());
        let acts = barrier.arrive(NodeId(0));
        assert_eq!(acts, vec![BarrierAction::Wake { proc: NodeId(0) }]);
    }

    #[test]
    fn barrier_over_a_hypercube_releases_everyone() {
        let topo = AnyTopology::from(dm_mesh::Hypercube::new(4));
        let mut barrier = TreeBarrier::new_on(&topo, TreeShape::quad());
        let mut queue: VecDeque<BarrierMsg> = VecDeque::new();
        let mut woken = HashSet::new();
        let handle = |actions: Vec<BarrierAction>,
                      queue: &mut VecDeque<BarrierMsg>,
                      woken: &mut HashSet<u32>| {
            for a in actions {
                match a {
                    BarrierAction::Send { msg, .. } => queue.push_back(msg),
                    BarrierAction::Wake { proc } => {
                        woken.insert(proc.0);
                    }
                }
            }
        };
        for p in 0..16u32 {
            let acts = barrier.arrive(NodeId(p));
            handle(acts, &mut queue, &mut woken);
        }
        assert!(woken.is_empty(), "nobody released before the last arrival");
        while let Some(msg) = queue.pop_front() {
            let acts = barrier.on_message(msg);
            handle(acts, &mut queue, &mut woken);
        }
        assert_eq!(woken.len(), 16);
    }

    #[test]
    fn barrier_nodes_are_embedded_in_their_submesh() {
        let mesh = Mesh::new(8, 4);
        let barrier = TreeBarrier::new_on(&mesh.clone().into(), TreeShape::quad());
        let tree = DecompositionTree::build_on(&mesh.clone().into(), TreeShape::quad());
        for id in tree.node_ids() {
            assert!(tree.submesh(id).contains(&mesh, barrier.position(id)));
        }
    }
}
