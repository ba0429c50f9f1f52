//! Arena-allocated octrees for the Barnes-Hut application.
//!
//! Two consumers share the machinery in this module:
//!
//! * the **sequential reference simulation** uses [`ArenaOctree`], a
//!   flat-arena octree whose nodes live in one `Vec` and reference each other
//!   through [`PackedChild`] indices — no `Box` per cell, no pointer chasing
//!   across allocations, and all buffers are pooled across time steps;
//! * the **simulated shared octree** of `barnes_hut` stores the same
//!   [`PackedChild`] encoding inside its cell variables, where the packed
//!   `u32` indexes the DIVA variable space instead of the arena.
//!
//! The encoding packs a child slot into a single `u32`: the top two bits tag
//! the slot (sub-cell, body, or empty), the low 30 bits carry the index.
//! Compared to the boxed `Option<enum>` representation this quarters the size
//! of a child array and keeps sibling slots in one cache line — the
//! difference between fitting a ≥100 000-body tree rebuild per time step in
//! cache-friendly memory and thrashing, which is what lets the figure sweeps
//! run at beyond-paper scales.

use crate::workload::Body;

/// Maximum octree depth before coincident bodies are stored side by side.
pub(crate) const MAX_DEPTH: u32 = 48;

/// Decoded view of a [`PackedChild`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// No child.
    Empty,
    /// A body, identified by a 30-bit index.
    Body(u32),
    /// A sub-cell, identified by a 30-bit index.
    Cell(u32),
}

/// A child slot of an octree cell, packed into one `u32`: the top two bits
/// tag the slot (`0b00` sub-cell, `0b01` body, all-ones empty), the low 30
/// bits hold the index — an arena node index in [`ArenaOctree`], a DIVA
/// variable index in the shared octree of `barnes_hut`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedChild(u32);

const TAG_SHIFT: u32 = 30;
const INDEX_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_CELL: u32 = 0b00;
const TAG_BODY: u32 = 0b01;

impl PackedChild {
    /// The empty slot.
    pub(crate) const EMPTY: PackedChild = PackedChild(u32::MAX);

    /// A slot holding a sub-cell index.
    ///
    /// Hard assert (not `debug_assert`): an overflowing index would bleed
    /// into the tag bits and silently decode as the wrong slot kind, and the
    /// encode path runs during tree build, not in the per-interaction loop.
    pub(crate) fn cell(index: u32) -> Self {
        assert!(index <= INDEX_MASK, "cell index overflows 30 bits");
        PackedChild(TAG_CELL << TAG_SHIFT | index)
    }

    /// A slot holding a body index (see [`PackedChild::cell`] on the bound).
    pub(crate) fn body(index: u32) -> Self {
        assert!(index <= INDEX_MASK, "body index overflows 30 bits");
        PackedChild(TAG_BODY << TAG_SHIFT | index)
    }

    /// Decode the slot.
    pub(crate) fn decode(self) -> Slot {
        if self.0 == u32::MAX {
            Slot::Empty
        } else if self.0 >> TAG_SHIFT == TAG_BODY {
            Slot::Body(self.0 & INDEX_MASK)
        } else {
            Slot::Cell(self.0 & INDEX_MASK)
        }
    }
}

impl Default for PackedChild {
    fn default() -> Self {
        PackedChild::EMPTY
    }
}

/// Index of the octant of `pos` relative to `centre`.
pub(crate) fn octant_of(centre: &[f64; 3], pos: &[f64; 3]) -> usize {
    (0..3).fold(0, |acc, d| acc | (usize::from(pos[d] >= centre[d]) << d))
}

/// Centre of the child cell in octant `idx` of a cell at `centre` with
/// half-side `half`.
pub(crate) fn child_centre_of(centre: &[f64; 3], half: f64, idx: usize) -> [f64; 3] {
    let q = half / 2.0;
    [
        centre[0] + if idx & 1 != 0 { q } else { -q },
        centre[1] + if idx & 2 != 0 { q } else { -q },
        centre[2] + if idx & 4 != 0 { q } else { -q },
    ]
}

/// One node of the arena octree. The centre of mass is kept compact: one
/// `[f64; 4]` block (x, y, z, mass) instead of separate fields, so the force
/// loop reads it with a single aligned fetch.
#[derive(Debug, Clone)]
struct Node {
    /// Geometric centre.
    centre: [f64; 3],
    /// Half of the side length.
    half: f64,
    /// Centre of mass and total mass, packed as `[x, y, z, mass]` (valid
    /// after [`ArenaOctree::compute_com`]).
    com: [f64; 4],
    /// The eight child slots.
    children: [PackedChild; 8],
}

impl Node {
    fn new(centre: [f64; 3], half: f64) -> Self {
        Node {
            centre,
            half,
            com: [0.0; 4],
            children: [PackedChild::EMPTY; 8],
        }
    }
}

/// An arena-allocated sequential Barnes-Hut octree.
///
/// All nodes live in one `Vec` and reference children through packed `u32`
/// indices; the arena and every traversal buffer are reused across
/// [`build`](ArenaOctree::build) calls, so a multi-step simulation performs
/// no per-step tree allocations once the pools have warmed up.
///
/// The insertion, centre-of-mass and force algorithms mirror the classic
/// boxed-pointer implementation operation for operation (the unit tests
/// assert bit-identical results), parents are always created before their
/// children, and bodies are identified by their index into the caller's body
/// slice.
#[derive(Debug, Default)]
pub(crate) struct ArenaOctree {
    nodes: Vec<Node>,
}

impl ArenaOctree {
    /// An empty octree with empty pools.
    pub(crate) fn new() -> Self {
        ArenaOctree::default()
    }

    /// Number of cells in the current tree.
    #[cfg(test)]
    pub(crate) fn num_cells(&self) -> usize {
        self.nodes.len()
    }

    /// Rebuild the tree over `bodies` inside the cube at `centre` with
    /// half-side `half`, reusing the node arena of the previous build.
    pub(crate) fn build(&mut self, bodies: &[Body], centre: [f64; 3], half: f64) {
        assert!(
            bodies.len() <= INDEX_MASK as usize,
            "body count overflows the 30-bit packed index"
        );
        self.nodes.clear();
        self.nodes.push(Node::new(centre, half));
        for (i, b) in bodies.iter().enumerate() {
            self.insert(i as u32, b.pos, bodies);
        }
    }

    /// Insert body `i` at `pos`. Mirrors the boxed implementation: descend to
    /// the body's octant; an occupied leaf slot grows a chain of sub-cells
    /// until the two bodies separate (or `MAX_DEPTH` is reached, in which
    /// case they share a cell side by side).
    fn insert(&mut self, i: u32, pos: [f64; 3], bodies: &[Body]) {
        let mut cur = 0u32;
        let mut depth = 0u32;
        loop {
            let node = &self.nodes[cur as usize];
            let oct = octant_of(&node.centre, &pos);
            match node.children[oct].decode() {
                Slot::Cell(next) => {
                    cur = next;
                    depth += 1;
                }
                Slot::Empty => {
                    self.nodes[cur as usize].children[oct] = PackedChild::body(i);
                    return;
                }
                Slot::Body(other) => {
                    let other_pos = bodies[other as usize].pos;
                    let mut parent = cur;
                    let mut oct = oct;
                    loop {
                        let (centre, half) = {
                            let p = &self.nodes[parent as usize];
                            (child_centre_of(&p.centre, p.half, oct), p.half / 2.0)
                        };
                        let new = self.push_node(Node::new(centre, half));
                        self.nodes[parent as usize].children[oct] = PackedChild::cell(new);
                        let sub = &mut self.nodes[new as usize];
                        if depth >= MAX_DEPTH {
                            // Coincident (or nearly coincident) bodies: store
                            // them side by side in the deepest allowed cell.
                            sub.children[0] = PackedChild::body(other);
                            sub.children[1] = PackedChild::body(i);
                            return;
                        }
                        let ia = octant_of(&sub.centre, &pos);
                        let ib = octant_of(&sub.centre, &other_pos);
                        if ia != ib {
                            sub.children[ia] = PackedChild::body(i);
                            sub.children[ib] = PackedChild::body(other);
                            return;
                        }
                        parent = new;
                        oct = ia;
                        depth += 1;
                    }
                }
            }
        }
    }

    fn push_node(&mut self, node: Node) -> u32 {
        let idx = self.nodes.len();
        assert!(
            idx <= INDEX_MASK as usize,
            "cell count overflows the 30-bit packed index"
        );
        self.nodes.push(node);
        idx as u32
    }

    /// Compute the centre of mass of every cell. Parents are created before
    /// their children, so one reverse pass over the arena aggregates the
    /// whole tree without recursion.
    pub(crate) fn compute_com(&mut self, bodies: &[Body]) {
        for idx in (0..self.nodes.len()).rev() {
            let children = self.nodes[idx].children;
            let mut mass = 0.0;
            let mut com = [0.0f64; 3];
            for child in children {
                match child.decode() {
                    Slot::Empty => {}
                    Slot::Body(b) => {
                        let body = &bodies[b as usize];
                        mass += body.mass;
                        for k in 0..3 {
                            com[k] += body.mass * body.pos[k];
                        }
                    }
                    Slot::Cell(c) => {
                        // c > idx, so its centre of mass is already final.
                        let sub = self.nodes[c as usize].com;
                        mass += sub[3];
                        for k in 0..3 {
                            com[k] += sub[3] * sub[k];
                        }
                    }
                }
            }
            let node = &mut self.nodes[idx];
            if mass > 0.0 {
                for k in 0..3 {
                    com[k] /= mass;
                }
            } else {
                com = node.centre;
            }
            node.com = [com[0], com[1], com[2], mass];
        }
    }

    /// The acceleration on body `me` with opening criterion `theta`,
    /// traversing children in slot order exactly like the boxed
    /// implementation (so the floating-point summation order — and therefore
    /// the result — is bit-identical).
    pub(crate) fn force(
        &self,
        me: usize,
        bodies: &[Body],
        theta: f64,
        accel: fn(&[f64; 3], &[f64; 3], f64) -> [f64; 3],
    ) -> [f64; 3] {
        let mut acc = [0.0f64; 3];
        self.force_from(0, me, bodies, theta, accel, &mut acc);
        acc
    }

    fn force_from(
        &self,
        cell: u32,
        me: usize,
        bodies: &[Body],
        theta: f64,
        accel: fn(&[f64; 3], &[f64; 3], f64) -> [f64; 3],
        acc: &mut [f64; 3],
    ) {
        let node = &self.nodes[cell as usize];
        let pos = bodies[me].pos;
        let com = [node.com[0], node.com[1], node.com[2]];
        let dx = com[0] - pos[0];
        let dy = com[1] - pos[1];
        let dz = com[2] - pos[2];
        let dist = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-12);
        if (2.0 * node.half) / dist < theta {
            let a = accel(&pos, &com, node.com[3]);
            for k in 0..3 {
                acc[k] += a[k];
            }
            return;
        }
        for child in node.children {
            match child.decode() {
                Slot::Empty => {}
                Slot::Body(b) => {
                    if b as usize == me {
                        continue;
                    }
                    let other = &bodies[b as usize];
                    let a = accel(&pos, &other.pos, other.mass);
                    for k in 0..3 {
                        acc[k] += a[k];
                    }
                }
                Slot::Cell(c) => self.force_from(c, me, bodies, theta, accel, acc),
            }
        }
    }

    /// Append the body indices in depth-first, slot-order traversal (the
    /// left-to-right order the costzones partitioning walks) to `out`.
    #[cfg(test)]
    pub(crate) fn body_order(&self, out: &mut Vec<u32>) {
        if self.nodes.is_empty() {
            return;
        }
        self.body_order_from(0, out);
    }

    #[cfg(test)]
    fn body_order_from(&self, cell: u32, out: &mut Vec<u32>) {
        for child in self.nodes[cell as usize].children {
            match child.decode() {
                Slot::Empty => {}
                Slot::Body(b) => out.push(b),
                Slot::Cell(c) => self.body_order_from(c, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barnes_hut::pairwise_accel;
    use crate::workload::{bounding_cube, plummer_bodies};

    /// The historical boxed-pointer octree, kept as the oracle the arena
    /// implementation is checked against.
    mod boxed {
        use super::super::{child_centre_of, octant_of, MAX_DEPTH};
        use crate::workload::Body;

        pub(crate) enum RefNode {
            Body(usize),
            Cell(Box<RefCell>),
        }

        pub(crate) struct RefCell {
            pub centre: [f64; 3],
            pub half: f64,
            pub children: [Option<RefNode>; 8],
            pub com: [f64; 3],
            pub mass: f64,
        }

        impl RefCell {
            pub(crate) fn new(centre: [f64; 3], half: f64) -> Self {
                RefCell {
                    centre,
                    half,
                    children: Default::default(),
                    com: [0.0; 3],
                    mass: 0.0,
                }
            }

            pub(crate) fn insert(&mut self, idx_body: usize, bodies: &[Body], depth: u32) {
                let pos = bodies[idx_body].pos;
                let oct = octant_of(&self.centre, &pos);
                match self.children[oct].take() {
                    None => self.children[oct] = Some(RefNode::Body(idx_body)),
                    Some(RefNode::Cell(mut cell)) => {
                        cell.insert(idx_body, bodies, depth + 1);
                        self.children[oct] = Some(RefNode::Cell(cell));
                    }
                    Some(RefNode::Body(other)) => {
                        let mut cell = RefCell::new(
                            child_centre_of(&self.centre, self.half, oct),
                            self.half / 2.0,
                        );
                        if depth >= MAX_DEPTH {
                            cell.children[0] = Some(RefNode::Body(other));
                            cell.children[1] = Some(RefNode::Body(idx_body));
                        } else {
                            cell.insert(other, bodies, depth + 1);
                            cell.insert(idx_body, bodies, depth + 1);
                        }
                        self.children[oct] = Some(RefNode::Cell(Box::new(cell)));
                    }
                }
            }

            pub(crate) fn compute_com(&mut self, bodies: &[Body]) -> (f64, [f64; 3]) {
                let mut mass = 0.0;
                let mut com = [0.0f64; 3];
                for child in self.children.iter_mut().flatten() {
                    match child {
                        RefNode::Body(i) => {
                            let b = &bodies[*i];
                            mass += b.mass;
                            for k in 0..3 {
                                com[k] += b.mass * b.pos[k];
                            }
                        }
                        RefNode::Cell(c) => {
                            let (m, cc) = c.compute_com(bodies);
                            mass += m;
                            for k in 0..3 {
                                com[k] += m * cc[k];
                            }
                        }
                    }
                }
                if mass > 0.0 {
                    for k in 0..3 {
                        com[k] /= mass;
                    }
                } else {
                    com = self.centre;
                }
                self.mass = mass;
                self.com = com;
                (mass, com)
            }

            pub(crate) fn force(
                &self,
                me: usize,
                bodies: &[Body],
                theta: f64,
                accel: fn(&[f64; 3], &[f64; 3], f64) -> [f64; 3],
                acc: &mut [f64; 3],
            ) {
                let pos = bodies[me].pos;
                let dx = self.com[0] - pos[0];
                let dy = self.com[1] - pos[1];
                let dz = self.com[2] - pos[2];
                let dist = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-12);
                if (2.0 * self.half) / dist < theta {
                    let a = accel(&pos, &self.com, self.mass);
                    for k in 0..3 {
                        acc[k] += a[k];
                    }
                    return;
                }
                for child in self.children.iter().flatten() {
                    match child {
                        RefNode::Body(i) => {
                            if *i == me {
                                continue;
                            }
                            let a = accel(&pos, &bodies[*i].pos, bodies[*i].mass);
                            for k in 0..3 {
                                acc[k] += a[k];
                            }
                        }
                        RefNode::Cell(c) => c.force(me, bodies, theta, accel, acc),
                    }
                }
            }

            pub(crate) fn body_order(&self, out: &mut Vec<u32>) {
                for child in self.children.iter().flatten() {
                    match child {
                        RefNode::Body(i) => out.push(*i as u32),
                        RefNode::Cell(c) => c.body_order(out),
                    }
                }
            }

            pub(crate) fn count_cells(&self) -> usize {
                1 + self
                    .children
                    .iter()
                    .flatten()
                    .map(|c| match c {
                        RefNode::Body(_) => 0,
                        RefNode::Cell(c) => c.count_cells(),
                    })
                    .sum::<usize>()
            }
        }
    }

    fn boxed_tree(bodies: &[crate::workload::Body]) -> boxed::RefCell {
        let (centre, half) = bounding_cube(bodies);
        let mut root = boxed::RefCell::new(centre, half);
        for i in 0..bodies.len() {
            root.insert(i, bodies, 0);
        }
        root.compute_com(bodies);
        root
    }

    fn arena_tree(bodies: &[crate::workload::Body]) -> ArenaOctree {
        let (centre, half) = bounding_cube(bodies);
        let mut tree = ArenaOctree::new();
        tree.build(bodies, centre, half);
        tree.compute_com(bodies);
        tree
    }

    #[test]
    fn packed_child_roundtrips() {
        assert_eq!(PackedChild::EMPTY.decode(), Slot::Empty);
        assert_eq!(PackedChild::default().decode(), Slot::Empty);
        for idx in [0u32, 1, 17, INDEX_MASK] {
            assert_eq!(PackedChild::cell(idx).decode(), Slot::Cell(idx));
            assert_eq!(PackedChild::body(idx).decode(), Slot::Body(idx));
        }
        assert_eq!(std::mem::size_of::<PackedChild>(), 4);
    }

    #[test]
    fn arena_build_matches_boxed_build() {
        // Deterministic property loop: across seeds and sizes, the arena tree
        // has the same cell count, the same left-to-right body order and the
        // same per-cell aggregates as the boxed oracle.
        let mut orders = (Vec::new(), Vec::new());
        for seed in 0..12u64 {
            let n = 20 + (seed as usize * 37) % 300;
            let bodies = plummer_bodies(seed, n);
            let boxed = boxed_tree(&bodies);
            let arena = arena_tree(&bodies);
            assert_eq!(arena.num_cells(), boxed.count_cells(), "seed {seed}");

            orders.0.clear();
            orders.1.clear();
            boxed.body_order(&mut orders.0);
            arena.body_order(&mut orders.1);
            assert_eq!(orders.0, orders.1, "seed {seed}");
            assert_eq!(orders.0.len(), n, "every body appears exactly once");

            // Root aggregates match bit for bit.
            let root = &arena.nodes[0];
            assert_eq!(root.com[3], boxed.mass, "seed {seed}");
            for k in 0..3 {
                assert_eq!(root.com[k], boxed.com[k], "seed {seed} axis {k}");
            }
        }
    }

    #[test]
    fn arena_forces_match_boxed_forces_bit_for_bit() {
        for seed in 0..8u64 {
            let n = 30 + (seed as usize * 53) % 250;
            let bodies = plummer_bodies(seed ^ 0xA5, n);
            let boxed = boxed_tree(&bodies);
            let arena = arena_tree(&bodies);
            for theta in [0.4, 1.0] {
                for i in (0..n).step_by(7) {
                    let mut want = [0.0f64; 3];
                    boxed.force(i, &bodies, theta, pairwise_accel, &mut want);
                    let got = arena.force(i, &bodies, theta, pairwise_accel);
                    assert_eq!(got, want, "seed {seed} body {i} theta {theta}");
                }
            }
        }
    }

    #[test]
    fn coincident_bodies_share_the_deepest_cell() {
        // Two bodies at the same position cannot be separated; both
        // implementations must fall back to a shared cell at MAX_DEPTH.
        let mut bodies = plummer_bodies(3, 4);
        bodies[1].pos = bodies[0].pos;
        let boxed = boxed_tree(&bodies);
        let arena = arena_tree(&bodies);
        assert_eq!(arena.num_cells(), boxed.count_cells());
        let mut a = Vec::new();
        let mut b = Vec::new();
        boxed.body_order(&mut a);
        arena.body_order(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_reuses_the_arena() {
        let bodies = plummer_bodies(7, 200);
        let (centre, half) = bounding_cube(&bodies);
        let mut tree = ArenaOctree::new();
        tree.build(&bodies, centre, half);
        let cells = tree.num_cells();
        let cap = tree.nodes.capacity();
        tree.build(&bodies, centre, half);
        assert_eq!(tree.num_cells(), cells, "rebuild is deterministic");
        assert_eq!(tree.nodes.capacity(), cap, "rebuild allocates nothing");
    }
}
