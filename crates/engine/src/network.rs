//! Timing and accounting model of the interconnect.

use crate::config::MachineConfig;
use crate::time::{us_to_ns, SimTime};
use dm_mesh::{AnyTopology, Leg, LinkId, LinkStats, NodeId};
use std::collections::HashMap;

/// A measurement region messages can be attributed to (e.g. the Barnes-Hut
/// "tree build" or "force computation" phase). Region 0 is the implicit
/// whole-run region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u16);

/// The implicit region covering the whole run.
pub const GLOBAL_REGION: RegionId = RegionId(0);

/// Per-link bandwidth and liveness: what faults change about the network.
///
/// A fresh network has no table at all — every link runs at
/// [`MachineConfig`]'s bandwidth. The table is materialised (intact, from the
/// same constant) on the first fault, so an intact table is cost-for-cost
/// identical to no table: each link's transfer time is computed from the very
/// same `f64` the untabled path uses, which keeps all fault-free goldens
/// byte-identical. Every link keeps the machine's hop latency.
///
/// Dead links (see [`LinkNetwork::fail_link`]) carry no traffic; routes are
/// recomputed around them via [`dm_mesh::AnyTopology::route_links_avoiding`].
/// Degraded links keep routing unchanged — routing is oblivious to bandwidth,
/// like the dimension-order hardware router being modelled.
struct FaultTable {
    /// Bandwidth of each link slot in bytes per µs.
    bandwidth: Vec<f64>,
    /// Liveness of each link slot.
    alive: Vec<bool>,
    /// Number of links marked dead.
    dead: usize,
}

impl FaultTable {
    /// An intact table over `slots` link slots at the bandwidth of `cfg`.
    fn intact(cfg: &MachineConfig, slots: usize) -> Self {
        FaultTable {
            bandwidth: vec![cfg.link_bandwidth_bytes_per_us; slots],
            alive: vec![true; slots],
            dead: 0,
        }
    }
}

/// Result of scheduling a message on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Virtual time at which the receiving processor has fully received the
    /// message and finished its receive-side startup processing.
    pub arrival: SimTime,
    /// Virtual time at which the sending processor has finished its send-side
    /// startup processing and is free to continue.
    pub sender_free: SimTime,
}

/// The interconnect: per-link bandwidth occupancy, per-node
/// communication-port occupancy, and traffic statistics, over any
/// [`AnyTopology`] (the reference mesh, torus, hypercube or fat tree — the
/// topology supplies the deterministic route, the network model supplies the
/// timing).
///
/// ## Timing model
///
/// The GCel uses wormhole routing along dimension-order paths. We model a
/// message of `b` bytes from `u` to `v` as follows:
///
/// 1. The sender's communication port is occupied for `startup_send` starting
///    no earlier than the issue time and no earlier than the port being free
///    (per-node serialisation of sends — this is what makes a single "home"
///    node distributing many copies a bottleneck).
/// 2. The message head then advances hop by hop along the topology's
///    deterministic route. On each link it waits until the link is free,
///    then occupies the link for `b / bandwidth`; the head moves on after
///    `per_hop_latency` while the body streams behind it (virtual
///    cut-through approximation of wormhole routing; upstream blocking of
///    stalled worms is not modelled).
/// 3. At the destination the message occupies the receiver's communication
///    port for `startup_recv`; the returned arrival time is when that
///    processing has finished.
///
/// Messages between co-located endpoints cost `local_msg` and touch no link.
///
/// Every link crossing adds the message size to the link's byte counter and
/// one to its message counter, both globally and for the currently attributed
/// [`RegionId`]. Congestion — the paper's key metric — is the maximum counter
/// over all links.
///
/// A route is walked as the topology's [`Leg`]s: runs of consecutive link
/// ids, at most two per message on a mesh, over which one per-hop loop reads
/// and writes contiguous link state.
pub struct LinkNetwork {
    topo: AnyTopology,
    cfg: MachineConfig,
    /// Cost of a co-located message in ns, precomputed from `cfg`.
    local_ns: SimTime,
    /// `(bytes, cfg.transfer_ns(bytes))` of the last few message sizes seen
    /// by the untabled path, replaced round-robin: a run sends a handful of
    /// sizes (control messages, one or two value sizes), and the conversion
    /// is a float divide and a `round()` per message. The initial entries
    /// are true as they stand — zero bytes take zero time.
    transfer_memo: [(u32, SimTime); 4],
    /// The memo entry the next unseen size replaces.
    memo_next: usize,
    /// Per-link bandwidth and liveness; `None` (the default) until the first
    /// fault, so a fault-free run never consults a table.
    faults: Option<Box<FaultTable>>,
    /// Memoised routes around dead links, keyed by `(from, to)`; `None`
    /// entries record partitioned pairs. Invalidated whenever a link dies.
    detours: HashMap<(u32, u32), Option<Box<[LinkId]>>>,
    /// What each message occupies and is counted in.
    wire: Wire,
    /// Total number of messages scheduled (including local ones).
    messages_sent: u64,
    /// Total number of bytes handed to the network (including local messages).
    bytes_sent: u64,
}

/// The state a message's traversal writes: port and link occupancy and the
/// traffic statistics.
struct Wire {
    /// Fixed per-message costs in ns, precomputed from the machine
    /// parameters — `transmit` runs once per simulated message, so the float
    /// conversions are hoisted out of the hot path.
    send_ns: SimTime,
    recv_ns: SimTime,
    hop_ns: SimTime,
    /// Time at which each directed link becomes free.
    link_free: Vec<SimTime>,
    /// Time at which each node's communication port becomes free.
    port_free: Vec<SimTime>,
    /// Whole-run traffic statistics.
    global: LinkStats,
    /// Per-region traffic statistics, lazily grown: index `i` is region
    /// `i + 1` (region 0 is the whole run, counted in `global`).
    regions: Vec<LinkStats>,
}

impl LinkNetwork {
    /// Create an idle network for `topo` with hardware parameters `cfg`.
    pub fn new(topo: impl Into<AnyTopology>, cfg: MachineConfig) -> Self {
        let topo = topo.into();
        let links = topo.link_slots();
        let nodes = topo.nodes();
        LinkNetwork {
            topo,
            cfg,
            local_ns: cfg.local_msg_ns(),
            transfer_memo: [(0, 0); 4],
            memo_next: 0,
            faults: None,
            detours: HashMap::new(),
            wire: Wire {
                send_ns: cfg.startup_send_ns(),
                recv_ns: cfg.startup_recv_ns(),
                hop_ns: cfg.hop_latency_ns(),
                link_free: vec![0; links],
                port_free: vec![0; nodes],
                global: LinkStats::with_slots(links),
                regions: Vec::new(),
            },
            messages_sent: 0,
            bytes_sent: 0,
        }
    }

    /// The machine parameters.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Schedule a message of `bytes` bytes from `from` to `to`, issued at
    /// virtual time `now`, attributed to `region`.
    ///
    /// Without faults every link takes the machine's transfer time and the
    /// route is the topology's; after a fault the transfer time comes from
    /// the link's bandwidth in the fault table and, once a link is dead, the
    /// route from the memoised detours. One per-hop loop, `Wire::cross`,
    /// serves all three.
    ///
    /// # Panics
    /// Panics if `to` is unreachable from `from` — callers must gate runs
    /// through [`LinkNetwork::check_connected`] after killing links.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u32,
        region: RegionId,
    ) -> Delivery {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        if from == to {
            // Co-located endpoints: library-internal hand-off, no link crossed.
            let done = now + self.local_ns;
            return Delivery {
                arrival: done,
                sender_free: done,
            };
        }
        let region = (region != GLOBAL_REGION).then(|| {
            // Materialise the region's stats before the traversal borrows
            // them.
            self.region_stats_mut(region);
            region_slot(region)
        });
        let sender_free = self.wire.send(now, from);
        let mut head = Head {
            ready: sender_free,
            tail: sender_free,
        };
        let Some(table) = self.faults.as_deref() else {
            let transfer = self.transfer_ns(bytes);
            let wire = &mut self.wire;
            self.topo.for_each_leg(from, to, |leg| {
                wire.cross(&mut head, leg, bytes, region, |_| transfer);
            });
            return self.wire.receive(head, sender_free, to);
        };
        let transfer = |l: usize| {
            debug_assert!(table.alive[l], "message routed across a dead link");
            us_to_ns(bytes as f64 / table.bandwidth[l])
        };
        if table.dead == 0 {
            let wire = &mut self.wire;
            self.topo.for_each_leg(from, to, |leg| {
                wire.cross(&mut head, leg, bytes, region, transfer);
            });
        } else {
            let detour = self
                .detours
                .entry((from.0, to.0))
                .or_insert_with(|| alive_route(&self.topo, table, from, to))
                .as_deref()
                .expect("transmit across a partitioned network (check_connected not honoured)");
            for &l in detour {
                self.wire
                    .cross(&mut head, Leg::from(l), bytes, region, transfer);
            }
        }
        self.wire.receive(head, sender_free, to)
    }

    /// `cfg.transfer_ns(bytes)`, memoised.
    #[inline]
    fn transfer_ns(&mut self, bytes: u32) -> SimTime {
        if let Some(&(_, ns)) = self.transfer_memo.iter().find(|&&(b, _)| b == bytes) {
            return ns;
        }
        let ns = self.cfg.transfer_ns(bytes);
        self.transfer_memo[self.memo_next] = (bytes, ns);
        self.memo_next = (self.memo_next + 1) % self.transfer_memo.len();
        ns
    }

    /// The fault table, materialised (intact) on first use. The switch from
    /// the untabled to the tabled path is cost-neutral: an intact table
    /// reproduces the untabled timings bit for bit.
    fn faults_mut(&mut self) -> &mut FaultTable {
        let Self {
            faults, cfg, topo, ..
        } = self;
        faults.get_or_insert_with(|| Box::new(FaultTable::intact(cfg, topo.link_slots())))
    }

    /// Degrade one link to `factor` (0 < factor ≤ 1) of its current
    /// bandwidth. Routing is unchanged: the hardware router is oblivious to
    /// bandwidth, so traffic keeps crossing slow links.
    pub fn degrade_link(&mut self, l: LinkId, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation factor {factor} out of range"
        );
        self.faults_mut().bandwidth[l.index()] *= factor;
    }

    /// Take a link out of service. Returns whether the link was alive (the
    /// second failure of one link is a no-op). Memoised detours are
    /// invalidated; subsequent messages route around all dead links.
    pub fn fail_link(&mut self, l: LinkId) -> bool {
        let table = self.faults_mut();
        let was_alive = std::mem::replace(&mut table.alive[l.index()], false);
        if was_alive {
            table.dead += 1;
            self.detours.clear();
        }
        was_alive
    }

    /// Return a link to service at the machine's bandwidth: a dead link
    /// comes back alive, a degraded link snaps back to
    /// [`MachineConfig::link_bandwidth_bytes_per_us`]. Memoised detours are
    /// invalidated, so subsequent messages deterministically revert to the
    /// routes an intact network would use. Returns whether the link was
    /// actually faulty (healing a healthy link is a no-op).
    pub fn heal_link(&mut self, l: LinkId) -> bool {
        let intact = self.cfg.link_bandwidth_bytes_per_us;
        let table = self.faults_mut();
        let idx = l.index();
        let was_dead = !std::mem::replace(&mut table.alive[idx], true);
        let was_degraded = table.bandwidth[idx] != intact;
        table.bandwidth[idx] = intact;
        if was_dead {
            table.dead -= 1;
        }
        if was_dead || was_degraded {
            // Routes must revert (or stop detouring around a link that is
            // alive again) exactly as deterministically as they changed.
            self.detours.clear();
        }
        was_dead || was_degraded
    }

    /// Whether a link is alive (trivially true without a fault table).
    #[cfg(test)]
    pub(crate) fn link_alive(&self, l: LinkId) -> bool {
        self.faults.as_deref().is_none_or(|t| t.alive[l.index()])
    }

    /// Number of links taken out of service.
    pub(crate) fn dead_links(&self) -> usize {
        self.faults.as_deref().map_or(0, |t| t.dead)
    }

    /// The route messages from `from` to `to` currently take: the topology's
    /// default route while every link on it is alive, otherwise the memoised
    /// detour. `None` when the pair is partitioned.
    pub(crate) fn route_of(&mut self, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
        if from == to {
            return Some(Vec::new());
        }
        let Self {
            topo,
            faults,
            detours,
            ..
        } = self;
        match faults.as_deref() {
            Some(table) if table.dead > 0 => detours
                .entry((from.0, to.0))
                .or_insert_with(|| alive_route(topo, table, from, to))
                .as_deref()
                .map(<[LinkId]>::to_vec),
            _ => {
                let mut route = Vec::new();
                topo.for_each_route_link(from, to, |l| route.push(l));
                Some(route)
            }
        }
    }

    /// Verify that every node can still reach and be reached by node 0 (and
    /// therefore, routes being composable through node 0's position in the
    /// strongly connected alive component, every other node). Returns the
    /// first unreachable node. Cheap when no link is dead.
    pub fn check_connected(&mut self) -> Result<(), NodeId> {
        if self.dead_links() == 0 {
            return Ok(());
        }
        let origin = NodeId(0);
        for n in 1..self.topo.nodes() as u32 {
            let n = NodeId(n);
            if self.route_of(origin, n).is_none() || self.route_of(n, origin).is_none() {
                return Err(n);
            }
        }
        Ok(())
    }

    fn region_stats_mut(&mut self, region: RegionId) -> &mut LinkStats {
        let idx = region_slot(region);
        let regions = &mut self.wire.regions;
        while regions.len() <= idx {
            regions.push(LinkStats::with_slots(self.topo.link_slots()));
        }
        &mut regions[idx]
    }

    /// Whole-run traffic statistics.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> &LinkStats {
        &self.wire.global
    }

    /// Move the whole-run traffic statistics out, leaving statistics over no
    /// link: for the end of a run, when nothing is sent any more.
    pub fn take_stats(&mut self) -> LinkStats {
        std::mem::replace(&mut self.wire.global, LinkStats::with_slots(0))
    }

    /// Traffic statistics of a region. Slots are materialised up to the
    /// highest region whose traffic crossed a link, so a region above that
    /// is `None` and one below it without traffic reads as zeros. Region 0
    /// returns the whole-run statistics.
    pub fn region_stats(&self, region: RegionId) -> Option<&LinkStats> {
        if region == GLOBAL_REGION {
            return Some(&self.wire.global);
        }
        self.wire.regions.get(region_slot(region))
    }

    /// Number of messages handed to the network (including local ones).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Number of bytes handed to the network (including local messages).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

/// The head of a message on its way: when it may enter its next link, and
/// when the last link it entered is free again, which is when its tail has
/// passed.
#[derive(Clone, Copy)]
struct Head {
    ready: SimTime,
    tail: SimTime,
}

impl Wire {
    /// Sender startup, serialised on the sender's communication port: the
    /// time at which the sender is free and the head enters the network.
    #[inline(always)]
    fn send(&mut self, now: SimTime, from: NodeId) -> SimTime {
        let start = now.max(self.port_free[from.index()]);
        let sender_free = start + self.send_ns;
        self.port_free[from.index()] = sender_free;
        sender_free
    }

    /// Advance `head` over the links of `leg`, where crossing link `l` takes
    /// `transfer(l)` ns, and count a message of `bytes` bytes on each,
    /// globally and in `region`'s slot. One loop per direction of a leg and
    /// per case of `region`: the branches are taken once per leg, not per
    /// hop.
    #[inline(always)]
    fn cross(
        &mut self,
        head: &mut Head,
        leg: Leg,
        bytes: u32,
        region: Option<usize>,
        transfer: impl Fn(usize) -> SimTime,
    ) {
        let Self {
            hop_ns,
            link_free,
            global,
            regions,
            ..
        } = self;
        let bytes = u64::from(bytes);
        let ids = leg.ids();
        let hops = ids.clone().zip(&mut link_free[ids]);
        match (region, leg.ascending()) {
            (None, true) => walk(hops, head, *hop_ns, transfer, |l| global.record(l, bytes)),
            (None, false) => walk(hops.rev(), head, *hop_ns, transfer, |l| {
                global.record(l, bytes)
            }),
            (Some(r), ascending) => {
                let region = &mut regions[r];
                let record = |l| {
                    global.record(l, bytes);
                    region.record(l, bytes);
                };
                if ascending {
                    walk(hops, head, *hop_ns, transfer, record);
                } else {
                    walk(hops.rev(), head, *hop_ns, transfer, record);
                }
            }
        }
    }

    /// Receiver startup, serialised on the receiver's port once the body has
    /// arrived: the delivery of the message whose head is `head`.
    #[inline(always)]
    fn receive(&mut self, head: Head, sender_free: SimTime, to: NodeId) -> Delivery {
        let body_arrived = head.tail.max(head.ready);
        let start = body_arrived.max(self.port_free[to.index()]);
        let arrival = start + self.recv_ns;
        self.port_free[to.index()] = arrival;
        Delivery {
            arrival,
            sender_free,
        }
    }
}

/// The per-hop body of every traversal: cross each `(link, free time)` of
/// `hops` in order, waiting for the link, occupying it for the transfer and
/// moving the head on after the hop latency while the body streams behind
/// (virtual cut-through), and `record` the message on the link.
#[inline(always)]
fn walk<'a>(
    hops: impl Iterator<Item = (usize, &'a mut SimTime)>,
    head: &mut Head,
    hop_ns: SimTime,
    transfer: impl Fn(usize) -> SimTime,
    mut record: impl FnMut(LinkId),
) {
    let mut h = *head;
    for (l, free) in hops {
        let depart = h.ready.max(*free);
        *free = depart + transfer(l);
        h.ready = depart + hop_ns;
        // The tail arrives one full transfer after the head departed the
        // last link's queueing point.
        h.tail = *free;
        record(LinkId(l as u32));
    }
    *head = h;
}

/// The index of a named region's statistics in `Wire::regions`.
#[inline]
fn region_slot(region: RegionId) -> usize {
    debug_assert_ne!(region, GLOBAL_REGION, "the whole run has no region slot");
    region.0 as usize - 1
}

/// The route a pair uses once links have died: the topology's default route
/// when it is fully alive (so unaffected pairs keep their exact pre-fault
/// behaviour), otherwise the deterministic detour of
/// [`dm_mesh::AnyTopology::route_links_avoiding`]; `None` when partitioned.
fn alive_route(
    topo: &AnyTopology,
    table: &FaultTable,
    from: NodeId,
    to: NodeId,
) -> Option<Box<[LinkId]>> {
    let mut route = Vec::new();
    let mut hit_dead = false;
    topo.for_each_route_link(from, to, |l| {
        route.push(l);
        hit_dead |= !table.alive[l.index()];
    });
    if !hit_dead {
        return Some(route.into_boxed_slice());
    }
    topo.route_links_avoiding(from, to, &|l| !table.alive[l.index()])
        .map(Vec::into_boxed_slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Rng;
    use dm_mesh::{Direction, FatTree, Hypercube, Mesh};

    impl LinkNetwork {
        /// The mesh under a test network (they are all meshes).
        fn mesh(&self) -> &Mesh {
            self.topo.mesh().expect("test network is a mesh")
        }

        /// A link's bandwidth in the fault table.
        fn bandwidth(&self, l: LinkId) -> f64 {
            self.faults.as_deref().expect("a fault table").bandwidth[l.index()]
        }
    }

    fn net(side: usize, cfg: MachineConfig) -> LinkNetwork {
        LinkNetwork::new(Mesh::square(side), cfg)
    }

    #[test]
    fn memoised_transfer_times_equal_those_of_a_fresh_network() {
        let cfg = MachineConfig::parsytec_gcel();
        let mut memoised = net(4, cfg);
        let a = memoised.mesh().node_at(0, 0);
        let b = memoised.mesh().node_at(3, 2);
        let mut now = 0;
        for size in 1..=4096u32 {
            // Five sizes alternate through four entries, so `size` is found
            // again once, replaced, and looked up after its replacement.
            for bytes in [size, 16, size, 80, 1040, 4097 - size, size] {
                let fresh = net(4, cfg).transmit(now, a, b, bytes, GLOBAL_REGION);
                let d = memoised.transmit(now, a, b, bytes, GLOBAL_REGION);
                assert_eq!(d, fresh, "{bytes} bytes at {now}");
                // Every link and port the message used is free again.
                now = d.arrival;
            }
        }
    }

    #[test]
    fn local_message_touches_no_link() {
        let mut n = net(4, MachineConfig::parsytec_gcel());
        let a = n.mesh().node_at(1, 1);
        let d = n.transmit(0, a, a, 1000, GLOBAL_REGION);
        assert_eq!(n.stats().total_msgs(), 0);
        assert_eq!(n.stats().total_bytes(), 0);
        assert_eq!(d.arrival, n.config().local_msg_ns());
    }

    #[test]
    fn single_hop_timing_without_contention() {
        let cfg = MachineConfig::parsytec_gcel();
        let mut n = net(4, cfg);
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 1);
        let d = n.transmit(0, a, b, 1000, GLOBAL_REGION);
        assert_eq!(n.stats().total_msgs(), 1);
        // send startup + max(transfer, hop latency) + recv startup
        let expected = cfg.startup_send_ns()
            + cfg.transfer_ns(1000).max(cfg.hop_latency_ns())
            + cfg.startup_recv_ns();
        assert_eq!(d.arrival, expected);
        assert_eq!(d.sender_free, cfg.startup_send_ns());
    }

    #[test]
    fn multi_hop_route_records_every_link() {
        let mut n = net(8, MachineConfig::bandwidth_only());
        let a = n.mesh().node_at(7, 0);
        let b = n.mesh().node_at(0, 7);
        n.transmit(0, a, b, 500, GLOBAL_REGION);
        assert_eq!(n.route_of(a, b).map(|r| r.len()), Some(14));
        assert_eq!(n.stats().total_msgs(), 14);
        assert_eq!(n.stats().total_bytes(), 14 * 500);
        assert_eq!(n.stats().congestion_bytes(), 500);
    }

    #[test]
    fn contention_on_a_shared_link_serialises_transfers() {
        // Two messages that share their first link: the second must wait for
        // the first to clear the link.
        let cfg = MachineConfig::bandwidth_only();
        let mut n = net(4, cfg);
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 3);
        let d1 = n.transmit(0, a, b, 1000, GLOBAL_REGION);
        let d2 = n.transmit(0, a, b, 1000, GLOBAL_REGION);
        assert!(d2.arrival >= d1.arrival + cfg.transfer_ns(1000) - 1);
        // Congestion on the shared links is 2 messages / 2000 bytes.
        assert_eq!(n.stats().congestion_msgs(), 2);
        assert_eq!(n.stats().congestion_bytes(), 2000);
    }

    #[test]
    fn sender_port_serialises_successive_sends() {
        // A node sending k messages pays k startup costs back to back — the
        // fixed-home bottleneck the paper describes.
        let cfg = MachineConfig::parsytec_gcel();
        let mut n = net(4, cfg);
        let home = n.mesh().node_at(0, 0);
        let mut last_sender_free = 0;
        for i in 0..5u32 {
            let dst = n.mesh().node_at(1 + (i as usize % 3), 1);
            let d = n.transmit(0, home, dst, 64, GLOBAL_REGION);
            assert!(d.sender_free >= last_sender_free + cfg.startup_send_ns());
            last_sender_free = d.sender_free;
        }
        assert_eq!(last_sender_free, 5 * cfg.startup_send_ns());
    }

    #[test]
    fn receiver_port_serialises_concurrent_arrivals() {
        let cfg = MachineConfig::parsytec_gcel();
        let mut n = net(4, cfg);
        let dst = n.mesh().node_at(2, 2);
        let s1 = n.mesh().node_at(2, 0);
        let s2 = n.mesh().node_at(0, 2);
        let d1 = n.transmit(0, s1, dst, 64, GLOBAL_REGION);
        let d2 = n.transmit(0, s2, dst, 64, GLOBAL_REGION);
        // Different paths, but the receive startups cannot overlap.
        assert!(d2.arrival >= d1.arrival.min(d2.arrival) + cfg.startup_recv_ns());
    }

    #[test]
    fn region_attribution() {
        let mut n = net(4, MachineConfig::bandwidth_only());
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 2);
        n.transmit(0, a, b, 100, RegionId(1));
        n.transmit(0, a, b, 100, RegionId(2));
        n.transmit(0, a, b, 100, RegionId(2));
        assert_eq!(n.region_stats(RegionId(1)).unwrap().total_msgs(), 2);
        assert_eq!(n.region_stats(RegionId(2)).unwrap().total_msgs(), 4);
        assert!(n.region_stats(RegionId(3)).is_none());
        // Global stats see everything.
        assert_eq!(n.stats().total_msgs(), 6);
        assert_eq!(n.region_stats(GLOBAL_REGION).unwrap().total_msgs(), 6);
        // Taking the whole-run statistics moves them out.
        assert_eq!(n.take_stats().total_msgs(), 6);
        assert_eq!(n.stats().total_msgs(), 0);
    }

    #[test]
    fn region_slots_start_at_region_one() {
        let mut n = net(4, MachineConfig::bandwidth_only());
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 2);
        n.transmit(0, a, b, 100, RegionId(1));
        n.transmit(0, a, b, 100, RegionId(3));
        // Regions 1, 2 and 3: no slot for the whole run, none above 3.
        assert_eq!(n.wire.regions.len(), 3);
        assert_eq!(n.region_stats(RegionId(1)).unwrap().total_msgs(), 2);
        assert_eq!(n.region_stats(RegionId(2)).unwrap().total_msgs(), 0);
        assert_eq!(n.region_stats(RegionId(3)).unwrap().total_msgs(), 2);
        assert!(n.region_stats(RegionId(4)).is_none());
    }

    #[test]
    fn later_issue_time_is_respected() {
        let cfg = MachineConfig::bandwidth_only();
        let mut n = net(4, cfg);
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 1);
        let d = n.transmit(1_000_000, a, b, 100, GLOBAL_REGION);
        assert!(d.arrival >= 1_000_000 + cfg.transfer_ns(100));
    }

    #[test]
    fn torus_transmit_takes_the_wraparound_link() {
        // GCel parameters: per-hop latency is non-zero, so the 1-hop
        // wraparound route arrives strictly earlier than the 7-hop mesh
        // route (under bandwidth_only the cut-through pipeline makes the
        // two arrivals equal).
        let cfg = MachineConfig::parsytec_gcel();
        let mut n = LinkNetwork::new(Mesh::torus(1, 8), cfg);
        // (0,0) → (0,7): one wraparound hop on the torus, 7 on the mesh.
        let d = n.transmit(0, NodeId(0), NodeId(7), 500, GLOBAL_REGION);
        assert_eq!(n.stats().total_msgs(), 1);
        let mut mesh_net = LinkNetwork::new(Mesh::new(1, 8), cfg);
        let dm = mesh_net.transmit(0, NodeId(0), NodeId(7), 500, GLOBAL_REGION);
        assert_eq!(mesh_net.stats().total_msgs(), 7);
        assert!(d.arrival < dm.arrival);
    }

    #[test]
    fn fat_tree_transmit_crosses_up_and_down_edges() {
        use dm_mesh::FatTree;
        let ft = FatTree::new(8);
        let diameter = ft.diameter();
        let mut n = LinkNetwork::new(ft, MachineConfig::parsytec_gcel());
        let d = n.transmit(0, NodeId(0), NodeId(7), 64, GLOBAL_REGION);
        assert_eq!(n.stats().total_msgs(), diameter as u64);
        // Sibling leaves: 2 hops through the shared switch.
        n.transmit(d.arrival, NodeId(0), NodeId(1), 64, GLOBAL_REGION);
        assert_eq!(n.stats().total_msgs(), diameter as u64 + 2);
    }

    #[test]
    fn message_and_byte_counters() {
        let mut n = net(4, MachineConfig::parsytec_gcel());
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(3, 3);
        n.transmit(0, a, b, 100, GLOBAL_REGION);
        n.transmit(0, a, a, 100, GLOBAL_REGION);
        assert_eq!(n.messages_sent(), 2);
        assert_eq!(n.bytes_sent(), 200);
    }

    #[test]
    fn uniform_cost_table_is_bit_identical_to_the_fast_path() {
        // The gate behind the fault-free golden guarantee: materialising an
        // intact fault table must not change a single delivery time.
        let cfg = MachineConfig::parsytec_gcel();
        let mut fast = net(4, cfg);
        let mut tabled = net(4, cfg);
        tabled.faults_mut(); // intact table, no faults
        let pairs = [(0u32, 15u32), (3, 12), (5, 5), (0, 15), (7, 8), (15, 0)];
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            let now = i as SimTime * 1000;
            let bytes = 64 + 100 * i as u32;
            let region = RegionId((i % 3) as u16);
            let df = fast.transmit(now, NodeId(a), NodeId(b), bytes, region);
            let dt = tabled.transmit(now, NodeId(a), NodeId(b), bytes, region);
            assert_eq!(df, dt);
        }
        assert_eq!(
            fast.stats().congestion_bytes(),
            tabled.stats().congestion_bytes()
        );
        assert_eq!(
            fast.region_stats(RegionId(1)).unwrap().total_msgs(),
            tabled.region_stats(RegionId(1)).unwrap().total_msgs()
        );
    }

    #[test]
    fn degraded_link_slows_transfers_but_keeps_the_route() {
        let cfg = MachineConfig::bandwidth_only();
        let mut n = net(4, cfg);
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 2);
        // Degrade the route's *last* link: under the cut-through
        // approximation the body is charged on the final link, so the slow
        // link shows up whole in this message's arrival (a slow intermediate
        // link would only delay later traffic via its occupancy).
        let last_link = n
            .mesh()
            .link(n.mesh().node_at(0, 1), dm_mesh::Direction::East);
        let baseline = net(4, cfg).transmit(0, a, b, 1000, GLOBAL_REGION);
        n.degrade_link(last_link, 0.25);
        let d = n.transmit(0, a, b, 1000, GLOBAL_REGION);
        assert_eq!(n.stats().total_msgs(), 2, "degradation must not reroute");
        assert_eq!(
            d.arrival,
            baseline.arrival + 3 * cfg.transfer_ns(1000),
            "quarter bandwidth on the last link adds 3 extra transfer times"
        );
        assert_eq!(n.bandwidth(last_link), 0.25);
    }

    #[test]
    fn failed_link_reroutes_and_partition_is_detected() {
        let cfg = MachineConfig::bandwidth_only();
        let mut n = net(2, cfg);
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 1);
        let east = n.mesh().link(a, dm_mesh::Direction::East);
        assert!(n.link_alive(east));
        assert!(n.fail_link(east));
        assert!(!n.fail_link(east), "second failure is a no-op");
        assert!(!n.link_alive(east));
        assert_eq!(n.dead_links(), 1);
        assert_eq!(n.check_connected(), Ok(()));
        // The 1-hop route is gone; the detour goes south, east, north.
        n.transmit(0, a, b, 100, GLOBAL_REGION);
        assert_eq!(n.stats().total_msgs(), 3);
        let route = n.route_of(a, b).unwrap();
        assert_eq!(route.len(), 3);
        assert!(!route.contains(&east));
        // Unaffected pairs keep their default route.
        assert_eq!(n.route_of(b, a).unwrap().len(), 1);
        // Killing the remaining out-links of node 0 partitions it.
        let south = n.mesh().link(a, dm_mesh::Direction::South);
        assert!(n.fail_link(south));
        assert_eq!(n.check_connected(), Err(NodeId(1)));
        assert_eq!(n.route_of(a, b), None);
    }

    #[test]
    fn healed_link_reverts_routes_and_bandwidth() {
        let cfg = MachineConfig::bandwidth_only();
        let mut n = net(2, cfg);
        let a = n.mesh().node_at(0, 0);
        let b = n.mesh().node_at(0, 1);
        let east = n.mesh().link(a, dm_mesh::Direction::East);
        let pre_fault = n.route_of(a, b).unwrap();
        n.fail_link(east);
        n.degrade_link(east, 0.25);
        assert_eq!(n.route_of(a, b).unwrap().len(), 3, "detour while dead");
        assert!(n.heal_link(east));
        assert!(!n.heal_link(east), "healing a healthy link is a no-op");
        assert!(n.link_alive(east));
        assert_eq!(n.dead_links(), 0);
        assert_eq!(
            n.route_of(a, b).unwrap(),
            pre_fault,
            "post-heal routes must be byte-equal to the pre-fault routes"
        );
        assert_eq!(
            n.bandwidth(east),
            cfg.link_bandwidth_bytes_per_us,
            "degradation snaps back to the baseline"
        );
        // Healed timing matches an intact network exactly.
        let fresh = net(2, cfg).transmit(0, a, b, 1000, GLOBAL_REGION);
        assert_eq!(n.transmit(0, a, b, 1000, GLOBAL_REGION), fresh);
    }

    /// The per-link traversal the leg walk replaced, kept as the oracle of
    /// [`LinkNetwork::transmit`]: it steps each route one link at a time,
    /// without legs, and one per-hop body charges the link and records the
    /// message, its region inside the loop.
    struct Oracle {
        topo: AnyTopology,
        /// Whether the grid wraps (a torus).
        wrap: bool,
        cfg: MachineConfig,
        link_free: Vec<SimTime>,
        port_free: Vec<SimTime>,
        global: LinkStats,
        regions: Vec<LinkStats>,
        /// Per-link bandwidth and liveness, from the first fault on.
        table: Option<(Vec<f64>, Vec<bool>)>,
    }

    impl Oracle {
        fn new(topo: &AnyTopology, wrap: bool, cfg: MachineConfig) -> Self {
            Oracle {
                topo: topo.clone(),
                wrap,
                cfg,
                link_free: vec![0; topo.link_slots()],
                port_free: vec![0; topo.nodes()],
                global: LinkStats::with_slots(topo.link_slots()),
                regions: Vec::new(),
                table: None,
            }
        }

        /// The default route: on a grid, dimension order stepped node by
        /// node through [`Mesh::link`], on a torus the shorter way round
        /// each ring with ties east and south; on a hypercube e-cube bit by
        /// bit; on a fat tree the unique switch path on default channels.
        fn default_route(&self, from: NodeId, to: NodeId) -> Vec<LinkId> {
            let mut route = Vec::new();
            match &self.topo {
                AnyTopology::Mesh(m) => {
                    let mut cur = from;
                    loop {
                        let ((r, c), (tr, tc)) = (m.coord(cur), m.coord(to));
                        let (pos, target, len, forward, backward) = if c != tc {
                            (c, tc, m.cols(), Direction::East, Direction::West)
                        } else if r != tr {
                            (r, tr, m.rows(), Direction::South, Direction::North)
                        } else {
                            return route;
                        };
                        let ahead = (target + len - pos) % len;
                        let go_forward = if self.wrap {
                            ahead <= len - ahead
                        } else {
                            pos < target
                        };
                        let l = m.link(cur, if go_forward { forward } else { backward });
                        route.push(l);
                        cur = m.link_endpoints(l).1;
                    }
                }
                AnyTopology::Hypercube(_) => {
                    let dim = self.topo.nodes().trailing_zeros();
                    let mut cur = from.0;
                    for b in (0..dim).filter(|b| (from.0 ^ to.0) >> b & 1 == 1) {
                        route.push(LinkId(cur * dim + b));
                        cur ^= 1 << b;
                    }
                    route
                }
                AnyTopology::FatTree(_) => self
                    .topo
                    .route_links_avoiding(from, to, &|_| false)
                    .expect("an intact fat tree is connected"),
            }
        }

        /// The fault table, materialised (intact) on first use.
        fn table(&mut self) -> &mut (Vec<f64>, Vec<bool>) {
            let slots = self.topo.link_slots();
            let bandwidth = self.cfg.link_bandwidth_bytes_per_us;
            self.table
                .get_or_insert_with(|| (vec![bandwidth; slots], vec![true; slots]))
        }

        fn degrade(&mut self, l: LinkId, factor: f64) {
            self.table().0[l.index()] *= factor;
        }

        fn fail(&mut self, l: LinkId) {
            self.table().1[l.index()] = false;
        }

        fn heal(&mut self, l: LinkId) {
            let bandwidth = self.cfg.link_bandwidth_bytes_per_us;
            let table = self.table();
            table.0[l.index()] = bandwidth;
            table.1[l.index()] = true;
        }

        fn transmit(
            &mut self,
            now: SimTime,
            from: NodeId,
            to: NodeId,
            bytes: u32,
            region: RegionId,
        ) -> Delivery {
            if from == to {
                let done = now + self.cfg.local_msg_ns();
                return Delivery {
                    arrival: done,
                    sender_free: done,
                };
            }
            while region != GLOBAL_REGION && self.regions.len() < region.0 as usize {
                self.regions
                    .push(LinkStats::with_slots(self.topo.link_slots()));
            }
            let mut route = self.default_route(from, to);
            if let Some((_, alive)) = &self.table {
                if route.iter().any(|l| !alive[l.index()]) {
                    route = self
                        .topo
                        .route_links_avoiding(from, to, &|l| !alive[l.index()])
                        .expect("the oracle sends between connected pairs only");
                }
            }
            let send_start = now.max(self.port_free[from.index()]);
            let sender_free = send_start + self.cfg.startup_send_ns();
            self.port_free[from.index()] = sender_free;
            let mut head_ready = sender_free;
            let mut last_link_free = head_ready;
            for l in route {
                let idx = l.index();
                let transfer = match &self.table {
                    None => self.cfg.transfer_ns(bytes),
                    Some((bandwidth, _)) => us_to_ns(bytes as f64 / bandwidth[idx]),
                };
                let depart = head_ready.max(self.link_free[idx]);
                self.link_free[idx] = depart + transfer;
                head_ready = depart + self.cfg.hop_latency_ns();
                last_link_free = self.link_free[idx];
                self.global.record(l, bytes as u64);
                if region != GLOBAL_REGION {
                    self.regions[region.0 as usize - 1].record(l, bytes as u64);
                }
            }
            let recv_start = last_link_free
                .max(head_ready)
                .max(self.port_free[to.index()]);
            let arrival = recv_start + self.cfg.startup_recv_ns();
            self.port_free[to.index()] = arrival;
            Delivery {
                arrival,
                sender_free,
            }
        }
    }

    /// What the differential run does to the links between messages.
    #[derive(Debug, Clone, Copy)]
    enum Faults {
        /// Nothing: the untabled path.
        None,
        /// An intact fault table.
        Intact,
        /// Links degraded, and some healed again.
        Degraded,
        /// Links killed, and some healed again; messages take detours.
        Dead,
    }

    /// One seeded stream of `transmit` calls, some going back in time,
    /// through a network and the oracle, with every delivery and the
    /// global and per-region statistics compared after each call. Returns
    /// how many messages were sent while a link was dead.
    fn differential(topo: &AnyTopology, wrap: bool, faults: Faults, seed: u64) -> usize {
        let ctx = format!("{} {faults:?} seed {seed}", topo.name());
        let cfg = MachineConfig::parsytec_gcel();
        let mut rng = Rng(seed);
        let mut net = LinkNetwork::new(topo.clone(), cfg);
        let mut oracle = Oracle::new(topo, wrap, cfg);
        let links = topo.link_ids();
        let nodes = topo.nodes() as u64;
        let mut now: SimTime = 0;
        let mut with_dead_links = 0;
        for step in 0..500 {
            if step % 25 == 0 && !links.is_empty() {
                let l = links[rng.below(links.len() as u64) as usize];
                let heal = rng.below(3) == 0;
                match faults {
                    Faults::None => {}
                    Faults::Intact => {
                        net.degrade_link(l, 1.0);
                        oracle.degrade(l, 1.0);
                    }
                    Faults::Degraded if heal => {
                        net.heal_link(l);
                        oracle.heal(l);
                    }
                    Faults::Degraded => {
                        let factor = (1 + rng.below(8)) as f64 / 8.0;
                        net.degrade_link(l, factor);
                        oracle.degrade(l, factor);
                    }
                    Faults::Dead if heal => {
                        net.heal_link(l);
                        oracle.heal(l);
                    }
                    Faults::Dead => {
                        net.fail_link(l);
                        oracle.fail(l);
                        if net.check_connected().is_err() {
                            net.heal_link(l);
                            oracle.heal(l);
                        }
                    }
                }
            }
            now = if rng.below(4) == 0 {
                now.saturating_sub(rng.below(40_000))
            } else {
                now + rng.below(20_000)
            };
            let from = NodeId(rng.below(nodes) as u32);
            let to = NodeId(rng.below(nodes) as u32);
            let bytes = [16, 80, 1040, 1 + rng.below(5000) as u32][rng.below(4) as usize];
            let region = RegionId(rng.below(4) as u16);
            with_dead_links += usize::from(net.dead_links() > 0);
            let d = net.transmit(now, from, to, bytes, region);
            let expected = oracle.transmit(now, from, to, bytes, region);
            let call = format!("{ctx}, step {step}: {from}->{to}, {bytes} B, {region:?}");
            assert_eq!(d, expected, "{call}");
            assert!(*net.stats() == oracle.global, "{call}: global stats");
            for r in 1..4 {
                assert!(
                    net.region_stats(RegionId(r)) == oracle.regions.get(r as usize - 1),
                    "{call}: stats of region {r}"
                );
            }
        }
        with_dead_links
    }

    #[test]
    fn leg_walk_matches_the_per_link_oracle() {
        let networks: [(AnyTopology, bool); 11] = [
            (Mesh::new(1, 9).into(), false),
            (Mesh::new(7, 1).into(), false),
            (Mesh::new(5, 8).into(), false),
            (Mesh::square(6).into(), false),
            (Mesh::torus(1, 6).into(), true),
            (Mesh::torus(5, 1).into(), true),
            (Mesh::torus(2, 2).into(), true),
            (Mesh::torus(2, 5).into(), true),
            (Mesh::torus(6, 7).into(), true),
            (Hypercube::new(4).into(), false),
            (FatTree::new(16).into(), false),
        ];
        for (topo, wrap) in &networks {
            for faults in [Faults::None, Faults::Intact, Faults::Degraded, Faults::Dead] {
                let with_dead_links: usize = (0..3)
                    .map(|seed| differential(topo, *wrap, faults, seed))
                    .sum();
                // Every network but a path (each of whose links is a
                // bridge) keeps some link dead for a while.
                if matches!(faults, Faults::Dead) && topo.diameter() + 1 < topo.nodes() {
                    assert!(with_dead_links > 0, "{}: no detour taken", topo.name());
                }
            }
        }
    }
}
