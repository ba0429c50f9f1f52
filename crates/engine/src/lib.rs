//! # dm-engine — deterministic discrete-event simulation of a mesh machine
//!
//! This crate models the *hardware* of the paper's experimental platform (a
//! Parsytec GCel: a 2-D mesh of processors connected by ~1 MB/s links with a
//! dimension-order wormhole router and a noticeable per-message startup cost)
//! as a deterministic discrete-event simulation:
//!
//! * [`SimTime`] — virtual time in nanoseconds.
//! * [`MachineConfig`] — the hardware parameters (link bandwidth, per-message
//!   startup cost at sender and receiver, per-hop router latency, processor
//!   speed). [`MachineConfig::parsytec_gcel`] reproduces the figures the paper
//!   reports for the GCel.
//! * [`EventQueue`] — a calendar queue of time buckets that pops events in
//!   exact (time, insertion) order.
//! * [`LinkNetwork`] — the timing and accounting model of the mesh links:
//!   every message is routed along the dimension-order path, every directed
//!   link is a serially-reusable resource with finite bandwidth, every node
//!   has a communication port that is occupied for the startup time of each
//!   send and receive, and every link crossing is counted towards the byte and
//!   message congestion statistics (optionally attributed to a measurement
//!   *region*, which the harness uses for the per-phase Barnes-Hut figures).
//!
//! The crate knows nothing about data-management strategies or shared
//! variables; it only answers "when does this message arrive and what did it
//! cost".
//!
//! ## Fault model
//!
//! Faults change two things about a link: its bandwidth and whether it is
//! alive. [`LinkNetwork`] keeps both in a fault table, made on the first
//! fault; every link keeps the machine's hop latency.
//!
//! * **No table** (the default) or an **intact table**: bit-identical timing
//!   — the fault-free goldens gate this parity. Healing a link
//!   ([`LinkNetwork::heal_link`]) returns it to [`MachineConfig`]'s bandwidth.
//! * **Degraded links** keep carrying traffic over their unchanged routes
//!   (the dimension-order hardware router is oblivious to bandwidth); only
//!   their transfer times stretch.
//! * **Dead links** ([`LinkNetwork::fail_link`]) carry nothing. Routes are
//!   recomputed deterministically around them through the topology's detour
//!   search (`AnyTopology::route_links_avoiding` in `dm-mesh`) and memoised per
//!   endpoint pair; pairs whose default route is fully alive keep it, so a
//!   fault perturbs exactly the traffic that crossed it.
//! * **Partitions** must be caught up front with
//!   [`LinkNetwork::check_connected`]; transmitting across a partitioned
//!   pair is a programming error and panics rather than hanging.
//!
//! Failure *schedules* — what dies when, and how directory state re-homes
//! after a node loss — live one layer up, in `dm-diva`'s `FaultPlan`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod events;
mod network;
mod time;

pub use config::MachineConfig;
pub use events::EventQueue;
pub use network::{Delivery, LinkNetwork, RegionId, GLOBAL_REGION};
pub use time::{ns_to_secs, us_to_ns, SimTime};

#[cfg(test)]
mod tests {
    /// splitmix64: a seeded stream for the tests, without a dependency.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        /// The next value, reduced below `n`.
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }
}
