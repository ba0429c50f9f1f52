//! The machine model: hardware parameters of the simulated mesh computer.

use crate::time::{us_to_ns, SimTime};

/// Hardware parameters of the simulated mesh-connected machine.
///
/// The defaults ([`MachineConfig::parsytec_gcel`]) follow the measurements the
/// paper reports for the Parsytec GCel:
///
/// * a maximum link bandwidth of about 1 MByte/s, achievable in both
///   directions of a link independently (we therefore model *directed* links),
/// * full bandwidth only for fairly large messages (≈1 KByte), i.e. a
///   substantial per-message startup cost paid by both the sending and the
///   receiving processor,
/// * a processor speed of about 0.29 integer additions per microsecond,
///   giving a link/processor speed ratio of about 0.86.
///
/// Congestion results are independent of these constants (as the paper notes);
/// they only shape the execution-time results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Link bandwidth in bytes per microsecond (1.0 = 1 MByte/s).
    pub link_bandwidth_bytes_per_us: f64,
    /// Per-message startup overhead at the sending processor, in µs.
    pub startup_send_us: f64,
    /// Per-message startup overhead at the receiving processor, in µs.
    pub startup_recv_us: f64,
    /// Router latency per hop for the message head, in µs (wormhole routing:
    /// the head advances hop by hop, the body streams behind it).
    pub per_hop_latency_us: f64,
    /// Cost of a message between co-located endpoints (same processor), in µs.
    pub local_msg_us: f64,
    /// Time for one integer operation, in µs (the paper measured 0.29 integer
    /// additions per µs, i.e. ≈3.45 µs per addition).
    pub int_op_us: f64,
    /// Time for one floating-point operation, in µs (used by the Barnes-Hut
    /// force computation model).
    pub flop_us: f64,
    /// Library overhead of an access that is satisfied from the local cache
    /// (a DIVA read hit), in µs.
    pub local_access_us: f64,
    /// Size of a protocol control message (read request, invalidation,
    /// acknowledgement, lock request/grant), in bytes.
    pub control_msg_bytes: u32,
    /// Header added to every data-carrying message, in bytes.
    pub header_bytes: u32,
    /// Size of one word (matrix entry / sort key), in bytes. The paper uses
    /// 4-byte integers.
    pub word_bytes: u32,
}

impl MachineConfig {
    /// Parameters modelled after the Parsytec GCel measurements reported in
    /// Section 3 of the paper.
    pub fn parsytec_gcel() -> Self {
        MachineConfig {
            link_bandwidth_bytes_per_us: 1.0,
            startup_send_us: 150.0,
            startup_recv_us: 150.0,
            per_hop_latency_us: 5.0,
            local_msg_us: 5.0,
            int_op_us: 1.0 / 0.29,
            flop_us: 2.0,
            local_access_us: 10.0,
            control_msg_bytes: 16,
            header_bytes: 16,
            word_bytes: 4,
        }
    }

    /// A machine with negligible startup costs and latencies. Useful in tests
    /// that want timing to be governed by bandwidth/congestion alone.
    #[cfg(test)]
    pub(crate) fn bandwidth_only() -> Self {
        MachineConfig {
            startup_send_us: 0.0,
            startup_recv_us: 0.0,
            per_hop_latency_us: 0.0,
            local_msg_us: 0.0,
            local_access_us: 0.0,
            ..Self::parsytec_gcel()
        }
    }

    /// Time to push `bytes` bytes through one link, in [`SimTime`] ns.
    #[inline]
    pub(crate) fn transfer_ns(&self, bytes: u32) -> SimTime {
        us_to_ns(bytes as f64 / self.link_bandwidth_bytes_per_us)
    }

    /// Sender startup cost in ns.
    #[inline]
    pub(crate) fn startup_send_ns(&self) -> SimTime {
        us_to_ns(self.startup_send_us)
    }

    /// Receiver startup cost in ns.
    #[inline]
    pub(crate) fn startup_recv_ns(&self) -> SimTime {
        us_to_ns(self.startup_recv_us)
    }

    /// Per-hop head latency in ns.
    #[inline]
    pub(crate) fn hop_latency_ns(&self) -> SimTime {
        us_to_ns(self.per_hop_latency_us)
    }

    /// Cost of a co-located (same node) message in ns.
    #[inline]
    pub(crate) fn local_msg_ns(&self) -> SimTime {
        us_to_ns(self.local_msg_us)
    }

    /// Cost of a local cache hit in ns.
    #[inline]
    pub fn local_access_ns(&self) -> SimTime {
        us_to_ns(self.local_access_us)
    }

    /// Modelled time of `n` integer operations, in ns.
    #[inline]
    pub fn int_ops_ns(&self, n: u64) -> SimTime {
        us_to_ns(n as f64 * self.int_op_us)
    }

    /// Modelled time of `n` floating-point operations, in ns.
    #[inline]
    pub fn flops_ns(&self, n: u64) -> SimTime {
        us_to_ns(n as f64 * self.flop_us)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::parsytec_gcel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcel_matches_reported_characteristics() {
        let cfg = MachineConfig::parsytec_gcel();
        // 1 MB/s link bandwidth: 1000 bytes take 1000 µs.
        assert_eq!(cfg.transfer_ns(1000), 1_000_000);
        // 0.29 integer additions per µs.
        assert!((cfg.int_op_us - 3.448).abs() < 0.01);
        // link/processor ratio of about 0.86... the paper rounds; we reproduce
        // the same computation (bandwidth × time-per-op ≈ 3.45 bytes/op would
        // be the naive reading, the paper's 0.86 = 1 / (0.29 * 4) uses 4-byte
        // words): bytes-per-µs / (ops-per-µs * word) = 1 / (0.29*4) ≈ 0.86.
        let ratio =
            cfg.link_bandwidth_bytes_per_us / ((1.0 / cfg.int_op_us) * cfg.word_bytes as f64);
        assert!((ratio - 0.86).abs() < 0.01);
    }

    #[test]
    fn bandwidth_only_has_no_overheads() {
        let cfg = MachineConfig::bandwidth_only();
        assert_eq!(cfg.startup_send_ns(), 0);
        assert_eq!(cfg.startup_recv_ns(), 0);
        assert_eq!(cfg.hop_latency_ns(), 0);
        assert_eq!(cfg.local_msg_ns(), 0);
        assert_eq!(cfg.transfer_ns(100), 100_000);
    }

    #[test]
    fn compute_helpers() {
        let cfg = MachineConfig::parsytec_gcel();
        assert_eq!(cfg.int_ops_ns(0), 0);
        assert!(cfg.int_ops_ns(1000) > cfg.int_ops_ns(999));
        assert_eq!(cfg.flops_ns(10), us_to_ns(20.0));
    }
}
