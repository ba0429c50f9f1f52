//! Virtual time.

/// Virtual (simulated) time, in nanoseconds since the start of the run.
///
/// Nanosecond resolution keeps all arithmetic in integers (no accumulation of
/// floating-point error across millions of events) while still resolving the
/// microsecond-scale costs of the modelled machine.
pub type SimTime = u64;

/// Convert microseconds (the natural unit of the machine parameters) to
/// [`SimTime`] nanoseconds, rounding to the nearest nanosecond.
#[inline]
pub fn us_to_ns(us: f64) -> SimTime {
    debug_assert!(us >= 0.0, "negative duration");
    (us * 1_000.0).round() as SimTime
}

/// Convert a [`SimTime`] to seconds (for reporting).
#[inline]
pub fn ns_to_secs(t: SimTime) -> f64 {
    t as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(us_to_ns(1.0), 1_000);
        assert_eq!(us_to_ns(0.5), 500);
        assert_eq!(us_to_ns(0.0), 0);
        assert!((ns_to_secs(2_500_000_000) - 2.5).abs() < 1e-12);
        assert!((ns_to_secs(us_to_ns(1500.0)) - 0.0015).abs() < 1e-12);
    }
}
