//! The counting allocator's numbers repeat exactly.
//!
//! This file holds one test on purpose: the counters are process-wide, so a
//! second test running on another thread would allocate into the window.

use dm_hostbench::e2e::counting_rep;
use dm_hostbench::workload::{Spec, WORKLOADS};

#[test]
fn two_counting_reps_of_one_workload_count_the_same() {
    for name in WORKLOADS {
        let spec = Spec::tiny(name).expect("a listed workload has a tiny size");
        let (first, a) = counting_rep(&spec, 7);
        let (second, b) = counting_rep(&spec, 7);
        // `alloc.count`, `alloc.mb` and `heap_peak_mb` all come from here.
        assert_eq!(a, b, "{name}");
        assert!(a.count > 0 && a.bytes > 0, "{name}: nothing was counted");
        assert!(
            a.peak_bytes > 0 && a.peak_bytes <= a.bytes,
            "{name}: peak {} of {} bytes",
            a.peak_bytes,
            a.bytes
        );
        assert!(second.check_same_as(&first).is_ok());
    }
}
