//! The memory law (ROADMAP direction 7(a)): with variables in proportion to
//! processors, a run's peak heap must grow in proportion to the processors,
//! not to processors × variables — at most 4.5× per 4× processors.
//!
//! This binary holds a single test and installs a counting global allocator
//! (the pattern of `benchmark/src/alloc.rs`), so no other test allocates
//! while a run is measured. A window's peak covers what the benchmark's
//! `heap_peak_mb` covers: topology, `Diva::new`, the inputs and the run.

use dm_apps::kv::{run_kv_driven, KeyDist, KvParams};
use dm_apps::uniform::{run_uniform_driven, UniformParams};
use dm_diva::{Diva, DivaConfig, StrategyKind};
use dm_mesh::{AnyTopology, Mesh, TreeShape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// Statistics only: nothing else is published through them.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        grew(new_size);
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Peak live heap in MiB that `run` adds to what was live when it started.
fn heap_peak_mib(run: impl FnOnce()) -> f64 {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    run();
    (PEAK.load(Relaxed) - base) as f64 / (1024.0 * 1024.0)
}

/// The benchmark's placement seed (`benchmark/src/workload.rs`).
const PLACEMENT_SEED: u64 = 0x5EED;

fn diva(side: usize, strategy: StrategyKind) -> Diva {
    let topo = AnyTopology::Mesh(Mesh::square(side));
    Diva::new(DivaConfig::on(topo, strategy).with_seed(PLACEMENT_SEED))
}

/// `uniform_64` scaled to a `side`² mesh: fixed home, 4 variables and 2
/// operations per processor, input seed 1.
fn uniform(side: usize) -> f64 {
    heap_peak_mib(|| {
        let nprocs = side * side;
        let params = UniformParams {
            ops_per_proc: 2,
            seed: 1,
            ..UniformParams::new(nprocs)
        };
        run_uniform_driven(diva(side, StrategyKind::FixedHome), params);
    })
}

/// `kv_zipf_write` scaled to a `side`² mesh — 8 keys per processor on the
/// 4-ary access tree — with 2 requests per client to keep the test short.
fn kv(side: usize) -> f64 {
    heap_peak_mib(|| {
        let nprocs = side * side;
        let params = KvParams {
            ops_per_client: 2,
            write_percent: 50,
            seed: 1,
            dist: KeyDist::Zipf(0.9),
            ..KvParams::new(nprocs)
        };
        run_kv_driven(
            diva(side, StrategyKind::AccessTree(TreeShape::quad())),
            params,
        );
    })
}

#[test]
fn heap_peak_grows_linearly_with_processors() {
    const SIDES: [usize; 3] = [16, 32, 64];
    let uniform: Vec<f64> = SIDES.iter().map(|&side| uniform(side)).collect();
    // Not asserted: the access tree's copy sets are dense rows over the
    // tree's nodes, one per variable, so they are still quadratic (ROADMAP
    // direction 7(b)).
    let kv: Vec<f64> = SIDES.iter().map(|&side| kv(side)).collect();
    for (i, side) in SIDES.iter().enumerate() {
        println!(
            "{side}x{side}: uniform {:.3} MiB, kv {:.3} MiB",
            uniform[i], kv[i]
        );
    }
    for (i, pair) in uniform.windows(2).enumerate() {
        let growth = pair[1] / pair[0];
        assert!(
            growth <= 4.5,
            "uniform heap peak grew {growth:.2}x from {s}x{s} to {t}x{t} \
             ({:.3} -> {:.3} MiB); 4x processors may cost at most 4.5x",
            pair[0],
            pair[1],
            s = SIDES[i],
            t = SIDES[i + 1],
        );
    }
}
