//! Deterministic workload generators shared by the applications and the
//! experiment harness.
//!
//! Besides the scientific-kernel inputs (matrix blocks, sort keys, Plummer
//! bodies) this module holds the request-workload building blocks of the KV
//! serving tier ([`crate::kv`]): a Zipf sampler with a precomputed
//! inverse-CDF table, a migrating-hotspot key schedule keyed on the op index
//! (never on virtual time, so every worker count and every sharding of a
//! sweep samples identically), and seeded client-churn gap schedules.

use dm_rng::{splitmix64, ChaCha8Rng};

/// The deterministic initial matrix block for block row `i`, block column `j`
/// with side length `side`. Entries are small so that repeated squaring stays
/// well inside `i64` for the block sizes of the paper.
pub(crate) fn block_matrix(i: usize, j: usize, side: usize) -> Vec<i64> {
    let mut block = Vec::with_capacity(side * side);
    for r in 0..side {
        for c in 0..side {
            let v = (i * 31 + j * 17 + r * 7 + c * 3) % 5;
            block.push(v as i64);
        }
    }
    block
}

/// Deterministic pseudo-random sort keys for the bitonic-sorting experiment:
/// `m` keys for the processor simulating wire `wire`.
pub(crate) fn sort_keys(seed: u64, wire: usize, m: usize) -> Vec<u64> {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ (wire as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..m).map(|_| rng.next_u64()).collect()
}

/// A body of the N-body simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
    /// Work counter: interactions computed for this body in the previous
    /// force-computation phase (used by the costzones partitioning).
    pub work: u64,
}

/// Generate `n` bodies following the Plummer model, the standard initial
/// distribution of the SPLASH-2 Barnes-Hut benchmark. Positions are clipped
/// to a bounded region so the octree depth stays reasonable.
pub fn plummer_bodies(seed: u64, n: usize) -> Vec<Body> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut bodies = Vec::with_capacity(n);
    let mass = 1.0 / n as f64;
    while bodies.len() < n {
        // Plummer radial distribution: r = (u^(-2/3) - 1)^(-1/2).
        let u: f64 = rng.gen_range(1e-6..1.0);
        let r = (u.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
        if r > 8.0 {
            continue; // clip the rare far outliers
        }
        let (x, y, z) = random_direction(&mut rng, r);
        // Velocities from the standard rejection technique (von Neumann).
        let mut q: f64;
        loop {
            q = rng.gen_range(0.0..1.0);
            let g: f64 = rng.gen_range(0.0..0.1);
            if g < q * q * (1.0 - q * q).powf(3.5) {
                break;
            }
        }
        let v_escape = std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
        let speed = q * v_escape;
        let (vx, vy, vz) = random_direction(&mut rng, speed);
        bodies.push(Body {
            pos: [x, y, z],
            vel: [vx, vy, vz],
            mass,
            work: 1,
        });
    }
    bodies
}

/// A uniformly random direction scaled to length `r`.
fn random_direction(rng: &mut ChaCha8Rng, r: f64) -> (f64, f64, f64) {
    loop {
        let x: f64 = rng.gen_range(-1.0..1.0);
        let y: f64 = rng.gen_range(-1.0..1.0);
        let z: f64 = rng.gen_range(-1.0..1.0);
        let len2 = x * x + y * y + z * z;
        if len2 > 1e-12 && len2 <= 1.0 {
            let s = r / len2.sqrt();
            return (x * s, y * s, z * s);
        }
    }
}

/// The bounding cube (centre, half-width) of a set of bodies, slightly
/// enlarged so insertions at the boundary are safe.
pub(crate) fn bounding_cube(bodies: &[Body]) -> ([f64; 3], f64) {
    let mut min = [f64::INFINITY; 3];
    let mut max = [f64::NEG_INFINITY; 3];
    for b in bodies {
        for d in 0..3 {
            min[d] = min[d].min(b.pos[d]);
            max[d] = max[d].max(b.pos[d]);
        }
    }
    let centre = [
        (min[0] + max[0]) / 2.0,
        (min[1] + max[1]) / 2.0,
        (min[2] + max[2]) / 2.0,
    ];
    let half = (0..3)
        .map(|d| (max[d] - min[d]) / 2.0)
        .fold(0.0f64, f64::max)
        .max(1e-6)
        * 1.001;
    (centre, half)
}

/// A Zipf(s) sampler over ranks `0..n` (rank 0 most popular), built on a
/// precomputed inverse-CDF table and sampled by binary search off one
/// uniform draw — deterministic for a given `(n, s)` and rng stream on every
/// platform. `s = 0` degenerates to the uniform distribution.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Normalised cumulative probabilities; entry `k` is `P(rank <= k)`.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build the inverse-CDF table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        assert!(s >= 0.0, "negative Zipf exponents are not meaningful here");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// The expected probability mass of rank `k` (used by the chi-square
    /// distribution test).
    #[cfg(test)]
    pub(crate) fn expected(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draw one rank: a single uniform draw inverted through the table.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A migrating-hotspot key schedule: a fraction of the traffic concentrates
/// on a contiguous window of the key space, and the window jumps to a new
/// seeded position at configurable *percent-of-op-stream* boundaries (the
/// `--strike-at` convention of the fault sweeps). Phases are a pure function
/// of the op index, never of virtual time, so the schedule is bit-identical
/// across `--jobs` and resumed runs by construction.
#[derive(Debug, Clone)]
pub(crate) struct HotspotSchedule {
    n_keys: usize,
    /// Hot-window width in keys.
    hot_keys: usize,
    /// Per-mille of the traffic aimed at the hot window.
    hot_permille: u32,
    /// Migration points in percent of the op stream, sorted, each `< 100`.
    migrate_at: Vec<u64>,
    seed: u64,
}

impl HotspotSchedule {
    /// Build a schedule over `n_keys` keys: `hot_permille`/1000 of the
    /// traffic hits a window of `max(1, n_keys/16)` keys whose position
    /// migrates at each percent boundary of `migrate_at`.
    pub(crate) fn new(n_keys: usize, migrate_at: &[u64], hot_permille: u32, seed: u64) -> Self {
        assert!(n_keys > 0, "the hotspot schedule needs a key space");
        assert!(hot_permille <= 1000, "hot_permille is a per-mille fraction");
        let mut migrate_at = migrate_at.to_vec();
        migrate_at.sort_unstable();
        migrate_at.dedup();
        assert!(
            migrate_at.iter().all(|&p| p < 100),
            "migration points are percents of the op stream and must be < 100"
        );
        HotspotSchedule {
            n_keys,
            hot_keys: (n_keys / 16).max(1),
            hot_permille,
            migrate_at,
            seed,
        }
    }

    /// The phase index of op `op_idx` out of `total_ops`: the number of
    /// migration boundaries at or below its percent position.
    pub(crate) fn phase_of(&self, op_idx: usize, total_ops: usize) -> usize {
        let pct = (op_idx as u64 * 100) / (total_ops.max(1) as u64);
        self.migrate_at.iter().filter(|&&b| b <= pct).count()
    }

    /// The seeded start of the hot window in phase `phase`.
    pub(crate) fn hot_start(&self, phase: usize) -> usize {
        let h = splitmix64(self.seed ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (h % self.n_keys as u64) as usize
    }

    /// Draw the key of op `op_idx` (two uniform draws: aim, then position).
    pub(crate) fn key_for(&self, rng: &mut ChaCha8Rng, op_idx: usize, total_ops: usize) -> usize {
        let aim = rng.gen_range(0..1000u32);
        if aim < self.hot_permille {
            let start = self.hot_start(self.phase_of(op_idx, total_ops));
            (start + rng.gen_range(0..self.hot_keys)) % self.n_keys
        } else {
            rng.gen_range(0..self.n_keys)
        }
    }
}

/// The seeded arrive/depart gap schedule of one churning client: a sorted
/// list of `(op index, idle microseconds)` pairs. The client sits out the
/// gap *before* issuing the op at that index — a staggered seeded arrival at
/// op 0, then one departure/re-arrival gap per session boundary.
pub(crate) fn churn_gaps(
    seed: u64,
    client: usize,
    ops: usize,
    sessions: usize,
    idle_us: u64,
) -> Vec<(usize, u64)> {
    assert!(sessions > 0, "a churning client needs at least one session");
    assert!(idle_us > 0, "idle gaps of zero length are not churn");
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ 0xC4_12_2E ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut gaps = Vec::with_capacity(sessions);
    // Staggered arrival: the client joins after a seeded initial delay.
    gaps.push((0, rng.gen_range(0..idle_us)));
    let per_session = (ops / sessions).max(1);
    let mut at = per_session;
    while at < ops {
        // Depart and re-arrive: a seeded gap of idle_us/2 .. idle_us*3/2.
        gaps.push((at, idle_us / 2 + rng.gen_range(0..idle_us)));
        at += per_session;
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_matrix_is_deterministic_and_bounded() {
        let a = block_matrix(1, 2, 8);
        let b = block_matrix(1, 2, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&v| (0..5).contains(&v)));
        assert_ne!(block_matrix(0, 0, 8), block_matrix(2, 1, 8));
    }

    #[test]
    fn sort_keys_are_deterministic_per_wire() {
        assert_eq!(sort_keys(1, 5, 100), sort_keys(1, 5, 100));
        assert_ne!(sort_keys(1, 5, 100), sort_keys(1, 6, 100));
        assert_ne!(sort_keys(1, 5, 100), sort_keys(2, 5, 100));
    }

    #[test]
    fn plummer_generates_the_requested_number_of_bodies() {
        let bodies = plummer_bodies(42, 500);
        assert_eq!(bodies.len(), 500);
        // Total mass normalised to 1.
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Positions are clipped to the ball of radius 8.
        assert!(bodies
            .iter()
            .all(|b| b.pos.iter().map(|x| x * x).sum::<f64>() <= 64.0 + 1e-9));
        // The distribution is centrally concentrated: more than half of the
        // bodies lie within radius 1.5 (true for the Plummer model).
        let inner = bodies
            .iter()
            .filter(|b| b.pos.iter().map(|x| x * x).sum::<f64>() < 1.5 * 1.5)
            .count();
        assert!(
            inner * 2 > bodies.len(),
            "only {inner} of {} inside r=1.5",
            bodies.len()
        );
    }

    #[test]
    fn plummer_is_deterministic_per_seed() {
        assert_eq!(plummer_bodies(7, 50), plummer_bodies(7, 50));
        assert_ne!(plummer_bodies(7, 50), plummer_bodies(8, 50));
    }

    #[test]
    fn bounding_cube_contains_all_bodies() {
        let bodies = plummer_bodies(3, 200);
        let (centre, half) = bounding_cube(&bodies);
        for b in &bodies {
            for d in 0..3 {
                assert!((b.pos[d] - centre[d]).abs() <= half + 1e-12);
            }
        }
    }

    #[test]
    fn zipf_is_deterministic_and_degenerate_at_zero() {
        let z = ZipfSampler::new(64, 0.9);
        let mut a = ChaCha8Rng::seed_from_u64(11);
        let mut b = ChaCha8Rng::seed_from_u64(11);
        let xs: Vec<usize> = (0..500).map(|_| z.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..500).map(|_| z.sample(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&k| k < 64));
        // s = 0 is the uniform distribution: every expected mass is 1/n.
        let u = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((u.expected(k) - 0.1).abs() < 1e-12);
        }
        // The expected masses sum to 1 and decay with the rank.
        let total: f64 = (0..64).map(|k| z.expected(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.expected(0) > z.expected(1));
        assert!(z.expected(1) > z.expected(63));
    }

    #[test]
    fn zipf_sample_frequencies_pass_chi_square() {
        // Chi-square goodness-of-fit of the sampler against its own
        // expected masses, over a key space small enough that every cell's
        // expected count is comfortably above 5. With 15 degrees of freedom
        // the 99.9th percentile of the chi-square distribution is 37.7; the
        // deterministic stream stays far below it unless the inverse-CDF
        // inversion is wrong.
        for s in [0.0, 0.9, 1.2] {
            let n = 16;
            let z = ZipfSampler::new(n, s);
            let mut rng = ChaCha8Rng::seed_from_u64(0x5EED ^ s.to_bits());
            let draws = 20_000usize;
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                counts[z.sample(&mut rng)] += 1;
            }
            let chi2: f64 = (0..n)
                .map(|k| {
                    let expected = z.expected(k) * draws as f64;
                    let diff = counts[k] as f64 - expected;
                    diff * diff / expected
                })
                .sum();
            assert!(
                chi2 < 37.7,
                "chi-square {chi2} too large for s = {s} (counts {counts:?})"
            );
        }
    }

    #[test]
    fn hotspot_phases_follow_the_op_index() {
        let h = HotspotSchedule::new(256, &[25, 50, 75], 900, 7);
        assert_eq!(h.phase_of(0, 100), 0);
        assert_eq!(h.phase_of(24, 100), 0);
        assert_eq!(h.phase_of(25, 100), 1);
        assert_eq!(h.phase_of(50, 100), 2);
        assert_eq!(h.phase_of(99, 100), 3);
        // Every phase places its window somewhere else (for this seed), and
        // the placement is a pure function of the phase.
        let starts: Vec<usize> = (0..4).map(|p| h.hot_start(p)).collect();
        assert_eq!(starts, (0..4).map(|p| h.hot_start(p)).collect::<Vec<_>>());
        assert!(starts.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn hotspot_concentrates_traffic_in_the_window() {
        let h = HotspotSchedule::new(256, &[], 900, 3);
        let start = h.hot_start(0);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let in_window = (0..2000)
            .filter(|_| {
                let k = h.key_for(&mut rng, 0, 2000);
                (k + 256 - start) % 256 < 16
            })
            .count();
        // 90% aimed at a 16/256 window: well over half of all draws land in
        // it (the uniform remainder contributes ~6%).
        assert!(in_window > 1600, "only {in_window} of 2000 in the window");
    }

    #[test]
    fn churn_gaps_are_seeded_sorted_and_sized() {
        let g = churn_gaps(1, 4, 100, 4, 1000);
        assert_eq!(g, churn_gaps(1, 4, 100, 4, 1000));
        assert_ne!(g, churn_gaps(1, 5, 100, 4, 1000));
        assert_ne!(g, churn_gaps(2, 4, 100, 4, 1000));
        // One arrival gap plus one gap per later session boundary.
        assert_eq!(g.len(), 4);
        assert_eq!(g[0].0, 0);
        assert!(g.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(g.iter().all(|&(at, _)| at < 100));
        // Departure gaps are at least half the configured idle time.
        assert!(g[1..].iter().all(|&(_, us)| us >= 500));
    }
}
