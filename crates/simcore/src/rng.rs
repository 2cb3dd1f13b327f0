//! Deterministic, stream-splittable random number generation.
//!
//! Every experiment in this repository is a pure function of a single
//! `u64` seed. To keep independent parts of a simulation statistically
//! independent *and* insensitive to each other's consumption order, a
//! [`SimRng`] can be split into named sub-streams: drawing more numbers in
//! the "mobility" stream never perturbs the "dhcp" stream.
//!
//! The generator is an inline implementation of **xoshiro256++** seeded
//! through SplitMix64 (the construction its authors recommend). Owning the
//! generator keeps the bit stream — and therefore every simulation result
//! recorded in `EXPERIMENTS.md` — stable across dependency upgrades, and
//! makes the generator `Clone` so simulation state can be snapshotted.

/// A seeded random number generator with named sub-stream derivation.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Create a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state with SplitMix64,
        // per the xoshiro reference implementation's seeding advice.
        let mut sm = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            *s = splitmix64(sm);
        }
        // xoshiro must not start from the all-zero state.
        if state == [0; 4] {
            state = [0x9E3779B97F4A7C15, 1, 2, 3];
        }
        SimRng { seed, state }
    }

    /// The seed this generator was built with (for a sub-stream this is
    /// the derived seed, not the root).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent sub-stream identified by `label`.
    ///
    /// The derived seed depends only on this stream's seed and the
    /// label — not on how many values have been drawn — so call order
    /// cannot introduce cross-stream coupling.
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Derive an independent sub-stream identified by a numeric index
    /// (e.g. one stream per AP).
    pub fn stream_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::new(splitmix64(
            self.seed ^ fnv1a(label.as_bytes()) ^ splitmix64(index.wrapping_add(1)),
        ))
    }

    /// Next raw 64 random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)` (`lo` if the range is empty).
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi)` (`lo` if the range is empty).
    /// Uses Lemire-style rejection to avoid modulo bias.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = hi - lo;
        // Rejection sampling over the widened product.
        loop {
            let x = self.next_u64();
            let (hi_mul, lo_mul) = {
                let m = (x as u128) * (span as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo_mul >= span || lo_mul >= (u64::MAX - span + 1) % span.max(1) {
                return lo + hi_mul;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.uniform_u64(0, n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal distribution parameterised by the underlying normal's
    /// `mu` and `sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Pareto distribution with scale `x_m > 0` and shape `alpha > 0`.
    pub fn pareto(&mut self, x_m: f64, alpha: f64) -> f64 {
        assert!(x_m > 0.0 && alpha > 0.0);
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        x_m / u.powf(1.0 / alpha)
    }

    /// Pick a uniformly random element of a slice. Panics on empty input.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.index(items.len())]
    }

    /// Sample an index according to (not necessarily normalised)
    /// non-negative weights. Panics if all weights are zero or the slice is
    /// empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && !weights.is_empty(),
            "weights must be non-empty with positive sum"
        );
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// FNV-1a hash, used for stable label-to-seed derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finaliser: a cheap bijective mixer with good avalanche
/// properties, used for seeding and derived-seed decorrelation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn clone_snapshots_state() {
        let mut a = SimRng::new(3);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_are_order_insensitive() {
        let root = SimRng::new(7);
        // Consume from one stream; an identically labelled stream derived
        // later must be unaffected.
        let mut s1 = root.stream("mobility");
        for _ in 0..10 {
            s1.next_u64();
        }
        let mut s2 = root.stream("dhcp");
        let mut s2b = SimRng::new(7).stream("dhcp");
        for _ in 0..100 {
            assert_eq!(s2.next_u64(), s2b.next_u64());
        }
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let root = SimRng::new(99);
        let mut a = root.stream_indexed("ap", 0);
        let mut b = root.stream_indexed("ap", 1);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut c = root.stream("ap");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SimRng::new(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_u64_covers_range_uniformly() {
        let mut rng = SimRng::new(12);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.uniform_u64(0, 10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::new(6);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn pick_weighted_prefers_heavy_weight() {
        let mut rng = SimRng::new(8);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn chance_edge_cases() {
        let mut rng = SimRng::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn stream_derivation_is_pinned() {
        // Every recorded result in the repository is a function of these
        // seeds: any change to `stream`/`stream_indexed` moves every CSV.
        let root = SimRng::new(41);
        for (mut rng, seed, first) in [
            (root.clone(), 0x0000_0000_0000_0029, 0x7f6e_c036_c340_8d8e),
            (
                root.stream("loss"),
                0xd5c1_fb8b_0ff8_49ed,
                0x0299_c3da_6fce_1997,
            ),
            (
                root.stream_indexed("dhcp", 17),
                0xbbc8_125b_52de_b35b,
                0xeab3_5661_039c_4d37,
            ),
            (
                root.stream("a").stream_indexed("b", 3),
                0x1828_48da_49db_4b9f,
                0xe9a1_157f_2bc7_e176,
            ),
        ] {
            assert_eq!(rng.seed(), seed);
            assert_eq!(rng.next_u64(), first);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(10);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_in_respects_bounds() {
        check("uniform_in_respects_bounds", 256, |g| {
            let mut rng = SimRng::new(g.u64(0..1_000));
            let (lo, span) = (g.f64(-1e6..1e6), g.f64(0.0..1e6));
            let hi = lo + span;
            let x = rng.uniform_in(lo, hi);
            assert!((lo..=hi).contains(&x), "{x} outside [{lo}, {hi}]");
        });
    }

    #[test]
    fn uniform_u64_respects_bounds() {
        check("uniform_u64_respects_bounds", 256, |g| {
            let mut rng = SimRng::new(g.u64(0..1_000));
            let (lo, span) = (g.u64(0..1_000), g.u64(1..1_000));
            let x = rng.uniform_u64(lo, lo + span);
            assert!(
                (lo..lo + span).contains(&x),
                "{x} outside [{lo}, {})",
                lo + span
            );
        });
    }

    #[test]
    fn pareto_respects_scale() {
        check("pareto_respects_scale", 256, |g| {
            let x = SimRng::new(g.u64(0..1_000)).pareto(2.0, 1.5);
            assert!(x >= 2.0, "pareto draw {x} below its scale");
        });
    }
}
