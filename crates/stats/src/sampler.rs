//! Seeded random sampling.
//!
//! Monte Carlo experiments must be reproducible: every experiment in the
//! bench harness takes an explicit seed. The generator is a self-contained
//! xoshiro256++ (public-domain algorithm by Blackman & Vigna) seeded through
//! SplitMix64, so the workspace carries no external RNG dependency; normal
//! deviates come from the Box-Muller transform (polar form).

/// xoshiro256++ state, seeded via SplitMix64.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_seed(seed: u64) -> Self {
        // SplitMix64 expansion: guarantees a non-zero, well-mixed state even
        // for small or correlated seeds.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A seeded random sampler with Gaussian support.
///
/// # Example
///
/// ```
/// use stats::Sampler;
///
/// let mut a = Sampler::from_seed(42);
/// let mut b = Sampler::from_seed(42);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0)); // reproducible
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: Xoshiro256,
    /// Spare deviate from the last Box-Muller pair.
    spare: Option<f64>,
}

impl Sampler {
    /// Creates a sampler from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Sampler {
            rng: Xoshiro256::from_seed(seed),
            spare: None,
        }
    }

    /// Derives an independent child sampler, advancing this sampler's
    /// stream by one draw.
    ///
    /// # Determinism contract
    ///
    /// The child is a pure function of the parent's *current state* and the
    /// salt. Two samplers with identical state produce identical children
    /// for equal salts and decorrelated children for different salts — so a
    /// sequence of forks from a freshly seeded parent is reproducible
    /// run-to-run, and salting by sample index gives every Monte Carlo
    /// sample its own stream regardless of which worker executes it:
    ///
    /// ```
    /// use stats::Sampler;
    ///
    /// let mut a = Sampler::from_seed(42);
    /// let mut b = Sampler::from_seed(42);
    /// // Same state + same salt => identical child streams.
    /// assert_eq!(a.fork(7).uniform(), b.fork(7).uniform());
    /// // Same state + different salt => decorrelated children.
    /// assert_ne!(a.fork(1).uniform(), b.fork(2).uniform());
    /// ```
    pub fn fork(&mut self, salt: u64) -> Sampler {
        let s: u64 = self.rng.next_u64();
        Sampler::from_seed(s ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// [`Sampler::fork`] without mutating the parent: the child is derived
    /// from a snapshot of the current state, so `stream` is a *pure*
    /// function of `(state, salt)`.
    ///
    /// This is the primitive behind thread-count-invariant parallel Monte
    /// Carlo: a base sampler held by the executor hands sample `i` the
    /// stream `base.stream(i)`, and because the derivation touches only the
    /// snapshot, every worker computes the same stream for the same sample
    /// index no matter how samples are sharded.
    ///
    /// ```
    /// use stats::Sampler;
    ///
    /// let base = Sampler::from_seed(9);
    /// let x: Vec<f64> = (0..4).map(|i| base.stream(i).uniform()).collect();
    /// let y: Vec<f64> = (0..4).map(|i| base.stream(i).uniform()).collect();
    /// assert_eq!(x, y); // pure: the base sampler never advances
    /// ```
    #[must_use]
    pub fn stream(&self, salt: u64) -> Sampler {
        self.clone().fork(salt)
    }

    /// Uniform deviate in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 mantissa bits of the raw stream: uniform on [0, 1).
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal deviate via Box-Muller (polar form).
    ///
    /// The polar transform yields deviates in pairs; the second deviate of
    /// each pair is **not** discarded — it is cached in `self.spare` and
    /// returned by the next call, so normals cost one rejection loop per
    /// *pair* and the output stream is a stable function of the seed. The
    /// spare travels with [`Sampler::clone`] (the state derives purely from
    /// the raw bit stream plus this cache), while [`Sampler::fork`] /
    /// [`Sampler::stream`] children start with an empty cache. The
    /// `golden_normal_stream` regression test pins exact values so the
    /// stream can never silently shift for existing seeds.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std >= 0.0, "normal: negative standard deviation");
        mean + std * self.standard_normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;

    #[test]
    fn reproducible_streams() {
        let mut a = Sampler::from_seed(123);
        let mut b = Sampler::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Sampler::from_seed(1);
        let mut b = Sampler::from_seed(2);
        let xa: Vec<f64> = (0..8).map(|_| a.uniform()).collect();
        let xb: Vec<f64> = (0..8).map(|_| b.uniform()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn normal_moments() {
        let mut s = Sampler::from_seed(7);
        let xs: Vec<f64> = (0..50_000).map(|_| s.normal(3.0, 0.5)).collect();
        let sum = Summary::from_slice(&xs);
        assert!((sum.mean - 3.0).abs() < 0.02, "mean {}", sum.mean);
        assert!((sum.std - 0.5).abs() < 0.02, "std {}", sum.std);
        assert!(sum.skewness.abs() < 0.1, "skew {}", sum.skewness);
        assert!(
            sum.excess_kurtosis.abs() < 0.2,
            "kurt {}",
            sum.excess_kurtosis
        );
    }

    #[test]
    fn fork_is_decorrelated() {
        let mut parent = Sampler::from_seed(99);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let x1: Vec<f64> = (0..16).map(|_| c1.uniform()).collect();
        let x2: Vec<f64> = (0..16).map(|_| c2.uniform()).collect();
        assert_ne!(x1, x2);
    }

    #[test]
    fn stream_is_pure_and_matches_fork() {
        let base = Sampler::from_seed(321);
        let mut mutating = base.clone();
        let mut via_fork = mutating.fork(5);
        let mut via_stream = base.stream(5);
        for _ in 0..32 {
            assert_eq!(via_fork.uniform(), via_stream.uniform());
        }
        // stream() left the base untouched: a second derivation agrees.
        let mut again = base.stream(5);
        let mut third = base.stream(5);
        for _ in 0..32 {
            assert_eq!(again.uniform(), third.uniform());
        }
    }

    #[test]
    fn golden_normal_stream() {
        // Exact pinned values (shortest round-trip literals): the normal
        // stream — including the cached second Box-Muller deviate at every
        // odd position — must never shift for existing seeds. A change to
        // the rejection loop, the spare cache, or the underlying uniform
        // stream shows up here as a bit-level mismatch.
        let golden_42: [f64; 8] = [
            0.9813983900724986,
            -0.565720104673956,
            1.3403256427520227,
            0.4023128702992608,
            -0.9642205062941384,
            0.2705508644582529,
            0.1962265296745266,
            1.1536067585699392,
        ];
        let golden_2026: [f64; 8] = [
            -1.2318694160150374,
            1.9252746234367122,
            0.41529039451784316,
            0.6812677817485245,
            1.3051137848805936,
            -0.10444901153310236,
            0.8270388402977622,
            0.17476599653201627,
        ];
        for (seed, golden) in [(42u64, golden_42), (2026u64, golden_2026)] {
            let mut s = Sampler::from_seed(seed);
            for (i, want) in golden.into_iter().enumerate() {
                let got = s.standard_normal();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {seed} draw {i}: got {got:?}, want {want:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn negative_std_panics() {
        Sampler::from_seed(0).normal(0.0, -1.0);
    }
}
