//! Shared deterministic randomness for the experiment drivers: the
//! xorshift64* generator every driver seeds per-thread (previously
//! copy-pasted into each of them) and a Zipf sampler for the pool
//! workload's sender distribution.

/// xorshift64*: fast, deterministic, and good enough for workload
/// shaping. Seed must be non-zero (every driver seeds with a constant
/// XOR a thread index + 1).
pub struct Rng(pub u64);

impl Rng {
    /// A generator from a non-zero seed.
    pub fn new(seed: u64) -> Rng {
        assert_ne!(seed, 0, "xorshift64* cannot leave a zero state");
        Rng(seed)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A draw uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A draw uniform in `[0, 1)` (53 random mantissa bits).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * 2f64.powi(-53)
    }
}

/// A Zipf(θ) sampler over ranks `0..n` by inverse-CDF lookup: rank `k`
/// has probability proportional to `1 / (k + 1)^θ`. θ = 0 degenerates to
/// uniform; θ around 0.8–1.2 is the classic "a few senders dominate"
/// shape. Construction is O(n) and sampling is a binary search, so build
/// one per run and share it across threads (sampling takes `&self`).
pub struct Zipf {
    /// Cumulative probabilities; `cdf[k]` = P(rank <= k), last entry 1.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `0..n` with exponent `theta`.
    ///
    /// # Panics
    /// If `n == 0` or `theta` is not finite and non-negative.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        // First rank whose cumulative probability covers u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::new(3);
        let mut hist = [0u32; 10];
        for _ in 0..10_000 {
            hist[z.sample(&mut rng) as usize] += 1;
        }
        for &h in &hist {
            assert!(
                (700..1_300).contains(&h),
                "uniform bucket out of range: {h}"
            );
        }
    }

    #[test]
    fn zipf_skews_toward_rank_zero() {
        let z = Zipf::new(1_000, 1.0);
        let mut rng = Rng::new(9);
        let mut top = 0u32;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                top += 1;
            }
        }
        // With θ=1 over 1000 ranks, the top 10 carry ~39% of the mass.
        assert!(top > 2_500, "zipf tail too flat: top-10 share {top}/10000");
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let z = Zipf::new(17, 0.8);
        let mut rng = Rng::new(11);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }
}
