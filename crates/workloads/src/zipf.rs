//! Zipfian sampling for skewed key popularity.
//!
//! Implements the rejection-inversion sampler of Hörmann & Derflinger
//! (as popularized by Gray et al. and used by YCSB-style generators):
//! O(1) sampling without precomputing a CDF, exact for any `n` and
//! exponent `theta > 0, != 1` (harmonic-special-cased at 1).

use rand::Rng;

/// A Zipf(θ) distribution over ranks `0..n`.
///
/// Rank 0 is the most popular item. θ around 0.99 matches YCSB's default
/// skew.
///
/// # Examples
///
/// ```
/// use bh_workloads::Zipf;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let z = Zipf::new(1000, 0.99);
/// let r = z.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    // Precomputed rejection-inversion constants (Hörmann–Derflinger).
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl Zipf {
    /// Creates a distribution over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta <= 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(theta > 0.0, "theta must be positive");
        let h_integral_x1 = Self::h_integral(theta, 1.5) - 1.0;
        let h_integral_n = Self::h_integral(theta, n as f64 + 0.5);
        let s = 2.0
            - Self::h_integral_inverse(theta, Self::h_integral(theta, 2.5) - Self::h(theta, 2.0));
        Zipf {
            n,
            theta,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// `H(x) = ∫ x^-θ dx`, normalized so `H(1) = 0`.
    fn h_integral(theta: f64, x: f64) -> f64 {
        let log_x = x.ln();
        if (theta - 1.0).abs() < 1e-9 {
            log_x
        } else {
            (((1.0 - theta) * log_x).exp() - 1.0) / (1.0 - theta)
        }
    }

    /// The density `h(x) = x^-θ`.
    fn h(theta: f64, x: f64) -> f64 {
        (-theta * x.ln()).exp()
    }

    /// Inverse of [`Zipf::h_integral`].
    fn h_integral_inverse(theta: f64, x: f64) -> f64 {
        if (theta - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            // Clamp to the domain edge against rounding.
            let t = (x * (1.0 - theta)).max(-1.0);
            ((1.0 / (1.0 - theta)) * (1.0 + t).ln()).exp()
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `0..n`, most popular first.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_integral_n + rng.gen::<f64>() * (self.h_integral_x1 - self.h_integral_n);
            let x = Self::h_integral_inverse(self.theta, u);
            // Rounds x to the nearest rank in 1..=n. The cast saturates
            // (negative to 0, past u64::MAX to u64::MAX) and truncates,
            // which for x + 0.5 >= 0 is `floor`: the same rank as
            // `(x + 0.5).floor().clamp(1.0, n as f64)` for every finite
            // or infinite x and n < 2^53, without a float `floor` call.
            let k = ((x + 0.5) as u64).clamp(1, self.n);
            let kf = k as f64;
            if kf - x <= self.s
                || u >= Self::h_integral(self.theta, kf + 0.5) - Self::h(self.theta, kf)
            {
                return k - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn frequencies(n: u64, theta: f64, samples: usize) -> Vec<u64> {
        let z = Zipf::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(10, 0.99);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn popularity_is_monotone() {
        let counts = frequencies(20, 0.99, 200_000);
        // Head must dominate tail robustly (allow local noise).
        assert!(counts[0] > counts[5]);
        assert!(counts[0] > counts[19] * 5);
        let head: u64 = counts[..5].iter().sum();
        let tail: u64 = counts[15..].iter().sum();
        assert!(head > tail * 3, "head {head} vs tail {tail}");
    }

    #[test]
    fn ratio_matches_zipf_law() {
        // For theta = 1, p(1)/p(2) should be close to 2.
        let counts = frequencies(1000, 1.0, 500_000);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn low_theta_is_flatter() {
        let skewed = frequencies(100, 1.2, 100_000);
        let flat = frequencies(100, 0.2, 100_000);
        let top_share = |c: &[u64]| c[0] as f64 / c.iter().sum::<u64>() as f64;
        assert!(top_share(&skewed) > 2.0 * top_share(&flat));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let z = Zipf::new(50, 0.9);
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    /// The sampler as it rounded before the integer cast: `floor` and
    /// `clamp` in f64.
    fn sample_f64_rounding<R: Rng>(z: &Zipf, rng: &mut R) -> u64 {
        loop {
            let u = z.h_integral_n + rng.gen::<f64>() * (z.h_integral_x1 - z.h_integral_n);
            let x = Zipf::h_integral_inverse(z.theta, u);
            let k = (x + 0.5).floor().clamp(1.0, z.n as f64);
            if k - x <= z.s || u >= Zipf::h_integral(z.theta, k + 0.5) - Zipf::h(z.theta, k) {
                return k as u64 - 1;
            }
        }
    }

    #[test]
    fn integer_rounding_draws_what_f64_rounding_drew() {
        for theta in [0.2, 0.5, 0.9, 0.99, 1.0, 1.2] {
            for n in [1, 10, 1_000_003, 3_000_000_000] {
                let z = Zipf::new(n, theta);
                let mut a = SmallRng::seed_from_u64(n ^ theta.to_bits());
                let mut b = a.clone();
                for i in 0..1_000_000 {
                    let (got, want) = (z.sample(&mut a), sample_f64_rounding(&z, &mut b));
                    assert_eq!(got, want, "theta {theta}, n {n}, draw {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Zipf::new(0, 1.0);
    }
}
