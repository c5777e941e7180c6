//! Deterministic random number generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded, deterministic PRNG used for all stochastic workload decisions.
///
/// Wrapping [`rand::rngs::SmallRng`] behind a newtype keeps the choice of
/// generator an implementation detail and guarantees every consumer seeds
/// explicitly — there is no ambient entropy anywhere in the simulator, which
/// is what makes runs reproducible.
///
/// # Example
///
/// ```
/// use sonuma_sim::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.below(u64::MAX), b.below(u64::MAX));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng(SmallRng);

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng(SmallRng::seed_from_u64(seed))
    }

    /// Derives an independent child generator; used to give each simulated
    /// node its own stream without cross-node coupling.
    pub fn fork(&mut self, stream: u64) -> Self {
        let base: u64 = self.0.gen();
        DetRng::seed(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        self.0.gen_range(0..bound)
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.0.gen_range(lo..hi)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.gen::<f64>()
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.0.gen::<f64>() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.0.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.below(u64::MAX), b.below(u64::MAX));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..32)
            .filter(|_| a.below(u64::MAX) == b.below(u64::MAX))
            .count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut parent1 = DetRng::seed(99);
        let mut parent2 = DetRng::seed(99);
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        assert_eq!(f1.below(u64::MAX), f2.below(u64::MAX));

        let mut parent = DetRng::seed(99);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        assert_ne!(a.below(u64::MAX), b.below(u64::MAX));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = DetRng::seed(11);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn range_stays_in_range() {
        let mut r = DetRng::seed(12);
        for _ in 0..1000 {
            let v = r.range(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0 + 1e-9));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed(14);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        DetRng::seed(0).below(0);
    }
}
