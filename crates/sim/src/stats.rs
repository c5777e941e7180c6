//! Measurement utilities: latency histograms and rate conversions.

use crate::time::SimTime;

/// A log-scaled latency histogram with exact recording of simulated times.
///
/// Buckets are HDR-style: each power-of-two octave in picoseconds splits
/// into [`LatencyHistogram::SUBBUCKETS`] linear sub-buckets, bounding the
/// quantization error of any reported percentile to 12.5 % — fine enough
/// to rank SLO classes and value-size latency rows whose true tails
/// differ by well under the 2× a plain log2 histogram can resolve.
///
/// # Example
///
/// ```
/// use sonuma_sim::stats::LatencyHistogram;
/// use sonuma_sim::SimTime;
///
/// let mut h = LatencyHistogram::new();
/// h.record(SimTime::from_ns(300));
/// h.record(SimTime::from_ns(310));
/// assert_eq!(h.count(), 2);
/// assert!(h.percentile(0.5) >= SimTime::from_ns(256));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    // bucket `idx` counts samples whose picosecond value keeps the same
    // leading bit and top SUB_BITS mantissa bits (see `bucket_of`).
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min: SimTime,
    max: SimTime,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// log2 of [`LatencyHistogram::SUBBUCKETS`].
    const SUB_BITS: u32 = 3;
    /// Linear sub-buckets per power-of-two octave.
    pub const SUBBUCKETS: u64 = 1 << Self::SUB_BITS;
    /// Total bucket count: values below `SUBBUCKETS * 2` index linearly
    /// (buckets 0..16), and each of the remaining 60 octaves of a u64
    /// contributes `SUBBUCKETS` more.
    const BUCKETS: usize = ((64 - Self::SUB_BITS as usize - 1) + 2) << Self::SUB_BITS as usize;

    /// The bucket index of a picosecond value: linear below two octaves'
    /// worth, then `(octave, top 3 mantissa bits)` — the indexing is
    /// continuous across the boundary.
    fn bucket_of(ps: u64) -> usize {
        if ps < 2 * Self::SUBBUCKETS {
            return ps as usize;
        }
        let msb = 63 - ps.leading_zeros() as usize;
        let sub = (ps >> (msb - Self::SUB_BITS as usize)) & (Self::SUBBUCKETS - 1);
        ((msb - Self::SUB_BITS as usize + 1) << Self::SUB_BITS as usize) + sub as usize
    }

    /// The smallest picosecond value mapping to bucket `idx` (the inverse
    /// of [`LatencyHistogram::bucket_of`], used for percentile reporting).
    fn bucket_floor(idx: usize) -> u64 {
        if idx < 2 * Self::SUBBUCKETS as usize {
            return idx as u64;
        }
        let octave = idx >> Self::SUB_BITS as usize;
        let sub = (idx & (Self::SUBBUCKETS as usize - 1)) as u64;
        (Self::SUBBUCKETS + sub) << (octave - 1)
    }

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum_ps: 0,
            min: SimTime::MAX,
            max: SimTime::ZERO,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, t: SimTime) {
        let ps = t.as_ps();
        self.buckets[Self::bucket_of(ps)] += 1;
        self.count += 1;
        self.sum_ps += ps as u128;
        self.min = self.min.min(t);
        self.max = self.max.max(t);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero if empty).
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ps((self.sum_ps / self.count as u128) as u64)
        }
    }

    /// Smallest recorded sample (zero if empty).
    pub fn min(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimTime {
        self.max
    }

    /// Approximate percentile (`q` in `[0, 1]`): lower bound of the bucket
    /// containing the q-quantile sample.
    pub fn percentile(&self, q: f64) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimTime::from_ps(Self::bucket_floor(i));
            }
        }
        self.max
    }

    /// Folds `other`'s samples into `self` (bucket-wise: exact for every
    /// statistic this histogram reports). Used to aggregate per-tenant
    /// histograms into per-class distributions.
    pub fn merge_from(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Converts a byte count moved over a duration into Gbps (decimal giga).
///
/// Returns 0 for a zero duration.
///
/// # Example
///
/// ```
/// use sonuma_sim::stats::gbps;
/// use sonuma_sim::SimTime;
///
/// // 1250 bytes in 1 us = 10 Gbps.
/// assert!((gbps(1250, SimTime::from_us(1)) - 10.0).abs() < 1e-9);
/// ```
pub fn gbps(bytes: u64, elapsed: SimTime) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / secs / 1e9
}

/// Operations per second over a duration (e.g. IOPS).
pub fn ops_per_sec(ops: u64, elapsed: SimTime) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    ops as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_ns(100));
        h.record(SimTime::from_ns(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), SimTime::from_ns(200));
        assert_eq!(h.min(), SimTime::from_ns(100));
        assert_eq!(h.max(), SimTime::from_ns(300));
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimTime::from_ns(i));
        }
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
        assert!(h.percentile(0.0) >= SimTime::from_ps(1));
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), SimTime::ZERO);
    }

    #[test]
    fn histogram_merge_matches_joint_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut joint = LatencyHistogram::new();
        for i in 1..=100u64 {
            let t = SimTime::from_ns(i * 13 % 997);
            if i % 2 == 0 {
                a.record(t)
            } else {
                b.record(t)
            }
            joint.record(t);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), joint.count());
        assert_eq!(a.mean(), joint.mean());
        assert_eq!(a.min(), joint.min());
        assert_eq!(a.max(), joint.max());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.percentile(q), joint.percentile(q));
        }
    }

    #[test]
    fn histogram_buckets_are_continuous_and_invert() {
        // Every bucket's floor maps back to that bucket, floors strictly
        // increase, and adjacent sample values never skip a bucket.
        let mut prev_floor = None;
        for idx in 0..LatencyHistogram::BUCKETS {
            let floor = LatencyHistogram::bucket_floor(idx);
            assert_eq!(LatencyHistogram::bucket_of(floor), idx, "idx {idx}");
            if let Some(p) = prev_floor {
                assert!(floor > p, "floors not increasing at {idx}");
            }
            prev_floor = Some(floor);
        }
        assert_eq!(
            LatencyHistogram::bucket_of(u64::MAX),
            LatencyHistogram::BUCKETS - 1
        );
    }

    #[test]
    fn histogram_resolves_sub_octave_differences() {
        // Two clusters 1.5x apart within the same power of two land in
        // different buckets — the SLO-separation gates depend on this.
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(SimTime::from_ns(100_000));
        }
        let p_fast = h.percentile(0.99);
        for _ in 0..100 {
            h.record(SimTime::from_ns(150_000));
        }
        let p_mixed = h.percentile(0.99);
        assert!(p_fast < p_mixed, "{p_fast:?} vs {p_mixed:?}");
        // And the reported bound is within 12.5% below the true value.
        assert!(p_mixed.as_ps() > 150_000_000_000 / 1000 / 8 * 7);
        assert!(p_mixed <= SimTime::from_ns(150_000));
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.percentile(0.5), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
    }

    #[test]
    fn rate_helpers() {
        assert!((gbps(1250, SimTime::from_us(1)) - 10.0).abs() < 1e-9);
        assert!((ops_per_sec(10, SimTime::from_us(1)) - 1e7).abs() < 1e-3);
        assert_eq!(gbps(100, SimTime::ZERO), 0.0);
        assert_eq!(ops_per_sec(100, SimTime::ZERO), 0.0);
    }
}
