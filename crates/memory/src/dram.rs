//! DRAM channel model: fixed access latency plus bandwidth occupancy.
//!
//! The paper simulates memory with DRAMSim2 (DDR3-1600, 60 ns latency,
//! 12.8 GB/s per channel — Table 1 lists "12GBps" usable). We reproduce the
//! two properties that shape the results: a fixed access latency and a
//! finite-bandwidth data bus whose saturation bounds streaming throughput.
//! Saturation caps the remote-read bandwidth curve (Fig. 7b) at ~9.6 GB/s.
//!
//! Bandwidth is accounted in fixed time buckets rather than a strict
//! "next-free" cursor: each bucket admits `bandwidth x bucket` bytes, and
//! an access that finds its bucket full queues into the next one. Bucketed
//! accounting is tolerant of *out-of-order request timestamps*, which the
//! run-to-block execution model produces (different cores' wake-ups advance
//! logical time independently), while still converging to the exact
//! sustained bandwidth under load.

use std::collections::BTreeMap;

use sonuma_sim::SimTime;

/// Width of one bandwidth-accounting bucket.
const BUCKET: SimTime = SimTime::from_ns(200);

/// Configuration of one DRAM channel.
#[derive(Debug, Clone, Copy)]
pub struct DramConfig {
    /// Device access latency added to every request (row activate + CAS).
    pub access_latency: SimTime,
    /// Peak data-bus bandwidth in bytes per second.
    pub peak_bytes_per_sec: u64,
    /// Fraction of peak the bus sustains for random line streams; models
    /// refresh, bank conflicts and bus turnarounds without per-bank state.
    pub efficiency: f64,
}

impl DramConfig {
    /// DDR3-1600 single channel as in Table 1: 60 ns, 12.8 GB/s peak,
    /// 75% sustained efficiency (=> ~9.6 GB/s streaming, the "practical
    /// maximum" the paper reports for 8 KB reads).
    pub fn ddr3_1600() -> Self {
        DramConfig {
            access_latency: SimTime::from_ns(60),
            peak_bytes_per_sec: 12_800_000_000,
            efficiency: 0.75,
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

/// One DRAM channel: latency + bucketed-bandwidth model.
///
/// # Example
///
/// ```
/// use sonuma_memory::{DramConfig, DramModel};
/// use sonuma_sim::SimTime;
///
/// let mut dram = DramModel::new(DramConfig::ddr3_1600());
/// let done = dram.access(SimTime::ZERO, 64);
/// assert!(done >= SimTime::from_ns(60)); // at least the device latency
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    bucket_bytes: u64,
    used: BTreeMap<u64, u64>,
    accesses: u64,
}

impl DramModel {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.peak_bytes_per_sec > 0, "zero-bandwidth DRAM");
        assert!(
            config.efficiency > 0.0 && config.efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        let eff = config.peak_bytes_per_sec as f64 * config.efficiency;
        let bucket_bytes = (eff * BUCKET.as_secs_f64()) as u64;
        assert!(bucket_bytes >= 64, "bucket narrower than one line");
        DramModel {
            config,
            bucket_bytes,
            used: BTreeMap::new(),
            accesses: 0,
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Time the data bus occupies to move `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        let eff_bw = self.config.peak_bytes_per_sec as f64 * self.config.efficiency;
        SimTime::from_ns_f64(bytes as f64 / eff_bw * 1e9)
    }

    /// Issues an access of `bytes` at time `now`; returns its completion
    /// time. Under saturation the access queues into the first bucket with
    /// spare bandwidth.
    pub fn access(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.accesses += 1;
        let mut idx = now.as_ps() / BUCKET.as_ps();
        let mut remaining = bytes;
        let mut last_idx = idx;
        while remaining > 0 {
            let used = self.used.entry(idx).or_insert(0);
            let free = self.bucket_bytes.saturating_sub(*used);
            if free > 0 {
                let take = free.min(remaining);
                *used += take;
                remaining -= take;
                last_idx = idx;
            }
            if remaining > 0 {
                idx += 1;
            }
        }
        // The transfer effectively completes in the bucket that admitted
        // the final byte.
        let admitted_at = SimTime::from_ps(last_idx * BUCKET.as_ps()).max(now);
        admitted_at + self.config.access_latency + self.transfer_time(bytes)
    }

    /// Lifetime access count.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_access_is_latency_plus_transfer() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        let done = d.access(SimTime::ZERO, 64);
        let expect = SimTime::from_ns(60) + d.transfer_time(64);
        assert_eq!(done, expect);
    }

    #[test]
    fn saturated_bucket_pushes_accesses_later() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        // Fill bucket 0 (9.6 GB/s x 200 ns = 1920 B = 30 lines).
        let per_bucket = 1920 / 64;
        let mut first_batch_done = SimTime::ZERO;
        for _ in 0..per_bucket {
            first_batch_done = d.access(SimTime::ZERO, 64);
        }
        let overflow = d.access(SimTime::ZERO, 64);
        assert!(
            overflow >= first_batch_done.max(SimTime::from_ns(200)),
            "overflow access must queue into the next bucket"
        );
    }

    #[test]
    fn streaming_bandwidth_approaches_effective_peak() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        let mut done = SimTime::ZERO;
        let n = 10_000u64;
        for _ in 0..n {
            done = done.max(d.access(SimTime::ZERO, 64));
        }
        let gbs = (n * 64) as f64 / done.as_ns_f64();
        // 12.8 * 0.75 = 9.6 GB/s effective.
        assert!((gbs - 9.6).abs() < 0.3, "streaming bandwidth {gbs} GB/s");
    }

    #[test]
    fn out_of_order_timestamps_do_not_poison_the_future() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        // A burst far in the future...
        for _ in 0..10 {
            d.access(SimTime::from_us(50), 64);
        }
        // ...must not delay an uncontended access at an earlier time.
        let early = d.access(SimTime::from_ns(100), 64);
        assert_eq!(
            early,
            SimTime::from_ns(100) + SimTime::from_ns(60) + d.transfer_time(64)
        );
    }

    #[test]
    fn spaced_accesses_do_not_stall() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        let mut now = SimTime::ZERO;
        let idle = SimTime::from_ns(60) + d.transfer_time(64);
        for _ in 0..100 {
            assert_eq!(d.access(now, 64), now + idle);
            now += SimTime::from_ns(100); // far slower than the bus
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        d.access(SimTime::ZERO, 64);
        d.access(SimTime::ZERO, 128);
        assert_eq!(d.accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn bad_efficiency_panics() {
        DramModel::new(DramConfig {
            access_latency: SimTime::from_ns(60),
            peak_bytes_per_sec: 12_800_000_000,
            efficiency: 0.0,
        });
    }
}
