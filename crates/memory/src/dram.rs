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
//! logical time independently, and RMC accesses run ahead of the event
//! clock through MAQ and DRAM queueing), while still converging to the
//! exact sustained bandwidth under load.
//!
//! # The ledger and its floor
//!
//! The admitted bytes per bucket live in a ring covering buckets `base,
//! base + 1, …`. [`DramModel::retire_before`] drops every bucket wholly
//! before a time, so the ring spans only the buckets between the owner's
//! clock and the furthest access queued ahead of it, not all of simulated
//! time. Out-of-order timestamps are tolerated at or above the retired
//! floor, not without limit: an access in a retired bucket panics, because
//! it would be admitted against a bucket whose bytes were forgotten.
//!
//! The machine retires each node's ledger behind the time of every event it
//! dispatches for that node. That floor is safe because
//!
//! 1. every hierarchy access on a node starts no earlier than the event or
//!    backend post that issues it: RMC line accesses start at the MAQ's
//!    `start ≥ now`, DRAM misses are issued at `now + latency`, LLC
//!    writebacks happen at the access's own `now`, and a core's accesses
//!    happen inside its run-to-block wake, at or after the wake;
//! 2. a node's events execute in nondecreasing time on both engines (one
//!    lane per node on the sharded path, global time order on the serial
//!    one); and
//! 3. operations posted through the backend are posted at its `now()`,
//!    which is at or after every executed event.
//!
//! So no bucket below `⌊event time / 200 ns⌋` is read again, and retiring
//! changes no completion time.
//!
//! Accesses may still land *below* the ring's base and above the floor: an
//! RMC access queued ahead of the clock can re-anchor an empty ring at a
//! later bucket than the next event's accesses. The ring then extends
//! downward; only the floor is a hard limit.

use std::collections::VecDeque;

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
    bucket_bytes: u32,
    /// Bytes admitted to buckets `base, base + 1, …`.
    used: VecDeque<u32>,
    /// Bucket index of `used[0]`; never below `floor`.
    base: u64,
    /// Buckets below this one are retired and may not be accessed.
    floor: u64,
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
            bucket_bytes: u32::try_from(bucket_bytes).expect("bucket wider than 4 GB"),
            used: VecDeque::new(),
            base: 0,
            floor: 0,
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
    ///
    /// # Panics
    ///
    /// Panics if `now` lies in a bucket retired by
    /// [`DramModel::retire_before`].
    pub fn access(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.accesses += 1;
        let mut idx = now.as_ps() / BUCKET.as_ps();
        assert!(
            idx >= self.floor,
            "DRAM access in bucket {idx} below the retired floor {}",
            self.floor
        );
        if self.used.is_empty() {
            self.base = idx;
        } else if idx < self.base {
            // Above the floor but below the ring: extend it downward.
            for _ in idx..self.base {
                self.used.push_front(0);
            }
            self.base = idx;
        }
        let mut remaining = bytes;
        let mut last_idx = idx;
        while remaining > 0 {
            let slot = (idx - self.base) as usize;
            if slot >= self.used.len() {
                self.used.resize(slot + 1, 0);
            }
            let used = &mut self.used[slot];
            let free = self.bucket_bytes - *used;
            if free > 0 {
                let take = u32::try_from(remaining).map_or(free, |r| r.min(free));
                *used += take;
                remaining -= u64::from(take);
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

    /// Retires every bucket wholly before `t`: their bytes are dropped, and
    /// a later access in one of them panics. Retiring behind an earlier
    /// floor is a no-op. See the module docs for why the machine may retire
    /// each node's ledger behind its event clock.
    pub fn retire_before(&mut self, t: SimTime) {
        let floor = t.as_ps() / BUCKET.as_ps();
        if floor <= self.floor {
            return;
        }
        self.floor = floor;
        let gone = floor.saturating_sub(self.base).min(self.used.len() as u64);
        self.used.drain(..gone as usize);
        self.base = self.base.max(floor);
    }

    /// Buckets the ledger currently holds: those from its base to the
    /// furthest bucket an access reached.
    pub fn buckets(&self) -> usize {
        self.used.len()
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
    fn access_below_base_above_floor_extends_ring_downward() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        d.retire_before(SimTime::from_ns(400)); // floor: bucket 2
        d.access(SimTime::from_ns(1_000), 64); // anchors the ring at bucket 5
        assert_eq!(d.buckets(), 1);
        let early = d.access(SimTime::from_ns(500), 64); // bucket 2
        assert_eq!(d.buckets(), 4, "buckets 2..=5");
        assert_eq!(
            early,
            SimTime::from_ns(500) + SimTime::from_ns(60) + d.transfer_time(64)
        );
        // Bucket 5's bytes survived the extension: fill it to one line
        // short, and the next line still fits there.
        for _ in 0..28 {
            d.access(SimTime::from_ns(1_000), 64);
        }
        let last_fit = d.access(SimTime::from_ns(1_000), 64);
        assert_eq!(
            last_fit,
            SimTime::from_ns(1_060) + d.transfer_time(64),
            "bucket 5 admits 30 lines"
        );
        let spilled = d.access(SimTime::from_ns(1_000), 64);
        assert_eq!(spilled, SimTime::from_ns(1_260) + d.transfer_time(64));
    }

    #[test]
    #[should_panic(expected = "below the retired floor")]
    fn access_below_the_retired_floor_panics() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        d.access(SimTime::from_ns(100), 64);
        d.retire_before(SimTime::from_ns(600)); // floor: bucket 3
        d.access(SimTime::from_ns(599), 64); // bucket 2
    }

    #[test]
    fn retiring_an_empty_ledger_then_accessing_far_ahead_allocates_no_gap() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        d.retire_before(SimTime::from_us(10));
        assert_eq!(d.buckets(), 0);
        d.access(SimTime::from_us(5_000), 64);
        assert_eq!(d.buckets(), 1);
        // Retiring past everything empties the ring again.
        d.retire_before(SimTime::from_us(6_000));
        assert_eq!(d.buckets(), 0);
        d.access(SimTime::from_us(50_000), 64);
        assert_eq!(d.buckets(), 1);
    }

    #[test]
    fn retiring_drops_only_buckets_wholly_before_the_time() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        for t in [0, 200, 400, 600] {
            d.access(SimTime::from_ns(t), 64);
        }
        assert_eq!(d.buckets(), 4);
        d.retire_before(SimTime::from_ns(399)); // bucket 1 holds 399 ns
        assert_eq!(d.buckets(), 3);
        d.retire_before(SimTime::from_ns(200)); // behind the floor: no-op
        assert_eq!(d.buckets(), 3);
        d.access(SimTime::from_ns(200), 64); // bucket 1 is still live
        d.retire_before(SimTime::from_ns(600));
        assert_eq!(d.buckets(), 1);
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
