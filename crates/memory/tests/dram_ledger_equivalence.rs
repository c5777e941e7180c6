//! Differential test of the retired DRAM bandwidth ledger.
//!
//! `DramModel` keeps its admitted bytes per 200 ns bucket in a ring that
//! [`DramModel::retire_before`] trims behind a floor. Until that change it
//! kept them in a `BTreeMap` that was never pruned. [`MapDram`] below is
//! that earlier implementation, kept verbatim as the reference: over
//! random streams of retirements and accesses at or above the floor, the
//! two must return the same completion time for every access, and the ring
//! must never hold a bucket outside `floor ..= furthest bucket reached`.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_memory::{DramConfig, DramModel};
use sonuma_sim::SimTime;

/// Width of one bandwidth-accounting bucket.
const BUCKET: SimTime = SimTime::from_ns(200);

/// The map-based channel: latency plus a never-pruned bucket ledger.
struct MapDram {
    config: DramConfig,
    bucket_bytes: u64,
    used: BTreeMap<u64, u64>,
}

impl MapDram {
    fn new(config: DramConfig) -> Self {
        let eff = config.peak_bytes_per_sec as f64 * config.efficiency;
        let bucket_bytes = (eff * BUCKET.as_secs_f64()) as u64;
        MapDram {
            config,
            bucket_bytes,
            used: BTreeMap::new(),
        }
    }

    fn transfer_time(&self, bytes: u64) -> SimTime {
        let eff_bw = self.config.peak_bytes_per_sec as f64 * self.config.efficiency;
        SimTime::from_ns_f64(bytes as f64 / eff_bw * 1e9)
    }

    fn access(&mut self, now: SimTime, bytes: u64) -> SimTime {
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
        let admitted_at = SimTime::from_ps(last_idx * BUCKET.as_ps()).max(now);
        admitted_at + self.config.access_latency + self.transfer_time(bytes)
    }

    /// The furthest bucket any access reached.
    fn last_bucket(&self) -> Option<u64> {
        self.used.keys().next_back().copied()
    }
}

/// One step of a stream: advance the floor by `advance_ns`, then access
/// `bytes` at `ahead_ns` past the floor (times `far` when `far > 1`, to
/// reach well past the ring's end).
type Step = (u64, u64, u64, u64);

fn check(config: DramConfig, steps: &[Step]) {
    let mut ring = DramModel::new(config);
    let mut map = MapDram::new(config);
    let mut floor = SimTime::ZERO;
    for (i, &(advance_ns, ahead_ns, far, bytes)) in steps.iter().enumerate() {
        floor += SimTime::from_ns(advance_ns);
        ring.retire_before(floor);
        let now = floor + SimTime::from_ns(ahead_ns * far);
        let got = ring.access(now, bytes);
        let want = map.access(now, bytes);
        assert_eq!(
            got, want,
            "step {i}: {bytes} B at {now:?} (floor {floor:?})"
        );

        let floor_bucket = floor.as_ps() / BUCKET.as_ps();
        let last = map.last_bucket().expect("an access was made");
        let bound = (last + 1).saturating_sub(floor_bucket) as usize;
        assert!(
            ring.buckets() <= bound,
            "step {i}: ring holds {} buckets, floor {floor_bucket}, last {last}",
            ring.buckets()
        );
    }
}

proptest! {
    /// A busy channel: the floor creeps forward by up to a few buckets,
    /// accesses land from the floor to a few microseconds ahead of it
    /// (MAQ and DRAM queueing), and some land hundreds of buckets ahead,
    /// so the ring grows, drains, re-anchors and extends both ways.
    #[test]
    fn ring_ledger_matches_map_ledger(
        steps in vec(
            (
                prop_oneof![Just(0u64), 0u64..400, 0u64..3_000],
                0u64..2_000,
                prop_oneof![Just(1u64), Just(1u64), Just(1u64), 2u64..50],
                64u64..=8_192,
            ),
            1..2_000,
        ),
    ) {
        check(DramConfig::ddr3_1600(), &steps);
    }

    /// Saturation: accesses close together keep every bucket full, so
    /// they queue tens of buckets past their own.
    #[test]
    fn ring_ledger_matches_map_ledger_saturated(
        steps in vec(
            (0u64..30, 0u64..600, Just(1u64), prop_oneof![Just(64u64), 64u64..=1_024]),
            1..800,
        ),
    ) {
        check(DramConfig::ddr3_1600(), &steps);
    }
}

/// Retire past everything, re-anchor the ring far ahead, then access just
/// above the floor: the ring must extend downward, not reject or misplace
/// the access.
#[test]
fn re_anchored_ring_accepts_accesses_between_floor_and_base() {
    check(
        DramConfig::ddr3_1600(),
        &[
            (0, 0, 1, 4_096),
            (5_000, 1_500, 20, 8_192),
            (0, 0, 1, 64),
            (100, 0, 1, 8_192),
            (0, 1_900, 1, 1_024),
        ],
    );
}
