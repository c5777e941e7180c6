//! The driver-side tenant sampler.
//!
//! The machine has no per-tenant latency state — tenants are a bench
//! concept — so tenant time series are built where completions are
//! observed: the scenario driver calls [`TenantFlow::record`] once per
//! completed operation with the operation's *simulated* completion time
//! and latency.
//!
//! Unlike the in-machine recorder, completions may be observed in a
//! partition-dependent order (the sharded backend drains shards in slot
//! order). [`TenantFlow`] is therefore order-independent by construction:
//! every completion is binned by its completion-time window into a keyed
//! map, and samples read out sorted by `(window end, tenant)` — the same
//! bytes no matter the observation order.

use std::collections::BTreeMap;

use sonuma_sim::SimTime;

trace_line! {
    /// One tenant's completions over one sampling window.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TenantSample {
        /// Window end (an exact multiple of the sampling interval; the
        /// window covers `[t_ps - interval, t_ps)`).
        pub t_ps: u64 => U64,
        /// The tenant.
        pub tenant: u32 => U32,
        /// Operations completed during the window.
        pub completions: u64 => U64,
        /// Upper bound of the window's 99th-percentile latency (from a
        /// power-of-two histogram, so an integer — no float formatting in
        /// the trace).
        pub p99_ps: u64 => U64,
    }
    rec = "tenant";
}

/// Per-window, power-of-two latency histogram for one `(window, tenant)`
/// cell.
#[derive(Debug, Clone)]
struct Cell {
    completions: u64,
    /// `hist[i]` counts latencies with `floor(log2(ps)) == i` (zero
    /// latencies land in bucket 0).
    hist: [u32; 64],
}

impl Cell {
    /// Smallest histogram upper bound covering at least 99% of the
    /// window's completions.
    fn p99_ps(&self) -> u64 {
        let mut seen: u64 = 0;
        for (idx, &n) in self.hist.iter().enumerate() {
            seen += u64::from(n);
            if seen * 100 >= self.completions * 99 {
                return u64::MAX >> (63 - idx); // 2^(idx + 1) - 1
            }
        }
        0
    }
}

/// Bins tenant completions by simulated completion time into fixed
/// windows, yielding per-tenant completion counts and a rolling p99.
#[derive(Debug)]
pub struct TenantFlow {
    interval_ps: u64,
    /// `(window end, tenant)` → histogram. A `BTreeMap` so read-out is
    /// already in the canonical sort order.
    cells: BTreeMap<(u64, u32), Cell>,
}

impl TenantFlow {
    /// A sampler with the given cadence.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimTime) -> TenantFlow {
        assert!(interval.as_ps() > 0, "zero trace interval");
        TenantFlow {
            interval_ps: interval.as_ps(),
            cells: BTreeMap::new(),
        }
    }

    /// Records one completed operation: `tenant`'s op finished at
    /// `completed_at` with the given end-to-end latency.
    pub fn record(&mut self, completed_at: SimTime, tenant: u32, latency: SimTime) {
        let end = (completed_at.as_ps() / self.interval_ps + 1) * self.interval_ps;
        let cell = self.cells.entry((end, tenant)).or_insert_with(|| Cell {
            completions: 0,
            hist: [0; 64],
        });
        cell.completions += 1;
        let bucket = 63 - u64::leading_zeros(latency.as_ps().max(1)) as usize;
        cell.hist[bucket] = cell.hist[bucket].saturating_add(1);
    }

    /// Samples in canonical `(window end, tenant)` order.
    pub fn samples(&self) -> impl Iterator<Item = TenantSample> + '_ {
        self.cells
            .iter()
            .map(|(&(t_ps, tenant), cell)| TenantSample {
                t_ps,
                tenant,
                completions: cell.completions,
                p99_ps: cell.p99_ps(),
            })
    }

    /// Number of `(window, tenant)` samples accumulated.
    pub fn sample_count(&self) -> u64 {
        self.cells.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_completion_window_regardless_of_observation_order() {
        let mut a = TenantFlow::new(SimTime::from_ns(100));
        let mut b = TenantFlow::new(SimTime::from_ns(100));
        let completions = [
            (SimTime::from_ns(10), 0u32, SimTime::from_ns(3)),
            (SimTime::from_ns(150), 0, SimTime::from_ns(9)),
            (SimTime::from_ns(90), 1, SimTime::from_ns(5)),
            (SimTime::from_ns(95), 0, SimTime::from_ns(4)),
        ];
        for &(t, tenant, lat) in &completions {
            a.record(t, tenant, lat);
        }
        for &(t, tenant, lat) in completions.iter().rev() {
            b.record(t, tenant, lat);
        }
        let sa: Vec<TenantSample> = a.samples().collect();
        let sb: Vec<TenantSample> = b.samples().collect();
        assert_eq!(sa, sb, "observation order must not matter");
        assert_eq!(sa.len(), 3);
        // Window (0, 100ns] for tenant 0 holds two completions.
        assert_eq!(sa[0].t_ps, SimTime::from_ns(100).as_ps());
        assert_eq!(sa[0].tenant, 0);
        assert_eq!(sa[0].completions, 2);
        assert_eq!(sa[1].tenant, 1);
        assert_eq!(sa[2].t_ps, SimTime::from_ns(200).as_ps());
    }

    #[test]
    fn p99_is_a_power_of_two_upper_bound() {
        let mut flow = TenantFlow::new(SimTime::from_us(1));
        // 99 fast ops and one slow one: p99 must cover the fast bucket
        // but not chase the single outlier.
        for _ in 0..99 {
            flow.record(SimTime::from_ns(10), 7, SimTime::from_ns(3));
        }
        flow.record(SimTime::from_ns(10), 7, SimTime::from_us(10));
        let s: Vec<TenantSample> = flow.samples().collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].completions, 100);
        // 3 ns = 3000 ps sits in bucket floor(log2(3000)) = 11, whose
        // upper bound is 2^12 - 1 ps.
        assert_eq!(s[0].p99_ps, (1 << 12) - 1);
    }
}
