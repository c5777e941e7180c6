//! The Memory Access Queue (MAQ).
//!
//! "To further ensure high throughput and low latency at high load, the RMC
//! allows multiple concurrent memory accesses in flight via a Memory Access
//! Queue (MAQ) ... The number of outstanding operations is limited by the
//! number of miss status handling registers at the RMC's L1 cache" (§4.3).
//!
//! Analytically, the MAQ is a pool of N slots: an access occupies the
//! earliest-free slot for its duration, so at most N accesses overlap and
//! excess accesses queue — which is what bounds the RMC's memory-level
//! parallelism under streaming load.

use sonuma_sim::SimTime;

/// A slot pool bounding concurrent RMC memory accesses.
///
/// # Example
///
/// ```
/// use sonuma_rmc::Maq;
/// use sonuma_sim::SimTime;
///
/// let mut maq = Maq::new(2);
/// let d = SimTime::from_ns(60);
/// assert_eq!(maq.acquire(SimTime::ZERO, d), SimTime::ZERO);
/// assert_eq!(maq.acquire(SimTime::ZERO, d), SimTime::ZERO);
/// // Third concurrent access waits for a slot.
/// assert_eq!(maq.acquire(SimTime::ZERO, d), SimTime::from_ns(60));
/// ```
#[derive(Debug, Clone)]
pub struct Maq {
    slots: Vec<SimTime>, // each slot's busy-until time
    accesses: u64,
    queued: u64,
}

impl Maq {
    /// Creates a MAQ with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "zero-entry MAQ");
        Maq {
            slots: vec![SimTime::ZERO; entries],
            accesses: 0,
            queued: 0,
        }
    }

    /// Number of slots.
    pub fn entries(&self) -> usize {
        self.slots.len()
    }

    /// Acquires a slot for an access of `duration` wishing to start at
    /// `now`; returns the actual start time (>= `now`; later iff all slots
    /// are busy).
    pub fn acquire(&mut self, now: SimTime, duration: SimTime) -> SimTime {
        let slot = self
            .slots
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("nonzero slots");
        let start = now.max(*slot);
        if start > now {
            self.queued += 1;
        }
        *slot = start + duration;
        self.accesses += 1;
        start
    }

    /// Two-phase acquisition for accesses whose duration depends on their
    /// start time (e.g. DRAM queueing): picks the earliest-free slot,
    /// computes the duration via `f(start)`, occupies the slot, and returns
    /// `(start, completion)`.
    pub fn schedule<F>(&mut self, now: SimTime, f: F) -> (SimTime, SimTime)
    where
        F: FnOnce(SimTime) -> SimTime,
    {
        let slot = self
            .slots
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("nonzero slots");
        let start = now.max(*slot);
        if start > now {
            self.queued += 1;
        }
        let duration = f(start);
        *slot = start + duration;
        self.accesses += 1;
        (start, start + duration)
    }

    /// Lifetime accesses issued.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that had to wait for a slot.
    pub fn queued(&self) -> u64 {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_until_full() {
        let mut maq = Maq::new(4);
        let d = SimTime::from_ns(100);
        for _ in 0..4 {
            assert_eq!(maq.acquire(SimTime::ZERO, d), SimTime::ZERO);
        }
        // Fifth queues behind the earliest slot.
        assert_eq!(maq.acquire(SimTime::ZERO, d), SimTime::from_ns(100));
        assert_eq!(maq.queued(), 1);
    }

    #[test]
    fn slots_recycle_over_time() {
        let mut maq = Maq::new(2);
        let d = SimTime::from_ns(10);
        maq.acquire(SimTime::ZERO, d);
        maq.acquire(SimTime::ZERO, d);
        // At t=20 both are free again.
        assert_eq!(maq.acquire(SimTime::from_ns(20), d), SimTime::from_ns(20));
        assert_eq!(maq.queued(), 0);
    }

    #[test]
    fn throughput_is_entries_per_duration() {
        let mut maq = Maq::new(32);
        let d = SimTime::from_ns(64);
        let mut last = SimTime::ZERO;
        let n = 3200;
        for _ in 0..n {
            last = maq.acquire(SimTime::ZERO, d) + d;
        }
        // 32 slots x (1/64ns) = 0.5 access/ns; 3200 accesses ~ 6.4 us.
        let expect_ns = (n as u64 / 32) * 64;
        assert_eq!(last, SimTime::from_ns(expect_ns));
    }

    #[test]
    fn schedule_computes_duration_from_start() {
        let mut maq = Maq::new(1);
        let (s1, e1) = maq.schedule(SimTime::ZERO, |_| SimTime::from_ns(10));
        assert_eq!((s1, e1), (SimTime::ZERO, SimTime::from_ns(10)));
        // Second access starts at 10 ns and its duration sees that start.
        let (s2, e2) = maq.schedule(SimTime::ZERO, |start| {
            assert_eq!(start, SimTime::from_ns(10));
            SimTime::from_ns(5)
        });
        assert_eq!((s2, e2), (SimTime::from_ns(10), SimTime::from_ns(15)));
        assert_eq!(maq.queued(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-entry")]
    fn zero_entries_panics() {
        Maq::new(0);
    }
}
