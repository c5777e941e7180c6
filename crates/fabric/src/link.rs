//! Point-to-point link state: serialization and credit-based flow control.

use std::collections::VecDeque;

use sonuma_sim::SimTime;

/// One virtual lane's credit pool on one directed link.
///
/// Tracks in-flight packets by their drain times. A sender consumes one
/// credit per packet; the credit returns `credit_return` after the receiver
/// drains it. When no credit is available the send stalls until the oldest
/// in-flight packet's credit comes back — this is what makes the fabric
/// lossless (§6: "credit-based flow control").
///
/// # Example
///
/// ```
/// use sonuma_fabric::VirtualChannel;
/// use sonuma_sim::SimTime;
///
/// let mut vc = VirtualChannel::new(2, SimTime::from_ns(10));
/// assert_eq!(vc.acquire(SimTime::ZERO, SimTime::from_ns(100)), SimTime::ZERO);
/// assert_eq!(vc.acquire(SimTime::ZERO, SimTime::from_ns(100)), SimTime::ZERO);
/// // Both credits consumed: next send waits for the first drain + return.
/// assert_eq!(vc.acquire(SimTime::ZERO, SimTime::from_ns(100)), SimTime::from_ns(110));
/// ```
#[derive(Debug, Clone)]
pub struct VirtualChannel {
    credits: usize,
    credit_return: SimTime,
    in_flight: VecDeque<SimTime>, // drain times, ascending
    stalls: u64,
}

impl VirtualChannel {
    /// Creates a lane with `credits` receive buffers.
    ///
    /// # Panics
    ///
    /// Panics if `credits` is zero (a zero-credit lane can never send).
    pub fn new(credits: usize, credit_return: SimTime) -> Self {
        assert!(credits > 0, "zero-credit virtual channel");
        VirtualChannel {
            credits,
            credit_return,
            // Occupancy never exceeds the credit pool (acquire reclaims or
            // evicts before inserting), so pre-sizing the deque to it makes
            // every later acquire allocation-free.
            in_flight: VecDeque::with_capacity(credits),
            stalls: 0,
        }
    }

    /// Acquires a credit for a packet wishing to depart at `now` and
    /// draining at the far end at `drain_at`; returns the earliest time the
    /// packet may actually start (equal to `now` unless credit-stalled).
    pub fn acquire(&mut self, now: SimTime, drain_at: SimTime) -> SimTime {
        // Reclaim credits whose packets drained long enough ago.
        while let Some(&front) = self.in_flight.front() {
            if front + self.credit_return <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
        let start = if self.in_flight.len() >= self.credits {
            self.stalls += 1;
            let oldest = self.in_flight.pop_front().expect("credits > 0");
            (oldest + self.credit_return).max(now)
        } else {
            now
        };
        // Record this packet's drain; keep the deque sorted (drains are
        // normally monotone, but a stalled packet may reorder slightly).
        let effective_drain = drain_at.max(start);
        let pos = self
            .in_flight
            .iter()
            .rposition(|&t| t <= effective_drain)
            .map(|i| i + 1)
            .unwrap_or(0);
        self.in_flight.insert(pos, effective_drain);
        start
    }

    /// Number of credits currently consumed. API for the tests: the
    /// lossless-fabric property is `occupancy() <= capacity()` at all times.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Total credit pool size.
    pub fn capacity(&self) -> usize {
        self.credits
    }

    /// Times a send had to wait for a credit.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

/// Serialization state of one directed physical link (shared by its lanes).
#[derive(Debug, Clone, Default)]
pub struct LinkSerializer {
    busy_until: SimTime,
    bytes: u64,
    packets: u64,
}

impl LinkSerializer {
    /// Creates an idle link.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupies the link for `duration` starting no earlier than `now`;
    /// returns the actual start time.
    pub fn occupy(&mut self, now: SimTime, duration: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.busy_until);
        self.busy_until = start + duration;
        self.bytes += bytes;
        self.packets += 1;
        start
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total packets moved.
    pub fn packets(&self) -> u64 {
        self.packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_conserved_under_traffic() {
        let mut vc = VirtualChannel::new(4, SimTime::from_ns(5));
        let mut now = SimTime::ZERO;
        for i in 0..100u64 {
            let drain = now + SimTime::from_ns(20);
            let start = vc.acquire(now, drain);
            assert!(start >= now);
            assert!(vc.occupancy() <= vc.capacity(), "credit overrun at {i}");
            now = start + SimTime::from_ns(1);
        }
    }

    #[test]
    fn exhausted_credits_stall_until_return() {
        let mut vc = VirtualChannel::new(1, SimTime::from_ns(10));
        let s1 = vc.acquire(SimTime::ZERO, SimTime::from_ns(30));
        assert_eq!(s1, SimTime::ZERO);
        let s2 = vc.acquire(SimTime::from_ns(1), SimTime::from_ns(60));
        assert_eq!(s2, SimTime::from_ns(40)); // 30 drain + 10 return
        assert_eq!(vc.stalls(), 1);
    }

    #[test]
    fn credits_reclaimed_after_return_delay() {
        let mut vc = VirtualChannel::new(2, SimTime::from_ns(10));
        vc.acquire(SimTime::ZERO, SimTime::from_ns(5));
        vc.acquire(SimTime::ZERO, SimTime::from_ns(5));
        // At t=20 both credits are home again: no stall.
        let s = vc.acquire(SimTime::from_ns(20), SimTime::from_ns(25));
        assert_eq!(s, SimTime::from_ns(20));
        assert_eq!(vc.stalls(), 0);
    }

    #[test]
    fn serializer_orders_backtoback_sends() {
        let mut link = LinkSerializer::new();
        let d = SimTime::from_ns(3);
        assert_eq!(link.occupy(SimTime::ZERO, d, 88), SimTime::ZERO);
        assert_eq!(link.occupy(SimTime::ZERO, d, 88), SimTime::from_ns(3));
        assert_eq!(
            link.occupy(SimTime::from_ns(10), d, 88),
            SimTime::from_ns(10)
        );
        assert_eq!(link.bytes(), 264);
        assert_eq!(link.packets(), 3);
    }

    #[test]
    #[should_panic(expected = "zero-credit")]
    fn zero_credits_panics() {
        VirtualChannel::new(0, SimTime::ZERO);
    }
}
