//! Point-to-point link state: serialization and credit-based flow control.
//!
//! A directed link is one 64-byte `DirectedLink` header — serializer,
//! both lanes' credit-ring bookkeeping, endpoints — plus a block of drain
//! times in the fabric's ring arena. One hop of one packet is
//! `DirectedLink::traverse`.

use sonuma_sim::SimTime;

use crate::config::FabricConfig;
use crate::VIRTUAL_LANES;

/// One virtual lane's credit pool on one directed link.
///
/// Tracks in-flight packets by their drain times, kept ascending in a ring
/// of `credits` words that lives in the fabric's arena (this struct is only
/// the ring's head, length and stall count). A sender consumes one credit
/// per packet; the credit returns `credit_return` after the receiver
/// drains it. When no credit is available the send stalls until the oldest
/// in-flight packet's credit comes back — this is what makes the fabric
/// lossless (§6: "credit-based flow control").
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Times a send had to wait for a credit.
    stalls: u64,
    head: u32,
    /// Credits currently consumed; never exceeds the pool.
    len: u32,
}

impl Lane {
    /// Acquires a credit for a packet wishing to depart at `now` and
    /// draining at the far end at `drain_at`; returns the earliest time the
    /// packet may actually start (equal to `now` unless credit-stalled).
    /// `ring` is this lane's pool: one word per credit.
    #[inline]
    fn acquire(
        &mut self,
        ring: &mut [u64],
        credit_return: SimTime,
        now: SimTime,
        drain_at: SimTime,
    ) -> SimTime {
        let cap = ring.len() as u32;
        let wrap = |p: u32| if p >= cap { p - cap } else { p };
        // Reclaim credits whose packets drained long enough ago.
        while self.len > 0 && SimTime::from_ps(ring[self.head as usize]) + credit_return <= now {
            self.head = wrap(self.head + 1);
            self.len -= 1;
        }
        let start = if self.len >= cap {
            self.stalls += 1;
            let oldest = SimTime::from_ps(ring[self.head as usize]);
            self.head = wrap(self.head + 1);
            self.len -= 1;
            (oldest + credit_return).max(now)
        } else {
            now
        };
        // Record this packet's drain after the last entry not later than
        // it (drains are normally monotone, so nothing shifts; a stalled
        // packet may reorder slightly).
        let drain = drain_at.max(start).as_ps();
        let entry = |i: u32| wrap(self.head + i) as usize;
        let mut pos = self.len;
        while pos > 0 && ring[entry(pos - 1)] > drain {
            ring[entry(pos)] = ring[entry(pos - 1)];
            pos -= 1;
        }
        ring[entry(pos)] = drain;
        self.len += 1;
        start
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

/// One directed link: everything a hop reads and writes, in one host cache
/// line. The drain times of its lanes' in-flight packets are
/// `VIRTUAL_LANES × credits_per_lane` words of the fabric's ring arena,
/// found from the link's index rather than through this header.
#[derive(Debug, Clone, Default)]
#[repr(align(64))]
pub(crate) struct DirectedLink {
    pub(crate) serializer: LinkSerializer,
    lanes: [Lane; VIRTUAL_LANES],
    /// Credits per lane, fixed when the link carries its first packet;
    /// zero until then.
    credits: u32,
    pub(crate) src: u16,
    pub(crate) dst: u16,
}

const _: () = assert!(std::mem::size_of::<DirectedLink>() == 64);

impl DirectedLink {
    /// Whether the link has carried a packet.
    pub(crate) fn in_use(&self) -> bool {
        self.credits != 0
    }

    /// Readies the link for its first packet with `credits` per lane.
    pub(crate) fn open(&mut self, src: u16, dst: u16, credits: usize) {
        debug_assert!(!self.in_use() && credits > 0);
        self.credits = u32::try_from(credits).expect("credit pool fits u32");
        self.src = src;
        self.dst = dst;
    }

    /// Sends that had to wait for a credit, summed over the lanes.
    pub(crate) fn stalls(&self) -> u64 {
        self.lanes.iter().map(|l| l.stalls).sum()
    }

    /// One hop of a packet that reaches this link at `at` and serializes in
    /// `ser`: take a credit, occupy the wire, return the time the packet
    /// clears the hop. `rings` is this link's block of the ring arena.
    #[inline]
    pub(crate) fn traverse(
        &mut self,
        rings: &mut [u64],
        config: &FabricConfig,
        lane: usize,
        at: SimTime,
        ser: SimTime,
        bytes: u64,
    ) -> SimTime {
        let flight = ser + config.hop_latency;
        let ring = &mut rings[lane * config.credits_per_lane..][..self.credits as usize];
        // Credit first (receive buffer at the far end), then the wire.
        let after_credit = self.lanes[lane].acquire(ring, config.credit_return, at, at + flight);
        let start = self.serializer.occupy(after_credit, ser, bytes);
        start + flight
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    /// The deque-backed credit pool the ring replaced, verbatim: the
    /// reference model [`Lane::acquire`] is checked against.
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

    /// A [`Lane`] with its own ring, shaped like the reference.
    struct Ring {
        lane: Lane,
        ring: Vec<u64>,
        credit_return: SimTime,
    }

    impl Ring {
        fn new(credits: usize, credit_return: SimTime) -> Ring {
            Ring {
                lane: Lane::default(),
                ring: vec![0; credits],
                credit_return,
            }
        }

        fn acquire(&mut self, now: SimTime, drain_at: SimTime) -> SimTime {
            self.lane
                .acquire(&mut self.ring, self.credit_return, now, drain_at)
        }
    }

    #[test]
    fn ring_matches_the_deque_reference() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for credits in 1..=32usize {
            for _stream in 0..8 {
                let credit_return = SimTime::from_ns(draw(200));
                let mut ring = Ring::new(credits, credit_return);
                let mut vc = VirtualChannel::new(credits, credit_return);
                assert_eq!(ring.ring.len(), vc.capacity());
                let mut now = 300u64;
                for call in 0..600 {
                    // Mostly forward (often by nothing, so a pool fills),
                    // one step in eight backwards: the commit presents
                    // send times out of order within an epoch.
                    now = match draw(8) {
                        0 => now.saturating_sub(draw(120)),
                        1..=4 => now,
                        _ => now + draw(40),
                    };
                    // Drains before, inside and after the queued ones.
                    let drain = match draw(4) {
                        0 => now.saturating_sub(draw(100)),
                        1 => now + draw(30),
                        _ => now + 60 + draw(400),
                    };
                    let (now, drain) = (SimTime::from_ns(now), SimTime::from_ns(drain));
                    let ctx = format!("credits {credits} return {credit_return} call {call}");
                    assert_eq!(ring.acquire(now, drain), vc.acquire(now, drain), "{ctx}");
                    assert_eq!(ring.lane.stalls, vc.stalls(), "{ctx}");
                    assert_eq!(ring.lane.len as usize, vc.occupancy(), "{ctx}");
                    let queued: Vec<u64> = (0..ring.lane.len)
                        .map(|i| ring.ring[(ring.lane.head + i) as usize % credits])
                        .collect();
                    let expected: Vec<u64> = vc.in_flight.iter().map(|t| t.as_ps()).collect();
                    assert_eq!(queued, expected, "{ctx}");
                }
            }
        }
    }

    proptest! {
        /// Lane occupancy never exceeds the credit pool, for any
        /// interleaving of sends.
        #[test]
        fn credits_never_overrun(
            credits in 1usize..8,
            sends in vec((0u64..500, 1u64..200), 1..200),
        ) {
            let mut vc = Ring::new(credits, SimTime::from_ns(10));
            let mut now = SimTime::ZERO;
            for &(gap_ns, flight_ns) in &sends {
                now += SimTime::from_ns(gap_ns);
                let start = vc.acquire(now, now + SimTime::from_ns(flight_ns));
                prop_assert!(start >= now);
                prop_assert!(vc.lane.len as usize <= credits);
            }
        }
    }

    #[test]
    fn credits_conserved_under_traffic() {
        let mut vc = Ring::new(4, SimTime::from_ns(5));
        let mut now = SimTime::ZERO;
        for i in 0..100u64 {
            let drain = now + SimTime::from_ns(20);
            let start = vc.acquire(now, drain);
            assert!(start >= now);
            assert!(vc.lane.len <= 4, "credit overrun at {i}");
            now = start + SimTime::from_ns(1);
        }
    }

    #[test]
    fn exhausted_credits_stall_until_return() {
        let mut vc = Ring::new(1, SimTime::from_ns(10));
        let s1 = vc.acquire(SimTime::ZERO, SimTime::from_ns(30));
        assert_eq!(s1, SimTime::ZERO);
        let s2 = vc.acquire(SimTime::from_ns(1), SimTime::from_ns(60));
        assert_eq!(s2, SimTime::from_ns(40)); // 30 drain + 10 return
        assert_eq!(vc.lane.stalls, 1);
    }

    #[test]
    fn credits_reclaimed_after_return_delay() {
        let mut vc = Ring::new(2, SimTime::from_ns(10));
        vc.acquire(SimTime::ZERO, SimTime::from_ns(5));
        vc.acquire(SimTime::ZERO, SimTime::from_ns(5));
        // At t=20 both credits are home again: no stall.
        let s = vc.acquire(SimTime::from_ns(20), SimTime::from_ns(25));
        assert_eq!(s, SimTime::from_ns(20));
        assert_eq!(vc.lane.stalls, 0);
    }

    #[test]
    fn traverse_takes_a_credit_then_the_wire() {
        let config = FabricConfig::paper_crossbar(2);
        let mut rings = vec![0u64; VIRTUAL_LANES * config.credits_per_lane];
        let mut link = DirectedLink::default();
        assert!(!link.in_use());
        link.open(0, 1, 1);
        let ser = config.serialization(88);
        let first = link.traverse(&mut rings, &config, 0, SimTime::ZERO, ser, 88);
        assert_eq!(first, ser + config.hop_latency);
        // Lane 1 has its own pool: only the wire is shared.
        let other = link.traverse(&mut rings, &config, 1, SimTime::ZERO, ser, 88);
        assert_eq!(other, first + ser);
        // Lane 0's one credit is out until the first packet drained and
        // the credit came back.
        let second = link.traverse(&mut rings, &config, 0, SimTime::ZERO, ser, 88);
        assert_eq!(
            second,
            first + config.credit_return + ser + config.hop_latency
        );
        assert_eq!(link.stalls(), 1);
        assert_eq!(link.serializer.packets(), 3);
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
        crate::Fabric::new(FabricConfig {
            credits_per_lane: 0,
            ..FabricConfig::paper_crossbar(2)
        });
    }
}
