//! Property tests: lossless delivery and routing invariants under
//! arbitrary traffic — driven through the typed
//! `sonuma_sim::EventEngine`, exactly as the machine delivers packets.

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_fabric::{Fabric, FabricConfig, Topology};
use sonuma_protocol::NodeId;
use sonuma_sim::{EventEngine, SimTime, World};

/// The minimal fabric-consumer world: packets injected through
/// [`Fabric::send`] become typed [`Delivery`] events, mirroring the
/// machine's `ClusterEvent::Deliver` path.
#[derive(Default)]
struct DeliverySink {
    /// `(arrival time, source, destination, lane)` in execution order.
    delivered: Vec<(SimTime, u16, u16, usize)>,
}

#[derive(Debug, Clone, Copy)]
struct Delivery {
    src: u16,
    dst: u16,
    lane: usize,
}

impl World for DeliverySink {
    type Event = Delivery;

    fn handle(&mut self, engine: &mut EventEngine<Self>, event: Delivery) {
        self.delivered
            .push((engine.now(), event.src, event.dst, event.lane));
    }
}

proptest! {
    /// Every packet is delivered at a finite time no earlier than its
    /// injection plus the minimum path cost; nothing is ever dropped.
    #[test]
    fn fabric_is_lossless_and_causal(
        sends in vec((0u16..8, 0u16..8, 0usize..2, any::<bool>(), 0u64..1_000), 1..300)
    ) {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(8));
        let mut delivered = 0u64;
        for &(src, dst, lane, big, gap_ns) in &sends {
            if src == dst { continue; }
            let now = SimTime::from_ns(gap_ns);
            let bytes = if big { 88 } else { 24 };
            let arrival = f.send(now, NodeId(src), NodeId(dst), lane, bytes);
            let min = now + f.config().hop_latency + f.config().serialization(bytes);
            prop_assert!(arrival.time >= min, "arrived before physically possible");
            delivered += 1;
        }
        prop_assert_eq!(f.packets_sent(), delivered);
    }

    /// On any torus, routes visit only neighbors, terminate at the
    /// destination, and stay within the diameter.
    #[test]
    fn torus_routing_invariants(
        w in 2usize..6, h in 2usize..6,
        src in 0usize..36, dst in 0usize..36,
    ) {
        let t = Topology::torus2d(w, h);
        let n = t.nodes();
        let (src, dst) = (NodeId((src % n) as u16), NodeId((dst % n) as u16));
        let path = t.route(src, dst);
        if src == dst {
            prop_assert!(path.is_empty());
        } else {
            prop_assert_eq!(*path.last().unwrap(), dst);
            prop_assert!(path.len() <= w / 2 + h / 2, "longer than the diameter");
            // Dimension-order: no node repeats (deadlock-free with 2 VLs).
            let mut seen = std::collections::HashSet::new();
            for hop in &path {
                prop_assert!(seen.insert(hop.0), "cycle in route");
            }
        }
    }

    /// Same-time, same-link sends arrive in FIFO order (the link serializes
    /// them; reliability implies no reordering within a lane).
    #[test]
    fn same_lane_fifo(count in 2usize..50) {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(2));
        let mut prev = SimTime::ZERO;
        for _ in 0..count {
            let a = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
            prop_assert!(a.time > prev);
            prev = a.time;
        }
    }

    /// Driving arrivals through the typed event engine delivers every
    /// packet exactly once, in nondecreasing time order, with per-lane
    /// same-link FIFO preserved — the machine's delivery contract.
    #[test]
    fn typed_engine_delivery_is_lossless_and_ordered(
        sends in vec((0u16..8, 0u16..8, 0usize..2, 0u64..500), 1..200)
    ) {
        let mut fabric = Fabric::new(FabricConfig::torus2d(4, 2));
        let mut engine = EventEngine::new();
        let mut sink = DeliverySink::default();
        let mut injected = 0u64;
        for &(src, dst, lane, gap_ns) in &sends {
            if src == dst { continue; }
            let arrival = fabric.send(
                SimTime::from_ns(gap_ns),
                NodeId(src),
                NodeId(dst),
                lane,
                88,
            );
            engine.schedule_at(arrival.time, Delivery { src, dst, lane });
            injected += 1;
        }
        engine.run(&mut sink);
        prop_assert_eq!(sink.delivered.len() as u64, injected, "lossless");
        // Execution order is nondecreasing in time.
        for w in sink.delivered.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "delivery went backwards");
        }
        // Same (src, dst, lane) stream: injection order == delivery order
        // at strictly increasing times (link serialization FIFO).
        for &(src, dst, lane, _) in &sends {
            let times: Vec<SimTime> = sink
                .delivered
                .iter()
                .filter(|&&(_, s, d, l)| (s, d, l) == (src, dst, lane))
                .map(|&(t, _, _, _)| t)
                .collect();
            for w in times.windows(2) {
                prop_assert!(w[0] < w[1], "same-lane stream reordered");
            }
        }
    }
}
