//! The per-run flight recorder: cadenced counter-delta sampling into
//! fixed rings.

use sonuma_sim::SimTime;

use crate::export::{Fields, Member};
use crate::ring::Ring;

/// Sampling configuration of one [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sampling cadence in simulated time. Link samples land on exact
    /// multiples of it; node samples land on the first quantum boundary
    /// at or past each multiple.
    pub interval: SimTime,
    /// Link-sample ring capacity.
    pub link_capacity: usize,
    /// Node-sample ring capacity.
    pub node_capacity: usize,
    /// Fault-event ring capacity.
    pub event_capacity: usize,
}

impl TraceConfig {
    /// A recorder config sampling every `interval` with the default ring
    /// capacities (64 Ki link/node samples, 4 Ki events — a few MiB,
    /// sized so the canned rack scenarios record without eviction).
    pub fn every(interval: SimTime) -> TraceConfig {
        TraceConfig {
            interval,
            link_capacity: 1 << 16,
            node_capacity: 1 << 16,
            event_capacity: 1 << 12,
        }
    }
}

trace_line! {
    /// One link's activity over one sampling window (counter deltas, not
    /// cumulative totals).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LinkSample {
        /// Window end (an exact multiple of the sampling interval).
        pub t_ps: u64 => U64,
        /// Sending node.
        pub src: u16 => U16,
        /// Receiving node.
        pub dst: u16 => U16,
        /// Bytes serialized onto the wire during the window.
        pub bytes: u64 => U64,
        /// Packets serialized during the window.
        pub packets: u64 => U64,
        /// Credit stalls suffered during the window.
        pub credit_stalls: u64 => U64,
    }
    rec = "link";
}

trace_line! {
    /// Cumulative per-node pipeline counters fed to
    /// [`FlightRecorder::record_node`]; every field but the
    /// `itt_in_flight` gauge is a running total the recorder turns into a
    /// window delta.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NodeCounters {
        /// RGP: remote operations unrolled (cumulative).
        pub rgp_requests: u64 => U64,
        /// RRPP: request packets served (cumulative).
        pub rrpp_served: u64 => U64,
        /// RCP: operations completed (cumulative).
        pub rcp_completions: u64 => U64,
        /// RGP stalls on a full ITT (cumulative).
        pub rgp_itt_stalls: u64 => U64,
        /// Posts rejected on a full WQ (cumulative).
        pub api_wq_full: u64 => U64,
        /// ITT entries currently in flight (a gauge, recorded as-is).
        pub itt_in_flight: u64 => U64,
        /// Request timeouts fired (cumulative).
        pub rgp_timeouts: u64 => U64,
        /// Lines retransmitted (cumulative).
        pub rgp_retransmits: u64 => U64,
    }
}

trace_line! {
    /// One node's activity over one sampling window.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NodeSample {
        /// Window end (a quantum boundary, partition-invariant).
        pub t_ps: u64 => U64,
        /// The node.
        pub node: u16 => U16,
        /// Counter deltas over the window, plus the `itt_in_flight` gauge at
        /// the window end.
        pub counters: NodeCounters => flatten,
    }
    rec = "node";
}

/// What a [`FaultEvent`] records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultKind {
    /// A scheduled link kill took effect (`a -> b`).
    #[default]
    LinkKill,
    /// A killed link revived (`a -> b`).
    LinkRevive,
    /// A node crashed (`a`).
    NodeCrash,
    /// A crashed node restarted cold (`a`).
    NodeRestart,
    /// Packets dropped on faulty links during the window (`count`).
    PacketsDropped,
    /// Packets corrupted in flight during the window (`count`).
    PacketsCorrupted,
    /// Packets rerouted around dead links during the window (`count`).
    PacketsRerouted,
    /// Packets with no live route during the window (`count`).
    PacketsUnreachable,
    /// Packets discarded at crashed destinations during the window
    /// (`count`).
    CrashDrops,
    /// Request timeouts fired during the window (`count`).
    Timeouts,
    /// Lines retransmitted during the window (`count`).
    Retransmits,
}

impl FaultKind {
    /// Every kind with its trace label, in declaration order, so
    /// `LABELS[kind as usize]` is `kind`'s row.
    pub const LABELS: [(FaultKind, &'static str); 11] = [
        (FaultKind::LinkKill, "link_kill"),
        (FaultKind::LinkRevive, "link_revive"),
        (FaultKind::NodeCrash, "node_crash"),
        (FaultKind::NodeRestart, "node_restart"),
        (FaultKind::PacketsDropped, "packets_dropped"),
        (FaultKind::PacketsCorrupted, "packets_corrupted"),
        (FaultKind::PacketsRerouted, "packets_rerouted"),
        (FaultKind::PacketsUnreachable, "packets_unreachable"),
        (FaultKind::CrashDrops, "crash_drops"),
        (FaultKind::Timeouts, "timeouts"),
        (FaultKind::Retransmits, "retransmits"),
    ];

    /// The event name used in the exported trace.
    pub fn as_str(self) -> &'static str {
        Self::LABELS[self as usize].1
    }

    /// The kind an exported event name stands for.
    pub fn parse(label: &str) -> Option<FaultKind> {
        Self::LABELS
            .iter()
            .find(|row| row.1 == label)
            .map(|row| row.0)
    }

    /// Whether this is a scheduled transition (one instant) rather than
    /// a per-window counter delta.
    pub fn is_transition(self) -> bool {
        !FAULT_COUNTER_KINDS.contains(&self)
    }
}

trace_line! {
    /// A fault instant: a scheduled transition at its exact scheduled time,
    /// or a per-window recovery-counter delta.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultEvent {
        /// Scheduled instant (transitions) or window end (counter deltas).
        pub t_ps: u64 => U64,
        /// What happened.
        pub kind: FaultKind => Kind,
        /// First endpoint (link source / crashing node), `0` when unused.
        pub a: u16 => U16,
        /// Second endpoint (link destination), `0` when unused.
        pub b: u16 => U16,
        /// Delta count for counter events, `1` for transitions.
        pub count: u64 => U64,
    }
    rec = "fault";
}

/// Streams tracked by [`FlightRecorder::record_fault_counters`], in the
/// array order the caller must supply cumulative totals in.
pub const FAULT_COUNTER_KINDS: [FaultKind; 7] = [
    FaultKind::PacketsDropped,
    FaultKind::PacketsCorrupted,
    FaultKind::PacketsRerouted,
    FaultKind::PacketsUnreachable,
    FaultKind::CrashDrops,
    FaultKind::Timeouts,
    FaultKind::Retransmits,
];

/// Sample counts and loss tallies of a recorder, for the bench report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Node sampling rounds taken (quantum boundaries that crossed a
    /// cadence deadline).
    pub ticks: u64,
    /// Link samples retained.
    pub link_samples: u64,
    /// Link samples evicted by ring overflow.
    pub link_dropped: u64,
    /// Node samples retained.
    pub node_samples: u64,
    /// Node samples evicted by ring overflow.
    pub node_dropped: u64,
    /// Fault events retained.
    pub fault_events: u64,
    /// Fault events evicted by ring overflow.
    pub fault_dropped: u64,
}

/// The recorder proper. All capacity is sized at construction — per-slot
/// and per-node previous-counter tables plus the three sample rings — so
/// every `record_*` call on the hot path is allocation-free.
///
/// Two sampling cursors run side by side:
///
/// * the **fabric cursor** advances with the committed send stream:
///   [`FlightRecorder::fabric_due`] is checked against each send's inject
///   time, and a sample window closes on the last exact cadence multiple
///   not after it — so link samples depend only on the global send order,
///   never on how commits batch;
/// * the **node cursor** advances with the simulation clock at quantum
///   boundaries, where every shard is aligned and node state is
///   partition-invariant.
#[derive(Debug)]
pub struct FlightRecorder {
    interval_ps: u64,
    /// Next fabric-sample deadline (an exact multiple of the interval).
    fabric_deadline_ps: u64,
    /// Next node-sample deadline (node samples take the first quantum
    /// boundary at or past it).
    node_deadline_ps: u64,
    /// End of the last scanned fault-transition window.
    instants_scanned_ps: u64,
    ticks: u64,
    links: Ring<LinkSample>,
    nodes: Ring<NodeSample>,
    events: Ring<FaultEvent>,
    /// Cumulative (bytes, packets, stalls) per link slot at the last
    /// fabric sample.
    prev_links: Vec<(u64, u64, u64)>,
    /// Cumulative counters per node at the last node sample.
    prev_nodes: Vec<NodeCounters>,
    /// Cumulative fault-counter totals at the last node sample, in
    /// [`FAULT_COUNTER_KINDS`] order.
    prev_faults: [u64; FAULT_COUNTER_KINDS.len()],
}

impl FlightRecorder {
    /// Arms a recorder over a machine with `link_slots` dense link slots
    /// and `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the configured interval is zero (a zero cadence would
    /// sample every send).
    pub fn new(config: &TraceConfig, link_slots: usize, nodes: usize) -> Self {
        let interval_ps = config.interval.as_ps();
        assert!(interval_ps > 0, "zero trace interval");
        FlightRecorder {
            interval_ps,
            fabric_deadline_ps: interval_ps,
            node_deadline_ps: interval_ps,
            instants_scanned_ps: 0,
            ticks: 0,
            links: Ring::new(config.link_capacity),
            nodes: Ring::new(config.node_capacity),
            events: Ring::new(config.event_capacity),
            prev_links: vec![(0, 0, 0); link_slots.max(1)],
            prev_nodes: vec![NodeCounters::default(); nodes.max(1)],
            prev_faults: [0; FAULT_COUNTER_KINDS.len()],
        }
    }

    // ------------------------------------------------------------------
    // Fabric cursor (driven by the committed send stream).
    // ------------------------------------------------------------------

    /// Whether a send injected at `t` closes the open link window. Must
    /// be checked (and the sample taken) *before* that send touches the
    /// link counters.
    pub fn fabric_due(&self, t: SimTime) -> bool {
        t.as_ps() >= self.fabric_deadline_ps
    }

    /// Closes the link window against a send at `t`: returns the window
    /// end — the last cadence multiple not after `t` — and advances the
    /// deadline past it. Empty windows in between are skipped in one
    /// step, so an idle gap costs one sample, not one per interval.
    pub fn close_fabric_window(&mut self, t: SimTime) -> SimTime {
        debug_assert!(self.fabric_due(t));
        let end = (t.as_ps() / self.interval_ps) * self.interval_ps;
        self.fabric_deadline_ps = end + self.interval_ps;
        SimTime::from_ps(end)
    }

    /// Records one link's cumulative counters against the window ending
    /// at `t` (from [`FlightRecorder::close_fabric_window`]). Pushes a
    /// sample only when the link moved during the window.
    #[allow(clippy::too_many_arguments)] // mirrors the visit_links callback
    pub fn record_link(
        &mut self,
        t: SimTime,
        slot: usize,
        src: u16,
        dst: u16,
        bytes: u64,
        packets: u64,
        credit_stalls: u64,
    ) {
        let prev = &mut self.prev_links[slot];
        let sample = LinkSample {
            t_ps: t.as_ps(),
            src,
            dst,
            bytes: bytes - prev.0,
            packets: packets - prev.1,
            credit_stalls: credit_stalls - prev.2,
        };
        *prev = (bytes, packets, credit_stalls);
        if sample.bytes | sample.packets | sample.credit_stalls != 0 {
            self.links.push(sample);
        }
    }

    // ------------------------------------------------------------------
    // Node cursor (driven by quantum boundaries).
    // ------------------------------------------------------------------

    /// Whether the clock has reached the next node-sampling deadline.
    pub fn node_due(&self, now: SimTime) -> bool {
        now.as_ps() >= self.node_deadline_ps
    }

    /// Opens a node sampling round at boundary `now` and advances the
    /// deadline to the next cadence multiple past it. Returns the
    /// half-open fault-transition window `(start, end]` this round must
    /// scan for scheduled instants.
    pub fn begin_node_round(&mut self, now: SimTime) -> (SimTime, SimTime) {
        debug_assert!(self.node_due(now));
        self.node_deadline_ps = (now.as_ps() / self.interval_ps + 1) * self.interval_ps;
        self.ticks += 1;
        let window = (SimTime::from_ps(self.instants_scanned_ps), now);
        self.instants_scanned_ps = now.as_ps();
        window
    }

    /// Records one node's cumulative counters against the round at `t`.
    /// Pushes a sample only when something changed since the last round.
    pub fn record_node(&mut self, t: SimTime, node: u16, cur: NodeCounters) {
        let prev = &mut self.prev_nodes[node as usize];
        if cur != *prev {
            let mut base = *prev;
            base.itt_in_flight = 0; // a gauge: recorded as-is
            let mut delta = cur;
            for ((_, d), (_, b)) in delta.fields().zip(base.fields()) {
                if let (Member::U64(d), Member::U64(b)) = (d, b) {
                    *d -= *b;
                }
            }
            self.nodes.push(NodeSample {
                t_ps: t.as_ps(),
                node,
                counters: delta,
            });
        }
        *prev = cur;
    }

    /// Records a scheduled fault transition at its exact instant.
    pub fn record_transition(&mut self, at: SimTime, kind: FaultKind, a: u16, b: u16) {
        self.events.push(FaultEvent {
            t_ps: at.as_ps(),
            kind,
            a,
            b,
            count: 1,
        });
    }

    /// Records the cumulative fault-recovery counters (in
    /// [`FAULT_COUNTER_KINDS`] order) against the round at `t`, emitting
    /// one event per stream that moved during the window.
    pub fn record_fault_counters(&mut self, t: SimTime, cur: [u64; FAULT_COUNTER_KINDS.len()]) {
        for (i, kind) in FAULT_COUNTER_KINDS.iter().enumerate() {
            let delta = cur[i] - self.prev_faults[i];
            if delta != 0 {
                self.events.push(FaultEvent {
                    t_ps: t.as_ps(),
                    kind: *kind,
                    count: delta,
                    ..FaultEvent::default()
                });
            }
        }
        self.prev_faults = cur;
    }

    // ------------------------------------------------------------------
    // Read-out.
    // ------------------------------------------------------------------

    /// Retained link samples, oldest first.
    pub fn link_samples(&self) -> impl Iterator<Item = &LinkSample> + '_ {
        self.links.iter()
    }

    /// Retained node samples, oldest first.
    pub fn node_samples(&self) -> impl Iterator<Item = &NodeSample> + '_ {
        self.nodes.iter()
    }

    /// Retained fault events, oldest first.
    pub fn fault_events(&self) -> impl Iterator<Item = &FaultEvent> + '_ {
        self.events.iter()
    }

    /// Sample counts and ring-overflow tallies.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            ticks: self.ticks,
            link_samples: self.links.len() as u64,
            link_dropped: self.links.overwritten(),
            node_samples: self.nodes.len() as u64,
            node_dropped: self.nodes.overwritten(),
            fault_events: self.events.len() as u64,
            fault_dropped: self.events.overwritten(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(interval_ns: u64) -> FlightRecorder {
        FlightRecorder::new(&TraceConfig::every(SimTime::from_ns(interval_ns)), 4, 2)
    }

    #[test]
    fn fabric_windows_close_on_cadence_multiples() {
        let mut rec = recorder(100);
        assert!(!rec.fabric_due(SimTime::from_ns(99)));
        assert!(rec.fabric_due(SimTime::from_ns(100)));
        // A send at 250 ns closes the window at 200 ns (the last multiple
        // not after it), skipping the empty 100 ns window.
        assert_eq!(
            rec.close_fabric_window(SimTime::from_ns(250)),
            SimTime::from_ns(200)
        );
        assert!(!rec.fabric_due(SimTime::from_ns(299)));
        assert!(rec.fabric_due(SimTime::from_ns(300)));
    }

    #[test]
    fn link_samples_are_deltas_and_idle_links_are_skipped() {
        let mut rec = recorder(100);
        let t = SimTime::from_ns(100);
        rec.record_link(t, 0, 0, 1, 640, 10, 2);
        rec.record_link(t, 1, 1, 0, 0, 0, 0); // never moved
        let t2 = SimTime::from_ns(200);
        rec.record_link(t2, 0, 0, 1, 1000, 15, 2);
        let got: Vec<LinkSample> = rec.link_samples().copied().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(
            (got[0].bytes, got[0].packets, got[0].credit_stalls),
            (640, 10, 2)
        );
        assert_eq!(
            (got[1].bytes, got[1].packets, got[1].credit_stalls),
            (360, 5, 0)
        );
    }

    #[test]
    fn node_rounds_emit_only_movement_and_scan_contiguous_windows() {
        let mut rec = recorder(100);
        let (w0, w1) = rec.begin_node_round(SimTime::from_ns(130));
        assert_eq!((w0, w1), (SimTime::ZERO, SimTime::from_ns(130)));
        rec.record_node(
            SimTime::from_ns(130),
            0,
            NodeCounters {
                rgp_requests: 3,
                ..NodeCounters::default()
            },
        );
        rec.record_node(SimTime::from_ns(130), 1, NodeCounters::default());
        assert!(!rec.node_due(SimTime::from_ns(199)));
        assert!(rec.node_due(SimTime::from_ns(200)));
        let (w0, w1) = rec.begin_node_round(SimTime::from_ns(205));
        assert_eq!((w0, w1), (SimTime::from_ns(130), SimTime::from_ns(205)));
        // No movement since the last round: nothing pushed.
        rec.record_node(
            SimTime::from_ns(205),
            0,
            NodeCounters {
                rgp_requests: 3,
                ..NodeCounters::default()
            },
        );
        assert_eq!(rec.node_samples().count(), 1);
        assert_eq!(rec.summary().ticks, 2);
    }

    #[test]
    fn fault_kind_labels_follow_declaration_order() {
        for (i, &(kind, label)) in FaultKind::LABELS.iter().enumerate() {
            assert_eq!(kind as usize, i, "{label} is out of declaration order");
            assert_eq!(kind.as_str(), label);
            assert_eq!(FaultKind::parse(label), Some(kind));
            assert_eq!(kind.is_transition(), i < 4);
        }
        assert_eq!(FaultKind::parse("other"), None);
    }

    #[test]
    fn fault_counter_deltas_become_events() {
        let mut rec = recorder(100);
        let mut cur = [0u64; FAULT_COUNTER_KINDS.len()];
        cur[0] = 4; // dropped
        cur[6] = 2; // retransmits
        rec.record_fault_counters(SimTime::from_ns(100), cur);
        cur[0] = 4; // unchanged
        cur[6] = 5;
        rec.record_fault_counters(SimTime::from_ns(200), cur);
        let events: Vec<FaultEvent> = rec.fault_events().copied().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, FaultKind::PacketsDropped);
        assert_eq!(events[0].count, 4);
        assert_eq!(events[2].kind, FaultKind::Retransmits);
        assert_eq!(events[2].count, 3);
    }
}
