//! The three decoupled RMC pipelines (§4.2) as explicit modules.
//!
//! The paper's central architectural claim is that the RMC is *three
//! independent pipelines* sharing only the Context Table, the ITT and the
//! MAQ:
//!
//! * [`rgp`] — the Request Generation Pipeline (source side, WQ to fabric);
//! * [`rrpp`] — the Remote Request Processing Pipeline (destination side,
//!   stateless request service);
//! * [`rcp`] — the Request Completion Pipeline (source side, fabric to CQ).
//!
//! Each module owns its pipeline's state machine
//! ([`RgpState`]/[`RrppState`]/[`RcpState`]), its backpressure counters,
//! and the event logic that advances it over the cluster world. The
//! [`PipelineStats`] snapshot collects every counter for one node, which is
//! what the benchmark harness prints for per-pipeline ablations.

pub mod rcp;
pub mod rgp;
pub mod rrpp;

pub use rcp::RcpState;
pub use rgp::{RgpPhase, RgpState};
pub use rrpp::RrppState;

use sonuma_protocol::{NodeId, Packet};
use sonuma_sim::SimTime;

use crate::cluster::Cluster;
use crate::event::ClusterEvent;
use crate::ClusterEngine;

/// A point-in-time snapshot of one node's pipeline counters.
///
/// Field prefixes name the pipeline the counter belongs to. Snapshots are
/// plain data: diff two to measure an interval, or sum them across nodes
/// with [`PipelineStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// WQ requests launched by the RGP (tid allocated, unroll started).
    pub rgp_requests: u64,
    /// Line-sized request packets injected by the RGP.
    pub rgp_lines: u64,
    /// WQ ring reads the RGP performed while polling.
    pub rgp_wq_polls: u64,
    /// WQ polls that found no fresh entry.
    pub rgp_empty_polls: u64,
    /// RGP service retries because every ITT tid was in flight — the
    /// pipeline's backpressure signal.
    pub rgp_itt_stalls: u64,
    /// Pending QPs the RGP's QoS scheduler passed over in favor of
    /// higher-priority work — the starvation-pressure signal (0 under
    /// round-robin and WDRR, which never skip).
    pub rgp_sched_skips: u64,
    /// Posts the access library rejected with `WqFull` — the backpressure
    /// tenants themselves experienced at the API boundary.
    pub api_wq_full: u64,
    /// Request packets serviced by the RRPP (this node as destination).
    pub rrpp_served: u64,
    /// RRPP context lookups that missed the CT$.
    pub rrpp_ct_misses: u64,
    /// Error replies the RRPP generated (bounds/context violations).
    pub rrpp_errors: u64,
    /// Remote-interrupt requests the RRPP handled.
    pub rrpp_interrupts: u64,
    /// Reply packets processed by the RCP.
    pub rcp_replies: u64,
    /// CQ entries the RCP posted (completed WQ requests).
    pub rcp_completions: u64,
    /// Transactions in flight in the ITT at snapshot time.
    pub itt_in_flight: u64,
    /// Retransmission deadlines that fired with lines still missing
    /// (fault recovery; zero without a fault plan).
    pub rgp_timeouts: u64,
    /// Line requests re-injected by the retransmission path.
    pub rgp_retransmits: u64,
    /// Packets the receiving RMC discarded as corrupted (requests and
    /// replies alike; the source's timeout recovers them).
    pub rrpp_corrupt_drops: u64,
}

impl PipelineStats {
    /// Element-wise in-place accumulation of `other` into `self` — the
    /// fold step of cluster-wide aggregation. Report loops summing
    /// hundreds of per-node snapshots use this so the fold is one pass
    /// over borrowed data, not a chain of by-value copies.
    pub fn merge_from(&mut self, other: &PipelineStats) {
        self.rgp_requests += other.rgp_requests;
        self.rgp_lines += other.rgp_lines;
        self.rgp_wq_polls += other.rgp_wq_polls;
        self.rgp_empty_polls += other.rgp_empty_polls;
        self.rgp_itt_stalls += other.rgp_itt_stalls;
        self.rgp_sched_skips += other.rgp_sched_skips;
        self.api_wq_full += other.api_wq_full;
        self.rrpp_served += other.rrpp_served;
        self.rrpp_ct_misses += other.rrpp_ct_misses;
        self.rrpp_errors += other.rrpp_errors;
        self.rrpp_interrupts += other.rrpp_interrupts;
        self.rcp_replies += other.rcp_replies;
        self.rcp_completions += other.rcp_completions;
        self.itt_in_flight += other.itt_in_flight;
        self.rgp_timeouts += other.rgp_timeouts;
        self.rgp_retransmits += other.rgp_retransmits;
        self.rrpp_corrupt_drops += other.rrpp_corrupt_drops;
    }

    /// Element-wise sum of two snapshots (by-value convenience form of
    /// [`PipelineStats::merge_from`]).
    #[must_use]
    pub fn merge(mut self, other: PipelineStats) -> PipelineStats {
        self.merge_from(&other);
        self
    }

    /// `(name, value)` rows in presentation order, so reporting layers can
    /// render snapshots without hand-listing fields.
    pub fn rows(&self) -> [(&'static str, u64); 17] {
        [
            ("rgp_requests", self.rgp_requests),
            ("rgp_lines", self.rgp_lines),
            ("rgp_wq_polls", self.rgp_wq_polls),
            ("rgp_empty_polls", self.rgp_empty_polls),
            ("rgp_itt_stalls", self.rgp_itt_stalls),
            ("rgp_sched_skips", self.rgp_sched_skips),
            ("api_wq_full", self.api_wq_full),
            ("rrpp_served", self.rrpp_served),
            ("rrpp_ct_misses", self.rrpp_ct_misses),
            ("rrpp_errors", self.rrpp_errors),
            ("rrpp_interrupts", self.rrpp_interrupts),
            ("rcp_replies", self.rcp_replies),
            ("rcp_completions", self.rcp_completions),
            ("itt_in_flight", self.itt_in_flight),
            ("rgp_timeouts", self.rgp_timeouts),
            ("rgp_retransmits", self.rgp_retransmits),
            ("rrpp_corrupt_drops", self.rrpp_corrupt_drops),
        ]
    }
}

impl Cluster {
    /// Snapshot of node `node`'s pipeline counters.
    ///
    /// # Panics
    ///
    /// Panics if this cluster does not own `node`.
    pub fn pipeline_stats(&self, node: NodeId) -> PipelineStats {
        let n = self.node(node.index());
        let mut s = n
            .rmc
            .rgp
            .stats()
            .merge(n.rmc.rrpp.stats())
            .merge(n.rmc.rcp.stats());
        s.itt_in_flight = n.rmc.itt.in_flight() as u64;
        s.api_wq_full = n.wq_full_rejections;
        s
    }

    /// Sum of the pipeline counters of every node this cluster *owns*
    /// (the whole cluster classically; one shard's slice under the
    /// sharded engine): one in-place O(N) fold per call. Callers that
    /// need both the total and the per-node rows (the bench report path)
    /// should snapshot per-node stats once and fold those, rather than
    /// calling this per counter.
    pub fn total_pipeline_stats(&self) -> PipelineStats {
        let mut total = PipelineStats::default();
        for n in self.owned_nodes() {
            total.merge_from(&self.pipeline_stats(NodeId(n as u16)));
        }
        total
    }

    /// Delivers `pkt` to its destination's RRPP (requests) or RCP
    /// (replies), through the fabric or the local NI loopback.
    ///
    /// Classic clusters resolve the fabric traversal inline (link
    /// serialization + credits) and schedule the typed
    /// [`ClusterEvent::Deliver`] at the computed arrival. Shard clusters
    /// instead stage the send in the source node's outbox; the
    /// `SonumaBackend` applies every staged send to the one global fabric
    /// at the epoch barrier, in `(time, source, staging order)` order — a
    /// pure function of simulated history, which is what keeps
    /// `--threads N` bit-identical to `--threads 1`.
    pub(crate) fn route_packet(&mut self, engine: &mut ClusterEngine, t: SimTime, mut pkt: Packet) {
        if pkt.dst == pkt.src {
            // Local loopback through the NI: no fabric traversal, stays
            // within the owning shard.
            let deliver_at = t + self.node(pkt.dst.index()).rmc.timing.stage_local;
            engine.schedule_at(deliver_at, ClusterEvent::Deliver { pkt });
            return;
        }
        let local_src = pkt.src.index() - self.node_base();
        match &mut self.route {
            crate::cluster::RoutePath::Direct(fabric) => {
                let salt = pkt.fault_salt(t.as_ps());
                let (arrival, fate) = fabric.send_faulty(
                    t,
                    pkt.src,
                    pkt.dst,
                    pkt.virtual_lane(),
                    pkt.wire_bytes(),
                    salt,
                );
                match fate {
                    sonuma_fabric::PacketFate::Dropped => {}
                    sonuma_fabric::PacketFate::Corrupted => {
                        pkt.corrupt = true;
                        engine.schedule_at(arrival.time, ClusterEvent::Deliver { pkt });
                    }
                    sonuma_fabric::PacketFate::Delivered => {
                        engine.schedule_at(arrival.time, ClusterEvent::Deliver { pkt });
                    }
                }
            }
            crate::cluster::RoutePath::Mailbox(outbox) => {
                outbox.stage(local_src, t, pkt);
            }
        }
    }
}
