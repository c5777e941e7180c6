//! The cluster's typed event set and its dispatch.
//!
//! Every discrete thing that can happen to the simulated machine is a
//! [`ClusterEvent`] variant — pipeline advances, fabric link deliveries,
//! core wake-ups, timers — dispatched by the `World` implementation below.
//! Events carry only ids and fixed-size payloads, so scheduling one never
//! allocates: the `sonuma_sim::EventEngine` stores them by value in its
//! arena. This is what lets 512-node scenario runs spend their time in
//! pipeline logic instead of `Box<dyn FnOnce>` churn.

use sonuma_memory::VAddr;
use sonuma_protocol::{NodeId, Packet, PacketKind, QpId, Tid};
use sonuma_sim::World;

use crate::cluster::Cluster;
use crate::pipeline::rgp::LineBurst;
use crate::pipeline::RgpPhase;
use crate::process::Wake;
use crate::ClusterEngine;

/// One scheduled occurrence in the cluster world.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// One RGP service step at `node`: poll the head active QP, unroll a
    /// fresh WQ entry, chain the next step.
    RgpService {
        /// Node whose RGP advances.
        node: u16,
    },
    /// The RGP at `node` resumes polling after an ITT-full backoff.
    RgpResume {
        /// Node whose RGP leaves the `Stalled` phase.
        node: u16,
    },
    /// The RGP at `node` injects a burst of unrolled line transactions
    /// into the fabric, each at its own initiation-interval-spaced
    /// timestamp (see [`LineBurst`]).
    InjectBurst {
        /// Originating node.
        node: u16,
        /// The run of unrolled cache-line transactions.
        burst: LineBurst,
    },
    /// `pkt` is fully delivered at its destination NI (fabric arrival or
    /// local loopback) and enters the RRPP (requests) or RCP (replies).
    Deliver {
        /// The delivered packet; `pkt.dst` names the receiving node.
        pkt: Packet,
    },
    /// Deliver pending CQ completions to the owner core of `(node, qp)`.
    CqWake {
        /// Node the queue pair lives on.
        node: u16,
        /// Queue pair whose CQ is drained.
        qp: QpId,
    },
    /// Wake `core` on `node` for `reason`.
    CoreWake {
        /// Node the core belongs to.
        node: u16,
        /// Core index within the node.
        core: u16,
        /// Why the core wakes.
        reason: WakeReason,
    },
    /// The retransmission deadline for `tid` at `node` expired. A no-op
    /// when the request already completed (the ITT slot was recycled and
    /// `gen` no longer matches); otherwise the RGP re-injects the missing
    /// lines or aborts the operation once its retry budget is spent.
    RgpTimeout {
        /// Source node that owns the in-flight request.
        node: u16,
        /// Transfer id of the request being watched.
        tid: Tid,
        /// Incarnation the deadline was armed for (ABA guard).
        gen: u8,
    },
    /// `node` crashes: its RMC loses ITT, CT cache, TLB, and retry state,
    /// and in-flight operations abort. Scheduled once at construction per
    /// entry in the fault plan.
    NodeCrash {
        /// Node that fails.
        node: u16,
    },
    /// `node` comes back after a crash: the RGP restarts polling if work
    /// survived in the (host-memory) work queues.
    NodeRestart {
        /// Node that recovers.
        node: u16,
    },
    /// Anchors the event clock at the scheduled time so the simulated
    /// duration includes work performed in a final wake-up; no state
    /// change.
    Anchor {
        /// Node whose core finished.
        node: u16,
    },
}

impl ClusterEvent {
    /// The node this event happens to — the only node whose state its
    /// handler touches, and the only node the handler schedules further
    /// events for (invariant 1 of [`crate::shard`]). The match is
    /// exhaustive on purpose: a new variant has to say whose it is.
    #[inline]
    pub fn node(&self) -> u16 {
        match *self {
            ClusterEvent::RgpService { node }
            | ClusterEvent::RgpResume { node }
            | ClusterEvent::InjectBurst { node, .. }
            | ClusterEvent::CqWake { node, .. }
            | ClusterEvent::CoreWake { node, .. }
            | ClusterEvent::RgpTimeout { node, .. }
            | ClusterEvent::NodeCrash { node }
            | ClusterEvent::NodeRestart { node }
            | ClusterEvent::Anchor { node } => node,
            ClusterEvent::Deliver { ref pkt } => pkt.dst.0,
        }
    }
}

/// Why a [`ClusterEvent::CoreWake`] was scheduled.
///
/// This is the by-value half of [`Wake`]: CQ-completion wake-ups carry a
/// drained `Vec<Completion>` and are delivered through
/// [`ClusterEvent::CqWake`] instead, which drains the ring at delivery
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// First wake-up after `spawn`.
    Start,
    /// A `Step::Sleep` timer expired.
    Timer,
    /// A remote write touched watched memory.
    MemoryTouched {
        /// Base of the watched range that was written.
        addr: VAddr,
    },
    /// A remote interrupt arrived for this core.
    Interrupt {
        /// Originating node.
        from: NodeId,
        /// 8-byte payload the sender attached.
        payload: u64,
    },
}

impl From<WakeReason> for Wake {
    fn from(reason: WakeReason) -> Wake {
        match reason {
            WakeReason::Start => Wake::Start,
            WakeReason::Timer => Wake::Timer,
            WakeReason::MemoryTouched { addr } => Wake::MemoryTouched { addr },
            WakeReason::Interrupt { from, payload } => Wake::Interrupt { from, payload },
        }
    }
}

/// One FNV-1a step folding `x` into the delivery-order hash.
#[inline]
fn fnv_mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

impl World for Cluster {
    type Event = ClusterEvent;

    fn handle(&mut self, engine: &mut ClusterEngine, event: ClusterEvent) {
        // Nothing on this node accesses memory before this event's time
        // again, so its DRAM ledger forgets the buckets behind it (the
        // floor argument in `sonuma_memory::dram`).
        self.node_mut(event.node() as usize)
            .hierarchy
            .retire_before(engine.now());
        match event {
            ClusterEvent::RgpService { node } => self.rgp_service(engine, node as usize),
            ClusterEvent::RgpResume { node } => {
                self.node_mut(node as usize).rmc.rgp.phase = RgpPhase::Polling;
                self.rgp_service(engine, node as usize);
            }
            ClusterEvent::InjectBurst { node, burst } => {
                self.inject_burst(engine, node as usize, burst);
            }
            ClusterEvent::Deliver { pkt } => {
                let dst = pkt.dst.index();
                // A crashed node's NI is dark: packets that arrive inside
                // the crash window vanish before they touch the delivery
                // hash or any pipeline. The window is a pure function of
                // arrival time, so every shard count agrees on the drop.
                if self.node_crashed(dst, engine.now()) {
                    self.node_mut(dst).crash_drops += 1;
                    return;
                }
                // Fold the delivery into the receiver's order hash: equal
                // hashes mean packet-for-packet identical delivery order,
                // which is what the serial-equivalence tests assert across
                // shard counts.
                let node = self.node_mut(dst);
                let mut h = node.deliver_hash;
                h = fnv_mix(h, engine.now().as_ps());
                h = fnv_mix(h, pkt.src.0 as u64);
                h = fnv_mix(h, pkt.tid.0 as u64);
                h = fnv_mix(h, pkt.line_seq as u64);
                node.deliver_hash = h;
                // The receiving RMC's integrity check: corrupted packets
                // (requests and replies alike) are discarded after the
                // order-hash fold, leaving recovery to the source's
                // retransmission timer.
                if pkt.corrupt {
                    node.rmc.rrpp.corrupt_drops += 1;
                } else if pkt.kind == PacketKind::Request {
                    self.rrpp_handle(engine, dst, pkt);
                } else {
                    self.rcp_handle(engine, dst, pkt);
                }
            }
            ClusterEvent::CqWake { node, qp } => self.deliver_cq_wake(engine, node as usize, qp),
            ClusterEvent::CoreWake { node, core, reason } => {
                self.wake_core(engine, node as usize, core as usize, reason.into());
            }
            ClusterEvent::RgpTimeout { node, tid, gen } => {
                self.rgp_timeout(engine, node as usize, tid, gen);
            }
            ClusterEvent::NodeCrash { node } => self.node_crash(engine, node as usize),
            ClusterEvent::NodeRestart { node } => self.node_restart(engine, node as usize),
            ClusterEvent::Anchor { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_reasons_convert() {
        assert_eq!(Wake::from(WakeReason::Start), Wake::Start);
        assert_eq!(Wake::from(WakeReason::Timer), Wake::Timer);
        assert_eq!(
            Wake::from(WakeReason::MemoryTouched {
                addr: VAddr::new(64)
            }),
            Wake::MemoryTouched {
                addr: VAddr::new(64)
            }
        );
        assert_eq!(
            Wake::from(WakeReason::Interrupt {
                from: NodeId(3),
                payload: 9
            }),
            Wake::Interrupt {
                from: NodeId(3),
                payload: 9
            }
        );
    }
}
