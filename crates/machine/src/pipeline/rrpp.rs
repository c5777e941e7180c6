//! The Remote Request Processing Pipeline (RRPP, §4.2, §6).
//!
//! The RRPP is the destination-side pipeline: it services incoming request
//! packets *statelessly* — everything it needs is in the packet header plus
//! this node's Context Table and page tables — and sends exactly one reply
//! per request. Stages per packet: CT/CT$ lookup, bounds check, TLB or
//! hardware page-walk translation, one coherent local memory access
//! (including atomics executed in the destination's cache hierarchy), and
//! reply generation. Error paths (bad context, out-of-bounds offset) skip
//! the memory access and reply with the error status (§4.2).

use sonuma_memory::{AccessKind, CACHE_LINE_BYTES};
use sonuma_protocol::{Packet, RemoteOp, Status};

use super::PipelineStats;
use crate::cluster::Cluster;
use crate::ClusterEngine;

/// Per-node RRPP counters (the pipeline itself is stateless).
#[derive(Debug, Default)]
pub struct RrppState {
    /// Request packets serviced.
    pub served: u64,
    /// Context lookups that missed the CT$.
    pub ct_misses: u64,
    /// Error replies generated (context/bounds violations).
    pub errors: u64,
    /// Remote-interrupt requests handled (§8 extension).
    pub interrupts: u64,
    /// Packets this node's NI discarded as corrupted. Incremented by the
    /// central delivery integrity check for requests *and* replies (the
    /// check models the receiving RMC's CRC, which runs before the
    /// packet is steered to a pipeline); zero without a fault plan.
    pub corrupt_drops: u64,
}

impl RrppState {
    /// This pipeline's slice of a [`PipelineStats`] snapshot.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            rrpp_served: self.served,
            rrpp_ct_misses: self.ct_misses,
            rrpp_errors: self.errors,
            rrpp_interrupts: self.interrupts,
            rrpp_corrupt_drops: self.corrupt_drops,
            ..PipelineStats::default()
        }
    }
}

impl Cluster {
    /// Services one incoming request packet at node `n` and sends exactly
    /// one reply.
    pub(crate) fn rrpp_handle(&mut self, engine: &mut ClusterEngine, n: usize, pkt: Packet) {
        let now = engine.now();
        let node = self.node_mut(n);
        let timing = node.rmc.timing;
        node.rmc.rrpp.served += 1;

        let mut t = now + timing.rrpp_per_packet;
        if !node.rmc.ct_cache.touch(pkt.ctx) {
            node.rmc.rrpp.ct_misses += 1;
            t += timing.ct_miss_penalty;
        }

        // Remote interrupt (§8 extension): validate the context, then hand
        // the payload to the registered handler core — no memory access.
        if pkt.op == RemoteOp::Interrupt {
            node.rmc.rrpp.interrupts += 1;
            let status = match node.rmc.ct.lookup(pkt.ctx) {
                Ok(_) => {
                    let payload = pkt
                        .payload
                        .map(|p| u64::from_le_bytes(p[0..8].try_into().unwrap()))
                        .unwrap_or(0);
                    if node.interrupt_handler.is_some() {
                        node.pending_interrupts.push_back((pkt.src, payload));
                        self.deliver_interrupt(engine, n, t);
                    } else {
                        self.node_mut(n).interrupts_dropped += 1;
                    }
                    Status::Ok
                }
                Err(status) => {
                    node.rmc.rrpp.errors += 1;
                    status
                }
            };
            let reply = Packet::reply_to(&pkt, status, None);
            let t = t + self.node(n).rmc.timing.stage_local;
            self.route_packet(engine, t, reply);
            return;
        }

        let size = if pkt.op.is_atomic() {
            8
        } else {
            CACHE_LINE_BYTES
        };
        // Stateless handling: everything below uses only the packet header
        // and this node's CT/page tables.
        let resolved = node
            .rmc
            .ct
            .lookup(pkt.ctx)
            .and_then(|entry| entry.resolve(pkt.offset, size));
        let va = match resolved {
            Ok(va) => va,
            Err(status) => {
                node.rmc.rrpp.errors += 1;
                let reply = Packet::reply_to(&pkt, status, None);
                self.route_packet(engine, t + timing.stage_local, reply);
                return;
            }
        };

        let (pa, t_xl) = node.rmc_translate(t, va);
        let Ok(pa) = pa else {
            // Mapped-segment invariant violated only by teardown races;
            // surface as a bounds error per the paper's error reply path.
            node.rmc.rrpp.errors += 1;
            let reply = Packet::reply_to(&pkt, Status::OutOfBounds, None);
            self.route_packet(engine, t + timing.stage_local, reply);
            return;
        };

        let kind = match pkt.op {
            RemoteOp::Read => AccessKind::Read,
            _ => AccessKind::Write,
        };
        let t_mem = node.rmc_line_access(t_xl, pa, kind);

        let mut reply_payload: Option<[u8; 64]> = None;
        match pkt.op {
            RemoteOp::Interrupt => unreachable!("handled before translation"),
            RemoteOp::Read => {
                let mut buf = [0u8; 64];
                node.read_translated(va, pa, &mut buf)
                    .expect("segment mapped");
                reply_payload = Some(buf);
            }
            RemoteOp::Write => {
                let data = pkt.payload.expect("write request carries payload");
                node.write_translated(va, pa, &data)
                    .expect("segment mapped");
            }
            RemoteOp::FetchAdd => {
                let delta = pkt
                    .payload
                    .map(|p| u64::from_le_bytes(p[0..8].try_into().unwrap()))
                    .expect("fetch-add carries operands");
                let old = node.phys.fetch_add_u64(pa, delta);
                let mut buf = [0u8; 64];
                buf[0..8].copy_from_slice(&old.to_le_bytes());
                reply_payload = Some(buf);
            }
            RemoteOp::CompSwap => {
                let p = pkt.payload.expect("compare-swap carries operands");
                let expected = u64::from_le_bytes(p[0..8].try_into().unwrap());
                let new = u64::from_le_bytes(p[8..16].try_into().unwrap());
                let old = node.phys.compare_swap_u64(pa, expected, new);
                let mut buf = [0u8; 64];
                buf[0..8].copy_from_slice(&old.to_le_bytes());
                reply_payload = Some(buf);
            }
        }

        // Remote writes/atomics may satisfy a memory watch (a core polling
        // its receive buffer).
        if kind == AccessKind::Write {
            self.trigger_watches(engine, n, va, size, t_mem);
        }

        let reply = Packet::reply_to(&pkt, Status::Ok, reply_payload);
        self.route_packet(engine, t_mem + timing.stage_local, reply);
    }
}
