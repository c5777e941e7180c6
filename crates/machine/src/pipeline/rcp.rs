//! The Request Completion Pipeline (RCP, §4.2).
//!
//! The RCP is the source-side back half of the RMC: it matches each reply
//! packet to its in-flight transaction via the ITT (by the echoed `tid`),
//! scatters read/atomic payloads into the application's buffer through the
//! coherent hierarchy, and — once the last line of a request has arrived —
//! posts a CQ entry and hands wake-up scheduling to the core scheduler.
//! Replies arrive out of order across requests; ordering within a request
//! is irrelevant because each line carries its own `line_seq`.
//!
//! When a fault plan is active the RCP also deduplicates: retransmission
//! means a line can be answered twice (the original reply raced the
//! timeout), and a recycled tid can receive replies from a previous
//! incarnation. Both are filtered against the retry table's per-line
//! bitmap and generation stamp *before* the ITT sees them, keeping the
//! ITT's exact line accounting intact.

use sonuma_memory::{AccessKind, VAddr, CACHE_LINE_BYTES};
use sonuma_protocol::{CqEntry, Packet, QpId, RemoteOp, Status};
use sonuma_rmc::ReplyAction;
use sonuma_sim::SimTime;

use super::PipelineStats;
use crate::cluster::Cluster;
use crate::ClusterEngine;

/// Per-node RCP counters (transaction state itself lives in the ITT).
#[derive(Debug, Default)]
pub struct RcpState {
    /// Reply packets processed.
    pub replies: u64,
    /// CQ entries posted (WQ requests fully completed).
    pub completions: u64,
    /// Replies discarded by the fault-recovery dedup filter: stale tid,
    /// stale generation, or a line already accounted. Zero unless a fault
    /// plan is active.
    pub stale_drops: u64,
}

impl RcpState {
    /// This pipeline's slice of a [`PipelineStats`] snapshot.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            rcp_replies: self.replies,
            rcp_completions: self.completions,
            ..PipelineStats::default()
        }
    }
}

impl Cluster {
    /// Processes one reply at the originating node `n`.
    pub(crate) fn rcp_handle(&mut self, engine: &mut ClusterEngine, n: usize, pkt: Packet) {
        let now = engine.now();
        let faults_on = self.config().fabric.faults.is_some();
        let node = self.node_mut(n);
        let timing = node.rmc.timing;
        node.rmc.rcp.replies += 1;

        // Fault-recovery dedup: only replies that match the live
        // incarnation of the tid and carry a not-yet-seen line may reach
        // the ITT. Anything else is a ghost of a retransmitted or aborted
        // request.
        if faults_on {
            let fresh = match node.retry.get_mut(pkt.tid) {
                Some(state) => state.gen == pkt.gen && state.mark_received(pkt.line_seq),
                None => false,
            };
            if !fresh {
                node.rmc.rcp.stale_drops += 1;
                return;
            }
        }

        let mut t = now + timing.rcp_per_packet;

        // Scatter the payload into the application buffer (reads/atomics).
        if pkt.status.is_ok() && pkt.op.reply_carries_payload() {
            let base = node.rmc.itt.buf_vaddr(pkt.tid);
            let dest = VAddr::new(base + pkt.line_seq as u64 * CACHE_LINE_BYTES);
            let (pa, t_xl) = node.rmc_translate(t, dest);
            let pa = pa.expect("local buffer validated at post time");
            t = node.rmc_line_access(t_xl, pa, AccessKind::Write);
            let payload = pkt.payload.expect("reply carries payload");
            if pkt.op.is_atomic() {
                node.write_translated(dest, pa, &payload[0..8])
                    .expect("buffer mapped");
            } else {
                node.write_translated(dest, pa, &payload)
                    .expect("buffer mapped");
                node.bytes_read += CACHE_LINE_BYTES;
            }
        } else if pkt.op == RemoteOp::Write {
            node.bytes_written += CACHE_LINE_BYTES;
            t += timing.stage_local;
        }

        match node.rmc.itt.on_reply(pkt.tid, pkt.status) {
            ReplyAction::InProgress => {}
            ReplyAction::Complete {
                qp,
                wq_index,
                status,
            } => {
                // Retire the retry state with the tid; `remove` is a
                // no-op on fault-free runs (the table never grew).
                node.retry.remove(pkt.tid);
                self.complete_to_cq(engine, n, qp, wq_index, status, t);
            }
        }
    }

    /// Posts a CQ entry for `(qp, wq_index)` at node `n` through the
    /// coherent hierarchy and schedules the owner core's wake-up. Shared
    /// by the normal completion path above and the fault paths (retry
    /// exhaustion, node crash) that post [`Status::Aborted`] entries.
    pub(crate) fn complete_to_cq(
        &mut self,
        engine: &mut ClusterEngine,
        n: usize,
        qp: QpId,
        wq_index: u16,
        status: Status,
        mut t: SimTime,
    ) {
        let node = self.node_mut(n);
        let (cq_index, cq_phase) = node.rmc.qps[qp.index()].cq_cursor();
        let cq_va = node.rmc.qps[qp.index()].cq_entry_addr(cq_index);
        let (pa, t_xl) = node.rmc_translate(t, cq_va);
        let pa = pa.expect("CQ rings are pinned");
        t = node.rmc_line_access(t_xl, pa, AccessKind::Write);
        let bytes = CqEntry { wq_index, status }.encode(cq_phase);
        node.write_translated(cq_va, pa, &bytes).expect("CQ mapped");
        node.rmc.qps[qp.index()].advance_cq();
        node.rmc.rcp.completions += 1;
        node.ops_completed += 1;
        node.tenants.note_completion(qp);
        self.maybe_cq_wake(engine, n, qp, t);
    }
}
