//! The Request Generation Pipeline (RGP, §4.2) with QoS-aware QP
//! scheduling.
//!
//! The RGP is the source-side front half of the RMC: it polls registered
//! work queues through the coherence hierarchy, allocates a tid in the ITT
//! for each fresh WQ entry, unrolls multi-line requests into cache-line
//! transactions at the pipeline's initiation interval, and injects request
//! packets into the fabric.
//!
//! Which WQ gets polled next is a policy decision: a node multiplexes
//! many tenant-owned queue pairs through one RGP, and under load the
//! polling order *is* the QoS policy. The [`QpScheduler`] trait makes it
//! pluggable; [`RrScheduler`] (the classic flat rotation),
//! [`WdrrScheduler`] (weighted deficit round-robin over line quanta) and
//! [`StrictScheduler`] (SLO-class priority tiers) implement it.
//!
//! The service loop is an explicit state machine ([`RgpPhase`]): `Idle`
//! when no QP has pending work, `Polling` while a service event is
//! scheduled, and `Stalled` while it backs off from a full ITT — the
//! pipeline's only backpressure point, counted in
//! [`RgpState::itt_full_stalls`].

use std::collections::VecDeque;

use sonuma_memory::{AccessKind, VAddr, CACHE_LINE_BYTES};
use sonuma_protocol::{CtxId, NodeId, Packet, PacketKind, QpId, RemoteOp, Status, Tid, WqEntry};
use sonuma_sim::SimTime;

use super::PipelineStats;
use crate::cluster::Cluster;
use crate::event::ClusterEvent;
use crate::tenancy::SloClass;
use crate::ClusterEngine;

/// Where the RGP's service loop currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RgpPhase {
    /// No active QPs; the next WQ post restarts the loop.
    #[default]
    Idle,
    /// A service event is scheduled (polling or unrolling).
    Polling,
    /// Backing off from a full ITT; retries after a poll interval.
    Stalled,
}

/// Scheduling attributes the RGP resolves for a QP when it activates
/// (from the owning tenant's registration; untagged QPs get the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpClass {
    /// WDRR weight (line quanta per scheduling round).
    pub weight: u32,
    /// Strict-priority level (0 served first).
    pub priority: u8,
}

impl Default for QpClass {
    fn default() -> Self {
        QpClass {
            weight: 1,
            priority: SloClass::Silver.priority(),
        }
    }
}

/// Arbitration policy over a node's active queue pairs.
///
/// The RGP drives the scheduler with a strict call protocol:
///
/// 1. [`QpScheduler::activate`] whenever a QP may have fresh WQ entries
///    (idempotent while the QP is already active);
/// 2. [`QpScheduler::select`] to pick the QP to poll next (stable until
///    the outcome is reported — a stalled RGP re-selects the same QP);
/// 3. exactly one of [`QpScheduler::consumed`] (a WQ entry was serviced,
///    with its unrolled line count as the cost) or
///    [`QpScheduler::emptied`] (the poll found nothing; the QP
///    deactivates until its next `activate`).
pub trait QpScheduler: std::fmt::Debug + Send {
    /// Marks `qp` active with scheduling attributes `class`. Idempotent
    /// while the QP is already active (the class of an active QP is not
    /// re-resolved until it deactivates).
    fn activate(&mut self, qp: QpId, class: QpClass);

    /// The QP the RGP should poll next, or `None` when no QP is active.
    /// Must return the same QP until `consumed`/`emptied` is reported.
    fn select(&mut self) -> Option<QpId>;

    /// Reports that one WQ entry of `qp` was serviced, unrolling into
    /// `lines` cache-line transactions (the scheduling cost unit).
    fn consumed(&mut self, qp: QpId, lines: u32);

    /// Reports that polling `qp` found no fresh entry; deactivates it.
    fn emptied(&mut self, qp: QpId);

    /// Whether any QP is active.
    fn has_work(&self) -> bool;

    /// Times a pending QP was passed over in favor of another by policy
    /// (the starvation-pressure signal; 0 for policies that never skip).
    fn skips(&self) -> u64;

    /// Policy label for reports.
    fn label(&self) -> &'static str;
}

/// Which [`QpScheduler`] a node's RGP runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Flat round-robin rotation (the paper's baseline behavior).
    #[default]
    RoundRobin,
    /// Weighted deficit round-robin over line quanta.
    Wdrr,
    /// Strict SLO-class priority (gold before silver before bronze).
    StrictPriority,
}

impl SchedPolicy {
    /// Builds a fresh scheduler implementing this policy.
    pub fn build(self) -> Box<dyn QpScheduler> {
        match self {
            SchedPolicy::RoundRobin => Box::new(RrScheduler::default()),
            SchedPolicy::Wdrr => Box::new(WdrrScheduler::default()),
            SchedPolicy::StrictPriority => Box::new(StrictScheduler::default()),
        }
    }

    /// Config/report label.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedPolicy::RoundRobin => "rr",
            SchedPolicy::Wdrr => "wdrr",
            SchedPolicy::StrictPriority => "strict",
        }
    }

    /// Parses a config label.
    ///
    /// # Errors
    ///
    /// Returns the unknown label back.
    pub fn parse(s: &str) -> Result<SchedPolicy, String> {
        match s {
            "rr" => Ok(SchedPolicy::RoundRobin),
            "wdrr" => Ok(SchedPolicy::Wdrr),
            "strict" => Ok(SchedPolicy::StrictPriority),
            other => Err(format!("unknown scheduler {other:?} (rr|wdrr|strict)")),
        }
    }
}

/// Grows a per-QP side table to cover `qp`.
fn ensure_slot<T: Clone + Default>(v: &mut Vec<T>, qp: QpId) {
    if v.len() <= qp.index() {
        v.resize(qp.index() + 1, T::default());
    }
}

/// Flat round-robin: every active QP is serviced one WQ entry per turn.
#[derive(Debug, Default)]
pub struct RrScheduler {
    queue: VecDeque<QpId>,
    active: Vec<bool>,
}

impl QpScheduler for RrScheduler {
    fn activate(&mut self, qp: QpId, _class: QpClass) {
        ensure_slot(&mut self.active, qp);
        if !self.active[qp.index()] {
            self.active[qp.index()] = true;
            self.queue.push_back(qp);
        }
    }

    fn select(&mut self) -> Option<QpId> {
        self.queue.front().copied()
    }

    fn consumed(&mut self, qp: QpId, _lines: u32) {
        debug_assert_eq!(self.queue.front(), Some(&qp));
        if let Some(front) = self.queue.pop_front() {
            self.queue.push_back(front);
        }
    }

    fn emptied(&mut self, qp: QpId) {
        debug_assert_eq!(self.queue.front(), Some(&qp));
        self.queue.pop_front();
        self.active[qp.index()] = false;
    }

    fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }

    fn skips(&self) -> u64 {
        0
    }

    fn label(&self) -> &'static str {
        "rr"
    }
}

/// Line quanta one unit of WDRR weight buys per scheduling round. A
/// weight-`w` QP may service up to `w * QUANTUM_LINES` cache-line
/// transactions before yielding the pipeline.
pub const QUANTUM_LINES: i64 = 8;

/// Weighted deficit round-robin over unrolled cache-line counts.
///
/// Each QP accrues `weight * QUANTUM_LINES` of deficit when it reaches
/// the head of the rotation and spends it per serviced line. Because the
/// cost of a WQ entry is only known *after* polling it, the scheduler
/// serves first and charges after, letting the deficit go negative; the
/// debt carries into the next round, so long-run service remains
/// proportional to weight and every nonzero-weight QP is served each
/// rotation (no starvation).
#[derive(Debug, Default)]
pub struct WdrrScheduler {
    queue: VecDeque<QpId>,
    active: Vec<bool>,
    weight: Vec<u32>,
    deficit: Vec<i64>,
    head_charged: bool,
}

impl QpScheduler for WdrrScheduler {
    fn activate(&mut self, qp: QpId, class: QpClass) {
        ensure_slot(&mut self.active, qp);
        ensure_slot(&mut self.weight, qp);
        ensure_slot(&mut self.deficit, qp);
        if !self.active[qp.index()] {
            self.active[qp.index()] = true;
            self.weight[qp.index()] = class.weight.max(1);
            self.queue.push_back(qp);
        }
    }

    fn select(&mut self) -> Option<QpId> {
        self.queue.front()?;
        // Rotate past QPs still repaying debt from oversized requests;
        // each pass adds a quantum, so every nonzero-weight QP surfaces
        // within a bounded number of rotations (no starvation).
        loop {
            let qp = *self.queue.front().expect("checked nonempty");
            if !self.head_charged {
                self.deficit[qp.index()] += self.weight[qp.index()] as i64 * QUANTUM_LINES;
                self.head_charged = true;
            }
            if self.deficit[qp.index()] > 0 {
                return Some(qp);
            }
            let front = self.queue.pop_front().expect("checked nonempty");
            self.queue.push_back(front);
            self.head_charged = false;
        }
    }

    fn consumed(&mut self, qp: QpId, lines: u32) {
        debug_assert_eq!(self.queue.front(), Some(&qp));
        self.deficit[qp.index()] -= lines as i64;
        if self.deficit[qp.index()] <= 0 {
            if let Some(front) = self.queue.pop_front() {
                self.queue.push_back(front);
            }
            self.head_charged = false;
        }
    }

    fn emptied(&mut self, qp: QpId) {
        debug_assert_eq!(self.queue.front(), Some(&qp));
        self.queue.pop_front();
        self.active[qp.index()] = false;
        // An emptied queue forfeits its unspent deficit (classic DRR),
        // but keeps its debt: a huge request cannot be laundered by
        // draining and re-posting.
        self.deficit[qp.index()] = self.deficit[qp.index()].min(0);
        self.head_charged = false;
    }

    fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }

    fn skips(&self) -> u64 {
        0
    }

    fn label(&self) -> &'static str {
        "wdrr"
    }
}

/// Strict SLO-class priority: gold QPs are always served before silver,
/// silver before bronze; within a level, round-robin. Lower classes can
/// starve under sustained high-priority load — [`StrictScheduler::skips`]
/// counts every pass-over so that pressure is observable.
#[derive(Debug, Default)]
pub struct StrictScheduler {
    levels: [VecDeque<QpId>; SloClass::LEVELS],
    active: Vec<bool>,
    level_of: Vec<u8>,
    skips: u64,
}

impl QpScheduler for StrictScheduler {
    fn activate(&mut self, qp: QpId, class: QpClass) {
        ensure_slot(&mut self.active, qp);
        ensure_slot(&mut self.level_of, qp);
        if !self.active[qp.index()] {
            self.active[qp.index()] = true;
            let level = (class.priority as usize).min(SloClass::LEVELS - 1);
            self.level_of[qp.index()] = level as u8;
            self.levels[level].push_back(qp);
        }
    }

    fn select(&mut self) -> Option<QpId> {
        let level = self.levels.iter().position(|q| !q.is_empty())?;
        self.levels[level].front().copied()
    }

    fn consumed(&mut self, qp: QpId, _lines: u32) {
        let level = self.level_of[qp.index()] as usize;
        debug_assert_eq!(self.levels[level].front(), Some(&qp));
        // One WQ entry was genuinely serviced past every pending
        // lower-priority QP: count the pass-overs here (not in select,
        // which ITT-stall retries and empty polls re-invoke without
        // servicing anything — that would inflate the metric with
        // timing-dependent recounts).
        self.skips += self.levels[level + 1..]
            .iter()
            .map(|q| q.len() as u64)
            .sum::<u64>();
        if let Some(front) = self.levels[level].pop_front() {
            self.levels[level].push_back(front);
        }
    }

    fn emptied(&mut self, qp: QpId) {
        let level = self.level_of[qp.index()] as usize;
        debug_assert_eq!(self.levels[level].front(), Some(&qp));
        self.levels[level].pop_front();
        self.active[qp.index()] = false;
    }

    fn has_work(&self) -> bool {
        self.levels.iter().any(|q| !q.is_empty())
    }

    fn skips(&self) -> u64 {
        self.skips
    }

    fn label(&self) -> &'static str {
        "strict"
    }
}

/// Per-node RGP state machine and counters.
#[derive(Debug)]
pub struct RgpState {
    /// Current service-loop phase.
    pub phase: RgpPhase,
    /// The QoS policy arbitrating between active QPs.
    pub scheduler: Box<dyn QpScheduler>,
    /// WQ requests launched (tid allocated, unroll started).
    pub requests: u64,
    /// Line packets injected into the fabric.
    pub lines: u64,
    /// WQ ring reads performed while polling.
    pub wq_polls: u64,
    /// WQ polls that found no fresh entry.
    pub empty_polls: u64,
    /// Service retries forced by a full ITT (backpressure).
    pub itt_full_stalls: u64,
    /// Retransmission deadlines that fired with replies still missing
    /// (fault runs only).
    pub timeouts: u64,
    /// Line packets re-injected by the retransmission path.
    pub retransmits: u64,
}

impl Default for RgpState {
    fn default() -> Self {
        RgpState::with_policy(SchedPolicy::RoundRobin)
    }
}

impl RgpState {
    /// Fresh state running `policy`.
    pub fn with_policy(policy: SchedPolicy) -> Self {
        RgpState {
            phase: RgpPhase::default(),
            scheduler: policy.build(),
            requests: 0,
            lines: 0,
            wq_polls: 0,
            empty_polls: 0,
            itt_full_stalls: 0,
            timeouts: 0,
            retransmits: 0,
        }
    }

    /// Whether a service event is currently scheduled.
    pub fn busy(&self) -> bool {
        self.phase != RgpPhase::Idle
    }

    /// This pipeline's slice of a [`PipelineStats`] snapshot.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            rgp_requests: self.requests,
            rgp_lines: self.lines,
            rgp_wq_polls: self.wq_polls,
            rgp_empty_polls: self.empty_polls,
            rgp_itt_stalls: self.itt_full_stalls,
            rgp_sched_skips: self.scheduler.skips(),
            rgp_timeouts: self.timeouts,
            rgp_retransmits: self.retransmits,
            ..PipelineStats::default()
        }
    }
}

/// A run of unrolled cache-line transactions queued for injection by the
/// RGP (carried by value inside [`ClusterEvent::InjectBurst`]; the fields
/// are pipeline-internal). Line `k` of the burst targets
/// `offset + k·64` with sequence `first_seq + k` and is injected at the
/// event's time plus `k` initiation intervals — identical per-line timing
/// to one event per line, at a fraction of the engine churn.
#[derive(Debug, Clone, Copy)]
pub struct LineBurst {
    pub(crate) dst: NodeId,
    pub(crate) ctx: CtxId,
    pub(crate) tid: Tid,
    pub(crate) op: RemoteOp,
    /// Segment offset of the burst's first line.
    pub(crate) offset: u64,
    /// `line_seq` of the burst's first line.
    pub(crate) first_seq: u32,
    /// Lines in this burst (≥ 1).
    pub(crate) count: u32,
    /// Local VA the first line's payload is read from (writes only;
    /// subsequent lines stride by one cache line).
    pub(crate) payload_src: Option<VAddr>,
    /// Operand words (atomics/interrupts).
    pub(crate) operands: (u64, u64),
    /// Retransmission generation of the tid incarnation this burst
    /// belongs to (0 on the initial unroll; see `crate::fault`). A burst
    /// whose generation no longer matches the tid's is stale — the
    /// operation was aborted — and injects nothing.
    pub(crate) gen: u8,
}

impl Cluster {
    /// Notifies the RGP that `qp` may have fresh WQ entries (the coherence
    /// hint of a core's WQ store). Called by the access library after every
    /// post.
    pub(crate) fn notify_rgp(
        &mut self,
        engine: &mut ClusterEngine,
        now: SimTime,
        n: usize,
        qp: QpId,
    ) {
        let node = self.node_mut(n);
        let class = node
            .tenants
            .qp_tenant(qp)
            .map(|spec| QpClass {
                weight: spec.weight,
                priority: spec.slo.priority(),
            })
            .unwrap_or_default();
        node.rmc.rgp.scheduler.activate(qp, class);
        if !node.rmc.rgp.busy() {
            node.rmc.rgp.phase = RgpPhase::Polling;
            // Detection latency: on average half a poll interval elapses
            // before the polling loop re-reads this WQ.
            let detect = node.rmc.timing.poll_interval / 2;
            engine.schedule_at(now + detect, ClusterEvent::RgpService { node: n as u16 });
        }
    }

    /// One RGP service step: poll the QP the scheduler picks, consume at
    /// most one WQ entry, unroll it, and chain.
    pub(crate) fn rgp_service(&mut self, engine: &mut ClusterEngine, n: usize) {
        let now = engine.now();
        let burst = self.config().rgp_burst_lines.max(1);
        let fault_timeout = self.config().fabric.faults.as_ref().map(|p| p.timeout);
        if self.node_crashed(n, now) {
            // A crashed RMC serves nothing; the restart event re-kicks the
            // service loop (the scheduler keeps its pending QPs).
            self.node_mut(n).rmc.rgp.phase = RgpPhase::Idle;
            return;
        }
        let node = self.node_mut(n);
        let timing = node.rmc.timing;

        let Some(qp) = node.rmc.rgp.scheduler.select() else {
            node.rmc.rgp.phase = RgpPhase::Idle;
            return;
        };

        // Fetch the WQ entry at the RMC's consumer cursor through the
        // coherent hierarchy (this is where the core-to-RMC cache-to-cache
        // transfer of a fresh entry is paid).
        let (wq_index, expected_phase) = node.rmc.qps[qp.index()].wq_cursor();
        let wq_va = node.rmc.qps[qp.index()].wq_entry_addr(wq_index);
        let (pa, t_xl) = node.rmc_translate(now, wq_va);
        let pa = pa.expect("WQ rings are pinned by the driver");
        let t_read = node.rmc_line_access(t_xl, pa, AccessKind::Read);
        let mut line = [0u8; 64];
        node.read_translated(wq_va, pa, &mut line)
            .expect("WQ rings are mapped");
        node.rmc.rgp.wq_polls += 1;

        let parsed = WqEntry::decode(&line).filter(|(_, phase)| *phase == expected_phase);
        let Some((entry, _)) = parsed else {
            // No new entry: deactivate this QP until its next post.
            node.rmc.rgp.empty_polls += 1;
            node.rmc.rgp.scheduler.emptied(qp);
            if !node.rmc.rgp.scheduler.has_work() {
                node.rmc.rgp.phase = RgpPhase::Idle;
            } else {
                engine.schedule_at(t_read, ClusterEvent::RgpService { node: n as u16 });
            }
            return;
        };

        if node.rmc.itt.is_full() {
            // All tids in flight: back off and retry after a poll interval.
            // The scheduler is untouched, so the resume re-selects this QP.
            node.rmc.rgp.phase = RgpPhase::Stalled;
            node.rmc.rgp.itt_full_stalls += 1;
            engine.schedule_at(
                now + timing.poll_interval,
                ClusterEvent::RgpResume { node: n as u16 },
            );
            return;
        }

        let lines = entry.lines();
        let tid = node
            .rmc
            .itt
            .alloc(qp, wq_index, lines, entry.buf_vaddr)
            .expect("checked not full");
        node.rmc.qps[qp.index()].advance_wq();
        node.rmc.rgp.requests += 1;
        node.tenants.note_request(qp);

        // Unroll into line-sized transactions (§4.2): one injection every
        // initiation interval, scheduled `rgp_burst_lines` to an event so
        // a large transfer costs O(lines / burst) engine events while
        // every line keeps its own injection timestamp.
        let t0 = t_read + timing.rgp_per_request;
        // Under a fault plan the source arms a retransmission deadline per
        // request: the retry table records everything needed to re-inject
        // missing lines, and the timer fires once every line has had time
        // to complete a round trip.
        let mut gen = 0u8;
        if let Some(timeout) = fault_timeout {
            gen = node
                .retry
                .insert(tid, crate::fault::RetryState::new(&entry, lines));
            let deadline = t0 + timing.unroll_interval * (lines - 1) as u64 + timeout;
            engine.schedule_at(
                deadline,
                ClusterEvent::RgpTimeout {
                    node: n as u16,
                    tid,
                    gen,
                },
            );
        }
        let mut k = 0u32;
        while k < lines {
            let count = burst.min(lines - k);
            engine.schedule_at(
                t0 + timing.unroll_interval * k as u64,
                ClusterEvent::InjectBurst {
                    node: n as u16,
                    burst: LineBurst {
                        dst: entry.dst,
                        ctx: entry.ctx,
                        tid,
                        op: entry.op,
                        offset: entry.offset + k as u64 * CACHE_LINE_BYTES,
                        first_seq: k,
                        count,
                        payload_src: (entry.op == RemoteOp::Write)
                            .then(|| VAddr::new(entry.buf_vaddr + k as u64 * CACHE_LINE_BYTES)),
                        operands: (entry.operand1, entry.operand2),
                        gen,
                    },
                },
            );
            k += count;
        }

        // Charge the service to the scheduler and chain the next step once
        // the unroll finishes occupying the pipeline.
        node.rmc.rgp.scheduler.consumed(qp, lines);
        let t_next = (t0 + timing.unroll_interval * lines as u64).max(now + timing.stage_local);
        engine.schedule_at(t_next, ClusterEvent::RgpService { node: n as u16 });
    }

    /// Injects a burst of unrolled line transactions into the fabric
    /// (reading the payload for writes). Line `k` of the burst is injected
    /// at the event time plus `k` initiation intervals — exactly the
    /// timestamps the lines would get as individual events.
    pub(crate) fn inject_burst(&mut self, engine: &mut ClusterEngine, n: usize, spec: LineBurst) {
        let now = engine.now();
        if self.config().fabric.faults.is_some() {
            // A burst outlives its operation when the node crashes or the
            // retry budget runs out mid-unroll: the tid was aborted (and
            // its generation bumped), so the burst injects nothing.
            if self.node_crashed(n, now) || !self.node(n).retry.matches(spec.tid, spec.gen) {
                return;
            }
        }
        let unroll = self.node(n).rmc.timing.unroll_interval;
        // One engine event stands in for `count` logical injections; keep
        // the logical-event count batching-invariant for throughput
        // reporting.
        self.batched_logical_events += spec.count as u64 - 1;
        for k in 0..spec.count {
            self.inject_line_at(engine, n, &spec, k, now + unroll * k as u64);
        }
    }

    /// Injects line `k` of `spec` starting its pipeline work at `at`.
    fn inject_line_at(
        &mut self,
        engine: &mut ClusterEngine,
        n: usize,
        spec: &LineBurst,
        k: u32,
        at: SimTime,
    ) {
        let node = self.node_mut(n);
        let timing = node.rmc.timing;
        let src = NodeId(n as u16);
        let line_bytes = k as u64 * CACHE_LINE_BYTES;

        let mut t = at;
        let mut payload: Option<[u8; 64]> = None;
        match spec.op {
            RemoteOp::Write => {
                let base = spec.payload_src.expect("writes carry a payload source");
                let va = VAddr::new(base.raw() + line_bytes);
                let (pa, t_xl) = node.rmc_translate(t, va);
                let pa = pa.expect("local buffer validated at post time");
                t = node.rmc_line_access(t_xl, pa, AccessKind::Read);
                let mut buf = [0u8; 64];
                node.read_translated(va, pa, &mut buf)
                    .expect("local buffer mapped");
                payload = Some(buf);
            }
            RemoteOp::FetchAdd | RemoteOp::CompSwap | RemoteOp::Interrupt => {
                let mut buf = [0u8; 64];
                buf[0..8].copy_from_slice(&spec.operands.0.to_le_bytes());
                buf[8..16].copy_from_slice(&spec.operands.1.to_le_bytes());
                payload = Some(buf);
                t += timing.stage_local;
            }
            RemoteOp::Read => {
                t += timing.stage_local;
            }
        }

        let pkt = Packet {
            kind: PacketKind::Request,
            dst: spec.dst,
            src,
            ctx: spec.ctx,
            tid: spec.tid,
            op: spec.op,
            status: Status::Ok,
            offset: spec.offset + line_bytes,
            line_seq: spec.first_seq + k,
            payload,
            gen: spec.gen,
            corrupt: false,
        };
        node.rmc.rgp.lines += 1;
        self.route_packet(engine, t, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp(i: u16) -> QpId {
        QpId(i)
    }

    fn class(weight: u32, priority: u8) -> QpClass {
        QpClass { weight, priority }
    }

    #[test]
    fn rr_rotates_and_deactivates() {
        let mut s = RrScheduler::default();
        s.activate(qp(0), QpClass::default());
        s.activate(qp(1), QpClass::default());
        s.activate(qp(0), QpClass::default()); // idempotent
        assert_eq!(s.select(), Some(qp(0)));
        s.consumed(qp(0), 1);
        assert_eq!(s.select(), Some(qp(1)));
        s.emptied(qp(1));
        assert_eq!(s.select(), Some(qp(0)));
        s.emptied(qp(0));
        assert!(!s.has_work());
        assert_eq!(s.select(), None);
    }

    #[test]
    fn wdrr_service_is_weight_proportional() {
        let mut s = WdrrScheduler::default();
        s.activate(qp(0), class(3, 1));
        s.activate(qp(1), class(1, 1));
        let mut served = [0u64; 2];
        // Both queues stay backlogged; single-line requests.
        for _ in 0..4000 {
            let q = s.select().unwrap();
            served[q.index()] += 1;
            s.consumed(q, 1);
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (2.5..3.5).contains(&ratio),
            "weight-3 vs weight-1 served {served:?} (ratio {ratio})"
        );
    }

    #[test]
    fn wdrr_big_requests_carry_debt() {
        let mut s = WdrrScheduler::default();
        s.activate(qp(0), class(1, 1));
        s.activate(qp(1), class(1, 1));
        let mut served_lines = [0i64; 2];
        for _ in 0..2000 {
            let q = s.select().unwrap();
            // QP 0 posts 128-line (8 KiB) requests, QP 1 single lines.
            let lines = if q.index() == 0 { 128 } else { 1 };
            served_lines[q.index()] += lines as i64;
            s.consumed(q, lines);
        }
        let ratio = served_lines[0] as f64 / served_lines[1] as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "equal weights must get equal line service: {served_lines:?}"
        );
    }

    #[test]
    fn strict_serves_gold_first_and_counts_skips() {
        let mut s = StrictScheduler::default();
        s.activate(qp(0), class(1, SloClass::Bronze.priority()));
        s.activate(qp(1), class(1, SloClass::Gold.priority()));
        assert_eq!(s.select(), Some(qp(1)), "gold preempts bronze");
        assert_eq!(s.skips(), 0, "selection alone is not a pass-over");
        s.consumed(qp(1), 1);
        assert_eq!(s.skips(), 1, "bronze was serviced past");
        assert_eq!(s.select(), Some(qp(1)), "gold keeps the pipeline");
        assert_eq!(s.skips(), 1, "re-selection does not re-count");
        s.emptied(qp(1));
        assert_eq!(s.select(), Some(qp(0)), "bronze runs once gold drains");
        s.consumed(qp(0), 1);
        assert!(s.has_work());
    }

    #[test]
    fn policy_labels_roundtrip() {
        for p in [
            SchedPolicy::RoundRobin,
            SchedPolicy::Wdrr,
            SchedPolicy::StrictPriority,
        ] {
            assert_eq!(SchedPolicy::parse(p.as_str()).unwrap(), p);
            assert_eq!(p.build().label(), p.as_str());
        }
        assert!(SchedPolicy::parse("fifo").is_err());
    }

    #[test]
    fn schedulers_report_idle_when_drained() {
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::Wdrr,
            SchedPolicy::StrictPriority,
        ] {
            let mut s = policy.build();
            assert_eq!(s.select(), None);
            s.activate(qp(2), QpClass::default());
            assert_eq!(s.select(), Some(qp(2)));
            s.emptied(qp(2));
            assert!(!s.has_work(), "{policy:?} must drain");
        }
    }
}
