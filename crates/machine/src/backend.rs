//! [`SonumaBackend`]: the soNUMA machine behind the transport-agnostic
//! [`RemoteBackend`] contract.
//!
//! The backend owns a [`ShardedCluster`] — the cluster partitioned into
//! per-thread shards advancing in conservative epochs — and drives tenant
//! channels (one queue pair per `(node, channel)`) from outside the
//! simulation: posts go through the same access-library path simulated
//! applications use ([`crate::NodeApi`]), so they pay WQ-store, RGP,
//! fabric, RRPP and RCP costs exactly as §4.2 models them. With
//! `threads = 1` the cluster is a single shard and execution is serial;
//! with `threads = N` the shards run on `N` OS threads, and the epoch
//! merge keeps every simulated outcome bit-identical to the serial run
//! (see [`crate::shard`] for the argument). Channels registered with
//! [`SonumaBackend::register_tenant_channel`] are scheduled by the RGP
//! under their tenant's weight and SLO class.

use std::collections::BTreeMap;

use sonuma_fabric::{Fabric, ShardPlan};
use sonuma_memory::{VAddr, BLOCK_BYTES};
use sonuma_protocol::{
    BackendError, CtxId, NodeId, QpId, RemoteBackend, RemoteCompletion, RemoteOp, RemoteRequest,
    TenantId,
};
use sonuma_sim::SimTime;

use crate::api::{ApiError, NodeApi};
use crate::config::MachineConfig;
use crate::pipeline::PipelineStats;
use crate::shard::ShardedCluster;
use crate::tenancy::{SloClass, TenantSpec, TenantStats};

const BACKEND_CTX: CtxId = CtxId(0);

/// One posted-but-not-yet-reported operation.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    token: u64,
    op: RemoteOp,
    len: u64,
    /// The landing buffer it was posted with and that buffer's span: the
    /// slot's pooled buffer at post time (a later post that outgrows it
    /// while this op is in flight replaces the pool's, not this one).
    buf: VAddr,
    span: u64,
}

/// Driver state of one WQ slot.
#[derive(Debug, Default)]
struct Slot {
    /// The landing buffer pooled for the slot and its span, grown on
    /// demand and reused by every operation the slot carries.
    pooled: Option<(VAddr, u64)>,
    /// The operation in flight on the slot (unique among outstanding
    /// operations on one QP).
    pending: Option<PendingOp>,
}

/// Driver state of one tenant channel: its queue pair and one [`Slot`]
/// per WQ slot, indexed by slot and grown to the highest slot posted (a
/// channel that keeps a few operations in flight never pays for the
/// rest of its ring).
#[derive(Debug)]
struct ChannelPort {
    qp: QpId,
    slots: Vec<Slot>,
}

impl ChannelPort {
    fn new(qp: QpId) -> Self {
        ChannelPort {
            qp,
            slots: Vec::new(),
        }
    }
}

/// Per-node driver state: tenant channels (ordered map — harvest order,
/// and therefore report content, is independent of registration pattern)
/// plus the node-wide completion staging area and token counter.
#[derive(Debug, Default)]
struct NodePort {
    channels: BTreeMap<u32, ChannelPort>,
    ready: Vec<RemoteCompletion>,
    next_token: u64,
}

/// The full soNUMA machine exposed as a [`RemoteBackend`].
///
/// # Example
///
/// ```
/// use sonuma_machine::SonumaBackend;
/// use sonuma_protocol::{NodeId, RemoteBackend, RemoteRequest};
///
/// let mut b = SonumaBackend::simulated_hardware(2, 1 << 20);
/// b.write_ctx(NodeId(1), 0, &[0xAB; 64]);
/// let t = b.post(NodeId(0), RemoteRequest::read(NodeId(1), 0, 64)).unwrap();
/// let done = b.complete_all(NodeId(0));
/// assert_eq!(done[0].token, t);
/// assert_eq!(done[0].data, vec![0xAB; 64]);
/// ```
pub struct SonumaBackend {
    sharded: ShardedCluster,
    ports: Vec<NodePort>,
    segment_len: u64,
    /// Idle-clock floor (`advance_clock_to`): the externally visible
    /// `now()` never lags behind a requested jump even while events are
    /// still catching up.
    clock_floor: SimTime,
}

impl std::fmt::Debug for SonumaBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SonumaBackend")
            .field("nodes", &self.sharded.num_nodes())
            .field("shards", &self.sharded.num_shards())
            .field("now", &self.now())
            .finish()
    }
}

impl SonumaBackend {
    /// Builds a single-threaded (one-shard) backend over `config` with a
    /// `segment_len`-byte context on every node.
    ///
    /// # Panics
    ///
    /// Panics if the segment cannot be mapped.
    pub fn new(config: MachineConfig, segment_len: u64) -> Self {
        Self::with_threads(config, segment_len, 1)
    }

    /// Builds a backend whose cluster is sharded across `threads` OS
    /// threads (topology-aware contiguous partition). Results are
    /// bit-identical for every `threads` value; only wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or the segment cannot be mapped.
    pub fn with_threads(config: MachineConfig, segment_len: u64, threads: usize) -> Self {
        Self::from_sharded(ShardedCluster::new(config, threads), segment_len)
    }

    /// Builds a backend over an explicit node→shard partition (`bounds`
    /// as in `ShardPlan::from_bounds`). No product caller: it is API
    /// because it is the random-partition equivalence proptests' only way
    /// in.
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan or if the segment cannot be mapped.
    pub fn with_partition(config: MachineConfig, segment_len: u64, bounds: Vec<usize>) -> Self {
        let plan = ShardPlan::from_bounds(bounds).expect("valid shard bounds");
        Self::from_sharded(ShardedCluster::with_plan(config, plan), segment_len)
    }

    fn from_sharded(mut sharded: ShardedCluster, segment_len: u64) -> Self {
        let nodes = sharded.num_nodes();
        sharded
            .create_context(BACKEND_CTX, segment_len)
            .expect("segment must fit in node memory");
        SonumaBackend {
            sharded,
            ports: (0..nodes).map(|_| NodePort::default()).collect(),
            segment_len,
            clock_floor: SimTime::ZERO,
        }
    }

    /// The paper's simulated-hardware platform (Table 1).
    pub fn simulated_hardware(nodes: usize, segment_len: u64) -> Self {
        Self::new(MachineConfig::simulated_hardware(nodes), segment_len)
    }

    /// The Xen-based development platform (§7.1).
    pub fn dev_platform(nodes: usize, segment_len: u64) -> Self {
        Self::new(MachineConfig::dev_platform(nodes), segment_len)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MachineConfig {
        self.sharded.config()
    }

    /// Number of shards (== executing threads).
    pub fn num_shards(&self) -> usize {
        self.sharded.num_shards()
    }

    /// Conservative epochs executed so far (partition-invariant).
    pub fn epochs(&self) -> u64 {
        self.sharded.epochs()
    }

    #[doc(hidden)] // frozen-benchmark residue: ROADMAP item 9 deletes
    pub fn set_speculation(&mut self, _k: u32) {}

    /// The global memory fabric (traffic counters, link stats).
    pub fn fabric(&self) -> &Fabric {
        self.sharded.fabric()
    }

    /// Arms a flight recorder on the underlying cluster (see
    /// [`ShardedCluster::arm_trace`]).
    ///
    /// # Panics
    ///
    /// Panics if traffic has already run or the interval is zero.
    pub fn arm_trace(&mut self, config: &sonuma_trace::TraceConfig) {
        self.sharded.arm_trace(config);
    }

    /// The armed flight recorder, if any.
    pub fn trace(&self) -> Option<&sonuma_trace::FlightRecorder> {
        self.sharded.trace()
    }

    /// Pipeline counters of `node`.
    pub fn pipeline_stats(&self, node: NodeId) -> PipelineStats {
        self.sharded.pipeline_stats(node)
    }

    /// Cluster-wide pipeline counter totals.
    pub fn total_pipeline_stats(&self) -> PipelineStats {
        self.sharded.total_pipeline_stats()
    }

    /// Per-tenant counters of `node`, in registration order.
    pub fn tenant_stats(&self, node: NodeId) -> Vec<(TenantSpec, TenantStats)> {
        self.sharded.tenant_stats(node)
    }

    /// Per-shard logical event counts (shard metadata for reports).
    pub fn shard_events(&self) -> Vec<u64> {
        self.sharded.shard_events()
    }

    /// Fabric links cut by the shard partition (0 on a single shard).
    pub fn cut_links(&self) -> usize {
        self.sharded.cut_links()
    }

    /// The lookahead bounding every epoch of the sharded engine.
    pub fn lookahead(&self) -> SimTime {
        self.sharded.lookahead()
    }

    /// Deliveries that arrived earlier than the lookahead promised.
    /// Always 0 when the conservative bound is sound;
    /// the sharding tests assert on it.
    pub fn pair_bound_violations(&self) -> u64 {
        self.sharded.pair_bound_violations()
    }

    /// Estimated resident heap bytes of the simulated machine state (see
    /// `Node::resident_bytes`) — the rack4096 memory-diet metric.
    pub fn resident_bytes(&self) -> u64 {
        self.sharded.resident_bytes()
    }

    /// Node-crash events executed under the active fault plan (0 without
    /// one).
    pub fn total_crashes(&self) -> u64 {
        self.sharded.total_crashes()
    }

    /// Packets discarded at delivery because their destination was inside
    /// a crash window (0 without a fault plan).
    pub fn total_crash_drops(&self) -> u64 {
        self.sharded.total_crash_drops()
    }

    /// Delivery-order hash of `node` — equal across runs iff packets
    /// arrived in the same order at the same times (the determinism
    /// checksum the equivalence tests gate on).
    pub fn delivery_hash(&self, node: NodeId) -> u64 {
        self.sharded.delivery_hash(node)
    }

    /// Registers tenant `channel` on `node`: the tenant is registered
    /// with the node's RMC under `(weight, slo)` and a dedicated queue
    /// pair is created for it, so [`RemoteBackend::post_on`] traffic for
    /// this channel is scheduled by the RGP under the tenant's QoS class.
    ///
    /// # Panics
    ///
    /// Panics if QP ring allocation fails (node memory exhausted).
    pub fn register_tenant_channel(
        &mut self,
        node: NodeId,
        channel: u32,
        tenant: TenantId,
        weight: u32,
        slo: SloClass,
    ) {
        self.sharded.register_tenant(
            node,
            TenantSpec {
                id: tenant,
                weight,
                slo,
            },
        );
        let qp = self
            .sharded
            .create_tenant_qp(node, BACKEND_CTX, 0, tenant)
            .expect("QP ring allocation failed");
        self.ports[node.index()]
            .channels
            .insert(channel, ChannelPort::new(qp));
    }

    /// Lazily creates node `n`'s queue pair for `channel` (core 0 owns
    /// it; the QP is untagged, i.e. best-effort, unless the channel was
    /// registered through [`SonumaBackend::register_tenant_channel`]).
    fn channel_qp(&mut self, n: usize, channel: u32) -> QpId {
        if let Some(port) = self.ports[n].channels.get(&channel) {
            return port.qp;
        }
        let qp = self
            .sharded
            .create_qp(NodeId(n as u16), BACKEND_CTX, 0)
            .expect("QP ring allocation failed");
        self.ports[n].channels.insert(channel, ChannelPort::new(qp));
        qp
    }

    /// Harvests CQ entries for node `n` into finished completions.
    ///
    /// Allocation-free while nothing has completed: channels are walked in
    /// place and `drain_cq`'s empty fast path returns before touching the
    /// ring, so the per-advance poll sweep over hundreds of idle nodes
    /// costs integer compares, not heap traffic.
    ///
    /// Once its data is copied out, an operation's landing buffer is
    /// discarded: the backend is its only reader, and the slot's next
    /// operation rewrites it before anything reads it again, so giving
    /// its host blocks back moves no simulated result.
    fn harvest(&mut self, n: usize) {
        let SonumaBackend { sharded, ports, .. } = self;
        let NodePort {
            channels, ready, ..
        } = &mut ports[n];
        sharded.with_node(n, |cluster, _| {
            for port in channels.values_mut() {
                let comps = cluster.drain_cq(n, port.qp);
                for c in comps {
                    let Some(p) = port.slots[usize::from(c.wq_index)].pending.take() else {
                        continue;
                    };
                    let len = match (c.status.is_ok(), p.op) {
                        (true, RemoteOp::Read) => p.len,
                        (true, RemoteOp::FetchAdd | RemoteOp::CompSwap) => 8,
                        _ => 0,
                    };
                    let mut data = vec![0u8; len as usize];
                    let node = cluster.node_mut(n);
                    node.read_virt(p.buf, &mut data)
                        .expect("landing buffer mapped");
                    // Whole blocks: `heap_alloc` hands each buffer whole
                    // pages, so no block is shared with another buffer.
                    node.discard_virt(p.buf, p.span.next_multiple_of(BLOCK_BYTES as u64))
                        .expect("landing buffer mapped");
                    ready.push(RemoteCompletion {
                        token: p.token,
                        status: c.status,
                        data,
                    });
                }
            }
        });
    }
}

impl RemoteBackend for SonumaBackend {
    fn label(&self) -> &'static str {
        "soNUMA"
    }

    fn num_nodes(&self) -> usize {
        self.sharded.num_nodes()
    }

    fn segment_len(&self) -> u64 {
        self.segment_len
    }

    fn write_ctx(&mut self, node: NodeId, offset: u64, data: &[u8]) {
        self.sharded.write_ctx(node, BACKEND_CTX, offset, data);
    }

    fn read_ctx(&self, node: NodeId, offset: u64, buf: &mut [u8]) {
        self.sharded.read_ctx(node, BACKEND_CTX, offset, buf);
    }

    fn post(&mut self, src: NodeId, req: RemoteRequest) -> Result<u64, BackendError> {
        self.post_on(src, 0, req)
    }

    fn post_on(
        &mut self,
        src: NodeId,
        channel: u32,
        req: RemoteRequest,
    ) -> Result<u64, BackendError> {
        let n = src.index();
        if n >= self.sharded.num_nodes() || req.dst.index() >= self.sharded.num_nodes() {
            return Err(BackendError::BadNode);
        }
        if req.op == RemoteOp::Write && req.len != req.payload.len() as u64 {
            return Err(BackendError::BadRequest);
        }
        if req.op == RemoteOp::Interrupt {
            // Interrupts are an application-level extension, not part of
            // the transport contract.
            return Err(BackendError::BadRequest);
        }
        let qp = self.channel_qp(n, channel);

        // Stage a landing/source buffer sized for the payload (whole lines:
        // the RMC moves cache-line multiples).
        let buf_len = match req.op {
            RemoteOp::Read | RemoteOp::Write => req.len,
            _ => 64,
        };
        if buf_len == 0 {
            // Zero-length reads/writes are rejected before touching the WQ.
            return Err(BackendError::BadRequest);
        }
        let need = buf_len.max(64);
        let SonumaBackend { sharded, ports, .. } = self;
        let NodePort {
            channels,
            next_token,
            ..
        } = &mut ports[n];
        let slots = &mut channels.get_mut(&channel).expect("channel exists").slots;
        sharded.with_node(n, |cluster, engine| {
            let mut api = NodeApi::new(cluster, engine, n, 0, SimTime::ZERO);
            // Reuse (or grow) the landing buffer pooled for the WQ slot
            // this post will occupy; a failed post leaves the buffer
            // pooled, so a retry allocates nothing. A buffer the request
            // outgrows stays mapped in the node heap for the rest of the
            // run; only its host blocks go back, at its last harvest.
            let i = usize::from(api.next_wq_index(qp));
            if slots.len() <= i {
                slots.resize_with(i + 1, Slot::default);
            }
            let slot = &mut slots[i];
            let (buf, span) = match slot.pooled {
                Some((va, span)) if span >= need => (va, span),
                _ => {
                    let va = api.heap_alloc(need).map_err(|_| BackendError::Exhausted)?;
                    slot.pooled = Some((va, need));
                    (va, need)
                }
            };
            if req.op == RemoteOp::Write {
                api.local_write(buf, &req.payload).expect("buffer mapped");
            }
            let posted = match req.op {
                RemoteOp::Read => api.post_read(qp, req.dst, BACKEND_CTX, req.offset, buf, req.len),
                RemoteOp::Write => api.post_write(
                    qp,
                    req.dst,
                    BACKEND_CTX,
                    req.offset,
                    buf,
                    req.payload.len() as u64,
                ),
                RemoteOp::FetchAdd => {
                    api.post_fetch_add(qp, req.dst, BACKEND_CTX, req.offset, buf, req.operands.0)
                }
                RemoteOp::CompSwap => api.post_comp_swap(
                    qp,
                    req.dst,
                    BACKEND_CTX,
                    req.offset,
                    buf,
                    req.operands.0,
                    req.operands.1,
                ),
                RemoteOp::Interrupt => unreachable!("rejected at validation"),
            };
            match posted {
                Ok(wq_index) => debug_assert_eq!(usize::from(wq_index), i),
                Err(ApiError::WqFull) => return Err(BackendError::Backpressure),
                Err(_) => return Err(BackendError::BadRequest),
            }
            let token = *next_token;
            *next_token += 1;
            slot.pending = Some(PendingOp {
                token,
                op: req.op,
                len: req.len,
                buf,
                span,
            });
            Ok(token)
        })
    }

    fn poll(&mut self, src: NodeId) -> Vec<RemoteCompletion> {
        let n = src.index();
        self.harvest(n);
        std::mem::take(&mut self.ports[n].ready)
    }

    fn advance(&mut self) -> bool {
        // One bounded round per call keeps advance() responsive without
        // busy-stepping single events. A round is a fixed number of
        // *events* spread over however many conservative epochs they
        // need, so the driver's interleaving with the simulation — and
        // with it every simulated outcome — is identical at every thread
        // count. The round also bounds the clock granularity callers
        // observe between polls (completion latencies measured at poll
        // time are late by at most one round's span).
        self.sharded.advance_round()
    }

    fn now(&self) -> SimTime {
        self.sharded.now().max(self.clock_floor)
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        // The floor moves `now()` immediately (the trait contract); when
        // nothing earlier is pending the shard engines jump too, so work
        // posted after the jump charges from the advanced clock.
        self.clock_floor = self.clock_floor.max(t);
        self.sharded.advance_clock_to(t);
    }

    fn events_processed(&self) -> u64 {
        // Engine events plus the logical injections folded into line
        // bursts, so the count (and events/sec) is invariant under
        // `rgp_burst_lines` batching — and under the shard count.
        self.sharded.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_atomic_roundtrip() {
        let mut b = SonumaBackend::simulated_hardware(2, 1 << 20);
        let src = NodeId(0);
        let dst = NodeId(1);

        b.write_ctx(dst, 0, &[9u8; 128]);
        let t_read = b.post(src, RemoteRequest::read(dst, 0, 128)).unwrap();
        let t_write = b
            .post(src, RemoteRequest::write(dst, 256, vec![3u8; 64]))
            .unwrap();
        let t_fa = b.post(src, RemoteRequest::fetch_add(dst, 512, 41)).unwrap();
        let done = b.complete_all(src);
        assert_eq!(done.len(), 3);
        for c in &done {
            assert!(c.status.is_ok(), "completion failed: {c:?}");
            if c.token == t_read {
                assert_eq!(c.data, vec![9u8; 128]);
            } else if c.token == t_fa {
                assert_eq!(u64::from_le_bytes(c.data[..8].try_into().unwrap()), 0);
            } else {
                assert_eq!(c.token, t_write);
            }
        }
        let mut back = [0u8; 64];
        b.read_ctx(dst, 256, &mut back);
        assert_eq!(back, [3u8; 64]);
        let mut ctr = [0u8; 8];
        b.read_ctx(dst, 512, &mut ctr);
        assert_eq!(u64::from_le_bytes(ctr), 41);
        assert!(b.now() > SimTime::ZERO, "operations charge simulated time");
    }

    #[test]
    fn out_of_bounds_reports_status() {
        let mut b = SonumaBackend::simulated_hardware(2, 4096);
        let far = 1 << 30;
        b.post(NodeId(0), RemoteRequest::read(NodeId(1), far, 64))
            .unwrap();
        let done = b.complete_all(NodeId(0));
        assert_eq!(done.len(), 1);
        assert!(!done[0].status.is_ok());
        assert!(done[0].data.is_empty());
    }

    #[test]
    fn pipeline_stats_visible_through_backend() {
        let mut b = SonumaBackend::simulated_hardware(2, 1 << 20);
        for _ in 0..4 {
            b.post(NodeId(0), RemoteRequest::read(NodeId(1), 0, 256))
                .unwrap();
        }
        let _ = b.complete_all(NodeId(0));
        let src_stats = b.pipeline_stats(NodeId(0));
        let dst_stats = b.pipeline_stats(NodeId(1));
        assert_eq!(src_stats.rgp_requests, 4);
        assert_eq!(src_stats.rgp_lines, 16, "256 B unrolls into 4 lines");
        assert_eq!(dst_stats.rrpp_served, 16);
        assert_eq!(src_stats.rcp_completions, 4);
    }

    #[test]
    fn multi_line_kv_read_returns_intact_payload() {
        // A KV-cache GET is one read spanning hundreds of lines; the RGP
        // unrolls it, the RRPP serves each line, and the payload must
        // reassemble byte-exact — including for a value homed on the
        // reading node itself (local delivery never enters the fabric).
        let mut b = SonumaBackend::simulated_hardware(2, 1 << 16);
        let value: Vec<u8> = (0..16384u32).map(|i| (i * 31 + 7) as u8).collect();
        b.write_ctx(NodeId(1), 4096, &value);
        b.write_ctx(NodeId(0), 0, &value);
        let remote = b
            .post(NodeId(0), RemoteRequest::read(NodeId(1), 4096, 16384))
            .unwrap();
        let local = b
            .post(NodeId(0), RemoteRequest::read(NodeId(0), 0, 16384))
            .unwrap();
        let done = b.complete_all(NodeId(0));
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!(c.status.is_ok(), "{c:?}");
            assert!(c.token == remote || c.token == local);
            assert_eq!(c.data, value, "16 KB payload must reassemble intact");
        }
        assert_eq!(
            b.pipeline_stats(NodeId(0)).rgp_lines,
            512,
            "two 16 KB reads unroll into 256 lines each"
        );
    }

    /// Host bytes of `node`'s physical memory.
    fn phys_resident(b: &SonumaBackend, node: usize) -> u64 {
        b.sharded
            .peek_node(node, |c| c.node(node).phys.resident_bytes())
    }

    #[test]
    fn a_long_read_stream_holds_its_physical_footprint() {
        let mut b = SonumaBackend::simulated_hardware(2, 1 << 16);
        b.write_ctx(NodeId(1), 0, &[0x5A; 4096]);
        // Beyond the level after the first read, only the WQ and CQ rings
        // may grow, one 64 B entry per fresh slot; from the second lap of
        // the ring on, nothing does.
        let entries = usize::from(b.config().qp_entries);
        let rings = 2 * entries as u64 * 64;
        let (mut first, mut lap) = (None, None);
        for i in 0..1000 {
            b.post(NodeId(0), RemoteRequest::read(NodeId(1), 0, 4096))
                .unwrap();
            let done = b.complete_all(NodeId(0));
            assert_eq!(done[0].data, vec![0x5A; 4096], "read {i}");
            let resident = phys_resident(&b, 0);
            let first = *first.get_or_insert(resident);
            assert!(resident <= first + rings, "{resident} B after read {i}");
            if i + 1 >= entries {
                assert_eq!(*lap.get_or_insert(resident), resident, "after read {i}");
            }
        }
    }

    #[test]
    fn one_slot_returns_each_payload_exactly() {
        let mut config = MachineConfig::simulated_hardware(2);
        config.qp_entries = 1;
        let mut b = SonumaBackend::new(config, 1 << 16);
        for (value, len) in [(0x11u8, 32 << 10), (0x22, 4 << 10), (0x33, 32 << 10)] {
            b.write_ctx(NodeId(1), 0, &vec![value; len]);
            let t = b
                .post(NodeId(0), RemoteRequest::read(NodeId(1), 0, len as u64))
                .unwrap();
            let done = b.complete_all(NodeId(0));
            assert_eq!((done.len(), done[0].token), (1, t));
            assert!(done[0].data == vec![value; len], "{len} B of {value:#x}");
            // Harvest gave the slot's buffer back: it reads as zeros.
            let (va, span) = b.ports[0].channels[&0].slots[0].pooled.unwrap();
            let mut left = vec![0xFF; span as usize];
            b.sharded
                .peek_node(0, |c| c.node(0).read_virt(va, &mut left))
                .unwrap();
            assert!(left.iter().all(|&x| x == 0), "{len} B of {value:#x}");
        }
    }

    #[test]
    fn tenant_channels_are_isolated_queues() {
        let mut b = SonumaBackend::simulated_hardware(2, 1 << 20);
        b.register_tenant_channel(NodeId(0), 0, TenantId(100), 1, SloClass::Gold);
        b.register_tenant_channel(NodeId(0), 1, TenantId(101), 1, SloClass::Bronze);
        // Fill channel 0's entire WQ ring.
        let entries = b.config().qp_entries as usize;
        for _ in 0..entries {
            b.post_on(NodeId(0), 0, RemoteRequest::read(NodeId(1), 0, 64))
                .unwrap();
        }
        assert_eq!(
            b.post_on(NodeId(0), 0, RemoteRequest::read(NodeId(1), 0, 64)),
            Err(BackendError::Backpressure),
            "channel 0 is full"
        );
        // Channel 1 still accepts posts: one tenant's backlog cannot
        // reject another's work.
        let t = b
            .post_on(NodeId(0), 1, RemoteRequest::read(NodeId(1), 0, 64))
            .unwrap();
        let done = b.complete_all(NodeId(0));
        assert_eq!(done.len(), entries + 1);
        assert!(done.iter().any(|c| c.token == t));
        // Per-tenant accounting reached the RMC.
        let stats = b.tenant_stats(NodeId(0));
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].1.completions, entries as u64);
        assert_eq!(stats[1].1.completions, 1);
    }

    #[test]
    fn advance_clock_to_moves_idle_time_forward() {
        let mut b = SonumaBackend::simulated_hardware(2, 4096);
        assert_eq!(b.now(), SimTime::ZERO);
        b.advance_clock_to(SimTime::from_us(5));
        assert_eq!(
            b.now(),
            SimTime::from_us(5),
            "the jump is visible immediately, per the trait contract"
        );
        while b.advance() {}
        assert_eq!(b.now(), SimTime::from_us(5));
        // Posting after the jump charges from the advanced clock.
        b.post(NodeId(0), RemoteRequest::read(NodeId(1), 0, 64))
            .unwrap();
        let _ = b.complete_all(NodeId(0));
        assert!(b.now() > SimTime::from_us(5));
    }

    #[test]
    fn threaded_run_matches_serial_bit_for_bit() {
        let drive = |threads: usize| {
            let mut b =
                SonumaBackend::with_threads(MachineConfig::simulated_hardware(8), 1 << 16, threads);
            for n in 0..8u16 {
                b.write_ctx(NodeId(n), 0, &[n as u8; 256]);
            }
            let mut tokens = Vec::new();
            for round in 0..6u64 {
                for n in 0..8u16 {
                    let dst = NodeId(((n as u64 + 1 + round) % 8) as u16);
                    if dst == NodeId(n) {
                        continue;
                    }
                    tokens.push(b.post(NodeId(n), RemoteRequest::read(dst, 0, 256)).unwrap());
                }
                while b.advance() {}
            }
            let mut done = Vec::new();
            for n in 0..8u16 {
                done.extend(b.complete_all(NodeId(n)));
            }
            let hashes: Vec<u64> = (0..8u16).map(|n| b.delivery_hash(NodeId(n))).collect();
            let stats: Vec<PipelineStats> =
                (0..8u16).map(|n| b.pipeline_stats(NodeId(n))).collect();
            (b.now(), b.events_processed(), done, hashes, stats)
        };
        let serial = drive(1);
        for threads in [2, 3, 4] {
            let parallel = drive(threads);
            assert_eq!(serial.0, parallel.0, "sim time, {threads} threads");
            assert_eq!(serial.1, parallel.1, "events, {threads} threads");
            assert_eq!(serial.2, parallel.2, "completions, {threads} threads");
            assert_eq!(serial.3, parallel.3, "delivery order, {threads} threads");
            assert_eq!(serial.4, parallel.4, "pipeline stats, {threads} threads");
        }
    }
}
