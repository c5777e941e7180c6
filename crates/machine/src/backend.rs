//! [`SonumaBackend`]: the soNUMA machine behind the transport-agnostic
//! [`RemoteBackend`] contract.
//!
//! The backend is the machine: it owns the cluster partitioned into
//! per-thread shards advancing in conservative epochs, the global fabric
//! and the commit merge between them (see [`crate::shard`]), and drives
//! tenant channels (one queue pair per `(node, channel)`) from outside the
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
    BackendError, CtxId, NodeId, Packet, QpId, RemoteBackend, RemoteCompletion, RemoteOp,
    RemoteRequest, TenantId, HEADER_BYTES,
};
use sonuma_sim::{ShardedEngine, SimTime};
use sonuma_trace::{FlightRecorder, TraceConfig};

use crate::api::{ApiError, NodeApi};
use crate::cluster::Cluster;
use crate::config::MachineConfig;
use crate::mailbox::CommitBatch;
use crate::pipeline::PipelineStats;
use crate::shard::{build_shard, ShardSlot, QUANTUM_EPOCHS};
use crate::tenancy::{SloClass, TenantSpec, TenantStats};
use crate::ClusterEngine;

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

/// The full soNUMA machine exposed as a [`RemoteBackend`]: the cluster
/// sharded across threads (see [`crate::shard`]), with the global fabric,
/// the commit-frontier merge of the shards' outboxes and the driver ports
/// of every node.
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
    pub(crate) engine: ShardedEngine<ShardSlot>,
    pub(crate) fabric: Fabric,
    pub(crate) plan: ShardPlan,
    pub(crate) config: MachineConfig,
    /// Global clock: the last quantum boundary (or an idle-jump target).
    pub(crate) clock: SimTime,
    /// Cached engine events + batched logical events, refreshed at round
    /// boundaries (`events_processed` is a `&self` query).
    pub(crate) events: u64,
    /// Width of one quantum: `QUANTUM_EPOCHS` lookaheads.
    pub(crate) quantum: SimTime,
    /// Scratch for one commit's due departures, reused across commits.
    pub(crate) batch: CommitBatch,
    /// Scratch for one commit's deliveries, per destination shard and in
    /// merged order, reused across commits.
    pub(crate) deliveries: Vec<Vec<(SimTime, Packet)>>,
    /// Cross-shard cut of the plan in force (directed links).
    cut_links: usize,
    /// Deliveries that landed sooner than the lookahead promised —
    /// always zero when the conservative bound is sound; counted
    /// in release builds too so the property tests can assert on it.
    pub(crate) pair_bound_violations: u64,
    /// The armed flight recorder, if any. Boxed so the (large, cold)
    /// recorder state stays off the machine's cache footprint; `None`
    /// (the default) leaves every hot path on exactly the untraced code.
    pub(crate) trace: Option<Box<FlightRecorder>>,
    ports: Vec<NodePort>,
    segment_len: u64,
}

impl std::fmt::Debug for SonumaBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SonumaBackend")
            .field("nodes", &self.config.nodes)
            .field("shards", &self.plan.shards())
            .field("now", &self.clock)
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
        let plan = ShardPlan::for_topology(&config.fabric.topology, threads);
        Self::with_plan(config, segment_len, plan)
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
        Self::with_plan(config, segment_len, plan)
    }

    /// Builds the machine sharded per `plan`, with context `BACKEND_CTX`
    /// (`segment_len` bytes) on every node.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover exactly `config.nodes` nodes, the
    /// fabric topology disagrees with `config.nodes`, or the segment
    /// cannot be mapped.
    fn with_plan(config: MachineConfig, segment_len: u64, plan: ShardPlan) -> Self {
        assert_eq!(
            config.fabric.topology.nodes(),
            config.nodes,
            "fabric topology size must match node count"
        );
        assert_eq!(
            plan.nodes(),
            config.nodes,
            "shard plan must cover every node"
        );
        let lookahead = config.fabric.min_delivery_delay(HEADER_BYTES as u64);
        let cut_links = plan.cut_links(&config.fabric.topology);
        // Serial on purpose: one construction thread per shard measured
        // slower on every sharded workload (DESIGN.md, "Prove or remove").
        let shards: Vec<ShardSlot> = (0..plan.shards())
            .map(|s| {
                let mut slot = build_shard(&config, &plan, s);
                slot.world
                    .create_context(BACKEND_CTX, segment_len)
                    .expect("segment must fit in node memory");
                slot
            })
            .collect();
        let num_shards = shards.len();
        SonumaBackend {
            engine: ShardedEngine::new(shards, lookahead),
            fabric: Fabric::new(config.fabric.clone()),
            plan,
            ports: (0..config.nodes).map(|_| NodePort::default()).collect(),
            config,
            clock: SimTime::ZERO,
            events: 0,
            quantum: lookahead * QUANTUM_EPOCHS,
            batch: CommitBatch::default(),
            deliveries: vec![Vec::new(); num_shards],
            cut_links,
            pair_bound_violations: 0,
            trace: None,
            segment_len,
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
        &self.config
    }

    /// Number of shards (== executing threads).
    pub fn num_shards(&self) -> usize {
        self.plan.shards()
    }

    /// Epoch barriers executed so far. The count is partition-invariant:
    /// every epoch's horizon is a function of the global event set alone.
    pub fn epochs(&self) -> u64 {
        self.engine.epochs()
    }

    #[doc(hidden)] // frozen-benchmark residue: ROADMAP item 9 deletes
    pub fn set_speculation(&mut self, _k: u32) {}

    /// The global memory fabric (shared by every shard's traffic: traffic
    /// counters, link stats).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Arms a flight recorder: from now on, link counters are sampled
    /// inside the commit merge (the global `(t, src, seq)` send order)
    /// and node counters at quantum boundaries — both partition-invariant
    /// points, so the recorded series are byte-identical across thread
    /// counts. All recorder capacity is allocated here, once.
    ///
    /// # Panics
    ///
    /// Panics if the machine has already run (samples would start
    /// mid-stream) or the configured interval is zero.
    pub fn arm_trace(&mut self, config: &TraceConfig) {
        assert!(
            self.clock == SimTime::ZERO && self.events == 0,
            "arm the flight recorder before any traffic"
        );
        self.trace = Some(Box::new(FlightRecorder::new(
            config,
            self.fabric.link_slots(),
            self.config.nodes,
        )));
    }

    /// The armed flight recorder, if any.
    pub fn trace(&self) -> Option<&FlightRecorder> {
        self.trace.as_deref()
    }

    /// Pipeline counters of `node`.
    pub fn pipeline_stats(&self, node: NodeId) -> PipelineStats {
        self.peek_node(node.index(), |cluster| cluster.pipeline_stats(node))
    }

    /// Cluster-wide pipeline counter totals.
    pub fn total_pipeline_stats(&self) -> PipelineStats {
        let mut total = PipelineStats::default();
        for s in 0..self.plan.shards() {
            self.engine.peek_shard(s, |slot| {
                total.merge_from(&slot.world.total_pipeline_stats());
            });
        }
        total
    }

    /// Per-tenant counters of `node`, in registration order.
    pub fn tenant_stats(&self, node: NodeId) -> Vec<(TenantSpec, TenantStats)> {
        self.peek_node(node.index(), |cluster| cluster.tenant_stats(node))
    }

    /// Per-shard logical event counts (shard metadata for reports).
    pub fn shard_events(&self) -> Vec<u64> {
        (0..self.plan.shards())
            .map(|s| {
                self.engine.peek_shard(s, |slot| {
                    slot.engine.events_executed() + slot.world.batched_logical_events
                })
            })
            .collect()
    }

    /// Fabric links cut by the shard partition (0 on a single shard).
    pub fn cut_links(&self) -> usize {
        self.cut_links
    }

    /// The lookahead `L` bounding every epoch: the fabric's minimum
    /// delivery delay of a header-only packet.
    pub fn lookahead(&self) -> SimTime {
        self.engine.lookahead()
    }

    /// Deliveries that beat the lookahead promise — zero when the
    /// conservative bound is sound (the sharding tests assert this stays
    /// zero in release builds; debug builds also assert at the point of
    /// violation).
    pub fn pair_bound_violations(&self) -> u64 {
        self.pair_bound_violations
    }

    /// Estimated resident heap bytes of the simulated machine state (see
    /// `Node::resident_bytes`) — the rack4096 memory-diet metric.
    pub fn resident_bytes(&self) -> u64 {
        self.fold_shards(Cluster::resident_bytes)
    }

    /// Node-crash events executed under the active fault plan (0 without
    /// one). Only owning shards count a node's crashes, so the sum is
    /// partition-invariant.
    pub fn total_crashes(&self) -> u64 {
        self.fold_shards(Cluster::total_crashes)
    }

    /// Packets discarded at delivery because their destination was inside
    /// a crash window (0 without a fault plan).
    pub fn total_crash_drops(&self) -> u64 {
        self.fold_shards(Cluster::total_crash_drops)
    }

    /// Delivery-order hash of `node` (see `Node::deliver_hash`) — equal
    /// across runs iff packets arrived in the same order at the same
    /// times (the determinism checksum the equivalence tests gate on).
    pub fn delivery_hash(&self, node: NodeId) -> u64 {
        self.peek_node(node.index(), |cluster| {
            cluster.node(node.index()).deliver_hash
        })
    }

    fn fold_shards(&self, f: impl Fn(&Cluster) -> u64) -> u64 {
        (0..self.plan.shards())
            .map(|s| self.engine.peek_shard(s, |slot| f(&slot.world)))
            .sum()
    }

    /// Runs `f` with the shard owning `node` (its world and engine).
    fn with_node<R>(
        &mut self,
        node: usize,
        f: impl FnOnce(&mut Cluster, &mut ClusterEngine) -> R,
    ) -> R {
        let shard = self.plan.shard_of(node);
        self.engine
            .with_shard(shard, |slot| f(&mut slot.world, &mut slot.engine))
    }

    /// Read-only access to the shard owning `node`.
    fn peek_node<R>(&self, node: usize, f: impl FnOnce(&Cluster) -> R) -> R {
        let shard = self.plan.shard_of(node);
        self.engine.peek_shard(shard, |slot| f(&slot.world))
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
        let spec = TenantSpec {
            id: tenant,
            weight,
            slo,
        };
        let qp = self
            .with_node(node.index(), |cluster, _| {
                cluster.register_tenant(node, spec);
                cluster.create_tenant_qp(node, BACKEND_CTX, 0, tenant)
            })
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
            .with_node(n, |cluster, _| {
                cluster.create_qp(NodeId(n as u16), BACKEND_CTX, 0)
            })
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
        let NodePort {
            channels, ready, ..
        } = &mut self.ports[n];
        let shard = self.plan.shard_of(n);
        self.engine
            .with_shard(shard, |ShardSlot { world: cluster, .. }| {
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
        self.config.nodes
    }

    fn segment_len(&self) -> u64 {
        self.segment_len
    }

    fn write_ctx(&mut self, node: NodeId, offset: u64, data: &[u8]) {
        self.with_node(node.index(), |cluster, _| {
            cluster.write_ctx(node, BACKEND_CTX, offset, data)
        });
    }

    fn read_ctx(&self, node: NodeId, offset: u64, buf: &mut [u8]) {
        self.peek_node(node.index(), |cluster| {
            cluster.read_ctx(node, BACKEND_CTX, offset, buf)
        });
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
        if n >= self.config.nodes || req.dst.index() >= self.config.nodes {
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
        // Stage a landing/source buffer sized for the payload (whole lines:
        // the RMC moves cache-line multiples).
        let buf_len = match req.op {
            RemoteOp::Read | RemoteOp::Write => req.len,
            _ => 64,
        };
        if buf_len == 0 {
            // Zero-length reads/writes are rejected before the channel's
            // queue pair exists or the WQ is touched.
            return Err(BackendError::BadRequest);
        }
        let need = buf_len.max(64);
        let qp = self.channel_qp(n, channel);
        let NodePort {
            channels,
            next_token,
            ..
        } = &mut self.ports[n];
        let slots = &mut channels.get_mut(&channel).expect("channel exists").slots;
        let shard = self.plan.shard_of(n);
        self.engine
            .with_shard(shard, |ShardSlot { world, engine }| {
                let mut api = NodeApi::new(world, engine, n, 0, SimTime::ZERO);
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
                    RemoteOp::Read => {
                        api.post_read(qp, req.dst, BACKEND_CTX, req.offset, buf, req.len)
                    }
                    RemoteOp::Write => api.post_write(
                        qp,
                        req.dst,
                        BACKEND_CTX,
                        req.offset,
                        buf,
                        req.payload.len() as u64,
                    ),
                    RemoteOp::FetchAdd => api.post_fetch_add(
                        qp,
                        req.dst,
                        BACKEND_CTX,
                        req.offset,
                        buf,
                        req.operands.0,
                    ),
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
        self.advance_round()
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        // `now()` moves immediately (the trait contract); when nothing
        // earlier is pending the shard engines jump too, so work posted
        // after the jump charges from the advanced clock. With events
        // pending before `t`, engine clocks catch up through epochs.
        // Staged departures that outran the last quantum count as pending
        // work at their inject time (their arrivals lie even later), so
        // an idle jump never carries an engine clock past them.
        let mut min_next: Option<SimTime> = None;
        self.engine.for_each_shard(|_, slot| {
            let (staged, next) = slot.floors();
            min_next = [min_next, staged, next].into_iter().flatten().min();
        });
        if min_next.is_none_or(|m| m >= t) {
            self.engine.align_all(t);
        }
        self.clock = self.clock.max(t);
    }

    fn events_processed(&self) -> u64 {
        // Engine events plus the logical injections folded into line
        // bursts, so the count (and events/sec) is invariant under
        // `rgp_burst_lines` batching — and under the shard count.
        self.events
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
    fn a_rejected_zero_length_post_creates_no_queue_pair() {
        let mut b = SonumaBackend::simulated_hardware(2, 4096);
        let qps = |b: &SonumaBackend| b.peek_node(0, |c| c.node(0).rmc.qps.len());
        let empty = [
            (7, RemoteRequest::read(NodeId(1), 0, 0)),
            (8, RemoteRequest::write(NodeId(1), 0, Vec::new())),
        ];
        for (channel, req) in empty {
            assert_eq!(
                b.post_on(NodeId(0), channel, req),
                Err(BackendError::BadRequest)
            );
            assert_eq!(qps(&b), 0, "channel {channel}");
            assert!(!b.ports[0].channels.contains_key(&channel));
        }
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
        b.peek_node(node, |c| c.node(node).phys.resident_bytes())
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
            b.peek_node(0, |c| c.node(0).read_virt(va, &mut left))
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
