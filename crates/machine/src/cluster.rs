//! The cluster world: node + fabric ownership and the OS-driver surface.
//!
//! Pipeline event logic lives in [`crate::pipeline`] (RGP/RRPP/RCP) and
//! core scheduling in `crate::sched`; this module holds only what the
//! paper's §5.1 kernel driver owns — contexts, queue pairs, process
//! attachment — plus functional segment access for workload setup and the
//! cluster-wide statistics accessors.

use sonuma_fabric::Fabric;
use sonuma_memory::{MemError, VAddr};
use sonuma_protocol::{CtxId, NodeId, QpId, TenantId};
use sonuma_rmc::{ContextEntry, QueuePairState};
use sonuma_sim::SimTime;

use crate::tenancy::{TenantSpec, TenantStats};

use crate::config::MachineConfig;
use crate::event::{ClusterEvent, WakeReason};
use crate::mailbox::Mailbox;
use crate::node::{AppQpCursors, BlockState, Node, CTX_BASE};
use crate::process::AppProcess;
use crate::ClusterEngine;

/// Where this cluster's packets go: straight into an owned fabric
/// (classic single-engine mode) or into per-node outboxes committed at the
/// epoch barrier (one shard of a `SonumaBackend`).
pub(crate) enum RoutePath {
    /// The cluster owns the whole world; sends resolve inline.
    Direct(Box<Fabric>),
    /// The cluster is one shard; sends are staged in its [`Mailbox`] and
    /// the `SonumaBackend` merges them into the global fabric in
    /// deterministic order.
    Mailbox(Mailbox),
}

/// The simulation world: every node plus the memory fabric.
///
/// Build one with [`Cluster::new`], set up contexts/QPs/processes with the
/// OS-driver methods, then drive it with a [`ClusterEngine`]:
///
/// ```
/// use sonuma_machine::{Cluster, ClusterEngine, MachineConfig};
///
/// let mut cluster = Cluster::new(MachineConfig::simulated_hardware(2));
/// let mut engine = ClusterEngine::new();
/// cluster.create_context(sonuma_protocol::CtxId(0), 1 << 20).unwrap();
/// engine.run(&mut cluster); // nothing scheduled yet: returns immediately
/// assert_eq!(engine.events_executed(), 0);
/// ```
pub struct Cluster {
    config: MachineConfig,
    /// The nodes this cluster *owns*, holding global ids
    /// `node_base..node_base + nodes.len()`. A classic cluster owns every
    /// node (`node_base == 0`), so indexing by `NodeId` keeps working; a
    /// shard cluster owns a contiguous slice and all internal code goes
    /// through [`Cluster::node`]/[`Cluster::node_mut`], which translate.
    pub nodes: Vec<Node>,
    /// Global id of `nodes[0]` (0 except for shard clusters).
    node_base: usize,
    /// Owned fabric, or the shard-mode per-node outboxes.
    pub(crate) route: RoutePath,
    /// Logical events folded into batched engine events: a line burst of
    /// `n` injections executes as one engine event but represents `n`
    /// logical pipeline steps. Adding these back keeps `events_processed`
    /// (and the events/sec throughput gate) comparable across
    /// `rgp_burst_lines` settings.
    pub(crate) batched_logical_events: u64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Cluster");
        d.field("nodes", &self.nodes.len())
            .field("node_base", &self.node_base);
        match &self.route {
            RoutePath::Direct(fabric) => d.field("fabric", fabric),
            RoutePath::Mailbox(outbox) => d.field("outbox_floor", &outbox.floor()),
        };
        d.finish()
    }
}

impl Cluster {
    /// Builds an idle cluster per `config`.
    ///
    /// # Panics
    ///
    /// Panics if the fabric topology disagrees with `config.nodes`.
    pub fn new(config: MachineConfig) -> Self {
        assert_eq!(
            config.fabric.topology.nodes(),
            config.nodes,
            "fabric topology size must match node count"
        );
        Cluster {
            nodes: (0..config.nodes).map(|_| Node::new(&config)).collect(),
            node_base: 0,
            route: RoutePath::Direct(Box::new(Fabric::new(config.fabric.clone()))),
            config,
            batched_logical_events: 0,
        }
    }

    /// Builds one *shard* of a cluster: the world of nodes
    /// `range.start..range.end`, with fabric sends staged in a mailbox
    /// for the owning `SonumaBackend`'s epoch merge.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or outside `config.nodes`.
    pub(crate) fn shard_slice(config: MachineConfig, range: std::ops::Range<usize>) -> Self {
        assert!(
            !range.is_empty() && range.end <= config.nodes,
            "shard range {range:?} outside cluster of {}",
            config.nodes
        );
        Cluster {
            nodes: range.clone().map(|_| Node::new(&config)).collect(),
            node_base: range.start,
            route: RoutePath::Mailbox(Mailbox::new(range.len())),
            config,
            batched_logical_events: 0,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of nodes in the *whole* cluster (a shard answers for the
    /// full fabric, not just its slice — destination validation and peer
    /// sampling depend on it).
    pub fn num_nodes(&self) -> usize {
        self.config.nodes
    }

    /// Global id of the first node this cluster owns.
    pub fn node_base(&self) -> usize {
        self.node_base
    }

    /// Global ids of the nodes this cluster owns.
    pub fn owned_nodes(&self) -> std::ops::Range<usize> {
        self.node_base..self.node_base + self.nodes.len()
    }

    /// The node with *global* id `n`.
    ///
    /// # Panics
    ///
    /// Panics if this cluster does not own `n`.
    #[inline]
    pub fn node(&self, n: usize) -> &Node {
        &self.nodes[n - self.node_base]
    }

    /// Mutable access to the node with *global* id `n`.
    ///
    /// # Panics
    ///
    /// Panics if this cluster does not own `n`.
    #[inline]
    pub fn node_mut(&mut self, n: usize) -> &mut Node {
        &mut self.nodes[n - self.node_base]
    }

    /// The memory fabric (classic single-engine clusters only).
    ///
    /// # Panics
    ///
    /// Panics on a shard cluster — shards do not own the fabric; ask
    /// `SonumaBackend::fabric` instead.
    pub fn fabric(&self) -> &Fabric {
        match &self.route {
            RoutePath::Direct(fabric) => fabric,
            RoutePath::Mailbox(_) => {
                panic!("shard clusters do not own the fabric; query the SonumaBackend")
            }
        }
    }

    // ------------------------------------------------------------------
    // OS driver (§5.1): contexts, queue pairs, processes.
    // ------------------------------------------------------------------

    /// Establishes global context `ctx` with a `segment_len`-byte segment on
    /// every node, mapping and pinning the pages and registering the CT
    /// entries (the driver work of §5.1).
    ///
    /// # Errors
    ///
    /// Fails if any node cannot map the segment.
    pub fn create_context(&mut self, ctx: CtxId, segment_len: u64) -> Result<(), MemError> {
        for node in &mut self.nodes {
            let base = VAddr::new(CTX_BASE);
            node.space.map_range(base, segment_len, &mut node.alloc)?;
            node.rmc.ct.register(
                ctx,
                ContextEntry {
                    segment_base: base,
                    segment_len,
                    asid: 0,
                    qps: Vec::new(),
                },
            );
        }
        Ok(())
    }

    /// Creates a queue pair on `node` for `ctx`, owned (polled) by
    /// `owner_core`. Rings are allocated from the node's pinned heap.
    ///
    /// # Errors
    ///
    /// Fails on memory exhaustion or an unregistered context.
    pub fn create_qp(
        &mut self,
        node: NodeId,
        ctx: CtxId,
        owner_core: usize,
    ) -> Result<QpId, MemError> {
        let entries = self.config.qp_entries;
        let n = self.node_mut(node.index());
        assert!(owner_core < n.cores.len(), "owner core out of range");
        let ring_bytes = entries as u64 * 64;
        let wq_base = n.heap_alloc(ring_bytes)?;
        let cq_base = n.heap_alloc(ring_bytes)?;
        let qp = QpId(n.rmc.qps.len() as u16);
        n.rmc
            .qps
            .push(QueuePairState::new(ctx, 0, wq_base, cq_base, entries));
        n.app_qps.push(AppQpCursors {
            owner_core,
            wq_index: 0,
            wq_phase: true,
            cq_index: 0,
            cq_phase: true,
            cq_drained: 0,
            outstanding: 0,
            slot_busy: vec![false; entries as usize],
        });
        if let Ok(entry) = n.rmc.ct.lookup_mut(ctx) {
            entry.qps.push(qp);
        }
        Ok(qp)
    }

    /// Registers (or updates) a tenant on `node`: its WDRR weight and SLO
    /// class become visible to the RGP's QoS scheduler for every QP later
    /// bound to it.
    pub fn register_tenant(&mut self, node: NodeId, spec: TenantSpec) {
        self.node_mut(node.index()).tenants.register(spec);
    }

    /// As [`Cluster::create_qp`], additionally binding the new queue pair
    /// to `tenant` so the RGP schedules it under the tenant's weight and
    /// SLO class.
    ///
    /// # Errors
    ///
    /// Fails on memory exhaustion or an unregistered context.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not registered on `node`.
    pub fn create_tenant_qp(
        &mut self,
        node: NodeId,
        ctx: CtxId,
        owner_core: usize,
        tenant: TenantId,
    ) -> Result<QpId, MemError> {
        assert!(
            self.node(node.index()).tenants.lookup(tenant).is_some(),
            "tenant {tenant} not registered on {node}"
        );
        let qp = self.create_qp(node, ctx, owner_core)?;
        self.node_mut(node.index()).tenants.bind_qp(qp, tenant);
        Ok(qp)
    }

    /// Snapshot of `node`'s per-tenant counters, in registration order.
    pub fn tenant_stats(&self, node: NodeId) -> Vec<(TenantSpec, TenantStats)> {
        self.node(node.index())
            .tenants
            .iter()
            .map(|(spec, stats)| (*spec, *stats))
            .collect()
    }

    /// Attaches `process` to a core and schedules its first wake-up.
    pub fn spawn(
        &mut self,
        engine: &mut ClusterEngine,
        node: NodeId,
        core: usize,
        process: Box<dyn AppProcess>,
    ) {
        let slot = &mut self.node_mut(node.index()).cores[core];
        assert!(slot.process.is_none(), "core already occupied");
        slot.process = Some(process);
        slot.block = BlockState::Sleeping;
        engine.schedule_in(
            SimTime::ZERO,
            ClusterEvent::CoreWake {
                node: node.0,
                core: core as u16,
                reason: WakeReason::Start,
            },
        );
    }

    /// Functional write into a node's context segment (test/workload setup;
    /// no timing charge).
    ///
    /// # Panics
    ///
    /// Panics if the context or range is invalid.
    pub fn write_ctx(&mut self, node: NodeId, ctx: CtxId, offset: u64, data: &[u8]) {
        let n = self.node_mut(node.index());
        let entry = n.rmc.ct.lookup(ctx).expect("context not registered");
        let va = entry
            .resolve(offset, data.len() as u64)
            .expect("write outside segment");
        n.write_virt(va, data).expect("segment must be mapped");
    }

    /// Functional read from a node's context segment (assertions in tests).
    ///
    /// # Panics
    ///
    /// Panics if the context or range is invalid.
    pub fn read_ctx(&self, node: NodeId, ctx: CtxId, offset: u64, buf: &mut [u8]) {
        let n = self.node(node.index());
        let entry = n.rmc.ct.lookup(ctx).expect("context not registered");
        let va = entry
            .resolve(offset, buf.len() as u64)
            .expect("read outside segment");
        n.read_virt(va, buf).expect("segment must be mapped");
    }

    // ------------------------------------------------------------------
    // Statistics.
    // ------------------------------------------------------------------

    /// Total remote operations completed across the cluster.
    pub fn total_ops_completed(&self) -> u64 {
        self.nodes.iter().map(|n| n.ops_completed).sum()
    }

    /// Total remote-read payload bytes delivered across the cluster.
    pub fn total_bytes_read(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_read).sum()
    }

    /// Total remote-write payload bytes delivered across the cluster.
    pub fn total_bytes_written(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_written).sum()
    }

    /// Estimated resident heap bytes across every node's model state (see
    /// [`Node::resident_bytes`]). The number the rack4096 memory budget
    /// is asserted against.
    pub fn resident_bytes(&self) -> u64 {
        self.nodes.iter().map(Node::resident_bytes).sum()
    }

    /// Node-crash events executed across the cluster (0 without a fault
    /// plan).
    pub fn total_crashes(&self) -> u64 {
        self.nodes.iter().map(|n| n.crashes).sum()
    }

    /// Packets discarded at delivery because their destination node was
    /// inside a crash window (0 without a fault plan).
    pub fn total_crash_drops(&self) -> u64 {
        self.nodes.iter().map(|n| n.crash_drops).sum()
    }
}
