//! The user-level access library (§5.2): the API processes program against.
//!
//! Every method charges the simulated time the equivalent inline C/C++
//! wrapper would cost — a WQ post is a real 64-byte store into the work
//! queue ring through the coherence hierarchy plus the library's bookkeeping
//! — so the per-core remote-operation rate emerges from the same overheads
//! the paper measures (§7.2, §7.5).

use std::error::Error;
use std::fmt;

use sonuma_memory::{AccessKind, VAddr, CACHE_LINE_BYTES};
use sonuma_protocol::{CtxId, NodeId, QpId, WqEntry};
use sonuma_sim::SimTime;

use crate::cluster::Cluster;
use crate::process::Completion;
use crate::ClusterEngine;

/// Errors surfaced by the access library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiError {
    /// The work queue is full; drain completions first
    /// (`rmc_wait_for_slot` in the paper's Fig. 4).
    WqFull,
    /// The queue pair does not exist or belongs to another core.
    BadQp,
    /// Read/write lengths must be nonzero multiples of the 64-byte cache
    /// line (§4.2: "coarser granularities, in cache-line-sized multiples").
    BadLength,
    /// A local buffer address is not mapped.
    Unmapped(VAddr),
    /// The node is out of physical memory.
    OutOfMemory,
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::WqFull => write!(f, "work queue full"),
            ApiError::BadQp => write!(f, "invalid queue pair"),
            ApiError::BadLength => write!(f, "length must be a nonzero multiple of 64"),
            ApiError::Unmapped(va) => write!(f, "unmapped local buffer at {va}"),
            ApiError::OutOfMemory => write!(f, "out of physical memory"),
        }
    }
}

impl Error for ApiError {}

/// The per-wake-up handle through which a process acts on the world.
///
/// Borrowed mutably for the duration of one [`crate::AppProcess::wake`];
/// all actions charge time to the process's core via the internal elapsed
/// counter.
pub struct NodeApi<'a> {
    cluster: &'a mut Cluster,
    engine: &'a mut ClusterEngine,
    node: usize,
    core: usize,
    elapsed: SimTime,
}

impl<'a> NodeApi<'a> {
    pub(crate) fn new(
        cluster: &'a mut Cluster,
        engine: &'a mut ClusterEngine,
        node: usize,
        core: usize,
        base_charge: SimTime,
    ) -> Self {
        NodeApi {
            cluster,
            engine,
            node,
            core,
            elapsed: base_charge,
        }
    }

    pub(crate) fn elapsed(&self) -> SimTime {
        self.elapsed
    }

    /// Current simulated time as seen by this core (event time plus work
    /// already performed in this wake-up).
    pub fn now(&self) -> SimTime {
        self.engine.now() + self.elapsed
    }

    /// This node's fabric id.
    pub fn node_id(&self) -> NodeId {
        NodeId(self.node as u16)
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.cluster.num_nodes()
    }

    /// Number of cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.cluster.config().cores_per_node
    }

    /// Charges explicit compute time (the per-item work of an application
    /// kernel, e.g. a PageRank edge update).
    pub fn compute(&mut self, d: SimTime) {
        self.elapsed += d;
    }

    /// The platform's access-library cost parameters, for applications
    /// that charge their own per-callback work.
    pub fn software(&self) -> crate::config::SoftwareTiming {
        self.cluster.config().software
    }

    /// Base virtual address of this node's segment in context `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if the context is not registered.
    pub fn ctx_base(&self, ctx: CtxId) -> VAddr {
        self.cluster
            .node(self.node)
            .rmc
            .ct
            .lookup(ctx)
            .expect("context not registered")
            .segment_base
    }

    /// Allocates pinned local memory (buffers); no time charge (setup path).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::OutOfMemory`] on exhaustion.
    pub fn heap_alloc(&mut self, len: u64) -> Result<VAddr, ApiError> {
        self.cluster
            .node_mut(self.node)
            .heap_alloc(len)
            .map_err(|_| ApiError::OutOfMemory)
    }

    fn validate_buffer(&self, va: VAddr, len: u64) -> Result<(), ApiError> {
        let node = self.cluster.node(self.node);
        node.translate(va).map_err(|_| ApiError::Unmapped(va))?;
        if len > 0 {
            let last = va.offset(len - 1);
            node.translate(last).map_err(|_| ApiError::Unmapped(last))?;
        }
        Ok(())
    }

    fn post(&mut self, qp: QpId, entry: WqEntry) -> Result<u16, ApiError> {
        let n = self.node;
        {
            let node = self.cluster.node_mut(n);
            let cursors = node.app_qps.get(qp.index()).ok_or(ApiError::BadQp)?;
            if cursors.owner_core != self.core {
                return Err(ApiError::BadQp);
            }
            // Head-of-ring flow control (`rmc_wait_for_slot`): completions
            // are out of order, so the next slot may still be in flight
            // even when others have completed.
            if cursors.outstanding >= node.rmc.qps[qp.index()].entries()
                || cursors.slot_busy[cursors.wq_index as usize]
            {
                // Backpressure is an explicit error, never a silent drop;
                // count it so noisy-neighbor rejection is observable.
                node.wq_full_rejections += 1;
                node.tenants.note_wq_full(qp);
                return Err(ApiError::WqFull);
            }
        }
        // Interrupts carry no local buffer; everything else must reference
        // mapped memory.
        if entry.op != sonuma_protocol::RemoteOp::Interrupt {
            self.validate_buffer(VAddr::new(entry.buf_vaddr), entry.length)?;
        }

        let now = self.now();
        let software = self.cluster.config().software;
        let node = self.cluster.node_mut(n);
        let (wq_index, wq_phase) = {
            let cur = &node.app_qps[qp.index()];
            (cur.wq_index, cur.wq_phase)
        };
        let wq_va = node.rmc.qps[qp.index()].wq_entry_addr(wq_index);
        let bytes = entry.encode(wq_phase);
        let pa = node.translate(wq_va).expect("WQ rings pinned");
        let agent = node.core_agent(self.core);
        let store = node
            .hierarchy
            .access(agent, pa, AccessKind::Write, now)
            .latency;
        node.write_translated(wq_va, pa, &bytes).expect("WQ mapped");

        let posted_index = wq_index;
        let entries = node.rmc.qps[qp.index()].entries();
        let cur = &mut node.app_qps[qp.index()];
        cur.outstanding += 1;
        cur.slot_busy[posted_index as usize] = true;
        cur.wq_index += 1;
        if cur.wq_index == entries {
            cur.wq_index = 0;
            cur.wq_phase = !cur.wq_phase;
        }

        self.elapsed += software.post_cost + store;
        let t = self.now();
        self.cluster.notify_rgp(self.engine, t, n, qp);
        Ok(posted_index)
    }

    /// Schedules an asynchronous remote read of `len` bytes from
    /// `<dst, ctx, offset>` into the local buffer at `buf` (the paper's
    /// `rmc_read_async`). Returns the WQ slot index for callback matching.
    ///
    /// # Errors
    ///
    /// [`ApiError::WqFull`] when all slots are in flight, plus the usual
    /// validation errors.
    pub fn post_read(
        &mut self,
        qp: QpId,
        dst: NodeId,
        ctx: CtxId,
        offset: u64,
        buf: VAddr,
        len: u64,
    ) -> Result<u16, ApiError> {
        if len == 0 || !len.is_multiple_of(CACHE_LINE_BYTES) {
            return Err(ApiError::BadLength);
        }
        self.post(qp, WqEntry::read(dst, ctx, offset, buf.raw(), len))
    }

    /// Schedules an asynchronous remote write of `len` bytes from the local
    /// buffer at `buf` to `<dst, ctx, offset>` (`rmc_write_async`).
    ///
    /// # Errors
    ///
    /// As [`NodeApi::post_read`].
    pub fn post_write(
        &mut self,
        qp: QpId,
        dst: NodeId,
        ctx: CtxId,
        offset: u64,
        buf: VAddr,
        len: u64,
    ) -> Result<u16, ApiError> {
        if len == 0 || !len.is_multiple_of(CACHE_LINE_BYTES) {
            return Err(ApiError::BadLength);
        }
        self.post(qp, WqEntry::write(dst, ctx, offset, buf.raw(), len))
    }

    /// Schedules a remote fetch-and-add of `delta` on the 8-byte word at
    /// `<dst, ctx, offset>`; the previous value lands at `result_buf`.
    ///
    /// # Errors
    ///
    /// As [`NodeApi::post_read`] (atomics have a fixed 8-byte length).
    pub fn post_fetch_add(
        &mut self,
        qp: QpId,
        dst: NodeId,
        ctx: CtxId,
        offset: u64,
        result_buf: VAddr,
        delta: u64,
    ) -> Result<u16, ApiError> {
        self.post(
            qp,
            WqEntry::fetch_add(dst, ctx, offset, result_buf.raw(), delta),
        )
    }

    /// Schedules a remote compare-and-swap on the 8-byte word at
    /// `<dst, ctx, offset>`; the observed value lands at `result_buf`.
    ///
    /// # Errors
    ///
    /// As [`NodeApi::post_read`].
    #[allow(clippy::too_many_arguments)] // mirrors the paper's rmc_comp_swap_async signature
    pub fn post_comp_swap(
        &mut self,
        qp: QpId,
        dst: NodeId,
        ctx: CtxId,
        offset: u64,
        result_buf: VAddr,
        expected: u64,
        new: u64,
    ) -> Result<u16, ApiError> {
        self.post(
            qp,
            WqEntry::comp_swap(dst, ctx, offset, result_buf.raw(), expected, new),
        )
    }

    /// Sends a remote interrupt carrying an 8-byte `payload` to `dst`'s
    /// registered handler core — the §8 extension ("the ability to issue
    /// remote interrupts as part of an RMC command, so that nodes can
    /// communicate without polling"). Completes locally like any one-sided
    /// operation; dropped (with a counter) if the destination registered
    /// no handler.
    ///
    /// # Errors
    ///
    /// As [`NodeApi::post_read`].
    pub fn post_interrupt(
        &mut self,
        qp: QpId,
        dst: NodeId,
        ctx: CtxId,
        payload: u64,
    ) -> Result<u16, ApiError> {
        self.post(qp, WqEntry::interrupt(dst, ctx, payload))
    }

    /// Polls the completion queue, draining every fresh entry (the paper's
    /// CQ-polling loop). Charges poll plus per-completion dispatch costs.
    pub fn poll_cq(&mut self, qp: QpId) -> Vec<Completion> {
        let software = self.cluster.config().software;
        let comps = self.cluster.drain_cq(self.node, qp);
        self.elapsed += software.cq_poll_cost + software.completion_cost * comps.len() as u64;
        comps
    }

    /// Operations posted but not yet observed complete on `qp`.
    pub fn outstanding(&self, qp: QpId) -> u16 {
        self.cluster.node(self.node).app_qps[qp.index()].outstanding
    }

    /// The WQ slot index the next successful post will occupy. Useful for
    /// associating per-operation resources (e.g. a scratch source line that
    /// must stay stable until the RGP reads it) with the slot.
    pub fn next_wq_index(&self, qp: QpId) -> u16 {
        self.cluster.node(self.node).app_qps[qp.index()].wq_index
    }

    /// Ring capacity of `qp`.
    pub fn qp_capacity(&self, qp: QpId) -> u16 {
        self.cluster.node(self.node).rmc.qps[qp.index()].entries()
    }

    /// Registers (or updates) a tenant on this node, making its weight and
    /// SLO class visible to the RGP's QoS scheduler. Setup path: no time
    /// charge.
    pub fn register_tenant(&mut self, spec: crate::tenancy::TenantSpec) {
        self.cluster.node_mut(self.node).tenants.register(spec);
    }

    /// Creates a queue pair owned by this core and bound to `tenant`
    /// (which must be registered). Setup path: no time charge.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::OutOfMemory`] if the rings cannot be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not registered or `ctx` does not exist.
    pub fn create_tenant_qp(
        &mut self,
        ctx: CtxId,
        tenant: sonuma_protocol::TenantId,
    ) -> Result<QpId, ApiError> {
        let node = NodeId(self.node as u16);
        let core = self.core;
        self.cluster
            .create_tenant_qp(node, ctx, core, tenant)
            .map_err(|_| ApiError::OutOfMemory)
    }

    /// The tenant registration owning `qp`, if any.
    pub fn qp_tenant(&self, qp: QpId) -> Option<crate::tenancy::TenantSpec> {
        self.cluster.node(self.node).tenants.qp_tenant(qp).copied()
    }

    /// Local memory read with cache-timing charges (one hierarchy access
    /// per line touched).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Unmapped`] if the range is not mapped.
    pub fn local_read(&mut self, va: VAddr, buf: &mut [u8]) -> Result<(), ApiError> {
        self.local_access(va, buf.len() as u64, AccessKind::Read)?;
        self.cluster
            .node(self.node)
            .read_virt(va, buf)
            .map_err(|_| ApiError::Unmapped(va))
    }

    /// Local memory write with cache-timing charges.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Unmapped`] if the range is not mapped.
    pub fn local_write(&mut self, va: VAddr, data: &[u8]) -> Result<(), ApiError> {
        self.local_access(va, data.len() as u64, AccessKind::Write)?;
        self.cluster
            .node_mut(self.node)
            .write_virt(va, data)
            .map_err(|_| ApiError::Unmapped(va))
    }

    /// Reads a little-endian `u64` from local memory.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Unmapped`] if the address is not mapped.
    pub fn local_load_u64(&mut self, va: VAddr) -> Result<u64, ApiError> {
        let mut buf = [0u8; 8];
        self.local_read(va, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian `u64` to local memory.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Unmapped`] if the address is not mapped.
    pub fn local_store_u64(&mut self, va: VAddr, value: u64) -> Result<(), ApiError> {
        self.local_write(va, &value.to_le_bytes())
    }

    fn local_access(&mut self, va: VAddr, len: u64, kind: AccessKind) -> Result<(), ApiError> {
        if len == 0 {
            return Ok(());
        }
        self.validate_buffer(va, len)?;
        let mut t = self.now();
        let node = self.cluster.node_mut(self.node);
        let agent = node.core_agent(self.core);
        let mut charged = SimTime::ZERO;
        for (line, _, _) in sonuma_memory::addr::split_into_lines(va.raw(), len) {
            let pa = node
                .translate(VAddr::new(line))
                .map_err(|_| ApiError::Unmapped(VAddr::new(line)))?;
            let lat = node.hierarchy.access(agent, pa, kind, t).latency;
            t += lat;
            charged += lat;
        }
        self.elapsed += charged;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_error_displays() {
        for e in [
            ApiError::WqFull,
            ApiError::BadQp,
            ApiError::BadLength,
            ApiError::Unmapped(VAddr::new(0x10)),
            ApiError::OutOfMemory,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
