//! Per-node state: memory, coherence hierarchy, RMC, cores, queue pairs.

use std::collections::VecDeque;

use sonuma_memory::{
    AccessKind, AddressSpace, AgentId, FrameAllocator, MemError, MemoryHierarchy, PAddr,
    PhysicalMemory, Tlb, VAddr, PAGE_BYTES,
};
use sonuma_protocol::QpId;
use sonuma_rmc::{ContextTable, CtCache, InflightTable, Maq, QueuePairState, RmcTiming};
use sonuma_sim::SimTime;

use crate::config::MachineConfig;
use crate::fault::RetryTable;
use crate::pipeline::{RcpState, RgpState, RrppState};
use crate::process::AppProcess;
use crate::tenancy::TenantTable;

/// Base virtual address of the per-node private heap (WQ/CQ rings, local
/// buffers).
pub const HEAP_BASE: u64 = 0x0010_0000;

/// Base virtual address of context segments (the globally accessible part
/// of each node's address space).
pub const CTX_BASE: u64 = 0x4000_0000;

/// Bytes reserved at the top of physical memory for page-table lines (the
/// hardware walker's memory traffic is charged against real, cacheable
/// addresses).
const PT_REGION_BYTES: u64 = 16 << 20;

/// What a core is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// No process attached (or the process returned `Step::Done`).
    Idle,
    /// Currently executing a wake-up (transient).
    Running,
    /// Waiting for a timer.
    Sleeping,
    /// Waiting for a completion on a QP.
    WaitingCq(QpId),
    /// Waiting for a remote write into a memory range.
    WaitingMemory(VAddr, u64),
    /// Waiting for whichever of the two comes first.
    WaitingEither(QpId, VAddr, u64),
}

/// One simulated core and its attached process.
pub struct CoreSlot {
    /// The application, absent while idle.
    pub process: Option<Box<dyn AppProcess>>,
    /// Current blocking state.
    pub block: BlockState,
    /// Set while a wake event is already scheduled (dedup).
    pub wake_pending: bool,
    /// Logical time the core finished its last wake-up. Wake deliveries
    /// never precede this: the core cannot observe a completion while it
    /// is still retiring the instructions of its previous run.
    pub busy_until: SimTime,
}

impl std::fmt::Debug for CoreSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreSlot")
            .field("attached", &self.process.is_some())
            .field("block", &self.block)
            .field("wake_pending", &self.wake_pending)
            .finish()
    }
}

/// Application-side cursors of one queue pair (the halves the access
/// library owns: WQ producer, CQ consumer).
#[derive(Debug, Clone)]
pub struct AppQpCursors {
    /// Core that owns (polls) this QP.
    pub owner_core: usize,
    /// Next WQ slot to fill.
    pub wq_index: u16,
    /// Phase bit to write into the next WQ entry.
    pub wq_phase: bool,
    /// Next CQ slot to read.
    pub cq_index: u16,
    /// Phase bit expected on the next fresh CQ entry.
    pub cq_phase: bool,
    /// CQ entries this consumer has drained. Compared against the RMC's
    /// `cq_produced` counter for an O(1) "anything new?" check, so the
    /// ubiquitous empty poll never walks the ring through page
    /// translation.
    pub cq_drained: u64,
    /// Posted-but-not-yet-consumed completions (bounds WQ occupancy).
    pub outstanding: u16,
    /// Per-slot in-flight markers. Completions arrive out of order (§4.2),
    /// so a slot is reusable only once *its* completion is processed —
    /// the paper's `rmc_wait_for_slot` semantics, which is what lets the
    /// CQ identify requests by WQ index unambiguously.
    pub slot_busy: Vec<bool>,
}

/// An armed memory watch: `core` wants a wake-up when a remote write lands
/// in `[addr, addr+len)`.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    /// Watching core.
    pub core: usize,
    /// Range base.
    pub addr: VAddr,
    /// Range length.
    pub len: u64,
}

/// The RMC: the three pipelines' state machines plus the structures they
/// share — CT/CT$, ITT, MAQ, TLB and the per-QP cursors (§4.2, §4.3).
#[derive(Debug)]
pub struct RmcUnit {
    /// Pipeline timing parameters.
    pub timing: RmcTiming,
    /// The Context Table (driver-maintained).
    pub ct: ContextTable,
    /// The CT$ lookaside.
    pub ct_cache: CtCache,
    /// Inflight Transaction Table.
    pub itt: InflightTable,
    /// Memory Access Queue.
    pub maq: Maq,
    /// The RMC's TLB (32 entries, Table 1).
    pub tlb: Tlb,
    /// Registered queue pairs (RMC-side cursors).
    pub qps: Vec<QueuePairState>,
    /// Request Generation Pipeline state and counters.
    pub rgp: RgpState,
    /// Remote Request Processing Pipeline counters.
    pub rrpp: RrppState,
    /// Request Completion Pipeline counters.
    pub rcp: RcpState,
}

/// One soNUMA node: SoC + memory + RMC, attached to the fabric.
#[derive(Debug)]
pub struct Node {
    /// Functional memory contents.
    pub phys: PhysicalMemory,
    /// Timing model (cores + RMC share it; RMC is the last agent).
    pub hierarchy: MemoryHierarchy,
    /// Physical frame allocator.
    pub alloc: FrameAllocator,
    /// The single application address space on this node (asid 0).
    pub space: AddressSpace,
    /// Bump pointer for heap allocations.
    pub heap_next: u64,
    /// The remote memory controller.
    pub rmc: RmcUnit,
    /// Application cores.
    pub cores: Vec<CoreSlot>,
    /// Application-side QP cursors, indexed like `rmc.qps`.
    pub app_qps: Vec<AppQpCursors>,
    /// Tenant registry: QP ownership, weights/SLO classes, per-tenant
    /// counters.
    pub tenants: TenantTable,
    /// Posts the access library rejected with `WqFull` (API-boundary
    /// backpressure, all tenants).
    pub wq_full_rejections: u64,
    /// Armed memory watches.
    pub watches: Vec<Watch>,
    /// Core designated to receive remote interrupts, if any.
    pub interrupt_handler: Option<usize>,
    /// Interrupts accepted but not yet delivered (FIFO).
    pub pending_interrupts: VecDeque<(sonuma_protocol::NodeId, u64)>,
    /// Interrupts dropped because no handler was registered.
    pub interrupts_dropped: u64,
    /// Retransmission state of in-flight requests, indexed by tid.
    /// Empty (and untouched) unless a fault plan is installed.
    pub(crate) retry: RetryTable,
    /// Times this node's RMC crashed (per the fault plan).
    pub crashes: u64,
    /// Packets dropped on arrival because this node was inside its crash
    /// window.
    pub crash_drops: u64,
    /// Completed remote operations issued by this node.
    pub ops_completed: u64,
    /// Payload bytes this node wrote to remote memory.
    pub bytes_written: u64,
    /// Rolling FNV-style hash over `(time, src, tid, seq)` of every packet
    /// delivered *to* this node, in delivery order. Two runs deliver
    /// packets in the same order iff their hashes match — the
    /// serial-equivalence property tests gate on it.
    pub deliver_hash: u64,
}

impl Node {
    /// Builds an idle node per `config`.
    ///
    /// # Panics
    ///
    /// Panics if a cache level cannot tag the top line of
    /// `config.mem_bytes`: a way word holds 30 bits of tag and recency
    /// rank, the rank `ceil(log2 ways)` of them (`sonuma_memory::CacheArray`).
    pub fn new(config: &MachineConfig) -> Self {
        let top = PAddr::new(config.mem_bytes - 1);
        let h = &config.hierarchy;
        for (level, geom) in [("L1", h.l1_geometry), ("LLC", h.l2_geometry)] {
            let tag_bits = 30 - geom.ways().next_power_of_two().trailing_zeros();
            assert!(
                geom.tag_of(top) >> tag_bits == 0,
                "{level} ({}-way) tags are {tag_bits} bits, too few for {} B of memory",
                geom.ways(),
                config.mem_bytes
            );
        }
        let agents = config.cores_per_node + 1;
        // Leave the PT region out of the allocatable pool.
        let allocatable = config.mem_bytes - PT_REGION_BYTES;
        Node {
            phys: PhysicalMemory::new(config.mem_bytes),
            hierarchy: MemoryHierarchy::new(config.hierarchy, agents),
            alloc: FrameAllocator::new(allocatable),
            space: AddressSpace::new(0),
            heap_next: HEAP_BASE,
            rmc: RmcUnit {
                timing: config.rmc,
                ct: ContextTable::new(),
                ct_cache: CtCache::new(config.rmc.ct_cache_entries),
                itt: InflightTable::new(config.itt_entries),
                maq: Maq::new(config.rmc.maq_entries),
                tlb: Tlb::new(config.rmc.tlb_entries),
                qps: Vec::new(),
                rgp: RgpState::with_policy(config.sched_policy),
                rrpp: RrppState::default(),
                rcp: RcpState::default(),
            },
            cores: (0..config.cores_per_node)
                .map(|_| CoreSlot {
                    process: None,
                    block: BlockState::Idle,
                    wake_pending: false,
                    busy_until: SimTime::ZERO,
                })
                .collect(),
            app_qps: Vec::new(),
            tenants: TenantTable::default(),
            wq_full_rejections: 0,
            watches: Vec::new(),
            interrupt_handler: None,
            pending_interrupts: VecDeque::new(),
            interrupts_dropped: 0,
            retry: RetryTable::default(),
            crashes: 0,
            crash_drops: 0,
            ops_completed: 0,
            bytes_written: 0,
            deliver_hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// The hierarchy agent id of core `c`.
    pub fn core_agent(&self, core: usize) -> AgentId {
        debug_assert!(core < self.cores.len());
        AgentId(core)
    }

    /// The hierarchy agent id of the RMC (always the last agent).
    pub fn rmc_agent(&self) -> AgentId {
        AgentId(self.cores.len())
    }

    /// Estimated heap bytes this node's model state actually occupies.
    ///
    /// Counts what is *resident*, not what is addressable: written
    /// physical blocks, the cache sets fills have placed and their slot
    /// tables (the hierarchy keeps no coherence entries beside them),
    /// grown ITT/CT slots, page-table entries, and per-QP cursor state.
    /// The way arrays are sized by geometry but pack filled sets from the
    /// start of their young and grown regions, so the pages past the last
    /// filled set of each are never faulted in; untouched table slots
    /// contribute nothing. That is the property the rack4096 memory diet
    /// relies on.
    pub fn resident_bytes(&self) -> u64 {
        const PTE_BYTES: u64 = 8; // one pfn per page in an extent's run
        let blocks = self.phys.resident_bytes();
        let tags = self.hierarchy.resident_bytes();
        let ptes = self.space.mapped_pages() as u64 * PTE_BYTES;
        let rmc = self.rmc.itt.resident_bytes() as u64
            + self.rmc.ct.resident_bytes() as u64
            + (self.rmc.qps.len() * std::mem::size_of::<QueuePairState>()) as u64;
        let qp_cursors = self
            .app_qps
            .iter()
            .map(|q| std::mem::size_of::<AppQpCursors>() as u64 + q.slot_busy.capacity() as u64)
            .sum::<u64>();
        blocks + tags + ptes + rmc + qp_cursors
    }

    /// Translates a virtual address through the node's page table.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError::Unmapped`] faults.
    pub fn translate(&self, va: VAddr) -> Result<PAddr, MemError> {
        self.space.translate(va)
    }

    /// Functional read of `buf.len()` bytes at virtual `va` (handles page
    /// crossings).
    ///
    /// # Errors
    ///
    /// Fails if any page in the range is unmapped.
    pub fn read_virt(&self, va: VAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va.offset(done as u64);
            let pa = self.translate(cur)?;
            let take = ((PAGE_BYTES - cur.page_offset()) as usize).min(buf.len() - done);
            self.phys.read(pa, &mut buf[done..done + take]);
            done += take;
        }
        Ok(())
    }

    /// Functional write of `data` at virtual `va` (handles page crossings).
    ///
    /// # Errors
    ///
    /// Fails if any page in the range is unmapped.
    pub fn write_virt(&mut self, va: VAddr, data: &[u8]) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < data.len() {
            let cur = va.offset(done as u64);
            let pa = self.translate(cur)?;
            let take = ((PAGE_BYTES - cur.page_offset()) as usize).min(data.len() - done);
            self.phys.write(pa, &data[done..done + take]);
            done += take;
        }
        Ok(())
    }

    /// Gives back the host bytes behind `len` bytes at virtual `va`
    /// ([`PhysicalMemory::discard`] on each page's piece): the range stays
    /// mapped and reads as zeros until it is written again.
    ///
    /// # Errors
    ///
    /// Fails if any page in the range is unmapped.
    pub fn discard_virt(&mut self, va: VAddr, len: u64) -> Result<(), MemError> {
        let mut done = 0;
        while done < len {
            let cur = va.offset(done);
            let pa = self.translate(cur)?;
            let take = (PAGE_BYTES - cur.page_offset()).min(len - done);
            self.phys.discard(pa, take as usize);
            done += take;
        }
        Ok(())
    }

    /// Whether `[va, va + len)` lies inside one page — and is therefore
    /// contiguous in physical memory starting at `va`'s translation.
    #[inline]
    fn within_page(va: VAddr, len: usize) -> bool {
        va.page_offset() + len as u64 <= PAGE_BYTES
    }

    /// [`Node::read_virt`] for a caller that already holds `va`'s
    /// translation `pa` (the pipelines translate once for timing): a range
    /// inside one page — every line-aligned queue entry and payload line —
    /// is read straight from `pa` without walking the page table again;
    /// only a range that crosses a page (an unaligned application buffer)
    /// takes the `read_virt` path.
    ///
    /// # Errors
    ///
    /// Fails if a page of a crossing range is unmapped.
    pub fn read_translated(&self, va: VAddr, pa: PAddr, buf: &mut [u8]) -> Result<(), MemError> {
        debug_assert_eq!(self.translate(va), Ok(pa), "stale translation for {va:?}");
        if Self::within_page(va, buf.len()) {
            self.phys.read(pa, buf);
            Ok(())
        } else {
            self.read_virt(va, buf)
        }
    }

    /// [`Node::write_virt`] for a caller that already holds `va`'s
    /// translation `pa`; see [`Node::read_translated`].
    ///
    /// # Errors
    ///
    /// Fails if a page of a crossing range is unmapped.
    pub fn write_translated(&mut self, va: VAddr, pa: PAddr, data: &[u8]) -> Result<(), MemError> {
        debug_assert_eq!(self.translate(va), Ok(pa), "stale translation for {va:?}");
        if Self::within_page(va, data.len()) {
            self.phys.write(pa, data);
            Ok(())
        } else {
            self.write_virt(va, data)
        }
    }

    /// One cache-line access by the RMC through the MAQ: bounded
    /// concurrency, hierarchy timing. Returns the completion time.
    pub fn rmc_line_access(&mut self, now: SimTime, pa: PAddr, kind: AccessKind) -> SimTime {
        let rmc_agent = AgentId(self.cores.len());
        let hierarchy = &mut self.hierarchy;
        let (_, done) = self.rmc.maq.schedule(now, |start| {
            hierarchy.access(rmc_agent, pa, kind, start).latency
        });
        done
    }

    /// RMC-side translation with TLB + hardware page walk. Returns the
    /// translation result and the time translation completes.
    ///
    /// Walk traffic is charged against real, cacheable page-table lines in
    /// a reserved physical region — hot PT entries hit in the LLC exactly
    /// as the paper's shared-page-table argument expects.
    pub fn rmc_translate(&mut self, now: SimTime, va: VAddr) -> (Result<PAddr, MemError>, SimTime) {
        let mut t = now + self.rmc.timing.tlb_lookup;
        let pa = self.space.translate(va);
        let hit = self.rmc.tlb.lookup(0, va).is_some();
        if !hit {
            for level in 0..self.space.walk_references() {
                let pt_pa = self.pt_line_addr(va, level);
                t = self.rmc_line_access(t, pt_pa, AccessKind::Read);
            }
            if let Ok(pa) = pa {
                self.rmc.tlb.insert(0, va, pa.frame_number());
            }
        }
        (pa, t)
    }

    /// Physical address of the page-table line the walker touches for
    /// `va` at `level`.
    fn pt_line_addr(&self, va: VAddr, level: u32) -> PAddr {
        let region_base = self.phys.capacity() - PT_REGION_BYTES;
        let idx = (va.page_number() * 2 + level as u64) * 64 % PT_REGION_BYTES;
        PAddr::new(region_base + idx)
    }

    /// Allocates `len` bytes (rounded to whole pages for simplicity of
    /// pinning) from the private heap, mapping frames eagerly.
    ///
    /// # Errors
    ///
    /// Fails when physical memory is exhausted.
    pub fn heap_alloc(&mut self, len: u64) -> Result<VAddr, MemError> {
        let base = VAddr::new(self.heap_next);
        let pages = len.div_ceil(PAGE_BYTES).max(1);
        self.space
            .map_range(base, pages * PAGE_BYTES, &mut self.alloc)?;
        self.heap_next += pages * PAGE_BYTES;
        Ok(base)
    }

    /// Returns the index of the first armed watch intersecting
    /// `[addr, addr+len)`, if any.
    pub fn matching_watch(&self, addr: VAddr, len: u64) -> Option<usize> {
        self.watches.iter().position(|w| {
            let (a0, a1) = (addr.raw(), addr.raw() + len);
            let (w0, w1) = (w.addr.raw(), w.addr.raw() + w.len);
            a0 < w1 && w0 < a1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonuma_protocol::CtxId;
    use sonuma_rmc::ContextEntry;

    fn node() -> Node {
        Node::new(&MachineConfig::simulated_hardware(2))
    }

    #[test]
    #[should_panic(expected = "LLC (64-way) tags are 24 bits, too few for 4294967296 B")]
    fn memory_too_large_for_the_cache_tags_is_refused_at_construction() {
        // One fully associative 64-way set: its lines' tags are whole line
        // indices, 26 bits for 4 GiB against the 24 a 6-bit rank leaves.
        let mut config = MachineConfig::simulated_hardware(2);
        config.hierarchy.l2_geometry = sonuma_memory::CacheGeometry::new(64 * 64, 64);
        Node::new(&config);
    }

    #[test]
    fn heap_alloc_maps_pages() {
        let mut n = node();
        let a = n.heap_alloc(100).unwrap();
        assert_eq!(a.raw(), HEAP_BASE);
        assert!(n.translate(a).is_ok());
        let b = n.heap_alloc(PAGE_BYTES * 2).unwrap();
        assert_eq!(b.raw(), HEAP_BASE + PAGE_BYTES);
        assert!(n
            .translate(VAddr::new(b.raw() + 2 * PAGE_BYTES - 1))
            .is_ok());
    }

    #[test]
    fn virt_rw_roundtrip_across_pages() {
        let mut n = node();
        let base = n.heap_alloc(3 * PAGE_BYTES).unwrap();
        let data: Vec<u8> = (0..PAGE_BYTES as usize + 100).map(|i| i as u8).collect();
        let va = base.offset(PAGE_BYTES - 50);
        n.write_virt(va, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        n.read_virt(va, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn discard_virt_frees_blocks_across_pages_and_keeps_the_mapping() {
        let mut n = node();
        let base = n.heap_alloc(2 * PAGE_BYTES).unwrap();
        n.write_virt(base, &vec![1u8; 2 * PAGE_BYTES as usize])
            .unwrap();
        let before = n.phys.resident_bytes();
        n.discard_virt(base, 2 * PAGE_BYTES).unwrap();
        assert_eq!(before - n.phys.resident_bytes(), 2 * PAGE_BYTES);
        let mut back = vec![0xFFu8; 2 * PAGE_BYTES as usize];
        n.read_virt(base, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0));
        assert!(n.discard_virt(base.offset(2 * PAGE_BYTES), 1).is_err());
    }

    #[test]
    fn translated_rw_matches_virt_rw_inside_and_across_pages() {
        let mut n = node();
        // Burn a frame between the two pages so they are adjacent
        // virtually but not physically: writing through the first page's
        // translation past its end would land in the wrong frame.
        let base = n.heap_alloc(PAGE_BYTES).unwrap();
        n.alloc.alloc().unwrap();
        n.heap_alloc(PAGE_BYTES).unwrap();
        let data: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5a).collect();
        for offset in [0, 64, PAGE_BYTES - 64, PAGE_BYTES - 36, PAGE_BYTES - 1] {
            let va = base.offset(offset);
            let pa = n.translate(va).unwrap();
            n.write_translated(va, pa, &data).unwrap();
            let mut virt = vec![0u8; 64];
            n.read_virt(va, &mut virt).unwrap();
            assert_eq!(virt, data, "write at page offset {offset}");
            let mut direct = vec![0u8; 64];
            n.read_translated(va, pa, &mut direct).unwrap();
            assert_eq!(direct, data, "read at page offset {offset}");
        }
    }

    #[test]
    fn unmapped_virt_access_fails() {
        let n = node();
        let mut buf = [0u8; 4];
        assert!(n.read_virt(VAddr::new(0xDEAD_0000), &mut buf).is_err());
    }

    #[test]
    fn rmc_translate_uses_tlb_after_walk() {
        let mut n = node();
        let va = n.heap_alloc(64).unwrap();
        let (r1, t1) = n.rmc_translate(SimTime::ZERO, va);
        assert!(r1.is_ok());
        assert!(t1 > n.rmc.timing.tlb_lookup, "first translation walks");
        let (r2, t2) = n.rmc_translate(t1, va);
        assert_eq!(r1.unwrap(), r2.unwrap());
        assert_eq!(
            t2 - t1,
            n.rmc.timing.tlb_lookup,
            "second translation hits TLB"
        );
    }

    #[test]
    fn rmc_line_access_completes_out_of_order() {
        // §4.3: "The MAQ supports out-of-order completion of memory
        // accesses" — a later L1 hit may finish before an earlier DRAM miss.
        let mut n = node();
        let va = n.heap_alloc(64).unwrap();
        let pa = n.translate(va).unwrap();
        let t1 = n.rmc_line_access(SimTime::ZERO, pa, AccessKind::Read); // DRAM
        let t2 = n.rmc_line_access(SimTime::ZERO, pa, AccessKind::Read); // L1 hit
        assert!(t2 < t1, "the L1 hit should complete before the DRAM miss");
        assert_eq!(n.rmc.maq.accesses(), 2);
    }

    #[test]
    fn watch_matching_intersects_ranges() {
        let mut n = node();
        n.watches.push(Watch {
            core: 0,
            addr: VAddr::new(100),
            len: 50,
        });
        assert!(n.matching_watch(VAddr::new(140), 20).is_some());
        assert!(n.matching_watch(VAddr::new(150), 10).is_none());
        assert!(n.matching_watch(VAddr::new(0), 101).is_some());
        assert!(n.matching_watch(VAddr::new(0), 100).is_none());
    }

    #[test]
    fn context_registration_is_visible() {
        let mut n = node();
        n.rmc.ct.register(
            CtxId(0),
            ContextEntry {
                segment_base: VAddr::new(CTX_BASE),
                segment_len: 8192,
                asid: 0,
                qps: vec![],
            },
        );
        assert!(n.rmc.ct.lookup(CtxId(0)).is_ok());
    }
}
