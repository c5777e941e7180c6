//! Property-based tests for the memory subsystem invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_memory::addr::split_into_lines;
use sonuma_memory::{
    AccessKind, AddressSpace, AgentId, CacheArray, CacheGeometry, FrameAllocator, HierarchyConfig,
    MemoryHierarchy, PAddr, PhysicalMemory, Tlb, VAddr, BLOCK_BYTES, PAGE_BYTES,
};
use sonuma_sim::SimTime;

proptest! {
    /// Writes followed by reads always return the written bytes, regardless
    /// of alignment or frame-boundary crossings.
    #[test]
    fn phys_mem_write_read_roundtrip(
        addr in 0u64..(1 << 20),
        data in vec(any::<u8>(), 1..512),
    ) {
        let mut mem = PhysicalMemory::new(2 << 20);
        mem.write(PAddr::new(addr), &data);
        let mut back = vec![0u8; data.len()];
        mem.read(PAddr::new(addr), &mut back);
        prop_assert_eq!(back, data);
    }

    /// Non-overlapping writes do not disturb each other.
    #[test]
    fn phys_mem_disjoint_writes_independent(
        a_addr in 0u64..10_000,
        a_data in vec(any::<u8>(), 1..64),
        gap in 0u64..1_000,
        b_data in vec(any::<u8>(), 1..64),
    ) {
        let b_addr = a_addr + a_data.len() as u64 + gap;
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.write(PAddr::new(a_addr), &a_data);
        mem.write(PAddr::new(b_addr), &b_data);
        let mut back = vec![0u8; a_data.len()];
        mem.read(PAddr::new(a_addr), &mut back);
        prop_assert_eq!(back, a_data);
    }

    /// The line store agrees with a flat byte array under any mix of
    /// accesses and discards, ranges straddling line, block and frame
    /// edges included. A read materialises nothing, a discard reads back
    /// as zeros, and the resident bytes follow [`Resident`]'s replay of
    /// the young and full blocks.
    #[test]
    fn phys_mem_matches_a_flat_reference(ops in phys_ops()) {
        const CAP: u64 = 256 << 10;
        let mut mem = PhysicalMemory::new(CAP);
        let mut flat = vec![0u8; CAP as usize];
        let mut model = Resident::default();
        for (op, addr, len, x, y) in ops.into_iter().map(|op| op.place(CAP)) {
            let (pa, at) = (PAddr::new(addr), addr as usize..addr as usize + len);
            let old = u64::from_le_bytes(flat[at.clone()].try_into().unwrap_or([0; 8]));
            let resident = mem.resident_bytes();
            let stored = match op {
                0 => {
                    let data: Vec<u8> = (0..len).map(|i| (x >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                    mem.write(pa, &data);
                    Some(data)
                }
                1 => {
                    let mut back = vec![0xA5; len];
                    mem.read(pa, &mut back);
                    prop_assert_eq!(&back[..], &flat[at.clone()]);
                    prop_assert_eq!(mem.resident_bytes(), resident);
                    None
                }
                2 => {
                    mem.store_u64(pa, x);
                    Some(x.to_le_bytes().to_vec())
                }
                3 => {
                    prop_assert_eq!(mem.fetch_add_u64(pa, x), old);
                    Some(old.wrapping_add(x).to_le_bytes().to_vec())
                }
                4 => {
                    let expected = if y % 2 == 0 { old } else { y };
                    prop_assert_eq!(mem.compare_swap_u64(pa, expected, x), old);
                    (expected == old).then(|| x.to_le_bytes().to_vec())
                }
                _ => {
                    mem.discard(pa, len);
                    flat[at.clone()].fill(0);
                    model.discard(addr, len);
                    None
                }
            };
            if let Some(data) = stored {
                flat[at].copy_from_slice(&data);
                model.write(addr, len);
            }
            prop_assert_eq!(mem.resident_bytes(), model.bytes());
        }
        let mut whole = vec![0xA5; CAP as usize];
        mem.read(PAddr::new(0), &mut whole);
        prop_assert!(whole == flat, "the line store and the flat reference differ");
        prop_assert_eq!(mem.resident_bytes(), model.bytes());
    }

    /// `split_into_lines` partitions the range exactly: fragments are
    /// contiguous, line-contained, and sum to the total length.
    #[test]
    fn split_into_lines_partitions(addr in 0u64..100_000, len in 1u64..20_000) {
        let parts: Vec<_> = split_into_lines(addr, len).collect();
        prop_assert_eq!(parts.len() as u64, (addr + len - 1) / 64 - addr / 64 + 1);
        let mut expected_off = 0u64;
        for &(line, off, n) in &parts {
            prop_assert_eq!(off, expected_off);
            let abs = addr + off;
            // Fragment lies within one cache line starting at `line`.
            prop_assert!(abs >= line && abs + n <= line + 64);
            expected_off += n;
        }
        prop_assert_eq!(expected_off, len);
    }

    /// A cache never reports more resident lines than its capacity, and
    /// hits + misses equals the number of accesses.
    #[test]
    fn cache_capacity_and_accounting(lines in vec(0u64..64, 1..200)) {
        let mut c = CacheArray::new(CacheGeometry::new(1024, 2)); // 16 lines
        for &l in &lines {
            c.access(PAddr::new(l * 64), l % 3 == 0);
        }
        prop_assert!(c.resident_lines() <= 16);
        prop_assert_eq!(c.hits() + c.misses(), lines.len() as u64);
    }

    /// Immediately re-accessing any line is a hit (LRU never evicts the MRU
    /// line).
    #[test]
    fn cache_mru_is_stable(lines in vec(0u64..256, 1..100)) {
        let mut c = CacheArray::new(CacheGeometry::new(2048, 4));
        for &l in &lines {
            c.access(PAddr::new(l * 64), false);
            prop_assert!(c.access(PAddr::new(l * 64), false).is_hit());
        }
    }

    /// TLB occupancy never exceeds capacity and a just-inserted entry
    /// always hits.
    #[test]
    fn tlb_capacity_respected(pages in vec((0u32..4, 0u64..128), 1..200)) {
        let mut t = Tlb::new(32);
        for &(asid, vpn) in &pages {
            t.insert(asid, VAddr::new(vpn * PAGE_BYTES), vpn + 1000);
            prop_assert_eq!(
                t.lookup(asid, VAddr::new(vpn * PAGE_BYTES)),
                Some(vpn + 1000)
            );
            prop_assert!(t.occupancy() <= 32);
        }
    }

    /// Translation preserves page offsets and maps distinct pages to
    /// distinct frames.
    #[test]
    fn address_space_translation_is_injective(npages in 1u64..32, probe in 0u64..32_768) {
        let mut alloc = FrameAllocator::new(64 << 20);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(0), npages * PAGE_BYTES, &mut alloc).unwrap();
        let mut frames = std::collections::HashSet::new();
        for p in 0..npages {
            let pa = s.translate(VAddr::new(p * PAGE_BYTES)).unwrap();
            prop_assert!(frames.insert(pa.frame_number()), "frame reused");
        }
        let va = VAddr::new(probe % (npages * PAGE_BYTES));
        let pa = s.translate(va).unwrap();
        prop_assert_eq!(pa.raw() % PAGE_BYTES, va.page_offset());
    }

    /// Hierarchy latencies are always at least the L1 latency and the level
    /// accounting matches the access count.
    #[test]
    fn hierarchy_latency_floor(ops in vec((0usize..3, 0u64..512, any::<bool>()), 1..300)) {
        let mut h = MemoryHierarchy::new(HierarchyConfig::table1(), 3);
        let l1 = h.config().l1_latency;
        for &(agent, line, write) in &ops {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let r = h.access(AgentId(agent), PAddr::new(line * 64), kind, SimTime::ZERO);
            prop_assert!(r.latency >= l1);
        }
        let total: u64 = h.hits_by_level().iter().sum();
        prop_assert_eq!(total, ops.len() as u64);
    }

    /// Functional data never depends on cache state: interleaved accesses
    /// through the hierarchy leave PhysicalMemory identical to a shadow
    /// model (timing and function are fully decoupled).
    #[test]
    fn hierarchy_never_corrupts_function(
        ops in vec((0usize..2, 0u64..64, any::<u64>(), any::<bool>()), 1..200)
    ) {
        let mut h = MemoryHierarchy::new(HierarchyConfig::table1(), 2);
        let mut mem = PhysicalMemory::new(1 << 20);
        let mut shadow = vec![0u64; 64];
        for &(agent, slot, value, write) in &ops {
            let addr = PAddr::new(slot * 64);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            h.access(AgentId(agent), addr, kind, SimTime::ZERO);
            if write {
                mem.store_u64(addr, value);
                shadow[slot as usize] = value;
            } else {
                prop_assert_eq!(mem.load_u64(addr), shadow[slot as usize]);
            }
        }
    }
}

/// One generated [`PhysicalMemory`] operation, before placement.
#[derive(Debug, Clone, Copy)]
struct PhysOp {
    /// 0 write, 1 read, 2 store, 3 fetch-add, 4 compare-swap, 5 discard.
    op: u8,
    frame_edge: bool,
    /// Which block or frame edge.
    k: u64,
    /// Which line past the edge.
    line: u64,
    /// Up to 16 bytes either side of that line's start.
    delta: u64,
    len: usize,
    x: u64,
    y: u64,
}

impl PhysOp {
    /// `(op, addr, len, x, y)` inside a memory of `cap` bytes.
    fn place(self, cap: u64) -> (u8, u64, usize, u64, u64) {
        let unit = if self.frame_edge {
            PAGE_BYTES
        } else {
            BLOCK_BYTES as u64
        };
        let edge = self.k * unit % cap;
        let len = if self.op < 2 || self.op == 5 {
            self.len
        } else {
            8
        };
        let addr = (edge + self.line * 64 + self.delta)
            .saturating_sub(16)
            .min(cap - len as u64);
        (self.op, addr, len, self.x, self.y)
    }
}

/// Op lists for the flat-reference property. Half the edges fall in the
/// first two blocks or frames and half the lengths stay under two lines,
/// so young blocks fill line by line, grow, and are partly discarded.
fn phys_ops() -> impl Strategy<Value = Vec<PhysOp>> {
    let op = (
        (
            0u8..6,
            any::<bool>(),
            prop_oneof![0u64..2, 0u64..512],
            0u64..8,
        ),
        (
            0u64..32,
            prop_oneof![1usize..72, 1usize..1200],
            any::<u64>(),
            any::<u64>(),
        ),
    );
    let op = op.prop_map(|((op, frame_edge, k, line), (delta, len, x, y))| PhysOp {
        op,
        frame_edge,
        k,
        line,
        delta,
        len,
        x,
        y,
    });
    vec(op, 1..64)
}

/// `PhysicalMemory`'s resident-bytes rule replayed per block: the lines a
/// young block stores, or `None` once the block is full. It also counts
/// the two transitions the flat-reference property must reach.
#[derive(Debug, Default)]
struct Resident {
    blocks: std::collections::BTreeMap<u64, Option<u8>>,
    /// Young blocks grown full by a write adding their fifth line.
    grown: usize,
    /// Discards that left part of a young block's lines in place.
    young_partial_discards: usize,
}

impl Resident {
    /// `(block, lines touched, lines wholly inside)` for each block that
    /// `[addr, addr + len)` touches.
    fn spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, u8, u8)> {
        let (block, end) = (BLOCK_BYTES as u64, addr + len as u64);
        (addr / block..=(end - 1) / block).map(move |b| {
            let (mut touched, mut inside) = (0u8, 0u8);
            for l in 0..8 {
                let lo = b * block + l * 64;
                touched |= u8::from(lo < end && lo + 64 > addr) << l;
                inside |= u8::from(lo >= addr && lo + 64 <= end) << l;
            }
            (b, touched, inside)
        })
    }

    fn write(&mut self, addr: u64, len: usize) {
        for (b, touched, _) in Self::spans(addr, len) {
            let entry = self.blocks.entry(b).or_insert(Some(0));
            if let Some(lines) = *entry {
                let now = lines | touched;
                *entry = (now.count_ones() <= 4).then_some(now);
                self.grown += usize::from(entry.is_none() && lines != 0);
            }
        }
    }

    fn discard(&mut self, addr: u64, len: usize) {
        for (b, _, inside) in Self::spans(addr, len) {
            match self.blocks.get(&b).copied() {
                Some(_) if inside == u8::MAX => {
                    self.blocks.remove(&b);
                }
                Some(Some(lines)) if lines & !inside != 0 => {
                    self.young_partial_discards += 1;
                    self.blocks.insert(b, Some(lines & !inside));
                }
                Some(Some(_)) => {
                    self.blocks.remove(&b);
                }
                _ => {}
            }
        }
    }

    fn bytes(&self) -> u64 {
        let block = |lines: &Option<u8>| {
            lines.map_or(BLOCK_BYTES as u64, |l| 64 * u64::from(l.count_ones()))
        };
        self.blocks.values().map(block).sum()
    }
}

/// The flat-reference property's ops reach both young-block transitions
/// in most cases, not just somewhere across the run (replayed without
/// memory contents, so a compare-swap counts as no write).
#[test]
fn phys_ops_grow_young_blocks_and_discard_them_in_part() {
    let cases = ProptestConfig::default().cases;
    let (mut grown, mut partial) = (0, 0);
    for case in 0..cases {
        let mut rng = proptest::TestRng::for_case("phys_ops", case);
        let mut model = Resident::default();
        for (op, addr, len, _, _) in phys_ops()
            .sample(&mut rng)
            .into_iter()
            .map(|op| op.place(256 << 10))
        {
            match op {
                0 | 2 | 3 => model.write(addr, len),
                5 => model.discard(addr, len),
                _ => {}
            }
        }
        grown += usize::from(model.grown > 0);
        partial += usize::from(model.young_partial_discards > 0);
    }
    assert!(
        grown * 2 > cases as usize,
        "{grown} of {cases} cases grow a young block"
    );
    assert!(
        partial * 2 > cases as usize,
        "{partial} of {cases} cases discard part of a young block"
    );
}
