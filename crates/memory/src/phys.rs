//! Functional physical memory: the bytes behind every simulated node.

use crate::addr::{PAddr, CACHE_LINE_BYTES, PAGE_BYTES};
use std::ops::Range;

/// The unit of [`PhysicalMemory`]'s slot table. A block holds its first
/// few written lines one by one and is materialised whole from the fifth
/// on: measured, not tuned (DESIGN.md, "The frame" and "The line").
pub const BLOCK_BYTES: usize = 512;

const LINE: usize = CACHE_LINE_BYTES as usize;

/// Distinct lines a young block stores before it grows into a full one.
const YOUNG_LINES: usize = 4;

/// Slot values at and above this name a full block; below it, a nonzero
/// slot names a young group plus one, and zero a block never written.
const FULL: u32 = 1 << 31;

/// A block's slot, decoded.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Unwritten,
    /// Its index in `groups`.
    Young(u32),
    /// Its index in `full`.
    Full(u32),
}

/// One simulated node's physical memory: sparse 64 B lines, gathered into
/// 512 B blocks once a block is dense.
///
/// This is the *functional* half of the memory model — the timing half lives
/// in [`crate::MemoryHierarchy`]. Memory is zero until written, so a 4 GB
/// node costs only what the workload actually writes. Each block is in one
/// of three states: never written; *young*, holding up to four written
/// lines in a per-node line arena; or *full*, one 512 B allocation. The
/// fifth distinct line written to a young block grows it into a full one.
///
/// # Example
///
/// ```
/// use sonuma_memory::{PhysicalMemory, PAddr};
///
/// let mut mem = PhysicalMemory::new(4 << 30);
/// mem.store_u64(PAddr::new(0x100), 0xDEAD_BEEF);
/// assert_eq!(mem.load_u64(PAddr::new(0x100)), 0xDEAD_BEEF);
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    /// One slot per block, indexed by `paddr / BLOCK_BYTES` and grown on
    /// first write: frames come from a bump allocator, so the touched
    /// indices are dense from zero. Everything past the end is a block
    /// never written.
    slots: Vec<u32>,
    /// The young blocks' line maps.
    groups: Pool<Young>,
    /// The young blocks' stored lines.
    lines: Pool<[u8; LINE]>,
    /// The full blocks. Each is its own allocation, so a dense buffer that
    /// is discarded goes back to the process allocator, not to this node.
    full: Pool<Option<Box<[u8; BLOCK_BYTES]>>>,
    capacity: u64,
}

/// A young block: which of its lines are stored, and where.
#[derive(Debug, Clone, Copy, Default)]
struct Young {
    /// Bit `l` set: line `l` of the block is stored.
    mask: u8,
    /// Arena index of each stored line, in line order.
    lines: [u32; YOUNG_LINES],
}

impl Young {
    /// Where line `l`'s arena index sits in `lines`, if it is stored.
    fn rank(&self, l: usize) -> Option<usize> {
        let below = self.mask & ((1 << l) - 1);
        (self.mask >> l & 1 == 1).then_some(below.count_ones() as usize)
    }
}

/// A vector whose vacated entries are reused before it grows.
#[derive(Debug, Clone)]
struct Pool<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Pool<T> {
    const fn new() -> Self {
        Pool {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = item;
                i
            }
            None => {
                // A slot holds a young group's index plus one, or `FULL`
                // plus a full block's, so indices stay below `FULL - 1`.
                assert!(self.items.len() < FULL as usize - 1, "pool index overflow");
                self.items.push(item);
                (self.items.len() - 1) as u32
            }
        }
    }

    /// Vacates entry `i`; the next insert overwrites it.
    fn remove(&mut self, i: u32) {
        self.free.push(i);
    }

    fn live(&self) -> usize {
        self.items.len() - self.free.len()
    }
}

/// Splits `len` bytes at `addr` into `(unit, offset in it, buffer range)`
/// for aligned units of `UNIT` bytes.
fn pieces<const UNIT: usize>(
    addr: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        let cur = addr + done;
        let take = (UNIT - cur % UNIT).min(len - done);
        let piece = (cur / UNIT, cur % UNIT, done..done + take);
        done += take;
        (take > 0).then_some(piece)
    })
}

/// The lines of a block that `len > 0` bytes at offset `off` touch.
fn line_mask(off: usize, len: usize) -> u8 {
    let (first, last) = (off / LINE, (off + len - 1) / LINE);
    (u8::MAX >> (BLOCK_BYTES / LINE - 1 - last)) & (u8::MAX << first)
}

impl PhysicalMemory {
    /// Creates a memory of `capacity` bytes (rounded up to whole frames).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "zero-capacity memory");
        let capacity = capacity.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        PhysicalMemory {
            slots: Vec::new(),
            groups: Pool::new(),
            lines: Pool::new(),
            full: Pool::new(),
            capacity,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently materialized: 64 B per line stored in a young block
    /// plus [`BLOCK_BYTES`] per full block.
    pub fn resident_bytes(&self) -> u64 {
        (self.lines.live() * LINE + self.full.live() * BLOCK_BYTES) as u64
    }

    fn slot(&self, b: usize) -> Slot {
        match self.slots.get(b).copied().unwrap_or(0) {
            0 => Slot::Unwritten,
            f @ FULL.. => Slot::Full(f - FULL),
            g => Slot::Young(g - 1),
        }
    }

    fn full_block(&mut self, f: u32) -> &mut [u8; BLOCK_BYTES] {
        self.full.items[f as usize]
            .as_deref_mut()
            .expect("a slot names only live full blocks")
    }

    /// Block `b` as a full block, growing it from young (or from never
    /// written) first: its stored lines move into the new allocation and
    /// go back to the arena.
    fn grow(&mut self, b: usize) -> &mut [u8; BLOCK_BYTES] {
        let mut block = Box::new([0; BLOCK_BYTES]);
        if let Slot::Young(g) = self.slot(b) {
            let young = self.groups.items[g as usize];
            self.groups.remove(g);
            let stored = (0..BLOCK_BYTES / LINE).filter(|l| young.mask >> l & 1 == 1);
            for (l, i) in stored.zip(young.lines) {
                block[l * LINE..][..LINE].copy_from_slice(&self.lines.items[i as usize]);
                self.lines.remove(i);
            }
        }
        let f = self.full.insert(Some(block));
        self.slots[b] = FULL + f;
        self.full_block(f)
    }

    /// Writes `data` at offset `off` of block `b`, which stays young: every
    /// line `data` touches is stored or takes an arena line, zeroed where
    /// `data` does not cover it.
    fn write_young(&mut self, b: usize, off: usize, data: &[u8]) {
        let g = match self.slot(b) {
            Slot::Young(g) => g,
            _ => {
                let g = self.groups.insert(Young::default());
                self.slots[b] = g + 1;
                g
            }
        };
        let young = &mut self.groups.items[g as usize];
        for (l, at, src) in pieces::<LINE>(off, data.len()) {
            let src = &data[src];
            if let Some(r) = young.rank(l) {
                self.lines.items[young.lines[r] as usize][at..at + src.len()].copy_from_slice(src);
                continue;
            }
            let mut line = [0; LINE];
            line[at..at + src.len()].copy_from_slice(src);
            young.mask |= 1 << l;
            let r = young.rank(l).expect("just stored");
            young.lines.copy_within(r..YOUNG_LINES - 1, r + 1);
            young.lines[r] = self.lines.insert(line);
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Unmaterialized memory reads as zeros.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        let end = addr.raw() + buf.len() as u64;
        assert!(
            end <= self.capacity,
            "read past end of memory: {addr}+{}",
            buf.len()
        );
        for (b, off, at) in pieces::<BLOCK_BYTES>(addr.raw() as usize, buf.len()) {
            let out = &mut buf[at];
            match self.slot(b) {
                Slot::Unwritten => out.fill(0),
                Slot::Young(g) => {
                    let young = &self.groups.items[g as usize];
                    for (l, loff, part) in pieces::<LINE>(off, out.len()) {
                        let out = &mut out[part];
                        match young.rank(l) {
                            Some(r) => {
                                let line = &self.lines.items[young.lines[r] as usize];
                                out.copy_from_slice(&line[loff..loff + out.len()]);
                            }
                            None => out.fill(0),
                        }
                    }
                }
                Slot::Full(f) => {
                    let block = self.full.items[f as usize]
                        .as_deref()
                        .expect("a slot names only live full blocks");
                    out.copy_from_slice(&block[off..off + out.len()]);
                }
            }
        }
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn write(&mut self, addr: PAddr, data: &[u8]) {
        let end = addr.raw() + data.len() as u64;
        assert!(
            end <= self.capacity,
            "write past end of memory: {addr}+{}",
            data.len()
        );
        for (b, off, at) in pieces::<BLOCK_BYTES>(addr.raw() as usize, data.len()) {
            if b >= self.slots.len() {
                self.slots.resize(b + 1, 0);
            }
            let src = &data[at];
            let block = match self.slot(b) {
                Slot::Full(f) => self.full_block(f),
                slot => {
                    let stored = match slot {
                        Slot::Young(g) => self.groups.items[g as usize].mask,
                        _ => 0,
                    };
                    let lines = stored | line_mask(off, src.len());
                    if lines.count_ones() as usize <= YOUNG_LINES {
                        self.write_young(b, off, src);
                        continue;
                    }
                    self.grow(b)
                }
            };
            block[off..off + src.len()].copy_from_slice(src);
        }
    }

    /// Gives back the bytes of `[addr, addr + len)`: full blocks and young
    /// lines wholly inside the range are dropped, and the partial ends of
    /// what is stored are zero-filled. Afterwards the range reads as zeros,
    /// the same as memory never written, and a later write materializes it
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    pub fn discard(&mut self, addr: PAddr, len: usize) {
        let end = addr.raw() + len as u64;
        assert!(
            end <= self.capacity,
            "discard past end of memory: {addr}+{len}"
        );
        for (b, off, at) in pieces::<BLOCK_BYTES>(addr.raw() as usize, len) {
            if b >= self.slots.len() {
                break;
            }
            match self.slot(b) {
                Slot::Unwritten => {}
                Slot::Young(g) => {
                    let young = &mut self.groups.items[g as usize];
                    for (l, loff, part) in pieces::<LINE>(off, at.len()) {
                        let Some(r) = young.rank(l) else { continue };
                        let i = young.lines[r];
                        if part.len() == LINE {
                            young.mask &= !(1 << l);
                            young.lines.copy_within(r + 1.., r);
                            self.lines.remove(i);
                        } else {
                            self.lines.items[i as usize][loff..loff + part.len()].fill(0);
                        }
                    }
                    if young.mask == 0 {
                        self.groups.remove(g);
                        self.slots[b] = 0;
                    }
                }
                Slot::Full(f) if at.len() == BLOCK_BYTES => {
                    self.full.items[f as usize] = None;
                    self.full.remove(f);
                    self.slots[b] = 0;
                }
                Slot::Full(f) => self.full_block(f)[off..off + at.len()].fill(0),
            }
        }
    }

    /// Reads a little-endian `u64`.
    pub fn load_u64(&self, addr: PAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64`.
    pub fn store_u64(&mut self, addr: PAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Atomically adds `delta` to the `u64` at `addr`, returning the value
    /// *before* the add. Backs the RMC's fetch-and-add (§5.2): atomicity is
    /// provided by the destination node's coherence hierarchy, which the
    /// single-threaded simulation models exactly.
    pub fn fetch_add_u64(&mut self, addr: PAddr, delta: u64) -> u64 {
        let old = self.load_u64(addr);
        self.store_u64(addr, old.wrapping_add(delta));
        old
    }

    /// Atomically compare-and-swaps the `u64` at `addr`, returning the value
    /// found (the swap succeeded iff the return value equals `expected`).
    pub fn compare_swap_u64(&mut self, addr: PAddr, expected: u64, new: u64) -> u64 {
        let old = self.load_u64(addr);
        if old == expected {
            self.store_u64(addr, new);
        }
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let mem = PhysicalMemory::new(1 << 20);
        let mut buf = [0xFFu8; 16];
        mem.read(PAddr::new(4096), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(mem.resident_bytes(), 0);
    }

    #[test]
    fn one_line_writes_to_distinct_blocks_cost_a_line_each() {
        let mut mem = PhysicalMemory::new(4 << 20);
        for b in 0..4096u64 {
            mem.store_u64(PAddr::new(b * BLOCK_BYTES as u64 + b % 8 * 64 + 8), b);
        }
        assert_eq!(mem.resident_bytes(), 4096 * 64);
        assert_eq!(
            (mem.lines.live(), mem.groups.live(), mem.full.live()),
            (4096, 4096, 0)
        );
        // The stored line's neighbours, a block's other lines and a block
        // past the table all read as zeros.
        let b = 1234u64 * BLOCK_BYTES as u64;
        assert_eq!(mem.load_u64(PAddr::new(b + 2 * 64 + 8)), 1234);
        assert_eq!(mem.load_u64(PAddr::new(b + 2 * 64)), 0);
        assert_eq!(mem.load_u64(PAddr::new(b + 3 * 64 + 8)), 0);
        assert_eq!(mem.load_u64(PAddr::new(4096 * BLOCK_BYTES as u64)), 0);
        assert_eq!(mem.resident_bytes(), 4096 * 64);
    }

    #[test]
    fn the_fifth_line_grows_a_block() {
        let mut mem = PhysicalMemory::new(1 << 20);
        for l in [6u64, 1, 3, 0] {
            mem.store_u64(PAddr::new(PAGE_BYTES + l * 64), l + 1);
            // A second write to a stored line stores nothing new.
            mem.store_u64(PAddr::new(PAGE_BYTES + l * 64 + 56), l + 11);
        }
        assert_eq!(mem.resident_bytes(), 4 * 64);
        mem.store_u64(PAddr::new(PAGE_BYTES + 7 * 64), 8);
        assert_eq!(mem.resident_bytes(), BLOCK_BYTES as u64);
        assert_eq!(
            (mem.lines.live(), mem.groups.live(), mem.full.live()),
            (0, 0, 1)
        );
        for l in [6u64, 1, 3, 0, 7] {
            assert_eq!(mem.load_u64(PAddr::new(PAGE_BYTES + l * 64)), l + 1);
        }
        for l in [6u64, 1, 3, 0] {
            assert_eq!(mem.load_u64(PAddr::new(PAGE_BYTES + l * 64 + 56)), l + 11);
        }
        assert_eq!(mem.load_u64(PAddr::new(PAGE_BYTES + 2 * 64)), 0);
        // A write touching five lines of a fresh block makes it full at once.
        mem.write(PAddr::new(PAGE_BYTES + 512 + 60), &[9; 4 * 64 + 8]);
        assert_eq!(mem.resident_bytes(), 2 * BLOCK_BYTES as u64);
        assert_eq!(mem.lines.items.len(), 4, "no line was stored for it");
    }

    #[test]
    fn a_young_discard_and_rewrite_reuses_arena_storage() {
        let mut mem = PhysicalMemory::new(1 << 20);
        for l in 0..3u8 {
            mem.write(PAddr::new(u64::from(l) * 64), &[l + 1; 64]);
        }
        mem.store_u64(PAddr::new(BLOCK_BYTES as u64), 2);
        let arena = mem.lines.items.len();
        assert_eq!(arena, 4);
        // Partial: line 0 is dropped, line 1's first 8 bytes zero-filled,
        // and lines 1 and 2 still read as themselves.
        mem.discard(PAddr::new(0), 72);
        assert_eq!(mem.resident_bytes(), 3 * 64);
        assert_eq!(mem.load_u64(PAddr::new(64)), 0);
        assert_eq!(mem.load_u64(PAddr::new(72)), 0x0202_0202_0202_0202);
        assert_eq!(mem.load_u64(PAddr::new(128)), 0x0303_0303_0303_0303);
        mem.discard(PAddr::new(0), 2 * BLOCK_BYTES);
        assert_eq!(mem.resident_bytes(), 0);
        assert_eq!(mem.groups.live(), 0);
        mem.store_u64(PAddr::new(8), 3);
        mem.write(PAddr::new(BLOCK_BYTES as u64 + 64), &[4; 3 * 64]);
        assert_eq!(mem.resident_bytes(), 4 * 64);
        assert_eq!(mem.lines.items.len(), arena, "the arena did not grow");
        assert_eq!(mem.load_u64(PAddr::new(8)), 3);
        assert_eq!(mem.load_u64(PAddr::new(0)), 0, "the old bytes are gone");
        assert_eq!(mem.load_u64(PAddr::new(BLOCK_BYTES as u64)), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let data: Vec<u8> = (0..=255).collect();
        mem.write(PAddr::new(100), &data);
        let mut back = vec![0u8; 256];
        mem.read(PAddr::new(100), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn cross_frame_access() {
        let mut mem = PhysicalMemory::new(1 << 20);
        // Straddle the frame boundary at 8192.
        let addr = PAddr::new(PAGE_BYTES - 4);
        mem.write(addr, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut back = [0u8; 8];
        mem.read(addr, &mut back);
        assert_eq!(back, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(mem.resident_bytes(), 2 * 64, "one line either side");
    }

    #[test]
    fn discard_drops_whole_blocks() {
        let block = BLOCK_BYTES as u64;
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.write(PAddr::new(block), &vec![7u8; 3 * BLOCK_BYTES]);
        assert_eq!(mem.resident_bytes(), 3 * block);
        mem.discard(PAddr::new(block), 2 * BLOCK_BYTES);
        assert_eq!(mem.resident_bytes(), block);
        // Discarding blocks never written, or past the table, is a no-op.
        mem.discard(PAddr::new(64 * block), 4 * BLOCK_BYTES);
        assert_eq!(mem.resident_bytes(), block);
        assert_eq!(mem.load_u64(PAddr::new(3 * block)), 0x0707_0707_0707_0707);
    }

    #[test]
    fn discard_zeroes_partial_ends_without_dropping_them() {
        let block = BLOCK_BYTES as u64;
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.write(PAddr::new(0), &vec![0xEEu8; 3 * BLOCK_BYTES]);
        // The tail of block 0, all of block 1 and the head of block 2.
        mem.discard(PAddr::new(block - 8), BLOCK_BYTES + 16);
        assert_eq!(mem.resident_bytes(), 2 * block);
        let mut back = vec![0u8; 3 * BLOCK_BYTES];
        mem.read(PAddr::new(0), &mut back);
        let zeroed = block as usize - 8..2 * block as usize + 8;
        for (i, &b) in back.iter().enumerate() {
            assert_eq!(b, if zeroed.contains(&i) { 0 } else { 0xEE }, "byte {i}");
        }
    }

    #[test]
    fn discarded_range_reads_as_zeros() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251 + 1) as u8).collect();
        mem.write(PAddr::new(PAGE_BYTES), &data);
        mem.discard(PAddr::new(PAGE_BYTES), data.len());
        let mut back = vec![0xFFu8; data.len()];
        mem.read(PAddr::new(PAGE_BYTES), &mut back);
        assert_eq!(back, vec![0u8; data.len()]);
        assert_eq!(mem.resident_bytes(), 0);
    }

    #[test]
    fn integer_accessors() {
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.store_u64(PAddr::new(8), u64::MAX - 1);
        assert_eq!(mem.load_u64(PAddr::new(8)), u64::MAX - 1);
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.store_u64(PAddr::new(0), 10);
        assert_eq!(mem.fetch_add_u64(PAddr::new(0), 5), 10);
        assert_eq!(mem.load_u64(PAddr::new(0)), 15);
        // Wrapping behaviour.
        mem.store_u64(PAddr::new(0), u64::MAX);
        assert_eq!(mem.fetch_add_u64(PAddr::new(0), 1), u64::MAX);
        assert_eq!(mem.load_u64(PAddr::new(0)), 0);
    }

    #[test]
    fn compare_swap_semantics() {
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.store_u64(PAddr::new(0), 42);
        // Successful CAS.
        assert_eq!(mem.compare_swap_u64(PAddr::new(0), 42, 43), 42);
        assert_eq!(mem.load_u64(PAddr::new(0)), 43);
        // Failed CAS leaves memory untouched.
        assert_eq!(mem.compare_swap_u64(PAddr::new(0), 42, 99), 43);
        assert_eq!(mem.load_u64(PAddr::new(0)), 43);
    }

    #[test]
    fn capacity_rounds_up_to_frames() {
        let mem = PhysicalMemory::new(1);
        assert_eq!(mem.capacity(), PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn read_out_of_range_panics() {
        let mem = PhysicalMemory::new(PAGE_BYTES);
        let mut buf = [0u8; 2];
        mem.read(PAddr::new(PAGE_BYTES - 1), &mut buf);
    }

    #[test]
    #[should_panic(expected = "write past end")]
    fn write_out_of_range_panics() {
        let mut mem = PhysicalMemory::new(PAGE_BYTES);
        mem.write(PAddr::new(PAGE_BYTES), &[1]);
    }
}
