//! Functional physical memory: the bytes behind every simulated node.

use crate::addr::{PAddr, PAGE_BYTES};
use std::ops::Range;

/// Bytes the host materialises at once: the unit of [`PhysicalMemory`]'s
/// table. Measured, not tuned: smaller blocks cost more in allocator
/// headers and table slots than they save in sparser fill (DESIGN.md,
/// "The frame").
pub const BLOCK_BYTES: usize = 512;

/// One simulated node's physical memory: a sparse array of 512 B blocks.
///
/// This is the *functional* half of the memory model — the timing half lives
/// in [`crate::MemoryHierarchy`]. Blocks materialize (zero-filled) on first
/// write, so a 4 GB node costs only what the workload actually writes.
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
    /// Indexed by `paddr / BLOCK_BYTES` and grown on first write: frames
    /// come from a bump allocator, so the touched indices are dense from
    /// zero. `None` (and everything past the end) is a block never written.
    blocks: Vec<Option<Box<[u8; BLOCK_BYTES]>>>,
    resident: usize,
    capacity: u64,
}

/// Splits `len` bytes at `addr` into `(block, offset in it, buffer range)`.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        let cur = addr as usize + done;
        let take = (BLOCK_BYTES - cur % BLOCK_BYTES).min(len - done);
        let piece = (cur / BLOCK_BYTES, cur % BLOCK_BYTES, done..done + take);
        done += take;
        (take > 0).then_some(piece)
    })
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
            blocks: Vec::new(),
            resident: 0,
            capacity,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently materialized: written blocks × [`BLOCK_BYTES`].
    pub fn resident_bytes(&self) -> u64 {
        (self.resident * BLOCK_BYTES) as u64
    }

    fn block_mut(&mut self, i: usize) -> &mut [u8; BLOCK_BYTES] {
        if i >= self.blocks.len() {
            self.blocks.resize_with(i + 1, || None);
        }
        self.blocks[i].get_or_insert_with(|| {
            self.resident += 1;
            Box::new([0; BLOCK_BYTES])
        })
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
        for (i, off, at) in pieces(addr.raw(), buf.len()) {
            match self.blocks.get(i) {
                Some(Some(block)) => buf[at.clone()].copy_from_slice(&block[off..off + at.len()]),
                _ => buf[at].fill(0),
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
        for (i, off, at) in pieces(addr.raw(), data.len()) {
            self.block_mut(i)[off..off + at.len()].copy_from_slice(&data[at]);
        }
    }

    /// Gives back the bytes of `[addr, addr + len)`: blocks wholly inside
    /// the range are dropped, and the partial ends of written blocks are
    /// zero-filled. Afterwards the range reads as zeros, the same as
    /// memory never written, and a later write materializes it again.
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
        for (i, off, at) in pieces(addr.raw(), len) {
            let Some(slot) = self.blocks.get_mut(i) else {
                break;
            };
            if at.len() == BLOCK_BYTES {
                self.resident -= usize::from(slot.take().is_some());
            } else if let Some(block) = slot {
                block[off..off + at.len()].fill(0);
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
    fn only_written_blocks_are_resident() {
        let block = BLOCK_BYTES as u64;
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.store_u64(PAddr::new(5 * PAGE_BYTES + 8), 9);
        mem.store_u64(PAddr::new(5 * PAGE_BYTES), 1);
        assert_eq!(mem.resident_bytes(), block);
        // The next block of the same frame is a block of its own.
        mem.store_u64(PAddr::new(5 * PAGE_BYTES + block), 2);
        assert_eq!(mem.resident_bytes(), 2 * block);
        // A gap below the written blocks, the frame's untouched tail and a
        // block past the table.
        assert_eq!(mem.load_u64(PAddr::new(2 * PAGE_BYTES)), 0);
        assert_eq!(mem.load_u64(PAddr::new(6 * PAGE_BYTES - 8)), 0);
        assert_eq!(mem.load_u64(PAddr::new(9 * PAGE_BYTES)), 0);
        assert_eq!(mem.load_u64(PAddr::new(5 * PAGE_BYTES + 8)), 9);
        assert_eq!(mem.resident_bytes(), 2 * block);
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
        assert_eq!(mem.resident_bytes(), 2 * BLOCK_BYTES as u64);
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
    fn a_write_after_discard_materializes_the_block_again() {
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.store_u64(PAddr::new(0), 1);
        mem.store_u64(PAddr::new(8), 2);
        mem.discard(PAddr::new(0), BLOCK_BYTES);
        assert_eq!(mem.resident_bytes(), 0);
        mem.store_u64(PAddr::new(0), 3);
        assert_eq!(mem.resident_bytes(), BLOCK_BYTES as u64);
        assert_eq!(mem.load_u64(PAddr::new(0)), 3);
        assert_eq!(mem.load_u64(PAddr::new(8)), 0, "the old bytes are gone");
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
