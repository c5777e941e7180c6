//! Functional physical memory: the bytes behind every simulated node.

use crate::addr::{PAddr, PAGE_BYTES};

/// One simulated node's physical memory: a sparse array of 8 KB frames.
///
/// This is the *functional* half of the memory model — the timing half lives
/// in [`crate::MemoryHierarchy`]. Frames materialize (zero-filled) on first
/// touch, so a 4 GB node costs only what the workload actually uses.
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
    /// Indexed by frame number and grown on first write: frames come from
    /// a bump allocator, so the touched indices are dense from zero. `None`
    /// (and everything past the end) is a frame never written.
    frames: Vec<Option<Box<[u8]>>>,
    resident: usize,
    capacity: u64,
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
            frames: Vec::new(),
            resident: 0,
            capacity,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of frames currently materialized.
    pub fn resident_frames(&self) -> usize {
        self.resident
    }

    fn frame_mut(&mut self, frame_no: u64) -> &mut [u8] {
        let i = frame_no as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, || None);
        }
        self.frames[i].get_or_insert_with(|| {
            self.resident += 1;
            vec![0u8; PAGE_BYTES as usize].into_boxed_slice()
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
        let mut cur = addr.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let frame_no = cur / PAGE_BYTES;
            let off = (cur % PAGE_BYTES) as usize;
            let take = ((PAGE_BYTES as usize) - off).min(buf.len() - done);
            match self.frames.get(frame_no as usize) {
                Some(Some(frame)) => {
                    buf[done..done + take].copy_from_slice(&frame[off..off + take])
                }
                _ => buf[done..done + take].fill(0),
            }
            cur += take as u64;
            done += take;
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
        let mut cur = addr.raw();
        let mut done = 0usize;
        while done < data.len() {
            let frame_no = cur / PAGE_BYTES;
            let off = (cur % PAGE_BYTES) as usize;
            let take = ((PAGE_BYTES as usize) - off).min(data.len() - done);
            self.frame_mut(frame_no)[off..off + take].copy_from_slice(&data[done..done + take]);
            cur += take as u64;
            done += take;
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
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn only_written_frames_are_resident() {
        let mut mem = PhysicalMemory::new(1 << 20);
        mem.store_u64(PAddr::new(5 * PAGE_BYTES + 8), 9);
        mem.store_u64(PAddr::new(5 * PAGE_BYTES), 1);
        assert_eq!(mem.resident_frames(), 1);
        // A gap below the written frame and a frame past the table.
        assert_eq!(mem.load_u64(PAddr::new(2 * PAGE_BYTES)), 0);
        assert_eq!(mem.load_u64(PAddr::new(9 * PAGE_BYTES)), 0);
        assert_eq!(mem.load_u64(PAddr::new(5 * PAGE_BYTES + 8)), 9);
        assert_eq!(mem.resident_frames(), 1);
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
        assert_eq!(mem.resident_frames(), 2);
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
