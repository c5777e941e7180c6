//! Page tables, frame allocation, and per-context address spaces.
//!
//! soNUMA's OS "interacts with the virtual memory subsystem to allocate and
//! pin pages in physical memory" (§5.1), and the RMC walks the same page
//! tables the OS maintains. We model a per-context address space with a
//! flat page table (the walk *cost* is a configurable number of memory
//! references, standing in for a radix walk) and a bump frame allocator per
//! node.

use crate::addr::{PAddr, VAddr, PAGE_BYTES};
use crate::error::MemError;

/// Allocates physical frames within one node, in address order. Nothing
/// unmaps, so a frame is never returned and a bump pointer is the whole
/// allocator: the frames in use are always `0..n`.
///
/// # Example
///
/// ```
/// use sonuma_memory::FrameAllocator;
///
/// let mut alloc = FrameAllocator::new(4 << 20); // 4 MiB = 512 frames
/// assert_eq!(alloc.alloc().unwrap(), 0);
/// assert_eq!(alloc.alloc().unwrap(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total_frames: u64,
    next_fresh: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `capacity_bytes` of physical memory.
    pub fn new(capacity_bytes: u64) -> Self {
        FrameAllocator {
            total_frames: capacity_bytes / PAGE_BYTES,
            next_fresh: 0,
        }
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when memory is exhausted.
    pub fn alloc(&mut self) -> Result<u64, MemError> {
        if self.next_fresh < self.total_frames {
            self.next_fresh += 1;
            Ok(self.next_fresh - 1)
        } else {
            Err(MemError::OutOfFrames)
        }
    }
}

/// One context's virtual address space: a page table plus walk cost model.
///
/// # Example
///
/// ```
/// use sonuma_memory::{AddressSpace, FrameAllocator, VAddr};
///
/// let mut alloc = FrameAllocator::new(1 << 20);
/// let mut space = AddressSpace::new(7);
/// space.map_range(VAddr::new(0x10000), 3 * 8192, &mut alloc).unwrap();
/// let pa = space.translate(VAddr::new(0x10000 + 100)).unwrap();
/// assert_eq!(pa.raw() % 8192, 100);
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: u32,
    /// The page table: runs of consecutive virtual pages, sorted by first
    /// page and non-overlapping. A node's heap and context segment are two
    /// such runs, so a translation is a search over a handful of entries
    /// and one indexed load.
    extents: Vec<Extent>,
    mapped: usize,
}

/// Frame numbers of the virtual pages `first_vpn..first_vpn + pfns.len()`.
#[derive(Debug, Clone)]
struct Extent {
    first_vpn: u64,
    pfns: Vec<u64>,
}

impl AddressSpace {
    /// Creates an empty address space with identifier `asid`.
    pub fn new(asid: u32) -> Self {
        AddressSpace {
            asid,
            extents: Vec::new(),
            mapped: 0,
        }
    }

    /// The address-space identifier (tags TLB entries).
    pub fn asid(&self) -> u32 {
        self.asid
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// The frame `vpn` maps to, if any: looked up in the last extent
    /// starting at or below it.
    #[inline]
    fn pfn_of(&self, vpn: u64) -> Option<u64> {
        let below = self.extents.partition_point(|e| e.first_vpn <= vpn);
        let e = &self.extents[below.checked_sub(1)?];
        e.pfns.get((vpn - e.first_vpn) as usize).copied()
    }

    /// Records the unmapped `vpn` as backed by `pfn`: one past an
    /// extent's end (the heap growing), else the head of a new extent.
    fn insert(&mut self, vpn: u64, pfn: u64) {
        debug_assert!(self.pfn_of(vpn).is_none(), "page {vpn} is mapped");
        let at = self.extents.partition_point(|e| e.first_vpn <= vpn);
        if let Some(i) = at.checked_sub(1) {
            let e = &mut self.extents[i];
            if vpn - e.first_vpn == e.pfns.len() as u64 {
                e.pfns.push(pfn);
                return;
            }
        }
        let head = Extent {
            first_vpn: vpn,
            pfns: vec![pfn],
        };
        self.extents.insert(at, head);
    }

    /// Maps `len` bytes starting at page-aligned `base`, allocating frames.
    ///
    /// # Errors
    ///
    /// * [`MemError::AlreadyMapped`] if any page in the range is mapped.
    /// * [`MemError::OutOfFrames`] if the node runs out of memory (pages
    ///   mapped before the failure stay mapped).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or `len` is zero.
    pub fn map_range(
        &mut self,
        base: VAddr,
        len: u64,
        alloc: &mut FrameAllocator,
    ) -> Result<(), MemError> {
        assert!(base.is_aligned(PAGE_BYTES), "unaligned mapping base {base}");
        assert!(len > 0, "empty mapping");
        let first = base.page_number();
        let pages = len.div_ceil(PAGE_BYTES);
        if let Some(vpn) = (first..first + pages).find(|&vpn| self.pfn_of(vpn).is_some()) {
            return Err(MemError::AlreadyMapped(VAddr::new(vpn * PAGE_BYTES)));
        }
        for vpn in first..first + pages {
            let pfn = alloc.alloc()?;
            self.insert(vpn, pfn);
            self.mapped += 1;
        }
        Ok(())
    }

    /// Translates a virtual address to a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if no mapping covers `va`.
    #[inline]
    pub fn translate(&self, va: VAddr) -> Result<PAddr, MemError> {
        let pfn = self
            .pfn_of(va.page_number())
            .ok_or(MemError::Unmapped(va))?;
        Ok(PAddr::new(pfn * PAGE_BYTES + va.page_offset()))
    }

    /// Number of memory references a hardware walk of this table performs.
    ///
    /// Stands in for a two-level radix walk; the hierarchy charges this many
    /// dependent memory accesses on a TLB miss.
    pub fn walk_references(&self) -> u32 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_bumps_until_out_of_frames() {
        let mut a = FrameAllocator::new(3 * PAGE_BYTES);
        assert_eq!(a.alloc(), Ok(0));
        assert_eq!(a.alloc(), Ok(1));
        assert_eq!(a.alloc(), Ok(2));
        assert_eq!(a.alloc(), Err(MemError::OutOfFrames));
        assert_eq!(a.alloc(), Err(MemError::OutOfFrames));
    }

    #[test]
    fn map_translate_roundtrip() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(0), 2 * PAGE_BYTES, &mut alloc)
            .unwrap();
        let pa0 = s.translate(VAddr::new(10)).unwrap();
        let pa1 = s.translate(VAddr::new(PAGE_BYTES + 10)).unwrap();
        assert_eq!(pa0.raw() % PAGE_BYTES, 10);
        assert_eq!(pa1.raw() % PAGE_BYTES, 10);
        assert_ne!(pa0.frame_number(), pa1.frame_number());
    }

    #[test]
    fn translate_unmapped_fails() {
        let s = AddressSpace::new(1);
        assert_eq!(
            s.translate(VAddr::new(0x5000)),
            Err(MemError::Unmapped(VAddr::new(0x5000)))
        );
    }

    #[test]
    fn double_map_rejected_atomically() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(PAGE_BYTES * 2), PAGE_BYTES, &mut alloc)
            .unwrap();
        // Overlapping range: refused before allocating anything.
        let err = s
            .map_range(VAddr::new(0), PAGE_BYTES * 4, &mut alloc)
            .unwrap_err();
        assert!(matches!(err, MemError::AlreadyMapped(_)));
        assert_eq!(alloc.alloc(), Ok(1), "only the first mapping took a frame");
        assert_eq!(s.mapped_pages(), 1);
    }

    #[test]
    fn out_of_frames_keeps_the_pages_mapped_so_far() {
        let mut alloc = FrameAllocator::new(2 * PAGE_BYTES);
        let mut s = AddressSpace::new(1);
        assert_eq!(
            s.map_range(VAddr::new(0), 4 * PAGE_BYTES, &mut alloc),
            Err(MemError::OutOfFrames)
        );
        assert_eq!(s.mapped_pages(), 2);
        assert!(s.translate(VAddr::new(PAGE_BYTES)).is_ok());
        assert!(s.translate(VAddr::new(2 * PAGE_BYTES)).is_err());
    }

    #[test]
    fn segments_are_sorted_extents_and_the_heap_grows_in_place() {
        let mut alloc = FrameAllocator::new(64 * PAGE_BYTES);
        let mut s = AddressSpace::new(1);
        let page = |i: u64| VAddr::new(i * PAGE_BYTES);
        // A context segment high up, then a heap below it that grows by
        // consecutive ranges, then a range ending where the segment starts.
        s.map_range(page(100), 4 * PAGE_BYTES, &mut alloc).unwrap();
        s.map_range(page(10), 2 * PAGE_BYTES, &mut alloc).unwrap();
        s.map_range(page(12), 3 * PAGE_BYTES, &mut alloc).unwrap();
        assert_eq!(s.extents.len(), 2);
        assert_eq!(s.extents[0].first_vpn, 10);
        s.map_range(page(98), 2 * PAGE_BYTES, &mut alloc).unwrap();
        assert_eq!(
            s.map_range(page(99), 2 * PAGE_BYTES, &mut alloc),
            Err(MemError::AlreadyMapped(page(99)))
        );
        assert_eq!(s.mapped_pages(), 11);
        let mut frames: Vec<u64> = (10..15)
            .chain(98..104)
            .map(|i| s.translate(page(i)).unwrap().frame_number())
            .collect();
        frames.sort_unstable();
        frames.dedup();
        assert_eq!(frames.len(), 11, "every page has its own frame");
        for i in [9, 15, 97, 104] {
            assert!(s.translate(page(i)).is_err(), "page {i}");
        }
    }

    #[test]
    fn partial_page_len_rounds_up() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(0), 100, &mut alloc).unwrap();
        assert_eq!(s.mapped_pages(), 1);
        assert!(s.translate(VAddr::new(PAGE_BYTES - 1)).is_ok());
    }

    #[test]
    #[should_panic(expected = "unaligned mapping")]
    fn unaligned_base_panics() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        let _ = s.map_range(VAddr::new(100), PAGE_BYTES, &mut alloc);
    }
}
