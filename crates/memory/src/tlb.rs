//! Translation lookaside buffer.
//!
//! The RMC's MMU block contains a TLB "tagged with address space identifiers
//! corresponding to the application context" (§4.3), with misses serviced by
//! a hardware page walker. This module models a fully associative, LRU TLB;
//! the walk cost itself is charged by the hierarchy when a miss occurs.

use crate::addr::VAddr;

/// A fully associative, LRU TLB tagged by address-space id.
///
/// # Example
///
/// ```
/// use sonuma_memory::{Tlb, VAddr};
///
/// let mut tlb = Tlb::new(32);
/// assert_eq!(tlb.lookup(1, VAddr::new(0x2000)), None); // cold
/// tlb.insert(1, VAddr::new(0x2000), 7);
/// assert_eq!(tlb.lookup(1, VAddr::new(0x2040)), Some(7)); // same page
/// assert_eq!(tlb.lookup(2, VAddr::new(0x2040)), None);    // other ASID
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    entries: Vec<TlbEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    asid: u32,
    vpn: u64,
    pfn: u64,
    lru: u64,
}

impl Tlb {
    /// Creates an empty TLB with room for `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-entry TLB");
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the frame number for `va` in address space `asid`,
    /// refreshing LRU on a hit.
    pub fn lookup(&mut self, asid: u32, va: VAddr) -> Option<u64> {
        self.tick += 1;
        let vpn = va.page_number();
        let tick = self.tick;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.asid == asid && e.vpn == vpn)
        {
            e.lru = tick;
            self.hits += 1;
            Some(e.pfn)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Installs a translation, evicting the LRU entry if full.
    pub fn insert(&mut self, asid: u32, va: VAddr, pfn: u64) {
        self.tick += 1;
        let vpn = va.page_number();
        // Refresh in place if already present.
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.asid == asid && e.vpn == vpn)
        {
            e.pfn = pfn;
            e.lru = self.tick;
            return;
        }
        let entry = TlbEntry {
            asid,
            vpn,
            pfn,
            lru: self.tick,
        };
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            let victim = self
                .entries
                .iter_mut()
                .min_by_key(|e| e.lru)
                .expect("nonzero capacity");
            *victim = entry;
        }
    }

    /// Drops everything.
    pub fn flush_all(&mut self) {
        self.entries.clear();
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Current occupancy. API for the tests: how they see that a refresh
    /// or a flush left the entry count they expect.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_BYTES;

    fn page(i: u64) -> VAddr {
        VAddr::new(i * PAGE_BYTES)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(0, page(1)), None);
        t.insert(0, page(1), 42);
        assert_eq!(t.lookup(0, page(1)), Some(42));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn asid_isolation() {
        let mut t = Tlb::new(4);
        t.insert(1, page(5), 10);
        t.insert(2, page(5), 20);
        assert_eq!(t.lookup(1, page(5)), Some(10));
        assert_eq!(t.lookup(2, page(5)), Some(20));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.insert(0, page(1), 1);
        t.insert(0, page(2), 2);
        t.lookup(0, page(1)); // make page 2 the LRU
        t.insert(0, page(3), 3);
        assert_eq!(t.lookup(0, page(1)), Some(1));
        assert_eq!(t.lookup(0, page(2)), None, "LRU entry should be evicted");
        assert_eq!(t.lookup(0, page(3)), Some(3));
    }

    #[test]
    fn insert_refreshes_existing() {
        let mut t = Tlb::new(2);
        t.insert(0, page(1), 1);
        t.insert(0, page(1), 99); // remap
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.lookup(0, page(1)), Some(99));
    }

    #[test]
    fn flush_all_drops_every_asid() {
        let mut t = Tlb::new(4);
        t.insert(1, page(1), 1);
        t.insert(2, page(2), 2);
        t.flush_all();
        assert_eq!(t.lookup(1, page(1)), None);
        assert_eq!(t.lookup(2, page(2)), None);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn same_page_different_offsets_hit() {
        let mut t = Tlb::new(4);
        t.insert(0, VAddr::new(PAGE_BYTES), 3);
        assert_eq!(t.lookup(0, VAddr::new(PAGE_BYTES + 100)), Some(3));
        assert_eq!(t.lookup(0, VAddr::new(PAGE_BYTES * 2 - 1)), Some(3));
        assert_eq!(t.lookup(0, VAddr::new(PAGE_BYTES * 2)), None);
    }

    #[test]
    #[should_panic(expected = "zero-entry")]
    fn zero_capacity_panics() {
        Tlb::new(0);
    }
}
