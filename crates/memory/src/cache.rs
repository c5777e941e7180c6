//! Set-associative cache tag arrays with LRU replacement.
//!
//! Caches here are *timing* structures: they track which lines are resident
//! (tags, dirty bits, LRU order) but never hold data — the functional bytes
//! stay in [`crate::PhysicalMemory`]. This is the classic decoupled
//! functional/timing simulator split and keeps the model honest: a hit or
//! miss changes only latency, never values.

use crate::addr::{PAddr, CACHE_LINE_BYTES};

/// Geometry of one cache level.
///
/// # Example
///
/// ```
/// use sonuma_memory::CacheGeometry;
///
/// // The paper's L1: 32 KB, 2-way, 64 B lines => 256 sets.
/// let l1 = CacheGeometry::new(32 * 1024, 2);
/// assert_eq!(l1.sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry from total size and associativity (64 B lines).
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not yield a power-of-two, nonzero set
    /// count.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        assert!(
            size_bytes.is_multiple_of(CACHE_LINE_BYTES * ways as u64),
            "size not divisible into sets"
        );
        let sets = size_bytes / CACHE_LINE_BYTES / ways as u64;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a nonzero power of two"
        );
        CacheGeometry { size_bytes, ways }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / CACHE_LINE_BYTES / self.ways as u64
    }

    /// Set index for a physical address.
    #[inline]
    pub fn set_of(&self, addr: PAddr) -> u64 {
        addr.line_index() & (self.sets() - 1)
    }

    /// Tag for a physical address.
    #[inline]
    pub fn tag_of(&self, addr: PAddr) -> u64 {
        addr.line_index() / self.sets()
    }
}

/// Per-way flag bits (see [`CacheArray`]'s parallel arrays).
const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// Outcome of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was resident.
    Hit,
    /// The line missed; no dirty line was displaced.
    Miss {
        /// Line index (addr/64) of a clean line that was evicted, if any.
        evicted_clean: Option<u64>,
    },
    /// The line missed and filling it displaced a dirty line that must be
    /// written back.
    MissDirtyEviction {
        /// Line index (addr/64) of the dirty victim.
        victim_line: u64,
    },
}

impl LookupResult {
    /// Whether the lookup hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit)
    }
}

/// One level of set-associative, LRU, write-back cache tags.
///
/// # Example
///
/// ```
/// use sonuma_memory::{CacheArray, CacheGeometry, PAddr};
///
/// let mut l1 = CacheArray::new(CacheGeometry::new(32 * 1024, 2));
/// assert!(!l1.probe(PAddr::new(0)));            // cold
/// l1.access(PAddr::new(0), false);              // fill
/// assert!(l1.probe(PAddr::new(0)));             // now resident
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    geom: CacheGeometry,
    // Way state as parallel arrays (sets × ways, row-major by set), all
    // zero-initialized. `vec![0; n]` allocates zeroed pages straight from
    // the allocator, so building a rack of 4 MB LLC tag arrays costs
    // virtual address space, not hundreds of megabytes of writes — pages
    // materialize only for sets the workload actually touches.
    tags: Vec<u64>,
    lru: Vec<u64>,
    flags: Vec<u8>, // VALID | DIRTY
    tick: u64,
    hits: u64,
    misses: u64,
    /// Ways currently `VALID`, maintained by fill and `invalidate` so
    /// reading it never walks (and faults in) the flags array.
    resident: usize,
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache.
    pub fn new(geom: CacheGeometry) -> Self {
        let n = (geom.sets() * geom.ways() as u64) as usize;
        CacheArray {
            geom,
            tags: vec![0; n],
            lru: vec![0; n],
            flags: vec![0; n],
            tick: 0,
            hits: 0,
            misses: 0,
            resident: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let w = self.geom.ways() as usize;
        let base = set as usize * w;
        base..base + w
    }

    /// Index of the valid way holding `addr`'s line, if any.
    #[inline]
    fn way_of(&self, addr: PAddr) -> Option<usize> {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        self.set_range(set)
            .find(|&i| self.flags[i] & VALID != 0 && self.tags[i] == tag)
    }

    /// Whether `addr`'s line is resident, without disturbing LRU or stats.
    pub fn probe(&self, addr: PAddr) -> bool {
        self.way_of(addr).is_some()
    }

    /// `Some(dirty)` if `addr`'s line is resident, without disturbing LRU
    /// or stats — the coherence directory's "who holds this line, and who
    /// holds it modified" question, answered from the tags themselves.
    pub fn probe_state(&self, addr: PAddr) -> Option<bool> {
        self.way_of(addr).map(|i| self.flags[i] & DIRTY != 0)
    }

    /// Accesses `addr`'s line, filling on miss; `write` marks it dirty.
    ///
    /// Returns what happened, including any eviction the fill caused.
    pub fn access(&mut self, addr: PAddr, write: bool) -> LookupResult {
        self.tick += 1;
        let tick = self.tick;
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        let sets = self.geom.sets();
        let range = self.set_range(set);

        // Hit path.
        if let Some(i) = self.way_of(addr) {
            self.lru[i] = tick;
            if write {
                self.flags[i] |= DIRTY;
            }
            self.hits += 1;
            return LookupResult::Hit;
        }

        self.misses += 1;

        // Miss: pick an invalid way, else the LRU way.
        let idx = match range.clone().find(|&i| self.flags[i] & VALID == 0) {
            Some(i) => i,
            None => range
                .min_by_key(|&i| self.lru[i])
                .expect("nonzero associativity"),
        };
        let result = if self.flags[idx] & VALID != 0 {
            let victim_line = self.tags[idx] * sets + set;
            if self.flags[idx] & DIRTY != 0 {
                LookupResult::MissDirtyEviction { victim_line }
            } else {
                LookupResult::Miss {
                    evicted_clean: Some(victim_line),
                }
            }
        } else {
            self.resident += 1;
            LookupResult::Miss {
                evicted_clean: None,
            }
        };
        self.tags[idx] = tag;
        self.lru[idx] = tick;
        self.flags[idx] = VALID | if write { DIRTY } else { 0 };
        result
    }

    /// Invalidates `addr`'s line if resident; returns whether it was dirty.
    ///
    /// Used for coherence: a remote writer invalidates other agents' copies.
    pub fn invalidate(&mut self, addr: PAddr) -> Option<bool> {
        let i = self.way_of(addr)?;
        let dirty = self.flags[i] & DIRTY != 0;
        self.flags[i] &= !VALID;
        self.resident -= 1;
        Some(dirty)
    }

    /// Downgrades `addr`'s line to clean (e.g. after a sharer reads a line
    /// this cache held modified). Returns whether the line was present.
    pub fn clean(&mut self, addr: PAddr) -> bool {
        let Some(i) = self.way_of(addr) else {
            return false;
        };
        self.flags[i] &= !DIRTY;
        true
    }

    /// Number of resident lines (for tests and occupancy stats).
    pub fn resident_lines(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 4 sets x 2 ways x 64B = 512B cache: easy to force evictions.
        CacheArray::new(CacheGeometry::new(512, 2))
    }

    fn line(i: u64) -> PAddr {
        PAddr::new(i * CACHE_LINE_BYTES)
    }

    #[test]
    fn geometry_decomposition() {
        let g = CacheGeometry::new(4 * 1024 * 1024, 16);
        assert_eq!(g.sets(), 4096);
        let a = PAddr::new(0x12345678);
        assert_eq!(g.set_of(a), (0x12345678u64 / 64) % 4096);
        assert_eq!(g.tag_of(a), (0x12345678u64 / 64) / 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheGeometry::new(192, 1);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(line(0), false).is_hit());
        assert!(c.access(line(0), false).is_hit());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflict_eviction_lru() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 in a 4-set cache.
        c.access(line(0), false);
        c.access(line(4), false);
        c.access(line(0), false); // 0 is now MRU, 4 is LRU
        match c.access(line(8), false) {
            LookupResult::Miss {
                evicted_clean: Some(v),
            } => assert_eq!(v, 4),
            other => panic!("expected clean eviction of line 4, got {other:?}"),
        }
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(4)));
        assert!(c.probe(line(8)));
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = tiny();
        c.access(line(0), true); // dirty
        c.access(line(4), false);
        c.access(line(4), false);
        // line 0 is LRU and dirty; filling line 8 must report a writeback.
        match c.access(line(8), false) {
            LookupResult::MissDirtyEviction { victim_line } => assert_eq!(victim_line, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = tiny();
        c.access(line(0), false);
        c.access(line(0), true); // dirtied by hit
        c.access(line(4), false);
        match c.access(line(8), false) {
            LookupResult::MissDirtyEviction { victim_line } => assert_eq!(victim_line, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(1), false);
        assert_eq!(c.invalidate(line(0)), Some(true));
        assert_eq!(c.invalidate(line(1)), Some(false));
        assert_eq!(c.invalidate(line(2)), None);
        assert!(!c.probe(line(0)));
    }

    #[test]
    fn clean_downgrades() {
        let mut c = tiny();
        c.access(line(0), true);
        assert!(c.clean(line(0)));
        // After cleaning, evicting it is a clean eviction.
        c.access(line(4), false);
        c.access(line(4), false);
        match c.access(line(8), false) {
            LookupResult::Miss {
                evicted_clean: Some(0),
            } => {}
            other => panic!("expected clean eviction of line 0, got {other:?}"),
        }
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = tiny();
        c.access(line(0), false);
        c.access(line(4), false);
        // Probing 0 must not promote it.
        assert!(c.probe(line(0)));
        match c.access(line(8), false) {
            LookupResult::Miss {
                evicted_clean: Some(v),
            } => assert_eq!(v, 0),
            other => panic!("expected eviction of line 0, got {other:?}"),
        }
    }

    #[test]
    fn resident_count() {
        let mut c = tiny();
        let walk = |c: &CacheArray| c.flags.iter().filter(|&&f| f & VALID != 0).count();
        assert_eq!(c.resident_lines(), 0);
        c.access(line(0), false);
        c.access(line(1), false);
        assert_eq!(c.resident_lines(), 2);
        // Refills of a full set and invalidations keep the counter equal
        // to a walk of the flags.
        for i in [4, 8, 12, 0, 5, 9] {
            c.access(line(i), i % 2 == 0);
            assert_eq!(c.resident_lines(), walk(&c));
        }
        assert!(c.invalidate(line(9)).is_some());
        assert!(c.invalidate(line(9)).is_none());
        assert_eq!(c.resident_lines(), walk(&c));
    }

    #[test]
    fn probe_state_tracks_write_clean_and_invalidate() {
        let mut c = tiny();
        assert_eq!(c.probe_state(line(0)), None);
        c.access(line(0), false);
        assert_eq!(c.probe_state(line(0)), Some(false));
        c.access(line(0), true);
        assert_eq!(c.probe_state(line(0)), Some(true));
        c.clean(line(0));
        assert_eq!(c.probe_state(line(0)), Some(false));
        c.access(line(0), true);
        c.invalidate(line(0));
        assert_eq!(c.probe_state(line(0)), None);
    }
}
