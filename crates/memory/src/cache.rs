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
    /// `log2(sets)`, cached so `set_of`/`tag_of` are a mask and a shift.
    set_shift: u32,
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
        CacheGeometry {
            size_bytes,
            ways,
            set_shift: sets.trailing_zeros(),
        }
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
        1 << self.set_shift
    }

    /// Set index for a physical address.
    #[inline]
    pub fn set_of(&self, addr: PAddr) -> u64 {
        addr.line_index() & (self.sets() - 1)
    }

    /// Tag for a physical address.
    #[inline]
    pub fn tag_of(&self, addr: PAddr) -> u64 {
        addr.line_index() >> self.set_shift
    }
}

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
    /// One word per way, a set being `ways` consecutive words:
    /// `stamp (32) | tag (30) | dirty | valid`. Zero-initialized, so
    /// `vec![0; n]` takes untouched pages from the allocator and a rack
    /// of 4 MB LLCs costs address space, not memory, until sets fill.
    words: Vec<u64>,
    /// One bit per set: has any way of it ever been filled. A set whose
    /// bit is clear is known empty *without loading its words*, so the
    /// first touch of a fresh page of `words` is the fill's store. A
    /// load first would map the kernel's shared zero page and the store
    /// after it would fault again to replace it (DESIGN.md, "First
    /// touch").
    filled: Vec<u64>,
    /// LRU clock: the stamp of the latest access. Never wraps; see
    /// [`CacheArray::rerank`].
    tick: u32,
    hits: u64,
    misses: u64,
    /// Ways currently valid, maintained by fill and `invalidate` so
    /// reading it never walks (and faults in) the way array.
    resident: usize,
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;
const TAG_SHIFT: u32 = 2;
const TAG_BITS: u32 = 30;
const STAMP_SHIFT: u32 = 32;
/// What a lookup compares: the tag and the valid bit.
const KEY_MASK: u64 = ((1 << TAG_BITS) - 1) << TAG_SHIFT | VALID;
const STAMP_MASK: u64 = !0 << STAMP_SHIFT;

impl CacheArray {
    /// Creates an empty (all-invalid) cache.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets() as usize;
        CacheArray {
            geom,
            words: vec![0; sets * geom.ways() as usize],
            filled: vec![0; sets.div_ceil(64)],
            tick: 0,
            hits: 0,
            misses: 0,
            resident: 0,
        }
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    #[inline]
    fn is_filled(&self, set: usize) -> bool {
        self.filled[set / 64] >> (set % 64) & 1 != 0
    }

    /// `addr`'s set index, the index of the set's first word, and the
    /// masked word a valid way holding `addr`'s line compares equal to. A
    /// tag wider than [`TAG_BITS`] spills out of [`KEY_MASK`] and so
    /// matches no way.
    #[inline]
    fn locate(&self, addr: PAddr) -> (usize, usize, u64) {
        let set = self.geom.set_of(addr) as usize;
        let key = self.geom.tag_of(addr) << TAG_SHIFT | VALID;
        (set, set * self.geom.ways() as usize, key)
    }

    /// Index of the valid way holding `addr`'s line, if any.
    #[inline]
    fn way_of(&self, addr: PAddr) -> Option<usize> {
        let (set, base, key) = self.locate(addr);
        if !self.is_filled(set) {
            return None;
        }
        self.words[base..base + self.geom.ways() as usize]
            .iter()
            .position(|&w| w & KEY_MASK == key)
            .map(|i| base + i)
    }

    /// Whether `addr`'s line is resident, without disturbing LRU or stats.
    pub fn probe(&self, addr: PAddr) -> bool {
        self.way_of(addr).is_some()
    }

    /// `Some(dirty)` if `addr`'s line is resident, without disturbing LRU
    /// or stats — the coherence directory's "who holds this line, and who
    /// holds it modified" question, answered from the tags themselves.
    pub fn probe_state(&self, addr: PAddr) -> Option<bool> {
        self.way_of(addr).map(|i| self.words[i] & DIRTY != 0)
    }

    /// Accesses `addr`'s line, filling on miss; `write` marks it dirty.
    ///
    /// Returns what happened, including any eviction the fill caused.
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s tag does not fit the packed word (30 bits:
    /// addresses below 64 GiB × the set count).
    pub fn access(&mut self, addr: PAddr, write: bool) -> LookupResult {
        if self.tick == u32::MAX {
            self.rerank();
        }
        self.tick += 1;
        let stamp = (self.tick as u64) << STAMP_SHIFT;
        let dirty = if write { DIRTY } else { 0 };
        let (set, base, key) = self.locate(addr);
        assert!(
            key & !KEY_MASK == 0,
            "tag of {addr} exceeds {TAG_BITS} bits"
        );

        if !self.is_filled(set) {
            // First fill of the set: way 0, by a store alone.
            self.filled[set / 64] |= 1 << (set % 64);
            self.words[base] = stamp | key | dirty;
            self.misses += 1;
            self.resident += 1;
            return LookupResult::Miss {
                evicted_clean: None,
            };
        }

        // One pass: the hit way, else the victim — the first invalid way
        // (rank 0; a valid way's stamp is at least 1), else the LRU way.
        let ways = &mut self.words[base..base + self.geom.ways() as usize];
        let mut victim = 0;
        let mut victim_rank = u64::MAX;
        for (i, w) in ways.iter_mut().enumerate() {
            if *w & KEY_MASK == key {
                *w = stamp | (*w & !STAMP_MASK) | dirty;
                self.hits += 1;
                return LookupResult::Hit;
            }
            let rank = if *w & VALID == 0 {
                0
            } else {
                *w >> STAMP_SHIFT
            };
            if rank < victim_rank {
                victim = i;
                victim_rank = rank;
            }
        }

        self.misses += 1;
        let old = ways[victim];
        ways[victim] = stamp | key | dirty;
        if old & VALID == 0 {
            self.resident += 1;
            return LookupResult::Miss {
                evicted_clean: None,
            };
        }
        let victim_line = (old & KEY_MASK) >> TAG_SHIFT << self.geom.set_shift | set as u64;
        if old & DIRTY != 0 {
            LookupResult::MissDirtyEviction { victim_line }
        } else {
            LookupResult::Miss {
                evicted_clean: Some(victim_line),
            }
        }
    }

    /// Renumbers every filled set's stamps `1..=ways` in their current
    /// order and restarts the clock above them. Runs when the 32-bit tick
    /// is exhausted, so stamps never wrap and LRU order stays exact.
    fn rerank(&mut self) {
        let ways = self.geom.ways() as usize;
        let mut order: Vec<usize> = Vec::with_capacity(ways);
        for set in 0..self.geom.sets() as usize {
            if !self.is_filled(set) {
                continue;
            }
            let set_words = &mut self.words[set * ways..(set + 1) * ways];
            order.clear();
            order.extend(0..ways);
            order.sort_by_key(|&i| set_words[i] >> STAMP_SHIFT);
            for (rank, &i) in order.iter().enumerate() {
                set_words[i] = (rank as u64 + 1) << STAMP_SHIFT | (set_words[i] & !STAMP_MASK);
            }
        }
        self.tick = self.geom.ways();
    }

    /// Invalidates `addr`'s line if resident; returns whether it was dirty.
    ///
    /// Used for coherence: a remote writer invalidates other agents' copies.
    pub fn invalidate(&mut self, addr: PAddr) -> Option<bool> {
        let i = self.way_of(addr)?;
        let dirty = self.words[i] & DIRTY != 0;
        self.words[i] &= !VALID;
        self.resident -= 1;
        Some(dirty)
    }

    /// Downgrades `addr`'s line to clean (e.g. after a sharer reads a line
    /// this cache held modified). Returns whether the line was present.
    pub fn clean(&mut self, addr: PAddr) -> bool {
        let Some(i) = self.way_of(addr) else {
            return false;
        };
        self.words[i] &= !DIRTY;
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

    impl CacheArray {
        /// An empty cache whose LRU clock already reads `tick`.
        fn with_tick(geom: CacheGeometry, tick: u32) -> Self {
            let mut c = CacheArray::new(geom);
            c.tick = tick;
            c
        }
    }

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
        let walk = |c: &CacheArray| c.words.iter().filter(|&&w| w & VALID != 0).count();
        assert_eq!(c.resident_lines(), 0);
        c.access(line(0), false);
        c.access(line(1), false);
        assert_eq!(c.resident_lines(), 2);
        // Refills of a full set and invalidations keep the counter equal
        // to a walk of the words.
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

    fn evicted(r: LookupResult) -> Option<u64> {
        match r {
            LookupResult::Hit => None,
            LookupResult::Miss { evicted_clean } => evicted_clean,
            LookupResult::MissDirtyEviction { victim_line } => Some(victim_line),
        }
    }

    #[test]
    fn tick_exhaustion_reranks_and_keeps_victim_order() {
        // 4 sets x 4 ways, the clock six accesses short of its limit.
        let mut c = CacheArray::with_tick(CacheGeometry::new(4 * 4 * 64, 4), u32::MAX - 6);
        for l in [0, 4, 8, 12, 0, 1] {
            c.access(line(l), l == 8);
        }
        assert_eq!(c.tick, u32::MAX);
        // Set 0 from LRU to MRU: 4, 8 (dirty), 12, 0. The next access
        // exhausts the clock: stamps restart at 1..=4 per filled set.
        assert_eq!(evicted(c.access(line(5), false)), None);
        assert!(!c.is_filled(2) && c.words[8..12] == [0; 4]);
        assert_eq!(
            c.access(line(16), false),
            LookupResult::Miss {
                evicted_clean: Some(4)
            }
        );
        assert_eq!(
            c.access(line(20), false),
            LookupResult::MissDirtyEviction { victim_line: 8 }
        );
        assert!(c.access(line(12), false).is_hit()); // promoted across the re-rank
        assert_eq!(evicted(c.access(line(24), false)), Some(0));
        assert_eq!(evicted(c.access(line(28), false)), Some(16));
        // Set 1 kept its order too: 1 is older than 5.
        for l in [9, 13] {
            assert_eq!(evicted(c.access(line(l), false)), None);
        }
        assert_eq!(evicted(c.access(line(17), false)), Some(1));
        assert_eq!((c.hits(), c.misses()), (2, 13));
    }

    #[test]
    fn over_wide_tag_probes_absent_and_refuses_to_fill() {
        let mut c = tiny();
        // Tag 1 << 30 in a 4-set cache: one bit more than a word holds.
        let wide = line(4 << TAG_BITS);
        c.access(line(0), false);
        assert!(!c.probe(wide));
        assert_eq!(c.invalidate(wide), None);
        let fill = std::panic::catch_unwind(move || c.access(wide, false));
        assert!(fill.is_err());
    }
}
