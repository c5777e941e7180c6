//! Set-associative cache tag arrays with LRU replacement.
//!
//! Caches here are *timing* structures: they track which lines are resident
//! (tags, dirty bits, LRU order) but never hold data — the functional bytes
//! stay in [`crate::PhysicalMemory`]. This is the classic decoupled
//! functional/timing simulator split and keeps the model honest: a hit or
//! miss changes only latency, never values.
//!
//! A set stores its ways as they are used. From its first fill a set is
//! *young*: it stores only its first `YOUNG_WAYS` (4) ways, in 16 B, and
//! *grows* to all `ways` when a fill finds all 4 valid. A cache of at
//! most 4 ways stores every way from the start, and its sets never grow.
//! The invariant that makes this invisible: **in a young set, the
//! unstored ways `4..ways` are invalid, and each has rank equal to its
//! index.** The first fill writes way `j` at rank `j`; a fill takes the
//! first invalid way by index, so it picks a stored way whenever one is
//! invalid, and while young every stored way ranks below 4; promoting a
//! way ages only ways ranked below it, so it never touches an unstored
//! one. Hits, victims, dirty bits and counters are therefore those of
//! the full `ways`-way array.

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
#[derive(Debug)]
pub struct CacheArray {
    geom: CacheGeometry,
    /// One word per stored way, `tag | rank | dirty | valid`, the rank
    /// `ceil(log2 ways)` bits wide. Two regions: the young one at `base`,
    /// one position of `young_ways()` consecutive words per set, then,
    /// if the cache has more ways than a young set stores, the grown one
    /// at `grown_base`, one position of `ways` consecutive words per set.
    /// A set takes the next young position at its first fill and the next
    /// grown position when it grows, not a position at its set index, so
    /// the filled sets are packed from the start of each region whichever
    /// sets they are. Zero-initialized and never grown, so `vec![0; n]`
    /// takes untouched pages from the allocator and a rack of 4 MB LLCs
    /// costs address space, not memory, beyond the sets it fills.
    words: Vec<u32>,
    /// Index of young position 0's first word: the first 64-byte
    /// boundary of `words`, so four young sets share one host cache line.
    base: usize,
    /// Index of grown position 0's first word, also on a 64-byte
    /// boundary, so a grown 16-way set is exactly one host cache line.
    grown_base: usize,
    /// Bit position of the tag, 2 + the rank width, and the rank field.
    tag_shift: u32,
    rank_mask: u32,
    /// One slot per set, allocated by the first fill: 0 if no fill has
    /// reached the set, else `GROWN` if it has grown, or'd with 1 + its
    /// position in that region. A set with slot 0 is known empty
    /// *without loading its ways*, and a fresh fill takes position
    /// `placed`, so the first touch of its ways is the fill's store. A
    /// load first would map the kernel's shared zero page and the store
    /// after it would fault again to replace it (DESIGN.md, "First
    /// touch").
    slots: Vec<u32>,
    /// Sets placed so far: the next fresh fill's young position.
    placed: u32,
    /// Sets grown so far: the next growth's grown position.
    grown: u32,
    hits: u64,
    misses: u64,
    /// Ways currently valid, maintained by fill and `invalidate` so
    /// reading it never walks (and faults in) the way array.
    resident: usize,
}

const VALID: u32 = 1;
const DIRTY: u32 = 2;
/// The rank field's lowest bit. Ranks of a filled set's ways, valid or
/// not, are a permutation of `0..ways`, 0 the most recently used.
const RANK_ONE: u32 = 4;
/// Ways a young set stores. Counted over the five rack workloads, no LLC
/// set ever held more than 5 valid lines at once and 99.6–100 % never
/// more than 4 (DESIGN.md, "The young set").
const YOUNG_WAYS: usize = 4;
/// A slot's high bit: the set has grown, and its position is a grown one.
const GROWN: u32 = 1 << 31;

/// Moves `ways[way]` to rank 0 and ages every way more recent than it by
/// one, so the ranks stay a permutation; the caller rewrites the way.
#[inline]
fn promote(ways: &mut [u32], way: usize, rank_mask: u32) {
    let rank = ways[way] & rank_mask;
    if rank != 0 {
        for w in ways.iter_mut() {
            *w += u32::from(*w & rank_mask < rank) * RANK_ONE;
        }
    }
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache.
    pub fn new(geom: CacheGeometry) -> Self {
        let (sets, ways) = (geom.sets() as usize, geom.ways() as usize);
        // The grown region starts on a line boundary, which only a young
        // region of fewer than 4 sets needs rounding for.
        let (young_words, grown_words) = if ways > YOUNG_WAYS {
            ((sets * YOUNG_WAYS).next_multiple_of(16), sets * ways)
        } else {
            (sets * ways, 0)
        };
        // 15 words of slack so the regions can start on a line boundary:
        // `vec![0u32; n]` is calloc, `alloc_zeroed` aligned to 64 writes.
        let words = vec![0; young_words + grown_words + 15];
        let base = words.as_ptr().align_offset(64);
        let tag_shift = 2 + geom.ways().next_power_of_two().trailing_zeros();
        CacheArray {
            geom,
            base,
            grown_base: base + young_words,
            words,
            tag_shift,
            rank_mask: (1 << tag_shift) - RANK_ONE,
            slots: Vec::new(),
            placed: 0,
            grown: 0,
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

    /// Ways a young set stores: all of them in a cache of at most
    /// `YOUNG_WAYS` ways, whose sets never grow.
    #[inline]
    fn young_ways(&self) -> usize {
        (self.geom.ways() as usize).min(YOUNG_WAYS)
    }

    /// Index of `set`'s first stored way and how many ways it stores, or
    /// `None` if no fill has reached it. Loads the set's slot only: a
    /// never-filled set's ways stay untouched.
    #[inline]
    fn set_words(&self, set: usize) -> Option<(usize, usize)> {
        let slot = *self.slots.get(set)?;
        let position = (slot & !GROWN).checked_sub(1)? as usize;
        Some(if slot & GROWN == 0 {
            let young = self.young_ways();
            (self.base + position * young, young)
        } else {
            let ways = self.geom.ways() as usize;
            (self.grown_base + position * ways, ways)
        })
    }

    /// `addr`'s set index and the word a valid clean way holding `addr`'s
    /// line at rank 0 would be. A tag too wide for the word has no key,
    /// and so matches no way.
    #[inline]
    fn locate(&self, addr: PAddr) -> (usize, Option<u32>) {
        let set = self.geom.set_of(addr) as usize;
        let tag = self.geom.tag_of(addr);
        let key =
            (tag >> (32 - self.tag_shift) == 0).then(|| (tag as u32) << self.tag_shift | VALID);
        (set, key)
    }

    /// Index of the valid way holding `addr`'s line, if any.
    #[inline]
    fn way_of(&self, addr: PAddr) -> Option<usize> {
        let (set, key) = self.locate(addr);
        let (first, stored) = self.set_words(set)?;
        let (key, mask) = (key?, !(self.rank_mask | DIRTY));
        self.words[first..first + stored]
            .iter()
            .position(|&w| w & mask == key)
            .map(|i| first + i)
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
    /// Panics if `addr`'s tag does not fit the packed word (30 bits less
    /// the rank's `ceil(log2 ways)`: 26 for a 16-way cache).
    pub fn access(&mut self, addr: PAddr, write: bool) -> LookupResult {
        let dirty = if write { DIRTY } else { 0 };
        let (set, key) = self.locate(addr);
        let tag_bits = 32 - self.tag_shift;
        let key = key.unwrap_or_else(|| panic!("tag of {addr} exceeds {tag_bits} bits"));
        let Some((first, stored)) = self.set_words(set) else {
            return self.place(set, key | dirty);
        };
        let (rank_mask, key_mask) = (self.rank_mask, !(self.rank_mask | DIRTY));
        let ways = &mut self.words[first..first + stored];
        if let Some(way) = ways.iter().position(|&w| w & key_mask == key) {
            promote(ways, way, rank_mask);
            ways[way] = ways[way] & !rank_mask | dirty;
            self.hits += 1;
            return LookupResult::Hit;
        }
        self.fill(set, first, stored, key | dirty)
    }

    /// First fill of the never-filled `set` with the line `word`: the set
    /// takes the next free young position, and its ways are written by
    /// stores alone (way 0 `word` at rank 0, way `j` invalid at rank `j`).
    /// Out of line, so a hit runs through a small function.
    #[inline(never)]
    fn place(&mut self, set: usize, word: u32) -> LookupResult {
        if self.slots.is_empty() {
            self.slots = vec![0; self.geom.sets() as usize];
        }
        self.placed += 1;
        self.slots[set] = self.placed;
        let young = self.young_ways();
        let first = self.base + (self.placed as usize - 1) * young;
        for (w, j) in self.words[first..first + young].iter_mut().zip(0..) {
            *w = j * RANK_ONE;
        }
        self.words[first] = word;
        self.misses += 1;
        self.resident += 1;
        LookupResult::Miss {
            evicted_clean: None,
        }
    }

    /// Fills the missing line `word` into the filled `set`, whose
    /// `stored` ways start at `first`. A young set whose stored ways are
    /// all valid grows first. Out of line, like `place`.
    #[inline(never)]
    fn fill(&mut self, set: usize, first: usize, stored: usize, word: u32) -> LookupResult {
        let (rank_mask, all) = (self.rank_mask, self.geom.ways() as usize);
        let young_and_full = stored < all
            && self.words[first..first + stored]
                .iter()
                .all(|&w| w & VALID != 0);
        let (first, stored) = if young_and_full {
            (self.grow(set, first), all)
        } else {
            (first, stored)
        };
        let ways = &mut self.words[first..first + stored];
        self.misses += 1;

        // The victim: the first invalid way, else the LRU way, ranked last.
        let lru = (all as u32 - 1) * RANK_ONE;
        let free = ways.iter().position(|&w| w & VALID == 0);
        let oldest = || ways.iter().position(|&w| w & rank_mask == lru);
        let way = free.or_else(oldest).expect("ranks are a permutation");
        let old = ways[way];
        promote(ways, way, rank_mask);
        ways[way] = word;
        if old & VALID == 0 {
            self.resident += 1;
            return LookupResult::Miss {
                evicted_clean: None,
            };
        }
        let victim_line = u64::from(old >> self.tag_shift) << self.geom.set_shift | set as u64;
        if old & DIRTY != 0 {
            LookupResult::MissDirtyEviction { victim_line }
        } else {
            LookupResult::Miss {
                evicted_clean: Some(victim_line),
            }
        }
    }

    /// Grows the young `set`, whose stored ways start at `first`: it
    /// takes the next free grown position, its stored ways are copied
    /// there, and way `j` of the rest is written invalid at rank `j`, the
    /// state the unstored ways had. Returns the set's new first word.
    fn grow(&mut self, set: usize, first: usize) -> usize {
        let ways = self.geom.ways() as usize;
        self.grown += 1;
        self.slots[set] = GROWN | self.grown;
        let to = self.grown_base + (self.grown as usize - 1) * ways;
        self.words.copy_within(first..first + YOUNG_WAYS, to);
        for (w, j) in self.words[to + YOUNG_WAYS..to + ways]
            .iter_mut()
            .zip(YOUNG_WAYS as u32..)
        {
            *w = j * RANK_ONE;
        }
        to
    }

    /// Invalidates `addr`'s line if resident; returns whether it was dirty.
    /// The way keeps its rank.
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

    /// Host bytes of tag state this cache has written: every placed set's
    /// young ways and every grown set's ways, 4 B each, plus the
    /// 4-byte-a-set slot table once the first fill has allocated it. A
    /// never-filled set's ways cost nothing, and neither does an
    /// invalidated way of a filled one; a grown set's young ways, left
    /// behind, still count.
    pub fn resident_bytes(&self) -> u64 {
        let young = u64::from(self.placed) * self.young_ways() as u64;
        let grown = u64::from(self.grown) * u64::from(self.geom.ways());
        (young + grown + self.slots.len() as u64) * 4
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
    fn ranks_stay_a_permutation_and_sets_a_line() {
        // 4 sets of each shape, a xorshift stream over 3 x ways lines a set.
        for ways in [2u32, 4, 16] {
            let mut c = CacheArray::new(CacheGeometry::new(4 * ways as u64 * 64, ways));
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for step in 0..4_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = line(x % (12 * u64::from(ways)));
                match x >> 60 {
                    0..=9 => drop(c.access(addr, x >> 59 & 1 == 0)),
                    10..=11 => drop(c.invalidate(addr)),
                    12..=13 => drop(c.clean(addr)),
                    _ => drop(c.probe(addr)),
                }
                // A young 16-way set stores ranks 0..4 in 16 B, a grown
                // one ranks 0..16 in one 64 B line.
                for (first, stored) in (0..4).filter_map(|s| c.set_words(s)) {
                    let mut ranks: Vec<u32> = c.words[first..first + stored]
                        .iter()
                        .map(|w| (w & c.rank_mask) / RANK_ONE)
                        .collect();
                    ranks.sort_unstable();
                    assert!(ranks.iter().copied().eq(0..stored as u32), "step {step}");
                    assert_eq!(c.words[first..].as_ptr() as usize % (4 * stored), 0);
                }
            }
            assert_eq!(c.grown > 0, ways > 4, "{ways} ways");
        }
    }

    #[test]
    fn sets_are_placed_in_first_fill_order() {
        let mut c = tiny();
        assert!(!c.probe(line(3)));
        assert!(c.slots.is_empty(), "a lookup allocated the slot table");
        assert_eq!(c.resident_bytes(), 0);
        // Set 3, then set 0, then set 3 again: two positions, in that order.
        for i in [3, 0, 7] {
            c.access(line(i), false);
        }
        assert_eq!(
            (c.set_words(3), c.set_words(0)),
            (Some((c.base, 2)), Some((c.base + 2, 2)))
        );
        assert_eq!((c.set_words(1), c.set_words(2)), (None, None));
        // Two sets of two 4-byte ways, and four 4-byte slots.
        assert_eq!(c.resident_bytes(), 2 * 2 * 4 + 4 * 4);
        assert!(c.invalidate(line(0)).is_some());
        assert_eq!(c.resident_bytes(), 2 * 2 * 4 + 4 * 4);
    }

    /// 4 sets x 16 ways; lines `4 * i` all map to set 0.
    fn sixteen() -> CacheArray {
        CacheArray::new(CacheGeometry::new(4 * 16 * 64, 16))
    }

    const MISS: LookupResult = LookupResult::Miss {
        evicted_clean: None,
    };

    #[test]
    fn four_fills_leave_a_set_young() {
        let mut c = sixteen();
        for i in 0..4 {
            assert_eq!(c.access(line(4 * i), false), MISS);
        }
        assert_eq!(c.set_words(0), Some((c.base, 4)));
        // Four 4-byte ways and four 4-byte slots.
        assert_eq!(c.resident_bytes(), 4 * 4 + 4 * 4);
    }

    #[test]
    fn a_young_set_refills_an_invalidated_way_in_place() {
        let mut c = sixteen();
        for i in 0..4 {
            c.access(line(4 * i), false);
        }
        assert_eq!(c.invalidate(line(4)), Some(false));
        assert_eq!(c.access(line(16), false), MISS);
        // Line 16 took line 4's way, and the set did not grow.
        assert_eq!(c.way_of(line(16)), Some(c.base + 1));
        assert_eq!(c.set_words(0), Some((c.base, 4)));
        assert_eq!(c.resident_bytes(), 4 * 4 + 4 * 4);
    }

    #[test]
    fn the_fifth_fill_grows_the_set() {
        let mut c = sixteen();
        for i in 0..5 {
            assert_eq!(c.access(line(4 * i), false), MISS);
        }
        assert_eq!(c.set_words(0), Some((c.grown_base, 16)));
        assert_eq!(c.words[c.grown_base..].as_ptr() as usize % 64, 0);
        // The young ways left behind, sixteen grown ones and four slots.
        assert_eq!(c.resident_bytes(), (4 + 16 + 4) * 4);
        // The fifth line took way 4, the first unstored way.
        assert_eq!(c.way_of(line(16)), Some(c.grown_base + 4));
        assert!((0..5).all(|i| c.probe(line(4 * i))));
    }

    #[test]
    fn a_grown_set_fills_its_sixteen_ways_then_evicts_the_lru_line() {
        let mut c = sixteen();
        for i in 0..16 {
            assert_eq!(c.access(line(4 * i), false), MISS, "line {}", 4 * i);
        }
        // Line 0, filled while young, becomes the most recent, so line 4
        // is the least recent of the sixteen.
        assert!(c.access(line(0), false).is_hit());
        assert_eq!(
            c.access(line(64), false),
            LookupResult::Miss {
                evicted_clean: Some(4)
            }
        );
        assert_eq!(c.resident_lines(), 16);
    }

    #[test]
    fn a_young_lines_dirty_bit_survives_growth() {
        let mut c = sixteen();
        c.access(line(0), true);
        for i in 1..5 {
            c.access(line(4 * i), false);
        }
        assert_eq!(c.set_words(0), Some((c.grown_base, 16)));
        assert_eq!(c.probe_state(line(0)), Some(true));
        for i in 5..16 {
            assert_eq!(c.access(line(4 * i), false), MISS);
        }
        assert_eq!(
            c.access(line(64), false),
            LookupResult::MissDirtyEviction { victim_line: 0 }
        );
    }

    #[test]
    fn over_wide_tag_probes_absent_and_refuses_to_fill() {
        let mut c = tiny();
        // 2 ways leave a 29-bit tag: the widest fills, one bit more is
        // refused.
        let widest = line(4 * ((1 << 29) - 1));
        assert_eq!(evicted(c.access(widest, true)), None);
        assert_eq!(
            c.access(line(0), false),
            LookupResult::Miss {
                evicted_clean: None
            }
        );
        assert_eq!(
            c.access(line(4), false),
            LookupResult::MissDirtyEviction {
                victim_line: 4 * ((1 << 29) - 1)
            }
        );
        let wide = line(4 << 29);
        assert!(!c.probe(wide));
        assert_eq!(c.invalidate(wide), None);
        let fill = std::panic::catch_unwind(move || c.access(wide, false));
        assert!(fill.is_err());
    }
}
