//! Differential test of the packed cache way array, and of the two
//! properties its layout exists for: exact LRU and store-first fills.
//!
//! `CacheArray` keeps a way as one packed 4-byte word (tag | recency rank
//! | dirty | valid), places each set's ways at the next free position on
//! the set's first fill rather than at its set index, stores only 4 ways
//! of a set until a fill finds them all valid, and knows a never-filled
//! set empty from its slot, without loading its words.
//! Before that a way was one 8-byte word with a 32-bit LRU stamp, and
//! before that 17 bytes in three parallel arrays. [`ThreeArrayCache`]
//! below is that earlier implementation, kept verbatim (on the public
//! `CacheGeometry`) as the reference: over random operation streams on
//! sets scattered across the geometry, so that first-fill order differs
//! from set order, the two must agree on every result, victim lines
//! included, and on every counter.

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_memory::{CacheArray, CacheGeometry, LookupResult, PAddr};

const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// One level of set-associative, LRU, write-back cache tags.
#[derive(Debug, Clone)]
struct ThreeArrayCache {
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

impl ThreeArrayCache {
    /// Creates an empty (all-invalid) cache.
    fn new(geom: CacheGeometry) -> Self {
        let n = (geom.sets() * geom.ways() as u64) as usize;
        ThreeArrayCache {
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

    /// Lifetime hit count.
    fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    fn misses(&self) -> u64 {
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
    fn probe(&self, addr: PAddr) -> bool {
        self.way_of(addr).is_some()
    }

    /// `Some(dirty)` if `addr`'s line is resident, without disturbing LRU
    /// or stats — the coherence directory's "who holds this line, and who
    /// holds it modified" question, answered from the tags themselves.
    fn probe_state(&self, addr: PAddr) -> Option<bool> {
        self.way_of(addr).map(|i| self.flags[i] & DIRTY != 0)
    }

    /// Accesses `addr`'s line, filling on miss; `write` marks it dirty.
    ///
    /// Returns what happened, including any eviction the fill caused.
    fn access(&mut self, addr: PAddr, write: bool) -> LookupResult {
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
    fn invalidate(&mut self, addr: PAddr) -> Option<bool> {
        let i = self.way_of(addr)?;
        let dirty = self.flags[i] & DIRTY != 0;
        self.flags[i] &= !VALID;
        self.resident -= 1;
        Some(dirty)
    }

    /// Downgrades `addr`'s line to clean (e.g. after a sharer reads a line
    /// this cache held modified). Returns whether the line was present.
    fn clean(&mut self, addr: PAddr) -> bool {
        let Some(i) = self.way_of(addr) else {
            return false;
        };
        self.flags[i] &= !DIRTY;
        true
    }

    /// Number of resident lines (for tests and occupancy stats).
    fn resident_lines(&self) -> usize {
        self.resident
    }
}

/// Geometries from "every fill evicts" up to Table 1's L1 and LLC and one
/// fully associative set: rank widths 0 through 6. The last three have
/// few sets and more ways than a young set stores, so that the op mix
/// grows many of their sets, among invalidations and cleans.
const GEOMETRIES: [(u64, u32); 13] = [
    (64, 1),
    (128, 2),
    (256, 1),
    (512, 2),
    (2048, 4),
    (8192, 8),
    (32 * 1024, 2),
    (4 * 1024 * 1024, 16),
    (8192, 32),
    (4096, 64),
    (512, 8),
    (2048, 16),
    (16 * 1024, 16),
];

/// Line `k` of the lines that map to set `picks[s % 8]`, the picks
/// drawn from anywhere in the geometry, so the order the ops first fill
/// sets in is not their index order. More lines per set than it has
/// ways, so every geometry sees evictions.
fn line_addr(geom: CacheGeometry, picks: &[u64], k: u64, s: u64) -> PAddr {
    let k = k % (2 * geom.ways() as u64 + 2);
    let s = picks[s as usize % picks.len()] & (geom.sets() - 1);
    PAddr::new((k * geom.sets() + s) * 64)
}

/// Runs `ops` = `(operation, k, s)` through both implementations on the
/// sets `picks` names and compares everything observable.
fn check(shape: usize, picks: &[u64], ops: &[(u8, u64, u64)]) {
    let (size, ways) = GEOMETRIES[shape];
    let geom = CacheGeometry::new(size, ways);
    let mut packed = CacheArray::new(geom);
    let mut reference = ThreeArrayCache::new(geom);
    for (i, &(op, k, s)) in ops.iter().enumerate() {
        let addr = line_addr(geom, picks, k, s);
        let ctx = || format!("op {i}: {op} on {addr:?} ({size} B, {ways}-way)");
        match op {
            // Accesses dominate, as they do in a run; one in four writes.
            0..=5 => {
                let write = op == 0 || (op == 1 && k % 2 == 0);
                assert_eq!(
                    packed.access(addr, write),
                    reference.access(addr, write),
                    "{}",
                    ctx()
                );
            }
            6 => assert_eq!(packed.probe(addr), reference.probe(addr), "{}", ctx()),
            7 => assert_eq!(
                packed.probe_state(addr),
                reference.probe_state(addr),
                "{}",
                ctx()
            ),
            8 => assert_eq!(
                packed.invalidate(addr),
                reference.invalidate(addr),
                "{}",
                ctx()
            ),
            _ => assert_eq!(packed.clean(addr), reference.clean(addr), "{}", ctx()),
        }
        assert_eq!(
            packed.resident_lines(),
            reference.resident_lines(),
            "{}",
            ctx()
        );
    }
    assert_eq!(packed.hits(), reference.hits());
    assert_eq!(packed.misses(), reference.misses());
    for k in 0..2 * ways as u64 + 2 {
        for s in 0..8 {
            let addr = line_addr(geom, picks, k, s);
            assert_eq!(packed.probe_state(addr), reference.probe_state(addr));
        }
    }
}

proptest! {
    #[test]
    fn packed_ways_match_the_three_array_reference(
        shape in 0usize..GEOMETRIES.len(),
        picks in vec(any::<u64>(), 8..9),
        ops in vec((0u8..10, 0u64..256, 0u64..8), 1..2_000),
    ) {
        check(shape, &picks, &ops);
    }
}

/// What the slot table buys, measured: page faults around lookups and
/// fills of a fresh LLC-sized array.
#[cfg(target_os = "linux")]
mod first_touch {
    use super::*;

    /// Minor page faults the calling thread has taken (`minflt`, field 10 of
    /// its `stat` line). The thread's own file rather than `/proc/self/stat`:
    /// the other tests of this binary fault concurrently on their threads.
    fn minor_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
        // Field 2 (the thread name) may contain spaces; it ends at the last ')'.
        let after_name = stat.rsplit_once(')').expect("comm field").1;
        after_name
            .split_whitespace()
            .nth(7)
            .and_then(|f| f.parse().ok())
            .expect("minflt field")
    }

    /// Host pages are at least this big, so one touch per `PAGE` bytes of an
    /// array touches every page of it at most once.
    const PAGE: u64 = 4096;

    /// Bytes of one way's word.
    const WAY_BYTES: u64 = 4;

    /// Ways a young set stores, in 16 B.
    const YOUNG_WAYS: u64 = 4;

    /// Table 1's LLC: 4,096 sets of 16 ways, a 64 KB young region and a
    /// 256 KB grown one.
    fn llc() -> CacheGeometry {
        CacheGeometry::new(4 * 1024 * 1024, 16)
    }

    /// A lookup in a never-filled set answers from the set's slot: it must
    /// not load the way words, which would fault every page of a fresh
    /// array in (as the shared zero page) just to learn it is empty.
    #[test]
    fn lookups_in_never_filled_sets_fault_nothing_in() {
        let geom = llc();
        let mut c = CacheArray::new(geom);
        let line = |set: u64| PAddr::new(set * 64);
        c.probe(line(0)); // this code is resident from here on
        let before = minor_faults();
        for set in 0..geom.sets() {
            assert!(!c.probe(line(set)));
            assert_eq!(c.probe_state(line(set)), None);
            assert_eq!(c.invalidate(line(set)), None);
            assert!(!c.clean(line(set)));
        }
        let faults = minor_faults() - before;
        assert!(
            faults <= 4,
            "{faults} faults probing an empty 256 KB way array"
        );
    }

    /// Sets are packed in first-fill order, not laid out by set index. One
    /// fill in each of the 64 sets that a by-index layout puts on 64
    /// separate pages lands in 1 KB of young ways, plus the 16 KB slot
    /// table the first fill allocates: a handful of faults, where a
    /// by-index layout takes one per set.
    #[test]
    fn sets_far_apart_share_pages_once_filled() {
        let geom = llc();
        let sets_per_page = PAGE / (WAY_BYTES * geom.ways() as u64);
        // Fault the fill path's code in on another cache, alive to the end
        // so the measured one cannot reuse its memory.
        let mut warm = CacheArray::new(geom);
        warm.access(PAddr::new(0), false);
        let mut c = CacheArray::new(geom);
        let before = minor_faults();
        for set in (0..geom.sets()).step_by(sets_per_page as usize) {
            let fill = c.access(PAddr::new(set * 64), true);
            assert_eq!(
                fill,
                LookupResult::Miss {
                    evicted_clean: None
                }
            );
        }
        let faults = minor_faults() - before;
        assert!(
            faults <= 8,
            "{faults} faults filling 64 sets {sets_per_page} apart"
        );
        assert_eq!(
            c.resident_bytes(),
            64 * YOUNG_WAYS * WAY_BYTES + 4 * geom.sets(),
            "64 young sets of ways and one 4-byte slot a set"
        );
    }

    /// A young set stores 4 ways in 16 B, so one fill in each of 256
    /// adjacent sets writes 4 KB of ways, 256 young sets to a page. Stored
    /// 16 ways a set, the same fills wrote 16 KB, 64 B a set: past set
    /// 0's page, 4 more pages of ways. The first fill allocates the slot
    /// table, which the allocator may clear whole, so it is not counted.
    #[test]
    fn adjacent_young_sets_share_a_page() {
        let geom = llc();
        let mut warm = CacheArray::new(geom);
        warm.access(PAddr::new(0), false);
        let mut c = CacheArray::new(geom);
        c.access(PAddr::new(0), false);
        let before = minor_faults();
        for set in 1..256 {
            let fill = c.access(PAddr::new(set * 64), false);
            assert_eq!(
                fill,
                LookupResult::Miss {
                    evicted_clean: None
                }
            );
        }
        let faults = minor_faults() - before;
        assert!(faults < 4, "{faults} faults filling 255 adjacent sets");
    }
}
