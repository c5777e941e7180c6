//! The Context Table (CT) and its lookaside cache (CT$).
//!
//! "The CT keeps track of all registered context segments, queue pairs, and
//! page table root addresses. Each CT entry, indexed by its ctx_id,
//! specifies the address space and a list of registered QPs for that
//! context" (§4.2). The CT is what makes the destination side *stateless*:
//! any incoming `<ctx_id, offset>` is validated and translated against
//! purely local configuration.

use sonuma_memory::VAddr;
use sonuma_protocol::{CtxId, QpId, Status};

/// One registered context: a segment of the local address space exposed to
/// the global address space `ctx_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextEntry {
    /// Local virtual base address of the context segment.
    pub segment_base: VAddr,
    /// Segment length in bytes (bounds for the security check).
    pub segment_len: u64,
    /// Address-space id whose page tables translate segment addresses.
    pub asid: u32,
    /// Queue pairs registered for this context on this node.
    pub qps: Vec<QpId>,
}

impl ContextEntry {
    /// Validates `offset..offset+len` against the segment bounds and
    /// returns the local virtual address of `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Status::OutOfBounds`] exactly when the range escapes the
    /// segment — the paper's security check (§4.2).
    pub fn resolve(&self, offset: u64, len: u64) -> Result<VAddr, Status> {
        let end = offset.checked_add(len).ok_or(Status::OutOfBounds)?;
        if end > self.segment_len {
            return Err(Status::OutOfBounds);
        }
        Ok(self.segment_base.offset(offset))
    }
}

/// The Context Table: all contexts registered on one node, indexed by
/// `ctx_id`.
///
/// # Example
///
/// ```
/// use sonuma_rmc::{ContextEntry, ContextTable};
/// use sonuma_protocol::{CtxId, Status};
/// use sonuma_memory::VAddr;
///
/// let mut ct = ContextTable::new();
/// ct.register(CtxId(1), ContextEntry {
///     segment_base: VAddr::new(0x10000),
///     segment_len: 8192,
///     asid: 1,
///     qps: vec![],
/// });
/// let entry = ct.lookup(CtxId(1)).unwrap();
/// assert!(entry.resolve(0, 64).is_ok());
/// assert_eq!(entry.resolve(8192, 64), Err(Status::OutOfBounds));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextTable {
    entries: Vec<Option<ContextEntry>>,
}

impl ContextTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently resident for this table (the lazily grown
    /// entry slots plus each entry's QP list).
    pub fn resident_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Option<ContextEntry>>()
            + self
                .entries
                .iter()
                .flatten()
                .map(|e| e.qps.capacity() * std::mem::size_of::<QpId>())
                .sum::<usize>()
    }

    /// Registers (or replaces) a context.
    pub fn register(&mut self, ctx: CtxId, entry: ContextEntry) {
        let idx = ctx.index();
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        self.entries[idx] = Some(entry);
    }

    /// Looks up a context.
    ///
    /// # Errors
    ///
    /// Returns [`Status::BadContext`] for unregistered ids.
    pub fn lookup(&self, ctx: CtxId) -> Result<&ContextEntry, Status> {
        self.entries
            .get(ctx.index())
            .and_then(|e| e.as_ref())
            .ok_or(Status::BadContext)
    }

    /// Mutable lookup (QP registration).
    ///
    /// # Errors
    ///
    /// Returns [`Status::BadContext`] for unregistered ids.
    pub fn lookup_mut(&mut self, ctx: CtxId) -> Result<&mut ContextEntry, Status> {
        self.entries
            .get_mut(ctx.index())
            .and_then(|e| e.as_mut())
            .ok_or(Status::BadContext)
    }

    /// Number of registered contexts.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Whether no contexts are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The CT$ — a small lookaside structure caching recently accessed CT rows
/// "to reduce pressure on the MAQ" (§4.3).
///
/// Timing-only: hits avoid the CT-row memory fetch; the data always comes
/// from the authoritative [`ContextTable`].
#[derive(Debug, Clone)]
pub struct CtCache {
    capacity: usize,
    resident: Vec<(u16, u64)>, // (ctx, lru)
    tick: u64,
    hits: u64,
    misses: u64,
}

impl CtCache {
    /// Creates an empty CT$ with `capacity` rows. A zero capacity disables
    /// the cache (every access misses) — used by the ablation bench.
    pub fn new(capacity: usize) -> Self {
        CtCache {
            capacity,
            resident: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Touches `ctx`; returns whether it hit.
    pub fn touch(&mut self, ctx: CtxId) -> bool {
        self.tick += 1;
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        if let Some(slot) = self.resident.iter_mut().find(|(c, _)| *c == ctx.0) {
            slot.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.resident.len() < self.capacity {
            self.resident.push((ctx.0, self.tick));
        } else {
            let victim = self
                .resident
                .iter_mut()
                .min_by_key(|(_, lru)| *lru)
                .expect("nonzero capacity");
            *victim = (ctx.0, self.tick);
        }
        false
    }

    /// Invalidates one context's row (context teardown).
    pub fn invalidate(&mut self, ctx: CtxId) {
        self.resident.retain(|(c, _)| *c != ctx.0);
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(base: u64, len: u64) -> ContextEntry {
        ContextEntry {
            segment_base: VAddr::new(base),
            segment_len: len,
            asid: 1,
            qps: Vec::new(),
        }
    }

    #[test]
    fn register_lookup_roundtrip() {
        let mut ct = ContextTable::new();
        assert!(ct.is_empty());
        ct.register(CtxId(3), entry(0x4000, 1 << 20));
        assert_eq!(ct.len(), 1);
        assert_eq!(
            ct.lookup(CtxId(3)).unwrap().segment_base,
            VAddr::new(0x4000)
        );
        assert_eq!(ct.lookup(CtxId(0)), Err(Status::BadContext));
    }

    #[test]
    fn resolve_checks_bounds() {
        let e = entry(0x1000, 4096);
        assert_eq!(e.resolve(0, 64).unwrap(), VAddr::new(0x1000));
        assert_eq!(e.resolve(4032, 64).unwrap(), VAddr::new(0x1FC0));
        assert_eq!(e.resolve(4033, 64), Err(Status::OutOfBounds));
        assert_eq!(e.resolve(4096, 0), Ok(VAddr::new(0x2000)));
        assert_eq!(e.resolve(4097, 0), Err(Status::OutOfBounds));
        // Overflow-safe.
        assert_eq!(e.resolve(u64::MAX, 2), Err(Status::OutOfBounds));
    }

    #[test]
    fn qp_registration_via_lookup_mut() {
        let mut ct = ContextTable::new();
        ct.register(CtxId(0), entry(0, 64));
        ct.lookup_mut(CtxId(0)).unwrap().qps.push(QpId(2));
        assert_eq!(ct.lookup(CtxId(0)).unwrap().qps, vec![QpId(2)]);
    }

    #[test]
    fn ct_cache_hit_miss_lru() {
        let mut c = CtCache::new(2);
        assert!(!c.touch(CtxId(1))); // miss, insert
        assert!(c.touch(CtxId(1))); // hit
        assert!(!c.touch(CtxId(2))); // miss, insert
        assert!(!c.touch(CtxId(3))); // miss, evicts LRU (ctx1)
        assert!(!c.touch(CtxId(1))); // miss again
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn ct_cache_disabled_always_misses() {
        let mut c = CtCache::new(0);
        for _ in 0..5 {
            assert!(!c.touch(CtxId(1)));
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 5);
    }

    #[test]
    fn ct_cache_invalidate() {
        let mut c = CtCache::new(2);
        c.touch(CtxId(1));
        c.invalidate(CtxId(1));
        assert!(!c.touch(CtxId(1)), "invalidated row must miss");
    }
}
