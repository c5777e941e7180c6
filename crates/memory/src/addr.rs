//! Address newtypes and layout constants.

use std::fmt;

/// Cache line size in bytes — the granularity of all soNUMA remote
/// transactions (§4.1 of the paper).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Page size in bytes (Table 1: 8 KB pages).
pub const PAGE_BYTES: u64 = 8192;

/// A virtual address within some context's address space.
///
/// # Example
///
/// ```
/// use sonuma_memory::VAddr;
///
/// let va = VAddr::new(0x2040);
/// assert_eq!(va.page_number(), 1);
/// assert_eq!(va.page_offset(), 0x40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(u64);

impl VAddr {
    /// Wraps a raw virtual address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        VAddr(raw)
    }

    /// The raw address value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Virtual page number (8 KB pages).
    #[inline]
    pub const fn page_number(self) -> u64 {
        self.0 / PAGE_BYTES
    }

    /// Offset within the page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_BYTES
    }

    /// This address displaced by `delta` bytes.
    #[inline]
    pub const fn offset(self, delta: u64) -> VAddr {
        VAddr(self.0 + delta)
    }

    /// Whether the address is aligned to `align` bytes (power of two).
    #[inline]
    pub const fn is_aligned(self, align: u64) -> bool {
        self.0.is_multiple_of(align)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl fmt::LowerHex for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A physical address within one node's memory.
///
/// Physical addresses never leave a node: the soNUMA protocol ships
/// `<ctx_id, offset>` pairs and each node translates locally (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(u64);

impl PAddr {
    /// Wraps a raw physical address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PAddr(raw)
    }

    /// The raw address value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Physical frame number (8 KB frames).
    #[inline]
    pub const fn frame_number(self) -> u64 {
        self.0 / PAGE_BYTES
    }

    /// Global cache line index (address / 64).
    #[inline]
    pub const fn line_index(self) -> u64 {
        self.0 / CACHE_LINE_BYTES
    }

    /// This address displaced by `delta` bytes.
    #[inline]
    pub const fn offset(self, delta: u64) -> PAddr {
        PAddr(self.0 + delta)
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

impl fmt::LowerHex for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Splits the byte range `[addr, addr+len)` into per-cache-line subranges.
///
/// Each item is `(line_base_addr, offset_in_range, len_in_line)`. Used by
/// everything that moves data at line granularity (the RMC's unrolling, the
/// hierarchy's timing charges).
///
/// # Example
///
/// ```
/// use sonuma_memory::addr::split_into_lines;
///
/// let parts: Vec<_> = split_into_lines(60, 10).collect();
/// assert_eq!(parts, vec![(0, 0, 4), (64, 4, 6)]);
/// ```
pub fn split_into_lines(addr: u64, len: u64) -> impl Iterator<Item = (u64, u64, u64)> {
    let mut cur = addr;
    let end = addr + len;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let line = cur - cur % CACHE_LINE_BYTES;
        let take = (line + CACHE_LINE_BYTES - cur).min(end - cur);
        let item = (line, cur - addr, take);
        cur += take;
        Some(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_decomposition() {
        let va = VAddr::new(PAGE_BYTES * 3 + 100);
        assert_eq!(va.page_number(), 3);
        assert_eq!(va.page_offset(), 100);
        assert!(va.offset(28).is_aligned(64));
    }

    #[test]
    fn paddr_decomposition() {
        let pa = PAddr::new(PAGE_BYTES + 65);
        assert_eq!(pa.frame_number(), 1);
        assert_eq!(pa.line_index(), (PAGE_BYTES + 64) / 64);
    }

    #[test]
    fn split_lines_aligned() {
        let parts: Vec<_> = split_into_lines(128, 128).collect();
        assert_eq!(parts, vec![(128, 0, 64), (192, 64, 64)]);
    }

    #[test]
    fn split_lines_unaligned_head_and_tail() {
        let parts: Vec<_> = split_into_lines(60, 10).collect();
        assert_eq!(parts, vec![(0, 0, 4), (64, 4, 6)]);
        let total: u64 = parts.iter().map(|p| p.2).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_lines_within_one_line() {
        let parts: Vec<_> = split_into_lines(10, 20).collect();
        assert_eq!(parts, vec![(0, 0, 20)]);
    }

    #[test]
    fn split_lines_empty() {
        assert_eq!(split_into_lines(100, 0).count(), 0);
    }

    #[test]
    fn lines_spanned_counts() {
        let spanned = |addr, len| split_into_lines(addr, len).count();
        assert_eq!(spanned(0, 0), 0);
        assert_eq!(spanned(0, 1), 1);
        assert_eq!(spanned(0, 64), 1);
        assert_eq!(spanned(0, 65), 2);
        assert_eq!(spanned(63, 2), 2);
        assert_eq!(spanned(64, 8192), 128);
    }

    #[test]
    fn display_forms() {
        assert_eq!(VAddr::new(0x10).to_string(), "va:0x10");
        assert_eq!(PAddr::new(0x20).to_string(), "pa:0x20");
        assert_eq!(format!("{:x}", VAddr::new(255)), "ff");
    }
}
