//! Directory plane of the rack-scale KV-cache service (§2.1, §8).
//!
//! The paper's flagship workload serves multi-kilobyte values by
//! one-sided remote reads: a client hashes the key, consults the
//! *directory* for the value's `(node, offset, len)` placement, and
//! issues a single `rmc_read` spanning the value's cache lines — no
//! server CPU on the data path. This module is that directory as a pure
//! function of the configuration: key homes, value-size classes, and
//! per-node bump-allocated offsets are all derived from the SplitMix64
//! key hash, so every participant (and every benchmark repetition)
//! computes the identical layout without any metadata traffic.
//!
//! Value sizes are power-of-two *classes* doubling from `value_min` to
//! `value_max` (the paper's 4 KB–64 MB span, scaled to what a CI rack
//! affords); each key's class comes from high hash bits, independent of
//! its home node. Value bytes are deterministic per key — an 8-byte
//! little-endian key header followed by a SplitMix64-derived stream —
//! so a GET's returned payload is verifiable byte-for-byte and a PUT
//! (refill) rewrites the same image, making concurrent GET/PUT of one
//! key tear-free by construction.

use crate::kvstore::hash_key;

/// Where one key's value lives: resolved by [`KvDirectory::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvPlacement {
    /// Home node holding the value in its context segment.
    pub node: usize,
    /// Byte offset of the value within the home node's segment
    /// (64-aligned: values are whole cache lines).
    pub offset: u64,
    /// Value length in bytes (a power-of-two class multiple of 64).
    pub len: u64,
}

/// The deterministic key → `(node, offset, len)` map every client and
/// benchmark driver shares.
#[derive(Debug, Clone, PartialEq)]
pub struct KvDirectory {
    nodes: usize,
    segment_len: u64,
    value_min: u64,
    value_max: u64,
    placements: Vec<KvPlacement>,
    node_bytes: Vec<u64>,
}

impl KvDirectory {
    /// Builds the directory for `keys` keys over `nodes` nodes with
    /// `segment_len`-byte context segments and value classes doubling
    /// from `value_min` to `value_max` bytes.
    ///
    /// Placement: key `k`'s home is `hash(k) % nodes`; its class comes
    /// from bits 40.. of the same hash; offsets are bump-allocated per
    /// node in key order (lengths are 64-multiples, so every offset is
    /// 64-aligned). Errors if the parameters are malformed or any
    /// node's values overflow its segment.
    pub fn build(
        keys: u64,
        nodes: usize,
        segment_len: u64,
        value_min: u64,
        value_max: u64,
    ) -> Result<KvDirectory, String> {
        if keys == 0 {
            return Err("kv directory needs at least one key".into());
        }
        if nodes == 0 {
            return Err("kv directory needs at least one node".into());
        }
        if !value_min.is_power_of_two() || value_min < 64 {
            return Err(format!(
                "value_min must be a power of two >= 64, got {value_min}"
            ));
        }
        if !value_max.is_power_of_two() || value_max < value_min {
            return Err(format!(
                "value_max must be a power of two >= value_min ({value_min}), got {value_max}"
            ));
        }
        let classes = (value_max / value_min).ilog2() as u64 + 1;
        let mut node_bytes = vec![0u64; nodes];
        let placements: Vec<KvPlacement> = (0..keys)
            .map(|k| {
                let h = hash_key(k);
                let node = (h % nodes as u64) as usize;
                let len = value_min << ((h >> 40) % classes);
                let offset = node_bytes[node];
                node_bytes[node] += len;
                KvPlacement { node, offset, len }
            })
            .collect();
        if let Some((worst, &bytes)) = node_bytes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &b)| b)
            .filter(|&(_, &b)| b > segment_len)
        {
            return Err(format!(
                "kv values overflow the context segment: node {worst} needs {bytes} bytes \
                 but segment_bytes is {segment_len} (shrink keys/value sizes or grow the segment)"
            ));
        }
        Ok(KvDirectory {
            nodes,
            segment_len,
            value_min,
            value_max,
            placements,
            node_bytes,
        })
    }

    /// The placement of `key` (panics if `key >= keys`).
    pub fn lookup(&self, key: u64) -> KvPlacement {
        self.placements[key as usize]
    }

    /// Number of keys in the directory.
    pub fn keys(&self) -> u64 {
        self.placements.len() as u64
    }

    /// Number of nodes the directory spreads over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of value-size classes (`value_min` doubling to `value_max`).
    pub fn classes(&self) -> usize {
        ((self.value_max / self.value_min).ilog2() + 1) as usize
    }

    /// The byte size of value class `class`.
    pub fn class_bytes(&self, class: usize) -> u64 {
        self.value_min << class
    }

    /// The class index of a value `len` bytes long.
    pub fn class_of(&self, len: u64) -> usize {
        (len / self.value_min).ilog2() as usize
    }

    /// Bytes of values homed on `node`.
    pub fn node_bytes(&self, node: usize) -> u64 {
        self.node_bytes[node]
    }
}

/// Writes `key`'s deterministic value image into `buf`: the key as an
/// 8-byte little-endian header, then a SplitMix64-derived byte stream.
/// PUTs rewrite exactly this image, so readers can never observe a torn
/// value.
pub fn fill_value(key: u64, buf: &mut [u8]) {
    assert!(buf.len() >= 8, "values are at least one header");
    buf[..8].copy_from_slice(&key.to_le_bytes());
    let mut z = hash_key(key ^ 0xD6E8_FEB8_6659_FD93);
    for chunk in buf[8..].chunks_mut(8) {
        z = z
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}

/// Whether `buf` is byte-for-byte `key`'s value image.
pub fn verify_value(key: u64, buf: &[u8]) -> bool {
    if buf.len() < 8 || buf[..8] != key.to_le_bytes() {
        return false;
    }
    let mut expect = vec![0u8; buf.len()];
    fill_value(key, &mut expect);
    buf == expect
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_resolves_to_a_valid_placement() {
        let (keys, nodes, seg) = (2048u64, 64usize, 1u64 << 20);
        let dir = KvDirectory::build(keys, nodes, seg, 4096, 32768).unwrap();
        for k in 0..keys {
            let p = dir.lookup(k);
            assert!(p.node < nodes, "key {k} homed off-rack: {p:?}");
            assert_eq!(p.offset % 64, 0, "key {k} misaligned: {p:?}");
            assert!(
                p.len >= 4096 && p.len <= 32768 && p.len.is_power_of_two(),
                "key {k} has an off-class length: {p:?}"
            );
            assert!(
                p.offset + p.len <= seg,
                "key {k} overflows its segment: {p:?}"
            );
        }
    }

    #[test]
    fn layout_is_deterministic_and_non_overlapping() {
        let a = KvDirectory::build(512, 16, 1 << 20, 1024, 8192).unwrap();
        let b = KvDirectory::build(512, 16, 1 << 20, 1024, 8192).unwrap();
        assert_eq!(a, b);
        // Per node, sorted extents must tile without overlap.
        for n in 0..16 {
            let mut extents: Vec<(u64, u64)> = (0..a.keys())
                .map(|k| a.lookup(k))
                .filter(|p| p.node == n)
                .map(|p| (p.offset, p.len))
                .collect();
            extents.sort_unstable();
            let mut end = 0u64;
            for (off, len) in extents {
                assert_eq!(off, end, "hole or overlap on node {n}");
                end = off + len;
            }
            assert_eq!(end, a.node_bytes(n));
        }
    }

    #[test]
    fn class_mapping_roundtrips() {
        let dir = KvDirectory::build(64, 4, 1 << 22, 4096, 65536).unwrap();
        assert_eq!(dir.classes(), 5);
        for c in 0..dir.classes() {
            assert_eq!(dir.class_of(dir.class_bytes(c)), c);
        }
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let err = KvDirectory::build(4096, 2, 1 << 12, 4096, 4096).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn value_image_fills_and_verifies() {
        for key in [0u64, 1, 7, 4095] {
            let mut buf = vec![0u8; 4096];
            fill_value(key, &mut buf);
            assert!(verify_value(key, &buf));
            assert!(!verify_value(key + 1, &buf));
            buf[100] ^= 1;
            assert!(!verify_value(key, &buf), "corruption must be caught");
        }
    }
}
