//! `MemoryHierarchy::access` throughput in the four states a run meets it.
//!
//! * `warm/l1_hits`: 64 lines resident in the agent's L1 — the model's
//!   arithmetic alone.
//! * `llc_stream/64MB`: a 64 MB stream through one hierarchy — every
//!   access misses both levels and evicts from a full LLC set.
//! * `rack/512_nodes`: 512 Table 1 hierarchies visited round-robin, one
//!   LLC access each — the shape of a rack run, where every node's state
//!   has left the host caches by the time its next event runs.
//! * `first_touch/llc_pages`: fresh hierarchies and one access in each
//!   of the 64 LLC sets that a by-set-index layout put on 64 separate
//!   4 KB pages — what first fills of far-apart sets cost now that they
//!   are packed in fill order as young 4-way sets (a quarter page of
//!   ways plus the slot table).
//!
//! The `phys` group times the functional store, `PhysicalMemory`, in the
//! shapes the workloads give it:
//!
//! * `phys/sparse_64B_writes`: one 64 B write to each of 64 Ki distinct
//!   blocks of a fresh memory — remote writes scattered over a segment.
//! * `phys/dense_8KB_writes`: 1,024 whole 8 KB pages written at once.
//! * `phys/unwritten_64B_reads`: 1 M 64 B reads of memory never written.
//! * `phys/young_64B_reads`: 1 M 64 B reads of lines stored one per block.
//! * `phys/line_fill_32KB`: 64 landing buffers of 32 KB written line by
//!   line, as replies land — each block's first lines before it is full.
//! * `phys/discard_32KB`: the same buffers discarded whole (only the
//!   discards are timed).
//!
//! Runs offline through the in-repo criterion shim:
//!
//! ```text
//! cargo bench -p sonuma-memory --bench hierarchy
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use sonuma_memory::{
    AccessKind, AgentId, HierarchyConfig, MemoryHierarchy, PAddr, PhysicalMemory, BLOCK_BYTES,
};
use sonuma_sim::SimTime;
use std::hint::black_box;

const CORE: AgentId = AgentId(0);

fn table1() -> MemoryHierarchy {
    MemoryHierarchy::new(HierarchyConfig::table1(), 2)
}

/// Reads line `line` as the `nth` access of its hierarchy, 20 ns after
/// the one before (under the DRAM channel's bandwidth, so misses do not
/// queue); returns the latency in picoseconds.
fn read(h: &mut MemoryHierarchy, line: u64, nth: u64) -> u64 {
    let now = SimTime::from_ns(20 * nth);
    h.access(CORE, PAddr::new(line * 64), AccessKind::Read, now)
        .latency
        .as_ps()
}

fn bench_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("warm");
    g.sample_size(10);
    let mut h = table1();
    g.bench_function("l1_hits", |b| {
        b.iter(|| {
            (0..1_000_000u64)
                .map(|i| read(&mut h, i % 64, i))
                .sum::<u64>()
        })
    });
    g.finish();
}

fn bench_llc_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("llc_stream");
    g.sample_size(10);
    let mut h = table1();
    let mut next = 0u64;
    g.bench_function("64MB", |b| {
        b.iter(|| {
            let lines = next..next + (64 << 20) / 64;
            next = lines.end;
            lines.map(|l| read(&mut h, l, l)).sum::<u64>()
        })
    });
    g.finish();
}

fn bench_rack(c: &mut Criterion) {
    let mut g = c.benchmark_group("rack");
    g.sample_size(10);
    let mut nodes: Vec<MemoryHierarchy> = (0..512).map(|_| table1()).collect();
    // A pseudorandom line per visit (xorshift64) inside a 64 MB segment.
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut round = 0;
    g.bench_function("512_nodes", |b| {
        b.iter(|| {
            let mut sum = 0;
            for _ in 0..256 {
                for h in &mut nodes {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    sum += read(h, seed % (1 << 20), round);
                }
                round += 1;
            }
            sum
        })
    });
    g.finish();
}

fn bench_first_touch(c: &mut Criterion) {
    let mut g = c.benchmark_group("first_touch");
    g.sample_size(10);
    let llc = HierarchyConfig::table1().l2_geometry;
    // Sets this far apart sat on separate pages when set `s` was stored
    // at word `s × ways` (a way is one 4-byte word).
    let sets_per_page = 4096 / (4 * llc.ways() as u64);
    g.bench_function("llc_pages", |b| {
        // The hierarchies outlive the timed body (the shim drops its
        // result after the clock stops), so the allocator cannot hand the
        // next one pages the last one already faulted in.
        b.iter(|| {
            let mut fresh: Vec<MemoryHierarchy> = (0..64).map(|_| table1()).collect();
            for h in &mut fresh {
                for set in (0..llc.sets()).step_by(sets_per_page as usize) {
                    read(h, set, set);
                }
            }
            fresh
        })
    });
    g.finish();
}

/// Block `i`'s address, at one of its eight lines so every line offset
/// is exercised.
fn sparse_line(i: u64) -> PAddr {
    PAddr::new(i * BLOCK_BYTES as u64 + i % 8 * 64)
}

fn bench_phys(c: &mut Criterion) {
    const BLOCKS: u64 = 64 << 10;
    const BUFFER: usize = 32 << 10;
    let line = [0x5Au8; 64];
    let mut g = c.benchmark_group("phys");
    g.sample_size(10);
    // Each body returns its memory, so the frees fall outside the clock.
    g.bench_function("sparse_64B_writes", |b| {
        b.iter(|| {
            let mut mem = PhysicalMemory::new(BLOCKS * BLOCK_BYTES as u64);
            for i in 0..BLOCKS {
                mem.write(sparse_line(i), &line);
            }
            mem
        })
    });
    let page = vec![0xA5u8; 8 << 10];
    g.bench_function("dense_8KB_writes", |b| {
        b.iter(|| {
            let mut mem = PhysicalMemory::new(1024 * page.len() as u64);
            for i in 0..1024 {
                mem.write(PAddr::new(i * page.len() as u64), &page);
            }
            mem
        })
    });
    let mut young = PhysicalMemory::new(BLOCKS * BLOCK_BYTES as u64);
    for i in 0..BLOCKS {
        young.write(sparse_line(i), &line);
    }
    let unwritten = PhysicalMemory::new(young.capacity());
    for (id, mem) in [
        ("unwritten_64B_reads", &unwritten),
        ("young_64B_reads", &young),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| {
                let mut buf = [0u8; 64];
                let mut sum = 0u64;
                for i in 0..(1u64 << 20) {
                    // Every 97th block: a stride that leaves host caches.
                    mem.read(sparse_line(i * 97 % BLOCKS), &mut buf);
                    sum += u64::from(black_box(buf)[i as usize % 64]);
                }
                sum
            })
        });
    }
    let fill = || {
        let mut mem = PhysicalMemory::new(64 * BUFFER as u64);
        for at in (0..64 * BUFFER as u64).step_by(64) {
            mem.write(PAddr::new(at), &line);
        }
        mem
    };
    g.bench_function("line_fill_32KB", |b| b.iter(fill));
    // One filled memory per sample, made before the clock starts.
    let mut filled: Vec<PhysicalMemory> = (0..10).map(|_| fill()).collect();
    g.bench_function("discard_32KB", |b| {
        b.iter(|| {
            let mut mem = filled.pop().expect("one memory per sample");
            for buf in 0..64u64 {
                mem.discard(PAddr::new(buf * BUFFER as u64), BUFFER);
            }
            mem
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_warm,
    bench_llc_stream,
    bench_rack,
    bench_first_touch,
    bench_phys
);
criterion_main!(benches);
