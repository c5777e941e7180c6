//! The fabric hot path's zero-allocation guarantee, asserted with a
//! counting global allocator.
//!
//! On a torus or mesh `Fabric::new` builds everything a packet will ever
//! touch — one inline header per link slot and the flat arena of credit
//! rings — so `Fabric::send` must not touch the heap at all, not even for
//! the first packet on a link. The crossbar has N² slots of which a run
//! uses few, so it appends a link's header and rings on the pair's first
//! packet; every later packet, on any route whose links are all warm,
//! must allocate nothing. Routes are arithmetic walkers either way.
//!
//! This file contains exactly one `#[test]` so no concurrent test can
//! allocate while the counters are being read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sonuma_fabric::{Fabric, FabricConfig, Topology};
use sonuma_protocol::NodeId;
use sonuma_sim::SimTime;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn send_allocates_nothing_after_link_warmup() {
    let configs = [
        FabricConfig::paper_crossbar(16),
        FabricConfig::torus2d(4, 4),
        FabricConfig::torus3d(4, 4, 4),
        FabricConfig {
            topology: Topology::mesh2d(4, 4),
            ..FabricConfig::torus2d(4, 4)
        },
    ];
    for config in configs {
        let topo = config.topology.clone();
        let nodes = topo.nodes() as u16;
        // The counting allocator sees every thread in the process, and the
        // libtest harness's own threads lazily allocate a handful of times
        // (channel wakers, stdio plumbing) at unpredictable moments, so a
        // single measurement window can flake. A real hot-path allocation
        // reproduces on every fresh fabric; harness noise is once per
        // process. Require one clean window out of three.
        let mut leaked = u64::MAX;
        for _attempt in 0..3 {
            let mut fabric = Fabric::new(config.clone());
            let built = allocs();
            // Warm-up: the first packet on each (src, dst) flow crosses
            // every link of its route for the first time. Only the
            // crossbar may allocate for that.
            for src in 0..nodes {
                for dst in 0..nodes {
                    if src != dst {
                        fabric.send(SimTime::ZERO, NodeId(src), NodeId(dst), 0, 88);
                    }
                }
            }
            let crossbar = matches!(topo, Topology::Crossbar { .. });
            // Steady state: heavy mixed traffic, both lanes, varying sizes
            // and timestamps — zero heap traffic allowed.
            let before = if crossbar { allocs() } else { built };
            let mut t = SimTime::ZERO;
            for round in 0..50u64 {
                for src in 0..nodes {
                    for dst in 0..nodes {
                        if src != dst {
                            let lane = ((src + dst + round as u16) % 2) as usize;
                            let bytes = if (src ^ dst) & 1 == 0 { 88 } else { 24 };
                            fabric.send(t, NodeId(src), NodeId(dst), lane, bytes);
                        }
                    }
                }
                t += SimTime::from_ns(100);
            }
            leaked = allocs() - before;
            // The cold statistics paths may allocate their result vectors,
            // but must still be callable (sanity check, not counted).
            assert!(fabric.credit_stalls() < u64::MAX);
            assert!(!fabric.link_stats().is_empty());
            if leaked == 0 {
                break;
            }
        }
        assert_eq!(
            leaked, 0,
            "{topo:?}: Fabric::send allocated (grids: ever; crossbar: on a warm link)"
        );
    }
}
