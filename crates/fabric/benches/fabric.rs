//! Fabric hot-path throughput: routing and packet injection across all
//! four topologies.
//!
//! `route/*` measures pure next-hop arithmetic ([`Topology::route_iter`]
//! walked to completion over a pseudorandom (src, dst) stream) and
//! `send/*` the full analytic injection ([`Fabric::send`]: route + dense
//! link lookup + credits + serialization) on the same stream. The four
//! original shapes are at most 64 nodes, so their link state stays in
//! cache; `torus3d-8x8x8` is the 512-node rack of the `scan512` workload
//! (~6 hops a packet over 3,072 links), where the per-hop cost is the
//! cache lines a hop touches. `send_faulty/torus3d-8x8x8` is the same
//! stream through [`Fabric::send_faulty`] under a plan with two degraded
//! links. Runs offline through the in-repo criterion shim:
//!
//! ```text
//! cargo bench -p sonuma-fabric --bench fabric
//! ```
//!
//! Both paths are allocation-free after link warm-up (asserted by the
//! counting-allocator test in `tests/`), so these numbers track pure
//! arithmetic + cache behavior, not allocator health.

use criterion::{criterion_group, criterion_main, Criterion};
use sonuma_fabric::{Fabric, FabricConfig, FaultPlan, LinkFault, Topology};
use sonuma_protocol::NodeId;
use sonuma_sim::SimTime;

/// The benchmarked topology set: one of each routing family at
/// comparable, cache-resident node counts, then the rack-size torus.
fn topologies() -> Vec<(&'static str, Topology, FabricConfig)> {
    vec![
        (
            "crossbar64",
            Topology::crossbar(64),
            FabricConfig::paper_crossbar(64),
        ),
        (
            "torus2d-8x8",
            Topology::torus2d(8, 8),
            FabricConfig::torus2d(8, 8),
        ),
        (
            "torus3d-4x4x4",
            Topology::torus3d(4, 4, 4),
            FabricConfig::torus3d(4, 4, 4),
        ),
        ("mesh2d-8x8", Topology::mesh2d(8, 8), {
            FabricConfig {
                topology: Topology::mesh2d(8, 8),
                ..FabricConfig::torus2d(8, 8)
            }
        }),
        rack_torus(),
    ]
}

/// The 512-node torus of the `scan512` workload.
fn rack_torus() -> (&'static str, Topology, FabricConfig) {
    (
        "torus3d-8x8x8",
        Topology::torus3d(8, 8, 8),
        FabricConfig::torus3d(8, 8, 8),
    )
}

/// Deterministic (src, dst) pair stream (xorshift64), `src != dst`.
fn pair_stream(nodes: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    (0..count)
        .map(|_| {
            let src = (step() % nodes as u64) as u16;
            let mut dst = (step() % nodes as u64) as u16;
            if dst == src {
                dst = (dst + 1) % nodes as u16;
            }
            (NodeId(src), NodeId(dst))
        })
        .collect()
}

const PACKETS: usize = 100_000;

fn bench_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("route");
    g.sample_size(10);
    for (name, topo, _) in topologies() {
        let pairs = pair_stream(topo.nodes(), PACKETS);
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut hops = 0u64;
                for &(src, dst) in &pairs {
                    hops += topo.route_iter(src, dst).count() as u64;
                }
                assert!(hops >= PACKETS as u64);
                hops
            })
        });
    }
    g.finish();
}

/// Injects the whole pair stream into a fresh fabric, one packet per
/// nanosecond, alternating lanes; returns the last arrival.
fn drive(
    config: &FabricConfig,
    pairs: &[(NodeId, NodeId)],
    inject: impl Fn(&mut Fabric, SimTime, NodeId, NodeId, usize, u64) -> SimTime,
) -> SimTime {
    let mut fabric = Fabric::new(config.clone());
    let mut last = SimTime::ZERO;
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let now = SimTime::from_ns(i as u64);
        last = inject(&mut fabric, now, src, dst, i & 1, i as u64);
    }
    assert!(last > SimTime::ZERO);
    last
}

fn bench_send(c: &mut Criterion) {
    let mut g = c.benchmark_group("send");
    g.sample_size(10);
    for (name, topo, config) in topologies() {
        let pairs = pair_stream(topo.nodes(), PACKETS);
        g.bench_function(name, |b| {
            b.iter(|| {
                drive(&config, &pairs, |f, now, src, dst, lane, _| {
                    f.send(now, src, dst, lane, 88).time
                })
            })
        });
    }
    g.finish();
}

fn bench_send_faulty(c: &mut Criterion) {
    let mut g = c.benchmark_group("send_faulty");
    g.sample_size(10);
    let (name, topo, config) = rack_torus();
    let mut plan = FaultPlan::new(7);
    for (src, dst) in [(NodeId(0), NodeId(1)), (NodeId(100), NodeId(108))] {
        let mut fault = LinkFault::on(src, dst);
        fault.derate = 2.0;
        fault.credit_loss = 8;
        fault.drop_prob = 0.01;
        plan.links.push(fault);
    }
    let config = FabricConfig {
        faults: Some(plan),
        ..config
    };
    let pairs = pair_stream(topo.nodes(), PACKETS);
    g.bench_function(name, |b| {
        b.iter(|| {
            drive(&config, &pairs, |f, now, src, dst, lane, salt| {
                f.send_faulty(now, src, dst, lane, 88, salt).0.time
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_route, bench_send, bench_send_faulty);
criterion_main!(benches);
