//! Golden digests of the fabric's simulated behaviour.
//!
//! A seeded 20 k-packet stream — both lanes, 24 B and 88 B packets,
//! inject times clustered (and sometimes stepping backwards, as the
//! sharded commit presents them) so credits stall, a quarter of the
//! traffic on one hot pair — runs over one topology of each routing
//! family, once through [`Fabric::send`] and once through
//! [`Fabric::send_faulty`] under a plan with a derated, credit-starved
//! link, a lossy link and a kill/revive window. Everything observable is
//! folded into one FNV-1a digest per run: every `(arrival, hops, fate)`,
//! `link_stats()`, `credit_stalls()`, `fault_stats()` and the
//! `visit_links` slot sequence (early, while most links are still unused,
//! and at the end).
//!
//! The digests were captured from a build of commit `4741cf0` (boxed link
//! state, `VecDeque` credits, `AdjIndex::index` on every hop), so this
//! file pins any later link-storage, routing or credit layout to that
//! behaviour bit for bit — slot numbers included.

use sonuma_fabric::{Fabric, FabricConfig, FaultPlan, LinkFault, PacketFate, Topology};
use sonuma_protocol::NodeId;
use sonuma_sim::SimTime;

const PACKETS: u64 = 20_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn configs() -> Vec<(&'static str, FabricConfig)> {
    vec![
        ("crossbar16", FabricConfig::paper_crossbar(16)),
        ("torus2d-4x4", FabricConfig::torus2d(4, 4)),
        ("torus3d-4x4x4", FabricConfig::torus3d(4, 4, 4)),
        (
            "mesh2d-4x4",
            FabricConfig {
                topology: Topology::mesh2d(4, 4),
                ..FabricConfig::torus2d(4, 4)
            },
        ),
    ]
}

/// Derate + credit loss on the hot pair's first link, drop + corruption
/// on a second link, one kill/revive window on a third.
fn plan(topo: &Topology) -> FaultPlan {
    let first = |v: u16| (NodeId(v), topo.neighbors(NodeId(v))[0]);
    let last = |v: u16| (NodeId(v), *topo.neighbors(NodeId(v)).last().unwrap());
    let mut plan = FaultPlan::new(0x5eed);
    let (s, d) = first(0);
    let mut slow = LinkFault::on(s, d);
    slow.derate = 2.5;
    slow.credit_loss = 13;
    let (s, d) = last(5);
    let mut lossy = LinkFault::on(s, d);
    lossy.drop_prob = 0.05;
    lossy.corrupt_prob = 0.1;
    let (s, d) = first(2);
    let mut flap = LinkFault::on(s, d);
    flap.kill_at = Some(SimTime::from_ns(4_000));
    flap.revive_at = Some(SimTime::from_ns(9_000));
    plan.links = vec![slow, lossy, flap];
    plan
}

fn fold_links(fabric: &Fabric, h: &mut Fnv) {
    fabric.visit_links(|slot, src, dst, bytes, packets, stalls| {
        for v in [
            slot as u64,
            u64::from(src),
            u64::from(dst),
            bytes,
            packets,
            stalls,
        ] {
            h.word(v);
        }
    });
}

fn digest(config: FabricConfig, faulty: bool) -> u64 {
    let nodes = config.topology.nodes() as u64;
    let mut fabric = Fabric::new(config);
    let mut h = Fnv::new();
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for i in 0..PACKETS {
        let r = step();
        let (src, dst) = if r & 3 == 0 {
            (0, nodes - 1) // the hot pair: corner to corner on the grids
        } else {
            let src = (r >> 8) % nodes;
            let dst = (r >> 24) % nodes;
            (src, if dst == src { (dst + 1) % nodes } else { dst })
        };
        // Clusters of 256 packets 600 ns apart with up to 63 ns of
        // jitter, so one packet in a few is injected before its
        // predecessor.
        let now = SimTime::from_ns((i / 256) * 600 + ((r >> 40) & 63));
        let lane = ((r >> 46) & 1) as usize;
        let bytes = if (r >> 47) & 1 == 0 { 88 } else { 24 };
        let (src, dst) = (NodeId(src as u16), NodeId(dst as u16));
        let (arrival, fate) = if faulty {
            fabric.send_faulty(now, src, dst, lane, bytes, r)
        } else {
            (
                fabric.send(now, src, dst, lane, bytes),
                PacketFate::Delivered,
            )
        };
        h.word(arrival.time.as_ps());
        h.word(u64::from(arrival.hops));
        h.word(match fate {
            PacketFate::Delivered => 0,
            PacketFate::Dropped => 1,
            PacketFate::Corrupted => 2,
        });
        if i == 40 {
            fold_links(&fabric, &mut h);
        }
    }
    for l in fabric.link_stats() {
        for v in [
            u64::from(l.src.0),
            u64::from(l.dst.0),
            l.bytes,
            l.packets,
            l.credit_stalls,
        ] {
            h.word(v);
        }
    }
    assert!(fabric.credit_stalls() > 0, "the stream must stall credits");
    h.word(fabric.credit_stalls());
    let f = fabric.fault_stats();
    if faulty {
        assert!(
            f.dropped > 0 && f.corrupted > 0 && f.rerouted > 0,
            "the plan must bite: {f:?}"
        );
    }
    for v in [f.dropped, f.corrupted, f.rerouted, f.unreachable] {
        h.word(v);
    }
    fold_links(&fabric, &mut h);
    h.0
}

#[test]
fn digests_match_the_boxed_deque_fabric() {
    // (topology, `send` digest, `send_faulty` digest under `plan`).
    let golden: [(&str, u64, u64); 4] = [
        ("crossbar16", 0xcc15_d734_b18d_4240, 0xe042_756e_831e_2b29),
        ("torus2d-4x4", 0x541b_502b_a46d_b87b, 0x9a75_1a55_1fa0_b27d),
        (
            "torus3d-4x4x4",
            0x367d_a5c9_7e91_03f4,
            0x475b_bfc3_a82f_5c89,
        ),
        ("mesh2d-4x4", 0x2313_b60f_4053_eaea, 0x098e_46ba_dc26_e1f7),
    ];
    let got: Vec<(&str, u64, u64)> = configs()
        .into_iter()
        .map(|(name, config)| {
            let with_plan = FabricConfig {
                faults: Some(plan(&config.topology)),
                ..config.clone()
            };
            (name, digest(config, false), digest(with_plan, true))
        })
        .collect();
    assert_eq!(got, golden, "got {got:#018x?}");
}
