//! Routing equivalence: the allocation-free `RouteIter` and the dense
//! `NextHopTable` must reproduce, hop for hop, the route the original
//! `Vec`-building implementation computed.
//!
//! The reference implementations below are verbatim ports of the
//! pre-refactor `route_torus` / `route_mesh` (per-call `Vec`s and all),
//! kept here as the oracle. Exhaustive all-pairs checks cover the
//! acceptance topologies (crossbar, 4×4 torus, 4×4×4 torus, 8×8 mesh);
//! the property test fuzzes arbitrary torus shapes.
//!
//! The walker also names each hop's output port, and the fabric files the
//! link under `from · 2·ndims + port` without looking at the neighbor's
//! id. `reference_slot` is a port of the division-based slot arithmetic
//! that layout was defined by; `ports_match_reference_slots` holds the two
//! together over every ordered pair, including the shapes where a ring or
//! a mesh dimension has exactly two positions and both directions share a
//! port.

use proptest::prelude::*;
use sonuma_fabric::{Fabric, FabricConfig, Topology};
use sonuma_protocol::NodeId;
use sonuma_sim::SimTime;

/// Pre-refactor dimension-order torus routing (the oracle).
fn reference_route_torus(dims: &[usize], src: usize, dst: usize) -> Vec<NodeId> {
    let coord = |mut id: usize| -> Vec<usize> {
        dims.iter()
            .map(|&d| {
                let c = id % d;
                id /= d;
                c
            })
            .collect()
    };
    let compose = |coords: &[usize]| -> usize {
        let mut id = 0;
        for (i, &c) in coords.iter().enumerate().rev() {
            id = id * dims[i] + c;
        }
        id
    };
    let mut cur = coord(src);
    let goal = coord(dst);
    let mut path = Vec::new();
    for dim in 0..dims.len() {
        let k = dims[dim];
        while cur[dim] != goal[dim] {
            let fwd = (goal[dim] + k - cur[dim]) % k;
            let step = if fwd <= k - fwd { 1 } else { k - 1 };
            cur[dim] = (cur[dim] + step) % k;
            path.push(NodeId(compose(&cur) as u16));
        }
    }
    path
}

/// Pre-refactor XY mesh routing (the oracle).
fn reference_route_mesh(width: usize, src: usize, dst: usize) -> Vec<NodeId> {
    let (mut x, mut y) = (src % width, src / width);
    let (gx, gy) = (dst % width, dst / width);
    let mut path = Vec::new();
    while x != gx {
        x = if gx > x { x + 1 } else { x - 1 };
        path.push(NodeId((y * width + x) as u16));
    }
    while y != gy {
        y = if gy > y { y + 1 } else { y - 1 };
        path.push(NodeId((y * width + x) as u16));
    }
    path
}

/// The oracle route for any topology.
fn reference_route(topo: &Topology, src: usize, dst: usize) -> Vec<NodeId> {
    if src == dst {
        return Vec::new();
    }
    match *topo {
        Topology::Crossbar { .. } => vec![NodeId(dst as u16)],
        Topology::Torus2D { width, height } => reference_route_torus(&[width, height], src, dst),
        Topology::Torus3D { x, y, z } => reference_route_torus(&[x, y, z], src, dst),
        Topology::Mesh2D { width, .. } => reference_route_mesh(width, src, dst),
    }
}

/// All-pairs equivalence of `route_iter`, `route`, the next-hop table,
/// and `distance` against the oracle.
fn assert_equivalent(topo: &Topology) {
    let n = topo.nodes();
    let table = topo.next_hop_table();
    for src in 0..n {
        for dst in 0..n {
            let (s, d) = (NodeId(src as u16), NodeId(dst as u16));
            let oracle = reference_route(topo, src, dst);
            let iter: Vec<NodeId> = topo.route_iter(s, d).collect();
            assert_eq!(iter, oracle, "{topo:?} route_iter {src}->{dst}");
            assert_eq!(topo.route(s, d), oracle, "{topo:?} route {src}->{dst}");
            assert_eq!(table.route(s, d), oracle, "{topo:?} table {src}->{dst}");
            assert_eq!(
                topo.distance(s, d),
                oracle.len() as u32,
                "{topo:?} distance {src}->{dst}"
            );
        }
    }
}

/// The dense link-table slot of directed link `from -> to`, derived from
/// the two node ids alone (the oracle for the walker's port).
fn reference_slot(topo: &Topology, from: usize, to: usize) -> usize {
    let dims = match *topo {
        Topology::Crossbar { nodes } => {
            return from * (nodes - 1) + if to < from { to } else { to - 1 };
        }
        Topology::Torus2D { width, height } | Topology::Mesh2D { width, height } => {
            vec![width, height]
        }
        Topology::Torus3D { x, y, z } => vec![x, y, z],
    };
    let (mut f, mut t) = (from, to);
    for (d, &k) in dims.iter().enumerate() {
        let (fc, tc) = (f % k, t % k);
        if fc != tc {
            // +1 steps take the even port, −1 the odd; with two positions
            // both directions are the one even-port link.
            return from * 2 * dims.len() + 2 * d + usize::from((tc + k - fc) % k != 1);
        }
        f /= k;
        t /= k;
    }
    unreachable!("{from} and {to} are not grid neighbors");
}

/// For every ordered pair, the links one packet touches — as the fabric
/// numbered them from the walker's ports — are the oracle route's links
/// under the oracle's slot arithmetic.
fn assert_ports_match(topo: &Topology) {
    let n = topo.nodes();
    for src in 0..n {
        for dst in (0..n).filter(|&d| d != src) {
            let mut fabric = Fabric::new(FabricConfig {
                topology: topo.clone(),
                ..FabricConfig::torus2d(1, 1)
            });
            fabric.send(SimTime::ZERO, NodeId(src as u16), NodeId(dst as u16), 0, 88);
            let mut got = Vec::new();
            fabric.visit_links(|slot, from, to, _, _, _| got.push((slot, from, to)));
            let mut prev = src;
            let mut expected: Vec<(usize, u16, u16)> = reference_route(topo, src, dst)
                .into_iter()
                .map(|hop| {
                    let link = (reference_slot(topo, prev, hop.index()), prev as u16, hop.0);
                    prev = hop.index();
                    link
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "{topo:?} {src}->{dst}");
        }
    }
}

#[test]
fn ports_match_reference_slots() {
    for topo in [
        Topology::crossbar(16),
        Topology::torus2d(4, 4),
        Topology::torus3d(4, 4, 4),
        Topology::mesh2d(8, 8),
        // A dimension of exactly two positions: −1 and +1 are one link.
        Topology::torus2d(2, 5),
        Topology::torus3d(2, 2, 3),
        Topology::mesh2d(2, 4),
        Topology::mesh2d(4, 2),
        Topology::mesh2d(1, 6),
    ] {
        assert_equivalent(&topo);
        assert_ports_match(&topo);
    }
}

#[test]
fn crossbar_matches_reference() {
    assert_equivalent(&Topology::crossbar(16));
}

#[test]
fn torus2d_4x4_matches_reference() {
    assert_equivalent(&Topology::torus2d(4, 4));
}

#[test]
fn torus3d_4x4x4_matches_reference() {
    assert_equivalent(&Topology::torus3d(4, 4, 4));
}

#[test]
fn mesh2d_8x8_matches_reference() {
    assert_equivalent(&Topology::mesh2d(8, 8));
}

proptest! {
    /// Any torus shape, any pair: `route_iter` reproduces the oracle.
    #[test]
    fn arbitrary_torus_routes_match_reference(
        w in 1usize..7, h in 1usize..7, d in 1usize..5,
        src in 0usize..245, dst in 0usize..245,
    ) {
        let topo = Topology::torus3d(w, h, d);
        let n = topo.nodes();
        let (src, dst) = (src % n, dst % n);
        let oracle = reference_route(&topo, src, dst);
        let got: Vec<NodeId> = topo
            .route_iter(NodeId(src as u16), NodeId(dst as u16))
            .collect();
        prop_assert_eq!(got, oracle);
    }

    /// Any mesh shape, any pair: `route_iter` reproduces the oracle.
    #[test]
    fn arbitrary_mesh_routes_match_reference(
        w in 1usize..12, h in 1usize..12,
        src in 0usize..144, dst in 0usize..144,
    ) {
        let topo = Topology::mesh2d(w, h);
        let n = topo.nodes();
        let (src, dst) = (src % n, dst % n);
        let oracle = reference_route(&topo, src, dst);
        let got: Vec<NodeId> = topo
            .route_iter(NodeId(src as u16), NodeId(dst as u16))
            .collect();
        prop_assert_eq!(got, oracle);
    }
}
