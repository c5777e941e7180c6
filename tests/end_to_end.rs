//! Cross-crate integration tests: the full system exercised through the
//! facade crate's public API, on configurations the per-crate tests don't
//! cover (torus fabrics, many nodes, mixed op streams).

use std::cell::RefCell;
use std::rc::Rc;

use sonuma::core::{
    AppProcess, NodeApi, NodeId, Status, Step, SystemBuilder, VAddr, Wake, DEFAULT_CTX,
};
use sonuma::fabric::FabricConfig;

type Shared<T> = Rc<RefCell<T>>;

/// Reads a pattern from every peer in turn and checks the payloads.
struct RingReader {
    qp: sonuma::core::QpId,
    nodes: usize,
    next_peer: usize,
    buf: VAddr,
    verified: Shared<u32>,
}

impl AppProcess for RingReader {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.buf = api.heap_alloc(64).unwrap();
        }
        if let Wake::CqReady(comps) = &why {
            assert_eq!(comps.len(), 1);
            assert_eq!(comps[0].status, Status::Ok);
            let got = api.local_load_u64(self.buf).unwrap();
            assert_eq!(
                got,
                0xBEEF_0000 + self.next_peer as u64,
                "payload from peer"
            );
            *self.verified.borrow_mut() += 1;
            self.next_peer += 1;
        }
        let me = api.node_id().index();
        while self.next_peer < self.nodes {
            if self.next_peer == me {
                self.next_peer += 1;
                continue;
            }
            api.post_read(
                self.qp,
                NodeId(self.next_peer as u16),
                DEFAULT_CTX,
                0,
                self.buf,
                64,
            )
            .unwrap();
            return Step::WaitCq(self.qp);
        }
        Step::Done
    }
}

/// Every node reads every other node's segment over a 4x4 torus.
#[test]
fn all_to_all_reads_over_a_torus() {
    let nodes = 16usize;
    let mut system = SystemBuilder::simulated_hardware(nodes)
        .tune(|config| config.fabric = FabricConfig::torus2d(4, 4))
        .segment_len(1 << 20)
        .build();

    for n in 0..nodes {
        system.write_ctx(
            NodeId(n as u16),
            0,
            &(0xBEEF_0000u64 + n as u64).to_le_bytes(),
        );
    }
    let verified: Shared<u32> = Rc::new(RefCell::new(0));
    for n in 0..nodes {
        let qp = system.create_qp(NodeId(n as u16), 0);
        system.spawn(
            NodeId(n as u16),
            0,
            Box::new(RingReader {
                qp,
                nodes,
                next_peer: 0,
                buf: VAddr::new(0),
                verified: verified.clone(),
            }),
        );
    }
    system.run();
    assert_eq!(*verified.borrow(), (nodes * (nodes - 1)) as u32);
    assert!(system.cluster.fabric().packets_sent() > 0);
}

/// Concurrent remote fetch-and-adds from every node against one counter
/// must lose no increments (global atomicity within the destination's
/// coherence, §7.4).
struct Incrementer {
    qp: sonuma::core::QpId,
    target: NodeId,
    remaining: u32,
    buf: VAddr,
}

impl AppProcess for Incrementer {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.buf = api.heap_alloc(64).unwrap();
        }
        if let Wake::CqReady(c) = &why {
            assert!(c.iter().all(|c| c.status.is_ok()));
            self.remaining -= c.len() as u32;
        }
        if self.remaining == 0 {
            return Step::Done;
        }
        // Keep a few in flight to interleave across nodes.
        while api.outstanding(self.qp) < 4 {
            if api
                .post_fetch_add(self.qp, self.target, DEFAULT_CTX, 128, self.buf, 1)
                .is_err()
            {
                break;
            }
        }
        Step::WaitCq(self.qp)
    }
}

#[test]
fn concurrent_atomics_lose_no_updates() {
    let nodes = 5usize;
    let per_node = 40u32;
    let mut system = SystemBuilder::simulated_hardware(nodes)
        .segment_len(1 << 20)
        .build();
    system.write_ctx(NodeId(0), 128, &0u64.to_le_bytes());
    for n in 1..nodes {
        let qp = system.create_qp(NodeId(n as u16), 0);
        system.spawn(
            NodeId(n as u16),
            0,
            Box::new(Incrementer {
                qp,
                target: NodeId(0),
                remaining: per_node,
                buf: VAddr::new(0),
            }),
        );
    }
    system.run();
    let mut ctr = [0u8; 8];
    system.read_ctx(NodeId(0), 128, &mut ctr);
    assert_eq!(
        u64::from_le_bytes(ctr),
        (nodes as u64 - 1) * per_node as u64,
        "every fetch-and-add must be applied exactly once"
    );
}

/// Every class of protocol error surfaces as a CQ status, not a crash.
struct ErrorProber {
    qp: sonuma::core::QpId,
    buf: VAddr,
    statuses: Shared<Vec<Status>>,
    posted: bool,
}

impl AppProcess for ErrorProber {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.buf = api.heap_alloc(4096).unwrap();
        }
        if let Wake::CqReady(comps) = &why {
            for c in comps {
                self.statuses.borrow_mut().push(c.status);
            }
        }
        if !self.posted {
            // Out of segment bounds: offset beyond the 1 MiB segment.
            api.post_read(self.qp, NodeId(1), DEFAULT_CTX, 1 << 21, self.buf, 64)
                .unwrap();
            // Straddling the end of the segment.
            api.post_read(
                self.qp,
                NodeId(1),
                DEFAULT_CTX,
                (1 << 20) - 64,
                self.buf,
                128,
            )
            .unwrap();
            // A valid one for contrast.
            api.post_read(self.qp, NodeId(1), DEFAULT_CTX, 0, self.buf, 64)
                .unwrap();
            self.posted = true;
        }
        if self.statuses.borrow().len() == 3 {
            return Step::Done;
        }
        Step::WaitCq(self.qp)
    }
}

#[test]
fn protocol_errors_surface_in_the_cq() {
    let mut system = SystemBuilder::simulated_hardware(2)
        .segment_len(1 << 20)
        .build();
    let qp = system.create_qp(NodeId(0), 0);
    let statuses: Shared<Vec<Status>> = Rc::new(RefCell::new(Vec::new()));
    system.spawn(
        NodeId(0),
        0,
        Box::new(ErrorProber {
            qp,
            buf: VAddr::new(0),
            statuses: statuses.clone(),
            posted: false,
        }),
    );
    system.run();
    let got = statuses.borrow();
    assert_eq!(got.len(), 3);
    assert_eq!(
        got.iter().filter(|s| **s == Status::OutOfBounds).count(),
        2,
        "both out-of-bounds probes must error: {got:?}"
    );
    assert_eq!(got.iter().filter(|s| s.is_ok()).count(), 1);
}

/// The whole stack is deterministic: two identical multi-node runs produce
/// identical event counts, times, and fabric traffic.
#[test]
fn full_system_determinism() {
    let run = || {
        let nodes = 4usize;
        let mut system = SystemBuilder::simulated_hardware(nodes)
            .segment_len(1 << 20)
            .build();
        for n in 0..nodes {
            system.write_ctx(
                NodeId(n as u16),
                0,
                &(0xBEEF_0000u64 + n as u64).to_le_bytes(),
            );
        }
        let verified: Shared<u32> = Rc::new(RefCell::new(0));
        for n in 0..nodes {
            let qp = system.create_qp(NodeId(n as u16), 0);
            system.spawn(
                NodeId(n as u16),
                0,
                Box::new(RingReader {
                    qp,
                    nodes,
                    next_peer: 0,
                    buf: VAddr::new(0),
                    verified: verified.clone(),
                }),
            );
        }
        system.run();
        let ok = *verified.borrow();
        (
            system.now(),
            system.engine.events_executed(),
            system.cluster.fabric().packets_sent(),
            system.cluster.fabric().bytes_sent(),
            ok,
        )
    };
    assert_eq!(run(), run());
}

/// The dev-platform preset runs the same binary protocol, only slower —
/// both platforms move identical bytes.
#[test]
fn platforms_agree_functionally() {
    let run = |dev: bool| {
        let mut system = if dev {
            SystemBuilder::dev_platform(2)
        } else {
            SystemBuilder::simulated_hardware(2)
        }
        .segment_len(1 << 20)
        .build();
        system.write_ctx(NodeId(1), 0, &(0xBEEF_0001u64).to_le_bytes());
        let verified: Shared<u32> = Rc::new(RefCell::new(0));
        let qp = system.create_qp(NodeId(0), 0);
        system.spawn(
            NodeId(0),
            0,
            Box::new(RingReader {
                qp,
                nodes: 2,
                next_peer: 0,
                buf: VAddr::new(0),
                verified: verified.clone(),
            }),
        );
        system.run();
        let ok = *verified.borrow();
        (ok, system.now())
    };
    let (hw_ok, hw_time) = run(false);
    let (dev_ok, dev_time) = run(true);
    assert_eq!(hw_ok, 1);
    assert_eq!(dev_ok, 1);
    // A single cold operation blunts the steady-state 5x gap; even so the
    // emulated platform must be clearly slower.
    assert!(
        dev_time > hw_time * 2,
        "dev platform must be several times slower: {dev_time} vs {hw_time}"
    );
}
