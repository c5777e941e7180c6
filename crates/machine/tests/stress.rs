//! Stress tests for resource-exhaustion corners: ITT smaller than the WQ,
//! CQ rings wrapping many times, and RGP fairness across queue pairs.

use std::cell::RefCell;
use std::rc::Rc;

use sonuma_machine::{AppProcess, Cluster, ClusterEngine, MachineConfig, NodeApi, Step, Wake};
use sonuma_memory::VAddr;
use sonuma_protocol::{CtxId, NodeId, QpId};
use sonuma_sim::SimTime;

const CTX: CtxId = CtxId(0);

fn setup(mut config: MachineConfig) -> (Cluster, ClusterEngine) {
    config.nodes = 2;
    let mut cluster = Cluster::new(config);
    cluster.create_context(CTX, 1 << 20).unwrap();
    (cluster, ClusterEngine::new())
}

/// Pipelines `total` reads as hard as the WQ allows, counting completions.
struct Pipeliner {
    qp: QpId,
    total: u32,
    issued: u32,
    completed: Rc<RefCell<u32>>,
    buf: VAddr,
}

impl AppProcess for Pipeliner {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.buf = api
                .heap_alloc(64 * api.qp_capacity(self.qp) as u64)
                .unwrap();
        }
        if let Wake::CqReady(comps) = &why {
            for c in comps {
                assert!(c.status.is_ok());
                *self.completed.borrow_mut() += 1;
            }
        }
        while self.issued < self.total {
            let slot = api.next_wq_index(self.qp) as u64;
            let buf = VAddr::new(self.buf.raw() + slot * 64);
            match api.post_read(self.qp, NodeId(1), CTX, 0, buf, 64) {
                Ok(_) => self.issued += 1,
                Err(_) => return Step::WaitCq(self.qp),
            }
        }
        if *self.completed.borrow() < self.total {
            return Step::WaitCq(self.qp);
        }
        Step::Done
    }
}

/// An ITT far smaller than the WQ ring: the RGP must stall on tid
/// exhaustion and retry, losing nothing.
#[test]
fn itt_exhaustion_stalls_but_loses_nothing() {
    let mut config = MachineConfig::simulated_hardware(2);
    config.itt_entries = 4; // WQ has 64 slots, so the RGP outpaces the ITT
    let (mut cluster, mut engine) = setup(config);
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let completed = Rc::new(RefCell::new(0u32));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(Pipeliner {
            qp,
            total: 300,
            issued: 0,
            completed: completed.clone(),
            buf: VAddr::new(0),
        }),
    );
    engine.run(&mut cluster);
    assert_eq!(*completed.borrow(), 300);
    assert_eq!(cluster.nodes[0].rmc.itt.in_flight(), 0, "no leaked tids");
    assert_eq!(cluster.nodes[0].rmc.itt.completed(), 300);
}

/// Tiny rings wrapping dozens of times: phase-bit bookkeeping on both WQ
/// and CQ must stay coherent across many wraps.
#[test]
fn queue_rings_survive_many_wraps() {
    let mut config = MachineConfig::simulated_hardware(2);
    config.qp_entries = 4; // 300 ops => 75 wraps
    let (mut cluster, mut engine) = setup(config);
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let completed = Rc::new(RefCell::new(0u32));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(Pipeliner {
            qp,
            total: 300,
            issued: 0,
            completed: completed.clone(),
            buf: VAddr::new(0),
        }),
    );
    engine.run(&mut cluster);
    assert_eq!(*completed.borrow(), 300);
    assert_eq!(cluster.nodes[0].rmc.qps[qp.index()].wq_consumed(), 300);
    assert_eq!(cluster.nodes[0].rmc.qps[qp.index()].cq_produced(), 300);
}

/// Two QPs streaming concurrently: RGP round-robin must give both forward
/// progress (neither finishes an order of magnitude after the other).
#[test]
fn rgp_is_fair_across_queue_pairs() {
    struct TimedPipeliner {
        inner: Pipeliner,
        finished_at: Rc<RefCell<f64>>,
    }
    impl AppProcess for TimedPipeliner {
        fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
            let step = self.inner.wake(api, why);
            if matches!(step, Step::Done) {
                *self.finished_at.borrow_mut() = api.now().as_us_f64();
            }
            step
        }
    }

    let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(2));
    // Two cores, two QPs, one node.
    let mut config = MachineConfig::simulated_hardware(2);
    config.cores_per_node = 2;
    let (mut cluster2, mut engine2) = setup(config);
    std::mem::swap(&mut cluster, &mut cluster2);
    std::mem::swap(&mut engine, &mut engine2);

    let mut finishes = Vec::new();
    for core in 0..2 {
        let qp = cluster.create_qp(NodeId(0), CTX, core).unwrap();
        let completed = Rc::new(RefCell::new(0u32));
        let finished_at = Rc::new(RefCell::new(0.0f64));
        finishes.push(finished_at.clone());
        cluster.spawn(
            &mut engine,
            NodeId(0),
            core,
            Box::new(TimedPipeliner {
                inner: Pipeliner {
                    qp,
                    total: 200,
                    issued: 0,
                    completed,
                    buf: VAddr::new(0),
                },
                finished_at,
            }),
        );
    }
    engine.run(&mut cluster);
    let (a, b) = (*finishes[0].borrow(), *finishes[1].borrow());
    assert!(a > 0.0 && b > 0.0, "both streams must finish");
    let ratio = a.max(b) / a.min(b);
    assert!(
        ratio < 1.5,
        "RGP starvation: finish times {a:.1} vs {b:.1} us"
    );
}

/// Streams 8 KB reads through `peer`'s context segment until simulated time
/// `until`, then drains its completions. The segment is four times the
/// LLC, and no line is read twice within the run, so every read misses
/// to the peer's DRAM.
struct Streamer {
    qp: QpId,
    peer: NodeId,
    until: SimTime,
    next_offset: u64,
    outstanding: u32,
    buf: VAddr,
}

const STREAM_CTX_BYTES: u64 = 16 << 20;
const STREAM_BYTES: u64 = 8192;

impl AppProcess for Streamer {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            let slots = api.qp_capacity(self.qp) as u64;
            self.buf = api.heap_alloc(STREAM_BYTES * slots).unwrap();
        }
        if let Wake::CqReady(comps) = &why {
            for c in comps {
                assert!(c.status.is_ok());
                self.outstanding -= 1;
            }
        }
        while api.now() < self.until {
            let slot = api.next_wq_index(self.qp) as u64;
            let buf = VAddr::new(self.buf.raw() + slot * STREAM_BYTES);
            let offset = self.next_offset;
            match api.post_read(self.qp, self.peer, CTX, offset, buf, STREAM_BYTES) {
                Ok(_) => self.outstanding += 1,
                Err(_) => return Step::WaitCq(self.qp),
            }
            self.next_offset = (offset + STREAM_BYTES) % STREAM_CTX_BYTES;
        }
        if self.outstanding > 0 {
            return Step::WaitCq(self.qp);
        }
        Step::Done
    }
}

/// Two nodes read from each other's DRAM at full bandwidth for over a
/// millisecond of simulated time: each node's DRAM ledger holds only the
/// buckets between its event clock and the accesses queued ahead of it,
/// not one per 200 ns of the run.
#[test]
fn dram_ledger_stays_bounded_under_streaming() {
    let until = SimTime::from_us(1_200);
    let mut cluster = Cluster::new(MachineConfig::simulated_hardware(2));
    cluster.create_context(CTX, STREAM_CTX_BYTES).unwrap();
    let mut engine = ClusterEngine::new();
    for (me, peer) in [(0u16, 1u16), (1, 0)] {
        let qp = cluster.create_qp(NodeId(me), CTX, 0).unwrap();
        cluster.spawn(
            &mut engine,
            NodeId(me),
            0,
            Box::new(Streamer {
                qp,
                peer: NodeId(peer),
                until,
                next_offset: 0,
                outstanding: 0,
                buf: VAddr::new(0),
            }),
        );
    }
    let mut widest = [0usize; 2];
    let mut horizon = SimTime::ZERO;
    while engine.pending() > 0 {
        horizon += SimTime::from_us(10);
        engine.run_until(&mut cluster, horizon);
        for (n, w) in widest.iter_mut().enumerate() {
            *w = (*w).max(cluster.nodes[n].hierarchy.dram().buckets());
        }
    }
    assert!(engine.now() >= until, "ran {:?}", engine.now());
    for (n, &w) in widest.iter().enumerate() {
        // 8 MB at ~9.6 GB/s keeps the channel busy for over 0.85 ms.
        let lines = cluster.nodes[n].hierarchy.dram().accesses();
        assert!(lines * 64 > 8 << 20, "node {n}: {lines} DRAM accesses");
        assert!(w <= 32, "node {n}'s ledger reached {w} buckets");
    }
}
