//! End-to-end tests of the software messaging and barrier libraries over
//! the full machine model.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sonuma_core::{
    ApiError, AppProcess, Barrier, Messenger, MsgConfig, MsgError, NodeApi, NodeId, RecvPoll,
    SimTime, Step, SystemBuilder, VAddr, Wake, DEFAULT_CTX,
};

type Shared<T> = Rc<RefCell<T>>;

fn message_pattern(k: u32, size: usize) -> Vec<u8> {
    (0..size).map(|i| (k as usize * 31 + i * 7) as u8).collect()
}

/// Streams `count` messages of `size` bytes to a peer.
struct Sender {
    m: Messenger,
    to: NodeId,
    count: u32,
    size: usize,
    sent: u32,
    finished_at: Shared<SimTime>,
}

impl Sender {
    fn step(&mut self, api: &mut NodeApi<'_>) -> Step {
        loop {
            if self.sent == self.count {
                if !self.m.all_sent() {
                    let (addr, len) = self.m.credit_watch(self.to);
                    return Step::WaitCqOrMemory {
                        qp: self.m.qp(),
                        addr,
                        len,
                    };
                }
                *self.finished_at.borrow_mut() = api.now();
                return Step::Done;
            }
            let data = message_pattern(self.sent, self.size);
            match self.m.try_send(api, self.to, &data) {
                Ok(()) => self.sent += 1,
                Err(MsgError::NoCredit) => {
                    let (addr, len) = self.m.credit_watch(self.to);
                    return Step::WaitCqOrMemory {
                        qp: self.m.qp(),
                        addr,
                        len,
                    };
                }
                Err(MsgError::Backpressure) => return Step::WaitCq(self.m.qp()),
                Err(e) => panic!("send failed: {e}"),
            }
        }
    }
}

impl AppProcess for Sender {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.m.init(api).unwrap();
        }
        let comps = sonuma_core::drain_completions(api, &why, self.m.qp());
        self.m.on_completions(api, &comps);
        self.step(api)
    }
}

/// Receives `count` messages and records them.
struct Receiver {
    m: Messenger,
    from: NodeId,
    count: u32,
    got: Shared<Vec<Vec<u8>>>,
    finished_at: Shared<SimTime>,
}

impl Receiver {
    fn step(&mut self, api: &mut NodeApi<'_>) -> Step {
        loop {
            if self.got.borrow().len() as u32 == self.count {
                self.m.flush_credits(api, self.from);
                *self.finished_at.borrow_mut() = api.now();
                return Step::Done;
            }
            match self.m.try_recv(api, self.from) {
                Ok(RecvPoll::Message(v)) => self.got.borrow_mut().push(v),
                Ok(RecvPoll::Pending) => return Step::WaitCq(self.m.qp()),
                Ok(RecvPoll::Empty) => {
                    self.m.flush_credits(api, self.from);
                    let (addr, len) = self.m.recv_watch(self.from);
                    return Step::WaitCqOrMemory {
                        qp: self.m.qp(),
                        addr,
                        len,
                    };
                }
                Err(MsgError::Backpressure) => return Step::WaitCq(self.m.qp()),
                Err(e) => panic!("recv failed: {e}"),
            }
        }
    }
}

impl AppProcess for Receiver {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.m.init(api).unwrap();
        }
        let comps = sonuma_core::drain_completions(api, &why, self.m.qp());
        self.m.on_completions(api, &comps);
        self.step(api)
    }
}

/// Runs a unidirectional stream and returns (messages, elapsed).
fn run_stream(cfg: MsgConfig, count: u32, size: usize) -> (Vec<Vec<u8>>, SimTime) {
    let mut system = SystemBuilder::simulated_hardware(2).build();
    let qp0 = system.create_qp(NodeId(0), 0);
    let qp1 = system.create_qp(NodeId(1), 0);
    let got: Shared<Vec<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let send_done: Shared<SimTime> = Rc::new(RefCell::new(SimTime::ZERO));
    let recv_done: Shared<SimTime> = Rc::new(RefCell::new(SimTime::ZERO));
    system.spawn(
        NodeId(0),
        0,
        Box::new(Sender {
            m: Messenger::new(cfg, qp0, NodeId(0), 2, 0),
            to: NodeId(1),
            count,
            size,
            sent: 0,
            finished_at: send_done.clone(),
        }),
    );
    system.spawn(
        NodeId(1),
        0,
        Box::new(Receiver {
            m: Messenger::new(cfg, qp1, NodeId(1), 2, 0),
            from: NodeId(0),
            count,
            got: got.clone(),
            finished_at: recv_done.clone(),
        }),
    );
    system.run();
    let elapsed = *recv_done.borrow();
    let msgs = Rc::try_unwrap(got).unwrap().into_inner();
    (msgs, elapsed)
}

#[test]
fn push_stream_delivers_in_order() {
    let cfg = MsgConfig::hardware().with_threshold(u64::MAX);
    let (msgs, _) = run_stream(cfg, 20, 100);
    assert_eq!(msgs.len(), 20);
    for (k, m) in msgs.iter().enumerate() {
        assert_eq!(m, &message_pattern(k as u32, 100), "message {k} corrupted");
    }
}

#[test]
fn pull_stream_delivers_in_order() {
    let cfg = MsgConfig::hardware().with_threshold(0);
    let (msgs, _) = run_stream(cfg, 10, 4096);
    assert_eq!(msgs.len(), 10);
    for (k, m) in msgs.iter().enumerate() {
        assert_eq!(m, &message_pattern(k as u32, 4096), "message {k} corrupted");
    }
}

#[test]
fn large_push_exceeding_window_still_delivers() {
    // 8 KB push = 171 packets through a 16-slot window: forces credit
    // recycling mid-message.
    let cfg = MsgConfig::hardware().with_threshold(u64::MAX);
    let (msgs, _) = run_stream(cfg, 3, 8192);
    assert_eq!(msgs.len(), 3);
    for (k, m) in msgs.iter().enumerate() {
        assert_eq!(m, &message_pattern(k as u32, 8192));
    }
}

#[test]
fn zero_length_messages_work_in_both_modes() {
    for threshold in [0, u64::MAX] {
        let cfg = MsgConfig::hardware().with_threshold(threshold);
        let (msgs, _) = run_stream(cfg, 5, 0);
        assert_eq!(msgs.len(), 5);
        assert!(msgs.iter().all(|m| m.is_empty()));
    }
}

#[test]
fn mixed_sizes_cross_the_threshold() {
    // Default threshold 256: sizes straddle push and pull per message.
    let mut system = SystemBuilder::simulated_hardware(2).build();
    let qp0 = system.create_qp(NodeId(0), 0);
    let qp1 = system.create_qp(NodeId(1), 0);
    let cfg = MsgConfig::hardware();
    let got: Shared<Vec<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let t: Shared<SimTime> = Rc::new(RefCell::new(SimTime::ZERO));

    /// Sends alternating small/large messages.
    struct MixedSender {
        m: Messenger,
        sent: u32,
        done: Shared<SimTime>,
    }
    impl AppProcess for MixedSender {
        fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
            if matches!(why, Wake::Start) {
                self.m.init(api).unwrap();
            }
            let comps = sonuma_core::drain_completions(api, &why, self.m.qp());
            self.m.on_completions(api, &comps);
            loop {
                if self.sent == 8 {
                    if !self.m.all_sent() {
                        return Step::WaitCq(self.m.qp());
                    }
                    *self.done.borrow_mut() = api.now();
                    return Step::Done;
                }
                let size = if self.sent.is_multiple_of(2) {
                    64
                } else {
                    2048
                };
                let data = message_pattern(self.sent, size);
                match self.m.try_send(api, NodeId(1), &data) {
                    Ok(()) => self.sent += 1,
                    Err(MsgError::NoCredit) => {
                        let (addr, len) = self.m.credit_watch(NodeId(1));
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

    system.spawn(
        NodeId(0),
        0,
        Box::new(MixedSender {
            m: Messenger::new(cfg, qp0, NodeId(0), 2, 0),
            sent: 0,
            done: t.clone(),
        }),
    );
    system.spawn(
        NodeId(1),
        0,
        Box::new(Receiver {
            m: Messenger::new(cfg, qp1, NodeId(1), 2, 0),
            from: NodeId(0),
            count: 8,
            got: got.clone(),
            finished_at: t.clone(),
        }),
    );
    system.run();
    let msgs = Rc::try_unwrap(got).unwrap().into_inner();
    assert_eq!(msgs.len(), 8);
    for (k, m) in msgs.iter().enumerate() {
        let size = if k % 2 == 0 { 64 } else { 2048 };
        assert_eq!(m, &message_pattern(k as u32, size), "message {k}");
    }
}

/// Segment offset of the read area on the home node, past the messaging
/// region.
const READ_BASE: u64 = 1 << 20;

/// The 64 bytes at line `id` of the read area: distinct for every `id`
/// below 256 (the first byte differs), so a read that lands another
/// read's line, or a stale one, fails the comparison.
fn read_pattern(id: u32) -> [u8; 64] {
    std::array::from_fn(|i| (id as usize * 131 + i * 17 + 5) as u8)
}

/// Streams messages through a `Messenger` while posting its own one-sided
/// reads on the messenger's QP, one in flight per landing slot. A
/// completion whose `wq_index` names one of its reads is a read; every
/// other completion goes to the messenger.
struct ReadingSender {
    m: Messenger,
    to: NodeId,
    messages: u32,
    sent: u32,
    reads: u32,
    posted: u32,
    /// Landing lines, one per slot; a slot is reused once its read is
    /// checked, so a stale landing shows the previous read's bytes.
    landing: VAddr,
    free_slots: Vec<u64>,
    in_flight: HashMap<u16, (u32, u64)>,
    verified: Shared<u32>,
}

fn reading_sender_size(k: u32) -> usize {
    if k.is_multiple_of(2) {
        100
    } else {
        1000
    }
}

impl AppProcess for ReadingSender {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.m.init(api).unwrap();
            self.landing = api.heap_alloc(64 * self.free_slots.len() as u64).unwrap();
        }
        let comps = sonuma_core::drain_completions(api, &why, self.m.qp());
        for c in &comps {
            let Some((id, slot)) = self.in_flight.remove(&c.wq_index) else {
                continue;
            };
            assert!(c.status.is_ok(), "read {id} failed: {:?}", c.status);
            let mut line = [0u8; 64];
            api.local_read(VAddr::new(self.landing.raw() + slot * 64), &mut line)
                .unwrap();
            assert_eq!(line, read_pattern(id), "read {id} returned other bytes");
            *self.verified.borrow_mut() += 1;
            self.free_slots.push(slot);
        }
        self.m.on_completions(api, &comps);
        loop {
            let mut progressed = false;
            while self.posted < self.reads {
                let Some(slot) = self.free_slots.pop() else {
                    break;
                };
                let landing = VAddr::new(self.landing.raw() + slot * 64);
                let offset = READ_BASE + self.posted as u64 * 64;
                match api.post_read(self.m.qp(), self.to, DEFAULT_CTX, offset, landing, 64) {
                    Ok(wq) => {
                        self.in_flight.insert(wq, (self.posted, slot));
                        self.posted += 1;
                        progressed = true;
                    }
                    Err(ApiError::WqFull) => {
                        self.free_slots.push(slot);
                        break;
                    }
                    Err(e) => panic!("read post failed: {e:?}"),
                }
            }
            if self.sent < self.messages {
                let data = message_pattern(self.sent, reading_sender_size(self.sent));
                match self.m.try_send(api, self.to, &data) {
                    Ok(()) => {
                        self.sent += 1;
                        progressed = true;
                    }
                    Err(MsgError::NoCredit | MsgError::Backpressure) => {}
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            let reads_done = self.posted == self.reads && self.in_flight.is_empty();
            if reads_done && self.sent == self.messages && self.m.all_sent() {
                return Step::Done;
            }
            if !progressed {
                let (addr, len) = self.m.credit_watch(self.to);
                return Step::WaitCqOrMemory {
                    qp: self.m.qp(),
                    addr,
                    len,
                };
            }
        }
    }
}

#[test]
fn messages_and_own_reads_share_one_qp() {
    let (messages, reads) = (24u32, 64u32);
    let mut system = SystemBuilder::simulated_hardware(2).build();
    let cfg = MsgConfig::hardware();
    assert!(
        cfg.region_bytes(2) <= READ_BASE,
        "read area overlaps messaging"
    );
    for id in 0..reads {
        system.write_ctx(NodeId(0), READ_BASE + id as u64 * 64, &read_pattern(id));
    }
    let qp0 = system.create_qp(NodeId(0), 0);
    let qp1 = system.create_qp(NodeId(1), 0);
    let got: Shared<Vec<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let verified: Shared<u32> = Rc::new(RefCell::new(0));
    system.spawn(
        NodeId(0),
        0,
        Box::new(Receiver {
            m: Messenger::new(cfg, qp0, NodeId(0), 2, 0),
            from: NodeId(1),
            count: messages,
            got: got.clone(),
            finished_at: Rc::new(RefCell::new(SimTime::ZERO)),
        }),
    );
    system.spawn(
        NodeId(1),
        0,
        Box::new(ReadingSender {
            m: Messenger::new(cfg, qp1, NodeId(1), 2, 0),
            to: NodeId(0),
            messages,
            sent: 0,
            reads,
            posted: 0,
            landing: VAddr::new(0),
            free_slots: (0..4).collect(),
            in_flight: HashMap::new(),
            verified: verified.clone(),
        }),
    );
    system.run();
    assert_eq!(*verified.borrow(), reads, "every read completes once");
    let msgs = Rc::try_unwrap(got).unwrap().into_inner();
    assert_eq!(msgs.len(), messages as usize);
    for (k, m) in msgs.iter().enumerate() {
        let size = reading_sender_size(k as u32);
        assert_eq!(m, &message_pattern(k as u32, size), "message {k}");
    }
}

/// Ping-pong endpoint: sends, waits for the echo, repeats.
struct Pinger {
    m: Messenger,
    peer: NodeId,
    rounds: u32,
    size: usize,
    current: u32,
    sent_current: bool,
    rtts: Shared<Vec<SimTime>>,
    t_send: SimTime,
}

impl AppProcess for Pinger {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.m.init(api).unwrap();
        }
        let comps = sonuma_core::drain_completions(api, &why, self.m.qp());
        self.m.on_completions(api, &comps);
        loop {
            if self.current == self.rounds {
                return Step::Done;
            }
            if !self.sent_current {
                let data = message_pattern(self.current, self.size);
                self.t_send = api.now();
                match self.m.try_send(api, self.peer, &data) {
                    Ok(()) => self.sent_current = true,
                    Err(_) => return Step::WaitCq(self.m.qp()),
                }
            }
            match self.m.try_recv(api, self.peer).unwrap() {
                RecvPoll::Message(v) => {
                    assert_eq!(v, message_pattern(self.current, self.size));
                    self.rtts.borrow_mut().push(api.now() - self.t_send);
                    self.current += 1;
                    self.sent_current = false;
                }
                RecvPoll::Pending => return Step::WaitCq(self.m.qp()),
                RecvPoll::Empty => {
                    self.m.flush_credits(api, self.peer);
                    let (addr, len) = if self.m.all_sent() {
                        self.m.recv_watch(self.peer)
                    } else {
                        self.m.credit_watch(self.peer)
                    };
                    return Step::WaitCqOrMemory {
                        qp: self.m.qp(),
                        addr,
                        len,
                    };
                }
            }
        }
    }
}

/// Echo endpoint: receives and sends back.
struct Echoer {
    m: Messenger,
    peer: NodeId,
    rounds: u32,
    echoed: u32,
    held: Option<Vec<u8>>,
}

impl AppProcess for Echoer {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.m.init(api).unwrap();
        }
        let comps = sonuma_core::drain_completions(api, &why, self.m.qp());
        self.m.on_completions(api, &comps);
        loop {
            if self.echoed == self.rounds && self.held.is_none() {
                if !self.m.all_sent() {
                    return Step::WaitCq(self.m.qp());
                }
                return Step::Done;
            }
            if let Some(data) = self.held.take() {
                match self.m.try_send(api, self.peer, &data) {
                    Ok(()) => {
                        self.echoed += 1;
                        continue;
                    }
                    Err(_) => {
                        self.held = Some(data);
                        return Step::WaitCq(self.m.qp());
                    }
                }
            }
            match self.m.try_recv(api, self.peer).unwrap() {
                RecvPoll::Message(v) => self.held = Some(v),
                RecvPoll::Pending => return Step::WaitCq(self.m.qp()),
                RecvPoll::Empty => {
                    self.m.flush_credits(api, self.peer);
                    let (addr, len) = if self.m.all_sent() {
                        self.m.recv_watch(self.peer)
                    } else {
                        self.m.credit_watch(self.peer)
                    };
                    return Step::WaitCqOrMemory {
                        qp: self.m.qp(),
                        addr,
                        len,
                    };
                }
            }
        }
    }
}

fn run_pingpong(cfg: MsgConfig, rounds: u32, size: usize) -> Vec<SimTime> {
    let mut system = SystemBuilder::simulated_hardware(2).build();
    let qp0 = system.create_qp(NodeId(0), 0);
    let qp1 = system.create_qp(NodeId(1), 0);
    let rtts: Shared<Vec<SimTime>> = Rc::new(RefCell::new(Vec::new()));
    system.spawn(
        NodeId(0),
        0,
        Box::new(Pinger {
            m: Messenger::new(cfg, qp0, NodeId(0), 2, 0),
            peer: NodeId(1),
            rounds,
            size,
            current: 0,
            sent_current: false,
            rtts: rtts.clone(),
            t_send: SimTime::ZERO,
        }),
    );
    system.spawn(
        NodeId(1),
        0,
        Box::new(Echoer {
            m: Messenger::new(cfg, qp1, NodeId(1), 2, 0),
            peer: NodeId(0),
            rounds,
            echoed: 0,
            held: None,
        }),
    );
    system.run();
    Rc::try_unwrap(rtts).unwrap().into_inner()
}

#[test]
fn pingpong_roundtrips_complete() {
    let rtts = run_pingpong(MsgConfig::hardware(), 10, 32);
    assert_eq!(rtts.len(), 10);
    // Steady-state half-duplex latency = RTT/2; the paper reports ~340 ns
    // minimum on the simulated hardware.
    let last_half = *rtts.last().unwrap() / 2;
    let ns = last_half.as_ns_f64();
    assert!(
        (250.0..600.0).contains(&ns),
        "half-duplex latency {ns:.0} ns; paper reports ~340 ns"
    );
}

#[test]
fn pingpong_pull_mode_works_for_large_messages() {
    let rtts = run_pingpong(MsgConfig::hardware(), 5, 4096);
    assert_eq!(rtts.len(), 5);
}

/// Barrier participant: loops `rounds` barriers, recording arrive/exit.
struct BarrierProc {
    b: Barrier,
    rounds: u32,
    log: Shared<Vec<(usize, u64, SimTime, SimTime)>>, // (node, round, arrive, exit)
    arrived_at: SimTime,
    in_round: bool,
}

impl AppProcess for BarrierProc {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.b.init(api).unwrap();
        }
        let _ = api.poll_cq(self.b.qp());
        if !self.in_round {
            if self.b.round() == self.rounds as u64 {
                return Step::Done;
            }
            self.arrived_at = api.now();
            self.b.arrive(api).unwrap();
            self.in_round = true;
        }
        if self.b.ready(api).unwrap() {
            let node = api.node_id().index();
            self.log
                .borrow_mut()
                .push((node, self.b.round(), self.arrived_at, api.now()));
            self.in_round = false;
            // Desynchronize entries to stress the barrier.
            let jitter = SimTime::from_ns(((node as u64 + 1) * 137) % 500);
            return Step::Sleep(jitter);
        }
        let (addr, len) = self.b.watch();
        Step::WaitCqOrMemory {
            qp: self.b.qp(),
            addr,
            len,
        }
    }
}

#[test]
fn barrier_synchronizes_all_nodes() {
    let nodes = 4usize;
    let rounds = 5u32;
    let mut system = SystemBuilder::simulated_hardware(nodes).build();
    let log: Shared<Vec<(usize, u64, SimTime, SimTime)>> = Rc::new(RefCell::new(Vec::new()));
    for n in 0..nodes {
        let qp = system.create_qp(NodeId(n as u16), 0);
        system.spawn(
            NodeId(n as u16),
            0,
            Box::new(BarrierProc {
                b: Barrier::new(qp, NodeId(n as u16), nodes, 0),
                rounds,
                log: log.clone(),
                arrived_at: SimTime::ZERO,
                in_round: false,
            }),
        );
    }
    system.run();
    let log = Rc::try_unwrap(log).unwrap().into_inner();
    assert_eq!(log.len(), nodes * rounds as usize);
    // Barrier property: nobody exits round r before everyone arrived at r.
    for r in 1..=rounds as u64 {
        let arrivals: Vec<SimTime> = log.iter().filter(|e| e.1 == r).map(|e| e.2).collect();
        let exits: Vec<SimTime> = log.iter().filter(|e| e.1 == r).map(|e| e.3).collect();
        assert_eq!(arrivals.len(), nodes);
        let last_arrival = arrivals.iter().max().unwrap();
        let first_exit = exits.iter().min().unwrap();
        assert!(
            first_exit >= last_arrival,
            "round {r}: exit {first_exit} before last arrival {last_arrival}"
        );
    }
}
