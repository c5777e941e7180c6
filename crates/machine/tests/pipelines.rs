//! End-to-end tests of the three RMC pipelines over the full machine model:
//! real WQ/CQ bytes in simulated memory, translation, fabric traversal,
//! stateless remote processing, and completion delivery.

use std::cell::RefCell;
use std::rc::Rc;

use sonuma_machine::{AppProcess, Cluster, ClusterEngine, MachineConfig, NodeApi, Step, Wake};
use sonuma_memory::VAddr;
use sonuma_protocol::{CtxId, NodeId, QpId, Status};
use sonuma_sim::SimTime;

const CTX: CtxId = CtxId(0);

fn setup(config: MachineConfig) -> (Cluster, ClusterEngine) {
    let mut cluster = Cluster::new(config);
    cluster.create_context(CTX, 1 << 20).unwrap();
    (cluster, ClusterEngine::new())
}

/// Shared result cell for extracting observations from processes.
type Out<T> = Rc<RefCell<T>>;

#[derive(Default, Debug)]
struct ReadResult {
    data: Vec<u8>,
    status: Option<Status>,
    latency: SimTime,
}

/// Posts one remote read and records payload, status and latency.
struct ReadOnce {
    qp: QpId,
    dst: NodeId,
    offset: u64,
    len: u64,
    buf: Option<VAddr>,
    posted_at: SimTime,
    out: Out<ReadResult>,
}

impl AppProcess for ReadOnce {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        match why {
            Wake::Start => {
                // A test may pre-place the landing buffer.
                let buf = self
                    .buf
                    .unwrap_or_else(|| api.heap_alloc(self.len).unwrap());
                self.buf = Some(buf);
                self.posted_at = api.now();
                api.post_read(self.qp, self.dst, CTX, self.offset, buf, self.len)
                    .unwrap();
                Step::WaitCq(self.qp)
            }
            Wake::CqReady(comps) => {
                assert_eq!(comps.len(), 1);
                let mut o = self.out.borrow_mut();
                o.status = Some(comps[0].status);
                o.latency = api.now() - self.posted_at;
                if comps[0].status.is_ok() {
                    o.data = vec![0u8; self.len as usize];
                    api.local_read(self.buf.unwrap(), &mut o.data).unwrap();
                }
                Step::Done
            }
            other => panic!("unexpected wake {other:?}"),
        }
    }
}

/// Issues `reps` sequential synchronous reads and records the latency of
/// the last one (steady state: warm TLBs, CT$, queue lines — the regime the
/// paper's microbenchmarks measure).
struct ReadSteady {
    qp: QpId,
    dst: NodeId,
    offset: u64,
    len: u64,
    reps: u32,
    buf: Option<VAddr>,
    posted_at: SimTime,
    out: Out<ReadResult>,
}

impl AppProcess for ReadSteady {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        match why {
            Wake::Start => {
                let buf = api.heap_alloc(self.len).unwrap();
                self.buf = Some(buf);
                self.posted_at = api.now();
                api.post_read(self.qp, self.dst, CTX, self.offset, buf, self.len)
                    .unwrap();
                Step::WaitCq(self.qp)
            }
            Wake::CqReady(comps) => {
                assert!(comps[0].status.is_ok());
                self.reps -= 1;
                if self.reps == 0 {
                    self.out.borrow_mut().latency = api.now() - self.posted_at;
                    self.out.borrow_mut().status = Some(comps[0].status);
                    return Step::Done;
                }
                self.posted_at = api.now();
                api.post_read(
                    self.qp,
                    self.dst,
                    CTX,
                    self.offset,
                    self.buf.unwrap(),
                    self.len,
                )
                .unwrap();
                Step::WaitCq(self.qp)
            }
            other => panic!("unexpected wake {other:?}"),
        }
    }
}

fn run_read_steady(config: MachineConfig, len: u64) -> SimTime {
    let (mut cluster, mut engine) = setup(config);
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let out: Out<ReadResult> = Rc::new(RefCell::new(ReadResult::default()));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(ReadSteady {
            qp,
            dst: NodeId(1),
            offset: 0,
            len,
            reps: 8,
            buf: None,
            posted_at: SimTime::ZERO,
            out: out.clone(),
        }),
    );
    engine.run(&mut cluster);
    let latency = out.borrow().latency;
    latency
}

fn run_read(config: MachineConfig, offset: u64, len: u64, pattern: Option<&[u8]>) -> ReadResult {
    let (mut cluster, mut engine) = setup(config);
    if let Some(p) = pattern {
        cluster.write_ctx(NodeId(1), CTX, offset, p);
    }
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let out: Out<ReadResult> = Rc::new(RefCell::new(ReadResult::default()));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(ReadOnce {
            qp,
            dst: NodeId(1),
            offset,
            len,
            buf: None,
            posted_at: SimTime::ZERO,
            out: out.clone(),
        }),
    );
    engine.run(&mut cluster);
    Rc::try_unwrap(out).unwrap().into_inner()
}

#[test]
fn remote_read_moves_correct_bytes() {
    let pattern: Vec<u8> = (0..64u32).map(|i| (i * 7 + 3) as u8).collect();
    let r = run_read(
        MachineConfig::simulated_hardware(2),
        4096,
        64,
        Some(&pattern),
    );
    assert_eq!(r.status, Some(Status::Ok));
    assert_eq!(r.data, pattern);
}

#[test]
fn remote_read_latency_is_about_300ns_on_simulated_hardware() {
    let lat = run_read_steady(MachineConfig::simulated_hardware(2), 64);
    let ns = lat.as_ns_f64();
    assert!(
        (220.0..420.0).contains(&ns),
        "64B remote read steady-state latency {ns:.1} ns; expected ~300 ns"
    );
}

#[test]
fn remote_read_latency_is_microseconds_on_dev_platform() {
    let lat = run_read_steady(MachineConfig::dev_platform(2), 64);
    let us = lat.as_us_f64();
    assert!(
        (1.2..2.0).contains(&us),
        "64B dev-platform read steady-state latency {us:.2} us; expected ~1.5 us"
    );
}

#[test]
fn dev_platform_is_roughly_5x_slower_than_hardware() {
    // §7.2: "The baseline latency is 1.5 us, which is 5x the latency on the
    // simulated hardware."
    let hw = run_read_steady(MachineConfig::simulated_hardware(2), 64);
    let dev = run_read_steady(MachineConfig::dev_platform(2), 64);
    let ratio = dev.as_ns_f64() / hw.as_ns_f64();
    assert!(
        (3.0..8.0).contains(&ratio),
        "dev/hw latency ratio {ratio:.1}; paper reports ~5x"
    );
}

#[test]
fn multi_line_read_reassembles_in_order() {
    let pattern: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    let r = run_read(
        MachineConfig::simulated_hardware(2),
        8192,
        8192,
        Some(&pattern),
    );
    assert_eq!(r.status, Some(Status::Ok));
    assert_eq!(r.data, pattern);
}

#[test]
fn unaligned_landing_buffer_across_a_page_reassembles() {
    // The RCP writes line-aligned payloads straight through the
    // translation it already holds; a landing buffer that is not
    // line-aligned can straddle a page and must still take the
    // page-by-page path. The two pages are adjacent virtually but not
    // physically, so a write that ran off the first frame would be lost.
    use sonuma_memory::PAGE_BYTES;
    let pattern: Vec<u8> = (0..256u32).map(|i| (i * 13 + 5) as u8).collect();
    let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(2));
    cluster.write_ctx(NodeId(1), CTX, 4096, &pattern);
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let node = cluster.node_mut(0);
    let base = node.heap_alloc(PAGE_BYTES).unwrap();
    node.alloc.alloc().unwrap();
    node.heap_alloc(PAGE_BYTES).unwrap();
    // Lines land at page offsets -100, -36 (crosses), +28, +92.
    let buf = base.offset(PAGE_BYTES - 100);
    let out: Out<ReadResult> = Rc::new(RefCell::new(ReadResult::default()));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(ReadOnce {
            qp,
            dst: NodeId(1),
            offset: 4096,
            len: 256,
            buf: Some(buf),
            posted_at: SimTime::ZERO,
            out: out.clone(),
        }),
    );
    engine.run(&mut cluster);
    let r = out.borrow();
    assert_eq!(r.status, Some(Status::Ok));
    assert_eq!(r.data, pattern);
    // Nothing spilled past the buffer's end.
    let mut after = [0u8; 64];
    cluster
        .node(0)
        .read_virt(buf.offset(256), &mut after)
        .unwrap();
    assert_eq!(after, [0u8; 64]);
}

#[test]
fn out_of_bounds_read_delivers_error_completion() {
    // Segment is 1 MiB; read starting at the last line but spanning beyond.
    let r = run_read(
        MachineConfig::simulated_hardware(2),
        (1 << 20) - 64,
        128,
        None,
    );
    assert_eq!(r.status, Some(Status::OutOfBounds));
    assert!(r.data.is_empty());
}

/// Posts one remote write, then reports completion.
struct WriteOnce {
    qp: QpId,
    dst: NodeId,
    offset: u64,
    payload: Vec<u8>,
    done: Out<Option<Status>>,
}

impl AppProcess for WriteOnce {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        match why {
            Wake::Start => {
                let buf = api.heap_alloc(self.payload.len() as u64).unwrap();
                api.local_write(buf, &self.payload).unwrap();
                api.post_write(
                    self.qp,
                    self.dst,
                    CTX,
                    self.offset,
                    buf,
                    self.payload.len() as u64,
                )
                .unwrap();
                Step::WaitCq(self.qp)
            }
            Wake::CqReady(comps) => {
                *self.done.borrow_mut() = Some(comps[0].status);
                Step::Done
            }
            other => panic!("unexpected wake {other:?}"),
        }
    }
}

#[test]
fn remote_write_lands_in_destination_segment() {
    let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(2));
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let payload: Vec<u8> = (0..128u32).map(|i| (i * 3 + 1) as u8).collect();
    let done: Out<Option<Status>> = Rc::new(RefCell::new(None));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(WriteOnce {
            qp,
            dst: NodeId(1),
            offset: 256,
            payload: payload.clone(),
            done: done.clone(),
        }),
    );
    engine.run(&mut cluster);
    assert_eq!(*done.borrow(), Some(Status::Ok));
    let mut back = vec![0u8; payload.len()];
    cluster.read_ctx(NodeId(1), CTX, 256, &mut back);
    assert_eq!(back, payload);
    assert_eq!(cluster.total_bytes_written(), 128);
}

/// Issues fetch-add then compare-and-swap against the same remote word.
struct AtomicDance {
    qp: QpId,
    dst: NodeId,
    buf: Option<VAddr>,
    phase: u8,
    observed: Out<Vec<u64>>,
}

impl AppProcess for AtomicDance {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        match (self.phase, why) {
            (0, Wake::Start) => {
                let buf = api.heap_alloc(64).unwrap();
                self.buf = Some(buf);
                api.post_fetch_add(self.qp, self.dst, CTX, 512, buf, 5)
                    .unwrap();
                self.phase = 1;
                Step::WaitCq(self.qp)
            }
            (1, Wake::CqReady(c)) => {
                assert!(c[0].status.is_ok());
                let old = api.local_load_u64(self.buf.unwrap()).unwrap();
                self.observed.borrow_mut().push(old);
                // CAS expecting the post-add value.
                api.post_comp_swap(self.qp, self.dst, CTX, 512, self.buf.unwrap(), old + 5, 999)
                    .unwrap();
                self.phase = 2;
                Step::WaitCq(self.qp)
            }
            (2, Wake::CqReady(c)) => {
                assert!(c[0].status.is_ok());
                let seen = api.local_load_u64(self.buf.unwrap()).unwrap();
                self.observed.borrow_mut().push(seen);
                Step::Done
            }
            (p, w) => panic!("unexpected ({p}, {w:?})"),
        }
    }
}

#[test]
fn remote_atomics_return_old_values_and_update_memory() {
    let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(2));
    cluster.write_ctx(NodeId(1), CTX, 512, &37u64.to_le_bytes());
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let observed: Out<Vec<u64>> = Rc::new(RefCell::new(Vec::new()));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(AtomicDance {
            qp,
            dst: NodeId(1),
            buf: None,
            phase: 0,
            observed: observed.clone(),
        }),
    );
    engine.run(&mut cluster);
    // fetch-add observed 37; CAS observed 42 and swapped in 999.
    assert_eq!(*observed.borrow(), vec![37, 42]);
    let mut back = [0u8; 8];
    cluster.read_ctx(NodeId(1), CTX, 512, &mut back);
    assert_eq!(u64::from_le_bytes(back), 999);
}

/// Waits for a remote write into its watched mailbox.
struct Watcher {
    mailbox_offset: u64,
    woke: Out<Option<u64>>,
}

impl AppProcess for Watcher {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        let mailbox = VAddr::new(api.ctx_base(CTX).raw() + self.mailbox_offset);
        match why {
            Wake::Start => Step::WaitMemory {
                addr: mailbox,
                len: 64,
            },
            Wake::MemoryTouched { .. } => {
                let v = api.local_load_u64(mailbox).unwrap();
                *self.woke.borrow_mut() = Some(v);
                Step::Done
            }
            other => panic!("unexpected wake {other:?}"),
        }
    }
}

/// Sleeps briefly, then writes into the peer's mailbox.
struct Poker {
    qp: QpId,
    dst: NodeId,
    mailbox_offset: u64,
}

impl AppProcess for Poker {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        match why {
            Wake::Start => Step::Sleep(SimTime::from_us(1)),
            Wake::Timer => {
                let buf = api.heap_alloc(64).unwrap();
                api.local_write(buf, &[0u8; 64]).unwrap();
                api.local_store_u64(buf, 0x5151).unwrap();
                api.post_write(self.qp, self.dst, CTX, self.mailbox_offset, buf, 64)
                    .unwrap();
                Step::WaitCq(self.qp)
            }
            Wake::CqReady(_) => Step::Done,
            other => panic!("unexpected wake {other:?}"),
        }
    }
}

#[test]
fn memory_watch_wakes_on_remote_write() {
    let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(2));
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let woke: Out<Option<u64>> = Rc::new(RefCell::new(None));
    cluster.spawn(
        &mut engine,
        NodeId(1),
        0,
        Box::new(Watcher {
            mailbox_offset: 2048,
            woke: woke.clone(),
        }),
    );
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(Poker {
            qp,
            dst: NodeId(1),
            mailbox_offset: 2048,
        }),
    );
    engine.run(&mut cluster);
    assert_eq!(*woke.borrow(), Some(0x5151));
}

/// Floods the WQ to verify occupancy limits, then drains.
struct Flooder {
    qp: QpId,
    dst: NodeId,
    observed_full: Out<bool>,
    drained: u32,
}

impl AppProcess for Flooder {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        match why {
            Wake::Start => {
                let buf = api.heap_alloc(64).unwrap();
                let cap = api.qp_capacity(self.qp) as u32;
                for _ in 0..cap {
                    api.post_read(self.qp, self.dst, CTX, 0, buf, 64).unwrap();
                }
                // One more must fail.
                let err = api.post_read(self.qp, self.dst, CTX, 0, buf, 64);
                *self.observed_full.borrow_mut() =
                    matches!(err, Err(sonuma_machine::ApiError::WqFull));
                Step::WaitCq(self.qp)
            }
            Wake::CqReady(comps) => {
                self.drained += comps.len() as u32;
                if self.drained == api.qp_capacity(self.qp) as u32 {
                    Step::Done
                } else {
                    Step::WaitCq(self.qp)
                }
            }
            other => panic!("unexpected wake {other:?}"),
        }
    }
}

#[test]
fn wq_occupancy_is_bounded_and_drains() {
    let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(2));
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let observed_full: Out<bool> = Rc::new(RefCell::new(false));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(Flooder {
            qp,
            dst: NodeId(1),
            observed_full: observed_full.clone(),
            drained: 0,
        }),
    );
    engine.run(&mut cluster);
    assert!(*observed_full.borrow(), "WqFull must surface at capacity");
    assert_eq!(cluster.total_ops_completed(), 64);
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let pattern = vec![0x3C; 4096];
        let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(4));
        cluster.write_ctx(NodeId(1), CTX, 0, &pattern);
        let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
        let out: Out<ReadResult> = Rc::new(RefCell::new(ReadResult::default()));
        cluster.spawn(
            &mut engine,
            NodeId(0),
            0,
            Box::new(ReadOnce {
                qp,
                dst: NodeId(1),
                offset: 0,
                len: 4096,
                buf: None,
                posted_at: SimTime::ZERO,
                out: out.clone(),
            }),
        );
        engine.run(&mut cluster);
        let latency = out.borrow().latency;
        (
            engine.now(),
            engine.events_executed(),
            latency,
            cluster.fabric().packets_sent(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn local_node_atomics_use_loopback() {
    // An atomic addressed to the local node must work without the fabric.
    let (mut cluster, mut engine) = setup(MachineConfig::simulated_hardware(2));
    cluster.write_ctx(NodeId(0), CTX, 512, &7u64.to_le_bytes());
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let observed: Out<Vec<u64>> = Rc::new(RefCell::new(Vec::new()));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(AtomicDance {
            qp,
            dst: NodeId(0),
            buf: None,
            phase: 0,
            observed: observed.clone(),
        }),
    );
    engine.run(&mut cluster);
    assert_eq!(*observed.borrow(), vec![7, 12]);
    assert_eq!(
        cluster.fabric().packets_sent(),
        0,
        "loopback must bypass the fabric"
    );
}
