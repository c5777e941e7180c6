//! Layer probes: the microloops behind every `*.ns_per_*` metric. Each
//! times calls into one crate's public functions from outside, long
//! enough ([`PROBE_SECS`]) that the figure repeats. A probe's unit cost
//! times the run's own count of that unit, over `run_s`, is the layer's
//! `est_share`: an estimate, until a later change traces inside the
//! program.
//!
//! The engine, sharded-epoch and fabric loops are lifted from the
//! criterion benches under `crates/*/benches/`.

use std::hint::black_box;
use std::time::Instant;

use crate::sut::*;

/// Measured seconds per probe.
pub const PROBE_SECS: f64 = 0.2;

/// Calls `batch` until [`PROBE_SECS`] of measured time have passed and
/// returns the median batch's nanoseconds per unit, so a batch another
/// tenant of the host disturbed does not move the figure. A batch
/// returns the units of work it did and the seconds it measured, so
/// set-up inside a batch stays untimed.
fn ns_per_unit(mut batch: impl FnMut() -> (u64, f64)) -> f64 {
    let mut total = 0.0f64;
    let mut rates = Vec::new();
    while total < PROBE_SECS {
        let (units, secs) = batch();
        total += secs;
        rates.push(secs * 1e9 / units as f64);
    }
    crate::metrics::median(&rates)
}

/// Times `body` as one batch of `units`.
fn timed<T>(units: u64, body: impl FnOnce() -> T) -> (u64, f64) {
    let started = Instant::now();
    black_box(body());
    (units, started.elapsed().as_secs_f64())
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

// ---------------------------------------------------------------------
// sonuma-sim
// ---------------------------------------------------------------------

struct Count {
    hits: u64,
    sum: u64,
}

/// Events carry a payload, as the machine's `ClusterEvent` variants do.
struct Hit(u64);

impl World for Count {
    type Event = Hit;
    fn handle(&mut self, _engine: &mut EventEngine<Self>, event: Hit) {
        self.hits += 1;
        self.sum = self.sum.wrapping_add(event.0);
    }
}

/// Typed `EventEngine`: schedule 100 k events at pseudorandom times over
/// 5 ms, then drain them; per event, schedule and dispatch together.
pub fn event_ns_per_event() -> f64 {
    const N: u64 = 100_000;
    ns_per_unit(|| {
        timed(N, || {
            let mut engine = EventEngine::new();
            let mut world = Count { hits: 0, sum: 0 };
            let mut seed = 0x9E37_79B9_7F4A_7C15u64;
            for id in 0..N {
                let at = SimTime::from_ps(xorshift(&mut seed) % (N * 50_000));
                engine.schedule_at(at, Hit(id));
            }
            engine.run(&mut world);
            assert_eq!(world.hits, N);
            world.sum
        })
    })
}

/// A shard with nothing to do: isolates the epoch barrier.
struct IdleShard {
    now: SimTime,
    saved: Option<SimTime>,
}

impl EpochWorld for IdleShard {
    fn run_epoch(&mut self, _horizon: SimTime) -> u64 {
        0
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        None
    }

    fn align_clock(&mut self, to: SimTime) {
        self.now = self.now.max(to);
    }

    fn snapshot(&mut self) {
        self.saved = Some(self.now);
    }

    fn restore(&mut self) {
        self.now = self.saved.take().expect("restore without snapshot");
    }
}

/// One empty epoch of a `ShardedEngine` with as many shards as the
/// workload runs: publish source floors, release the worker pool, join
/// it. With one shard there is no pool and this is the coordinator's
/// bookkeeping alone.
pub fn sharded_ns_per_epoch(shards: usize) -> f64 {
    const EPOCHS: u64 = 100;
    let shards = (0..shards)
        .map(|_| IdleShard {
            now: SimTime::ZERO,
            saved: None,
        })
        .collect();
    let mut engine: ShardedEngine<IdleShard> = ShardedEngine::new(shards, SimTime::from_ns(1));
    let mut floor = 0u64;
    ns_per_unit(|| {
        timed(EPOCHS, || {
            let mut ran = 0;
            for _ in 0..EPOCHS {
                floor += 1_000;
                for s in 0..engine.num_shards() {
                    engine.set_source_floor(s, Some(SimTime::from_ps(floor)));
                }
                ran += engine.run_epoch();
            }
            ran
        })
    })
}

/// `LatencyHistogram::record` over latencies spread across 1 ns - 10 us.
pub fn stats_ns_per_record() -> f64 {
    const N: u64 = 1_000_000;
    let mut hist = LatencyHistogram::new();
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    ns_per_unit(|| {
        timed(N, || {
            for _ in 0..N {
                hist.record(SimTime::from_ps(1_000 + xorshift(&mut seed) % 10_000_000));
            }
            hist.count()
        })
    })
}

/// `LatencyHistogram::percentile(0.99)` on a filled histogram.
pub fn stats_ns_per_percentile() -> f64 {
    const N: u64 = 20_000;
    let mut hist = LatencyHistogram::new();
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..100_000 {
        hist.record(SimTime::from_ps(1_000 + xorshift(&mut seed) % 10_000_000));
    }
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for i in 0..N {
                acc += hist.percentile(0.5 + (i % 50) as f64 / 100.0).as_ps();
            }
            acc
        })
    })
}

// ---------------------------------------------------------------------
// sonuma-protocol
// ---------------------------------------------------------------------

/// `Packet::encode_into` + `Packet::decode` of a read reply carrying one
/// cache line.
pub fn packet_ns_per_codec() -> f64 {
    const N: u64 = 200_000;
    let request = Packet::request(
        NodeId(2),
        NodeId(0),
        CtxId(1),
        Tid(5),
        RemoteOp::Read,
        4096,
        3,
    );
    let reply = Packet::reply_to(&request, Status::Ok, Some([0xAB; 64]));
    let mut wire = [0u8; MAX_PACKET_BYTES];
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for i in 0..N {
                let mut p = reply;
                p.line_seq = i as u32;
                let len = p.encode_into(&mut wire);
                let back = Packet::decode(black_box(&wire[..len])).expect("round trip");
                acc += u64::from(back.line_seq);
            }
            acc
        })
    })
}

/// One WQ entry and one CQ entry, each encoded and decoded.
pub fn queue_ns_per_codec() -> f64 {
    const N: u64 = 200_000;
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for i in 0..N {
                let phase = i & 1 == 0;
                let wq = WqEntry::read(NodeId(7), CtxId(0), i * 64, 0x10_0000, 1024);
                let (back, _) = WqEntry::decode(black_box(&wq.encode(phase))).expect("wq");
                let cq = CqEntry::ok(i as u16);
                let (done, _) = CqEntry::decode(black_box(&cq.encode(phase))).expect("cq");
                acc += back.length + u64::from(done.wq_index);
            }
            acc
        })
    })
}

// ---------------------------------------------------------------------
// sonuma-memory
// ---------------------------------------------------------------------

/// `MemoryHierarchy::access` reads over 64 lines that stay in the L1.
pub fn hierarchy_ns_per_hit() -> f64 {
    const N: u64 = 1_000_000;
    let mut h = MemoryHierarchy::new(HierarchyConfig::table1(), 2);
    let mut now = SimTime::ZERO;
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for i in 0..N {
                let addr = PAddr::new((i % 64) * 64);
                acc += h
                    .access(AgentId(0), addr, AccessKind::Read, now)
                    .latency
                    .as_ps();
                now += SimTime::from_ns(1);
            }
            acc
        })
    })
}

/// `MemoryHierarchy::access` reads streaming through 64 MB, sixteen
/// times the LLC, so every access goes to DRAM as RRPP line reads of a
/// large segment do.
pub fn hierarchy_ns_per_miss() -> f64 {
    const N: u64 = 500_000;
    const REGION_LINES: u64 = (64 << 20) / 64;
    let mut h = MemoryHierarchy::new(HierarchyConfig::table1(), 2);
    let mut now = SimTime::ZERO;
    let mut line = 0u64;
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for _ in 0..N {
                let addr = PAddr::new((line % REGION_LINES) * 64);
                line += 1;
                acc += h
                    .access(AgentId(1), addr, AccessKind::Read, now)
                    .latency
                    .as_ps();
                now += SimTime::from_ns(100);
            }
            acc
        })
    })
}

/// `AddressSpace::translate` over 4096 mapped pages.
pub fn page_ns_per_translate() -> f64 {
    const N: u64 = 1_000_000;
    const PAGES: u64 = 4096;
    const PAGE: u64 = 8192;
    let mut frames = FrameAllocator::new(PAGES * PAGE * 2);
    let mut space = AddressSpace::new(1);
    space
        .map_range(VAddr::new(PAGE * 16), PAGES * PAGE, &mut frames)
        .expect("frames suffice");
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for _ in 0..N {
                let va = VAddr::new(PAGE * 16 + xorshift(&mut seed) % (PAGES * PAGE));
                acc ^= space.translate(va).expect("mapped").raw();
            }
            acc
        })
    })
}

// ---------------------------------------------------------------------
// sonuma-fabric
// ---------------------------------------------------------------------

const FABRIC_PACKETS: usize = 100_000;

/// Deterministic `(src, dst)` pair stream, `src != dst`.
fn pair_stream(nodes: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    (0..count)
        .map(|_| {
            let src = (xorshift(&mut seed) % nodes as u64) as u16;
            let mut dst = (xorshift(&mut seed) % nodes as u64) as u16;
            if dst == src {
                dst = (dst + 1) % nodes as u16;
            }
            (NodeId(src), NodeId(dst))
        })
        .collect()
}

/// Mean hops between uniformly random distinct nodes of `topology`.
pub fn mean_hops(topology: &Topology) -> f64 {
    let pairs = pair_stream(topology.nodes(), FABRIC_PACKETS);
    let hops: u64 = pairs
        .iter()
        .map(|&(s, d)| u64::from(topology.distance(s, d)))
        .sum();
    hops as f64 / pairs.len() as f64
}

/// `Topology::route_iter` walked to completion, per hop.
pub fn route_ns_per_hop(topology: &Topology) -> f64 {
    let pairs = pair_stream(topology.nodes(), FABRIC_PACKETS);
    ns_per_unit(|| {
        let started = Instant::now();
        let mut hops = 0u64;
        for &(src, dst) in &pairs {
            hops += topology.route_iter(src, dst).count() as u64;
        }
        (black_box(hops), started.elapsed().as_secs_f64())
    })
}

/// The `(src, dst)` stream of a workload's packets: requests to the ring
/// successor and replies back when `neighbors`, uniformly random pairs
/// otherwise.
fn traffic_pairs(nodes: usize, neighbors: bool) -> Vec<(NodeId, NodeId)> {
    if !neighbors {
        return pair_stream(nodes, FABRIC_PACKETS);
    }
    (0..FABRIC_PACKETS)
        .map(|i| {
            let (src, dst) = ((i / 2 % nodes) as u16, ((i / 2 + 1) % nodes) as u16);
            if i % 2 == 0 {
                (NodeId(src), NodeId(dst))
            } else {
                (NodeId(dst), NodeId(src))
            }
        })
        .collect()
}

/// `Fabric::send` of 88-byte packets over the workload's own topology
/// and traffic pattern, per link traversed. Each batch gets a fresh
/// fabric, built untimed.
pub fn send_ns_per_traversal(config: &FabricConfig, neighbors: bool) -> f64 {
    let mut config = config.clone();
    config.faults = None;
    let pairs = traffic_pairs(config.topology.nodes(), neighbors);
    ns_per_unit(|| {
        let mut fabric = Fabric::new(config.clone());
        let started = Instant::now();
        let mut hops = 0u64;
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let now = SimTime::from_ns(i as u64);
            hops += u64::from(fabric.send(now, src, dst, i & 1, 88).hops);
        }
        (black_box(hops.max(1)), started.elapsed().as_secs_f64())
    })
}

/// `Fabric::send_faulty` under the workload's own fault plan, with the
/// packet stream spread over the plan's horizon so kill and revive
/// windows are crossed; per link traversed. Without a plan this is the
/// pass-through to `send`.
pub fn send_faulty_ns_per_traversal(
    config: &FabricConfig,
    neighbors: bool,
    horizon_us: f64,
) -> f64 {
    let pairs = traffic_pairs(config.topology.nodes(), neighbors);
    let step_ps = ((horizon_us * 1e6) as u64 / FABRIC_PACKETS as u64).max(1_000);
    ns_per_unit(|| {
        let mut fabric = Fabric::new(config.clone());
        let started = Instant::now();
        let mut hops = 0u64;
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let now = SimTime::from_ps(i as u64 * step_ps);
            let (arrival, _fate) = fabric.send_faulty(now, src, dst, i & 1, 88, i as u64);
            hops += u64::from(arrival.hops);
        }
        (black_box(hops.max(1)), started.elapsed().as_secs_f64())
    })
}

// ---------------------------------------------------------------------
// sonuma-rmc
// ---------------------------------------------------------------------

/// ITT: `alloc` of a 16-line transaction plus `on_reply` for each line;
/// per line.
pub fn itt_ns_per_txn() -> f64 {
    const TXNS: u64 = 20_000;
    const LINES: u32 = 16;
    let mut itt = InflightTable::new(4096);
    ns_per_unit(|| {
        timed(TXNS * u64::from(LINES), || {
            let mut completed = 0u64;
            for i in 0..TXNS {
                let tid = itt
                    .alloc(QpId(0), i as u16, LINES, 0x1000)
                    .expect("table has room");
                for _ in 0..LINES {
                    if let ReplyAction::Complete { .. } = itt.on_reply(tid, Status::Ok) {
                        completed += 1;
                    }
                }
            }
            assert_eq!(completed, TXNS);
            completed
        })
    })
}

/// Context table: CT$ touch, table lookup and bounds check of one
/// request.
pub fn ct_ns_per_lookup() -> f64 {
    const N: u64 = 1_000_000;
    let mut table = ContextTable::new();
    for ctx in 0..4 {
        table.register(
            CtxId(ctx),
            ContextEntry {
                segment_base: VAddr::new(0x10_0000 * (u64::from(ctx) + 1)),
                segment_len: 1 << 20,
                asid: 1,
                qps: vec![],
            },
        );
    }
    let mut cache = CtCache::new(8);
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for i in 0..N {
                let ctx = CtxId((i % 4) as u16);
                acc += u64::from(cache.touch(ctx));
                let entry = table.lookup(ctx).expect("registered");
                acc ^= entry
                    .resolve((i * 64) % (1 << 19), 64)
                    .expect("in bounds")
                    .raw();
            }
            acc
        })
    })
}

/// `Maq::acquire` on a 32-entry queue kept about half busy.
pub fn maq_ns_per_acquire() -> f64 {
    const N: u64 = 1_000_000;
    let mut maq = Maq::new(32);
    let mut now = SimTime::ZERO;
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for _ in 0..N {
                acc ^= maq.acquire(now, SimTime::from_ns(60)).as_ps();
                now += SimTime::from_ns(4);
            }
            acc
        })
    })
}

// ---------------------------------------------------------------------
// sonuma-machine, sonuma-baselines
// ---------------------------------------------------------------------

/// Drives `ops` reads of `bytes` from node 0 to node 1 of `backend`,
/// four in flight, and returns `(host seconds, latency histogram)`.
fn ping(backend: &mut dyn RemoteBackend, ops: u64, bytes: u64) -> (f64, LatencyHistogram) {
    let span = backend.segment_len() - bytes;
    let started = Instant::now();
    let mut hist = LatencyHistogram::new();
    let mut posted_at = std::collections::HashMap::new();
    let (mut posted, mut done) = (0u64, 0u64);
    while done < ops {
        while posted < ops && posted - done < 4 {
            let req = RemoteRequest::read(NodeId(1), (posted * bytes) % span / 64 * 64, bytes);
            match backend.post(NodeId(0), req) {
                Ok(token) => {
                    posted_at.insert(token, backend.now());
                    posted += 1;
                }
                Err(_) => break,
            }
        }
        backend.advance();
        let now = backend.now();
        for c in backend.poll(NodeId(0)) {
            assert!(c.status.is_ok());
            hist.record(now.saturating_sub(posted_at.remove(&c.token).expect("posted")));
            done += 1;
        }
    }
    (started.elapsed().as_secs_f64(), hist)
}

/// A two-node crossbar soNUMA machine reading `bytes` per operation:
/// RGP, RRPP and RCP pipelines and their handlers with a trivial fabric;
/// per cache line moved.
pub fn path_ns_per_line(bytes: u64) -> f64 {
    let lines = bytes / 64;
    let ops = 20_000 / lines;
    ns_per_unit(|| {
        let mut machine = SonumaBackend::simulated_hardware(2, 1 << 20);
        let (secs, _) = ping(&mut machine, ops, bytes);
        (ops * lines, secs)
    })
}

/// Host nanoseconds per 64 B read on a modelled baseline, and the
/// simulated p99 of those reads.
pub fn baseline_ns_per_op(mut build: impl FnMut() -> Box<dyn RemoteBackend>) -> (f64, f64) {
    const OPS: u64 = 50_000;
    let mut p99 = 0.0;
    let ns = ns_per_unit(|| {
        let mut backend = build();
        let (secs, hist) = ping(backend.as_mut(), OPS, 64);
        p99 = hist.percentile(0.99).as_ns_f64();
        (OPS, secs)
    });
    (ns, p99)
}

pub fn rdma_ns_per_op() -> (f64, f64) {
    baseline_ns_per_op(|| Box::new(RdmaBackend::connectx3(2, 1 << 20)))
}

pub fn tcp_ns_per_op() -> (f64, f64) {
    baseline_ns_per_op(|| Box::new(TcpBackend::calxeda(2, 1 << 20)))
}

// ---------------------------------------------------------------------
// sonuma-apps
// ---------------------------------------------------------------------

/// `KvDirectory::lookup` on kv512's directory (2048 keys, 512 nodes).
pub fn kvdir_ns_per_lookup() -> f64 {
    const N: u64 = 1_000_000;
    let dir = KvDirectory::build(2048, 512, 1 << 19, 4096, 32768).expect("kv512's directory");
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for _ in 0..N {
                let p = dir.lookup(xorshift(&mut seed) % dir.keys());
                acc ^= p.offset + p.len;
            }
            acc
        })
    })
}

/// `(fill_value, verify_value)` over 32 KB value images, Gbps of host
/// time.
pub fn kv_fill_verify_gbps() -> (f64, f64) {
    const VALUES: u64 = 256;
    const BYTES: u64 = 32_768;
    let mut image = vec![0u8; BYTES as usize];
    let fill = ns_per_unit(|| {
        timed(VALUES * BYTES, || {
            for key in 0..VALUES {
                fill_value(key, black_box(&mut image));
            }
        })
    });
    fill_value(7, &mut image);
    let verify = ns_per_unit(|| {
        timed(VALUES * BYTES, || {
            let mut ok = 0u64;
            for _ in 0..VALUES {
                ok += u64::from(verify_value(7, black_box(&image)));
            }
            assert_eq!(ok, VALUES);
            ok
        })
    });
    // ns per byte -> bits per ns = Gbps.
    (8.0 / fill, 8.0 / verify)
}

// ---------------------------------------------------------------------
// sonuma-bench
// ---------------------------------------------------------------------

/// `ScenarioSpec::from_toml` of a workload file, microseconds.
pub fn spec_parse_us(toml: &str) -> f64 {
    const N: u64 = 200;
    ns_per_unit(|| {
        timed(N, || {
            let mut nodes = 0;
            for _ in 0..N {
                nodes += ScenarioSpec::from_toml(black_box(toml))
                    .expect("parses")
                    .nodes;
            }
            nodes
        })
    }) / 1e3
}

/// One Poisson `ArrivalGen::next_arrival` draw.
pub fn trafficgen_ns_per_arrival() -> f64 {
    const N: u64 = 1_000_000;
    let mut rng = DetRng::seed(1);
    let mut gen = ArrivalGen::new(ArrivalKind::Poisson, 40_000.0, 8);
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0u64;
            for _ in 0..N {
                acc ^= gen.next_arrival(&mut rng, u64::MAX).unwrap_or(0);
            }
            acc
        })
    })
}

/// One `ZipfSampler::sample` over kv512's 2048 keys at skew 0.9.
pub fn trafficgen_ns_per_zipf() -> f64 {
    const N: u64 = 1_000_000;
    let mut rng = DetRng::seed(2);
    let sampler = ZipfSampler::new(2048, 0.9);
    ns_per_unit(|| {
        timed(N, || {
            let mut acc = 0usize;
            for _ in 0..N {
                acc ^= sampler.sample(&mut rng);
            }
            acc
        })
    })
}
