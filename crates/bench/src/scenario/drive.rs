//! Execution: the one drive loop over a request source, the per-backend
//! snapshot [`run_spec`] takes after it, and the outcome types a report
//! is rendered from.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use sonuma_baselines::{RdmaBackend, TcpBackend};
use sonuma_core::{
    BackendError, MachineConfig, NodeId, PipelineStats, RemoteBackend, RemoteCompletion, RemoteOp,
    RemoteRequest, SloClass, SonumaBackend, TenantId,
};
use sonuma_fabric::LinkStats;
use sonuma_sim::stats::LatencyHistogram;
use sonuma_sim::{DetRng, SimTime};

use super::spec::{
    class_weight, tenant_class, us_to_sim, BackendKind, FaultSpec, KvSpec, PlatformSpec,
    ScenarioSpec, TenancySpec, TrafficSpec, WorkloadKind,
};
use crate::trafficgen::{jain_index, ArrivalGen, ZipfSampler};

/// Per-tenant outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Cluster-wide tenant id.
    pub tenant: u32,
    /// Home node the tenant posts from.
    pub node: u16,
    /// SLO class.
    pub class: SloClass,
    /// WDRR weight.
    pub weight: u32,
    /// Arrivals the generator offered within the horizon.
    pub offered: u64,
    /// Operations completed.
    pub ops: u64,
    /// Completions with an error status.
    pub errors: u64,
    /// Arrival-to-completion latency distribution (includes software
    /// queueing — the number a tenant actually experiences).
    pub hist: LatencyHistogram,
}

/// Fabric-level congestion counters of one soNUMA run.
#[derive(Debug, Clone)]
pub struct FabricSummary {
    /// Total bytes injected into the fabric.
    pub bytes: u64,
    /// Total packets injected.
    pub packets: u64,
    /// Credit stalls summed over every link and lane.
    pub credit_stalls: u64,
    /// Packets per virtual lane `[requests, replies]`.
    pub lane_packets: [u64; 2],
    /// Directed links that carried traffic.
    pub links_observed: usize,
    /// The hottest links by bytes (capped; see [`MAX_REPORTED_LINKS`]).
    pub hot_links: Vec<LinkStats>,
}

/// How many per-link rows a report includes (the hottest by bytes); the
/// aggregate counters always cover every link.
pub const MAX_REPORTED_LINKS: usize = 16;

/// Fault-injection outcome of one soNUMA run under a non-empty
/// `[faults]` section: what was injected, what the fabric did, what the
/// source-side recovery machinery did about it, and how fast goodput
/// returned after the scheduled onset.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Directed links the plan degraded.
    pub links_degraded: usize,
    /// Directed links the plan killed.
    pub links_killed: usize,
    /// Nodes the plan crashed.
    pub nodes_crashed: usize,
    /// Packets the fabric dropped on faulty links.
    pub dropped: u64,
    /// Packets delivered corrupted (discarded by the receiving RMC).
    pub corrupted: u64,
    /// Packets routed around dead links.
    pub rerouted: u64,
    /// Packets with no live route at all.
    pub unreachable: u64,
    /// Node-crash events executed.
    pub crashes: u64,
    /// Packets discarded because the destination was down.
    pub crash_drops: u64,
    /// Retransmission deadlines that fired with lines missing.
    pub rgp_timeouts: u64,
    /// Line requests re-injected by the retransmission path.
    pub rgp_retransmits: u64,
    /// Corrupt packets the receiving RMCs discarded.
    pub rrpp_corrupt_drops: u64,
    /// Operations that completed with an error status (retry exhaustion
    /// and crash aborts included).
    pub aborted: u64,
    /// Successful operations over offered (open-loop) or total
    /// (closed-loop) operations: goodput under failure.
    pub goodput_fraction: f64,
    /// Simulated microsecond the first scheduled fault fired (`None` for
    /// degradation-only plans, which have no onset).
    pub onset_us: Option<f64>,
    /// Mean successful completions per simulated microsecond before the
    /// onset (0 when there is no onset or no pre-onset window).
    pub prefault_ops_per_us: f64,
    /// Microseconds after the onset until a 1 µs bin first reached 90 %
    /// of the pre-fault completion rate (`None` if it never did).
    pub recovery_us: Option<f64>,
    /// Whether goodput recovered to ≥ 90 % of the pre-fault rate (always
    /// true for plans with no onset).
    pub recovered: bool,
    /// Gold-class p99 latency in ns (tenancy runs with gold tenants).
    pub gold_p99_ns: Option<f64>,
    /// Bronze-class p99 latency in ns (tenancy runs with bronze tenants).
    pub bronze_p99_ns: Option<f64>,
}

/// One value-size class of a KV run: every key whose value is `bytes`
/// long, with separate GET (one-sided read) and PUT (fill-path write)
/// latency distributions — the raw data of the crossover table.
#[derive(Debug, Clone)]
pub struct KvClassOutcome {
    /// Value bytes of this class.
    pub bytes: u64,
    /// Keys the directory assigned to this class.
    pub keys: u64,
    /// GETs completed against this class.
    pub gets: u64,
    /// PUTs completed against this class.
    pub puts: u64,
    /// Arrival-to-completion GET latencies.
    pub get_hist: LatencyHistogram,
    /// Arrival-to-completion PUT latencies.
    pub put_hist: LatencyHistogram,
}

/// KV-service outcome of one run under a non-empty `[kv]` section:
/// directory-plane totals, payload-verification failures (always 0),
/// and the per-value-size-class latency rows.
#[derive(Debug, Clone)]
pub struct KvOutcome {
    /// Keys in the directory.
    pub keys: u64,
    /// GETs completed (successfully).
    pub gets: u64,
    /// PUTs completed (successfully).
    pub puts: u64,
    /// GET payloads that failed byte-for-byte verification against the
    /// deterministic value image. Must stay 0 — a nonzero count means
    /// the one-sided data path corrupted or tore a value.
    pub corrupt: u64,
    /// Cache lines moved by completed GETs (the one-sided data-plane
    /// volume in fabric-packet terms).
    pub get_lines: u64,
    /// Bytes moved by completed GETs.
    pub get_bytes: u64,
    /// Bytes moved by completed PUTs.
    pub put_bytes: u64,
    /// Per-value-size-class rows, smallest class first.
    pub classes: Vec<KvClassOutcome>,
}

/// Metrics of one spec running over one backend.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Transport label (`RemoteBackend::label`).
    pub backend: String,
    /// Operations completed.
    pub ops: u64,
    /// Arrivals offered by the open-loop generator (equals `ops` when the
    /// run kept up; 0 for closed-loop runs, which have no offered load).
    pub offered_ops: u64,
    /// Payload bytes moved by completed operations.
    pub payload_bytes: u64,
    /// Operations that completed with an error status.
    pub errors: u64,
    /// Total simulated time.
    pub sim_time: SimTime,
    /// Completed operations per simulated second.
    pub ops_per_sec: f64,
    /// Payload bandwidth over simulated time, Gbps.
    pub gbps: f64,
    /// Median post-to-completion latency.
    pub p50: SimTime,
    /// 99th-percentile post-to-completion latency.
    pub p99: SimTime,
    /// 99.9th-percentile post-to-completion latency.
    pub p999: SimTime,
    /// Mean post-to-completion latency.
    pub mean: SimTime,
    /// Logical events the backend processed (engine events plus
    /// injections folded into batched burst events — invariant under
    /// batching configuration).
    pub events: u64,
    /// Host wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Host-side engine throughput: `events / wall_secs`.
    pub wall_events_per_sec: f64,
    /// Host-side fabric throughput: fabric packets over `wall_secs`
    /// (0 for backends without a modeled fabric). Packet counts are a
    /// pure function of the spec, so this is the cleanest wall-clock
    /// figure of merit for the fabric hot path.
    pub wall_packets_per_sec: f64,
    /// Host wall-clock seconds world construction took — reported
    /// separately from `wall_secs` (drive time) so the
    /// parallel-construction win shows on its own.
    pub wall_construct_secs: f64,
    /// Host threads the spec requested for this run.
    pub threads: usize,
    /// Shards the backend actually executed with (1 for the modeled
    /// baselines, which have no internal parallelism).
    pub shards: usize,
    /// Conservative epochs the sharded engine ran (soNUMA; 0 otherwise).
    /// A pure function of the spec — the same at every thread count — so
    /// it is the one `sharding` member the parallel-equivalence diff
    /// compares.
    pub epochs: u64,
    /// Logical events executed per shard (soNUMA runs only). Shard
    /// *metadata*: depends on the partition, excluded from the
    /// parallel-equivalence diff.
    pub shard_events: Vec<u64>,
    /// Fabric links the shard partition cuts (0 on one shard). Shard
    /// metadata, like `shard_events`.
    pub cut_links: usize,
    /// The sharded engine's lookahead (soNUMA runs only). Shard
    /// metadata.
    pub lookahead: Option<SimTime>,
    /// Deliveries that beat the lookahead's promise.
    /// Must be 0 — recorded so a report can prove the conservative
    /// bound held, not just assume it.
    pub pair_bound_violations: u64,
    /// Estimated resident heap bytes of the simulated machine at the end
    /// of the run (soNUMA runs only) — the rack4096 memory-diet metric.
    pub resident_bytes: u64,
    /// Wall ratio (threads=1 time over this run's time) and serial epoch
    /// count from a `--compare-threads` companion run, if one was made.
    pub compare_serial: Option<CompareSerial>,
    /// Cluster-wide pipeline counters (soNUMA runs only).
    pub pipeline_total: Option<PipelineStats>,
    /// Per-node pipeline counters, indexed by node id (soNUMA runs only).
    pub per_node: Vec<PipelineStats>,
    /// Per-tenant outcomes (open-loop tenancy runs only), by tenant id.
    pub tenants: Vec<TenantOutcome>,
    /// Fabric congestion counters (soNUMA runs only).
    pub fabric: Option<FabricSummary>,
    /// Successful completions per 1 µs of simulated time, indexed by
    /// microsecond — the recovery-time raw data. Populated only when the
    /// spec injects faults; empty otherwise.
    pub ok_bins_1us: Vec<u64>,
    /// Fault-injection outcome (soNUMA runs under a non-empty `[faults]`
    /// section only).
    pub faults: Option<FaultOutcome>,
    /// Flight-recorder outcome (soNUMA runs under a non-empty `[trace]`
    /// section only).
    pub trace: Option<TraceOutcome>,
    /// KV-service outcome (runs under a non-empty `[kv]` section only —
    /// all backends, unlike the soNUMA-only sections above).
    pub kv: Option<KvOutcome>,
}

/// What the flight recorder captured during a traced run.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// Sampling cadence in simulated microseconds.
    pub interval_us: f64,
    /// Recorder ring tallies (samples captured and overwritten).
    pub summary: sonuma_trace::TraceSummary,
    /// `(window, tenant)` samples from the open-loop driver (0 for
    /// closed-loop runs).
    pub tenant_samples: u64,
    /// The rendered JSON-lines trace (what `--trace-out` writes).
    pub text: String,
}

/// Wall-clock comparison against a `--threads 1` companion run of the
/// same spec (the `--compare-threads` mode). Simulated metrics are
/// byte-identical by the determinism contract — only host time and the
/// epoch structure differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareSerial {
    /// Wall seconds of the single-thread run.
    pub wall_secs: f64,
    /// Serial wall time over this run's wall time (> 1 means the shards
    /// paid off).
    pub wall_ratio: f64,
    /// Epochs the single-shard engine ran — equal to the sharded
    /// `epochs`.
    pub epochs: u64,
}

impl BackendRun {
    /// Each tenant's delivered fraction (achieved / offered), skipping
    /// tenants that offered nothing. This is the allocation vector the
    /// fairness index is computed over: under a feasible load every
    /// entry is 1; under overload the scheduler's split shows.
    pub fn delivered_fractions(&self) -> Vec<f64> {
        self.tenants
            .iter()
            .filter(|t| t.offered > 0)
            .map(|t| t.ops as f64 / t.offered as f64)
            .collect()
    }

    /// Jain's fairness index over [`BackendRun::delivered_fractions`].
    pub fn jain_fairness(&self) -> f64 {
        jain_index(&self.delivered_fractions())
    }

    /// The merged arrival-to-completion histogram of every tenant in
    /// `class` (`None` when no tenant of that class exists).
    pub fn class_histogram(&self, class: SloClass) -> Option<LatencyHistogram> {
        let mut hist = LatencyHistogram::new();
        let mut any = false;
        for t in self.tenants.iter().filter(|t| t.class == class) {
            hist.merge_from(&t.hist);
            any = true;
        }
        any.then_some(hist)
    }
}

/// One executed scenario: the spec plus one run per backend.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The spec that was executed.
    pub spec: ScenarioSpec,
    /// One entry per requested backend, in [`super::BackendSel::kinds`] order.
    pub runs: Vec<BackendRun>,
}

enum BackendInstance {
    Sonuma(Box<SonumaBackend>),
    Rdma(Box<RdmaBackend>),
    Tcp(Box<TcpBackend>),
}

impl BackendInstance {
    fn build(spec: &ScenarioSpec, kind: BackendKind) -> BackendInstance {
        match kind {
            BackendKind::Sonuma => {
                let mut config = match spec.platform {
                    PlatformSpec::Hardware => MachineConfig::simulated_hardware(spec.nodes),
                    PlatformSpec::Dev => MachineConfig::dev_platform(spec.nodes),
                };
                config.fabric = spec.topology.to_config(spec.nodes);
                config.qp_entries = spec.qp_entries;
                if let Some(f) = &spec.faults {
                    // `instantiate` returns None for zero-count sections,
                    // leaving the fault-free fast path untouched.
                    config.fabric.faults = f.instantiate(&config.fabric.topology);
                }
                if let Some(tn) = &spec.tenancy {
                    config.sched_policy = tn.scheduler;
                }
                let mut backend =
                    SonumaBackend::with_threads(config, spec.segment_bytes, spec.threads);
                if let Some(tn) = &spec.tenancy {
                    // Every tenant gets a dedicated QP on its home node,
                    // registered under its weight and SLO class so the
                    // RGP's QoS scheduler arbitrates real queues.
                    for t in 0..tn.tenants {
                        let class = tenant_class(t, tn.tenants);
                        backend.register_tenant_channel(
                            NodeId((t % spec.nodes) as u16),
                            (t / spec.nodes) as u32,
                            TenantId(t as u32),
                            class_weight(tn.weights, class),
                            class,
                        );
                    }
                }
                BackendInstance::Sonuma(Box::new(backend))
            }
            BackendKind::Rdma => {
                let mut b = Box::new(RdmaBackend::connectx3(spec.nodes, spec.segment_bytes));
                // Thread-count hint: the modeled baselines have no internal
                // parallelism and ignore it (default trait impl).
                b.set_threads(spec.threads);
                BackendInstance::Rdma(b)
            }
            BackendKind::Tcp => {
                let mut b = Box::new(TcpBackend::calxeda(spec.nodes, spec.segment_bytes));
                b.set_threads(spec.threads);
                BackendInstance::Tcp(b)
            }
        }
    }

    fn as_dyn(&mut self) -> &mut dyn RemoteBackend {
        match self {
            BackendInstance::Sonuma(b) => b.as_mut(),
            BackendInstance::Rdma(b) => b.as_mut(),
            BackendInstance::Tcp(b) => b.as_mut(),
        }
    }
}

/// Deterministic per-node request generator.
struct RequestGen {
    rng: DetRng,
    issued: u64,
}

impl RequestGen {
    fn next(&mut self, spec: &ScenarioSpec, node: usize) -> RemoteRequest {
        let i = self.issued;
        self.issued += 1;
        let slots = (spec.segment_bytes - spec.op_bytes) / 64;
        let peer = |rng: &mut DetRng| {
            let d = rng.below(spec.nodes as u64 - 1);
            let d = if d >= node as u64 { d + 1 } else { d };
            NodeId(d as u16)
        };
        match spec.workload {
            WorkloadKind::UniformRead => {
                let dst = peer(&mut self.rng);
                let offset = self.rng.below(slots + 1) * 64;
                RemoteRequest::read(dst, offset, spec.op_bytes)
            }
            WorkloadKind::NeighborRead => {
                let dst = NodeId(((node + 1) % spec.nodes) as u16);
                let offset = (i * spec.op_bytes) % (slots * 64).max(64);
                RemoteRequest::read(dst, offset / 64 * 64, spec.op_bytes)
            }
            WorkloadKind::Mixed => {
                let dst = peer(&mut self.rng);
                let offset = self.rng.below(slots + 1) * 64;
                if self.rng.chance(spec.read_fraction) {
                    RemoteRequest::read(dst, offset, spec.op_bytes)
                } else {
                    let fill = (node as u8) ^ (i as u8) ^ 0xA5;
                    RemoteRequest::write(dst, offset, vec![fill; spec.op_bytes as usize])
                }
            }
        }
    }
}

/// What the drive loop remembers about a posted operation until it
/// completes.
struct Posted {
    /// Who issued it: the tenant (open-loop sources) or the node (closed
    /// loop).
    owner: usize,
    /// The picosecond its latency counts from: the post (closed loop) or
    /// the arrival (open loop, so software queueing is included).
    since_ps: u64,
    /// Payload bytes it moves.
    bytes: u64,
    op: RemoteOp,
}

/// token -> posted operation, per posting node (tokens are unique per
/// node across channels). Filled at post, drained at completion, never
/// iterated, so the HashMap order cannot leak into the results.
type Pending = Vec<HashMap<u64, Posted>>;

/// What a source still has to do once the backend is idle with nothing
/// in flight.
enum Idle {
    /// Requests that could not be posted yet; keep turning the loop.
    Waiting,
    /// Nothing until the arrival at this picosecond; jump the clock there.
    Until(u64),
    /// Every request has been issued and completed.
    Done,
}

/// A request stream the drive loop runs to completion: the closed
/// per-node window ([`ClosedSource`]) or open-loop tenant arrivals, raw
/// or through the KV plane ([`TenantSource`]).
trait Source: Sized {
    /// Materializes every request that is due at `now_ps`.
    fn offer(&mut self, _now_ps: u64) {}

    /// Posts as much as the queues accept, recording each accepted
    /// operation in `pending`; whether anything was posted.
    fn post(&mut self, backend: &mut dyn RemoteBackend, pending: &mut Pending) -> bool;

    /// Source-side accounting of one completion observed at `now` with
    /// latency `lat` (the loop has already counted it in the run totals).
    fn completed(&mut self, _p: &Posted, _c: &RemoteCompletion, _now: SimTime, _lat: SimTime) {}

    /// See [`Idle`].
    fn idle(&self) -> Idle;

    /// Adds what the source knows beyond the totals the loop kept.
    fn finish(self, _run: &mut BackendRun) {}
}

fn post_failed(spec: &ScenarioSpec, e: BackendError) -> ! {
    panic!("scenario {} post failed: {e}", spec.name)
}

/// The closed loop: every node keeps `window` operations in flight until
/// it has issued `ops_per_node`. Latency is post-to-completion.
struct ClosedSource<'a> {
    spec: &'a ScenarioSpec,
    gens: Vec<RequestGen>,
    remaining: Vec<u64>,
}

impl<'a> ClosedSource<'a> {
    fn new(spec: &'a ScenarioSpec) -> Self {
        let mut root = DetRng::seed(spec.seed);
        ClosedSource {
            spec,
            gens: (0..spec.nodes)
                .map(|n| RequestGen {
                    rng: root.fork(n as u64),
                    issued: 0,
                })
                .collect(),
            remaining: vec![spec.ops_per_node; spec.nodes],
        }
    }
}

impl Source for ClosedSource<'_> {
    fn post(&mut self, backend: &mut dyn RemoteBackend, pending: &mut Pending) -> bool {
        let spec = self.spec;
        let mut posted_any = false;
        for (n, node_pending) in pending.iter_mut().enumerate() {
            while self.remaining[n] > 0 && node_pending.len() < spec.window {
                let req = self.gens[n].next(spec, n);
                let (bytes, op) = (req.len, req.op);
                match backend.post(NodeId(n as u16), req) {
                    Ok(token) => {
                        let posted = Posted {
                            owner: n,
                            since_ps: backend.now().as_ps(),
                            bytes,
                            op,
                        };
                        node_pending.insert(token, posted);
                        self.remaining[n] -= 1;
                        posted_any = true;
                    }
                    Err(BackendError::Backpressure) => break,
                    Err(e) => post_failed(spec, e),
                }
            }
        }
        posted_any
    }

    fn idle(&self) -> Idle {
        if self.remaining.iter().all(|&r| r == 0) {
            Idle::Done
        } else {
            Idle::Waiting
        }
    }
}

/// One tenant's live state inside the open-loop source.
struct TenantDriver {
    /// Identity and running tallies: what the run keeps of the tenant.
    out: TenantOutcome,
    channel: u32,
    rng: DetRng,
    arrivals: ArrivalGen,
    /// Arrived-but-not-yet-posted requests (head blocked on WQ space).
    backlog: VecDeque<(u64, RemoteRequest)>,
}

/// What an arriving tenant request asks for.
enum TenantOps {
    /// A read or write of `op_bytes` at a Zipf-sampled address on a
    /// Zipf-sampled node.
    Raw { addr: ZipfSampler, dst: ZipfSampler },
    /// A GET or PUT against the KV directory plane.
    Kv(Box<KvPlane>),
}

/// The open loop: every tenant's seeded [`ArrivalGen`] offers requests
/// up to the traffic horizon, each posted on the tenant's own channel as
/// soon as its queue accepts it. Latency is measured
/// **arrival-to-completion** — an operation stuck behind a noisy
/// neighbor's backlog accrues queueing delay even before its WQ post
/// succeeds, which is exactly the tail a tenant observes.
struct TenantSource<'a> {
    spec: &'a ScenarioSpec,
    horizon_ps: u64,
    tenants: Vec<TenantDriver>,
    ops: TenantOps,
    flow: Option<&'a mut sonuma_trace::TenantFlow>,
}

impl<'a> TenantSource<'a> {
    /// Builds the tenants of `spec` (and, for a KV spec, the directory
    /// plane, preloading every value into `backend`).
    fn new(
        spec: &'a ScenarioSpec,
        tn: &TenancySpec,
        tr: &TrafficSpec,
        backend: &mut dyn RemoteBackend,
        flow: Option<&'a mut sonuma_trace::TenantFlow>,
    ) -> Self {
        let nodes = spec.nodes;
        let mut root = DetRng::seed(spec.seed);
        let tenants = (0..tn.tenants)
            .map(|t| {
                let class = tenant_class(t, tn.tenants);
                TenantDriver {
                    out: TenantOutcome {
                        tenant: t as u32,
                        node: (t % nodes) as u16,
                        class,
                        weight: class_weight(tn.weights, class),
                        offered: 0,
                        ops: 0,
                        errors: 0,
                        hist: LatencyHistogram::new(),
                    },
                    channel: (t / nodes) as u32,
                    rng: root.fork(t as u64),
                    arrivals: ArrivalGen::new(tr.arrival, tr.rate_per_tenant, tr.burst),
                    backlog: VecDeque::new(),
                }
            })
            .collect();
        let ops = match spec.kv.as_ref().filter(|kv| !kv.is_empty()) {
            Some(kv) => TenantOps::Kv(Box::new(KvPlane::new(spec, kv, tn.tenants, backend))),
            None => {
                // Zipf support over whole-op slots; capped so the CDF
                // table stays small for huge segments (the hot set is
                // what skew is about).
                let slots = ((spec.segment_bytes - spec.op_bytes) / spec.op_bytes + 1).min(1 << 16);
                TenantOps::Raw {
                    addr: ZipfSampler::new(slots as usize, tr.zipf_addr),
                    dst: ZipfSampler::new(nodes, tr.zipf_dst),
                }
            }
        };
        TenantSource {
            spec,
            horizon_ps: (tr.duration_us * 1e6) as u64,
            tenants,
            ops,
            flow,
        }
    }
}

impl Source for TenantSource<'_> {
    fn offer(&mut self, now_ps: u64) {
        let spec = self.spec;
        for (idx, t) in self.tenants.iter_mut().enumerate() {
            while t.arrivals.peek_ps() <= now_ps {
                let Some(at) = t.arrivals.next_arrival(&mut t.rng, self.horizon_ps) else {
                    break;
                };
                let req = match &mut self.ops {
                    TenantOps::Raw { addr, dst } => {
                        let dst_rank = dst.sample(&mut t.rng);
                        let dst = if dst_rank == t.out.node as usize {
                            NodeId(((dst_rank + 1) % spec.nodes) as u16)
                        } else {
                            NodeId(dst_rank as u16)
                        };
                        let offset = addr.sample(&mut t.rng) as u64 * spec.op_bytes;
                        if t.rng.chance(spec.read_fraction) {
                            RemoteRequest::read(dst, offset, spec.op_bytes)
                        } else {
                            let fill = (idx as u8) ^ (t.out.offered as u8) ^ 0x5A;
                            RemoteRequest::write(dst, offset, vec![fill; spec.op_bytes as usize])
                        }
                    }
                    TenantOps::Kv(plane) => plane.request(idx),
                };
                t.backlog.push_back((at, req));
                t.out.offered += 1;
            }
        }
    }

    fn post(&mut self, backend: &mut dyn RemoteBackend, pending: &mut Pending) -> bool {
        let mut posted_any = false;
        for (idx, t) in self.tenants.iter_mut().enumerate() {
            while let Some((at, req)) = t.backlog.front() {
                match backend.post_on(NodeId(t.out.node), t.channel, req.clone()) {
                    Ok(token) => {
                        let posted = Posted {
                            owner: idx,
                            since_ps: *at,
                            bytes: req.len,
                            op: req.op,
                        };
                        pending[t.out.node as usize].insert(token, posted);
                        t.backlog.pop_front();
                        posted_any = true;
                    }
                    Err(BackendError::Backpressure) => break,
                    Err(e) => post_failed(self.spec, e),
                }
            }
        }
        posted_any
    }

    fn completed(&mut self, p: &Posted, c: &RemoteCompletion, now: SimTime, lat: SimTime) {
        let t = &mut self.tenants[p.owner].out;
        t.ops += 1;
        if !c.status.is_ok() {
            t.errors += 1;
            return;
        }
        t.hist.record(lat);
        if let TenantOps::Kv(plane) = &mut self.ops {
            plane.account(p, c, lat);
        }
        // The tenant sampler bins by simulated completion time, so the
        // partition-dependent poll order of the sharded backend cannot
        // leak into the trace.
        if let Some(flow) = self.flow.as_deref_mut() {
            flow.record(now, p.owner as u32, lat);
        }
    }

    fn idle(&self) -> Idle {
        if self.tenants.iter().any(|t| !t.backlog.is_empty()) {
            return Idle::Waiting;
        }
        let next = self
            .tenants
            .iter()
            .map(|t| t.arrivals.peek_ps())
            .filter(|&p| p <= self.horizon_ps)
            .min();
        next.map_or(Idle::Done, Idle::Until)
    }

    fn finish(self, run: &mut BackendRun) {
        run.tenants = self.tenants.into_iter().map(|t| t.out).collect();
        run.offered_ops = run.tenants.iter().map(|t| t.offered).sum();
        if let TenantOps::Kv(plane) = self.ops {
            run.kv = Some(plane.outcome);
        }
    }
}

/// The KV-cache service behind a [`TenantSource`]: every value is
/// preloaded at its directory placement, then arrivals become GETs (one
/// multi-line one-sided read each, payload verified byte-for-byte against
/// the deterministic value image) and PUTs (the messaging-style fill
/// path: a write pushing the full value), with Zipf-skewed hot keys and
/// repeat-read locality.
struct KvPlane {
    kv: KvSpec,
    dir: sonuma_apps::KvDirectory,
    key_sampler: ZipfSampler,
    /// Per-tenant KV decision streams (op mix, key choice, repeats),
    /// forked from the `[kv]` seed, independent of the arrival streams.
    rngs: Vec<DetRng>,
    last_key: Vec<Option<u64>>,
    outcome: KvOutcome,
}

impl KvPlane {
    fn new(
        spec: &ScenarioSpec,
        kv: &KvSpec,
        tenants: usize,
        backend: &mut dyn RemoteBackend,
    ) -> Self {
        let dir = kv
            .directory(spec.nodes, spec.segment_bytes)
            .expect("directory fit proved by validate()");
        // Preload every value image at its placement, so the first GET of
        // a never-PUT key still verifies.
        let mut image = vec![0u8; kv.value_max as usize];
        let mut classes: Vec<KvClassOutcome> = (0..dir.classes())
            .map(|c| KvClassOutcome {
                bytes: dir.class_bytes(c),
                keys: 0,
                gets: 0,
                puts: 0,
                get_hist: LatencyHistogram::new(),
                put_hist: LatencyHistogram::new(),
            })
            .collect();
        for key in 0..dir.keys() {
            let p = dir.lookup(key);
            sonuma_apps::fill_value(key, &mut image[..p.len as usize]);
            backend.write_ctx(NodeId(p.node as u16), p.offset, &image[..p.len as usize]);
            classes[dir.class_of(p.len)].keys += 1;
        }
        let mut root = DetRng::seed(kv.seed);
        KvPlane {
            kv: *kv,
            key_sampler: ZipfSampler::new(dir.keys() as usize, kv.zipf_key),
            rngs: (0..tenants).map(|t| root.fork(t as u64)).collect(),
            last_key: vec![None; tenants],
            outcome: KvOutcome {
                keys: dir.keys(),
                gets: 0,
                puts: 0,
                corrupt: 0,
                get_lines: 0,
                get_bytes: 0,
                put_bytes: 0,
                classes,
            },
            dir,
        }
    }

    /// Tenant `idx`'s next operation.
    fn request(&mut self, idx: usize) -> RemoteRequest {
        let rng = &mut self.rngs[idx];
        let is_get = rng.chance(self.kv.get_fraction);
        let key = match self.last_key[idx] {
            Some(k) if is_get && rng.chance(self.kv.repeat_prob) => k,
            _ => self.key_sampler.sample(rng) as u64,
        };
        self.last_key[idx] = Some(key);
        let p = self.dir.lookup(key);
        let dst = NodeId(p.node as u16);
        if is_get {
            RemoteRequest::read(dst, p.offset, p.len)
        } else {
            // A PUT refill pushes the value's full deterministic image,
            // so readers can never observe a torn value.
            let mut payload = vec![0u8; p.len as usize];
            sonuma_apps::fill_value(key, &mut payload);
            RemoteRequest::write(dst, p.offset, payload)
        }
    }

    /// Accounts one successful GET or PUT.
    fn account(&mut self, p: &Posted, c: &RemoteCompletion, lat: SimTime) {
        let out = &mut self.outcome;
        let class = &mut out.classes[self.dir.class_of(p.bytes)];
        if p.op == RemoteOp::Read {
            out.gets += 1;
            out.get_lines += p.bytes.div_ceil(64);
            out.get_bytes += p.bytes;
            class.gets += 1;
            class.get_hist.record(lat);
            // The payload carries the key in its header; verify the
            // whole image byte-for-byte.
            let key =
                u64::from_le_bytes(c.data.get(..8).map_or([0u8; 8], |h| h.try_into().unwrap()));
            if !sonuma_apps::verify_value(key, &c.data) {
                out.corrupt += 1;
            }
        } else {
            out.puts += 1;
            out.put_bytes += p.bytes;
            class.puts += 1;
            class.put_hist.record(lat);
        }
    }
}

/// Drives `spec`'s request source over one backend to completion: offer
/// what is due, post what the queues accept, `advance`, account every
/// completion, then terminate or jump the idle clock to the next arrival.
/// This is the only loop that turns a backend for a scenario.
///
/// A completion is timestamped with `backend.now()` at the poll following
/// the `advance` burst that executed it, so latencies are exact for the
/// one-event-per-call baselines and late by at most one burst's simulated
/// span (64 engine events) for soNUMA. Only successful operations shape
/// the latency distribution and the 1 µs recovery bins — an abort is an
/// error, not a (meaningless) fast completion that would flatter the
/// tail.
fn drive(
    spec: &ScenarioSpec,
    backend: &mut dyn RemoteBackend,
    flow: Option<&mut sonuma_trace::TenantFlow>,
) -> BackendRun {
    let started = Instant::now();
    match (&spec.tenancy, &spec.traffic) {
        (Some(tn), Some(tr)) => {
            let source = TenantSource::new(spec, tn, tr, backend, flow);
            drive_source(spec, backend, source, started)
        }
        _ => drive_source(spec, backend, ClosedSource::new(spec), started),
    }
}

fn drive_source(
    spec: &ScenarioSpec,
    backend: &mut dyn RemoteBackend,
    mut source: impl Source,
    started: Instant,
) -> BackendRun {
    let mut pending: Pending = (0..spec.nodes).map(|_| HashMap::new()).collect();
    let mut hist = LatencyHistogram::new();
    let (mut ops, mut payload_bytes, mut errors) = (0u64, 0u64, 0u64);
    let track_bins = spec.faults.as_ref().is_some_and(|f| !f.is_empty());
    let mut ok_bins: Vec<u64> = Vec::new();

    loop {
        source.offer(backend.now().as_ps());
        let posted_any = source.post(backend, &mut pending);
        let more = backend.advance();
        let now = backend.now();
        for (n, node_pending) in pending.iter_mut().enumerate() {
            for c in backend.poll(NodeId(n as u16)) {
                let p = node_pending
                    .remove(&c.token)
                    .expect("completion for unknown token");
                let lat = now.saturating_sub(SimTime::from_ps(p.since_ps));
                ops += 1;
                if c.status.is_ok() {
                    hist.record(lat);
                    payload_bytes += p.bytes;
                    if track_bins {
                        record_ok_bin(&mut ok_bins, now);
                    }
                } else {
                    errors += 1;
                }
                source.completed(&p, &c, now, lat);
            }
        }
        let inflight: usize = pending.iter().map(HashMap::len).sum();
        if !more && !posted_any && inflight == 0 {
            match source.idle() {
                Idle::Waiting => {}
                Idle::Until(ps) => backend.advance_clock_to(SimTime::from_ps(ps)),
                Idle::Done => break,
            }
        }
    }

    let sim_time = backend.now();
    let wall_secs = started.elapsed().as_secs_f64();
    let events = backend.events_processed();
    let mut run = BackendRun {
        backend: backend.label().to_string(),
        ops,
        offered_ops: 0,
        payload_bytes,
        errors,
        sim_time,
        ops_per_sec: sonuma_sim::stats::ops_per_sec(ops, sim_time),
        gbps: sonuma_sim::stats::gbps(payload_bytes, sim_time),
        p50: hist.percentile(0.50),
        p99: hist.percentile(0.99),
        p999: hist.percentile(0.999),
        mean: hist.mean(),
        events,
        wall_secs,
        wall_events_per_sec: if wall_secs > 0.0 {
            events as f64 / wall_secs
        } else {
            0.0
        },
        // Everything from here to `fabric`, plus `faults` and `trace`, is
        // attached by `run_spec` (most of it for soNUMA runs only).
        wall_packets_per_sec: 0.0,
        wall_construct_secs: 0.0,
        threads: 1,
        shards: 1,
        epochs: 0,
        shard_events: Vec::new(),
        cut_links: 0,
        lookahead: None,
        pair_bound_violations: 0,
        resident_bytes: 0,
        compare_serial: None,
        pipeline_total: None,
        per_node: Vec::new(),
        tenants: Vec::new(),
        fabric: None,
        ok_bins_1us: ok_bins,
        faults: None,
        trace: None,
        kv: None,
    };
    source.finish(&mut run);
    run
}

/// Recovery analysis over the 1 µs goodput bins:
/// `(prefault_ops_per_us, recovery_us, recovered)`.
///
/// The pre-fault rate is the mean successful-completion rate over every
/// whole microsecond before the onset; recovery is the first bin at or
/// after the onset that reaches 90 % of it. Plans without a scheduled
/// onset (pure degradation) trivially count as recovered — there is no
/// event to recover *from*.
fn recovery_metrics(bins: &[u64], onset_us: Option<f64>) -> (f64, Option<f64>, bool) {
    let Some(onset) = onset_us else {
        return (0.0, None, true);
    };
    let onset_bin = onset as usize;
    if onset_bin == 0 {
        return (0.0, None, false);
    }
    let pre_window = onset_bin.min(bins.len());
    let pre: u64 = bins[..pre_window].iter().sum();
    let pre_rate = pre as f64 / onset_bin as f64;
    if pre_rate <= 0.0 {
        return (0.0, None, false);
    }
    let target = pre_rate * 0.9;
    for (i, &b) in bins.iter().enumerate().skip(onset_bin) {
        if b as f64 >= target {
            return (pre_rate, Some((i + 1 - onset_bin) as f64), true);
        }
    }
    (pre_rate, None, false)
}

/// Accounts one successful completion at simulated time `now` into the
/// 1 µs recovery bins.
fn record_ok_bin(bins: &mut Vec<u64>, now: SimTime) {
    let us = (now.as_ps() / 1_000_000) as usize;
    if bins.len() <= us {
        bins.resize(us + 1, 0);
    }
    bins[us] += 1;
}

/// Executes one spec over every backend it requests: one build and one
/// drive per backend. The wall figures are that drive's; wall
/// performance is measured by the repo's `benchmark/` package.
///
/// # Panics
///
/// Panics if the spec fails [`ScenarioSpec::validate`] or a post is
/// rejected for a non-backpressure reason (both indicate harness bugs —
/// specs are validated at load time).
pub fn run_spec(spec: &ScenarioSpec) -> ScenarioResult {
    spec.validate().expect("spec validated at load time");
    let trace_spec = spec.trace.as_ref().filter(|t| !t.is_empty());
    let mut runs = Vec::new();
    for kind in spec.backend.kinds() {
        let built_at = std::time::Instant::now();
        let mut instance = BackendInstance::build(spec, kind);
        let construct_secs = built_at.elapsed().as_secs_f64();
        // Only the soNUMA machine carries a flight recorder; the modeled
        // baselines have no fabric or pipelines to sample.
        let traced = trace_spec.filter(|_| kind == BackendKind::Sonuma);
        if let (Some(t), BackendInstance::Sonuma(b)) = (traced, &mut instance) {
            b.arm_trace(&t.config());
        }
        let mut flow = traced
            .filter(|_| spec.tenancy.is_some())
            .map(|t| sonuma_trace::TenantFlow::new(us_to_sim(t.interval_us)));
        let mut run = drive(spec, instance.as_dyn(), flow.as_mut());
        run.threads = spec.threads;
        run.wall_construct_secs = construct_secs;
        if let (Some(t), BackendInstance::Sonuma(b)) = (traced, &instance) {
            let meta = sonuma_trace::TraceMeta {
                scenario: spec.name.clone(),
                backend: run.backend.clone(),
                nodes: spec.nodes as u64,
                interval_ps: us_to_sim(t.interval_us).as_ps(),
            };
            let recorder = b.trace();
            run.trace = Some(TraceOutcome {
                interval_us: t.interval_us,
                summary: recorder.map(|r| r.summary()).unwrap_or_default(),
                tenant_samples: flow.as_ref().map_or(0, |f| f.sample_count()),
                text: sonuma_trace::render_jsonl(&meta, recorder, flow.as_ref()),
            });
        }
        if let BackendInstance::Sonuma(b) = &instance {
            run.shards = b.num_shards();
            run.epochs = b.epochs();
            run.shard_events = b.shard_events();
            run.cut_links = b.cut_links();
            run.lookahead = Some(b.lookahead());
            run.pair_bound_violations = b.pair_bound_violations();
            run.resident_bytes = b.resident_bytes();
            run.per_node = (0..spec.nodes)
                .map(|n| b.pipeline_stats(NodeId(n as u16)))
                .collect();
            // Fold the cluster total from the per-node snapshots already
            // taken: one O(N) pass, no re-snapshotting per counter.
            let mut total = PipelineStats::default();
            for stats in &run.per_node {
                total.merge_from(stats);
            }
            run.pipeline_total = Some(total);
            let fabric = b.fabric();
            let links = fabric.link_stats();
            let mut hot: Vec<LinkStats> = links.clone();
            hot.sort_by_key(|l| (std::cmp::Reverse(l.bytes), l.src, l.dst));
            hot.truncate(MAX_REPORTED_LINKS);
            run.fabric = Some(FabricSummary {
                bytes: fabric.bytes_sent(),
                packets: fabric.packets_sent(),
                credit_stalls: fabric.credit_stalls(),
                lane_packets: fabric.lane_packets(),
                links_observed: links.len(),
                hot_links: hot,
            });
            if let Some(plan) = &b.config().fabric.faults {
                let fstats = fabric.fault_stats();
                let onset_us = spec.faults.as_ref().and_then(FaultSpec::onset_us);
                let (prefault, recovery_us, recovered) =
                    recovery_metrics(&run.ok_bins_1us, onset_us);
                let ok_ops = run.ops - run.errors;
                let denom = run.offered_ops.max(run.ops).max(1);
                run.faults = Some(FaultOutcome {
                    links_degraded: plan.links.iter().filter(|l| l.kill_at.is_none()).count(),
                    links_killed: plan.links.iter().filter(|l| l.kill_at.is_some()).count(),
                    nodes_crashed: plan.nodes.len(),
                    dropped: fstats.dropped,
                    corrupted: fstats.corrupted,
                    rerouted: fstats.rerouted,
                    unreachable: fstats.unreachable,
                    crashes: b.total_crashes(),
                    crash_drops: b.total_crash_drops(),
                    rgp_timeouts: total.rgp_timeouts,
                    rgp_retransmits: total.rgp_retransmits,
                    rrpp_corrupt_drops: total.rrpp_corrupt_drops,
                    aborted: run.errors,
                    goodput_fraction: ok_ops as f64 / denom as f64,
                    onset_us,
                    prefault_ops_per_us: prefault,
                    recovery_us,
                    recovered,
                    gold_p99_ns: run
                        .class_histogram(SloClass::Gold)
                        .map(|h| h.percentile(0.99).as_ns_f64()),
                    bronze_p99_ns: run
                        .class_histogram(SloClass::Bronze)
                        .map(|h| h.percentile(0.99).as_ns_f64()),
                });
            }
        }
        if let Some(fabric) = &run.fabric {
            if run.wall_secs > 0.0 {
                run.wall_packets_per_sec = fabric.packets as f64 / run.wall_secs;
            }
        }
        runs.push(run);
    }
    ScenarioResult {
        spec: spec.clone(),
        runs,
    }
}

#[doc(hidden)] // frozen-benchmark residue: ROADMAP item 9 deletes
pub fn run_spec_once(spec: &ScenarioSpec) -> ScenarioResult {
    run_spec(spec)
}

/// Executes a list of specs in order.
pub fn run_specs(specs: &[ScenarioSpec]) -> Vec<ScenarioResult> {
    specs.iter().map(run_spec).collect()
}

/// Executes `spec` twice — at `threads = 1` and at the spec's own thread
/// count (forced to 4 when the spec says 1) — and attaches the serial
/// run's wall time, the wall ratio, and the serial epoch count to each
/// backend run (the `--compare-threads` mode).
///
/// # Panics
///
/// Panics if the two runs disagree on any simulated metric: that would
/// be a determinism break, which the bench must never paper over.
pub fn run_spec_compare_threads(spec: &ScenarioSpec) -> ScenarioResult {
    let mut serial_spec = spec.clone();
    serial_spec.threads = 1;
    let mut sharded_spec = spec.clone();
    if sharded_spec.threads == 1 {
        sharded_spec.threads = 4;
    }
    let serial = run_spec(&serial_spec);
    let mut result = run_spec(&sharded_spec);
    for (run, srun) in result.runs.iter_mut().zip(&serial.runs) {
        assert_eq!(
            (run.events, run.ops, run.sim_time, run.epochs),
            (srun.events, srun.ops, srun.sim_time, srun.epochs),
            "{}: serial and sharded runs diverged",
            spec.name
        );
        run.compare_serial = Some(CompareSerial {
            wall_secs: srun.wall_secs,
            wall_ratio: if run.wall_secs > 0.0 {
                srun.wall_secs / run.wall_secs
            } else {
                0.0
            },
            epochs: srun.epochs,
        });
    }
    result
}
