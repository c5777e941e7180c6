//! Config-driven scenario harness: declarative cluster/workload specs,
//! executed over every [`RemoteBackend`], reported as versioned
//! machine-readable `BENCH.json`.
//!
//! A [`ScenarioSpec`] names everything an experiment needs — node count,
//! fabric topology, platform, backend set, workload mix, operation size,
//! per-node operation count, issue window, and the RNG seed — in a flat
//! TOML file (`key = value` lines only; see [`ScenarioSpec::to_toml`]).
//! The `sonuma-bench scenario` binary sweeps specs, drives each across the
//! requested backends through the transport-agnostic `RemoteBackend`
//! contract, and emits one report containing simulated throughput,
//! p50/p99 latency, per-node RMC pipeline counters (soNUMA runs), and the
//! host-side events/sec that the `bench-smoke` CI lane gates on.
//!
//! Everything except the `wall_*` fields is a pure function of the spec:
//! two runs of the same spec + seed render byte-identical JSON once those
//! fields are stripped, which the determinism test under `tests/` asserts.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::time::Instant;

use sonuma_baselines::{RdmaBackend, TcpBackend};
use sonuma_core::{
    MachineConfig, NodeId, PipelineStats, RemoteBackend, RemoteRequest, SchedPolicy, SloClass,
    SonumaBackend, TenantId,
};
use sonuma_fabric::{FabricConfig, FaultPlan, LinkFault, LinkStats, NodeFault, Topology};
use sonuma_sim::stats::LatencyHistogram;
use sonuma_sim::{DetRng, SimTime};

use crate::json::Json;
use crate::trafficgen::{jain_index, ArrivalGen, ArrivalKind, ZipfSampler};

/// Version tag of the report format (bump on breaking schema changes).
/// v2 added the `per_tenant` and `fabric` run sections (multi-tenant
/// open-loop scenarios) and the `offered_ops`/`lat_p999_ns` run fields.
/// v3 added `wall_packets_per_sec` (fabric packets over host wall time —
/// the batching-invariant throughput the bench-smoke lane gates alongside
/// events/sec) and redefined `events` as *logical* events: line
/// injections folded into one burst event still count individually, so
/// the metric is comparable across `rgp_burst_lines` settings.
/// v4 added the `threads` spec field (`[execution]` section) and the
/// per-run `sharding` section (thread/shard counts, conservative epochs,
/// per-shard event counts and wall rates). Everything outside `wall_*`
/// fields and the `sharding` section is independent of the thread count —
/// the parallel-equivalence CI gate diffs two reports with those
/// stripped (see [`equivalence_diff`]).
/// v5 added the `qp_entries` spec field (`[execution]` section, WQ/CQ
/// ring depth) and grew the `sharding` section with the sharded
/// engine's metadata: `cut_links`, `lookahead_ns` (the engine's
/// lookahead; a min/max pair of keys while the engine kept one bound per
/// shard pair), `pair_bound_violations` (always 0
/// when the conservative bound holds), `resident_bytes` (the modeled
/// machine's resident-heap estimate), and the optional `compare_serial`
/// object written by `--compare-threads` (serial wall time, wall ratio,
/// serial epoch count).
/// v6 added the `[faults]` spec section ([`FaultSpec`]) and the per-run
/// `faults` section ([`FaultOutcome`]): injected link/node fault counts,
/// fabric drop/corrupt/reroute counters, source-side recovery counters
/// (timeouts, retransmits, aborts), goodput under failure, and the
/// 1 µs-binned recovery time back to ≥ 90 % of the pre-fault completion
/// rate. Latency histograms now record only successful completions
/// (identical on fault-free runs, which complete everything with Ok).
/// v7 added the `[trace]` spec section ([`TraceSpec`]) and the per-run
/// `trace` section: flight-recorder sample counts, ring drop tallies,
/// and the recorder's wall-clock overhead versus the untraced timing
/// repetitions. With tracing off the section is absent and every other
/// byte matches a v6 report body.
/// v8 added the `speculate_epochs` spec field (`[execution]` section,
/// speculative run-ahead depth `K`), the per-run `wall_construct_secs`
/// field (world-construction wall time, reported separately from drive
/// time so the parallel-construction win is gated on its own), and the
/// `sharding.speculation` object (`committed`/`rolled_back` clock-bet
/// counts and `rollback_ratio`). Speculation counters depend on host
/// scheduling, so they live in the equivalence-stripped `sharding`
/// section; everything outside it is byte-identical between `K = 0` and
/// any `K > 0`.
/// v9 added the `[kv]` spec section ([`KvSpec`]) and the per-run `kv`
/// section: the rack-scale KV-cache service scenario. The section
/// carries directory-plane counts (keys, GET/PUT tallies, lines moved,
/// verification failures — always 0), per-value-size-class GET/PUT
/// p50/p99 rows, and per-SLO-class rows (gold/silver/bronze GET tails
/// plus achieved-vs-offered throughput). Specs without a `[kv]` section
/// — or with `keys = 0` — render byte-identically to a v8 report body.
pub const REPORT_SCHEMA: &str = "sonuma-bench.scenario/v9";

/// A transport a scenario runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The full soNUMA machine (`SonumaBackend`).
    Sonuma,
    /// The calibrated ConnectX-3-class RDMA model.
    Rdma,
    /// The calibrated Calxeda TCP/IP model.
    Tcp,
}

impl BackendKind {
    fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sonuma => "sonuma",
            BackendKind::Rdma => "rdma",
            BackendKind::Tcp => "tcp",
        }
    }
}

/// Which backends a spec requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSel {
    /// One specific transport.
    One(BackendKind),
    /// soNUMA, RDMA and TCP (the Table 2 trio).
    All,
}

impl BackendSel {
    /// The concrete backend list, in fixed report order.
    pub fn kinds(self) -> Vec<BackendKind> {
        match self {
            BackendSel::One(k) => vec![k],
            BackendSel::All => vec![BackendKind::Sonuma, BackendKind::Rdma, BackendKind::Tcp],
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            BackendSel::All => "all",
            BackendSel::One(k) => k.as_str(),
        }
    }
}

/// Fabric arrangement for soNUMA runs (the modeled baselines have no
/// topology; they ignore this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Full crossbar, flat inter-node latency (Table 1).
    Crossbar,
    /// 2D torus, `w × h` nodes.
    Torus2d(usize, usize),
    /// 3D torus, `x × y × z` nodes.
    Torus3d(usize, usize, usize),
}

impl TopologySpec {
    fn to_config(self, nodes: usize) -> FabricConfig {
        match self {
            TopologySpec::Crossbar => FabricConfig::paper_crossbar(nodes),
            TopologySpec::Torus2d(w, h) => FabricConfig::torus2d(w, h),
            TopologySpec::Torus3d(x, y, z) => FabricConfig::torus3d(x, y, z),
        }
    }

    fn render(self) -> String {
        match self {
            TopologySpec::Crossbar => "crossbar".to_string(),
            TopologySpec::Torus2d(w, h) => format!("torus2d:{w}x{h}"),
            TopologySpec::Torus3d(x, y, z) => format!("torus3d:{x}x{y}x{z}"),
        }
    }
}

/// Timing platform for soNUMA runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformSpec {
    /// The paper's simulated-hardware platform (Table 1).
    Hardware,
    /// The Xen-based development platform (§7.1).
    Dev,
}

/// Request stream shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Every node reads random offsets on uniformly random peers.
    UniformRead,
    /// Every node streams sequential reads from its ring successor.
    NeighborRead,
    /// Uniform destinations; each operation is a read with probability
    /// `read_fraction`, otherwise a write.
    Mixed,
}

impl WorkloadKind {
    fn as_str(self) -> &'static str {
        match self {
            WorkloadKind::UniformRead => "uniform-read",
            WorkloadKind::NeighborRead => "neighbor-read",
            WorkloadKind::Mixed => "mixed",
        }
    }
}

/// How tenant scheduling weights are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightMode {
    /// Every tenant gets weight 1.
    Uniform,
    /// Weight follows the SLO class: gold 8, silver 4, bronze 1.
    Tiered,
}

impl WeightMode {
    fn as_str(self) -> &'static str {
        match self {
            WeightMode::Uniform => "uniform",
            WeightMode::Tiered => "tiered",
        }
    }

    fn parse(s: &str) -> Result<WeightMode, String> {
        match s {
            "uniform" => Ok(WeightMode::Uniform),
            "tiered" => Ok(WeightMode::Tiered),
            other => Err(format!("unknown weights {other:?} (uniform|tiered)")),
        }
    }
}

/// The `[tenants]` section: how many tenants share the cluster and how
/// the RGP arbitrates between their queue pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenancySpec {
    /// Total tenants across the cluster; tenant `t` is homed on node
    /// `t % nodes` (channel `t / nodes`) and gets its own queue pair
    /// there. SLO classes are assigned in contiguous thirds by id
    /// (gold, then silver, then bronze).
    pub tenants: usize,
    /// The RGP's QoS policy.
    pub scheduler: SchedPolicy,
    /// Weight assignment.
    pub weights: WeightMode,
}

/// The `[traffic]` section: the open-loop arrival process every tenant
/// drives (replaces the closed-loop `ops_per_node`/`window` stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Arrival-process shape.
    pub arrival: ArrivalKind,
    /// Offered load per tenant, operations per simulated second.
    pub rate_per_tenant: f64,
    /// Arrival horizon in simulated microseconds (completions drain
    /// after it).
    pub duration_us: f64,
    /// Zipf skew over remote addresses (0 = uniform).
    pub zipf_addr: f64,
    /// Zipf skew over destination nodes (0 = uniform; >0 concentrates
    /// load on low-numbered nodes — incast).
    pub zipf_dst: f64,
    /// Arrivals per burst (bursty process only).
    pub burst: u32,
}

/// The `[faults]` section: a count-based description of what goes wrong
/// in a run. The concrete links and nodes are sampled from a dedicated
/// [`DetRng`] stream seeded by `seed` alone, so the same section produces
/// the same [`FaultPlan`] under any workload seed, thread count, or shard
/// partition — the plan is a pure function of `(spec, topology)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault stream (link/node sampling and every per-packet
    /// drop/corrupt draw). Independent of the workload seed.
    pub seed: u64,
    /// Directed links degraded for the whole run.
    pub degraded_links: usize,
    /// Per-packet drop probability on each degraded link.
    pub drop_prob: f64,
    /// Per-packet corruption probability on each degraded link.
    pub corrupt_prob: f64,
    /// Serialization multiplier on degraded links (`>= 1`).
    pub derate: f64,
    /// Flow-control credits lost per lane on degraded links.
    pub credit_loss: usize,
    /// Directed links killed outright at `kill_at_us`.
    pub killed_links: usize,
    /// Simulated microsecond the killed links die.
    pub kill_at_us: f64,
    /// Simulated microsecond the killed links come back (0 = never).
    pub revive_at_us: f64,
    /// Nodes that crash at `crash_at_us`, losing all RMC state.
    pub crashed_nodes: usize,
    /// Simulated microsecond the crashing nodes go down.
    pub crash_at_us: f64,
    /// Simulated microsecond the crashed nodes restart (cold caches).
    pub restart_at_us: f64,
    /// Base retransmission deadline in microseconds (doubles per retry).
    pub timeout_us: f64,
    /// Retransmission attempts before an operation aborts.
    pub max_retries: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 1,
            degraded_links: 0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            derate: 1.0,
            credit_loss: 0,
            killed_links: 0,
            kill_at_us: 20.0,
            revive_at_us: 0.0,
            crashed_nodes: 0,
            crash_at_us: 30.0,
            restart_at_us: 50.0,
            timeout_us: 10.0,
            max_retries: 3,
        }
    }
}

fn us_to_sim(us: f64) -> SimTime {
    SimTime::from_ps((us * 1e6) as u64)
}

impl FaultSpec {
    /// Whether the section injects nothing (a zero-count `[faults]` table
    /// must behave byte-identically to no section at all).
    pub fn is_empty(&self) -> bool {
        self.degraded_links == 0 && self.killed_links == 0 && self.crashed_nodes == 0
    }

    /// The simulated microsecond the first scheduled fault fires, `None`
    /// for degradation-only plans (which have no onset — the whole run is
    /// degraded).
    pub fn onset_us(&self) -> Option<f64> {
        let mut onset: Option<f64> = None;
        if self.killed_links > 0 {
            onset = Some(self.kill_at_us);
        }
        if self.crashed_nodes > 0 {
            onset = Some(onset.map_or(self.crash_at_us, |o| o.min(self.crash_at_us)));
        }
        onset
    }

    /// Samples the concrete [`FaultPlan`] for `topology`: distinct killed
    /// links first, then distinct degraded links disjoint from them, then
    /// distinct crashing nodes — all from one seeded stream. Counts are
    /// clamped to what the topology has. Returns `None` when the section
    /// is empty, preserving the fault-free fast path.
    pub fn instantiate(&self, topology: &Topology) -> Option<FaultPlan> {
        if self.is_empty() {
            return None;
        }
        let nodes = topology.nodes();
        let mut directed: Vec<(NodeId, NodeId)> = Vec::new();
        for n in 0..nodes {
            let src = NodeId(n as u16);
            for dst in topology.neighbors(src) {
                directed.push((src, dst));
            }
        }
        let mut rng = DetRng::seed(self.seed);
        let mut taken = vec![false; directed.len()];
        let draw_links = |rng: &mut DetRng, taken: &mut Vec<bool>, count: usize| {
            let free = taken.iter().filter(|&&t| !t).count();
            let mut picked = Vec::new();
            for _ in 0..count.min(free) {
                loop {
                    let i = rng.below(directed.len() as u64) as usize;
                    if !taken[i] {
                        taken[i] = true;
                        picked.push(directed[i]);
                        break;
                    }
                }
            }
            picked
        };
        let mut plan = FaultPlan::new(self.seed);
        plan.timeout = us_to_sim(self.timeout_us);
        plan.max_retries = self.max_retries;
        for (src, dst) in draw_links(&mut rng, &mut taken, self.killed_links) {
            let mut f = LinkFault::on(src, dst);
            f.kill_at = Some(us_to_sim(self.kill_at_us));
            f.revive_at = (self.revive_at_us > 0.0).then(|| us_to_sim(self.revive_at_us));
            plan.links.push(f);
        }
        for (src, dst) in draw_links(&mut rng, &mut taken, self.degraded_links) {
            let mut f = LinkFault::on(src, dst);
            f.drop_prob = self.drop_prob;
            f.corrupt_prob = self.corrupt_prob;
            f.derate = self.derate;
            f.credit_loss = self.credit_loss;
            plan.links.push(f);
        }
        let mut crashed = vec![false; nodes];
        for _ in 0..self.crashed_nodes.min(nodes) {
            loop {
                let n = rng.below(nodes as u64) as usize;
                if !crashed[n] {
                    crashed[n] = true;
                    plan.nodes.push(NodeFault {
                        node: NodeId(n as u16),
                        crash_at: us_to_sim(self.crash_at_us),
                        restart_at: us_to_sim(self.restart_at_us),
                    });
                    break;
                }
            }
        }
        Some(plan)
    }
}

/// The `[trace]` section: flight-recorder sampling for soNUMA runs. A
/// `None` spec — or a section with `interval_us = 0` — arms nothing and
/// runs the exact untraced code paths, so every baseline report stays
/// byte-identical. With tracing on, the recorder samples link counters in
/// the commit merge, node counters at quantum boundaries, and tenant
/// completions in the open-loop driver, all keyed by simulated time — the
/// emitted trace is byte-identical across `--threads`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Sampling cadence in simulated microseconds (0 disables tracing).
    pub interval_us: f64,
    /// Link-sample ring capacity.
    pub link_capacity: usize,
    /// Node-sample ring capacity.
    pub node_capacity: usize,
    /// Fault-event ring capacity.
    pub event_capacity: usize,
}

impl Default for TraceSpec {
    fn default() -> Self {
        let defaults = sonuma_trace::TraceConfig::every(SimTime::from_us(5));
        TraceSpec {
            interval_us: 5.0,
            link_capacity: defaults.link_capacity,
            node_capacity: defaults.node_capacity,
            event_capacity: defaults.event_capacity,
        }
    }
}

impl TraceSpec {
    /// Whether the section arms nothing (an `interval_us = 0` `[trace]`
    /// table must behave byte-identically to no section at all).
    pub fn is_empty(&self) -> bool {
        self.interval_us == 0.0
    }

    /// The recorder configuration this section describes.
    pub fn config(&self) -> sonuma_trace::TraceConfig {
        sonuma_trace::TraceConfig {
            interval: us_to_sim(self.interval_us),
            link_capacity: self.link_capacity,
            node_capacity: self.node_capacity,
            event_capacity: self.event_capacity,
        }
    }
}

/// The `[kv]` section: the rack-scale KV-cache service workload (§2.1,
/// §8). Keys map to `(node, offset, len)` through the deterministic
/// directory plane ([`sonuma_apps::kvdir`]); GETs are one multi-line
/// one-sided read each, PUTs push the full value over the write (fill)
/// path, so the per-size-class GET/PUT tails expose the
/// one-sided-vs-messaging crossover. Requires `[tenants]` + `[traffic]`
/// — arrivals come from the same open-loop generator as every tenant
/// scenario. A `None` spec — or a section with `keys = 0` — runs the
/// exact non-KV code paths and renders no section at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSpec {
    /// Keys in the directory (0 disables the section).
    pub keys: u64,
    /// Smallest value-size class in bytes (power of two, >= 64).
    pub value_min: u64,
    /// Largest value-size class in bytes (power of two, <= 64 MB);
    /// classes double from `value_min` to `value_max`.
    pub value_max: u64,
    /// Zipf skew over key popularity (0 = uniform).
    pub zipf_key: f64,
    /// Probability an operation is a GET (the rest are PUT refills).
    pub get_fraction: f64,
    /// Probability a GET re-reads the tenant's previous key (hot-key
    /// repeat-read locality) instead of sampling a fresh one.
    pub repeat_prob: f64,
    /// Seed of the per-tenant key/op decision streams, independent of
    /// the workload seed.
    pub seed: u64,
}

impl Default for KvSpec {
    fn default() -> Self {
        KvSpec {
            keys: 0,
            value_min: 4096,
            value_max: 32768,
            zipf_key: 0.99,
            get_fraction: 0.95,
            repeat_prob: 0.0,
            seed: 7,
        }
    }
}

impl KvSpec {
    /// Whether the section drives nothing (a `keys = 0` `[kv]` table
    /// must behave byte-identically to no section at all).
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Builds the directory plane this section describes over `nodes`
    /// nodes with `segment_bytes` context segments.
    pub fn directory(
        &self,
        nodes: usize,
        segment_bytes: u64,
    ) -> Result<sonuma_apps::KvDirectory, String> {
        sonuma_apps::KvDirectory::build(
            self.keys,
            nodes,
            segment_bytes,
            self.value_min,
            self.value_max,
        )
    }
}

/// The SLO class of tenant `id` out of `total`: contiguous thirds.
pub fn tenant_class(id: usize, total: usize) -> SloClass {
    match id * 3 / total.max(1) {
        0 => SloClass::Gold,
        1 => SloClass::Silver,
        _ => SloClass::Bronze,
    }
}

fn class_weight(mode: WeightMode, class: SloClass) -> u32 {
    match mode {
        WeightMode::Uniform => 1,
        WeightMode::Tiered => match class {
            SloClass::Gold => 8,
            SloClass::Silver => 4,
            SloClass::Bronze => 1,
        },
    }
}

/// A declarative scenario: everything one benchmark run needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (report key; also the baseline-matching key).
    pub name: String,
    /// Cluster size.
    pub nodes: usize,
    /// Fabric arrangement (soNUMA runs).
    pub topology: TopologySpec,
    /// Timing platform (soNUMA runs).
    pub platform: PlatformSpec,
    /// Transports to execute.
    pub backend: BackendSel,
    /// Request stream shape.
    pub workload: WorkloadKind,
    /// Probability an operation is a read (`mixed` workload only).
    pub read_fraction: f64,
    /// Payload bytes per operation (cache-line multiple).
    pub op_bytes: u64,
    /// Operations each node issues.
    pub ops_per_node: u64,
    /// Maximum operations a node keeps in flight.
    pub window: usize,
    /// Per-node globally readable segment size.
    pub segment_bytes: u64,
    /// Seed for every stochastic workload decision.
    pub seed: u64,
    /// Host threads the soNUMA backend shards its cluster across
    /// (`[execution]` section / `--threads`). Purely a wall-clock knob:
    /// every simulated metric is identical for every value.
    pub threads: usize,
    /// WQ/CQ ring entries per queue pair (`[execution]` section). Part of
    /// the simulated machine: a ring shorter than the in-flight window
    /// changes WqFull backpressure, so rack-scale specs that shrink it
    /// must keep `qp_entries > window`. At 4096 nodes the default
    /// 64-entry rings cost two guest-heap pages per node; 16-entry rings
    /// fit WQ and CQ in one.
    pub qp_entries: u16,
    /// Speculative epoch run-ahead depth `K` (`[execution]` section /
    /// `--speculate`). Like `threads`, purely a wall-clock knob: the
    /// engine validates every clock bet at the epoch barrier and rolls
    /// back refuted ones, so every simulated metric is identical for
    /// every value (only the `sharding.speculation` counters differ).
    pub speculate_epochs: usize,
    /// Multi-tenant QP virtualization (`[tenants]` section). Present iff
    /// `traffic` is present; together they switch the run from the
    /// closed-loop stream to the open-loop tenant generator.
    pub tenancy: Option<TenancySpec>,
    /// Open-loop arrival processes (`[traffic]` section).
    pub traffic: Option<TrafficSpec>,
    /// Seeded fault injection (`[faults]` section). `None` — or a section
    /// whose counts are all zero — runs the exact fault-free code paths.
    pub faults: Option<FaultSpec>,
    /// Flight-recorder sampling (`[trace]` section). `None` — or a section
    /// with a zero interval — runs the exact untraced code paths.
    pub trace: Option<TraceSpec>,
    /// KV-cache service workload (`[kv]` section). `None` — or a section
    /// with `keys = 0` — runs the exact non-KV code paths. Requires
    /// `[tenants]` and `[traffic]`.
    pub kv: Option<KvSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: String::new(),
            nodes: 0,
            topology: TopologySpec::Crossbar,
            platform: PlatformSpec::Hardware,
            backend: BackendSel::All,
            workload: WorkloadKind::UniformRead,
            read_fraction: 0.5,
            op_bytes: 64,
            ops_per_node: 128,
            window: 16,
            segment_bytes: 1 << 20,
            seed: 42,
            threads: 1,
            qp_entries: 64,
            speculate_epochs: 0,
            tenancy: None,
            traffic: None,
            faults: None,
            trace: None,
            kv: None,
        }
    }
}

impl Default for TenancySpec {
    fn default() -> Self {
        TenancySpec {
            tenants: 0,
            scheduler: SchedPolicy::Wdrr,
            weights: WeightMode::Uniform,
        }
    }
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            arrival: ArrivalKind::Poisson,
            rate_per_tenant: 100_000.0,
            duration_us: 100.0,
            zipf_addr: 0.0,
            zipf_dst: 0.0,
            burst: 8,
        }
    }
}

/// Why a spec failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The text is not valid flat TOML (`line`, `message`).
    Parse(usize, String),
    /// The values are syntactically fine but semantically invalid.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl ScenarioSpec {
    /// Checks every cross-field constraint.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |msg: String| Err(SpecError::Invalid(msg));
        if self.name.is_empty() {
            return err("name must be nonempty".into());
        }
        if self.nodes < 2 {
            return err(format!(
                "nodes = {} (remote ops need at least 2)",
                self.nodes
            ));
        }
        if self.nodes > u16::MAX as usize {
            return err(format!("nodes = {} exceeds the NodeId space", self.nodes));
        }
        match self.topology {
            TopologySpec::Crossbar => {}
            TopologySpec::Torus2d(w, h) => {
                if w * h != self.nodes || w < 2 || h < 2 {
                    return err(format!(
                        "torus2d:{w}x{h} does not arrange {} nodes",
                        self.nodes
                    ));
                }
            }
            TopologySpec::Torus3d(x, y, z) => {
                if x * y * z != self.nodes || x < 2 || y < 2 || z < 2 {
                    return err(format!(
                        "torus3d:{x}x{y}x{z} does not arrange {} nodes",
                        self.nodes
                    ));
                }
            }
        }
        if self.op_bytes == 0 || !self.op_bytes.is_multiple_of(64) || self.op_bytes > 8192 {
            return err(format!(
                "op_bytes = {} (must be a cache-line multiple in 64..=8192)",
                self.op_bytes
            ));
        }
        if self.ops_per_node == 0 {
            return err("ops_per_node must be positive".into());
        }
        if self.window == 0 || self.window > 64 {
            return err(format!("window = {} (must be 1..=64)", self.window));
        }
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return err(format!(
                "read_fraction = {} out of [0, 1]",
                self.read_fraction
            ));
        }
        if self.segment_bytes < self.op_bytes * 2 || self.segment_bytes > (1 << 30) {
            return err(format!(
                "segment_bytes = {} (need 2*op_bytes..=1 GiB)",
                self.segment_bytes
            ));
        }
        if self.threads == 0 || self.threads > 64 {
            return err(format!("threads = {} (must be 1..=64)", self.threads));
        }
        if self.qp_entries < 4 || self.qp_entries > 4096 {
            return err(format!(
                "qp_entries = {} (must be 4..=4096)",
                self.qp_entries
            ));
        }
        if (self.qp_entries as usize) <= self.window {
            return err(format!(
                "qp_entries = {} must exceed window = {} (a full ring would deadlock the closed loop)",
                self.qp_entries, self.window
            ));
        }
        if self.speculate_epochs > 8 {
            return err(format!(
                "speculate_epochs = {} (must be 0..=8)",
                self.speculate_epochs
            ));
        }
        match (&self.tenancy, &self.traffic) {
            (None, None) => {}
            (Some(_), None) => {
                return err("[tenants] requires a [traffic] section".into());
            }
            (None, Some(_)) => {
                return err("[traffic] requires a [tenants] section".into());
            }
            (Some(tn), Some(tr)) => {
                if tn.tenants < self.nodes {
                    return err(format!(
                        "tenants = {} (need at least one per node, {} nodes)",
                        tn.tenants, self.nodes
                    ));
                }
                if tn.tenants > 1 << 20 {
                    return err(format!("tenants = {} (max 2^20)", tn.tenants));
                }
                if !(tr.rate_per_tenant > 0.0 && tr.rate_per_tenant <= 1e9) {
                    return err(format!(
                        "rate_per_tenant = {} (need (0, 1e9] ops/s)",
                        tr.rate_per_tenant
                    ));
                }
                if !(tr.duration_us > 0.0 && tr.duration_us <= 1e6) {
                    return err(format!("duration_us = {} (need (0, 1e6])", tr.duration_us));
                }
                for (key, theta) in [("zipf_addr", tr.zipf_addr), ("zipf_dst", tr.zipf_dst)] {
                    if !(0.0..=4.0).contains(&theta) {
                        return err(format!("{key} = {theta} out of [0, 4]"));
                    }
                }
                if tr.burst == 0 || tr.burst > 1024 {
                    return err(format!("burst = {} (need 1..=1024)", tr.burst));
                }
            }
        }
        if let Some(f) = &self.faults {
            for (key, p) in [("drop_prob", f.drop_prob), ("corrupt_prob", f.corrupt_prob)] {
                if !(0.0..=1.0).contains(&p) {
                    return err(format!("{key} = {p} out of [0, 1]"));
                }
            }
            if !(1.0..=64.0).contains(&f.derate) {
                return err(format!("derate = {} (need [1, 64])", f.derate));
            }
            if f.credit_loss > 64 {
                return err(format!("credit_loss = {} (max 64)", f.credit_loss));
            }
            if !(f.timeout_us > 0.0 && f.timeout_us <= 1e6) {
                return err(format!("timeout_us = {} (need (0, 1e6])", f.timeout_us));
            }
            if f.max_retries > 64 {
                return err(format!("max_retries = {} (max 64)", f.max_retries));
            }
            if f.killed_links > 0 {
                if !(f.kill_at_us > 0.0 && f.kill_at_us <= 1e6) {
                    return err(format!("kill_at_us = {} (need (0, 1e6])", f.kill_at_us));
                }
                if f.revive_at_us != 0.0 && f.revive_at_us <= f.kill_at_us {
                    return err(format!(
                        "revive_at_us = {} must exceed kill_at_us = {} (or be 0 for never)",
                        f.revive_at_us, f.kill_at_us
                    ));
                }
            }
            if f.crashed_nodes > 0 {
                if f.crashed_nodes >= self.nodes {
                    return err(format!(
                        "crashed_nodes = {} (must leave survivors among {} nodes)",
                        f.crashed_nodes, self.nodes
                    ));
                }
                if !(f.crash_at_us > 0.0 && f.crash_at_us <= 1e6) {
                    return err(format!("crash_at_us = {} (need (0, 1e6])", f.crash_at_us));
                }
                if f.restart_at_us <= f.crash_at_us {
                    return err(format!(
                        "restart_at_us = {} must exceed crash_at_us = {}",
                        f.restart_at_us, f.crash_at_us
                    ));
                }
            }
        }
        if let Some(t) = &self.trace {
            if !(0.0..=1e6).contains(&t.interval_us) {
                return err(format!(
                    "trace interval_us = {} (need [0, 1e6])",
                    t.interval_us
                ));
            }
            if !t.is_empty() {
                for (key, cap) in [
                    ("link_capacity", t.link_capacity),
                    ("node_capacity", t.node_capacity),
                    ("event_capacity", t.event_capacity),
                ] {
                    if cap == 0 || cap > 1 << 24 {
                        return err(format!("trace {key} = {cap} (need [1, 2^24])"));
                    }
                }
            }
        }
        if let Some(kv) = self.kv.as_ref().filter(|kv| !kv.is_empty()) {
            if self.tenancy.is_none() || self.traffic.is_none() {
                return err(
                    "[kv] needs [tenants] and [traffic] (the KV service is open-loop driven)"
                        .into(),
                );
            }
            if kv.keys > 1 << 20 {
                return err(format!("kv keys = {} (max 2^20)", kv.keys));
            }
            if !kv.value_min.is_power_of_two() || kv.value_min < 64 {
                return err(format!(
                    "kv value_min = {} (need a power of two >= 64)",
                    kv.value_min
                ));
            }
            if !kv.value_max.is_power_of_two()
                || kv.value_max < kv.value_min
                || kv.value_max > 1 << 26
            {
                return err(format!(
                    "kv value_max = {} (need a power of two in [value_min, 64 MB])",
                    kv.value_max
                ));
            }
            if !(0.0..=4.0).contains(&kv.zipf_key) {
                return err(format!("kv zipf_key = {} out of [0, 4]", kv.zipf_key));
            }
            if !(kv.get_fraction > 0.0 && kv.get_fraction <= 1.0) {
                return err(format!(
                    "kv get_fraction = {} (need (0, 1])",
                    kv.get_fraction
                ));
            }
            if !(0.0..1.0).contains(&kv.repeat_prob) {
                return err(format!("kv repeat_prob = {} (need [0, 1))", kv.repeat_prob));
            }
            // Building the directory proves every key fits its home
            // node's segment; a validated spec can never fail placement
            // at drive time.
            if let Err(e) = kv.directory(self.nodes, self.segment_bytes) {
                return err(e);
            }
        }
        Ok(())
    }

    /// Renders the spec as flat TOML, the format [`ScenarioSpec::from_toml`]
    /// reads back (round-trip stable).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("# sonuma-bench scenario spec\n");
        out.push_str(&format!("name = \"{}\"\n", self.name));
        out.push_str(&format!("nodes = {}\n", self.nodes));
        out.push_str(&format!("topology = \"{}\"\n", self.topology.render()));
        out.push_str(&format!(
            "platform = \"{}\"\n",
            match self.platform {
                PlatformSpec::Hardware => "hardware",
                PlatformSpec::Dev => "dev",
            }
        ));
        out.push_str(&format!("backend = \"{}\"\n", self.backend.as_str()));
        out.push_str(&format!("workload = \"{}\"\n", self.workload.as_str()));
        out.push_str(&format!("read_fraction = {}\n", self.read_fraction));
        out.push_str(&format!("op_bytes = {}\n", self.op_bytes));
        out.push_str(&format!("ops_per_node = {}\n", self.ops_per_node));
        out.push_str(&format!("window = {}\n", self.window));
        out.push_str(&format!("segment_bytes = {}\n", self.segment_bytes));
        out.push_str(&format!("seed = {}\n", self.seed));
        if self.threads != 1 || self.qp_entries != 64 || self.speculate_epochs != 0 {
            out.push_str("\n[execution]\n");
            if self.threads != 1 {
                out.push_str(&format!("threads = {}\n", self.threads));
            }
            if self.qp_entries != 64 {
                out.push_str(&format!("qp_entries = {}\n", self.qp_entries));
            }
            if self.speculate_epochs != 0 {
                out.push_str(&format!("speculate_epochs = {}\n", self.speculate_epochs));
            }
        }
        if let (Some(tn), Some(tr)) = (&self.tenancy, &self.traffic) {
            out.push_str("\n[tenants]\n");
            out.push_str(&format!("count = {}\n", tn.tenants));
            out.push_str(&format!("scheduler = \"{}\"\n", tn.scheduler.as_str()));
            out.push_str(&format!("weights = \"{}\"\n", tn.weights.as_str()));
            out.push_str("\n[traffic]\n");
            out.push_str(&format!("arrival = \"{}\"\n", tr.arrival.as_str()));
            out.push_str(&format!("rate_per_tenant = {}\n", tr.rate_per_tenant));
            out.push_str(&format!("duration_us = {}\n", tr.duration_us));
            out.push_str(&format!("zipf_addr = {}\n", tr.zipf_addr));
            out.push_str(&format!("zipf_dst = {}\n", tr.zipf_dst));
            out.push_str(&format!("burst = {}\n", tr.burst));
        }
        // A zero-count section renders as no section: the two are
        // behaviorally identical, and rendering them identically keeps
        // reports byte-identical too.
        if let Some(f) = self.faults.as_ref().filter(|f| !f.is_empty()) {
            out.push_str("\n[faults]\n");
            out.push_str(&format!("seed = {}\n", f.seed));
            out.push_str(&format!("degraded_links = {}\n", f.degraded_links));
            out.push_str(&format!("drop_prob = {}\n", f.drop_prob));
            out.push_str(&format!("corrupt_prob = {}\n", f.corrupt_prob));
            out.push_str(&format!("derate = {}\n", f.derate));
            out.push_str(&format!("credit_loss = {}\n", f.credit_loss));
            out.push_str(&format!("killed_links = {}\n", f.killed_links));
            out.push_str(&format!("kill_at_us = {}\n", f.kill_at_us));
            out.push_str(&format!("revive_at_us = {}\n", f.revive_at_us));
            out.push_str(&format!("crashed_nodes = {}\n", f.crashed_nodes));
            out.push_str(&format!("crash_at_us = {}\n", f.crash_at_us));
            out.push_str(&format!("restart_at_us = {}\n", f.restart_at_us));
            out.push_str(&format!("timeout_us = {}\n", f.timeout_us));
            out.push_str(&format!("max_retries = {}\n", f.max_retries));
        }
        // Likewise, a zero-interval [trace] table renders as no section.
        if let Some(t) = self.trace.as_ref().filter(|t| !t.is_empty()) {
            out.push_str("\n[trace]\n");
            out.push_str(&format!("interval_us = {}\n", t.interval_us));
            out.push_str(&format!("link_capacity = {}\n", t.link_capacity));
            out.push_str(&format!("node_capacity = {}\n", t.node_capacity));
            out.push_str(&format!("event_capacity = {}\n", t.event_capacity));
        }
        // And a zero-key [kv] table renders as no section.
        if let Some(kv) = self.kv.as_ref().filter(|kv| !kv.is_empty()) {
            out.push_str("\n[kv]\n");
            out.push_str(&format!("keys = {}\n", kv.keys));
            out.push_str(&format!("value_min = {}\n", kv.value_min));
            out.push_str(&format!("value_max = {}\n", kv.value_max));
            out.push_str(&format!("zipf_key = {}\n", kv.zipf_key));
            out.push_str(&format!("get_fraction = {}\n", kv.get_fraction));
            out.push_str(&format!("repeat_prob = {}\n", kv.repeat_prob));
            out.push_str(&format!("seed = {}\n", kv.seed));
        }
        out
    }

    /// Parses a flat TOML spec (comments and blank lines allowed; every
    /// key checked; unknown and repeated keys and tables rejected).
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed lines, [`SpecError::Invalid`] on
    /// constraint violations.
    pub fn from_toml(text: &str) -> Result<ScenarioSpec, SpecError> {
        let mut spec = ScenarioSpec::default();
        let mut saw_name = false;
        let mut saw_nodes = false;
        /// Which TOML table the parser is inside.
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Section {
            Top,
            Tenants,
            Traffic,
            Execution,
            Faults,
            Trace,
            Kv,
        }
        let mut section = Section::Top;
        // TOML forbids defining a table or a key twice: `(table, key)`
        // pairs seen so far, a table header being its own `""` key.
        let mut seen: HashSet<(Section, &str)> = HashSet::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse_err = |msg: &str| SpecError::Parse(lineno, msg.to_string());
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| parse_err("unterminated section header"))?
                    .trim();
                section = match name {
                    "tenants" => {
                        spec.tenancy.get_or_insert_with(TenancySpec::default);
                        Section::Tenants
                    }
                    "traffic" => {
                        spec.traffic.get_or_insert_with(TrafficSpec::default);
                        Section::Traffic
                    }
                    "execution" => Section::Execution,
                    "faults" => {
                        spec.faults.get_or_insert_with(FaultSpec::default);
                        Section::Faults
                    }
                    "trace" => {
                        spec.trace.get_or_insert_with(TraceSpec::default);
                        Section::Trace
                    }
                    "kv" => {
                        spec.kv.get_or_insert_with(KvSpec::default);
                        Section::Kv
                    }
                    other => {
                        return Err(parse_err(&format!(
                            "unknown section [{other}] (tenants|traffic|execution|faults|trace|kv)"
                        )))
                    }
                };
                if !seen.insert((section, "")) {
                    return Err(parse_err(&format!("duplicate section [{name}]")));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| parse_err("expected `key = value`"))?;
            let key = key.trim();
            if !seen.insert((section, key)) {
                return Err(parse_err(&format!("duplicate key {key:?}")));
            }
            let value = parse_scalar(value.trim()).map_err(|m| SpecError::Parse(lineno, m))?;
            if section == Section::Tenants {
                let tn = spec.tenancy.as_mut().expect("section initialized");
                match key {
                    "count" => tn.tenants = value.into_uint(lineno, "count")?,
                    "scheduler" => {
                        tn.scheduler = SchedPolicy::parse(&value.into_string(lineno, "scheduler")?)
                            .map_err(|m| SpecError::Parse(lineno, m))?;
                    }
                    "weights" => {
                        tn.weights = WeightMode::parse(&value.into_string(lineno, "weights")?)
                            .map_err(|m| SpecError::Parse(lineno, m))?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [tenants]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Execution {
                match key {
                    "threads" => spec.threads = value.into_uint(lineno, "threads")?,
                    "qp_entries" => {
                        spec.qp_entries = value.into_uint(lineno, "qp_entries")?;
                    }
                    "speculate_epochs" => {
                        spec.speculate_epochs = value.into_uint(lineno, "speculate_epochs")?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [execution]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Faults {
                let f = spec.faults.as_mut().expect("section initialized");
                match key {
                    "seed" => f.seed = value.into_u64(lineno, "seed")?,
                    "degraded_links" => {
                        f.degraded_links = value.into_uint(lineno, "degraded_links")?;
                    }
                    "drop_prob" => f.drop_prob = value.into_f64(lineno, "drop_prob")?,
                    "corrupt_prob" => f.corrupt_prob = value.into_f64(lineno, "corrupt_prob")?,
                    "derate" => f.derate = value.into_f64(lineno, "derate")?,
                    "credit_loss" => {
                        f.credit_loss = value.into_uint(lineno, "credit_loss")?;
                    }
                    "killed_links" => {
                        f.killed_links = value.into_uint(lineno, "killed_links")?;
                    }
                    "kill_at_us" => f.kill_at_us = value.into_f64(lineno, "kill_at_us")?,
                    "revive_at_us" => f.revive_at_us = value.into_f64(lineno, "revive_at_us")?,
                    "crashed_nodes" => {
                        f.crashed_nodes = value.into_uint(lineno, "crashed_nodes")?;
                    }
                    "crash_at_us" => f.crash_at_us = value.into_f64(lineno, "crash_at_us")?,
                    "restart_at_us" => {
                        f.restart_at_us = value.into_f64(lineno, "restart_at_us")?;
                    }
                    "timeout_us" => f.timeout_us = value.into_f64(lineno, "timeout_us")?,
                    "max_retries" => {
                        f.max_retries = value.into_uint(lineno, "max_retries")?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [faults]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Trace {
                let t = spec.trace.as_mut().expect("section initialized");
                match key {
                    "interval_us" => t.interval_us = value.into_f64(lineno, "interval_us")?,
                    "link_capacity" => {
                        t.link_capacity = value.into_uint(lineno, "link_capacity")?;
                    }
                    "node_capacity" => {
                        t.node_capacity = value.into_uint(lineno, "node_capacity")?;
                    }
                    "event_capacity" => {
                        t.event_capacity = value.into_uint(lineno, "event_capacity")?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [trace]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Kv {
                let kv = spec.kv.as_mut().expect("section initialized");
                match key {
                    "keys" => kv.keys = value.into_u64(lineno, "keys")?,
                    "value_min" => kv.value_min = value.into_u64(lineno, "value_min")?,
                    "value_max" => kv.value_max = value.into_u64(lineno, "value_max")?,
                    "zipf_key" => kv.zipf_key = value.into_f64(lineno, "zipf_key")?,
                    "get_fraction" => kv.get_fraction = value.into_f64(lineno, "get_fraction")?,
                    "repeat_prob" => kv.repeat_prob = value.into_f64(lineno, "repeat_prob")?,
                    "seed" => kv.seed = value.into_u64(lineno, "seed")?,
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [kv]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Traffic {
                let tr = spec.traffic.as_mut().expect("section initialized");
                match key {
                    "arrival" => {
                        tr.arrival = ArrivalKind::parse(&value.into_string(lineno, "arrival")?)
                            .map_err(|m| SpecError::Parse(lineno, m))?;
                    }
                    "rate_per_tenant" => {
                        tr.rate_per_tenant = value.into_f64(lineno, "rate_per_tenant")?;
                    }
                    "duration_us" => tr.duration_us = value.into_f64(lineno, "duration_us")?,
                    "zipf_addr" => tr.zipf_addr = value.into_f64(lineno, "zipf_addr")?,
                    "zipf_dst" => tr.zipf_dst = value.into_f64(lineno, "zipf_dst")?,
                    "burst" => tr.burst = value.into_uint(lineno, "burst")?,
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [traffic]"),
                        ));
                    }
                }
                continue;
            }
            match key {
                "name" => {
                    spec.name = value.into_string(lineno, "name")?;
                    saw_name = true;
                }
                "nodes" => {
                    spec.nodes = value.into_uint(lineno, "nodes")?;
                    saw_nodes = true;
                }
                "topology" => {
                    spec.topology = parse_topology(&value.into_string(lineno, "topology")?)
                        .map_err(|m| SpecError::Parse(lineno, m))?;
                }
                "platform" => {
                    spec.platform = match value.into_string(lineno, "platform")?.as_str() {
                        "hardware" => PlatformSpec::Hardware,
                        "dev" => PlatformSpec::Dev,
                        other => {
                            return Err(SpecError::Parse(
                                lineno,
                                format!("unknown platform {other:?} (hardware|dev)"),
                            ))
                        }
                    };
                }
                "backend" => {
                    spec.backend = match value.into_string(lineno, "backend")?.as_str() {
                        "all" => BackendSel::All,
                        "sonuma" => BackendSel::One(BackendKind::Sonuma),
                        "rdma" => BackendSel::One(BackendKind::Rdma),
                        "tcp" => BackendSel::One(BackendKind::Tcp),
                        other => {
                            return Err(SpecError::Parse(
                                lineno,
                                format!("unknown backend {other:?} (sonuma|rdma|tcp|all)"),
                            ))
                        }
                    };
                }
                "workload" => {
                    spec.workload = match value.into_string(lineno, "workload")?.as_str() {
                        "uniform-read" => WorkloadKind::UniformRead,
                        "neighbor-read" => WorkloadKind::NeighborRead,
                        "mixed" => WorkloadKind::Mixed,
                        other => {
                            return Err(SpecError::Parse(
                                lineno,
                                format!(
                                    "unknown workload {other:?} \
                                     (uniform-read|neighbor-read|mixed)"
                                ),
                            ))
                        }
                    };
                }
                "read_fraction" => spec.read_fraction = value.into_f64(lineno, "read_fraction")?,
                "op_bytes" => spec.op_bytes = value.into_u64(lineno, "op_bytes")?,
                "ops_per_node" => spec.ops_per_node = value.into_u64(lineno, "ops_per_node")?,
                "window" => spec.window = value.into_uint(lineno, "window")?,
                "segment_bytes" => spec.segment_bytes = value.into_u64(lineno, "segment_bytes")?,
                "seed" => spec.seed = value.into_u64(lineno, "seed")?,
                other => {
                    return Err(SpecError::Parse(lineno, format!("unknown key {other:?}")));
                }
            }
        }
        if !saw_name {
            return Err(SpecError::Invalid("missing required key `name`".into()));
        }
        if !saw_nodes {
            return Err(SpecError::Invalid("missing required key `nodes`".into()));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Human-readable topology label (`crossbar`, `torus2d:4x4`, ...).
    pub fn topology_label(&self) -> String {
        self.topology.render()
    }

    /// Human-readable workload label.
    pub fn workload_label(&self) -> &'static str {
        self.workload.as_str()
    }

    /// Human-readable backend-selection label.
    pub fn backend_label(&self) -> &'static str {
        self.backend.as_str()
    }

    /// The spec as an ordered JSON object (embedded in the report).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("nodes".into(), Json::Num(self.nodes as f64)),
            ("topology".into(), Json::Str(self.topology.render())),
            (
                "platform".into(),
                Json::Str(
                    match self.platform {
                        PlatformSpec::Hardware => "hardware",
                        PlatformSpec::Dev => "dev",
                    }
                    .into(),
                ),
            ),
            ("backend".into(), Json::Str(self.backend.as_str().into())),
            ("workload".into(), Json::Str(self.workload.as_str().into())),
            ("read_fraction".into(), Json::Num(self.read_fraction)),
            ("op_bytes".into(), Json::Num(self.op_bytes as f64)),
            ("ops_per_node".into(), Json::Num(self.ops_per_node as f64)),
            ("window".into(), Json::Num(self.window as f64)),
            ("segment_bytes".into(), Json::Num(self.segment_bytes as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("qp_entries".into(), Json::Num(self.qp_entries as f64)),
            (
                "speculate_epochs".into(),
                Json::Num(self.speculate_epochs as f64),
            ),
        ];
        if let (Some(tn), Some(tr)) = (&self.tenancy, &self.traffic) {
            members.push((
                "tenants".into(),
                Json::Obj(vec![
                    ("count".into(), Json::Num(tn.tenants as f64)),
                    ("scheduler".into(), Json::Str(tn.scheduler.as_str().into())),
                    ("weights".into(), Json::Str(tn.weights.as_str().into())),
                ]),
            ));
            members.push((
                "traffic".into(),
                Json::Obj(vec![
                    ("arrival".into(), Json::Str(tr.arrival.as_str().into())),
                    ("rate_per_tenant".into(), Json::Num(tr.rate_per_tenant)),
                    ("duration_us".into(), Json::Num(tr.duration_us)),
                    ("zipf_addr".into(), Json::Num(tr.zipf_addr)),
                    ("zipf_dst".into(), Json::Num(tr.zipf_dst)),
                    ("burst".into(), Json::Num(tr.burst as f64)),
                ]),
            ));
        }
        // Zero-count sections are omitted, mirroring `to_toml`.
        if let Some(f) = self.faults.as_ref().filter(|f| !f.is_empty()) {
            members.push((
                "faults".into(),
                Json::Obj(vec![
                    ("seed".into(), Json::Num(f.seed as f64)),
                    ("degraded_links".into(), Json::Num(f.degraded_links as f64)),
                    ("drop_prob".into(), Json::Num(f.drop_prob)),
                    ("corrupt_prob".into(), Json::Num(f.corrupt_prob)),
                    ("derate".into(), Json::Num(f.derate)),
                    ("credit_loss".into(), Json::Num(f.credit_loss as f64)),
                    ("killed_links".into(), Json::Num(f.killed_links as f64)),
                    ("kill_at_us".into(), Json::Num(f.kill_at_us)),
                    ("revive_at_us".into(), Json::Num(f.revive_at_us)),
                    ("crashed_nodes".into(), Json::Num(f.crashed_nodes as f64)),
                    ("crash_at_us".into(), Json::Num(f.crash_at_us)),
                    ("restart_at_us".into(), Json::Num(f.restart_at_us)),
                    ("timeout_us".into(), Json::Num(f.timeout_us)),
                    ("max_retries".into(), Json::Num(f.max_retries as f64)),
                ]),
            ));
        }
        if let Some(t) = self.trace.as_ref().filter(|t| !t.is_empty()) {
            members.push((
                "trace".into(),
                Json::Obj(vec![
                    ("interval_us".into(), Json::Num(t.interval_us)),
                    ("link_capacity".into(), Json::Num(t.link_capacity as f64)),
                    ("node_capacity".into(), Json::Num(t.node_capacity as f64)),
                    ("event_capacity".into(), Json::Num(t.event_capacity as f64)),
                ]),
            ));
        }
        if let Some(kv) = self.kv.as_ref().filter(|kv| !kv.is_empty()) {
            members.push((
                "kv".into(),
                Json::Obj(vec![
                    ("keys".into(), Json::Num(kv.keys as f64)),
                    ("value_min".into(), Json::Num(kv.value_min as f64)),
                    ("value_max".into(), Json::Num(kv.value_max as f64)),
                    ("zipf_key".into(), Json::Num(kv.zipf_key)),
                    ("get_fraction".into(), Json::Num(kv.get_fraction)),
                    ("repeat_prob".into(), Json::Num(kv.repeat_prob)),
                    ("seed".into(), Json::Num(kv.seed as f64)),
                ]),
            ));
        }
        Json::Obj(members)
    }
}

/// A scalar TOML value: quoted string or bare number.
enum Scalar {
    Str(String),
    Num(String),
}

impl Scalar {
    fn into_string(self, lineno: usize, key: &str) -> Result<String, SpecError> {
        match self {
            Scalar::Str(s) => Ok(s),
            Scalar::Num(_) => Err(SpecError::Parse(
                lineno,
                format!("{key} must be a quoted string"),
            )),
        }
    }

    fn into_u64(self, lineno: usize, key: &str) -> Result<u64, SpecError> {
        match self {
            Scalar::Num(n) => n
                .parse::<u64>()
                .map_err(|_| SpecError::Parse(lineno, format!("{key} must be an integer"))),
            Scalar::Str(_) => Err(SpecError::Parse(
                lineno,
                format!("{key} must be an unquoted integer"),
            )),
        }
    }

    /// An integer narrowed to the field's own width, rejecting values the
    /// field cannot hold.
    fn into_uint<T: TryFrom<u64>>(self, lineno: usize, key: &str) -> Result<T, SpecError> {
        let n = self.into_u64(lineno, key)?;
        T::try_from(n).map_err(|_| SpecError::Parse(lineno, format!("{key} = {n} is out of range")))
    }

    fn into_f64(self, lineno: usize, key: &str) -> Result<f64, SpecError> {
        match self {
            Scalar::Num(n) => n
                .parse::<f64>()
                .map_err(|_| SpecError::Parse(lineno, format!("{key} must be a number"))),
            Scalar::Str(_) => Err(SpecError::Parse(
                lineno,
                format!("{key} must be an unquoted number"),
            )),
        }
    }
}

fn parse_scalar(value: &str) -> Result<Scalar, String> {
    if let Some(rest) = value.strip_prefix('"') {
        let end = rest.find('"').ok_or("unterminated string")?;
        let tail = rest[end + 1..].trim();
        if !tail.is_empty() && !tail.starts_with('#') {
            return Err(format!("trailing garbage after string: {tail:?}"));
        }
        return Ok(Scalar::Str(rest[..end].to_string()));
    }
    let bare = match value.find('#') {
        Some(i) => value[..i].trim(),
        None => value,
    };
    if bare.is_empty() {
        return Err("empty value".to_string());
    }
    Ok(Scalar::Num(bare.to_string()))
}

fn parse_topology(text: &str) -> Result<TopologySpec, String> {
    if text == "crossbar" {
        return Ok(TopologySpec::Crossbar);
    }
    let dims = |spec: &str| -> Result<Vec<usize>, String> {
        spec.split('x')
            .map(|d| {
                d.parse::<usize>()
                    .map_err(|_| format!("bad dimension {d:?}"))
            })
            .collect()
    };
    if let Some(rest) = text.strip_prefix("torus2d:") {
        let d = dims(rest)?;
        if d.len() != 2 {
            return Err("torus2d needs WxH".to_string());
        }
        return Ok(TopologySpec::Torus2d(d[0], d[1]));
    }
    if let Some(rest) = text.strip_prefix("torus3d:") {
        let d = dims(rest)?;
        if d.len() != 3 {
            return Err("torus3d needs XxYxZ".to_string());
        }
        return Ok(TopologySpec::Torus3d(d[0], d[1], d[2]));
    }
    Err(format!(
        "unknown topology {text:?} (crossbar|torus2d:WxH|torus3d:XxYxZ)"
    ))
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

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

/// How many per-tenant detail rows a report includes (lowest ids first).
/// The truncation is explicit (`detail_shown` / `detail_truncated`), and
/// the fairness index and per-class aggregates always cover every
/// tenant — only the row dump is capped, so thousand-tenant reports stay
/// reviewable.
pub const MAX_REPORTED_TENANTS: usize = 64;

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
    /// Host-side engine throughput: `events / wall_secs`. This is the
    /// metric the CI bench-smoke lane gates on.
    pub wall_events_per_sec: f64,
    /// Host-side fabric throughput: fabric packets over `wall_secs`
    /// (0 for backends without a modeled fabric). Packet counts are a
    /// pure function of the spec, so this is the cleanest wall-clock
    /// figure of merit for the fabric hot path; the bench-smoke lane
    /// gates it alongside events/sec.
    pub wall_packets_per_sec: f64,
    /// Host wall-clock seconds world construction took (best across
    /// repetitions) — reported separately from `wall_secs` (drive time)
    /// so the parallel-construction win is gated on its own.
    pub wall_construct_secs: f64,
    /// Host threads the spec requested for this run.
    pub threads: usize,
    /// Shards the backend actually executed with (1 for the modeled
    /// baselines, which have no internal parallelism).
    pub shards: usize,
    /// Conservative epochs the sharded engine ran (soNUMA; 0 otherwise).
    /// Partition-invariant at speculation depth 0; with speculation the
    /// batching depends on host scheduling, so it stays shard *metadata*,
    /// excluded from the parallel-equivalence diff.
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
    /// `(committed, rolled_back)` speculative clock bets the sharded
    /// engine settled (soNUMA runs with `speculate_epochs > 0`). Shard
    /// metadata: depends on host scheduling, excluded from the
    /// parallel-equivalence diff.
    pub speculation: Option<(u64, u64)>,
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

/// What the flight recorder captured during the first (traced) drive of
/// a run. The timing repetitions run untraced, so `wall_overhead_secs`
/// is the traced drive's wall time minus the best untraced wall time —
/// a direct measurement of what arming the recorder costs.
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
    /// Traced wall seconds minus the best untraced repetition's wall
    /// seconds (clamped at 0; 0 when timing repetitions were skipped).
    pub wall_overhead_secs: f64,
}

/// Wall-clock comparison against a `--threads 1` companion run of the
/// same spec (the `--compare-threads` mode). Simulated metrics are
/// byte-identical by the determinism contract — only host time and the
/// epoch structure differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareSerial {
    /// Best-of-reps wall seconds of the single-thread run.
    pub wall_secs: f64,
    /// Serial wall time over this run's wall time (> 1 means the shards
    /// paid off).
    pub wall_ratio: f64,
    /// Epochs the single-shard engine ran — equal to the sharded
    /// `epochs` at speculation depth 0.
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
    /// One entry per requested backend, in [`BackendSel::kinds`] order.
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
                backend.set_speculation(spec.speculate_epochs as u32);
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

/// Drives `spec`'s request stream over one backend to completion.
///
/// Latencies are measured post-to-observation: a completion is
/// timestamped with `backend.now()` at the poll following the `advance`
/// burst that executed it, so they are exact for the one-event-per-call
/// baselines and late by at most one burst's simulated span (64 engine
/// events) for soNUMA.
fn drive(spec: &ScenarioSpec, backend: &mut dyn RemoteBackend) -> BackendRun {
    let nodes = spec.nodes;
    let started = Instant::now();
    let mut root = DetRng::seed(spec.seed);
    let mut gens: Vec<RequestGen> = (0..nodes)
        .map(|n| RequestGen {
            rng: root.fork(n as u64),
            issued: 0,
        })
        .collect();
    // token -> (post time ps, payload bytes); filled at post, drained at
    // completion. Never iterated, so the HashMap order cannot leak into
    // the results.
    let mut pending: Vec<HashMap<u64, (u64, u64)>> = (0..nodes).map(|_| HashMap::new()).collect();
    let mut remaining: Vec<u64> = vec![spec.ops_per_node; nodes];
    let mut hist = LatencyHistogram::new();
    let mut ops = 0u64;
    let mut payload_bytes = 0u64;
    let mut errors = 0u64;
    let track_bins = spec.faults.as_ref().is_some_and(|f| !f.is_empty());
    let mut ok_bins: Vec<u64> = Vec::new();

    loop {
        let mut posted_any = false;
        for n in 0..nodes {
            while remaining[n] > 0 && pending[n].len() < spec.window {
                let req = gens[n].next(spec, n);
                let bytes = spec.op_bytes;
                match backend.post(NodeId(n as u16), req) {
                    Ok(token) => {
                        pending[n].insert(token, (backend.now().as_ps(), bytes));
                        remaining[n] -= 1;
                        posted_any = true;
                    }
                    Err(sonuma_core::BackendError::Backpressure) => break,
                    Err(e) => panic!("scenario {} post failed on {n}: {e}", spec.name),
                }
            }
        }
        let more = backend.advance();
        let now = backend.now();
        for (n, node_pending) in pending.iter_mut().enumerate() {
            for c in backend.poll(NodeId(n as u16)) {
                let (posted_ps, bytes) = node_pending
                    .remove(&c.token)
                    .expect("completion for unknown token");
                ops += 1;
                if c.status.is_ok() {
                    // Only successful operations shape the latency
                    // distribution — an abort is accounted as an error,
                    // not as a (meaningless) fast completion.
                    hist.record(now.saturating_sub(SimTime::from_ps(posted_ps)));
                    payload_bytes += bytes;
                    if track_bins {
                        record_ok_bin(&mut ok_bins, now);
                    }
                } else {
                    errors += 1;
                }
            }
        }
        let inflight: usize = pending.iter().map(HashMap::len).sum();
        if !more && !posted_any && inflight == 0 && remaining.iter().all(|&r| r == 0) {
            break;
        }
    }

    let sim_time = backend.now();
    let wall_secs = started.elapsed().as_secs_f64();
    let events = backend.events_processed();
    BackendRun {
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
        // Fabric packet rate is attached by `run_spec` for soNUMA runs.
        wall_packets_per_sec: 0.0,
        // Construction wall time is attached by `run_spec`.
        wall_construct_secs: 0.0,
        // Sharding metadata is attached by `run_spec`.
        threads: 1,
        shards: 1,
        epochs: 0,
        shard_events: Vec::new(),
        cut_links: 0,
        lookahead: None,
        pair_bound_violations: 0,
        resident_bytes: 0,
        speculation: None,
        compare_serial: None,
        // Pipeline counters are attached by `run_spec` for soNUMA runs.
        pipeline_total: None,
        per_node: Vec::new(),
        tenants: Vec::new(),
        fabric: None,
        ok_bins_1us: ok_bins,
        // The fault outcome is attached by `run_spec` for soNUMA runs.
        faults: None,
        // The trace outcome is attached by `run_spec` for soNUMA runs.
        trace: None,
        kv: None,
    }
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

/// One tenant's live state inside the open-loop driver.
struct TenantDriver {
    home: usize,
    channel: u32,
    class: SloClass,
    weight: u32,
    rng: DetRng,
    arrivals: ArrivalGen,
    /// Arrived-but-not-yet-posted requests (head blocked on WQ space).
    backlog: VecDeque<(u64, RemoteRequest)>,
    offered: u64,
    completed: u64,
    errors: u64,
    hist: LatencyHistogram,
}

/// Drives `spec`'s open-loop tenant streams over one backend until every
/// arrival within the horizon has been offered, posted, and completed.
///
/// Arrivals are generated per tenant by seeded [`ArrivalGen`]s; requests
/// pick their destination node and remote address through the spec's
/// Zipf samplers. Latency is measured **arrival-to-completion** — an
/// operation stuck behind a noisy neighbor's backlog accrues queueing
/// delay even before its WQ post succeeds, which is exactly the tail a
/// tenant observes.
fn drive_open_loop(
    spec: &ScenarioSpec,
    backend: &mut dyn RemoteBackend,
    mut flow: Option<&mut sonuma_trace::TenantFlow>,
) -> BackendRun {
    let tn = spec.tenancy.as_ref().expect("open-loop spec");
    let tr = spec.traffic.as_ref().expect("open-loop spec");
    let nodes = spec.nodes;
    let started = Instant::now();
    let horizon_ps = (tr.duration_us * 1e6) as u64;
    // Zipf support over whole-op slots; capped so the CDF table stays
    // small for huge segments (the hot set is what skew is about).
    let slots = ((spec.segment_bytes - spec.op_bytes) / spec.op_bytes + 1).min(1 << 16) as usize;
    let addr_sampler = ZipfSampler::new(slots, tr.zipf_addr);
    let dst_sampler = ZipfSampler::new(nodes, tr.zipf_dst);

    let mut root = DetRng::seed(spec.seed);
    let mut tenants: Vec<TenantDriver> = (0..tn.tenants)
        .map(|t| {
            let class = tenant_class(t, tn.tenants);
            TenantDriver {
                home: t % nodes,
                channel: (t / nodes) as u32,
                class,
                weight: class_weight(tn.weights, class),
                rng: root.fork(t as u64),
                arrivals: ArrivalGen::new(tr.arrival, tr.rate_per_tenant, tr.burst),
                backlog: VecDeque::new(),
                offered: 0,
                completed: 0,
                errors: 0,
                hist: LatencyHistogram::new(),
            }
        })
        .collect();
    // token -> (tenant, arrival ps, payload bytes), per posting node
    // (tokens are unique per node across channels).
    let mut pending: Vec<HashMap<u64, (usize, u64, u64)>> =
        (0..nodes).map(|_| HashMap::new()).collect();
    let mut hist = LatencyHistogram::new();
    let mut ops = 0u64;
    let mut payload_bytes = 0u64;
    let mut errors = 0u64;
    let track_bins = spec.faults.as_ref().is_some_and(|f| !f.is_empty());
    let mut ok_bins: Vec<u64> = Vec::new();

    loop {
        let now_ps = backend.now().as_ps();
        // 1. Materialize every arrival that is due, in tenant order.
        for (idx, t) in tenants.iter_mut().enumerate() {
            while t.arrivals.peek_ps() <= now_ps {
                let Some(at) = t.arrivals.next_arrival(&mut t.rng, horizon_ps) else {
                    break;
                };
                let dst_rank = dst_sampler.sample(&mut t.rng);
                let dst = if dst_rank == t.home {
                    NodeId(((dst_rank + 1) % nodes) as u16)
                } else {
                    NodeId(dst_rank as u16)
                };
                let offset = addr_sampler.sample(&mut t.rng) as u64 * spec.op_bytes;
                let req = if t.rng.chance(spec.read_fraction) {
                    RemoteRequest::read(dst, offset, spec.op_bytes)
                } else {
                    let fill = (idx as u8) ^ (t.offered as u8) ^ 0x5A;
                    RemoteRequest::write(dst, offset, vec![fill; spec.op_bytes as usize])
                };
                t.backlog.push_back((at, req));
                t.offered += 1;
            }
        }
        // 2. Post as much backlog as the queues accept, in tenant order.
        let mut posted_any = false;
        for (idx, t) in tenants.iter_mut().enumerate() {
            while let Some((at, req)) = t.backlog.front() {
                match backend.post_on(NodeId(t.home as u16), t.channel, req.clone()) {
                    Ok(token) => {
                        pending[t.home].insert(token, (idx, *at, spec.op_bytes));
                        t.backlog.pop_front();
                        posted_any = true;
                    }
                    Err(sonuma_core::BackendError::Backpressure) => break,
                    Err(e) => panic!("scenario {} tenant post failed: {e}", spec.name),
                }
            }
        }
        // 3. Make progress and account completions.
        let more = backend.advance();
        let now = backend.now();
        for (n, node_pending) in pending.iter_mut().enumerate() {
            for c in backend.poll(NodeId(n as u16)) {
                let (idx, at, bytes) = node_pending
                    .remove(&c.token)
                    .expect("completion for unknown token");
                let lat = now.saturating_sub(SimTime::from_ps(at));
                let t = &mut tenants[idx];
                t.completed += 1;
                ops += 1;
                if c.status.is_ok() {
                    // Aborted operations are errors, not latency samples:
                    // a fast failure must not flatter the tail.
                    t.hist.record(lat);
                    hist.record(lat);
                    payload_bytes += bytes;
                    if track_bins {
                        record_ok_bin(&mut ok_bins, now);
                    }
                    // The tenant sampler bins by simulated completion
                    // time, so the partition-dependent poll order of the
                    // sharded backend cannot leak into the trace.
                    if let Some(flow) = flow.as_deref_mut() {
                        flow.record(now, idx as u32, lat);
                    }
                } else {
                    errors += 1;
                    t.errors += 1;
                }
            }
        }
        // 4. Terminate, or jump the idle clock to the next arrival.
        let backlogged = tenants.iter().any(|t| !t.backlog.is_empty());
        let inflight: usize = pending.iter().map(HashMap::len).sum();
        if !more && !posted_any && !backlogged && inflight == 0 {
            let next = tenants
                .iter()
                .map(|t| t.arrivals.peek_ps())
                .filter(|&p| p <= horizon_ps)
                .min();
            match next {
                Some(p) => backend.advance_clock_to(SimTime::from_ps(p)),
                None => break,
            }
        }
    }

    let sim_time = backend.now();
    let wall_secs = started.elapsed().as_secs_f64();
    let events = backend.events_processed();
    let offered_ops = tenants.iter().map(|t| t.offered).sum();
    let outcomes = tenants
        .into_iter()
        .enumerate()
        .map(|(t, d)| TenantOutcome {
            tenant: t as u32,
            node: d.home as u16,
            class: d.class,
            weight: d.weight,
            offered: d.offered,
            ops: d.completed,
            errors: d.errors,
            hist: d.hist,
        })
        .collect();
    BackendRun {
        backend: backend.label().to_string(),
        ops,
        offered_ops,
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
        speculation: None,
        compare_serial: None,
        pipeline_total: None,
        per_node: Vec::new(),
        tenants: outcomes,
        fabric: None,
        ok_bins_1us: ok_bins,
        faults: None,
        trace: None,
        kv: None,
    }
}

/// Drives the KV-cache service scenario over one backend: every value is
/// preloaded at its directory placement, then the open-loop tenant
/// streams issue GETs (one multi-line one-sided read each, payload
/// verified byte-for-byte against the deterministic value image) and
/// PUTs (the messaging-style fill path: a write pushing the full value),
/// with Zipf-skewed hot keys and repeat-read locality. Structure mirrors
/// [`drive_open_loop`] exactly — same arrival machinery, same
/// arrival-to-completion latency, same termination — so the determinism
/// contract (byte-identical across `--threads`/`--speculate`) carries
/// over unchanged.
fn drive_kv(
    spec: &ScenarioSpec,
    backend: &mut dyn RemoteBackend,
    mut flow: Option<&mut sonuma_trace::TenantFlow>,
) -> BackendRun {
    let tn = spec.tenancy.as_ref().expect("kv spec has [tenants]");
    let tr = spec.traffic.as_ref().expect("kv spec has [traffic]");
    let kv = spec.kv.as_ref().expect("kv spec");
    let nodes = spec.nodes;
    let started = Instant::now();
    let horizon_ps = (tr.duration_us * 1e6) as u64;
    let dir = kv
        .directory(nodes, spec.segment_bytes)
        .expect("directory fit proved by validate()");

    // Preload every value image at its placement, so the first GET of a
    // never-PUT key still verifies.
    let mut image = vec![0u8; kv.value_max as usize];
    for key in 0..dir.keys() {
        let p = dir.lookup(key);
        sonuma_apps::fill_value(key, &mut image[..p.len as usize]);
        backend.write_ctx(NodeId(p.node as u16), p.offset, &image[..p.len as usize]);
    }

    let key_sampler = ZipfSampler::new(dir.keys() as usize, kv.zipf_key);
    let mut root = DetRng::seed(spec.seed);
    let mut kv_root = DetRng::seed(kv.seed);
    // Per-tenant KV decision streams (op mix, key choice, repeats) are
    // forked from the [kv] seed, independent of the arrival streams.
    let mut kv_rngs: Vec<DetRng> = (0..tn.tenants).map(|t| kv_root.fork(t as u64)).collect();
    let mut last_key: Vec<Option<u64>> = vec![None; tn.tenants];
    let mut tenants: Vec<TenantDriver> = (0..tn.tenants)
        .map(|t| {
            let class = tenant_class(t, tn.tenants);
            TenantDriver {
                home: t % nodes,
                channel: (t / nodes) as u32,
                class,
                weight: class_weight(tn.weights, class),
                rng: root.fork(t as u64),
                arrivals: ArrivalGen::new(tr.arrival, tr.rate_per_tenant, tr.burst),
                backlog: VecDeque::new(),
                offered: 0,
                completed: 0,
                errors: 0,
                hist: LatencyHistogram::new(),
            }
        })
        .collect();
    // token -> (tenant, arrival ps, key, is_get), per posting node.
    let mut pending: Vec<HashMap<u64, (usize, u64, u64, bool)>> =
        (0..nodes).map(|_| HashMap::new()).collect();
    let mut hist = LatencyHistogram::new();
    let mut ops = 0u64;
    let mut payload_bytes = 0u64;
    let mut errors = 0u64;
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
        classes[dir.class_of(dir.lookup(key).len)].keys += 1;
    }
    let (mut gets, mut puts, mut corrupt) = (0u64, 0u64, 0u64);
    let (mut get_lines, mut get_bytes, mut put_bytes) = (0u64, 0u64, 0u64);

    loop {
        let now_ps = backend.now().as_ps();
        // 1. Materialize every arrival that is due, in tenant order.
        for (idx, t) in tenants.iter_mut().enumerate() {
            while t.arrivals.peek_ps() <= now_ps {
                let Some(at) = t.arrivals.next_arrival(&mut t.rng, horizon_ps) else {
                    break;
                };
                let krng = &mut kv_rngs[idx];
                let is_get = krng.chance(kv.get_fraction);
                let key = match last_key[idx] {
                    Some(k) if is_get && krng.chance(kv.repeat_prob) => k,
                    _ => key_sampler.sample(krng) as u64,
                };
                last_key[idx] = Some(key);
                let p = dir.lookup(key);
                let dst = NodeId(p.node as u16);
                let req = if is_get {
                    RemoteRequest::read(dst, p.offset, p.len)
                } else {
                    // A PUT refill pushes the value's full deterministic
                    // image, so readers can never observe a torn value.
                    let mut payload = vec![0u8; p.len as usize];
                    sonuma_apps::fill_value(key, &mut payload);
                    RemoteRequest::write(dst, p.offset, payload)
                };
                t.backlog.push_back((at, req));
                t.offered += 1;
            }
        }
        // 2. Post as much backlog as the queues accept, in tenant order.
        let mut posted_any = false;
        for (idx, t) in tenants.iter_mut().enumerate() {
            while let Some((at, req)) = t.backlog.front() {
                let is_get = req.op == sonuma_core::RemoteOp::Read;
                match backend.post_on(NodeId(t.home as u16), t.channel, req.clone()) {
                    Ok(token) => {
                        pending[t.home].insert(token, (idx, *at, req.len, is_get));
                        t.backlog.pop_front();
                        posted_any = true;
                    }
                    Err(sonuma_core::BackendError::Backpressure) => break,
                    Err(e) => panic!("scenario {} kv post failed: {e}", spec.name),
                }
            }
        }
        // 3. Make progress and account completions.
        let more = backend.advance();
        let now = backend.now();
        for (n, node_pending) in pending.iter_mut().enumerate() {
            for c in backend.poll(NodeId(n as u16)) {
                let (idx, at, len, is_get) = node_pending
                    .remove(&c.token)
                    .expect("completion for unknown token");
                let lat = now.saturating_sub(SimTime::from_ps(at));
                let t = &mut tenants[idx];
                t.completed += 1;
                ops += 1;
                if c.status.is_ok() {
                    t.hist.record(lat);
                    hist.record(lat);
                    payload_bytes += len;
                    let class = &mut classes[dir.class_of(len)];
                    if is_get {
                        gets += 1;
                        get_lines += len.div_ceil(64);
                        get_bytes += len;
                        class.gets += 1;
                        class.get_hist.record(lat);
                        // The payload carries the key in its header;
                        // verify the whole image byte-for-byte.
                        let key = u64::from_le_bytes(
                            c.data.get(..8).map_or([0u8; 8], |h| h.try_into().unwrap()),
                        );
                        if !sonuma_apps::verify_value(key, &c.data) {
                            corrupt += 1;
                        }
                    } else {
                        puts += 1;
                        put_bytes += len;
                        class.puts += 1;
                        class.put_hist.record(lat);
                    }
                    if let Some(flow) = flow.as_deref_mut() {
                        flow.record(now, idx as u32, lat);
                    }
                } else {
                    errors += 1;
                    t.errors += 1;
                }
            }
        }
        // 4. Terminate, or jump the idle clock to the next arrival.
        let backlogged = tenants.iter().any(|t| !t.backlog.is_empty());
        let inflight: usize = pending.iter().map(HashMap::len).sum();
        if !more && !posted_any && !backlogged && inflight == 0 {
            let next = tenants
                .iter()
                .map(|t| t.arrivals.peek_ps())
                .filter(|&p| p <= horizon_ps)
                .min();
            match next {
                Some(p) => backend.advance_clock_to(SimTime::from_ps(p)),
                None => break,
            }
        }
    }

    let sim_time = backend.now();
    let wall_secs = started.elapsed().as_secs_f64();
    let events = backend.events_processed();
    let offered_ops = tenants.iter().map(|t| t.offered).sum();
    let outcomes = tenants
        .into_iter()
        .enumerate()
        .map(|(t, d)| TenantOutcome {
            tenant: t as u32,
            node: d.home as u16,
            class: d.class,
            weight: d.weight,
            offered: d.offered,
            ops: d.completed,
            errors: d.errors,
            hist: d.hist,
        })
        .collect();
    BackendRun {
        backend: backend.label().to_string(),
        ops,
        offered_ops,
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
        speculation: None,
        compare_serial: None,
        pipeline_total: None,
        per_node: Vec::new(),
        tenants: outcomes,
        fabric: None,
        ok_bins_1us: Vec::new(),
        faults: None,
        trace: None,
        kv: Some(KvOutcome {
            keys: dir.keys(),
            gets,
            puts,
            corrupt,
            get_lines,
            get_bytes,
            put_bytes,
            classes,
        }),
    }
}

/// How many times each (spec, backend) pair is driven for wall-clock
/// timing. The simulated metrics come from the first drive (they are
/// identical across repetitions by construction); the reported
/// `wall_events_per_sec` is the best of the repetitions, the standard
/// antidote to scheduler noise in a CI-gated throughput number.
pub const TIMING_REPS: u32 = 3;

/// Executes one spec over every backend it requests.
///
/// # Panics
///
/// Panics if the spec fails [`ScenarioSpec::validate`] or a post is
/// rejected for a non-backpressure reason (both indicate harness bugs —
/// specs are validated at load time).
pub fn run_spec(spec: &ScenarioSpec) -> ScenarioResult {
    run_spec_with_reps(spec, TIMING_REPS)
}

/// Executes one spec with a single drive per backend — no timing
/// repetitions, so wall figures are first-drive values and a traced
/// run's `wall_overhead_secs` stays 0. This is what trace consumers
/// (the determinism test, figure generation) want: the simulated
/// metrics and trace bytes are identical to [`run_spec`]'s, without
/// paying for re-timed drives.
pub fn run_spec_once(spec: &ScenarioSpec) -> ScenarioResult {
    run_spec_with_reps(spec, 1)
}

fn run_spec_with_reps(spec: &ScenarioSpec, reps: u32) -> ScenarioResult {
    spec.validate().expect("spec validated at load time");
    let trace_spec = spec.trace.as_ref().filter(|t| !t.is_empty());
    let drive_one = |instance: &mut BackendInstance,
                     flow: Option<&mut sonuma_trace::TenantFlow>| {
        if spec.kv.as_ref().is_some_and(|kv| !kv.is_empty()) {
            drive_kv(spec, instance.as_dyn(), flow)
        } else if spec.tenancy.is_some() {
            drive_open_loop(spec, instance.as_dyn(), flow)
        } else {
            drive(spec, instance.as_dyn())
        }
    };
    let mut runs = Vec::new();
    for kind in spec.backend.kinds() {
        let built_at = std::time::Instant::now();
        let mut instance = BackendInstance::build(spec, kind);
        let mut construct_secs = built_at.elapsed().as_secs_f64();
        // Only the soNUMA machine carries a flight recorder; the modeled
        // baselines have no fabric or pipelines to sample.
        let traced = trace_spec.filter(|_| kind == BackendKind::Sonuma);
        if let (Some(t), BackendInstance::Sonuma(b)) = (traced, &mut instance) {
            b.arm_trace(&t.config());
        }
        let mut flow = traced
            .filter(|_| spec.tenancy.is_some())
            .map(|t| sonuma_trace::TenantFlow::new(us_to_sim(t.interval_us)));
        let mut run = drive_one(&mut instance, flow.as_mut());
        run.threads = spec.threads;
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
                wall_overhead_secs: 0.0,
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
            if b.speculation_depth() > 0 {
                run.speculation = Some(b.speculation());
            }
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
        // The measured instance is fully snapshotted; release it before
        // the re-timed builds so only one machine is ever resident.
        drop(instance);
        // The repetitions run untraced (never armed, no tenant sampler):
        // the reported wall figures must describe the untraced hot path,
        // and the first drive's wall time minus the best untraced one is
        // the recorder's measured overhead. With tracing on and reps to
        // come, the traced first-drive wall figures are discarded.
        let traced_wall = run.trace.as_ref().map(|_| run.wall_secs);
        if traced_wall.is_some() && reps > 1 {
            run.wall_secs = 0.0;
            run.wall_events_per_sec = 0.0;
        }
        for _ in 1..reps {
            let built_at = std::time::Instant::now();
            let mut retimed = BackendInstance::build(spec, kind);
            construct_secs = construct_secs.min(built_at.elapsed().as_secs_f64());
            let rep = drive_one(&mut retimed, None);
            debug_assert_eq!(rep.events, run.events, "repetitions must be identical");
            if rep.wall_events_per_sec > run.wall_events_per_sec {
                run.wall_events_per_sec = rep.wall_events_per_sec;
                run.wall_secs = rep.wall_secs;
            }
        }
        run.wall_construct_secs = construct_secs;
        if let (Some(tw), Some(trace)) = (traced_wall, run.trace.as_mut()) {
            if reps > 1 {
                trace.wall_overhead_secs = (tw - run.wall_secs).max(0.0);
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

/// Executes a list of specs in order.
pub fn run_specs(specs: &[ScenarioSpec]) -> Vec<ScenarioResult> {
    specs.iter().map(run_spec).collect()
}

/// Executes `spec` twice — at `threads = 1` with speculation off and at
/// the spec's own thread count and `speculate_epochs` (threads forced to
/// 4 when the spec says 1) — and attaches the serial run's wall time,
/// the wall ratio, and the serial epoch count to each backend run (the
/// `--compare-threads` mode).
///
/// # Panics
///
/// Panics if the two runs disagree on any simulated metric: that would
/// be a determinism break, which the bench must never paper over.
pub fn run_spec_compare_threads(spec: &ScenarioSpec) -> ScenarioResult {
    let mut serial_spec = spec.clone();
    serial_spec.threads = 1;
    serial_spec.speculate_epochs = 0;
    let mut sharded_spec = spec.clone();
    if sharded_spec.threads == 1 {
        sharded_spec.threads = 4;
    }
    let serial = run_spec(&serial_spec);
    let mut result = run_spec(&sharded_spec);
    for (run, srun) in result.runs.iter_mut().zip(&serial.runs) {
        assert_eq!(
            (run.events, run.ops, run.sim_time),
            (srun.events, srun.ops, srun.sim_time),
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

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

fn stats_json(stats: &PipelineStats) -> Json {
    Json::Obj(
        stats
            .rows()
            .iter()
            .map(|&(name, value)| (name.to_string(), Json::Num(value as f64)))
            .collect(),
    )
}

/// Latency members of a tenant/class histogram, in report order.
fn latency_json(hist: &LatencyHistogram) -> Vec<(String, Json)> {
    vec![
        (
            "lat_p50_ns".to_string(),
            Json::Num(hist.percentile(0.50).as_ns_f64()),
        ),
        (
            "lat_p99_ns".to_string(),
            Json::Num(hist.percentile(0.99).as_ns_f64()),
        ),
        (
            "lat_p999_ns".to_string(),
            Json::Num(hist.percentile(0.999).as_ns_f64()),
        ),
        (
            "lat_mean_ns".to_string(),
            Json::Num(hist.mean().as_ns_f64()),
        ),
    ]
}

/// The `per_tenant` report section: achieved-vs-offered fairness (Jain's
/// index over each tenant's delivered fraction), per-SLO-class latency
/// aggregates, and the full per-tenant table.
fn per_tenant_json(run: &BackendRun) -> Json {
    let jain = run.jain_fairness();
    let mut classes = Vec::new();
    for class in [SloClass::Gold, SloClass::Silver, SloClass::Bronze] {
        let Some(hist) = run.class_histogram(class) else {
            continue;
        };
        let (mut count, mut offered, mut ops) = (0u64, 0u64, 0u64);
        for t in run.tenants.iter().filter(|t| t.class == class) {
            count += 1;
            offered += t.offered;
            ops += t.ops;
        }
        let mut members = vec![
            ("class".to_string(), Json::Str(class.as_str().into())),
            ("tenants".to_string(), Json::Num(count as f64)),
            ("offered_ops".to_string(), Json::Num(offered as f64)),
            ("ops".to_string(), Json::Num(ops as f64)),
        ];
        members.extend(latency_json(&hist));
        classes.push(Json::Obj(members));
    }
    let tenants = run
        .tenants
        .iter()
        .take(MAX_REPORTED_TENANTS)
        .map(|t| {
            let mut members = vec![
                ("tenant".to_string(), Json::Num(t.tenant as f64)),
                ("node".to_string(), Json::Num(t.node as f64)),
                ("class".to_string(), Json::Str(t.class.as_str().into())),
                ("weight".to_string(), Json::Num(t.weight as f64)),
                ("offered_ops".to_string(), Json::Num(t.offered as f64)),
                ("ops".to_string(), Json::Num(t.ops as f64)),
                ("errors".to_string(), Json::Num(t.errors as f64)),
            ];
            members.extend(latency_json(&t.hist));
            Json::Obj(members)
        })
        .collect();
    let shown = run.tenants.len().min(MAX_REPORTED_TENANTS);
    Json::Obj(vec![
        ("tenants".to_string(), Json::Num(run.tenants.len() as f64)),
        ("jain_fairness".to_string(), Json::Num(jain)),
        ("classes".to_string(), Json::Arr(classes)),
        ("detail_shown".to_string(), Json::Num(shown as f64)),
        (
            "detail_truncated".to_string(),
            Json::Bool(run.tenants.len() > shown),
        ),
        ("detail".to_string(), Json::Arr(tenants)),
    ])
}

fn fabric_json(fabric: &FabricSummary) -> Json {
    Json::Obj(vec![
        ("bytes".to_string(), Json::Num(fabric.bytes as f64)),
        ("packets".to_string(), Json::Num(fabric.packets as f64)),
        (
            "credit_stalls".to_string(),
            Json::Num(fabric.credit_stalls as f64),
        ),
        (
            "lane_packets".to_string(),
            Json::Arr(
                fabric
                    .lane_packets
                    .iter()
                    .map(|&p| Json::Num(p as f64))
                    .collect(),
            ),
        ),
        (
            "links_observed".to_string(),
            Json::Num(fabric.links_observed as f64),
        ),
        (
            "hot_links".to_string(),
            Json::Arr(
                fabric
                    .hot_links
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("src".to_string(), Json::Num(l.src.0 as f64)),
                            ("dst".to_string(), Json::Num(l.dst.0 as f64)),
                            ("bytes".to_string(), Json::Num(l.bytes as f64)),
                            ("packets".to_string(), Json::Num(l.packets as f64)),
                            (
                                "credit_stalls".to_string(),
                                Json::Num(l.credit_stalls as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// How many 1 µs goodput bins a report includes (fault runs only). The
/// recovery metrics always cover every bin; only the raw dump is capped.
pub const MAX_REPORTED_BINS: usize = 256;

fn fault_json(f: &FaultOutcome, bins: &[u64]) -> Json {
    let mut members = vec![
        (
            "links_degraded".to_string(),
            Json::Num(f.links_degraded as f64),
        ),
        ("links_killed".to_string(), Json::Num(f.links_killed as f64)),
        (
            "nodes_crashed".to_string(),
            Json::Num(f.nodes_crashed as f64),
        ),
        ("dropped".to_string(), Json::Num(f.dropped as f64)),
        ("corrupted".to_string(), Json::Num(f.corrupted as f64)),
        ("rerouted".to_string(), Json::Num(f.rerouted as f64)),
        ("unreachable".to_string(), Json::Num(f.unreachable as f64)),
        ("crashes".to_string(), Json::Num(f.crashes as f64)),
        ("crash_drops".to_string(), Json::Num(f.crash_drops as f64)),
        ("rgp_timeouts".to_string(), Json::Num(f.rgp_timeouts as f64)),
        (
            "rgp_retransmits".to_string(),
            Json::Num(f.rgp_retransmits as f64),
        ),
        (
            "rrpp_corrupt_drops".to_string(),
            Json::Num(f.rrpp_corrupt_drops as f64),
        ),
        ("aborted".to_string(), Json::Num(f.aborted as f64)),
        (
            "goodput_fraction".to_string(),
            Json::Num(f.goodput_fraction),
        ),
        (
            "prefault_ops_per_us".to_string(),
            Json::Num(f.prefault_ops_per_us),
        ),
        ("recovered".to_string(), Json::Bool(f.recovered)),
    ];
    if let Some(onset) = f.onset_us {
        members.push(("onset_us".to_string(), Json::Num(onset)));
    }
    if let Some(rec) = f.recovery_us {
        members.push(("recovery_us".to_string(), Json::Num(rec)));
    }
    if let Some(p99) = f.gold_p99_ns {
        members.push(("gold_p99_ns".to_string(), Json::Num(p99)));
    }
    if let Some(p99) = f.bronze_p99_ns {
        members.push(("bronze_p99_ns".to_string(), Json::Num(p99)));
    }
    members.push((
        "ok_bins_1us".to_string(),
        Json::Arr(
            bins.iter()
                .take(MAX_REPORTED_BINS)
                .map(|&b| Json::Num(b as f64))
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// The `kv` report section: directory-plane totals, verification
/// status, the per-value-size-class GET/PUT crossover rows, and the
/// per-SLO-class achieved-vs-offered rows.
fn kv_json(run: &BackendRun, kv: &KvOutcome) -> Json {
    let classes = kv
        .classes
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("bytes".to_string(), Json::Num(c.bytes as f64)),
                ("lines".to_string(), Json::Num(c.bytes.div_ceil(64) as f64)),
                ("keys".to_string(), Json::Num(c.keys as f64)),
                ("gets".to_string(), Json::Num(c.gets as f64)),
                ("puts".to_string(), Json::Num(c.puts as f64)),
                (
                    "get_p50_ns".to_string(),
                    Json::Num(c.get_hist.percentile(0.50).as_ns_f64()),
                ),
                (
                    "get_p99_ns".to_string(),
                    Json::Num(c.get_hist.percentile(0.99).as_ns_f64()),
                ),
                (
                    "get_mean_ns".to_string(),
                    Json::Num(c.get_hist.mean().as_ns_f64()),
                ),
                (
                    "put_p50_ns".to_string(),
                    Json::Num(c.put_hist.percentile(0.50).as_ns_f64()),
                ),
                (
                    "put_p99_ns".to_string(),
                    Json::Num(c.put_hist.percentile(0.99).as_ns_f64()),
                ),
                (
                    "put_mean_ns".to_string(),
                    Json::Num(c.put_hist.mean().as_ns_f64()),
                ),
            ])
        })
        .collect();
    // Per-SLO-class rows: the tenant-visible (GET+PUT) tail and the
    // achieved-vs-offered throughput the gold/silver/bronze gates read.
    let mut slo = Vec::new();
    for class in [SloClass::Gold, SloClass::Silver, SloClass::Bronze] {
        let Some(hist) = run.class_histogram(class) else {
            continue;
        };
        let (mut count, mut offered, mut ops) = (0u64, 0u64, 0u64);
        for t in run.tenants.iter().filter(|t| t.class == class) {
            count += 1;
            offered += t.offered;
            ops += t.ops;
        }
        let mut members = vec![
            ("class".to_string(), Json::Str(class.as_str().into())),
            ("tenants".to_string(), Json::Num(count as f64)),
            ("offered_ops".to_string(), Json::Num(offered as f64)),
            ("ops".to_string(), Json::Num(ops as f64)),
            (
                "achieved_fraction".to_string(),
                Json::Num(if offered > 0 {
                    ops as f64 / offered as f64
                } else {
                    0.0
                }),
            ),
        ];
        members.extend(latency_json(&hist));
        slo.push(Json::Obj(members));
    }
    Json::Obj(vec![
        ("keys".to_string(), Json::Num(kv.keys as f64)),
        ("gets".to_string(), Json::Num(kv.gets as f64)),
        ("puts".to_string(), Json::Num(kv.puts as f64)),
        ("corrupt".to_string(), Json::Num(kv.corrupt as f64)),
        ("get_lines".to_string(), Json::Num(kv.get_lines as f64)),
        ("get_bytes".to_string(), Json::Num(kv.get_bytes as f64)),
        ("put_bytes".to_string(), Json::Num(kv.put_bytes as f64)),
        (
            "achieved_fraction".to_string(),
            Json::Num(if run.offered_ops > 0 {
                (run.ops - run.errors) as f64 / run.offered_ops as f64
            } else {
                0.0
            }),
        ),
        ("classes".to_string(), Json::Arr(classes)),
        ("slo".to_string(), Json::Arr(slo)),
    ])
}

fn run_json(run: &BackendRun) -> Json {
    let mut members = vec![
        ("backend".to_string(), Json::Str(run.backend.clone())),
        ("ops".to_string(), Json::Num(run.ops as f64)),
        ("offered_ops".to_string(), Json::Num(run.offered_ops as f64)),
        (
            "payload_bytes".to_string(),
            Json::Num(run.payload_bytes as f64),
        ),
        ("errors".to_string(), Json::Num(run.errors as f64)),
        ("sim_us".to_string(), Json::Num(run.sim_time.as_us_f64())),
        ("ops_per_sec".to_string(), Json::Num(run.ops_per_sec)),
        ("gbps".to_string(), Json::Num(run.gbps)),
        ("lat_p50_ns".to_string(), Json::Num(run.p50.as_ns_f64())),
        ("lat_p99_ns".to_string(), Json::Num(run.p99.as_ns_f64())),
        ("lat_p999_ns".to_string(), Json::Num(run.p999.as_ns_f64())),
        ("lat_mean_ns".to_string(), Json::Num(run.mean.as_ns_f64())),
        ("events".to_string(), Json::Num(run.events as f64)),
        ("wall_secs".to_string(), Json::Num(run.wall_secs)),
        (
            "wall_events_per_sec".to_string(),
            Json::Num(run.wall_events_per_sec),
        ),
        (
            "wall_packets_per_sec".to_string(),
            Json::Num(run.wall_packets_per_sec),
        ),
        (
            "wall_construct_secs".to_string(),
            Json::Num(run.wall_construct_secs),
        ),
    ];
    // Shard metadata: everything here either depends on the partition
    // (shard_events) or on the host (wall rates), so the whole section is
    // stripped by `equivalence_diff` alongside the wall_* fields.
    let mut sharding = vec![
        ("threads".to_string(), Json::Num(run.threads as f64)),
        ("shards".to_string(), Json::Num(run.shards as f64)),
        ("epochs".to_string(), Json::Num(run.epochs as f64)),
        ("cut_links".to_string(), Json::Num(run.cut_links as f64)),
        (
            "pair_bound_violations".to_string(),
            Json::Num(run.pair_bound_violations as f64),
        ),
        (
            "resident_bytes".to_string(),
            Json::Num(run.resident_bytes as f64),
        ),
    ];
    if let Some(lookahead) = run.lookahead {
        sharding.push(("lookahead_ns".to_string(), Json::Num(lookahead.as_ns_f64())));
    }
    if let Some((committed, rolled_back)) = run.speculation {
        let settled = committed + rolled_back;
        sharding.push((
            "speculation".to_string(),
            Json::Obj(vec![
                ("committed".to_string(), Json::Num(committed as f64)),
                ("rolled_back".to_string(), Json::Num(rolled_back as f64)),
                (
                    "rollback_ratio".to_string(),
                    Json::Num(if settled > 0 {
                        rolled_back as f64 / settled as f64
                    } else {
                        0.0
                    }),
                ),
            ]),
        ));
    }
    if let Some(cmp) = &run.compare_serial {
        sharding.push((
            "compare_serial".to_string(),
            Json::Obj(vec![
                ("wall_secs".to_string(), Json::Num(cmp.wall_secs)),
                ("wall_ratio".to_string(), Json::Num(cmp.wall_ratio)),
                ("epochs".to_string(), Json::Num(cmp.epochs as f64)),
            ]),
        ));
    }
    if !run.shard_events.is_empty() {
        sharding.push((
            "shard_events".to_string(),
            Json::Arr(
                run.shard_events
                    .iter()
                    .map(|&e| Json::Num(e as f64))
                    .collect(),
            ),
        ));
        if run.wall_secs > 0.0 {
            sharding.push((
                "wall_shard_events_per_sec".to_string(),
                Json::Arr(
                    run.shard_events
                        .iter()
                        .map(|&e| Json::Num(e as f64 / run.wall_secs))
                        .collect(),
                ),
            ));
        }
    }
    members.push(("sharding".to_string(), Json::Obj(sharding)));
    if !run.tenants.is_empty() {
        members.push(("per_tenant".to_string(), per_tenant_json(run)));
    }
    if let Some(fabric) = &run.fabric {
        members.push(("fabric".to_string(), fabric_json(fabric)));
    }
    if let Some(f) = &run.faults {
        members.push(("faults".to_string(), fault_json(f, &run.ok_bins_1us)));
    }
    if let Some(kv) = &run.kv {
        members.push(("kv".to_string(), kv_json(run, kv)));
    }
    if let Some(t) = &run.trace {
        let s = t.summary;
        members.push((
            "trace".to_string(),
            Json::Obj(vec![
                ("interval_us".to_string(), Json::Num(t.interval_us)),
                ("ticks".to_string(), Json::Num(s.ticks as f64)),
                ("link_samples".to_string(), Json::Num(s.link_samples as f64)),
                ("link_dropped".to_string(), Json::Num(s.link_dropped as f64)),
                ("node_samples".to_string(), Json::Num(s.node_samples as f64)),
                ("node_dropped".to_string(), Json::Num(s.node_dropped as f64)),
                ("fault_events".to_string(), Json::Num(s.fault_events as f64)),
                (
                    "fault_dropped".to_string(),
                    Json::Num(s.fault_dropped as f64),
                ),
                (
                    "tenant_samples".to_string(),
                    Json::Num(t.tenant_samples as f64),
                ),
                (
                    "wall_overhead_secs".to_string(),
                    Json::Num(t.wall_overhead_secs),
                ),
            ]),
        ));
    }
    if let Some(total) = &run.pipeline_total {
        members.push(("pipeline_total".to_string(), stats_json(total)));
        members.push((
            "per_node".to_string(),
            Json::Arr(run.per_node.iter().map(stats_json).collect()),
        ));
    }
    Json::Obj(members)
}

/// Measures this machine's single-core event throughput: the legacy
/// boxed-closure engine draining a fixed pseudorandom 100k-event workload
/// (best of three). Reports store this next to their absolute events/sec
/// so [`check_baseline`] can compare runs from different machines by the
/// *ratio* to the host's own calibration instead of raw wall-clock rates.
pub fn calibrate() -> f64 {
    const N: u64 = 100_000;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let started = Instant::now();
        let mut engine: sonuma_sim::Engine<u64> = sonuma_sim::Engine::new();
        let mut acc = 0u64;
        let mut seed = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..N {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let salt = seed;
            engine.schedule_at(
                SimTime::from_ps(seed % 5_000_000_000),
                move |w: &mut u64, _| {
                    *w = w.wrapping_add(salt);
                },
            );
        }
        engine.run(&mut acc);
        assert_ne!(acc, 0);
        best = best.max(N as f64 / started.elapsed().as_secs_f64());
    }
    best
}

/// Builds the versioned report document from executed scenarios.
pub fn report(results: &[ScenarioResult]) -> Json {
    report_inner(results, None)
}

/// As [`report`], embedding a host calibration (see [`calibrate`]) so the
/// report can gate — and be gated — across machines.
pub fn report_calibrated(results: &[ScenarioResult], boxed_events_per_sec: f64) -> Json {
    report_inner(results, Some(boxed_events_per_sec))
}

fn report_inner(results: &[ScenarioResult], calibration: Option<f64>) -> Json {
    let mut members = vec![("schema".to_string(), Json::Str(REPORT_SCHEMA.into()))];
    if let Some(eps) = calibration {
        members.push((
            "calibration".to_string(),
            Json::Obj(vec![(
                "wall_boxed_events_per_sec".to_string(),
                Json::Num(eps),
            )]),
        ));
    }
    members.push((
        "scenarios".to_string(),
        Json::Arr(
            results
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("spec".into(), r.spec.to_json()),
                        (
                            "runs".into(),
                            Json::Arr(r.runs.iter().map(run_json).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// Checks that a parsed document is a well-formed scenario report.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    match doc.str_of("schema") {
        Some(REPORT_SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("missing schema tag".to_string()),
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("missing scenarios array")?;
    if scenarios.is_empty() {
        return Err("empty scenarios array".to_string());
    }
    for (i, sc) in scenarios.iter().enumerate() {
        let spec = sc
            .get("spec")
            .ok_or(format!("scenario {i}: missing spec"))?;
        let name = spec
            .str_of("name")
            .ok_or(format!("scenario {i}: spec has no name"))?;
        spec.u64_of("nodes")
            .filter(|&n| n >= 2)
            .ok_or(format!("scenario {name}: bad nodes"))?;
        spec.u64_of("seed")
            .ok_or(format!("scenario {name}: no seed"))?;
        let runs = sc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("scenario {name}: missing runs"))?;
        if runs.is_empty() {
            return Err(format!("scenario {name}: no runs"));
        }
        for run in runs {
            let backend = run
                .str_of("backend")
                .ok_or(format!("scenario {name}: run without backend"))?;
            for key in [
                "ops",
                "offered_ops",
                "payload_bytes",
                "errors",
                "sim_us",
                "ops_per_sec",
                "gbps",
                "lat_p50_ns",
                "lat_p99_ns",
                "lat_p999_ns",
                "events",
                "wall_secs",
                "wall_events_per_sec",
                "wall_packets_per_sec",
                "wall_construct_secs",
            ] {
                run.f64_of(key)
                    .ok_or(format!("scenario {name}/{backend}: missing {key}"))?;
            }
            let sharding = run
                .get("sharding")
                .ok_or(format!("scenario {name}/{backend}: missing sharding"))?;
            for key in [
                "threads",
                "shards",
                "epochs",
                "cut_links",
                "pair_bound_violations",
                "resident_bytes",
            ] {
                sharding
                    .u64_of(key)
                    .ok_or(format!("scenario {name}/{backend}: sharding has no {key}"))?;
            }
            if let Some(sp) = sharding.get("speculation") {
                for key in ["committed", "rolled_back"] {
                    sp.u64_of(key).ok_or(format!(
                        "scenario {name}/{backend}: speculation has no {key}"
                    ))?;
                }
                let ratio = sp.f64_of("rollback_ratio").ok_or(format!(
                    "scenario {name}/{backend}: speculation has no rollback_ratio"
                ))?;
                if !(0.0..=1.0).contains(&ratio) {
                    return Err(format!(
                        "scenario {name}/{backend}: rollback_ratio {ratio} out of [0, 1]"
                    ));
                }
            }
            if let Some(fa) = run.get("faults") {
                let goodput = fa.f64_of("goodput_fraction").ok_or(format!(
                    "scenario {name}/{backend}: faults has no goodput_fraction"
                ))?;
                if !(0.0..=1.0).contains(&goodput) {
                    return Err(format!(
                        "scenario {name}/{backend}: goodput_fraction {goodput} out of [0, 1]"
                    ));
                }
                if !matches!(fa.get("recovered"), Some(Json::Bool(_))) {
                    return Err(format!(
                        "scenario {name}/{backend}: faults has no recovered flag"
                    ));
                }
            }
            if let Some(kv) = run.get("kv") {
                for key in ["keys", "gets", "puts", "corrupt", "get_lines", "get_bytes"] {
                    kv.u64_of(key)
                        .ok_or(format!("scenario {name}/{backend}: kv has no {key}"))?;
                }
                let achieved = kv.f64_of("achieved_fraction").ok_or(format!(
                    "scenario {name}/{backend}: kv has no achieved_fraction"
                ))?;
                if !(0.0..=1.0).contains(&achieved) {
                    return Err(format!(
                        "scenario {name}/{backend}: kv achieved_fraction {achieved} out of [0, 1]"
                    ));
                }
                let classes = kv
                    .get("classes")
                    .and_then(Json::as_arr)
                    .filter(|c| !c.is_empty())
                    .ok_or(format!("scenario {name}/{backend}: kv without classes"))?;
                for c in classes {
                    for key in ["bytes", "keys", "get_p99_ns", "put_p99_ns"] {
                        c.f64_of(key)
                            .ok_or(format!("scenario {name}/{backend}: kv class has no {key}"))?;
                    }
                }
                kv.get("slo")
                    .and_then(Json::as_arr)
                    .filter(|s| !s.is_empty())
                    .ok_or(format!("scenario {name}/{backend}: kv without slo rows"))?;
            }
            if let Some(tr) = run.get("trace") {
                for key in [
                    "ticks",
                    "link_samples",
                    "link_dropped",
                    "node_samples",
                    "node_dropped",
                    "fault_events",
                    "fault_dropped",
                    "tenant_samples",
                ] {
                    tr.u64_of(key)
                        .ok_or(format!("scenario {name}/{backend}: trace has no {key}"))?;
                }
                let overhead = tr.f64_of("wall_overhead_secs").ok_or(format!(
                    "scenario {name}/{backend}: trace has no wall_overhead_secs"
                ))?;
                if overhead < 0.0 {
                    return Err(format!(
                        "scenario {name}/{backend}: negative trace overhead {overhead}"
                    ));
                }
            }
            if let Some(pt) = run.get("per_tenant") {
                let jain = pt
                    .f64_of("jain_fairness")
                    .ok_or(format!("scenario {name}/{backend}: per_tenant has no jain"))?;
                if !(0.0..=1.0).contains(&jain) {
                    return Err(format!(
                        "scenario {name}/{backend}: jain_fairness {jain} out of [0, 1]"
                    ));
                }
                pt.get("detail")
                    .and_then(Json::as_arr)
                    .filter(|d| !d.is_empty())
                    .ok_or(format!(
                        "scenario {name}/{backend}: per_tenant without detail"
                    ))?;
            }
        }
    }
    Ok(())
}

/// Outcome of comparing a fresh report against a checked-in baseline.
#[derive(Debug, Default)]
pub struct BaselineCheck {
    /// `(scenario, backend)` pairs that regressed, with details.
    pub failures: Vec<String>,
    /// Informational lines (sim-metric drift, missing counterparts).
    pub notes: Vec<String>,
}

/// Pairs whose baseline executed fewer events than this are too short for
/// a meaningful wall-clock rate (sub-10 ms runs are scheduler noise); they
/// are excluded from per-pair gating but still count toward the aggregate.
pub const MIN_GATED_EVENTS: u64 = 100_000;

#[derive(Debug)]
struct RunRow {
    name: String,
    backend: String,
    eps: f64,
    pps: f64,
    sim_us: f64,
    events: f64,
    wall_secs: f64,
    construct_secs: f64,
}

fn run_rows(doc: &Json) -> Vec<RunRow> {
    let mut out = Vec::new();
    if let Some(scenarios) = doc.get("scenarios").and_then(Json::as_arr) {
        for sc in scenarios {
            let name = sc
                .get("spec")
                .and_then(|s| s.str_of("name"))
                .unwrap_or("?")
                .to_string();
            if let Some(runs) = sc.get("runs").and_then(Json::as_arr) {
                for run in runs {
                    out.push(RunRow {
                        name: name.clone(),
                        backend: run.str_of("backend").unwrap_or("?").to_string(),
                        eps: run.f64_of("wall_events_per_sec").unwrap_or(0.0),
                        pps: run.f64_of("wall_packets_per_sec").unwrap_or(0.0),
                        sim_us: run.f64_of("sim_us").unwrap_or(0.0),
                        events: run.f64_of("events").unwrap_or(0.0),
                        wall_secs: run.f64_of("wall_secs").unwrap_or(0.0),
                        construct_secs: run.f64_of("wall_construct_secs").unwrap_or(0.0),
                    });
                }
            }
        }
    }
    out
}

/// The host calibration embedded in a report, if present and sane.
fn calibration_of(doc: &Json) -> Option<f64> {
    doc.get("calibration")
        .and_then(|c| c.f64_of("wall_boxed_events_per_sec"))
        .filter(|&x| x > 0.0)
}

/// Compares wall-clock events/sec of `current` against `baseline`.
///
/// When both reports embed a host calibration (see [`calibrate`]), rates
/// are compared *relative to each host's calibration*, so a baseline
/// recorded on one machine meaningfully gates a run on another; without
/// calibration the comparison falls back to absolute rates (noted).
///
/// Four gates, all with budget `max_regress` (e.g. `0.20`):
///
/// * per `(scenario, backend)` pair on events/sec, for pairs whose
///   baseline executed at least [`MIN_GATED_EVENTS`] events;
/// * per pair on `wall_packets_per_sec`, for fabric-backed pairs meeting
///   the same floor — the batching-invariant fabric hot-path gate;
/// * per pair on `wall_construct_secs` (lower is better), for pairs
///   whose baseline build took at least 50 ms — the parallel-world-
///   construction gate;
/// * the aggregate `Σ events / Σ wall_secs` across every matched pair,
///   which is the overall typed-engine throughput the tentpole protects.
///
/// Simulated-metric drift and current runs with no baseline counterpart
/// (i.e. not gated at all) are reported as notes, not failures — both
/// mean the baseline wants regenerating.
pub fn check_baseline(current: &Json, baseline: &Json, max_regress: f64) -> BaselineCheck {
    let mut check = BaselineCheck::default();
    // A stale baseline fails loudly with the fix, not with a cascade of
    // missing-field errors: the schema version must match the binary's.
    match baseline.str_of("schema") {
        Some(REPORT_SCHEMA) => {}
        other => {
            check.failures.push(format!(
                "baseline schema {} does not match this binary's {REPORT_SCHEMA:?}; \
                 regenerate it with `sonuma-bench baseline --regen`",
                other.map_or("<missing>".to_string(), |s| format!("{s:?}"))
            ));
            return check;
        }
    }
    let cur = run_rows(current);
    let base_rows = run_rows(baseline);
    // Normalization divisors: each host's own calibration, or 1.0 for the
    // absolute fallback when either side lacks one.
    let (cur_calib, base_calib) = match (calibration_of(current), calibration_of(baseline)) {
        (Some(c), Some(b)) => (c, b),
        _ => {
            check.notes.push(
                "no calibration on one or both reports; comparing absolute \
                 events/sec (hardware differences count as regressions)"
                    .to_string(),
            );
            (1.0, 1.0)
        }
    };
    let (mut base_events, mut base_wall) = (0.0f64, 0.0f64);
    let (mut cur_events, mut cur_wall) = (0.0f64, 0.0f64);
    for base in &base_rows {
        let Some(row) = cur
            .iter()
            .find(|r| r.name == base.name && r.backend == base.backend)
        else {
            check.failures.push(format!(
                "{}/{}: present in baseline, missing in run",
                base.name, base.backend
            ));
            continue;
        };
        base_events += base.events;
        base_wall += base.wall_secs;
        cur_events += row.events;
        cur_wall += row.wall_secs;
        let base_rel = base.eps / base_calib;
        let cur_rel = row.eps / cur_calib;
        let floor = base_rel * (1.0 - max_regress);
        if base.events < MIN_GATED_EVENTS as f64 {
            check.notes.push(format!(
                "{}/{}: only {:.0} events in baseline, below the {} gating \
                 floor; counted in the aggregate only",
                base.name, base.backend, base.events, MIN_GATED_EVENTS
            ));
        } else {
            if cur_rel < floor {
                check.failures.push(format!(
                    "{}/{}: {:.3} x-calibration events/sec < {:.3} \
                     (baseline {:.3}, max regression {:.0}%)",
                    base.name,
                    base.backend,
                    cur_rel,
                    floor,
                    base_rel,
                    max_regress * 100.0
                ));
            }
            // Fabric-backed pairs additionally gate on packet rate. Only
            // the baseline side is checked for presence: a current run
            // whose packet rate collapsed to zero (fabric summary lost,
            // field dropped) must FAIL the gate, not silently skip it.
            if base.pps > 0.0 {
                let base_prel = base.pps / base_calib;
                let cur_prel = row.pps / cur_calib;
                let pfloor = base_prel * (1.0 - max_regress);
                if cur_prel < pfloor {
                    check.failures.push(format!(
                        "{}/{}: {:.3} x-calibration packets/sec < {:.3} \
                         (baseline {:.3}, max regression {:.0}%)",
                        base.name,
                        base.backend,
                        cur_prel,
                        pfloor,
                        base_prel,
                        max_regress * 100.0
                    ));
                }
            }
        }
        // Construction wall time gates independently of drive time (lower
        // is better; multiplying by the host's calibration makes the
        // figure cross-machine comparable, mirroring the rate gates).
        // Sub-50 ms baseline builds are scheduler noise and skip the gate.
        if base.construct_secs >= 0.05 {
            let base_cnorm = base.construct_secs * base_calib;
            let cur_cnorm = row.construct_secs * cur_calib;
            let ceiling = base_cnorm * (1.0 + max_regress);
            if cur_cnorm > ceiling {
                check.failures.push(format!(
                    "{}/{}: {:.3e} x-calibration construct time > {:.3e} \
                     (baseline {:.3e}, max regression {:.0}%)",
                    base.name,
                    base.backend,
                    cur_cnorm,
                    ceiling,
                    base_cnorm,
                    max_regress * 100.0
                ));
            }
        }
        if (row.sim_us - base.sim_us).abs() > base.sim_us * 1e-9 {
            check.notes.push(format!(
                "{}/{}: simulated time drifted ({:.3} us -> {:.3} us); \
                 regenerate bench/baseline.json if intended",
                base.name, base.backend, base.sim_us, row.sim_us
            ));
        }
    }
    // Runs with no baseline counterpart are not gated — surface that.
    for row in &cur {
        if !base_rows
            .iter()
            .any(|b| b.name == row.name && b.backend == row.backend)
        {
            check.notes.push(format!(
                "{}/{}: not in baseline, events/sec not gated; regenerate \
                 bench/baseline.json to cover it",
                row.name, row.backend
            ));
        }
    }
    if base_wall > 0.0 && cur_wall > 0.0 {
        let base_agg = base_events / base_wall / base_calib;
        let cur_agg = cur_events / cur_wall / cur_calib;
        let floor = base_agg * (1.0 - max_regress);
        if cur_agg < floor {
            check.failures.push(format!(
                "aggregate: {cur_agg:.3} x-calibration events/sec < {floor:.3} \
                 (baseline {base_agg:.3}, max regression {:.0}%)",
                max_regress * 100.0
            ));
        }
    }
    check
}

/// `(scenario, backend, faults-object)` triples of a report.
fn fault_rows(doc: &Json) -> Vec<(String, String, Json)> {
    let mut out = Vec::new();
    if let Some(scenarios) = doc.get("scenarios").and_then(Json::as_arr) {
        for sc in scenarios {
            let name = sc
                .get("spec")
                .and_then(|s| s.str_of("name"))
                .unwrap_or("?")
                .to_string();
            if let Some(runs) = sc.get("runs").and_then(Json::as_arr) {
                for run in runs {
                    if let Some(fa) = run.get("faults") {
                        let backend = run.str_of("backend").unwrap_or("?").to_string();
                        out.push((name.clone(), backend, fa.clone()));
                    }
                }
            }
        }
    }
    out
}

/// Gates a fresh report's fault outcomes against a baseline's — the CI
/// `fault-matrix` lane's check. For every `(scenario, backend)` pair whose
/// baseline run carries a `faults` section:
///
/// * the current run must carry one too and report `recovered = true`
///   whenever the baseline recovered;
/// * recovery time may regress by at most 25 % (+1 µs of slack for bin
///   quantization);
/// * goodput under failure may drop by at most 0.02 absolute;
/// * where the baseline run kept gold p99 below bronze p99, the current
///   run must too — the isolation promise must hold *under* failure.
///
/// Pairs absent from the current report are [`check_baseline`]'s problem;
/// this check only compares fault physics where both sides ran.
pub fn check_fault_baseline(current: &Json, baseline: &Json) -> BaselineCheck {
    let mut check = BaselineCheck::default();
    let cur = fault_rows(current);
    for (name, backend, base) in fault_rows(baseline) {
        let Some((_, _, fa)) = cur.iter().find(|(n, b, _)| *n == name && *b == backend) else {
            // A current run that exists but lost its faults section means
            // injection was silently disabled — fail. A missing run is
            // already `check_baseline`'s failure; don't double-report.
            if run_rows(current)
                .iter()
                .any(|r| r.name == name && r.backend == backend)
            {
                check.failures.push(format!(
                    "{name}/{backend}: baseline has a faults section, current run does not"
                ));
            }
            continue;
        };
        let base_recovered = matches!(base.get("recovered"), Some(Json::Bool(true)));
        let cur_recovered = matches!(fa.get("recovered"), Some(Json::Bool(true)));
        if base_recovered && !cur_recovered {
            check.failures.push(format!(
                "{name}/{backend}: goodput no longer recovers to 90% of the pre-fault rate"
            ));
        }
        if let (Some(base_rec), Some(cur_rec)) =
            (base.f64_of("recovery_us"), fa.f64_of("recovery_us"))
        {
            let ceil = base_rec * 1.25 + 1.0;
            if cur_rec > ceil {
                check.failures.push(format!(
                    "{name}/{backend}: recovery {cur_rec:.1} us > {ceil:.1} us \
                     (baseline {base_rec:.1} us + 25% + 1 us slack)"
                ));
            }
        }
        if let (Some(base_gp), Some(cur_gp)) = (
            base.f64_of("goodput_fraction"),
            fa.f64_of("goodput_fraction"),
        ) {
            let floor = base_gp - 0.02;
            if cur_gp < floor {
                check.failures.push(format!(
                    "{name}/{backend}: goodput {cur_gp:.4} < {floor:.4} \
                     (baseline {base_gp:.4} - 0.02)"
                ));
            }
        }
        // Only gate class isolation where the baseline exhibits it: a
        // uniform-weight scenario legitimately reports gold == bronze.
        let base_isolates = matches!(
            (base.f64_of("gold_p99_ns"), base.f64_of("bronze_p99_ns")),
            (Some(g), Some(b)) if g < b
        );
        if base_isolates {
            if let (Some(gold), Some(bronze)) =
                (fa.f64_of("gold_p99_ns"), fa.f64_of("bronze_p99_ns"))
            {
                if gold >= bronze {
                    check.failures.push(format!(
                        "{name}/{backend}: gold p99 {gold:.0} ns >= bronze p99 {bronze:.0} ns \
                         under failure — SLO isolation broke"
                    ));
                }
            }
        }
    }
    check
}

/// `(scenario, backend, kv-object)` triples of a report.
fn kv_rows(doc: &Json) -> Vec<(String, String, Json)> {
    let mut out = Vec::new();
    if let Some(scenarios) = doc.get("scenarios").and_then(Json::as_arr) {
        for sc in scenarios {
            let name = sc
                .get("spec")
                .and_then(|s| s.str_of("name"))
                .unwrap_or("?")
                .to_string();
            if let Some(runs) = sc.get("runs").and_then(Json::as_arr) {
                for run in runs {
                    if let Some(kv) = run.get("kv") {
                        let backend = run.str_of("backend").unwrap_or("?").to_string();
                        out.push((name.clone(), backend, kv.clone()));
                    }
                }
            }
        }
    }
    out
}

/// The p99 slack given to every KV latency gate: 25 % relative plus 1 µs
/// absolute, matching the fault-recovery gate's quantization allowance.
fn kv_p99_ceiling(base_ns: f64) -> f64 {
    base_ns * 1.25 + 1_000.0
}

/// Gates a fresh report's KV-service outcomes against a baseline's — the
/// CI `kv-matrix` lane's check. For every `(scenario, backend)` pair whose
/// baseline run carries a `kv` section:
///
/// * the current run must carry one too (a run that lost its section
///   means the KV plane was silently disabled — fail);
/// * `corrupt` must be zero: every verified GET returned the exact value
///   image the directory plane placed;
/// * per value-size class, GET p99 may regress by at most 25 % (+1 µs of
///   slack), matched by class byte size;
/// * achieved throughput (`achieved_fraction`) may drop by at most 0.02
///   absolute;
/// * where the baseline's SLO rows kept gold p99 below bronze p99, the
///   current run must too.
///
/// Pairs absent from the current report are [`check_baseline`]'s problem;
/// this check only compares KV physics where both sides ran.
pub fn check_kv_baseline(current: &Json, baseline: &Json) -> BaselineCheck {
    let mut check = BaselineCheck::default();
    let cur = kv_rows(current);
    for (name, backend, base) in kv_rows(baseline) {
        let Some((_, _, kv)) = cur.iter().find(|(n, b, _)| *n == name && *b == backend) else {
            if run_rows(current)
                .iter()
                .any(|r| r.name == name && r.backend == backend)
            {
                check.failures.push(format!(
                    "{name}/{backend}: baseline has a kv section, current run does not"
                ));
            }
            continue;
        };
        if kv.f64_of("corrupt").is_none_or(|c| c != 0.0) {
            check.failures.push(format!(
                "{name}/{backend}: {} corrupt GET responses (value verification failed)",
                kv.f64_of("corrupt").unwrap_or(f64::NAN)
            ));
        }
        if let (Some(base_af), Some(cur_af)) = (
            base.f64_of("achieved_fraction"),
            kv.f64_of("achieved_fraction"),
        ) {
            let floor = base_af - 0.02;
            if cur_af < floor {
                check.failures.push(format!(
                    "{name}/{backend}: achieved throughput {cur_af:.4} < {floor:.4} \
                     (baseline {base_af:.4} - 0.02)"
                ));
            }
        }
        let (base_classes, cur_classes) = (
            base.get("classes").and_then(Json::as_arr),
            kv.get("classes").and_then(Json::as_arr),
        );
        if let (Some(base_classes), Some(cur_classes)) = (base_classes, cur_classes) {
            for bc in base_classes {
                let Some(bytes) = bc.f64_of("bytes") else {
                    continue;
                };
                // A class with no GETs reports p99 = 0; nothing to gate.
                let Some(base_p99) = bc.f64_of("get_p99_ns").filter(|&p| p > 0.0) else {
                    continue;
                };
                let Some(cur_p99) = cur_classes
                    .iter()
                    .find(|c| c.f64_of("bytes") == Some(bytes))
                    .and_then(|c| c.f64_of("get_p99_ns"))
                else {
                    check.failures.push(format!(
                        "{name}/{backend}: baseline has a {bytes:.0}-byte value class, \
                         current kv section does not"
                    ));
                    continue;
                };
                let ceil = kv_p99_ceiling(base_p99);
                if cur_p99 > ceil {
                    check.failures.push(format!(
                        "{name}/{backend}: {bytes:.0}-byte GET p99 {cur_p99:.0} ns > \
                         {ceil:.0} ns (baseline {base_p99:.0} ns + 25% + 1 us slack)"
                    ));
                }
            }
        }
        // Only gate SLO separation where the baseline exhibits it.
        let slo_p99 = |obj: &Json, class: &str| -> Option<f64> {
            obj.get("slo")?
                .as_arr()?
                .iter()
                .find(|row| row.str_of("class") == Some(class))?
                .f64_of("lat_p99_ns")
        };
        let base_isolates = matches!(
            (slo_p99(&base, "gold"), slo_p99(&base, "bronze")),
            (Some(g), Some(b)) if g < b
        );
        if base_isolates {
            if let (Some(gold), Some(bronze)) = (slo_p99(kv, "gold"), slo_p99(kv, "bronze")) {
                if gold >= bronze {
                    check.failures.push(format!(
                        "{name}/{backend}: gold p99 {gold:.0} ns >= bronze p99 {bronze:.0} ns \
                         — KV SLO isolation broke"
                    ));
                }
            }
        }
    }
    check
}

/// Strips the bulky `per_node` pipeline dumps from a report, recursively,
/// leaving every aggregate (pipeline_total, fabric, per_tenant, sharding,
/// faults) intact. `baseline --regen` checks in the slimmed form, which
/// keeps `bench/baseline.json` a reviewable size at rack scale — the
/// per-node rows carry no information the gates read.
pub fn slim_report(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "per_node")
                .map(|(k, v)| (k.clone(), slim_report(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(slim_report).collect()),
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------
// Parallel-equivalence diffing.
// ---------------------------------------------------------------------

/// Whether `key` is excluded from the parallel-equivalence comparison:
/// host-dependent wall-clock fields (`wall_*`, `calibration`), the
/// requested thread count itself, the speculation depth (another pure
/// wall-clock knob — a speculative run must be byte-identical to a
/// conservative one, which is exactly what `diff-runs` proves when only
/// these knobs differ), the partition-dependent `sharding` run section,
/// and the `trace` sections (both the spec's and the run's — the trace
/// *file* is gated byte-for-byte separately, and stripping the report
/// sections lets `diff-runs` also compare a traced run against an
/// untraced baseline).
fn equivalence_ignored(key: &str) -> bool {
    key.starts_with("wall_")
        || matches!(
            key,
            "calibration" | "sharding" | "threads" | "speculate_epochs" | "trace"
        )
}

/// Strips every [`equivalence_ignored`] member, recursively.
fn strip_volatile(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !equivalence_ignored(k))
                .map(|(k, v)| (k.clone(), strip_volatile(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// Caps the diff list: past a point, more entries add nothing.
const MAX_DIFFS: usize = 32;

fn diff_push(out: &mut Vec<String>, entry: String) {
    if out.len() < MAX_DIFFS {
        out.push(entry);
    }
}

fn diff_json(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    if out.len() >= MAX_DIFFS {
        return;
    }
    match (a, b) {
        (Json::Obj(ma), Json::Obj(mb)) => {
            for (k, va) in ma {
                match mb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_json(va, vb, &format!("{path}.{k}"), out),
                    None => diff_push(out, format!("{path}.{k}: present only in the first report")),
                }
            }
            for (k, _) in mb {
                if !ma.iter().any(|(ka, _)| ka == k) {
                    diff_push(
                        out,
                        format!("{path}.{k}: present only in the second report"),
                    );
                }
            }
        }
        (Json::Arr(aa), Json::Arr(ab)) => {
            if aa.len() != ab.len() {
                diff_push(
                    out,
                    format!("{path}: array length {} vs {}", aa.len(), ab.len()),
                );
                return;
            }
            for (i, (va, vb)) in aa.iter().zip(ab).enumerate() {
                diff_json(va, vb, &format!("{path}[{i}]"), out);
            }
        }
        _ => {
            let (ra, rb) = (a.render(), b.render());
            if ra != rb {
                diff_push(out, format!("{path}: {ra} vs {rb}"));
            }
        }
    }
}

/// Compares two scenario reports for *simulated* equivalence: every
/// member except the wall-clock fields, the calibration block, and the
/// shard-metadata section must be byte-identical. Returns the list of
/// differences (empty means equivalent) — this is the check the CI
/// `parallel-equivalence` step runs between `--threads 1` and
/// `--threads 4` reports.
pub fn equivalence_diff(a: &Json, b: &Json) -> Vec<String> {
    let (sa, sb) = (strip_volatile(a), strip_volatile(b));
    let mut out = Vec::new();
    diff_json(&sa, &sb, "$", &mut out);
    out
}

// ---------------------------------------------------------------------
// Canned specs.
// ---------------------------------------------------------------------

/// The three small specs the CI `bench-smoke` lane runs.
pub fn smoke_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "smoke-uniform-8".into(),
            nodes: 8,
            backend: BackendSel::All,
            workload: WorkloadKind::UniformRead,
            op_bytes: 256,
            ops_per_node: 1500,
            window: 12,
            seed: 7,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            name: "smoke-torus-16".into(),
            nodes: 16,
            topology: TopologySpec::Torus2d(4, 4),
            backend: BackendSel::One(BackendKind::Sonuma),
            workload: WorkloadKind::NeighborRead,
            op_bytes: 1024,
            ops_per_node: 400,
            window: 8,
            seed: 11,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            name: "smoke-mixed-4".into(),
            nodes: 4,
            backend: BackendSel::All,
            workload: WorkloadKind::Mixed,
            read_fraction: 0.75,
            op_bytes: 128,
            ops_per_node: 2000,
            window: 16,
            seed: 13,
            ..ScenarioSpec::default()
        },
    ]
}

/// The rack-scale scenario: 512 soNUMA nodes streaming neighbor reads —
/// the scale the paper's §6 fabric discussion targets.
pub fn rack512_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack512-neighbor".into(),
        nodes: 512,
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::NeighborRead,
        op_bytes: 512,
        ops_per_node: 8,
        window: 4,
        segment_bytes: 1 << 18,
        seed: 99,
        ..ScenarioSpec::default()
    }
}

/// The routing-heavy rack: 512 nodes arranged as an 8×8×8 3D torus (the
/// "low-dimensional k-ary n-cube" of §6), every node issuing 1 KB
/// (16-line) reads to uniformly random peers. Average route length is ~6
/// hops, so each operation drives ~192 link traversals — per-packet
/// routing and link-state work dominates the event loop, which is what
/// the dense-fabric refactor and `wall_packets_per_sec` gate protect.
pub fn rack512_torus_scan_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack512-torus-scan".into(),
        nodes: 512,
        topology: TopologySpec::Torus3d(8, 8, 8),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::UniformRead,
        op_bytes: 1024,
        ops_per_node: 16,
        window: 4,
        segment_bytes: 1 << 18,
        seed: 77,
        ..ScenarioSpec::default()
    }
}

/// The multi-tenant rack: 64 nodes, 1024 tenants (16 per node, each with
/// its own QP), Zipf-skewed open-loop Poisson traffic, WDRR scheduling
/// with uniform weights. The fairness acceptance scenario: with equal
/// weights and a feasible offered load, every tenant's delivered
/// fraction should be near 1 and Jain's index ≥ 0.95.
pub fn rack64_tenants_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack64-tenants".into(),
        nodes: 64,
        backend: BackendSel::All,
        workload: WorkloadKind::Mixed,
        read_fraction: 0.8,
        op_bytes: 64,
        segment_bytes: 1 << 18,
        seed: 4242,
        tenancy: Some(TenancySpec {
            tenants: 1024,
            scheduler: SchedPolicy::Wdrr,
            weights: WeightMode::Uniform,
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Poisson,
            rate_per_tenant: 150_000.0,
            duration_us: 200.0,
            zipf_addr: 0.9,
            zipf_dst: 0.4,
            burst: 8,
        }),
        ..ScenarioSpec::default()
    }
}

/// The noisy-neighbor rack: same shape as [`rack64_tenants_spec`] but
/// phase-aligned bursty arrivals under strict-priority scheduling with
/// tiered weights — every epoch, all 16 tenants of a node dump a burst
/// into their WQs at once, and the RGP drains gold first. Expected
/// outcome: gold p99 well below bronze p99 on the soNUMA backend.
pub fn rack64_tenants_strict_spec() -> ScenarioSpec {
    #[allow(clippy::needless_update)]
    ScenarioSpec {
        name: "rack64-tenants-strict".into(),
        tenancy: Some(TenancySpec {
            tenants: 1024,
            scheduler: SchedPolicy::StrictPriority,
            weights: WeightMode::Tiered,
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Bursty,
            rate_per_tenant: 150_000.0,
            duration_us: 200.0,
            zipf_addr: 0.9,
            zipf_dst: 0.4,
            burst: 16,
        }),
        ..rack64_tenants_spec()
    }
}

/// The sharded-engine showcase: 1024 soNUMA nodes as a 16×8×8 3D torus,
/// every node streaming reads to its ring successor, executed across 4
/// shard threads (`[execution] threads = 4`). Twice the node count the
/// serial engine was sized for, kept affordable in CI wall-clock by the
/// conservative-parallel engine — and, like every scenario, bit-identical
/// at any `--threads` value.
pub fn rack1024_shard_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack1024-shard".into(),
        nodes: 1024,
        topology: TopologySpec::Torus3d(16, 8, 8),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::NeighborRead,
        op_bytes: 512,
        ops_per_node: 8,
        window: 4,
        segment_bytes: 1 << 18,
        seed: 1024,
        threads: 4,
        ..ScenarioSpec::default()
    }
}

/// The memory-diet showcase: 4096 soNUMA nodes as a 16×16×16 3D torus —
/// the largest rack the paper's addressing model reaches — on 4 shard
/// threads. Light per-node work (4 ops to the ring successor) keeps the
/// wall clock in CI budget; what the scenario actually exercises is
/// state: lazily grown ITT/CT tables, sparse physical memory, and
/// 16-entry QP rings (WQ and CQ share one guest page instead of two)
/// hold the whole machine's resident heap to tens of megabytes where
/// eager tables would cost gigabytes. The report's
/// `sharding.resident_bytes` is the number the CI budget asserts on.
pub fn rack4096_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack4096".into(),
        nodes: 4096,
        topology: TopologySpec::Torus3d(16, 16, 16),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::NeighborRead,
        op_bytes: 256,
        ops_per_node: 4,
        window: 4,
        segment_bytes: 1 << 16,
        seed: 4096,
        threads: 4,
        qp_entries: 16,
        ..ScenarioSpec::default()
    }
}

/// The speculation rack: 8192 nodes as a 16×16×32 3D torus on 8 shard
/// threads with speculative run-ahead (`K = 2`) enabled. This is the
/// scale ROADMAP item 2 names past `rack4096`: a fully-synchronized
/// symmetric rack where the conservative engine pays one barrier per
/// lookahead, and the one canned scenario that exercises the
/// speculative engine's extra in-release levels and clock bets
/// (measured here: 15 barriers at `K` = 0, 2 and 4 alike — see
/// DESIGN.md, "Prove or remove"). Memory rides the
/// rack4096 diet (16-entry QP rings, lazy tables, sparse memory); the
/// CI lane budgets the whole run under 4 GiB peak RSS. The report's
/// `sharding.speculation` counters record how the bets settled.
pub fn rack8192_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack8192".into(),
        nodes: 8192,
        topology: TopologySpec::Torus3d(16, 16, 32),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::NeighborRead,
        op_bytes: 256,
        ops_per_node: 2,
        window: 4,
        segment_bytes: 1 << 16,
        seed: 8192,
        threads: 8,
        qp_entries: 16,
        speculate_epochs: 2,
        ..ScenarioSpec::default()
    }
}

/// The link-failure rack: 512 nodes as an 8×8×8 3D torus, one open-loop
/// tenant per node, with 4 directed links killed at 20 µs (reviving at
/// 60 µs) and 8 more degraded (1 % drop, 0.5 % corruption) for the whole
/// run. What the scenario demonstrates: adaptive routing steers packets
/// around the dead links, the source-side retransmission path recovers
/// dropped and corrupted lines, and cluster goodput returns to ≥ 90 % of
/// its pre-kill rate — the `faults.recovered` flag the fault-matrix CI
/// lane gates on.
pub fn rack512_linkflap_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack512-linkflap".into(),
        nodes: 512,
        topology: TopologySpec::Torus3d(8, 8, 8),
        backend: BackendSel::All,
        workload: WorkloadKind::Mixed,
        read_fraction: 0.8,
        op_bytes: 64,
        segment_bytes: 1 << 18,
        seed: 512_512,
        tenancy: Some(TenancySpec {
            tenants: 512,
            scheduler: SchedPolicy::Wdrr,
            weights: WeightMode::Uniform,
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Poisson,
            rate_per_tenant: 200_000.0,
            duration_us: 100.0,
            zipf_addr: 0.5,
            zipf_dst: 0.0,
            burst: 8,
        }),
        faults: Some(FaultSpec {
            seed: 7_001,
            degraded_links: 8,
            drop_prob: 0.01,
            corrupt_prob: 0.005,
            killed_links: 4,
            kill_at_us: 20.0,
            revive_at_us: 60.0,
            ..FaultSpec::default()
        }),
        ..ScenarioSpec::default()
    }
}

/// The node-failure rack: 1024 nodes as a 16×8×8 3D torus, 1024 tenants
/// under strict-priority scheduling with tiered weights, on 4 shard
/// threads — and 16 nodes (1/64 of the rack) crash mid-burst at 30 µs,
/// restarting cold at 50 µs. In-flight operations against the dead nodes
/// time out, retransmit with backoff, and abort with error completions;
/// everyone else's traffic reroutes and keeps flowing. The acceptance
/// bar: byte-identical at any thread count, goodput back to ≥ 90 % of
/// the pre-crash rate, and gold p99 still below bronze p99 in the same
/// failing run.
pub fn rack1024_nodekill_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack1024-nodekill".into(),
        nodes: 1024,
        topology: TopologySpec::Torus3d(16, 8, 8),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::Mixed,
        read_fraction: 0.8,
        op_bytes: 64,
        segment_bytes: 1 << 18,
        seed: 1_024_042,
        threads: 4,
        tenancy: Some(TenancySpec {
            tenants: 2048,
            scheduler: SchedPolicy::StrictPriority,
            weights: WeightMode::Tiered,
        }),
        // Burst 4 at 400 kops/s/tenant => one phase-aligned burst every
        // 10 µs, so the 30 µs crash lands exactly on a burst epoch and
        // the [30, 50) µs outage window sees two full burst rounds.
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Bursty,
            rate_per_tenant: 400_000.0,
            duration_us: 100.0,
            zipf_addr: 0.5,
            zipf_dst: 0.2,
            burst: 4,
        }),
        faults: Some(FaultSpec {
            seed: 7_002,
            crashed_nodes: 16,
            crash_at_us: 30.0,
            restart_at_us: 50.0,
            ..FaultSpec::default()
        }),
        ..ScenarioSpec::default()
    }
}

/// The KV-cache service rack: 512 nodes as an 8×8×8 3D torus serving a
/// 2048-key store with 4 KB–32 KB values (four power-of-two size
/// classes). GETs are one-sided multi-line `rmc_read`s against the
/// deterministic directory plane; PUTs rewrite the key's value image in
/// place. 1024 open-loop tenants (2 per node, WDRR with tiered weights)
/// issue a 90/10 GET/PUT mix over moderately Zipf-skewed keys with
/// repeat reads. Runs on all three backends; the per-class GET p99 rows
/// are the one-sided-vs-messaging crossover table, and the `kv-matrix`
/// CI lane gates them against `bench/baseline.json`.
pub fn rack512_kv_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack512-kv".into(),
        nodes: 512,
        topology: TopologySpec::Torus3d(8, 8, 8),
        backend: BackendSel::All,
        workload: WorkloadKind::Mixed,
        read_fraction: 0.9,
        op_bytes: 4096,
        segment_bytes: 1 << 19,
        seed: 512_900,
        tenancy: Some(TenancySpec {
            tenants: 1024,
            scheduler: SchedPolicy::Wdrr,
            weights: WeightMode::Tiered,
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Poisson,
            rate_per_tenant: 40_000.0,
            duration_us: 40.0,
            zipf_addr: 0.0,
            zipf_dst: 0.0,
            burst: 8,
        }),
        kv: Some(KvSpec {
            keys: 2048,
            value_min: 4096,
            value_max: 32768,
            zipf_key: 0.9,
            get_fraction: 0.9,
            repeat_prob: 0.3,
            seed: 9_000,
        }),
        ..ScenarioSpec::default()
    }
}

/// The hot-key KV rack: 1024 nodes as a 16×8×8 3D torus, 4096 keys with
/// 4 KB–16 KB values, and a hard Zipf 1.2 key skew with 40 % repeat
/// reads — the cache-hostile popularity curve of a production KV tier.
/// 2048 tenants under strict-priority scheduling with tiered weights
/// drive phase-aligned bursts, so gold tenants' GETs overtake bronze
/// backlogs at the home node's RGP: the acceptance bar is gold p99 below
/// bronze p99 in the report's `kv.slo` rows, on top of the usual
/// any-thread-count byte-identical contract.
pub fn rack1024_kv_zipf_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "rack1024-kv-zipf".into(),
        nodes: 1024,
        topology: TopologySpec::Torus3d(16, 8, 8),
        backend: BackendSel::All,
        workload: WorkloadKind::Mixed,
        read_fraction: 0.95,
        op_bytes: 4096,
        segment_bytes: 1 << 19,
        seed: 1_024_900,
        threads: 4,
        tenancy: Some(TenancySpec {
            tenants: 2048,
            scheduler: SchedPolicy::StrictPriority,
            weights: WeightMode::Tiered,
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Bursty,
            rate_per_tenant: 40_000.0,
            duration_us: 40.0,
            zipf_addr: 0.0,
            zipf_dst: 0.0,
            burst: 4,
        }),
        kv: Some(KvSpec {
            keys: 4096,
            value_min: 4096,
            value_max: 16384,
            zipf_key: 1.2,
            get_fraction: 0.95,
            repeat_prob: 0.4,
            seed: 9_001,
        }),
        ..ScenarioSpec::default()
    }
}

/// Every canned spec, addressable by name from the CLI.
pub fn canned_specs() -> Vec<ScenarioSpec> {
    let mut specs = smoke_specs();
    specs.push(rack512_spec());
    specs.push(rack512_torus_scan_spec());
    specs.push(rack64_tenants_spec());
    specs.push(rack64_tenants_strict_spec());
    specs.push(rack1024_shard_spec());
    specs.push(rack4096_spec());
    specs.push(rack8192_spec());
    specs.push(rack512_linkflap_spec());
    specs.push(rack1024_nodekill_spec());
    specs.push(rack512_kv_spec());
    specs.push(rack1024_kv_zipf_spec());
    specs
}
