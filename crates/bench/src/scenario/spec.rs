//! The declarative spec: [`ScenarioSpec`] and its optional sections,
//! their defaults, cross-field validation and the JSON form embedded in
//! every report. The TOML reader and writer live in the `toml` module.
//!
//! Every key is named once, in the key tables below (one per section, in
//! report order, each row binding a key to its field): `from_toml` looks
//! keys up in them, and `to_toml` and [`ScenarioSpec::to_json`] render
//! them. Every keyword type has one label table ([`Keyword`]) serving
//! parsing, both renderings and the `(a|b|c)` list of its error text.

use std::fmt;

use sonuma_core::{NodeId, SchedPolicy, SloClass};
use sonuma_fabric::{FabricConfig, FaultPlan, LinkFault, NodeFault, Topology};
use sonuma_sim::{DetRng, SimTime};

use super::toml::Value;
use crate::json::Json;
use crate::trafficgen::ArrivalKind;

/// A keyword type: a closed set of values, each with one label. The one
/// label table serves parsing, TOML and JSON rendering, and the `(a|b|c)`
/// list an unknown label's error names.
pub(super) trait Keyword: Copy + PartialEq + 'static {
    /// What an unknown label is reported as (`unknown platform "x"`).
    const WHAT: &'static str;
    /// Every value with its label, in error-text order.
    const LABELS: &'static [(Self, &'static str)];

    /// The value's label.
    fn name(self) -> &'static str {
        let labelled = Self::LABELS.iter().find(|&&(v, _)| v == self);
        labelled.expect("every value has a label").1
    }

    /// The value `label` names.
    fn parse(label: &str) -> Result<Self, String> {
        let found = Self::LABELS.iter().find(|&&(_, l)| l == label);
        found.map(|&(v, _)| v).ok_or_else(|| {
            let all: Vec<&str> = Self::LABELS.iter().map(|&(_, l)| l).collect();
            format!("unknown {} {label:?} ({})", Self::WHAT, all.join("|"))
        })
    }
}

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
}

impl Keyword for BackendSel {
    const WHAT: &'static str = "backend";
    const LABELS: &'static [(Self, &'static str)] = &[
        (Self::One(BackendKind::Sonuma), "sonuma"),
        (Self::One(BackendKind::Rdma), "rdma"),
        (Self::One(BackendKind::Tcp), "tcp"),
        (Self::All, "all"),
    ];
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

/// Every topology shape's label and `:dimensions` pattern, in error-text
/// order: the one list parsing, rendering and the error text read.
const SHAPES: [(&str, &str); 3] = [("crossbar", ""), ("torus2d", ":WxH"), ("torus3d", ":XxYxZ")];

impl TopologySpec {
    pub(super) fn to_config(self, nodes: usize) -> FabricConfig {
        match self {
            TopologySpec::Crossbar => FabricConfig::paper_crossbar(nodes),
            TopologySpec::Torus2d(w, h) => FabricConfig::torus2d(w, h),
            TopologySpec::Torus3d(x, y, z) => FabricConfig::torus3d(x, y, z),
        }
    }

    /// The spec label: `crossbar`, `torus2d:4x4`, `torus3d:8x8x8`.
    pub(super) fn render(self) -> String {
        let (shape, dims) = match self {
            TopologySpec::Crossbar => return SHAPES[0].0.to_string(),
            TopologySpec::Torus2d(w, h) => (SHAPES[1].0, format!("{w}x{h}")),
            TopologySpec::Torus3d(x, y, z) => (SHAPES[2].0, format!("{x}x{y}x{z}")),
        };
        format!("{shape}:{dims}")
    }

    /// Reads a label [`TopologySpec::render`] writes.
    pub(super) fn parse(text: &str) -> Result<TopologySpec, String> {
        let (label, dims) = text
            .split_once(':')
            .map_or((text, None), |(l, d)| (l, Some(d)));
        let shape = SHAPES
            .iter()
            .position(|&(l, p)| l == label && p.is_empty() == dims.is_none());
        let Some(shape) = shape else {
            let all: Vec<String> = SHAPES.iter().map(|(l, p)| format!("{l}{p}")).collect();
            return Err(format!("unknown topology {text:?} ({})", all.join("|")));
        };
        let dims: Vec<usize> = dims
            .into_iter()
            .flat_map(|d| d.split('x'))
            .map(|d| d.parse().map_err(|_| format!("bad dimension {d:?}")))
            .collect::<Result<_, _>>()?;
        match (shape, dims.as_slice()) {
            (0, []) => Ok(TopologySpec::Crossbar),
            (1, &[w, h]) => Ok(TopologySpec::Torus2d(w, h)),
            (2, &[x, y, z]) => Ok(TopologySpec::Torus3d(x, y, z)),
            _ => Err(format!("{label} needs {}", &SHAPES[shape].1[1..])),
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

impl Keyword for PlatformSpec {
    const WHAT: &'static str = "platform";
    const LABELS: &'static [(Self, &'static str)] =
        &[(Self::Hardware, "hardware"), (Self::Dev, "dev")];
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

impl Keyword for WorkloadKind {
    const WHAT: &'static str = "workload";
    const LABELS: &'static [(Self, &'static str)] = &[
        (Self::UniformRead, "uniform-read"),
        (Self::NeighborRead, "neighbor-read"),
        (Self::Mixed, "mixed"),
    ];
}

/// How tenant scheduling weights are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightMode {
    /// Every tenant gets weight 1.
    Uniform,
    /// Weight follows the SLO class: gold 8, silver 4, bronze 1.
    Tiered,
}

impl Keyword for WeightMode {
    const WHAT: &'static str = "weights";
    const LABELS: &'static [(Self, &'static str)] =
        &[(Self::Uniform, "uniform"), (Self::Tiered, "tiered")];
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

pub(super) fn us_to_sim(us: f64) -> SimTime {
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

pub(super) fn class_weight(mode: WeightMode, class: SloClass) -> u32 {
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
    #[doc(hidden)] // frozen-benchmark residue: ROADMAP item 9 deletes
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
            speculate_epochs: 0, // frozen-benchmark residue: ROADMAP item 9 deletes
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

/// One spec key: its name in TOML and in the report's JSON echo, and the
/// field it binds.
pub(super) struct Key<S> {
    pub(super) name: &'static str,
    pub(super) get: fn(&S) -> &dyn Value,
    pub(super) get_mut: fn(&mut S) -> &mut dyn Value,
}

/// A key table, in report order: each field binds the key of its own
/// name, or `field as "key"` another.
macro_rules! keys {
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $key:literal) => { $key };
    ($s:ty: $($field:ident $(as $key:literal)?),+ $(,)?) => {
        &[$(Key::<$s> {
            name: keys!(@name $field $($key)?),
            get: |s| &s.$field,
            get_mut: |s| &mut s.$field,
        }),+]
    };
}

// One table per section, named after it; `TOP` holds the top-level keys.
pub(super) const TOP: &[Key<ScenarioSpec>] = keys!(ScenarioSpec:
    name, nodes, topology, platform, backend, workload, read_fraction, op_bytes,
    ops_per_node, window, segment_bytes, seed,
);
/// `[execution]`, echoed at the report's top level after `seed`.
pub(super) const EXECUTION: &[Key<ScenarioSpec>] = keys!(ScenarioSpec: threads, qp_entries);
/// `[execution]`'s frozen-benchmark residue (ROADMAP item 9 deletes): read
/// and echoed, never written back; `validate` rejects any value but 0.
pub(super) const RESIDUE: &[Key<ScenarioSpec>] = keys!(ScenarioSpec: speculate_epochs);
pub(super) const TENANTS: &[Key<TenancySpec>] =
    keys!(TenancySpec: tenants as "count", scheduler, weights);
pub(super) const TRAFFIC: &[Key<TrafficSpec>] = keys!(TrafficSpec:
    arrival, rate_per_tenant, duration_us, zipf_addr, zipf_dst, burst,
);
pub(super) const FAULTS: &[Key<FaultSpec>] = keys!(FaultSpec:
    seed, degraded_links, drop_prob, corrupt_prob, derate, credit_loss, killed_links,
    kill_at_us, revive_at_us, crashed_nodes, crash_at_us, restart_at_us, timeout_us,
    max_retries,
);
pub(super) const TRACE: &[Key<TraceSpec>] =
    keys!(TraceSpec: interval_us, link_capacity, node_capacity, event_capacity);
pub(super) const KV: &[Key<KvSpec>] = keys!(KvSpec:
    keys, value_min, value_max, zipf_key, get_fraction, repeat_prob, seed,
);

/// A section's keys with the values they bind, in report order.
pub(super) type Fields<'a> = Vec<(&'static str, &'a dyn Value)>;

/// The values `keys` bind in `section`.
pub(super) fn values<'a, S>(keys: &[Key<S>], section: &'a S) -> Fields<'a> {
    keys.iter().map(|k| (k.name, (k.get)(section))).collect()
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
        // A spec file's strings have no escapes.
        if let Some(c) = self.name.chars().find(|&c| c == '"' || c.is_control()) {
            return err(format!(
                "name contains {c:?}, which a spec file cannot hold"
            ));
        }
        // The report echoes integers as JSON numbers, exact up to 2^53;
        // every other integer key has a smaller upper bound of its own.
        for (key, value) in [
            ("seed", Some(self.seed)),
            ("ops_per_node", Some(self.ops_per_node)),
            ("[faults] seed", self.faults.as_ref().map(|f| f.seed)),
            ("[kv] seed", self.kv.as_ref().map(|kv| kv.seed)),
        ] {
            if let Some(v) = value.filter(|&v| v > 1 << 53) {
                return err(format!(
                    "{key} = {v} exceeds 2^53, the largest integer the report echoes exactly"
                ));
            }
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
        if self.speculate_epochs != 0 {
            return err(format!(
                "speculate_epochs = {}: speculative run-ahead was removed in PR 21 \
                 (the engine is conservative-only); delete the key",
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
                if us_to_sim(t.interval_us) == SimTime::ZERO {
                    return err(format!(
                        "trace interval_us = {} is below the 1 ps floor of simulated time",
                        t.interval_us
                    ));
                }
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

    /// Human-readable topology label (`crossbar`, `torus2d:4x4`, ...).
    pub fn topology_label(&self) -> String {
        self.topology.render()
    }

    /// Human-readable workload label.
    pub fn workload_label(&self) -> &'static str {
        self.workload.name()
    }

    /// Human-readable backend-selection label.
    pub fn backend_label(&self) -> &'static str {
        self.backend.name()
    }

    /// The optional sections the report echoes and `to_toml` writes, in
    /// report order: `[tenants]` and `[traffic]` only together, and
    /// `[faults]`, `[trace]` and `[kv]` only when they drive something (an
    /// empty section behaves, and so renders, as no section at all).
    pub(super) fn sections(&self) -> Vec<(&'static str, Fields<'_>)> {
        let mut out = Vec::new();
        if let (Some(tn), Some(tr)) = (&self.tenancy, &self.traffic) {
            out.push(("tenants", values(TENANTS, tn)));
            out.push(("traffic", values(TRAFFIC, tr)));
        }
        if let Some(f) = self.faults.as_ref().filter(|f| !f.is_empty()) {
            out.push(("faults", values(FAULTS, f)));
        }
        if let Some(t) = self.trace.as_ref().filter(|t| !t.is_empty()) {
            out.push(("trace", values(TRACE, t)));
        }
        if let Some(kv) = self.kv.as_ref().filter(|kv| !kv.is_empty()) {
            out.push(("kv", values(KV, kv)));
        }
        out
    }

    /// The spec as an ordered JSON object (embedded in the report).
    pub fn to_json(&self) -> Json {
        fn members(fields: Fields<'_>) -> Vec<(String, Json)> {
            fields
                .into_iter()
                .map(|(key, v)| (key.into(), v.json()))
                .collect()
        }
        let mut out = members(values(TOP, self));
        out.extend(members(values(EXECUTION, self)));
        out.extend(members(values(RESIDUE, self)));
        for (name, fields) in self.sections() {
            out.push((name.into(), Json::Obj(members(fields))));
        }
        Json::Obj(out)
    }
}
