//! The system under test: every use of product API lives in this file.
//!
//! The rest of the benchmark imports product names only through
//! `crate::sut`, so a module split inside the product crates (ROADMAP
//! item 3) needs a re-export fixed here and nothing else, and the
//! parent-vs-change pair of a later PR stays buildable from one
//! benchmark source. The entry points used are the stablest the product
//! has: `ScenarioSpec::from_toml`, `run_spec_once`, `report`,
//! `validate_report`, `equivalence_diff` and the `RemoteBackend` trait.

use std::time::Instant;

pub use sonuma_apps::{fill_value, verify_value, KvDirectory};
pub use sonuma_baselines::{RdmaBackend, TcpBackend};
pub use sonuma_bench::json::Json;
pub use sonuma_bench::scenario::ScenarioSpec;
pub use sonuma_bench::trafficgen::{ArrivalGen, ArrivalKind, ZipfSampler};
pub use sonuma_fabric::{Fabric, FabricConfig, Topology};
pub use sonuma_machine::{MachineConfig, SonumaBackend};
pub use sonuma_memory::{
    AccessKind, AddressSpace, AgentId, FrameAllocator, HierarchyConfig, MemoryHierarchy, PAddr,
    VAddr,
};
pub use sonuma_protocol::{
    CqEntry, CtxId, NodeId, Packet, QpId, RemoteBackend, RemoteOp, RemoteRequest, Status, Tid,
    WqEntry, MAX_PACKET_BYTES,
};
pub use sonuma_rmc::{ContextEntry, ContextTable, CtCache, InflightTable, Maq, ReplyAction};
pub use sonuma_sim::stats::LatencyHistogram;
pub use sonuma_sim::{DetRng, EpochWorld, EventEngine, ShardedEngine, SimTime, World};

pub use sonuma_bench::scenario::ScenarioResult;
use sonuma_bench::scenario::{
    self, BackendKind, PlatformSpec, TopologySpec, TraceSpec, WeightMode, WorkloadKind,
};
use sonuma_bench::{fig01, fig07, table2};
use sonuma_core::{SloClass, SystemBuilder, TenantId};

pub fn num(x: f64) -> Json {
    Json::Num(x)
}

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parses a workload TOML and, when a seed is given, overwrites the three
/// seeds a spec can carry (workload, `[kv]`, `[faults]`) with it.
pub fn load_spec(toml: &str, seed: Option<u64>) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::from_toml(toml).map_err(|e| e.to_string())?;
    if let Some(seed) = seed {
        spec.seed = seed;
        if let Some(kv) = spec.kv.as_mut() {
            kv.seed = seed;
        }
        if let Some(faults) = spec.faults.as_mut() {
            faults.seed = seed;
        }
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Arms the flight recorder at its default 5 µs cadence.
pub fn arm_trace(spec: &mut ScenarioSpec) {
    spec.trace = Some(TraceSpec::default());
}

/// The fabric a workload's soNUMA machine runs on, fault plan included.
pub fn fabric_config(spec: &ScenarioSpec) -> FabricConfig {
    let mut config = match spec.topology {
        TopologySpec::Crossbar => FabricConfig::paper_crossbar(spec.nodes),
        TopologySpec::Torus2d(w, h) => FabricConfig::torus2d(w, h),
        TopologySpec::Torus3d(x, y, z) => FabricConfig::torus3d(x, y, z),
    };
    config.faults = spec
        .faults
        .as_ref()
        .and_then(|f| f.instantiate(&config.topology));
    config
}

/// Simulated microseconds the workload's arrival horizon spans (0 for
/// closed-loop workloads, which have none).
pub fn horizon_us(spec: &ScenarioSpec) -> f64 {
    spec.traffic.as_ref().map_or(0.0, |t| t.duration_us)
}

fn class_weight(mode: WeightMode, class: SloClass) -> u32 {
    match (mode, class) {
        (WeightMode::Uniform, _) => 1,
        (WeightMode::Tiered, SloClass::Gold) => 8,
        (WeightMode::Tiered, SloClass::Silver) => 4,
        (WeightMode::Tiered, SloClass::Bronze) => 1,
    }
}

/// Builds the soNUMA machine of `spec` through the public constructors
/// `run_spec_once` itself uses.
pub fn build_sonuma(spec: &ScenarioSpec) -> SonumaBackend {
    let mut config = match spec.platform {
        PlatformSpec::Hardware => MachineConfig::simulated_hardware(spec.nodes),
        PlatformSpec::Dev => MachineConfig::dev_platform(spec.nodes),
    };
    config.fabric = fabric_config(spec);
    config.qp_entries = spec.qp_entries;
    if let Some(tn) = &spec.tenancy {
        config.sched_policy = tn.scheduler;
    }
    let mut backend = SonumaBackend::with_threads(config, spec.segment_bytes, spec.threads);
    backend.set_speculation(spec.speculate_epochs as u32);
    if let Some(tn) = &spec.tenancy {
        for t in 0..tn.tenants {
            let class = scenario::tenant_class(t, tn.tenants);
            backend.register_tenant_channel(
                NodeId((t % spec.nodes) as u16),
                (t / spec.nodes) as u32,
                TenantId(t as u32),
                class_weight(tn.weights, class),
                class,
            );
        }
    }
    backend
}

/// Builds every machine `spec` requests, soNUMA first, as one run does.
pub fn build_machines(spec: &ScenarioSpec) -> Vec<Box<dyn RemoteBackend>> {
    spec.backend
        .kinds()
        .into_iter()
        .map(|kind| -> Box<dyn RemoteBackend> {
            match kind {
                BackendKind::Sonuma => Box::new(build_sonuma(spec)),
                BackendKind::Rdma => {
                    Box::new(RdmaBackend::connectx3(spec.nodes, spec.segment_bytes))
                }
                BackendKind::Tcp => Box::new(TcpBackend::calxeda(spec.nodes, spec.segment_bytes)),
            }
        })
        .collect()
}

/// Writes every value image of a KV workload into each machine, as the
/// KV driver does before its first operation; nothing for the others.
pub fn kv_preload(spec: &ScenarioSpec, machines: &mut [Box<dyn RemoteBackend>]) {
    let Some(dir) = kv_directory(spec) else {
        return;
    };
    let mut image = vec![0u8; dir.class_bytes(dir.classes() - 1) as usize];
    for machine in machines {
        for key in 0..dir.keys() {
            let p = dir.lookup(key);
            fill_value(key, &mut image[..p.len as usize]);
            machine.write_ctx(NodeId(p.node as u16), p.offset, &image[..p.len as usize]);
        }
    }
}

/// The directory plane of a KV workload (`None` for the others).
fn kv_directory(spec: &ScenarioSpec) -> Option<KvDirectory> {
    let kv = spec.kv.as_ref().filter(|kv| !kv.is_empty())?;
    kv.directory(spec.nodes, spec.segment_bytes).ok()
}

/// Wall seconds of the four stages a CLI user waits for, and what they
/// produced.
pub struct RunOutput {
    pub text: String,
    pub run_spec_s: f64,
    pub report_build_s: f64,
    pub render_s: f64,
    pub validate_s: f64,
    pub validation: Result<(), String>,
}

impl RunOutput {
    pub fn total_s(&self) -> f64 {
        self.run_spec_s + self.report_build_s + self.render_s + self.validate_s
    }
}

/// One drive per backend, no timing repetitions.
pub fn run_spec(spec: &ScenarioSpec) -> ScenarioResult {
    scenario::run_spec_once(spec)
}

pub fn report(result: ScenarioResult) -> Json {
    scenario::report(&[result])
}

/// `run_spec_once` + `report` + `Json::render` + `validate_report`, each
/// stage timed.
pub fn run_once(spec: &ScenarioSpec) -> RunOutput {
    let t0 = Instant::now();
    let result = run_spec(spec);
    let t1 = Instant::now();
    let doc = report(result);
    let t2 = Instant::now();
    let text = doc.render();
    let t3 = Instant::now();
    let validation = scenario::validate_report(&doc);
    let t4 = Instant::now();
    RunOutput {
        text,
        run_spec_s: (t1 - t0).as_secs_f64(),
        report_build_s: (t2 - t1).as_secs_f64(),
        render_s: (t3 - t2).as_secs_f64(),
        validate_s: (t4 - t3).as_secs_f64(),
        validation,
    }
}

pub fn validate_report(doc: &Json) -> Result<(), String> {
    scenario::validate_report(doc)
}

pub fn equivalence_diff(a: &Json, b: &Json) -> Vec<String> {
    scenario::equivalence_diff(a, b)
}

/// The runs of a one-scenario report, soNUMA first.
pub fn report_runs(doc: &Json) -> &[Json] {
    doc.get("scenarios")
        .and_then(Json::as_arr)
        .and_then(|s| s.first())
        .and_then(|s| s.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// Whether `spec` drives a closed loop the staged driver can reproduce.
pub fn is_closed_loop(spec: &ScenarioSpec) -> bool {
    spec.tenancy.is_none()
        && matches!(
            spec.workload,
            WorkloadKind::UniformRead | WorkloadKind::NeighborRead
        )
}

/// Whether every node of `spec` reads from its ring successor only (so
/// the fabric sees 2 x nodes directed links, not all of them).
pub fn reads_ring_successor(spec: &ScenarioSpec) -> bool {
    spec.tenancy.is_none() && spec.workload == WorkloadKind::NeighborRead
}

/// The closed-loop request stream of `spec`, node by node: the same
/// draws, in the same order, as the product's own driver makes.
pub struct RequestStream {
    gens: Vec<(DetRng, u64)>,
    uniform: bool,
    nodes: usize,
    op_bytes: u64,
    slots: u64,
}

impl RequestStream {
    pub fn new(spec: &ScenarioSpec) -> RequestStream {
        assert!(is_closed_loop(spec), "staged driver is closed-loop only");
        let mut root = DetRng::seed(spec.seed);
        RequestStream {
            gens: (0..spec.nodes).map(|n| (root.fork(n as u64), 0)).collect(),
            uniform: spec.workload == WorkloadKind::UniformRead,
            nodes: spec.nodes,
            op_bytes: spec.op_bytes,
            slots: (spec.segment_bytes - spec.op_bytes) / 64,
        }
    }

    pub fn next(&mut self, node: usize) -> RemoteRequest {
        let (rng, issued) = &mut self.gens[node];
        let i = *issued;
        *issued += 1;
        if self.uniform {
            let d = rng.below(self.nodes as u64 - 1);
            let d = if d >= node as u64 { d + 1 } else { d };
            let offset = rng.below(self.slots + 1) * 64;
            RemoteRequest::read(NodeId(d as u16), offset, self.op_bytes)
        } else {
            let dst = NodeId(((node + 1) % self.nodes) as u16);
            let offset = (i * self.op_bytes) % (self.slots * 64).max(64);
            RemoteRequest::read(dst, offset / 64 * 64, self.op_bytes)
        }
    }
}

/// The figures of the paper the repo holds reference values for
/// (DESIGN.md "Deviations from the paper"), as simulated now.
pub struct Anchors {
    /// soNUMA simulated hardware: 64 B read round trip, ns.
    pub read_rtt_ns: f64,
    /// soNUMA simulated hardware: 64 B reads, Mops/s on one QP.
    pub read_mops: f64,
    /// soNUMA simulated hardware: 8 KB read bandwidth, Gbps.
    pub read_gbps: f64,
    /// RDMA/InfiniBand model: 64 B read round trip, ns.
    pub rdma_rtt_ns: f64,
    pub rdma_mops: f64,
    pub rdma_gbps: f64,
    /// TCP model: 64 B half-duplex latency, µs, and peak Gbps.
    pub tcp_small_us: f64,
    pub tcp_peak_gbps: f64,
}

/// Table 2 and the Fig. 1 sweep: the cheap part of the anchors (~0.1 s),
/// computed beside every workload so each simulated figure is printed
/// with the model's error against the paper.
pub fn anchors() -> Anchors {
    let cols = table2::run();
    let (hw, ib) = (&cols[1], &cols[2]);
    let tcp = fig01::run();
    Anchors {
        read_rtt_ns: hw.read_rtt.as_ns_f64(),
        read_mops: hw.mops,
        read_gbps: hw.max_bw_gbps,
        rdma_rtt_ns: ib.read_rtt.as_ns_f64(),
        rdma_mops: ib.mops,
        rdma_gbps: ib.max_bw_gbps,
        tcp_small_us: tcp
            .iter()
            .find(|r| r.size == 64)
            .map_or(0.0, |r| r.latency.as_us_f64()),
        tcp_peak_gbps: tcp.iter().map(|r| r.gbps).fold(0.0, f64::max),
    }
}

/// What the Fig. 7 sweeps on simulated hardware produced.
pub struct Fig7 {
    /// Single-sided synchronous read latency per swept size, ns.
    pub latency_ns: Vec<(u64, f64)>,
    /// Single-sided `(size, Gbps, ops/s)` per swept size.
    pub bandwidth: Vec<(u64, f64, f64)>,
    /// Values the sweeps returned (rows x fields).
    pub points: u64,
}

/// The expensive part of the anchors (~0.8 s): the full Fig. 7a/7b
/// sweeps on the process-level `SonumaSystem` path.
pub fn fig7_sweeps() -> Fig7 {
    let lat = fig07::latency(fig07::Platform::SimulatedHardware);
    let bw = fig07::bandwidth(fig07::Platform::SimulatedHardware);
    Fig7 {
        points: (lat.len() * 2 + bw.len() * 3) as u64,
        latency_ns: lat.iter().map(|r| (r.size, r.single.as_ns_f64())).collect(),
        bandwidth: bw.iter().map(|r| (r.size, r.single_gbps, r.iops)).collect(),
    }
}

/// Builds, one after another, the forty two-node systems one pass of
/// the anchors constructs (eight for Table 2, sixteen for each Fig. 7
/// sweep): `paper-anchors`' set-up.
pub fn build_anchor_systems() {
    for _ in 0..40 {
        let system = SystemBuilder::simulated_hardware(2)
            .segment_len(sonuma_bench::workloads::READ_REGION_BYTES + 4096)
            .qp_entries(64)
            .build();
        std::hint::black_box(system.num_nodes());
    }
}
