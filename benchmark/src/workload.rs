//! The six workloads. Their TOMLs are compiled in from
//! `benchmark/workloads/`, never read from `bench/specs/`, so the product's
//! canned scenarios can change without moving the benchmark's inputs.

use crate::sut::{self, ScenarioSpec};

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` repeats it).
    pub why: &'static str,
    /// The spec, or `None` for `paper-anchors`, which runs the paper's
    /// microbenchmarks instead of a scenario.
    pub toml: Option<&'static str>,
    /// Aborted operations the fault plan is expected to cause at the
    /// TOML's own seeds. Other seeds draw other plans: there the count is
    /// only required to repeat between repetitions.
    pub errors_at_default_seed: u64,
}

pub const PAPER_ANCHORS: &str = "paper-anchors";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "scan512",
        why: "closed loop, 1 KB uniform reads over an 8x8x8 torus, ~6 hops per packet: fabric route+send does most of the work",
        toml: Some(include_str!("../workloads/scan512.toml")),
        errors_at_default_seed: 0,
    },
    Workload {
        name: "neighbor512",
        why: "same 2.1 M packets as scan512 but one crossbar hop each: event queue, RMC pipelines, memory and driver dominate; a fabric change must leave it flat",
        toml: Some(include_str!("../workloads/neighbor512.toml")),
        errors_at_default_seed: 0,
    },
    Workload {
        name: "kv512",
        why: "open loop, 90/10 GET/PUT of 4-32 KB values with payloads verified, on soNUMA, RDMA and TCP: bursts, writes and the open-loop driver",
        toml: Some(include_str!("../workloads/kv512.toml")),
        errors_at_default_seed: 0,
    },
    Workload {
        name: "shard1024-t2",
        why: "the only workload with two shards: epoch barrier, commit merge and 512 cut links of the parallel engine",
        toml: Some(include_str!("../workloads/shard1024-t2.toml")),
        errors_at_default_seed: 0,
    },
    Workload {
        name: "faults512",
        why: "link kills, lossy links and node crashes: send_faulty, re-routing, timeouts and retransmits; the only workload where some operations abort",
        toml: Some(include_str!("../workloads/faults512.toml")),
        errors_at_default_seed: 376,
    },
    Workload {
        name: PAPER_ANCHORS,
        why: "Table 2, Fig. 7 and Fig. 1 on the process-level machine: accuracy against the paper; a simulator-only change must leave it bit-identical",
        toml: None,
        errors_at_default_seed: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The spec at `seed` (`None` keeps the TOML's own seeds).
    pub fn spec(&self, seed: Option<u64>) -> Option<ScenarioSpec> {
        self.toml.map(|toml| {
            sut::load_spec(toml, seed)
                .unwrap_or_else(|e| panic!("workload {} does not load: {e}", self.name))
        })
    }
}
