//! The metric dictionary: every number the benchmark prints, by name,
//! with its unit, the direction that is better, the clock it is measured
//! on and, for end-to-end metrics, the bound by which it may worsen
//! before a change counts as a regression. `BENCHMARK.json` at the repo
//! root repeats these tables for the driver; a unit test keeps the two in
//! step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number is read from. Host time is what the simulator
/// takes to run on this machine and is noisy; simulated time is what the
/// modelled rack would take and repeats exactly for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Simulated,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. For a simulated metric this has
    /// to cover the spread between *seeds* (the driver runs each workload
    /// at ten of them): at one seed it repeats exactly, which `repeat`
    /// checks with no tolerance at all.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists the metric for the driver. The two
    /// latency percentiles are not listed: they come out of a histogram
    /// with 12.5 % buckets and, on `kv512`, move by half between seeds,
    /// more than any bound the driver's contract allows. They are
    /// printed, written to `--out` and compared exactly by `repeat`.
    pub driver: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound,
        driver: true,
    }
}

const fn simulated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    driver: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        clock: Clock::Simulated,
        bound,
        driver,
    }
}

/// Host bounds are what this two-core sandbox allows: the same binary's
/// five-second drives range over +-10 % from minute to minute (other
/// tenants of the host), for every workload, whatever the repetition
/// count, so a tighter bound would reject the benchmark against itself.
/// Simulated-clock times carry the unit `sim_ns` so no reader takes them
/// for a host measurement: they read the same on every run of a seed.
pub const END_TO_END: [EndToEnd; 13] = [
    host("setup_s", "s", Better::Lower, 0.25),
    host("run_s", "s", Better::Lower, 0.25),
    host("events_per_s", "ev/s", Better::Higher, 0.25),
    host("peak_rss_bytes", "B", Better::Lower, 0.12),
    simulated("sim_ops_per_s", "ops/s", Better::Higher, 0.2, true),
    simulated("sim_gbps", "Gbps", Better::Higher, 0.2, true),
    simulated("sim_p50_ns", "sim_ns", Better::Lower, 0.0, false),
    simulated("sim_p99_ns", "sim_ns", Better::Lower, 0.0, false),
    simulated("ok_ops_ratio", "ratio", Better::Higher, 0.001, true),
    simulated("anchor_read_rtt_ns", "sim_ns", Better::Lower, 0.001, true),
    simulated("anchor_read_mops", "Mops/s", Better::Higher, 0.001, true),
    simulated("anchor_read_gbps", "Gbps", Better::Higher, 0.001, true),
    simulated("anchor_err_max_pct", "%", Better::Lower, 0.001, true),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// One row per layer metric, grouped by crate (the name's first segment).
/// A value of 0 on a workload means the metric does not apply there.
pub const PER_LAYER: [PerLayer; 74] = [
    // sonuma-sim
    lower("sim.event.ns_per_event", "ns"),
    lower("sim.event.events", "count"),
    lower("sim.event.est_share", "ratio"),
    lower("sim.sharded.ns_per_epoch", "ns"),
    lower("sim.sharded.epochs", "count"),
    lower("sim.sharded.est_share", "ratio"),
    lower("sim.stats.ns_per_record", "ns"),
    lower("sim.stats.ns_per_percentile", "ns"),
    // sonuma-protocol
    lower("protocol.packet.ns_per_codec", "ns"),
    lower("protocol.queue.ns_per_codec", "ns"),
    // sonuma-memory
    lower("memory.hierarchy.ns_per_hit", "ns"),
    lower("memory.hierarchy.ns_per_miss", "ns"),
    lower("memory.page.ns_per_translate", "ns"),
    lower("memory.accesses", "count"),
    lower("memory.est_share", "ratio"),
    // sonuma-fabric
    lower("fabric.route.ns_per_hop", "ns"),
    lower("fabric.send.ns_per_traversal", "ns"),
    lower("fabric.send_faulty.ns_per_traversal", "ns"),
    lower("fabric.packets", "count"),
    lower("fabric.link_traversals", "count"),
    lower("fabric.credit_stalls", "count"),
    lower("fabric.rerouted", "count"),
    higher("fabric.packets_per_s", "1/s"),
    lower("fabric.est_share", "ratio"),
    // sonuma-rmc
    lower("rmc.itt.ns_per_txn", "ns"),
    lower("rmc.ct.ns_per_lookup", "ns"),
    lower("rmc.maq.ns_per_acquire", "ns"),
    // sonuma-machine
    lower("machine.backend.post_share", "ratio"),
    lower("machine.backend.advance_share", "ratio"),
    lower("machine.backend.poll_share", "ratio"),
    lower("machine.backend.post_ns_per_op", "ns"),
    lower("machine.backend.poll_ns_per_sweep", "ns"),
    lower("machine.path.ns_per_line", "ns"),
    lower("machine.path.ns_per_burst_line", "ns"),
    lower("machine.pipeline.rgp_lines", "count"),
    lower("machine.pipeline.rrpp_served", "count"),
    lower("machine.pipeline.rcp_replies", "count"),
    lower("machine.pipeline.rgp_itt_stalls", "count"),
    lower("machine.pipeline.rgp_sched_skips", "count"),
    lower("machine.pipeline.api_wq_full", "count"),
    lower("machine.pipeline.rgp_timeouts", "count"),
    lower("machine.pipeline.rgp_retransmits", "count"),
    lower("machine.resident_bytes", "B"),
    lower("machine.build_s", "s"),
    higher("machine.shard.speedup_vs_serial", "ratio"),
    lower("machine.shard.cut_links", "count"),
    lower("machine.shard.event_imbalance", "ratio"),
    lower("machine.unattributed_share", "ratio"),
    lower("machine.sim.mean_ns", "sim_ns"),
    lower("machine.sim.p50_ns", "sim_ns"),
    lower("machine.sim.p99_ns", "sim_ns"),
    // sonuma-baselines
    lower("baselines.rdma.ns_per_op", "ns"),
    lower("baselines.tcp.ns_per_op", "ns"),
    lower("baselines.rdma.sim_p99_ns", "sim_ns"),
    lower("baselines.tcp.sim_p99_ns", "sim_ns"),
    // sonuma-apps
    lower("apps.kvdir.ns_per_lookup", "ns"),
    higher("apps.kv.fill_gbps", "Gbps"),
    higher("apps.kv.verify_gbps", "Gbps"),
    lower("apps.kv.get_lines", "count"),
    lower("apps.kv.corrupt", "count"),
    // sonuma-trace
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.samples", "count"),
    lower("trace.dropped", "count"),
    // sonuma-bench
    lower("bench.spec_parse_us", "us"),
    lower("bench.trafficgen.ns_per_arrival", "ns"),
    lower("bench.trafficgen.ns_per_zipf", "ns"),
    lower("bench.report_build_ms", "ms"),
    higher("bench.json.render_mb_per_s", "MB/s"),
    higher("bench.json.parse_mb_per_s", "MB/s"),
    lower("bench.report_validate_ms", "ms"),
    lower("bench.report_bytes", "B"),
    lower("bench.report_share", "ratio"),
    // sonuma-core
    lower("core.anchors_run_s", "s"),
    // the benchmark's own spans
    lower("benchmark.span_overhead_ratio", "ratio"),
];

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median, extremes and sample count of one metric over the repetitions
/// of a run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// A value that is not a sample statistic (simulated metrics repeat
    /// exactly, so one reading is the whole distribution).
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Json;

    #[test]
    fn benchmark_json_repeats_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let e2e = rows("end_to_end");
        let listed: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.driver).collect();
        assert_eq!(e2e.len(), listed.len());
        for (row, m) in e2e.iter().zip(listed) {
            assert_eq!(row.str_of("name"), Some(m.name));
            assert_eq!(row.str_of("unit"), Some(m.unit));
            assert_eq!(row.str_of("better"), Some(m.better.as_str()));
            assert_eq!(row.f64_of("bound"), Some(m.bound), "{}", m.name);
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(row.str_of("name"), Some(m.name));
            assert_eq!(row.str_of("unit"), Some(m.unit));
            assert_eq!(row.str_of("better"), Some(m.better.as_str()));
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (row, w) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(row.str_of("name"), Some(w.name));
        }
    }
}
