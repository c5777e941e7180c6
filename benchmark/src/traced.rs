//! The traced run: where the time goes, layer by layer.
//!
//! It is separate from the timed repetitions. Spans wrap each call into
//! the product; for the closed-loop workloads the same request stream is
//! driven through the benchmark's own loop over `RemoteBackend` with a
//! span per stage; the probes of `probes.rs` price the layers inside
//! `advance`, which spans placed outside the program cannot see into.
//! The spans go to `benchmark/out/trace-<workload>.json`.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::child::{self, Variant};
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::spans::Tracer;
use crate::sut::{self, Json, LatencyHistogram, NodeId, RemoteBackend, ScenarioSpec, SimTime};
use crate::workload::Workload;

pub struct TracedRun {
    /// One value per [`PER_LAYER`] row, in that order.
    pub values: Vec<(&'static str, f64)>,
    /// The self-time table and the share split, ready to print.
    pub tables: String,
    pub violations: Vec<String>,
    /// Operations the traced drives attempted and completed.
    pub attempted: u64,
}

/// Values by metric name; every name must be in [`PER_LAYER`].
#[derive(Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer dictionary"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every dictionary row; a metric that does not apply reads 0.
    fn finish(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}

/// The spans the staged driver records, outermost first.
const STAGED_SPANS: [&str; 8] = [
    "driver.staged",
    "machine.build",
    "machine.teardown",
    "driver.generate",
    "machine.backend.post",
    "machine.backend.advance",
    "machine.backend.poll",
    "driver.record",
];

/// The product's closed loop (`scenario::drive`), restaged so each step
/// of an iteration is its own span: generate the requests a sweep will
/// post, post them, advance, poll every node, record latencies.
///
/// Returns what the drive saw, for the parent to compare with the
/// product's own run of the same spec.
fn staged_drive(spec: &ScenarioSpec, tracer: &mut Tracer) -> [(&'static str, f64); 7] {
    let nodes = spec.nodes;
    tracer.begin("driver.staged");
    let (mut backend, _) = tracer.span("machine.build", |_| sut::build_sonuma(spec));
    let mut stream = sut::RequestStream::new(spec);
    let mut pending: Vec<HashMap<u64, u64>> = (0..nodes).map(|_| HashMap::new()).collect();
    let mut remaining = vec![spec.ops_per_node; nodes];
    let mut hist = LatencyHistogram::new();
    let mut batch = Vec::new();
    let mut completions = Vec::new();
    let (mut ops, mut sweeps) = (0u64, 0u64);
    loop {
        tracer.begin("driver.generate");
        batch.clear();
        for n in 0..nodes {
            let room = spec.window.saturating_sub(pending[n].len()) as u64;
            for _ in 0..room.min(remaining[n]) {
                batch.push((n, stream.next(n)));
            }
        }
        tracer.end();

        tracer.begin("machine.backend.post");
        let posted_any = !batch.is_empty();
        for (n, req) in batch.drain(..) {
            // The window is below the queue depth, so a post never meets
            // backpressure; the product's loop relies on the same.
            let token = backend
                .post(NodeId(n as u16), req)
                .expect("window below queue depth");
            pending[n].insert(token, backend.now().as_ps());
            remaining[n] -= 1;
        }
        tracer.end();

        tracer.begin("machine.backend.advance");
        let more = backend.advance();
        tracer.end();

        tracer.begin("machine.backend.poll");
        let now = backend.now();
        for n in 0..nodes {
            for c in backend.poll(NodeId(n as u16)) {
                completions.push((n, c.token, c.status.is_ok()));
            }
        }
        sweeps += 1;
        tracer.end();

        tracer.begin("driver.record");
        for (n, token, ok) in completions.drain(..) {
            let posted_ps = pending[n]
                .remove(&token)
                .expect("completion of a posted op");
            ops += 1;
            assert!(ok, "closed-loop workloads inject no faults");
            hist.record(now.saturating_sub(SimTime::from_ps(posted_ps)));
        }
        let inflight: usize = pending.iter().map(HashMap::len).sum();
        let done = !more && !posted_any && inflight == 0 && remaining.iter().all(|&r| r == 0);
        tracer.end();
        if done {
            break;
        }
    }
    let link_traversals: u64 = backend
        .fabric()
        .link_stats()
        .iter()
        .map(|l| l.packets)
        .sum();
    let (events, sim_us) = (backend.events_processed(), backend.now().as_us_f64());
    // `run_spec_once` frees its machine before it returns; so does this.
    tracer.span("machine.teardown", |_| drop(backend));
    tracer.end();
    [
        ("ops", ops as f64),
        ("events", events as f64),
        ("sim_us", sim_us),
        ("lat_p50_ns", hist.percentile(0.50).as_ns_f64()),
        ("lat_p99_ns", hist.percentile(0.99).as_ns_f64()),
        ("sweeps", sweeps as f64),
        ("link_traversals", link_traversals as f64),
    ]
}

/// `child-staged`: the staged drive in a fresh process, like every timed
/// repetition, so its seconds compare with theirs. Prints its spans.
pub fn staged_main(workload: &Workload, seed: Option<u64>) -> ! {
    child::pin_mmap_threshold();
    let spec = workload
        .spec(seed)
        .expect("the staged driver needs a scenario");
    let mut tracer = Tracer::new();
    let numbers = staged_drive(&spec, &mut tracer);
    child::emit(&tracer.export(), &numbers, "")
}

/// The probes that depend on the workload only through its shard count.
fn generic_probes(v: &mut Values, shards: usize) {
    v.set("sim.event.ns_per_event", probes::event_ns_per_event());
    v.set(
        "sim.sharded.ns_per_epoch",
        probes::sharded_ns_per_epoch(shards),
    );
    v.set("sim.stats.ns_per_record", probes::stats_ns_per_record());
    v.set(
        "sim.stats.ns_per_percentile",
        probes::stats_ns_per_percentile(),
    );
    v.set(
        "protocol.packet.ns_per_codec",
        probes::packet_ns_per_codec(),
    );
    v.set("protocol.queue.ns_per_codec", probes::queue_ns_per_codec());
    v.set(
        "memory.hierarchy.ns_per_hit",
        probes::hierarchy_ns_per_hit(),
    );
    v.set(
        "memory.hierarchy.ns_per_miss",
        probes::hierarchy_ns_per_miss(),
    );
    v.set(
        "memory.page.ns_per_translate",
        probes::page_ns_per_translate(),
    );
    v.set("rmc.itt.ns_per_txn", probes::itt_ns_per_txn());
    v.set("rmc.ct.ns_per_lookup", probes::ct_ns_per_lookup());
    v.set("rmc.maq.ns_per_acquire", probes::maq_ns_per_acquire());
    v.set("machine.path.ns_per_line", probes::path_ns_per_line(64));
    v.set(
        "machine.path.ns_per_burst_line",
        probes::path_ns_per_line(4096),
    );
    let (rdma_ns, rdma_p99) = probes::rdma_ns_per_op();
    let (tcp_ns, tcp_p99) = probes::tcp_ns_per_op();
    v.set("baselines.rdma.ns_per_op", rdma_ns);
    v.set("baselines.tcp.ns_per_op", tcp_ns);
    v.set("baselines.rdma.sim_p99_ns", rdma_p99);
    v.set("baselines.tcp.sim_p99_ns", tcp_p99);
    v.set("apps.kvdir.ns_per_lookup", probes::kvdir_ns_per_lookup());
    let (fill, verify) = probes::kv_fill_verify_gbps();
    v.set("apps.kv.fill_gbps", fill);
    v.set("apps.kv.verify_gbps", verify);
    v.set(
        "bench.trafficgen.ns_per_arrival",
        probes::trafficgen_ns_per_arrival(),
    );
    v.set(
        "bench.trafficgen.ns_per_zipf",
        probes::trafficgen_ns_per_zipf(),
    );
}

fn self_time_table(tracer: &Tracer, out: &mut String) {
    let _ = writeln!(
        out,
        "  {:<28} {:>8} {:>11} {:>11}",
        "span", "count", "total s", "self s"
    );
    for row in tracer.self_times() {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>11.4} {:>11.4}",
            row.name, row.count, row.total_s, row.self_s
        );
    }
}

fn write_trace(tracer: &Tracer, workload: &Workload, out: &mut String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}.json", workload.name);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace(workload.name)));
    match written {
        Ok(()) => {
            let _ = writeln!(out, "  spans written to {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "  spans not written ({path}: {e})");
        }
    }
}

/// The traced run of `paper-anchors`: the two halves of one pass, and
/// the generic probes against a two-node crossbar.
fn traced_anchors(workload: &Workload) -> TracedRun {
    let mut tracer = Tracer::new();
    let mut v = Values::default();
    let ((_, fig7), total) = tracer.span("core.anchors", |t| {
        let (a, _) = t.span("core.table2_fig1", |_| sut::anchors());
        let (f, _) = t.span("core.fig7_sweeps", |_| sut::fig7_sweeps());
        (a, f)
    });
    v.set("core.anchors_run_s", total);
    generic_probes(&mut v, 1);
    let crossbar = sut::FabricConfig::paper_crossbar(2);
    v.set(
        "fabric.route.ns_per_hop",
        probes::route_ns_per_hop(&crossbar.topology),
    );
    v.set(
        "fabric.send.ns_per_traversal",
        probes::send_ns_per_traversal(&crossbar, true),
    );
    v.set(
        "fabric.send_faulty.ns_per_traversal",
        probes::send_faulty_ns_per_traversal(&crossbar, true, 0.0),
    );
    let mut tables = String::new();
    let _ = writeln!(tables, "where the time goes: {}", workload.name);
    self_time_table(&tracer, &mut tables);
    write_trace(&tracer, workload, &mut tables);
    TracedRun {
        values: v.finish(),
        tables,
        violations: Vec::new(),
        attempted: fig7.points,
    }
}

fn sonuma_run(doc: &Json) -> &Json {
    sut::report_runs(doc).first().unwrap_or(&Json::Null)
}

fn section_u64(run: &Json, section: &str, key: &str) -> f64 {
    run.get(section).and_then(|s| s.u64_of(key)).unwrap_or(0) as f64
}

/// The traced run of one workload.
pub fn traced(workload: &'static Workload, seed: Option<u64>) -> Result<TracedRun, String> {
    child::pin_mmap_threshold();
    let Some(toml) = workload.toml else {
        return Ok(traced_anchors(workload));
    };
    let mut tracer = Tracer::new();
    let mut v = Values::default();
    let mut violations = Vec::new();

    // Spans around each outside call, in the order a CLI run makes them.
    let (spec, _) = tracer.span("bench.spec_parse", |_| sut::load_spec(toml, seed));
    let spec = spec?;
    let (mut machines, build_s) = tracer.span("machine.build", |_| sut::build_machines(&spec));
    tracer.span("apps.kv_preload", |_| sut::kv_preload(&spec, &mut machines));
    drop(machines);
    let (result, run_spec_s) = tracer.span("bench.run_spec", |_| sut::run_spec(&spec));
    let (doc, report_build_s) = tracer.span("bench.report_build", |_| sut::report(result));
    let (text, render_s) = tracer.span("bench.json_render", |_| doc.render());
    let (valid, validate_s) = tracer.span("bench.report_validate", |_| sut::validate_report(&doc));
    if let Err(e) = valid {
        violations.push(format!("validate_report: {e}"));
    }
    let (parsed, parse_s) = tracer.span("bench.json_parse", |_| Json::parse(&text));
    let parsed = parsed.map_err(|e| format!("the product cannot parse its own report: {e}"))?;
    let (diffs, _) = tracer.span("bench.equivalence_diff", |_| {
        sut::equivalence_diff(&doc, &parsed)
    });
    for d in diffs {
        violations.push(format!("report changes across render and parse: {d}"));
    }
    let run_s = run_spec_s + report_build_s + render_s + validate_s;

    let run = sonuma_run(&doc);
    let events = run.u64_of("events").unwrap_or(0) as f64;
    let epochs = section_u64(run, "sharding", "epochs");
    let packets = section_u64(run, "fabric", "packets");
    let pipe = |k: &str| section_u64(run, "pipeline_total", k);

    // The staged driver, for the workloads whose loop it can reproduce.
    let fabric = sut::fabric_config(&spec);
    let mut staged_s = 0.0;
    // Exact from the staged machine's link counters; for the open loops,
    // packets x the topology's mean distance between random pairs.
    let link_traversals;
    let mut attempted = run.u64_of("ops").unwrap_or(0);
    if sut::is_closed_loop(&spec) {
        let staged = child::spawn("child-staged", workload, seed, Variant::default())?;
        tracer.import(&staged.report, &STAGED_SPANS)?;
        staged_s = tracer.total_s("driver.staged");
        let got = |k: &str| staged.result.f64_of(k).unwrap_or(0.0);
        attempted += got("ops") as u64;
        link_traversals = got("link_traversals");
        // Same stream, same machine: the staged drive must reproduce the
        // product's run to the event.
        for key in ["ops", "events", "sim_us", "lat_p50_ns", "lat_p99_ns"] {
            if got(key) != run.f64_of(key).unwrap_or(-1.0) {
                violations.push(format!(
                    "the staged driver diverged from run_spec_once: {key} {} vs {}",
                    got(key),
                    run.f64_of(key).unwrap_or(-1.0)
                ));
            }
        }
        let share = |name: &str| tracer.total_s(name) / staged_s;
        v.set("machine.backend.post_share", share("machine.backend.post"));
        v.set(
            "machine.backend.advance_share",
            share("machine.backend.advance"),
        );
        v.set("machine.backend.poll_share", share("machine.backend.poll"));
        v.set(
            "machine.backend.post_ns_per_op",
            tracer.total_s("machine.backend.post") * 1e9 / got("ops"),
        );
        v.set(
            "machine.backend.poll_ns_per_sweep",
            tracer.total_s("machine.backend.poll") * 1e9 / got("sweeps"),
        );
        v.set("benchmark.span_overhead_ratio", staged_s / run_spec_s);
    } else {
        link_traversals = packets * probes::mean_hops(&fabric.topology);
    }

    // Probes: the generic ones, and the fabric on this workload's own
    // topology and fault plan.
    generic_probes(&mut v, spec.threads);
    v.set(
        "fabric.route.ns_per_hop",
        probes::route_ns_per_hop(&fabric.topology),
    );
    let neighbors = sut::reads_ring_successor(&spec);
    v.set(
        "fabric.send.ns_per_traversal",
        probes::send_ns_per_traversal(&fabric, neighbors),
    );
    v.set(
        "fabric.send_faulty.ns_per_traversal",
        probes::send_faulty_ns_per_traversal(&fabric, neighbors, sut::horizon_us(&spec)),
    );
    v.set("bench.spec_parse_us", probes::spec_parse_us(toml));

    // Counts of the run itself.
    v.set("sim.event.events", events);
    v.set("sim.sharded.epochs", epochs);
    v.set("fabric.packets", packets);
    v.set("fabric.link_traversals", link_traversals);
    v.set(
        "fabric.credit_stalls",
        section_u64(run, "fabric", "credit_stalls"),
    );
    v.set("fabric.rerouted", section_u64(run, "faults", "rerouted"));
    v.set("fabric.packets_per_s", packets / run_s);
    for (metric, key) in [
        ("machine.pipeline.rgp_lines", "rgp_lines"),
        ("machine.pipeline.rrpp_served", "rrpp_served"),
        ("machine.pipeline.rcp_replies", "rcp_replies"),
        ("machine.pipeline.rgp_itt_stalls", "rgp_itt_stalls"),
        ("machine.pipeline.rgp_sched_skips", "rgp_sched_skips"),
        ("machine.pipeline.api_wq_full", "api_wq_full"),
        ("machine.pipeline.rgp_timeouts", "rgp_timeouts"),
        ("machine.pipeline.rgp_retransmits", "rgp_retransmits"),
    ] {
        v.set(metric, pipe(key));
    }
    // RMC accesses through the MAQ: one per WQ poll and per CQ write
    // (lines the core just touched: cache hits), one per line served by
    // the RRPP and per reply written by the RCP (streaming: misses).
    let (hits, misses) = (
        pipe("rgp_wq_polls") + pipe("rcp_completions"),
        pipe("rrpp_served") + pipe("rcp_replies"),
    );
    v.set("memory.accesses", hits + misses);
    v.set(
        "machine.resident_bytes",
        section_u64(run, "sharding", "resident_bytes"),
    );
    for (metric, key) in [
        ("machine.sim.mean_ns", "lat_mean_ns"),
        ("machine.sim.p50_ns", "lat_p50_ns"),
        ("machine.sim.p99_ns", "lat_p99_ns"),
    ] {
        v.set(metric, run.f64_of(key).unwrap_or(0.0));
    }
    v.set("machine.build_s", build_s);
    v.set(
        "machine.shard.cut_links",
        section_u64(run, "sharding", "cut_links"),
    );
    let shard_events: Vec<f64> = run
        .get("sharding")
        .and_then(|s| s.get("shard_events"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if shard_events.len() > 1 {
        let mean = shard_events.iter().sum::<f64>() / shard_events.len() as f64;
        let max = shard_events.iter().copied().fold(0.0, f64::max);
        v.set("machine.shard.event_imbalance", max / mean - 1.0);
    }
    if let Some(kv) = run.get("kv") {
        v.set(
            "apps.kv.get_lines",
            kv.u64_of("get_lines").unwrap_or(0) as f64,
        );
        v.set("apps.kv.corrupt", kv.u64_of("corrupt").unwrap_or(0) as f64);
    }
    v.set("bench.report_build_ms", report_build_s * 1e3);
    v.set(
        "bench.json.render_mb_per_s",
        text.len() as f64 / 1e6 / render_s,
    );
    v.set(
        "bench.json.parse_mb_per_s",
        text.len() as f64 / 1e6 / parse_s,
    );
    v.set("bench.report_validate_ms", validate_s * 1e3);
    v.set("bench.report_bytes", text.len() as f64);
    v.set(
        "bench.report_share",
        (report_build_s + render_s + validate_s) / run_s,
    );

    // Companion drives, each pair in fresh children so the two sides meet
    // the same conditions: the spec on one thread against itself (the
    // workload that shards), and with the flight recorder armed against
    // unarmed (scan512, whose 3 k links make the recorder work hardest).
    let drive = |variant: Variant| -> Result<(f64, String), String> {
        let out = child::spawn("child-drive", workload, seed, variant)?;
        Ok((out.result.f64_of("run_spec_s").unwrap_or(0.0), out.report))
    };
    if spec.threads > 1 {
        let (sharded_s, _) = drive(Variant::default())?;
        let (serial_s, _) = drive(Variant {
            threads: Some(1),
            ..Variant::default()
        })?;
        v.set("machine.shard.speedup_vs_serial", serial_s / sharded_s);
    }
    if workload.name == "scan512" {
        let (plain_s, _) = drive(Variant::default())?;
        let (armed_s, armed_report) = drive(Variant {
            armed: true,
            ..Variant::default()
        })?;
        let armed_doc = Json::parse(&armed_report).map_err(|e| format!("armed report: {e}"))?;
        let t = |k: &str| section_u64(sonuma_run(&armed_doc), "trace", k);
        v.set("trace.overhead_ratio", armed_s / plain_s);
        v.set(
            "trace.samples",
            t("link_samples") + t("node_samples") + t("fault_events"),
        );
        v.set(
            "trace.dropped",
            t("link_dropped") + t("node_dropped") + t("fault_dropped"),
        );
        for d in sut::equivalence_diff(&doc, &armed_doc) {
            violations.push(format!("arming the recorder changed the simulation: {d}"));
        }
    }

    // Estimated shares of run_s: unit cost from the probe x the run's own
    // count of that unit.
    let send = if fabric.faults.is_some() {
        "fabric.send_faulty.ns_per_traversal"
    } else {
        "fabric.send.ns_per_traversal"
    };
    let est = |ns: f64| ns / 1e9 / run_s;
    v.set(
        "sim.event.est_share",
        est(v.get("sim.event.ns_per_event") * events),
    );
    v.set(
        "sim.sharded.est_share",
        est(v.get("sim.sharded.ns_per_epoch") * epochs),
    );
    v.set(
        "memory.est_share",
        est(v.get("memory.hierarchy.ns_per_hit") * hits
            + v.get("memory.hierarchy.ns_per_miss") * misses),
    );
    v.set("fabric.est_share", est(v.get(send) * link_traversals));
    // Driver stages are measured, not estimated; as shares of run_s they
    // assume the staged loop costs what the product's loop costs.
    let driver_share = if staged_s > 0.0 {
        let stages: f64 = [
            "driver.generate",
            "machine.backend.post",
            "machine.backend.poll",
            "driver.record",
        ]
        .iter()
        .map(|name| tracer.total_s(name))
        .sum();
        stages / staged_s * run_spec_s / run_s
    } else {
        0.0
    };
    let lifecycle_share = if staged_s > 0.0 {
        // tracer.total_s("machine.build") also counts the parent's own
        // build span, which is outside run_s: take the staged one only.
        (tracer.total_s("machine.build") - build_s + tracer.total_s("machine.teardown")) / staged_s
            * run_spec_s
            / run_s
    } else {
        0.0
    };
    let attributed = lifecycle_share
        + v.get("sim.event.est_share")
        + v.get("sim.sharded.est_share")
        + v.get("memory.est_share")
        + v.get("fabric.est_share")
        + v.get("bench.report_share")
        + driver_share;
    v.set("machine.unattributed_share", 1.0 - attributed);

    let mut tables = String::new();
    let _ = writeln!(
        tables,
        "where the time goes: {} (run_s {run_s:.3} s in this process, spans outside the program)",
        workload.name
    );
    self_time_table(&tracer, &mut tables);
    let _ = writeln!(
        tables,
        "  shares of run_s (est = probe unit cost x the run's count):"
    );
    for (label, share) in [
        ("machine build + teardown (measured)", lifecycle_share),
        ("driver: generate+post+poll+record (measured)", driver_share),
        ("sim.event.est_share", v.get("sim.event.est_share")),
        ("sim.sharded.est_share", v.get("sim.sharded.est_share")),
        ("memory.est_share", v.get("memory.est_share")),
        ("fabric.est_share", v.get("fabric.est_share")),
        ("bench.report_share (measured)", v.get("bench.report_share")),
        (
            "machine.unattributed_share",
            v.get("machine.unattributed_share"),
        ),
    ] {
        let _ = writeln!(tables, "    {label:<46} {:>6.1} %", share * 100.0);
    }
    if staged_s > 0.0 {
        let _ = writeln!(
            tables,
            "  tracing overhead: staged loop {staged_s:.3} s vs run_spec_once {run_spec_s:.3} s (x{:.3})",
            staged_s / run_spec_s
        );
    } else {
        let _ = writeln!(
            tables,
            "  open loop: no staged driver, so the driver's share is inside unattributed"
        );
    }
    write_trace(&tracer, workload, &mut tables);

    Ok(TracedRun {
        values: v.finish(),
        tables,
        violations,
        attempted,
    })
}
