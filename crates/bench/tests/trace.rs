//! Flight-recorder coverage at the scenario-harness level: the `[trace]`
//! spec section round-trips through TOML, a zero-interval section is
//! indistinguishable from no section (the tracing-off byte-identity
//! contract), traced runs report a schema-valid `trace` section and emit
//! a non-empty JSON-lines trace whose bytes are pinned and identical
//! across `--threads`, the reader returns exactly what the recorder
//! wrote, and every checked-in spec under `bench/specs/` parses.

use std::fs;
use std::path::PathBuf;

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use sonuma_bench::json::Json;
use sonuma_bench::scenario::{
    equivalence_diff, report, run_spec, run_specs, validate_report, BackendKind, BackendSel,
    FaultSpec, ScenarioSpec, TenancySpec, TopologySpec, TraceSpec, TrafficSpec, WorkloadKind,
};
use sonuma_bench::tracefig::parse_trace;
use sonuma_sim::SimTime;
use sonuma_trace::{
    render_jsonl, FaultKind, FlightRecorder, NodeCounters, TenantFlow, TraceConfig, TraceMeta,
    FAULT_COUNTER_KINDS,
};

/// A fast open-loop spec on the soNUMA backend with a link kill mid-run,
/// sampled at 2 us: small enough for a debug-build test, busy enough to
/// produce link, node, tenant, and fault records.
fn traced_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "tiny-trace".into(),
        nodes: 8,
        topology: TopologySpec::Torus2d(4, 2),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::Mixed,
        read_fraction: 0.8,
        op_bytes: 64,
        seed: 31,
        tenancy: Some(TenancySpec {
            tenants: 8,
            ..TenancySpec::default()
        }),
        traffic: Some(TrafficSpec {
            rate_per_tenant: 2_000_000.0,
            duration_us: 30.0,
            zipf_addr: 0.5,
            ..TrafficSpec::default()
        }),
        faults: Some(FaultSpec {
            seed: 17,
            killed_links: 1,
            kill_at_us: 5.0,
            revive_at_us: 15.0,
            ..FaultSpec::default()
        }),
        trace: Some(TraceSpec {
            interval_us: 2.0,
            ..TraceSpec::default()
        }),
        ..ScenarioSpec::default()
    }
}

#[test]
fn zero_interval_trace_section_is_invisible() {
    // An `interval_us = 0` [trace] section must leave no trace of its
    // own: nothing rendered, nothing armed, and a report byte-identical
    // (modulo wall clock) to a spec with no section at all.
    let mut with_zero = traced_spec();
    with_zero.trace = Some(TraceSpec {
        interval_us: 0.0,
        ..TraceSpec::default()
    });
    assert!(
        !with_zero.to_toml().contains("[trace]"),
        "zero-interval section must not render"
    );
    let mut without = traced_spec();
    without.trace = None;
    assert_eq!(with_zero.to_toml(), without.to_toml());
    let a = report(&run_specs(&[with_zero]));
    let b = report(&run_specs(&[without]));
    assert_eq!(
        equivalence_diff(&a, &b),
        Vec::<String>::new(),
        "a zero-interval [trace] section must not perturb the simulation"
    );
    assert!(!a.render().contains("\"trace\""));
}

#[test]
fn traced_run_reports_samples_and_emits_a_trace() {
    let results = run_specs(&[traced_spec()]);
    let doc = report(&results);
    validate_report(&doc).expect("traced report satisfies the schema");
    let run = &results[0].runs[0];
    let t = run.trace.as_ref().expect("trace section attached");
    assert!(
        t.summary.ticks > 0,
        "no sampling rounds ran: {:?}",
        t.summary
    );
    assert!(t.summary.link_samples > 0, "no link activity recorded");
    assert!(t.summary.node_samples > 0, "no pipeline activity recorded");
    assert!(
        t.summary.fault_events >= 2,
        "the kill and revive transitions must be recorded: {:?}",
        t.summary
    );
    assert!(t.tenant_samples > 0, "no tenant windows recorded");
    let mut lines = t.text.lines();
    let header = lines.next().expect("trace has a header line");
    assert!(header.contains("\"schema\":\"sonuma-trace/v1\""));
    assert!(header.contains("\"scenario\":\"tiny-trace\""));
    assert!(lines.clone().any(|l| l.contains("\"rec\":\"link\"")));
    assert!(lines.clone().any(|l| l.contains("\"rec\":\"node\"")));
    assert!(lines.clone().any(|l| l.contains("\"rec\":\"tenant\"")));
    assert!(lines.any(|l| l.contains("\"kind\":\"link_kill\"")));
    // Timestamps are monotonically non-decreasing: the export merge
    // sorted by (t, rank).
    let mut last = 0u64;
    for line in t.text.lines().skip(1) {
        let t_ps: u64 = line
            .strip_prefix("{\"t_ps\":")
            .and_then(|r| r.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("every record leads with t_ps");
        assert!(t_ps >= last, "out-of-order record: {line}");
        last = t_ps;
    }
    // The untraced metrics are unperturbed by the armed recorder.
    let mut untraced = traced_spec();
    untraced.trace = None;
    let plain = report(&run_specs(&[untraced]));
    assert_eq!(
        equivalence_diff(&doc, &plain),
        Vec::<String>::new(),
        "arming the recorder must not change any simulated metric"
    );
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn trace_bytes_are_pinned_and_read_back_whole() {
    // The file format is pinned byte for byte: this digest was taken
    // while the writer still spelled every record in its own format
    // string, before one member list per record served writer and reader.
    let run = run_spec(&traced_spec());
    let t = run.runs[0].trace.as_ref().expect("trace section attached");
    let digest = fnv1a(&t.text);
    assert_eq!(digest, PINNED_TRACE, "trace bytes moved (0x{digest:016x})");
    let doc = parse_trace(&t.text).expect("the trace reads back");
    assert_eq!(doc.meta.scenario, "tiny-trace");
    assert_eq!(doc.links.len() as u64, t.summary.link_samples);
    assert_eq!(doc.nodes.len() as u64, t.summary.node_samples);
    assert_eq!(doc.faults.len() as u64, t.summary.fault_events);
    assert_eq!(doc.tenants.len() as u64, t.tenant_samples);
}

const PINNED_TRACE: u64 = 0xec38_54a6_ff26_99ac;

/// One sampling round of random activity: per-slot link increments
/// `(bytes, packets, credit stalls)`, per-node counter increments (the
/// sixth, `itt_in_flight`, is taken as the gauge's value), fault-counter
/// increments, and an optional transition `(kind, a, b)`.
type Round = (
    Vec<(u64, u64, u64)>,
    Vec<Vec<u64>>,
    Vec<u64>,
    Option<(usize, u16, u16)>,
);

fn round() -> impl Strategy<Value = Round> {
    (
        vec((0u64..3, 0u64..3, 0u64..2), 4..5),
        vec(vec(0u64..3, 8..9), 3..4),
        vec(0u64..2, 7..8),
        option::of((0usize..4, 0u16..3, 0u16..3)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a recorder and a tenant sampler hold, `parse_trace` of
    /// `render_jsonl` returns exactly those samples, stream by stream.
    #[test]
    fn the_reader_returns_exactly_the_recorded_samples(
        rounds in vec(round(), 1..10),
        completions in vec((0u64..1_200, 0u32..4, 1u64..100_000), 0..60),
    ) {
        let interval = SimTime::from_ns(100);
        let mut rec = FlightRecorder::new(&TraceConfig::every(interval), 4, 3);
        let mut links = [(0u64, 0u64, 0u64); 4];
        let mut nodes = [[0u64; 8]; 3];
        let mut faults = [0u64; FAULT_COUNTER_KINDS.len()];
        for (r, (link_inc, node_inc, fault_inc, transition)) in rounds.iter().enumerate() {
            let t = SimTime::from_ns(100 * (r as u64 + 1));
            let end = rec.close_fabric_window(t);
            for (slot, &(b, p, s)) in link_inc.iter().enumerate() {
                let cum = &mut links[slot];
                *cum = (cum.0 + b * 64, cum.1 + p, cum.2 + s);
                rec.record_link(end, slot, slot as u16, (slot as u16 + 1) % 4, cum.0, cum.1, cum.2);
            }
            let (_, w_end) = rec.begin_node_round(t);
            if let Some((kind, a, b)) = *transition {
                let at = SimTime::from_ps(w_end.as_ps() - 7 * u64::from(a));
                rec.record_transition(at, FaultKind::LABELS[kind].0, a, b);
            }
            for (node, inc) in node_inc.iter().enumerate() {
                let cum = &mut nodes[node];
                for (i, v) in inc.iter().enumerate() {
                    cum[i] = if i == 5 { *v } else { cum[i] + v };
                }
                let [rgp_requests, rrpp_served, rcp_completions, rgp_itt_stalls, api_wq_full, itt_in_flight, rgp_timeouts, rgp_retransmits] = *cum;
                let counters = NodeCounters {
                    rgp_requests,
                    rrpp_served,
                    rcp_completions,
                    rgp_itt_stalls,
                    api_wq_full,
                    itt_in_flight,
                    rgp_timeouts,
                    rgp_retransmits,
                };
                rec.record_node(t, node as u16, counters);
            }
            for (cum, inc) in faults.iter_mut().zip(fault_inc) {
                *cum += inc;
            }
            rec.record_fault_counters(t, faults);
        }
        let mut flow = TenantFlow::new(interval);
        for &(at_ns, tenant, latency_ps) in &completions {
            flow.record(SimTime::from_ns(at_ns), tenant, SimTime::from_ps(latency_ps));
        }
        let meta = TraceMeta {
            scenario: "prop \"quoted\" \\ name".into(),
            backend: "sonuma".into(),
            nodes: 3,
            interval_ps: interval.as_ps(),
        };
        let doc = parse_trace(&render_jsonl(&meta, Some(&rec), Some(&flow)))
            .expect("the writer's output reads back");
        prop_assert_eq!(&doc.meta.scenario, &meta.scenario);
        prop_assert_eq!(&doc.meta.backend, &meta.backend);
        prop_assert_eq!((doc.meta.nodes, doc.meta.interval_ps), (3, interval.as_ps()));
        prop_assert_eq!(doc.links, rec.link_samples().copied().collect::<Vec<_>>());
        prop_assert_eq!(doc.nodes, rec.node_samples().copied().collect::<Vec<_>>());
        prop_assert_eq!(doc.faults, rec.fault_events().copied().collect::<Vec<_>>());
        prop_assert_eq!(doc.tenants, flow.samples().collect::<Vec<_>>());
    }
}

#[test]
fn trace_bytes_are_identical_across_threads() {
    // The satellite determinism contract, at test scale: the CI fault
    // lane `cmp`s the same property on the full rack512-linkflap run.
    let serial = run_spec(&traced_spec());
    let mut sharded_spec = traced_spec();
    sharded_spec.threads = 4;
    let sharded = run_spec(&sharded_spec);
    let a = &serial.runs[0].trace.as_ref().expect("serial trace").text;
    let b = &sharded.runs[0].trace.as_ref().expect("sharded trace").text;
    assert!(a.lines().count() > 1, "trace must carry records");
    assert_eq!(a, b, "trace bytes must not depend on the partition");
}

#[test]
fn trace_spec_roundtrips_through_toml() {
    let spec = ScenarioSpec {
        name: "trace-roundtrip".into(),
        nodes: 4,
        trace: Some(TraceSpec {
            interval_us: 2.5,
            link_capacity: 1 << 10,
            node_capacity: 1 << 9,
            event_capacity: 1 << 8,
        }),
        ..ScenarioSpec::default()
    };
    spec.validate().expect("spec in range");
    let toml = spec.to_toml();
    assert!(toml.contains("[trace]"));
    let back = ScenarioSpec::from_toml(&toml).expect("round trip parses");
    assert_eq!(back, spec);
    // A bare [trace] header arms the recorder at the default cadence.
    let bare = ScenarioSpec::from_toml("name = \"t\"\nnodes = 4\n\n[trace]\n")
        .expect("bare section parses");
    let t = bare.trace.expect("section present");
    assert!(!t.is_empty());
    assert_eq!(t, TraceSpec::default());
}

#[test]
fn every_checked_in_spec_parses_and_validates() {
    // The spec directory is part of the shipped interface; every file in
    // it must load (`example-torus.toml` was previously unexercised).
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench/specs");
    let mut seen = 0;
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("bench/specs exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("toml"),
            "stray non-spec file {}",
            path.display()
        );
        let text = fs::read_to_string(&path).expect("spec readable");
        let spec = ScenarioSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e:?}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{} does not validate: {e:?}", path.display()));
        assert!(!spec.name.is_empty());
        // Round trip: what we render parses back to the same spec.
        let back = ScenarioSpec::from_toml(&spec.to_toml()).expect("re-render parses");
        assert_eq!(back, spec, "{} round trip", path.display());
        seen += 1;
    }
    assert!(seen >= 8, "spec directory unexpectedly thin: {seen} files");
}

#[test]
fn report_schema_validation_covers_the_trace_section() {
    let doc = report(&run_specs(&[traced_spec()]));
    // Corrupting the trace section must fail validation.
    let broken = Json::parse(
        &doc.render()
            .replace("\"tenant_samples\"", "\"tenant_sample\""),
    )
    .expect("patched report parses");
    assert!(
        validate_report(&broken)
            .expect_err("missing tenant_samples must fail")
            .contains("tenant_samples"),
        "validation must name the missing key"
    );
}
