//! Scenario-harness coverage: spec serde round-trips, malformed-spec
//! rejection, report schema validity, and the determinism contract (same spec + seed => byte-identical `BENCH.json`
//! modulo wall-clock fields).

use proptest::prelude::*;
use sonuma_bench::json::Json;
use sonuma_bench::scenario::{
    canned, canned_names, canned_specs, equivalence_diff, report, run_spec, run_specs,
    validate_report, BackendKind, BackendSel, FaultSpec, KvSpec, PlatformSpec, ScenarioSpec,
    SpecError, TenancySpec, TopologySpec, TraceSpec, TrafficSpec, WeightMode, WorkloadKind,
    REPORT_SCHEMA,
};
use sonuma_bench::trafficgen::ArrivalKind;
use sonuma_core::SchedPolicy;

fn tiny_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "tiny".into(),
        nodes: 3,
        backend: BackendSel::All,
        workload: WorkloadKind::Mixed,
        read_fraction: 0.5,
        op_bytes: 128,
        ops_per_node: 24,
        window: 6,
        seed: 5,
        ..ScenarioSpec::default()
    }
}

#[test]
fn toml_roundtrip_preserves_every_field() {
    for spec in canned_specs() {
        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text).expect("canned specs parse");
        assert_eq!(back, spec, "round-trip drifted for {}", spec.name);
    }
    // A torus3d spec with every non-default field set.
    let spec = ScenarioSpec {
        name: "full".into(),
        nodes: 27,
        topology: TopologySpec::Torus3d(3, 3, 3),
        platform: sonuma_bench::scenario::PlatformSpec::Dev,
        backend: BackendSel::One(BackendKind::Tcp),
        workload: WorkloadKind::Mixed,
        read_fraction: 0.25,
        op_bytes: 192,
        ops_per_node: 7,
        window: 3,
        segment_bytes: 1 << 16,
        seed: 1234567,
        threads: 3,
        qp_entries: 32,
        speculate_epochs: 0, // frozen-benchmark residue: ROADMAP item 9 deletes
        tenancy: Some(sonuma_bench::scenario::TenancySpec {
            tenants: 54,
            scheduler: sonuma_core::SchedPolicy::StrictPriority,
            weights: sonuma_bench::scenario::WeightMode::Tiered,
        }),
        traffic: Some(sonuma_bench::scenario::TrafficSpec {
            arrival: sonuma_bench::trafficgen::ArrivalKind::Bursty,
            rate_per_tenant: 12_500.0,
            duration_us: 18.0,
            zipf_addr: 0.75,
            zipf_dst: 0.5,
            burst: 3,
        }),
        faults: Some(sonuma_bench::scenario::FaultSpec {
            seed: 99,
            degraded_links: 2,
            drop_prob: 0.125,
            corrupt_prob: 0.0625,
            derate: 2.5,
            credit_loss: 3,
            killed_links: 1,
            kill_at_us: 7.5,
            revive_at_us: 11.25,
            crashed_nodes: 2,
            crash_at_us: 4.5,
            restart_at_us: 9.0,
            timeout_us: 6.0,
            max_retries: 5,
        }),
        trace: Some(sonuma_bench::scenario::TraceSpec {
            interval_us: 2.5,
            link_capacity: 4096,
            node_capacity: 2048,
            event_capacity: 512,
        }),
        kv: Some(sonuma_bench::scenario::KvSpec {
            keys: 64,
            value_min: 128,
            value_max: 512,
            zipf_key: 1.1,
            get_fraction: 0.75,
            repeat_prob: 0.5,
            seed: 77,
        }),
    };
    assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
}

#[test]
fn malformed_specs_are_rejected() {
    // Zero nodes.
    let zero_nodes = "name = \"x\"\nnodes = 0\n";
    assert!(matches!(
        ScenarioSpec::from_toml(zero_nodes),
        Err(SpecError::Invalid(_))
    ));
    // One node cannot issue remote operations either.
    assert!(ScenarioSpec::from_toml("name = \"x\"\nnodes = 1\n").is_err());
    // Unknown backend.
    let bad_backend = "name = \"x\"\nnodes = 2\nbackend = \"quic\"\n";
    assert!(matches!(
        ScenarioSpec::from_toml(bad_backend),
        Err(SpecError::Parse(3, _))
    ));
    // Unknown key.
    assert!(ScenarioSpec::from_toml("name = \"x\"\nnodes = 2\nnodez = 3\n").is_err());
    // Topology that does not arrange the node count.
    let bad_torus = "name = \"x\"\nnodes = 9\ntopology = \"torus2d:4x4\"\n";
    assert!(matches!(
        ScenarioSpec::from_toml(bad_torus),
        Err(SpecError::Invalid(_))
    ));
    // Non-line-multiple op size.
    assert!(ScenarioSpec::from_toml("name = \"x\"\nnodes = 2\nop_bytes = 100\n").is_err());
    // Window beyond the queue depth.
    assert!(ScenarioSpec::from_toml("name = \"x\"\nnodes = 2\nwindow = 65\n").is_err());
    // Missing required keys.
    assert!(ScenarioSpec::from_toml("nodes = 2\n").is_err());
    assert!(ScenarioSpec::from_toml("name = \"x\"\n").is_err());
    // Syntax errors carry line numbers.
    assert!(matches!(
        ScenarioSpec::from_toml("name = \"x\"\nnodes 2\n"),
        Err(SpecError::Parse(2, _))
    ));
    // Integers too wide for their field are rejected, not truncated
    // (65600 as u16 is 64, which `validate` would accept), and a
    // repeated key or table is an error, not last-one-wins.
    for (line, needle, body) in [
        (4, "out of range", "[execution]\nqp_entries = 65600\n"),
        (4, "out of range", "[faults]\nmax_retries = 4294967296\n"),
        (4, "out of range", "[traffic]\nburst = 4294967297\n"),
        (3, "duplicate", "nodes = 9\n"),
        (5, "duplicate", "[execution]\nthreads = 2\nthreads = 1\n"),
        (5, "duplicate", "[execution]\nthreads = 1\n[execution]\n"),
    ] {
        let text = format!("name = \"x\"\nnodes = 2\n{body}");
        match ScenarioSpec::from_toml(&text) {
            Err(SpecError::Parse(l, msg)) if l == line && msg.contains(needle) => {}
            other => panic!("{text:?} parsed as {other:?}"),
        }
    }
    // The run-ahead knob is gone: the key still parses (the frozen
    // benchmark's struct field), any value but 0 names the removal.
    ScenarioSpec::from_toml("name = \"x\"\nnodes = 2\n[execution]\nspeculate_epochs = 0\n")
        .expect("the inert value still loads");
    let gone = "name = \"x\"\nnodes = 2\n[execution]\nspeculate_epochs = 2\n";
    match ScenarioSpec::from_toml(gone) {
        Err(SpecError::Invalid(msg)) if msg.contains("removed") => {}
        other => panic!("{gone:?} parsed as {other:?}"),
    }
    // A trace cadence that truncates to zero picoseconds would arm a
    // recorder that can never tick.
    let sub_ps = "name = \"x\"\nnodes = 2\n[trace]\ninterval_us = 0.0000001\n";
    match ScenarioSpec::from_toml(sub_ps) {
        Err(SpecError::Invalid(msg)) if msg.contains("1 ps") => {}
        other => panic!("{sub_ps:?} parsed as {other:?}"),
    }
    // A name `to_toml` could not write back: a spec file's strings have
    // no escapes, so a quote would end one early.
    for (name, bad) in [("a\"b", '"'), ("tab\tname", '\t')] {
        let spec = ScenarioSpec {
            name: name.into(),
            nodes: 2,
            ..ScenarioSpec::default()
        };
        match spec.validate() {
            Err(SpecError::Invalid(msg)) if msg.contains(&format!("{bad:?}")) => {}
            other => panic!("name {name:?} validated as {other:?}"),
        }
    }
    // Integers above 2^53 would echo inexactly in the report's JSON.
    for (key, body) in [
        ("seed", "seed = 9007199254740993\n"),
        ("ops_per_node", "ops_per_node = 9007199254740993\n"),
        ("[faults] seed", "[faults]\nseed = 9007199254740993\n"),
        ("[kv] seed", "[kv]\nseed = 9007199254740993\n"),
    ] {
        let text = format!("name = \"x\"\nnodes = 2\n{body}");
        match ScenarioSpec::from_toml(&text) {
            Err(SpecError::Invalid(msg)) if msg.starts_with(&format!("{key} = ")) => {}
            other => panic!("{text:?} parsed as {other:?}"),
        }
    }
    ScenarioSpec::from_toml("name = \"x\"\nnodes = 2\nseed = 9007199254740992\n")
        .expect("2^53 itself echoes exactly");
    // The same key name in two different tables is not a repeat.
    ScenarioSpec::from_toml("name = \"x\"\nnodes = 2\nseed = 1\n[faults]\nseed = 2\n")
        .expect("one `seed` per table is legal");
    // Errors render.
    let err = ScenarioSpec::from_toml(zero_nodes).unwrap_err();
    assert!(err.to_string().contains("nodes"));
}

#[test]
fn comments_and_spacing_are_tolerated() {
    let text = "\n# leading comment\n  name = \"spaced\"   \n\nnodes = 2  # trailing\n";
    let spec = ScenarioSpec::from_toml(text).unwrap();
    assert_eq!(spec.name, "spaced");
    assert_eq!(spec.nodes, 2);
    // A table header takes a trailing comment too.
    let text = "name = \"x\"\nnodes = 2\n[faults] # degraded links\ndegraded_links = 1\n";
    let spec = ScenarioSpec::from_toml(text).unwrap();
    assert_eq!(spec.faults.map(|f| f.degraded_links), Some(1));
}

#[test]
fn report_is_schema_valid_and_parses_back() {
    let results = run_specs(&[tiny_spec()]);
    let doc = report(&results);
    validate_report(&doc).expect("generated report must satisfy its own schema");
    let text = doc.render();
    let back = Json::parse(&text).expect("rendered report parses");
    validate_report(&back).expect("parsed report still valid");
    // Corruptions are caught.
    assert!(validate_report(&Json::parse("{}").unwrap()).is_err());
    let wrong = text.replace(REPORT_SCHEMA, "sonuma-bench.scenario/v0");
    assert!(validate_report(&Json::parse(&wrong).unwrap()).is_err());
}

#[test]
fn same_spec_and_seed_is_byte_identical_modulo_wall_clock() {
    let specs = vec![tiny_spec()];
    let a = report(&run_specs(&specs));
    let b = report(&run_specs(&specs));
    assert_eq!(
        equivalence_diff(&a, &b),
        Vec::<String>::new(),
        "two runs of the same spec+seed must render identically"
    );
    // A different seed must actually change the uniform workload's stream.
    let mut reseeded = tiny_spec();
    reseeded.seed += 1;
    reseeded.workload = WorkloadKind::UniformRead;
    let mut original = tiny_spec();
    original.workload = WorkloadKind::UniformRead;
    let a = report(&run_specs(&[original]));
    let c = report(&run_specs(&[reseeded]));
    assert!(!equivalence_diff(&a, &c).is_empty(), "seed must matter");
}

#[test]
fn sonuma_runs_expose_pipeline_counters() {
    let mut spec = tiny_spec();
    spec.backend = BackendSel::One(BackendKind::Sonuma);
    spec.workload = WorkloadKind::NeighborRead;
    let result = run_spec(&spec);
    assert_eq!(result.runs.len(), 1);
    let run = &result.runs[0];
    assert_eq!(run.ops, spec.ops_per_node * spec.nodes as u64);
    assert_eq!(run.errors, 0);
    assert_eq!(run.per_node.len(), spec.nodes);
    let total = run.pipeline_total.expect("soNUMA attaches pipeline stats");
    assert_eq!(total.rgp_requests, run.ops);
    assert_eq!(total.rcp_completions, run.ops);
    assert!(run.events > 0, "typed engine events must be counted");
    assert!(run.sim_time.as_ps() > 0);
}

#[test]
fn smoke_and_rack_specs_validate() {
    let smoke: Vec<&str> = canned_names().filter(|n| n.starts_with("smoke-")).collect();
    assert_eq!(smoke.len(), 3, "--smoke selects the three smoke-* names");
    for name in smoke {
        canned(name).expect("smoke specs must be valid");
    }
    let rack = canned("rack512-neighbor").expect("rack512 must be valid");
    assert_eq!(rack.nodes, 512);
    // An unknown name is an error that lists the known ones.
    let err = canned("rack513").expect_err("no such canned spec");
    assert!(
        err.contains("rack513") && canned_names().all(|n| err.contains(n)),
        "{err}"
    );
}

#[test]
fn shipped_spec_files_parse() {
    // `bench/specs/` and the canned table must name the same scenarios:
    // the table embeds the files, so a file nobody registered, or a
    // registered name its file does not carry, is drift.
    let specs_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/specs");
    let mut shipped = Vec::new();
    for entry in std::fs::read_dir(specs_dir).expect("bench/specs exists") {
        let path = entry.unwrap().path();
        if path.file_name().and_then(|f| f.to_str()) == Some("example-torus.toml") {
            continue; // the one shipped spec that is not canned
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let spec =
            ScenarioSpec::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        shipped.push(spec.name);
    }
    shipped.sort();
    let mut names: Vec<&str> = canned_names().collect();
    names.sort_unstable();
    assert_eq!(shipped, names, "bench/specs and the canned table disagree");
    // Every embedded text parses and validates under its table name
    // (`canned` checks both); `toml_roundtrip_preserves_every_field`
    // round-trips the same list.
    assert_eq!(canned_specs().len(), names.len());
}

#[test]
fn threaded_report_is_equivalent_to_serial() {
    // The report-level version of the machine crate's bit-equivalence
    // tests: a sharded run's BENCH.json must match the serial run's
    // outside wall-clock and shard-metadata fields — exactly what the CI
    // parallel-equivalence step asserts on the rack scenarios.
    let mut serial = tiny_spec();
    serial.backend = BackendSel::One(BackendKind::Sonuma);
    let mut threaded = serial.clone();
    threaded.threads = 3;
    let a = report(&run_specs(&[serial]));
    let b = report(&run_specs(&[threaded]));
    assert_eq!(equivalence_diff(&a, &b), Vec::<String>::new());
    // The differ is not vacuous: a changed simulated field must surface,
    // and so must the one `sharding` member that is a function of the
    // spec alone — two reports that differ only in `sharding.epochs` are
    // not equivalent.
    fn bump(value: &mut Json, field: &str) {
        match value {
            Json::Obj(members) => {
                for (key, v) in members.iter_mut() {
                    match &mut *v {
                        Json::Num(x) if key == field => *x += 1.0,
                        _ => bump(v, field),
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(|v| bump(v, field)),
            _ => {}
        }
    }
    for field in ["ops", "epochs"] {
        let mut tweaked = b.clone();
        bump(&mut tweaked, field);
        let diff = equivalence_diff(&b, &tweaked);
        assert!(
            !diff.is_empty() && diff.iter().all(|d| d.contains(field)),
            "{field}: {diff:?}"
        );
    }
}

#[test]
fn fabric_link_sections_are_deterministic_under_dense_layout() {
    // A multi-hop torus with shared intermediate links is the layout most
    // sensitive to link-state ordering: run the same spec twice and
    // require the rendered `fabric` sections (per-link bytes/packets/
    // stalls, hottest-first) to be byte-identical.
    let spec = ScenarioSpec {
        name: "torus-det".into(),
        nodes: 16,
        topology: TopologySpec::Torus2d(4, 4),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::UniformRead,
        op_bytes: 256,
        ops_per_node: 32,
        window: 8,
        seed: 21,
        ..ScenarioSpec::default()
    };
    let render_fabric = || {
        let result = run_spec(&spec);
        let run = &result.runs[0];
        let fabric = run.fabric.as_ref().expect("soNUMA attaches fabric stats");
        assert!(fabric.links_observed > 0);
        let text = report(std::slice::from_ref(&result)).render();
        let start = text.find("\"fabric\"").expect("fabric section rendered");
        let end = text[start..]
            .find("\"pipeline_total\"")
            .expect("fabric precedes pipeline_total");
        text[start..start + end].to_string()
    };
    let a = render_fabric();
    let b = render_fabric();
    assert!(a.contains("hot_links"));
    assert_eq!(a, b, "fabric.links section must be byte-stable across runs");
}

#[test]
fn mid_scale_neighbor_scenario_completes() {
    // A 64-node slice of the rack512 shape keeps test time bounded while
    // exercising the same code path the 512-node acceptance run uses.
    let spec = ScenarioSpec {
        name: "rack64".into(),
        nodes: 64,
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::NeighborRead,
        op_bytes: 512,
        ops_per_node: 8,
        window: 4,
        segment_bytes: 1 << 18,
        seed: 99,
        ..ScenarioSpec::default()
    };
    let result = run_spec(&spec);
    let run = &result.runs[0];
    assert_eq!(run.ops, 64 * 8);
    assert_eq!(run.errors, 0);
    assert_eq!(run.per_node.len(), 64);
}

/// A topology with the node count it arranges.
fn topology() -> impl Strategy<Value = (TopologySpec, usize)> {
    (0usize..3, 2usize..=16, 2usize..5, 2usize..5, 2usize..4).prop_map(|(shape, n, a, b, c)| {
        match shape {
            0 => (TopologySpec::Crossbar, n),
            1 => (TopologySpec::Torus2d(a, b), a * b),
            _ => (TopologySpec::Torus3d(a, b, c), a * b * c),
        }
    })
}

/// Spec names, some with a character a spec file cannot hold; a name
/// `validate` rejects falls back to a plain one.
fn spec_name() -> impl Strategy<Value = String> {
    let names = [
        "plain",
        "a\"b",
        "tab\tname",
        "back\\slash",
        "ünï cödé",
        "hash # mark",
        "it's",
    ];
    (0..names.len()).prop_map(move |i| {
        let probe = ScenarioSpec {
            name: names[i].into(),
            nodes: 2,
            ..ScenarioSpec::default()
        };
        match probe.validate() {
            Ok(()) => names[i].into(),
            Err(_) => "filtered".into(),
        }
    })
}

/// A `[faults]` section that injects something (an empty one renders as
/// no section, so it would not round-trip as `Some`).
fn faults() -> impl Strategy<Value = FaultSpec> {
    let counts = (1usize..4, 0usize..3, 0usize..2, 0u32..=64, 0usize..=64);
    let times = (any::<f64>(), any::<f64>(), any::<bool>(), any::<f64>());
    (0u64..=1 << 53, counts, times).prop_map(|(seed, counts, times)| {
        let (degraded_links, killed_links, crashed_nodes, max_retries, credit_loss) = counts;
        let (p, t, revives, d) = times;
        FaultSpec {
            seed,
            degraded_links,
            drop_prob: p,
            corrupt_prob: 1.0 - p,
            derate: 1.0 + 63.0 * d,
            credit_loss,
            killed_links,
            kill_at_us: 1.0 + 50.0 * t,
            revive_at_us: if revives { 60.0 + t } else { 0.0 },
            crashed_nodes,
            crash_at_us: 0.5 + 40.0 * d,
            restart_at_us: 41.0 + 40.0 * t,
            timeout_us: 0.25 + 100.0 * p,
            max_retries,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid spec survives the TOML round trip exactly and echoes the
    /// same JSON after it: each optional section present or absent, every
    /// topology shape, and every platform, backend, workload, scheduler,
    /// weight mode and arrival process.
    #[test]
    fn whole_spec_roundtrips_through_toml(
        (topology, nodes) in topology(),
        keywords in (0usize..2, 0usize..4, 0usize..3, 0usize..3, 0usize..2, 0usize..3),
        name in spec_name(),
        closed in (any::<f64>(), 1u64..=8, 1u64..200, 1usize..=16, 0u64..=1 << 53, 20u32..=22),
        execution in (1usize..=64, 0usize..3),
        present in (any::<bool>(), any::<bool>(), any::<bool>()),
        open in (1usize..4, any::<f64>(), any::<f64>(), 1u32..=1024),
        faults in proptest::option::of(faults()),
        kv in (1u64..64, 6u32..10, 0u32..3, any::<f64>(), 0u64..=1 << 53),
    ) {
        let (platform, backend, workload, scheduler, weights, arrival) = keywords;
        let (read_fraction, op_lines, ops_per_node, window, seed, segment_pow) = closed;
        let (threads, qp) = execution;
        let (tenants, trace, kv_on) = present;
        let (per_node, x, y, burst) = open;
        let tenancy = tenants.then_some(TenancySpec {
            tenants: nodes * per_node,
            scheduler: [SchedPolicy::RoundRobin, SchedPolicy::Wdrr, SchedPolicy::StrictPriority]
                [scheduler],
            weights: [WeightMode::Uniform, WeightMode::Tiered][weights],
        });
        let traffic = tenants.then_some(TrafficSpec {
            arrival: [ArrivalKind::Poisson, ArrivalKind::Uniform, ArrivalKind::Bursty][arrival],
            rate_per_tenant: 1.0 + 1e6 * x,
            duration_us: 0.5 + 100.0 * y,
            zipf_addr: 4.0 * x,
            zipf_dst: 4.0 * y,
            burst,
        });
        let (keys, min_pow, max_extra, z, kv_seed) = kv;
        let spec = ScenarioSpec {
            name: format!("{name}-{seed}"),
            nodes,
            topology,
            platform: [PlatformSpec::Hardware, PlatformSpec::Dev][platform],
            backend: [
                BackendSel::One(BackendKind::Sonuma),
                BackendSel::One(BackendKind::Rdma),
                BackendSel::One(BackendKind::Tcp),
                BackendSel::All,
            ][backend],
            workload: [WorkloadKind::UniformRead, WorkloadKind::NeighborRead, WorkloadKind::Mixed]
                [workload],
            read_fraction,
            op_bytes: 64 * op_lines,
            ops_per_node,
            window,
            segment_bytes: 1 << segment_pow,
            seed,
            threads,
            qp_entries: [32, 64, 4096][qp],
            tenancy,
            traffic,
            faults,
            trace: trace.then_some(TraceSpec {
                interval_us: 0.001 + 10.0 * y,
                link_capacity: 1 + (x * 4096.0) as usize,
                ..TraceSpec::default()
            }),
            kv: (kv_on && tenants).then_some(KvSpec {
                keys,
                value_min: 1 << min_pow,
                value_max: 1 << (min_pow + max_extra),
                zipf_key: 4.0 * z,
                get_fraction: 1.0 - z,
                repeat_prob: z,
                seed: kv_seed,
            }),
            ..ScenarioSpec::default()
        };
        spec.validate().expect("generated spec is valid");
        let back = ScenarioSpec::from_toml(&spec.to_toml()).expect("round trip parses");
        prop_assert_eq!(back.to_json().render(), spec.to_json().render());
        prop_assert_eq!(back, spec);
    }
}
