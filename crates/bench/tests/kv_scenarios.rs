//! KV-cache service coverage at the scenario-harness level: the `[kv]`
//! spec section round-trips through TOML, a zero-key section is
//! indistinguishable from no section, the directory plane places every
//! key inside the context segment, KV runs are deterministic across
//! repeats and thread counts with verified GET payloads, the Zipf
//! scenario separates its SLO classes, and a report counting a corrupt
//! GET fails validation.

use proptest::prelude::*;

use sonuma_bench::json::Json;
use sonuma_bench::scenario::{
    canned, equivalence_diff, report, run_specs, validate_report, BackendKind, BackendSel,
    FaultSpec, KvSpec, ScenarioSpec, TenancySpec, TopologySpec, TrafficSpec, WeightMode,
    WorkloadKind,
};
use sonuma_bench::trafficgen::ArrivalKind;
use sonuma_core::SchedPolicy;

/// A fast KV spec on the soNUMA backend: 8 nodes, 128 small values
/// (4–16 lines each), 16 open-loop tenants at a feasible rate.
fn tiny_kv_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "tiny-kv".into(),
        nodes: 8,
        topology: TopologySpec::Torus2d(4, 2),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::Mixed,
        read_fraction: 0.9,
        op_bytes: 256,
        segment_bytes: 1 << 16,
        seed: 41,
        tenancy: Some(TenancySpec {
            tenants: 16,
            ..TenancySpec::default()
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Poisson,
            rate_per_tenant: 500_000.0,
            duration_us: 20.0,
            ..TrafficSpec::default()
        }),
        kv: Some(KvSpec {
            keys: 128,
            value_min: 256,
            value_max: 1024,
            zipf_key: 0.99,
            get_fraction: 0.85,
            repeat_prob: 0.25,
            seed: 4100,
        }),
        ..ScenarioSpec::default()
    }
}

/// The Zipf scenario's shape at test scale: strict-priority tiered
/// tenants driving phase-aligned bursts of multi-line GETs over hot
/// keys — the configuration whose SLO rows must separate.
fn zipf_kv_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "tiny-kv-zipf".into(),
        nodes: 64,
        topology: TopologySpec::Torus3d(4, 4, 4),
        backend: BackendSel::One(BackendKind::Sonuma),
        workload: WorkloadKind::Mixed,
        read_fraction: 0.95,
        op_bytes: 4096,
        segment_bytes: 1 << 19,
        seed: 42,
        tenancy: Some(TenancySpec {
            tenants: 512,
            scheduler: SchedPolicy::StrictPriority,
            weights: WeightMode::Tiered,
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Bursty,
            rate_per_tenant: 40_000.0,
            duration_us: 40.0,
            burst: 16,
            ..TrafficSpec::default()
        }),
        kv: Some(KvSpec {
            keys: 512,
            value_min: 1024,
            value_max: 4096,
            zipf_key: 1.2,
            get_fraction: 0.95,
            repeat_prob: 0.4,
            seed: 4200,
        }),
        ..ScenarioSpec::default()
    }
}

#[test]
fn zero_key_kv_section_is_invisible() {
    // A [kv] section with zero keys must leave no trace: no section in
    // the rendered TOML and a report byte-identical (modulo wall clock)
    // to a spec with no section at all — the v8-report compatibility
    // contract of schema v9.
    let mut with_zeros = tiny_kv_spec();
    with_zeros.kv = Some(KvSpec {
        keys: 0,
        ..KvSpec::default()
    });
    assert!(
        !with_zeros.to_toml().contains("[kv]"),
        "zero-key section must not render"
    );
    let mut without = tiny_kv_spec();
    without.kv = None;
    assert_eq!(with_zeros.to_toml(), without.to_toml());
    let a = report(&run_specs(&[with_zeros]));
    let b = report(&run_specs(&[without]));
    assert_eq!(
        equivalence_diff(&a, &b),
        Vec::<String>::new(),
        "a zero-key [kv] section must not perturb the simulation"
    );
    assert!(!a.render().contains("\"kv\""));
}

#[test]
fn kv_spec_validation_rejects_bad_shapes() {
    // [kv] without the open-loop sections it is driven by.
    let mut lonely = tiny_kv_spec();
    lonely.tenancy = None;
    lonely.traffic = None;
    assert!(lonely.validate().unwrap_err().to_string().contains("[kv]"));
    // Non-power-of-two and sub-line value sizes.
    for (min, max) in [(100, 1024), (256, 768), (32, 1024), (1024, 256)] {
        let mut bad = tiny_kv_spec();
        let kv = bad.kv.as_mut().unwrap();
        kv.value_min = min;
        kv.value_max = max;
        assert!(bad.validate().is_err(), "value range {min}..{max} accepted");
    }
    // A store that cannot fit the context segment is an error up front,
    // not a mid-run panic.
    let mut oversized = tiny_kv_spec();
    oversized.kv.as_mut().unwrap().keys = 4096;
    assert!(oversized
        .validate()
        .unwrap_err()
        .to_string()
        .contains("overflow the context segment"));
}

#[test]
fn directory_places_every_key_inside_the_segment() {
    for spec in [
        canned("rack512-kv").unwrap(),
        canned("rack1024-kv-zipf").unwrap(),
        tiny_kv_spec(),
    ] {
        let kv = spec.kv.as_ref().expect("kv section present");
        let dir = kv
            .directory(spec.nodes, spec.segment_bytes)
            .expect("canned KV specs fit their segments");
        assert_eq!(dir.keys(), kv.keys);
        for key in 0..dir.keys() {
            let p = dir.lookup(key);
            assert!(p.node < spec.nodes, "key {key} maps to node {}", p.node);
            assert!(p.len.is_power_of_two());
            assert!(p.len >= kv.value_min && p.len <= kv.value_max);
            assert!(
                p.offset + p.len <= spec.segment_bytes,
                "key {key} extends past the segment: {p:?}"
            );
        }
    }
}

#[test]
fn kv_runs_are_deterministic_and_verified() {
    let results = run_specs(&[tiny_kv_spec()]);
    let doc = report(&results);
    validate_report(&doc).expect("kv report satisfies the schema");
    let run = &results[0].runs[0];
    let kv = run.kv.as_ref().expect("kv section attached");
    assert!(kv.gets > 0 && kv.puts > 0, "mixed GET/PUT traffic: {kv:?}");
    assert_eq!(kv.corrupt, 0, "every GET payload verifies");
    assert!(
        kv.get_lines >= kv.gets * (tiny_kv_spec().kv.unwrap().value_min / 64),
        "multi-line GETs must unroll into line bursts"
    );
    // Same spec, fresh run: byte-identical report.
    let again = report(&run_specs(&[tiny_kv_spec()]));
    assert_eq!(equivalence_diff(&doc, &again), Vec::<String>::new());
    // Same spec across thread counts: the determinism contract the CI
    // diff-runs step asserts at rack scale.
    let mut threaded = tiny_kv_spec();
    threaded.threads = 4;
    let b = report(&run_specs(&[threaded]));
    assert_eq!(equivalence_diff(&doc, &b), Vec::<String>::new());
}

#[test]
fn zipf_scenario_separates_slo_classes() {
    let results = run_specs(&[zipf_kv_spec()]);
    let doc = report(&results);
    let kv = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .and_then(|s| s[0].get("runs"))
        .and_then(Json::as_arr)
        .and_then(|r| r[0].get("kv"))
        .cloned()
        .expect("kv section in report");
    let p99 = |class: &str| {
        kv.get("slo")
            .and_then(Json::as_arr)
            .and_then(|rows| {
                rows.iter()
                    .find(|r| r.str_of("class") == Some(class))
                    .and_then(|r| r.f64_of("lat_p99_ns"))
            })
            .unwrap_or_else(|| panic!("slo row for {class}"))
    };
    let (gold, bronze) = (p99("gold"), p99("bronze"));
    assert!(
        gold < bronze,
        "strict priority with tiered weights must keep gold p99 ({gold} ns) \
         below bronze p99 ({bronze} ns)"
    );
    assert_eq!(kv.f64_of("corrupt"), Some(0.0), "hot-key GETs still verify");
}

#[test]
fn a_corrupt_get_fails_validation() {
    // Every GET payload is verified on completion, so a report counting a
    // corrupt one describes a broken run: `validate_report` refuses it.
    let doc = report(&run_specs(&[tiny_kv_spec()]));
    validate_report(&doc).expect("a clean run validates");
    let torn = Json::parse(&doc.render().replace("\"corrupt\": 0", "\"corrupt\": 3"))
        .expect("patched report parses");
    let err = validate_report(&torn).expect_err("a corrupt GET must fail validation");
    assert!(err.contains("corrupt"), "{err}");
}

#[test]
fn kv_run_under_faults_fills_the_recovery_bins() {
    // A [kv] spec with a [faults] section goes through the same loop as
    // any other tenant run, so its 1 us goodput bins and the recovery
    // metrics read off them must be filled. (The KV copy of the drive
    // loop never recorded them: empty bins, a zero pre-fault rate and
    // `recovered = false` whatever the run did.)
    let mut spec = zipf_kv_spec();
    spec.faults = Some(FaultSpec {
        killed_links: 2,
        kill_at_us: 30.0,
        revive_at_us: 60.0,
        ..FaultSpec::default()
    });
    let results = run_specs(&[spec]);
    let run = &results[0].runs[0];
    let f = run.faults.as_ref().expect("faults section attached");
    assert!(
        f.rerouted > 0,
        "the killed links must divert traffic: {f:?}"
    );
    assert_eq!(
        run.ok_bins_1us.iter().sum::<u64>(),
        run.ops - run.errors,
        "every successful completion lands in a 1 us bin"
    );
    assert!(f.prefault_ops_per_us > 0.0, "{f:?}");
    assert_eq!(run.kv.as_ref().expect("kv section attached").corrupt, 0);
}

#[test]
fn kv_runs_cover_all_three_backends() {
    let mut spec = tiny_kv_spec();
    spec.backend = BackendSel::All;
    let results = run_specs(&[spec]);
    assert_eq!(results[0].runs.len(), 3);
    for run in &results[0].runs {
        let kv = run
            .kv
            .as_ref()
            .unwrap_or_else(|| panic!("backend {} lost its kv section", run.backend));
        assert_eq!(kv.corrupt, 0, "{}: GETs must verify", run.backend);
        assert!(kv.gets > 0, "{}: no GETs completed", run.backend);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any in-range `[kv]` section survives the TOML round trip exactly.
    #[test]
    fn kv_spec_roundtrips_through_toml(
        keys in 1u64..512,
        min_pow in 6u32..12,
        max_extra in 0u32..3,
        zipf_centi in 0u32..200,
        get_centi in 1u32..=100,
        repeat_centi in 0u32..100,
        seed in 0u64..=1 << 53,
    ) {
        let kv = KvSpec {
            keys,
            value_min: 1 << min_pow,
            value_max: 1 << (min_pow + max_extra),
            zipf_key: zipf_centi as f64 / 100.0,
            get_fraction: get_centi as f64 / 100.0,
            repeat_prob: repeat_centi as f64 / 100.0,
            seed,
        };
        let spec = ScenarioSpec {
            name: "prop-kv".into(),
            nodes: 8,
            topology: TopologySpec::Torus2d(4, 2),
            segment_bytes: 1 << 22,
            tenancy: Some(TenancySpec {
                tenants: 8,
                ..TenancySpec::default()
            }),
            traffic: Some(TrafficSpec::default()),
            kv: Some(kv),
            ..ScenarioSpec::default()
        };
        spec.validate().expect("generated spec in range");
        let back = ScenarioSpec::from_toml(&spec.to_toml()).expect("round trip parses");
        prop_assert_eq!(back, spec);
    }
}
