//! Multi-tenant open-loop harness coverage: `[tenants]`/`[traffic]` spec
//! serde, fairness and SLO-class separation on reduced-scale clones of
//! the rack64 acceptance scenarios, report schema, and determinism.

use sonuma_bench::scenario::{
    canned, equivalence_diff, report, run_spec, run_specs, validate_report, BackendKind,
    BackendSel, ScenarioSpec, TenancySpec, TrafficSpec, WeightMode,
};
use sonuma_bench::trafficgen::{jain_index, ArrivalKind};
use sonuma_core::{SchedPolicy, SloClass};

/// A 16-node, 128-tenant slice of the rack64-tenants shape: same code
/// path, bounded debug-build runtime.
fn small_tenancy_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "tenancy-small".into(),
        nodes: 16,
        backend: BackendSel::One(BackendKind::Sonuma),
        read_fraction: 0.8,
        op_bytes: 64,
        segment_bytes: 1 << 16,
        seed: 31,
        tenancy: Some(TenancySpec {
            tenants: 128,
            scheduler: SchedPolicy::Wdrr,
            weights: WeightMode::Uniform,
        }),
        traffic: Some(TrafficSpec {
            arrival: ArrivalKind::Poisson,
            rate_per_tenant: 150_000.0,
            duration_us: 100.0,
            zipf_addr: 0.9,
            zipf_dst: 0.4,
            burst: 8,
        }),
        ..ScenarioSpec::default()
    }
}

#[test]
fn tenancy_sections_roundtrip_through_toml() {
    for spec in [
        small_tenancy_spec(),
        canned("rack64-tenants").unwrap(),
        canned("rack64-tenants-strict").unwrap(),
    ] {
        let text = spec.to_toml();
        assert!(text.contains("[tenants]") && text.contains("[traffic]"));
        let back = ScenarioSpec::from_toml(&text).expect("tenancy specs parse");
        assert_eq!(back, spec, "round-trip drifted for {}", spec.name);
    }
}

#[test]
fn malformed_tenancy_specs_are_rejected() {
    let base = "name = \"x\"\nnodes = 2\n";
    // A [tenants] section without [traffic] (and vice versa).
    assert!(ScenarioSpec::from_toml(&format!("{base}[tenants]\ncount = 4\n")).is_err());
    assert!(
        ScenarioSpec::from_toml(&format!("{base}[traffic]\nrate_per_tenant = 1000\n")).is_err()
    );
    // Unknown section / key / scheduler.
    assert!(ScenarioSpec::from_toml(&format!("{base}[quotas]\nx = 1\n")).is_err());
    assert!(ScenarioSpec::from_toml(&format!(
        "{base}[tenants]\ncount = 4\nbogus = 1\n[traffic]\n"
    ))
    .is_err());
    assert!(ScenarioSpec::from_toml(&format!(
        "{base}[tenants]\ncount = 4\nscheduler = \"fifo\"\n[traffic]\n"
    ))
    .is_err());
    // Fewer tenants than nodes.
    assert!(ScenarioSpec::from_toml(&format!(
        "{base}[tenants]\ncount = 1\n[traffic]\nrate_per_tenant = 1000\n"
    ))
    .is_err());
    // Out-of-range traffic parameters.
    for bad in [
        "rate_per_tenant = 0",
        "duration_us = 0",
        "zipf_addr = 9",
        "burst = 0",
    ] {
        let text = format!("{base}[tenants]\ncount = 4\n[traffic]\n{bad}\n");
        assert!(ScenarioSpec::from_toml(&text).is_err(), "accepted: {bad}");
    }
}

#[test]
fn wdrr_uniform_weights_are_fair_and_deterministic() {
    let spec = small_tenancy_spec();
    let result = run_spec(&spec);
    let run = &result.runs[0];
    assert_eq!(run.tenants.len(), 128);
    assert_eq!(run.offered_ops, run.tenants.iter().map(|t| t.offered).sum());
    assert!(run.offered_ops > 0);
    assert_eq!(
        run.ops, run.offered_ops,
        "a feasible offered load must be fully delivered"
    );
    let delivered: Vec<f64> = run
        .tenants
        .iter()
        .filter(|t| t.offered > 0)
        .map(|t| t.ops as f64 / t.offered as f64)
        .collect();
    let jain = jain_index(&delivered);
    assert!(
        jain >= 0.95,
        "WDRR with uniform weights must be fair: jain = {jain}"
    );
    // Tenancy runs carry fabric + pipeline observability.
    let fabric = run.fabric.as_ref().expect("soNUMA attaches fabric stats");
    assert!(fabric.bytes > 0 && fabric.packets > 0);
    assert!(fabric.links_observed > 0);
    assert!(!fabric.hot_links.is_empty());
    assert!(
        fabric
            .hot_links
            .windows(2)
            .all(|w| w[0].bytes >= w[1].bytes),
        "hot links are sorted by bytes"
    );
    let total = run.pipeline_total.expect("pipeline stats attached");
    assert_eq!(total.rcp_completions, run.ops);

    // Determinism: the full report is identical modulo wall/shard fields.
    let a = report(&run_specs(std::slice::from_ref(&spec)));
    let b = report(&run_specs(&[spec]));
    assert_eq!(equivalence_diff(&a, &b), Vec::<String>::new());
}

#[test]
fn strict_priority_separates_slo_classes() {
    let mut spec = small_tenancy_spec();
    spec.name = "tenancy-small-strict".into();
    spec.tenancy = Some(TenancySpec {
        tenants: 128,
        scheduler: SchedPolicy::StrictPriority,
        weights: WeightMode::Tiered,
    });
    spec.traffic = Some(TrafficSpec {
        arrival: ArrivalKind::Bursty,
        rate_per_tenant: 150_000.0,
        duration_us: 100.0,
        zipf_addr: 0.9,
        zipf_dst: 0.4,
        burst: 16,
    });
    let result = run_spec(&spec);
    let run = &result.runs[0];
    let p99_of = |class: SloClass| {
        let mut hist = sonuma_sim::stats::LatencyHistogram::new();
        for t in run.tenants.iter().filter(|t| t.class == class) {
            hist.merge_from(&t.hist);
        }
        assert!(hist.count() > 0, "class {class:?} saw traffic");
        hist.percentile(0.99)
    };
    let (gold, bronze) = (p99_of(SloClass::Gold), p99_of(SloClass::Bronze));
    assert!(
        gold < bronze,
        "strict priority must separate classes: gold p99 {} ns, bronze p99 {} ns",
        gold.as_ns_f64(),
        bronze.as_ns_f64()
    );
    // Starvation pressure is observable while gold holds the pipeline.
    let total = run.pipeline_total.expect("pipeline stats attached");
    assert!(total.rgp_sched_skips > 0, "skips counter must fire");
    // Work conserving: nothing dropped even for bronze.
    assert_eq!(run.ops, run.offered_ops);
}

#[test]
fn ops_conserved_across_schedulers_on_the_same_seed() {
    let totals: Vec<(u64, u64)> = [
        SchedPolicy::RoundRobin,
        SchedPolicy::Wdrr,
        SchedPolicy::StrictPriority,
    ]
    .into_iter()
    .map(|policy| {
        let mut spec = small_tenancy_spec();
        spec.tenancy.as_mut().unwrap().scheduler = policy;
        let run = &run_spec(&spec).runs[0];
        (run.offered_ops, run.ops)
    })
    .collect();
    // The arrival streams are seed-determined, so offered loads agree
    // exactly; every policy must deliver all of them.
    assert_eq!(totals[0], totals[1]);
    assert_eq!(totals[0], totals[2]);
    assert_eq!(totals[0].0, totals[0].1);
}

#[test]
fn tenancy_reports_validate_and_expose_per_tenant_json() {
    let mut spec = small_tenancy_spec();
    spec.tenancy.as_mut().unwrap().tenants = 32;
    spec.traffic.as_mut().unwrap().duration_us = 30.0;
    let doc = report(&run_specs(&[spec]));
    validate_report(&doc).expect("tenancy report satisfies the schema");
    let run = &doc.get("scenarios").and_then(|s| s.as_arr()).unwrap()[0]
        .get("runs")
        .and_then(|r| r.as_arr())
        .unwrap()[0];
    let pt = run.get("per_tenant").expect("per_tenant section present");
    assert_eq!(pt.u64_of("tenants"), Some(32));
    let jain = pt.f64_of("jain_fairness").unwrap();
    assert!((0.0..=1.0).contains(&jain));
    let detail = pt.get("detail").and_then(|d| d.as_arr()).unwrap();
    assert_eq!(detail.len(), 32);
    for row in detail {
        for key in [
            "tenant",
            "node",
            "weight",
            "offered_ops",
            "ops",
            "lat_p999_ns",
        ] {
            assert!(row.get(key).is_some(), "tenant row missing {key}");
        }
    }
    assert!(run.get("fabric").is_some(), "fabric section present");
    // The modeled baselines also report per-tenant outcomes (shared
    // queue, no QoS) so cross-transport comparisons stay apples-to-apples.
    let mut rdma = small_tenancy_spec();
    rdma.name = "tenancy-rdma".into();
    rdma.backend = BackendSel::One(BackendKind::Rdma);
    rdma.tenancy.as_mut().unwrap().tenants = 32;
    rdma.traffic.as_mut().unwrap().duration_us = 30.0;
    let run = &run_spec(&rdma).runs[0];
    assert_eq!(run.tenants.len(), 32);
    assert!(run.fabric.is_none(), "modeled backends have no fabric");
}
