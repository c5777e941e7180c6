//! Fault-injection coverage at the scenario-harness level: the `[faults]`
//! spec section round-trips through TOML, a zero-count section is
//! indistinguishable from no section (the fault-free byte-identity
//! contract), faulty runs report a schema-valid `faults` section, and the
//! canned fault plans are pure functions of spec and topology.

use proptest::prelude::*;

use sonuma_bench::scenario::{
    canned, equivalence_diff, report, run_specs, validate_report, BackendKind, BackendSel,
    FaultSpec, ScenarioSpec, TenancySpec, TopologySpec, TrafficSpec, WorkloadKind,
};

/// A fast open-loop spec on the soNUMA backend whose run spans its fault
/// window: one link killed at 5 us (reviving at 15 us) and one degraded,
/// over a 30 us horizon.
fn faulty_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "tiny-faults".into(),
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
            degraded_links: 2,
            drop_prob: 0.2,
            corrupt_prob: 0.1,
            killed_links: 1,
            kill_at_us: 5.0,
            revive_at_us: 15.0,
            ..FaultSpec::default()
        }),
        ..ScenarioSpec::default()
    }
}

#[test]
fn zero_count_fault_section_is_invisible() {
    // A [faults] section that injects nothing must leave no trace: no
    // section in the rendered TOML, no plan installed, and a report
    // byte-identical (modulo wall clock) to a spec with no section at
    // all — the fault-free fast-path contract.
    let mut with_zeros = faulty_spec();
    with_zeros.faults = Some(FaultSpec::default());
    assert!(
        !with_zeros.to_toml().contains("[faults]"),
        "zero-count section must not render"
    );
    let mut without = faulty_spec();
    without.faults = None;
    assert_eq!(with_zeros.to_toml(), without.to_toml());
    let a = report(&run_specs(&[with_zeros]));
    let b = report(&run_specs(&[without]));
    assert_eq!(
        equivalence_diff(&a, &b),
        Vec::<String>::new(),
        "a zero-count [faults] section must not perturb the simulation"
    );
    // And no `faults` section appears in the report.
    assert!(!a.render().contains("\"faults\""));
}

#[test]
fn faulty_run_reports_injection_and_recovery() {
    let results = run_specs(&[faulty_spec()]);
    let doc = report(&results);
    validate_report(&doc).expect("faulty report satisfies the schema");
    let run = &results[0].runs[0];
    let f = run.faults.as_ref().expect("faults section attached");
    assert_eq!(f.links_killed, 1);
    assert_eq!(f.links_degraded, 2);
    assert_eq!(f.onset_us, Some(5.0));
    assert!(f.rerouted > 0, "the killed link must divert traffic: {f:?}");
    assert!(
        f.dropped > 0,
        "a 20% lossy link over 30 us must drop: {f:?}"
    );
    assert!(
        f.rgp_timeouts > 0 && f.rgp_retransmits > 0,
        "lost lines must trip the retransmission path: {f:?}"
    );
    assert!(f.goodput_fraction > 0.9, "goodput {}", f.goodput_fraction);
    // Reports stay partition-invariant under faults (the CI diff-runs
    // lane asserts the same at rack scale).
    let mut threaded = faulty_spec();
    threaded.threads = 4;
    let b = report(&run_specs(&[threaded]));
    assert_eq!(equivalence_diff(&doc, &b), Vec::<String>::new());
}

#[test]
fn canned_fault_specs_validate_and_instantiate() {
    for name in ["rack512-linkflap", "rack1024-nodekill"] {
        let spec = canned(name).unwrap();
        spec.validate().expect("canned fault specs are valid");
        let f = spec.faults.expect("fault section present");
        let topology = match spec.topology {
            TopologySpec::Torus3d(x, y, z) => sonuma_fabric::Topology::torus3d(x, y, z),
            _ => panic!("fault racks are tori"),
        };
        let plan = f.instantiate(&topology).expect("non-empty plan");
        assert_eq!(
            plan.links.len(),
            f.degraded_links + f.killed_links,
            "every requested link fault lands on a distinct link"
        );
        assert_eq!(plan.nodes.len(), f.crashed_nodes);
        // Instantiation is a pure function of (spec, topology): the same
        // inputs must yield the same plan — this is what makes the fault
        // schedule identical on every shard of every partition.
        assert_eq!(f.instantiate(&topology), Some(plan));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any in-range `[faults]` section survives the TOML round trip
    /// exactly — seeds, probabilities, and timing knobs included.
    #[test]
    fn fault_spec_roundtrips_through_toml(
        seed in 0u64..u64::MAX,
        degraded in 1usize..16,
        drop_milli in 0u32..1000,
        corrupt_milli in 0u32..1000,
        derate_tenths in 10u32..640,
        credit_loss in 0usize..64,
        killed in 0usize..8,
        kill_at in 1u32..80,
        crashed in 0usize..4,
        crash_at in 1u32..40,
        timeout_us in 1u32..100,
        max_retries in 0u32..64,
    ) {
        let faults = FaultSpec {
            seed,
            degraded_links: degraded,
            drop_prob: drop_milli as f64 / 1000.0,
            corrupt_prob: corrupt_milli as f64 / 1000.0,
            derate: derate_tenths as f64 / 10.0,
            credit_loss,
            killed_links: killed,
            kill_at_us: kill_at as f64,
            revive_at_us: (kill_at + 10) as f64,
            crashed_nodes: crashed,
            crash_at_us: crash_at as f64,
            restart_at_us: (crash_at + 10) as f64,
            timeout_us: timeout_us as f64,
            max_retries,
        };
        let spec = ScenarioSpec {
            name: "prop-faults".into(),
            nodes: 8,
            topology: TopologySpec::Torus2d(4, 2),
            faults: Some(faults),
            ..ScenarioSpec::default()
        };
        spec.validate().expect("generated spec in range");
        let back = ScenarioSpec::from_toml(&spec.to_toml()).expect("round trip parses");
        prop_assert_eq!(back, spec);
    }
}
