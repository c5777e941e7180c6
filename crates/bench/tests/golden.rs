//! Driver-identity oracle: the rendered report of one small spec per
//! request source (closed window, tenant arrivals, tenant arrivals with
//! the KV plane) must keep the 64-bit digest pinned here from the commit
//! before the three drive loops were folded into one. Only `wall_*`
//! members are stripped, so every simulated metric, the `sharding`
//! metadata at one thread and the report layout are all covered. A
//! fourth spec carries every optional report section at once and pins
//! its rendered, slimmed and `diff-runs` forms to the commit before the
//! per-class and latency row renderers were folded into one each.
//! The rendered and slimmed digests were re-pinned once since, when a
//! cache way shrank to 4 bytes: `sharding.resident_bytes` was the only
//! line of any of the six reports that moved.

use sonuma_bench::json::Json;
use sonuma_bench::scenario::{
    canned, equivalence_diff, report, run_spec_once, slim_report, validate_report, ScenarioSpec,
};

/// A 16-node Poisson tenant run over a 4x4 torus with two links killed
/// mid-run and two more degraded.
const TENANTS_FAULTS: &str = r#"
name = "golden-tenants-faults"
nodes = 16
topology = "torus2d:4x4"
backend = "all"
workload = "mixed"
read_fraction = 0.8
op_bytes = 64
segment_bytes = 65536
seed = 1601
[tenants]
count = 32
scheduler = "wdrr"
weights = "tiered"
[traffic]
arrival = "poisson"
rate_per_tenant = 1000000
duration_us = 40
zipf_addr = 0.5
zipf_dst = 0.2
[faults]
seed = 1602
degraded_links = 2
drop_prob = 0.1
corrupt_prob = 0.05
killed_links = 2
kill_at_us = 10
revive_at_us = 25
"#;

/// A 16-node KV service run on all three backends.
const KV: &str = r#"
name = "golden-kv"
nodes = 16
topology = "torus2d:4x4"
backend = "all"
workload = "mixed"
op_bytes = 256
segment_bytes = 65536
seed = 1603
[tenants]
count = 32
scheduler = "strict"
weights = "tiered"
[traffic]
arrival = "bursty"
rate_per_tenant = 400000
duration_us = 30
burst = 4
[kv]
keys = 256
value_min = 256
value_max = 1024
zipf_key = 1.1
get_fraction = 0.85
repeat_prob = 0.3
seed = 1604
"#;

/// A 64-node KV service run with two links killed mid-run and the flight
/// recorder armed: the one shape whose runs carry every optional report
/// section at once.
const ALL_SECTIONS: &str = r#"
name = "golden-all-sections"
nodes = 64
topology = "torus3d:4x4x4"
backend = "sonuma"
workload = "mixed"
read_fraction = 0.95
op_bytes = 4096
segment_bytes = 524288
seed = 42
[tenants]
count = 512
scheduler = "strict"
weights = "tiered"
[traffic]
arrival = "bursty"
rate_per_tenant = 40000
duration_us = 40
burst = 16
[faults]
killed_links = 2
kill_at_us = 30
revive_at_us = 60
[trace]
interval_us = 5
[kv]
keys = 512
value_min = 1024
value_max = 4096
zipf_key = 1.2
get_fraction = 0.95
repeat_prob = 0.4
seed = 4200
"#;

fn strip_wall(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !k.starts_with("wall_"))
                .map(|(k, v)| (k.clone(), strip_wall(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_wall).collect()),
        other => other.clone(),
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the wall-stripped rendered report of one single-drive run.
fn digest(spec: &ScenarioSpec) -> u64 {
    fnv1a(&strip_wall(&report(&[run_spec_once(spec)])).render())
}

#[test]
fn reports_match_the_digests_pinned_before_the_single_drive_loop() {
    let inline = |text| ScenarioSpec::from_toml(text).expect("golden spec parses");
    for (spec, pinned) in [
        (canned("smoke-uniform-8").unwrap(), 0x0d6e_6d57_32d3_2d80),
        (canned("smoke-torus-16").unwrap(), 0x1f36_6031_8986_d1f7),
        (canned("smoke-mixed-4").unwrap(), 0x0bf9_f77c_0771_e9d0),
        (inline(TENANTS_FAULTS), 0x4cdd_cd6d_fac7_6157),
        (inline(KV), 0xbcd1_31a8_4a63_ec46),
    ] {
        assert_eq!(
            digest(&spec),
            pinned,
            "{}: report bytes moved (digest 0x{:016x})",
            spec.name,
            digest(&spec)
        );
    }
}

/// Every optional section at once renders, validates, slims and strips
/// for `diff-runs` to the bytes of the commit before the row renderers
/// were shared (digests of that build's strings).
#[test]
fn a_run_with_every_section_keeps_its_pinned_renderings() {
    let spec = ScenarioSpec::from_toml(ALL_SECTIONS).expect("golden spec parses");
    let doc = report(&[run_spec_once(&spec)]);
    validate_report(&doc).expect("the report validates");
    let run = &doc.get("scenarios").unwrap().as_arr().unwrap()[0]
        .get("runs")
        .unwrap()
        .as_arr()
        .unwrap()[0];
    for section in [
        "sharding",
        "per_tenant",
        "fabric",
        "faults",
        "kv",
        "trace",
        "pipeline_total",
        "per_node",
    ] {
        assert!(run.get(section).is_some(), "the run has no {section}");
    }
    // Against a non-report `equivalence_diff` yields one entry quoting
    // the whole stripped rendering: the only public view of what
    // `diff-runs` compares.
    let stripped = equivalence_diff(&doc, &Json::Null).remove(0);
    let doc = strip_wall(&doc);
    for (what, text, pinned) in [
        ("rendered", doc.render(), 0x5200_00d6_7725_e823u64),
        ("slimmed", slim_report(&doc).render(), 0x5164_392f_3674_d8ff),
        ("diff-runs view", stripped, 0x464b_45e6_a55d_e6ac),
    ] {
        let digest = fnv1a(&text);
        assert_eq!(digest, pinned, "{what} bytes moved (0x{digest:016x})");
    }
}
