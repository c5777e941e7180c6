//! Report-identity oracles. Each pins a report in two columns:
//!
//! * `sim_digest`: the FNV-1a of the rendered report with every `wall_*`
//!   member and every `sharding.resident_bytes` removed, and nothing else.
//!   It covers every simulated number, the rest of the `sharding`
//!   metadata (`threads`, `shards`, `epochs`, `cut_links`,
//!   `pair_bound_violations`, `lookahead_ns`, `shard_events`) and the
//!   layout. A change that leaves simulated results alone leaves it alone.
//! * `resident_bytes`: each run's `sharding.resident_bytes`, pinned
//!   exactly. It counts the simulator's own host structures, so a memory
//!   change moves it and nothing else.
//!
//! The pins:
//!
//! * the ledger: one row per (canned scenario, backend) run, the exact
//!   pin of every canned result. A row that moves prints its
//!   replacement, naming the column that moved; re-pinning is pasting
//!   it, with the reason in the change that moved it. The run facts the
//!   paper's rack claims rest on are asserted by name beside it, so no
//!   re-pin can drop them;
//! * two inline specs (tenant arrivals with faults, the KV plane), one
//!   `sim_digest` plus every run's `resident_bytes` each;
//! * a spec carrying every optional report section at once, pinned the
//!   same way, plus the digest of its `diff-runs` view, which never held
//!   `resident_bytes`.

use sonuma_bench::json::Json;
use sonuma_bench::scenario::{
    canned, canned_names, equivalence_diff, report, run_spec, validate_report, ScenarioSpec,
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

/// `doc` without its `wall_*` members and without its
/// `sharding.resident_bytes`, whose values are pushed onto `resident` in
/// document order.
fn strip(doc: &Json, resident: &mut Vec<u64>) -> Json {
    match doc {
        Json::Obj(members) => {
            let mut kept = Vec::new();
            for (key, value) in members.iter().filter(|(k, _)| !k.starts_with("wall_")) {
                let mut value = strip(value, resident);
                if let (true, Json::Obj(sharding)) = (key == "sharding", &mut value) {
                    let at = sharding.iter().position(|(k, _)| k == "resident_bytes");
                    let bytes = sharding.remove(at.expect("sharding.resident_bytes")).1;
                    resident.push(bytes.as_u64().expect("an integer"));
                }
                kept.push((key.clone(), value));
            }
            Json::Obj(kept)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(|v| strip(v, resident)).collect()),
        other => other.clone(),
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `doc`'s two columns: the `sim_digest` of its stripped rendering, and
/// the `resident_bytes` of each of its runs.
fn split(doc: &Json) -> (u64, Vec<u64>) {
    let mut resident = Vec::new();
    let text = strip(doc, &mut resident).render();
    (fnv1a(&text), resident)
}

#[test]
fn reports_match_the_digests_pinned_before_the_single_drive_loop() {
    for (text, pinned, pinned_resident) in [
        (TENANTS_FAULTS, 0x9be8_3201_5927_5276, [648_256, 0, 0]),
        (KV, 0x7915_3e3d_80c3_3d03, [621_440, 0, 0]),
    ] {
        let spec = ScenarioSpec::from_toml(text).expect("golden spec parses");
        let (digest, resident) = split(&report(&[run_spec(&spec)]));
        assert_eq!(
            digest, pinned,
            "{}: simulated report bytes moved (sim_digest 0x{digest:016x})",
            spec.name
        );
        assert_eq!(
            resident, pinned_resident,
            "{}: resident_bytes moved",
            spec.name
        );
    }
}

/// Every optional section at once renders, validates and strips for
/// `diff-runs` to the bytes of the commit before the row renderers were
/// shared (digests of that build's strings).
#[test]
fn a_run_with_every_section_keeps_its_pinned_renderings() {
    let spec = ScenarioSpec::from_toml(ALL_SECTIONS).expect("golden spec parses");
    let doc = report(&[run_spec(&spec)]);
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
    let (digest, resident) = split(&doc);
    assert_eq!(
        digest, 0x4257_cb14_3b27_0f92,
        "rendered bytes moved (sim_digest 0x{digest:016x})"
    );
    assert_eq!(resident, [7_159_840], "rendered resident_bytes moved");
    let digest = fnv1a(&stripped);
    assert_eq!(
        digest, 0x464b_45e6_a55d_e6ac,
        "diff-runs view bytes moved (0x{digest:016x})"
    );
}

/// `(canned scenario, backend, sim_digest, resident_bytes)`, one row per
/// run of `report(&[run_spec(&canned(name))])`; the columns are those of
/// [`split`] over the run object.
#[rustfmt::skip]
const LEDGER: &[(&str, &str, u64, u64)] = &[
    ("smoke-uniform-8", "soNUMA", 0x634af045872bfccf, 686032),
    ("smoke-uniform-8", "RDMA (ConnectX-3)", 0x8a3d5ab14d39d29d, 0),
    ("smoke-uniform-8", "TCP/IP (Calxeda)", 0x26a9db2b7dcf47d1, 0),
    ("smoke-torus-16", "soNUMA", 0x40f5964c99447216, 1602688),
    ("smoke-mixed-4", "soNUMA", 0x314d6a6a89ee9d2c, 563024),
    ("smoke-mixed-4", "RDMA (ConnectX-3)", 0x593b702c6f075591, 0),
    ("smoke-mixed-4", "TCP/IP (Calxeda)", 0x9bffd1254da3dbbe, 0),
    ("rack512-neighbor", "soNUMA", 0xde5e4316296dd3c7, 11911168),
    ("rack512-torus-scan", "soNUMA", 0xb0f6f79796c1f883, 16328056),
    ("rack64-tenants", "soNUMA", 0x3d3875753783edfc, 8334848),
    ("rack64-tenants", "RDMA (ConnectX-3)", 0x5b160d1197c1d634, 0),
    ("rack64-tenants", "TCP/IP (Calxeda)", 0x7e9d8956e5ceb0f2, 0),
    ("rack64-tenants-strict", "soNUMA", 0x34b86ef56216ddcf, 8600880),
    ("rack64-tenants-strict", "RDMA (ConnectX-3)", 0xaeebb2cec72a459f, 0),
    ("rack64-tenants-strict", "TCP/IP (Calxeda)", 0xd4ff258b741ea3fc, 0),
    ("rack1024-shard", "soNUMA", 0x24f1edadae7a7362, 23822336),
    ("rack4096", "soNUMA", 0xb748a5229d5011f6, 84017152),
    ("rack8192", "soNUMA", 0xd8fa3e4574c097f1, 162004992),
    ("rack512-linkflap", "soNUMA", 0x24658d035ad3c7df, 13071984),
    ("rack512-linkflap", "RDMA (ConnectX-3)", 0x6a15481356a0abe1, 0),
    ("rack512-linkflap", "TCP/IP (Calxeda)", 0xea40f6bf960d7378, 0),
    ("rack1024-nodekill", "soNUMA", 0x35cb43ed02c055ab, 39925440),
    ("rack512-kv", "soNUMA", 0x5dcc62d06614e132, 54974048),
    ("rack512-kv", "RDMA (ConnectX-3)", 0x1f370f35c74ed6b5, 0),
    ("rack512-kv", "TCP/IP (Calxeda)", 0xde1a7654be2a42e2, 0),
    ("rack1024-kv-zipf", "soNUMA", 0x045eda5a58db85c7, 83986592),
    ("rack1024-kv-zipf", "RDMA (ConnectX-3)", 0xb54cfd484d7ed850, 0),
    ("rack1024-kv-zipf", "TCP/IP (Calxeda)", 0x6623f6801d9d661d, 0),
];

/// Facts the paper's rack claims rest on, asserted by name so that no
/// re-pin can drop them.
const FACTS: [(&str, &str, &str); 6] = [
    ("rack512-linkflap", "soNUMA", RECOVERS),
    ("rack1024-nodekill", "soNUMA", RECOVERS),
    ("rack1024-nodekill", "soNUMA", GOLD_BELOW_BRONZE),
    ("rack512-kv", "TCP/IP (Calxeda)", GOLD_BELOW_BRONZE),
    ("rack1024-kv-zipf", "soNUMA", GOLD_BELOW_BRONZE),
    ("rack1024-kv-zipf", "TCP/IP (Calxeda)", GOLD_BELOW_BRONZE),
];
const RECOVERS: &str = "goodput recovers to 90 % of its pre-fault rate";
const GOLD_BELOW_BRONZE: &str = "gold p99 < bronze p99";

/// Whether `fact` holds of `run`. Gold and bronze p99 are the `faults`
/// members where the run has that section, else the `kv.slo` rows.
fn holds(run: &Json, fact: &str) -> Option<bool> {
    let faults = run.get("faults");
    if fact == RECOVERS {
        return Some(faults?.get("recovered")? == &Json::Bool(true));
    }
    if let Some(f) = faults {
        return Some(f.f64_of("gold_p99_ns")? < f.f64_of("bronze_p99_ns")?);
    }
    let rows = run.get("kv")?.get("slo")?.as_arr()?;
    let p99 = |c| rows.iter().find(|r| r.str_of("class") == Some(c));
    Some(p99("gold")?.f64_of("lat_p99_ns")? < p99("bronze")?.f64_of("lat_p99_ns")?)
}

/// Runs each canned scenario `pick` selects and checks its rows and facts.
/// A moved scenario fails with its replacement rows; there is no regen.
fn check_ledger(pick: fn(&str) -> bool) {
    assert!(LEDGER.iter().all(|row| canned(row.0).is_ok()));
    let pinned =
        |name: &str, backend: &str| LEDGER.iter().find(|row| (row.0, row.1) == (name, backend));
    assert!(FACTS.iter().all(|f| pinned(f.0, f.1).is_some()));
    let mut moved = String::new();
    for name in canned_names().filter(|n| pick(n)) {
        let doc = report(&[run_spec(&canned(name).unwrap())]);
        let scenario = &doc.get("scenarios").unwrap().as_arr().unwrap()[0];
        let mut got = Vec::new();
        for run in scenario.get("runs").unwrap().as_arr().unwrap() {
            let backend = run.str_of("backend").unwrap();
            let (digest, resident) = split(run);
            got.push((name, backend, digest, resident[0]));
            for &(_, _, fact) in FACTS.iter().filter(|f| (f.0, f.1) == (name, backend)) {
                assert_eq!(holds(run, fact), Some(true), "{name}/{backend}: {fact}");
            }
        }
        if got.iter().ne(LEDGER.iter().filter(|row| row.0 == name)) {
            for (n, b, d, r) in got {
                let row = pinned(n, b);
                let columns: Vec<&str> = [
                    ("sim_digest", row.map(|row| row.2) != Some(d)),
                    ("resident_bytes", row.map(|row| row.3) != Some(r)),
                ]
                .into_iter()
                .filter_map(|(column, differs)| differs.then_some(column))
                .collect();
                let note = if columns.is_empty() {
                    String::new()
                } else {
                    format!(" // {} moved", columns.join(" and "))
                };
                moved += &format!("    ({n:?}, {b:?}, 0x{d:016x}, {r}),{note}\n");
            }
        }
    }
    assert!(moved.is_empty(), "replace these ledger rows:\n{moved}");
}

#[test]
fn ledger_rack1024_kv_zipf() {
    check_ledger(|name| name == "rack1024-kv-zipf");
}

#[test]
fn ledger_every_other_canned_scenario() {
    check_ledger(|name| name != "rack1024-kv-zipf");
}
