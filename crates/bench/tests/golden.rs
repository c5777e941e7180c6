//! Report-identity oracles. Only `wall_*` members are stripped, so every
//! simulated metric, the `sharding` metadata and the report layout are
//! covered.
//!
//! * The ledger: one FNV-1a digest per (canned scenario, backend) run,
//!   the exact pin of every canned result. A row that moves prints its
//!   replacement; re-pinning is pasting it, with the reason in the
//!   change that moved it. The run facts the paper's rack claims rest on
//!   are asserted by name beside it, so no re-pin can drop them.
//! * Two inline specs (tenant arrivals with faults, the KV plane) keep
//!   the whole-report digests pinned before the three drive loops were
//!   folded into one, re-pinned four times: when physical memory moved
//!   from 8 KB frames to 512 B blocks, when cache tag state came to be
//!   counted as placed sets plus slot tables, when a harvested landing
//!   buffer came to give its blocks back, and when a cache set came to
//!   store 4 ways until its fifth line arrived. Each time only
//!   `sharding.resident_bytes` moved.
//! * A spec carrying every optional report section at once pins its
//!   rendered and `diff-runs` forms to the commit before the row
//!   renderers were shared. The rendered digest was re-pinned five
//!   times, when a cache way shrank to 4 bytes, when physical memory
//!   moved to 512 B blocks, when cache tag state came to be counted as
//!   placed sets plus slot tables, when a harvested landing buffer came
//!   to give its blocks back and when a cache set came to store 4 ways
//!   until its fifth line arrived: each time `sharding.resident_bytes`
//!   moved.

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

/// FNV-1a over the wall-stripped rendered report of one run of `spec`.
fn digest(spec: &ScenarioSpec) -> u64 {
    fnv1a(&strip_wall(&report(&[run_spec(spec)])).render())
}

#[test]
fn reports_match_the_digests_pinned_before_the_single_drive_loop() {
    for (text, pinned) in [
        (TENANTS_FAULTS, 0x94e9_8cf4_f4ed_b09e),
        (KV, 0x5bf6_aac4_13d5_667e),
    ] {
        let spec = ScenarioSpec::from_toml(text).expect("golden spec parses");
        assert_eq!(
            digest(&spec),
            pinned,
            "{}: report bytes moved (digest 0x{:016x})",
            spec.name,
            digest(&spec)
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
    let doc = strip_wall(&doc);
    for (what, text, pinned) in [
        ("rendered", doc.render(), 0x40e1_dcd0_2b99_7162u64),
        ("diff-runs view", stripped, 0x464b_45e6_a55d_e6ac),
    ] {
        let digest = fnv1a(&text);
        assert_eq!(digest, pinned, "{what} bytes moved (0x{digest:016x})");
    }
}

/// `(canned scenario, backend, digest)`: FNV-1a of each wall-stripped,
/// rendered run object of `report(&[run_spec(&canned(name))])`, all 28
/// taken before the wall gate and its 18k-line baseline file were deleted.
/// The 14 soNUMA rows were re-pinned when physical memory moved from 8 KB
/// frames to 512 B blocks, when cache tag state came to be counted as
/// placed sets plus slot tables, when a harvested landing buffer came to
/// give its blocks back, and when a cache set came to store 4 ways until
/// its fifth line arrived: each time `sharding.resident_bytes` was the
/// only member that moved.
#[rustfmt::skip]
const LEDGER: &[(&str, &str, u64)] = &[
    ("smoke-uniform-8", "soNUMA", 0xef597c76c32d5ea6),
    ("smoke-uniform-8", "RDMA (ConnectX-3)", 0x68e3af470c3cb357),
    ("smoke-uniform-8", "TCP/IP (Calxeda)", 0xbaed3713601847eb),
    ("smoke-torus-16", "soNUMA", 0xb9c6ff31e19eced3),
    ("smoke-mixed-4", "soNUMA", 0x496af892618ab947),
    ("smoke-mixed-4", "RDMA (ConnectX-3)", 0x157172ccec142c2b),
    ("smoke-mixed-4", "TCP/IP (Calxeda)", 0xa441b04712072306),
    ("rack512-neighbor", "soNUMA", 0x22bb240d5f199fe3),
    ("rack512-torus-scan", "soNUMA", 0x27049a58b4a209ae),
    ("rack64-tenants", "soNUMA", 0xff9daece46d977d2),
    ("rack64-tenants", "RDMA (ConnectX-3)", 0xb957746e4bdeb040),
    ("rack64-tenants", "TCP/IP (Calxeda)", 0xde7b58d2da6e84ee),
    ("rack64-tenants-strict", "soNUMA", 0xc38aadeb688b2636),
    ("rack64-tenants-strict", "RDMA (ConnectX-3)", 0xe8239bafb0cc5869),
    ("rack64-tenants-strict", "TCP/IP (Calxeda)", 0x652d20041ec81d00),
    ("rack1024-shard", "soNUMA", 0x454e27009e926ab3),
    ("rack4096", "soNUMA", 0x253563e81e467d43),
    ("rack8192", "soNUMA", 0x5e91ed9d55cc7873),
    ("rack512-linkflap", "soNUMA", 0x61084341e41547f0),
    ("rack512-linkflap", "RDMA (ConnectX-3)", 0x329c9d44a4bddb1b),
    ("rack512-linkflap", "TCP/IP (Calxeda)", 0xd3175666323cbe8c),
    ("rack1024-nodekill", "soNUMA", 0x1371a198979163ec),
    ("rack512-kv", "soNUMA", 0x226a7b1e8a45d0a2),
    ("rack512-kv", "RDMA (ConnectX-3)", 0xbc95f63b4517213f),
    ("rack512-kv", "TCP/IP (Calxeda)", 0x237793a7b9144284),
    ("rack1024-kv-zipf", "soNUMA", 0x24a2b15c97a37ce1),
    ("rack1024-kv-zipf", "RDMA (ConnectX-3)", 0xd45946d655373c6e),
    ("rack1024-kv-zipf", "TCP/IP (Calxeda)", 0x530565fc8661caf7),
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
    let pinned = |name, backend| LEDGER.iter().any(|row| (row.0, row.1) == (name, backend));
    assert!(FACTS.iter().all(|f| pinned(f.0, f.1)));
    let mut moved = String::new();
    for name in canned_names().filter(|n| pick(n)) {
        let doc = report(&[run_spec(&canned(name).unwrap())]);
        let scenario = &doc.get("scenarios").unwrap().as_arr().unwrap()[0];
        let mut got = Vec::new();
        for run in scenario.get("runs").unwrap().as_arr().unwrap() {
            let backend = run.str_of("backend").unwrap();
            got.push((name, backend, fnv1a(&strip_wall(run).render())));
            for &(_, _, fact) in FACTS.iter().filter(|f| (f.0, f.1) == (name, backend)) {
                assert_eq!(holds(run, fact), Some(true), "{name}/{backend}: {fact}");
            }
        }
        if got.iter().ne(LEDGER.iter().filter(|row| row.0 == name)) {
            for (n, b, d) in got {
                moved += &format!("    ({n:?}, {b:?}, 0x{d:016x}),\n");
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
