//! The three readers of outside text — `Json::parse` (reports),
//! `ScenarioSpec::from_toml` (spec files) and `parse_trace` (`--trace-out`
//! files) — return `Ok` or `Err` on any input and never panic. Each is fed
//! arbitrary bytes, lossily decoded to UTF-8, and single-byte mutations of
//! a valid input: every shipped `bench/specs` file, a rendered report and
//! a recorded trace.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use sonuma_bench::json::Json;
use sonuma_bench::scenario::{
    report, run_spec, BackendSel, FaultSpec, KvSpec, ScenarioSpec, TenancySpec, TopologySpec,
    TraceSpec, TrafficSpec, WorkloadKind,
};
use sonuma_bench::tracefig::parse_trace;

/// Valid inputs to mutate: the shipped spec files, and the report and
/// trace of one small run that fills every report and trace section.
struct Seeds {
    specs: Vec<String>,
    report: String,
    trace: String,
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench/specs");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("bench/specs exists")
            .map(|e| e.expect("readable dir entry").path())
            .collect();
        paths.sort();
        let specs = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("spec readable"))
            .collect();
        let spec = ScenarioSpec {
            name: "hostile".into(),
            nodes: 8,
            topology: TopologySpec::Torus2d(4, 2),
            backend: BackendSel::All,
            workload: WorkloadKind::Mixed,
            op_bytes: 256,
            segment_bytes: 1 << 16,
            seed: 5,
            tenancy: Some(TenancySpec {
                tenants: 8,
                ..TenancySpec::default()
            }),
            traffic: Some(TrafficSpec {
                rate_per_tenant: 500_000.0,
                duration_us: 10.0,
                ..TrafficSpec::default()
            }),
            faults: Some(FaultSpec {
                seed: 3,
                killed_links: 1,
                kill_at_us: 2.0,
                revive_at_us: 6.0,
                ..FaultSpec::default()
            }),
            trace: Some(TraceSpec {
                interval_us: 2.0,
                ..TraceSpec::default()
            }),
            kv: Some(KvSpec {
                keys: 64,
                value_min: 256,
                value_max: 1024,
                ..KvSpec::default()
            }),
            ..ScenarioSpec::default()
        };
        let results = run_spec(&spec);
        let trace = results.runs[0]
            .trace
            .as_ref()
            .expect("trace section attached")
            .text
            .clone();
        Seeds {
            specs,
            report: report(&[results]).render(),
            trace,
        }
    })
}

/// Runs every reader over `text`; a reader that panics fails the test.
fn read_all(text: &str) {
    let _ = Json::parse(text);
    let _ = ScenarioSpec::from_toml(text);
    let _ = parse_trace(text);
}

/// Bytes the three grammars give meaning to, so a mutation reaches past
/// the first syntax check more often than a uniform byte would.
const SYNTAX: &[u8] = b"\"\\{}[]:,=#.-+eE0179 \n\ttnfux\xff";

/// Applies mutation `op` at `pos` of `text`: 0 replaces the byte with
/// `byte`, 1 inserts `byte` before it, 2 deletes it, 3 truncates there.
fn mutate(text: &str, op: u8, pos: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let pos = pos % (bytes.len() + 1);
    match op {
        0 if pos < bytes.len() => bytes[pos] = byte,
        1 => bytes.insert(pos, byte),
        2 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        _ => bytes.truncate(pos),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A syntax byte half the time, any byte the other half.
fn byte_of(syntax: bool, raw: u8) -> u8 {
    if syntax {
        SYNTAX[raw as usize % SYNTAX.len()]
    } else {
        raw
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic_a_reader(bytes in vec(any::<u8>(), 0..512)) {
        read_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_specs_never_panic_a_reader(
        (which, op, pos, syntax, raw) in (any::<usize>(), 0u8..4, any::<usize>(), any::<bool>(), any::<u8>()),
    ) {
        let specs = &seeds().specs;
        read_all(&mutate(&specs[which % specs.len()], op, pos, byte_of(syntax, raw)));
    }

    #[test]
    fn mutated_reports_and_traces_never_panic_a_reader(
        (trace, op, pos, syntax, raw) in (any::<bool>(), 0u8..4, any::<usize>(), any::<bool>(), any::<u8>()),
    ) {
        let s = seeds();
        let text = if trace { &s.trace } else { &s.report };
        read_all(&mutate(text, op, pos, byte_of(syntax, raw)));
    }
}
