//! The `sonuma-bench` and `gen-figures` binaries, driven as a user
//! would: no flag, file or argument may make them panic (exit 101). Bad
//! input is a usage or input error — exit 2 with a message naming what
//! was wrong — and a failed comparison is exit 1.

use std::path::PathBuf;
use std::process::{Command, Output};

const SMOKE_SPEC: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../bench/specs/smoke-uniform-8.toml"
);

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sonuma-bench"))
        .args(args)
        .output()
        .expect("sonuma-bench starts")
}

fn gen_figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gen-figures"))
        .args(args)
        .output()
        .expect("gen-figures starts")
}

/// Writes `bytes` to the scratch file `name` under the target directory.
fn scratch(name: &str, bytes: &[u8]) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    std::fs::write(&path, bytes).expect("scratch file writes");
    path.display().to_string()
}

/// Asserts the run was refused as bad input: exit 2, `needle` on stderr.
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr lacks {needle:?}: {stderr}");
}

#[test]
fn a_trace_interval_below_one_picosecond_is_refused_not_a_panic() {
    let trace = scratch("trace.jsonl", b"");
    let out = bench(&[
        "scenario",
        "--spec",
        SMOKE_SPEC,
        "--trace-out",
        &trace,
        "--trace-interval-us",
        "1e-9",
    ]);
    assert_refused(&out, "1 ps");
    let spec = std::fs::read_to_string(SMOKE_SPEC).unwrap() + "[trace]\ninterval_us = 0.0000001\n";
    let spec = scratch("subps.toml", spec.as_bytes());
    assert_refused(&bench(&["scenario", "--spec", &spec]), "1 ps");
}

/// A shipped spec with each `(from, to)` line replaced, written to the
/// scratch file `name`.
fn edited_spec(shipped: &str, name: &str, edits: &[(&str, &str)]) -> String {
    let path = format!("{}/../../bench/specs/{shipped}", env!("CARGO_MANIFEST_DIR"));
    let mut spec = std::fs::read_to_string(path).expect("shipped spec reads");
    for (from, to) in edits {
        assert!(spec.contains(from), "{shipped} lacks {from:?}");
        spec = spec.replace(from, to);
    }
    scratch(name, spec.as_bytes())
}

#[test]
fn torus_dimensions_whose_product_overflows_are_refused_not_a_panic() {
    // Each product wraps to exactly `nodes = 4` in a release build, so an
    // unchecked multiply either panics (debug) or passes validation and
    // panics later when a node id falls outside the shard plan.
    for topology in [
        "torus2d:9223372036854775810x2",
        "torus3d:4611686018427387905x2x2",
    ] {
        let quoted = format!("{topology:?}");
        let spec = edited_spec(
            "smoke-torus-16.toml",
            "overflow.toml",
            &[("nodes = 16", "nodes = 4"), ("\"torus2d:4x4\"", &quoted)],
        );
        assert_refused(&bench(&["scenario", "--spec", &spec]), topology);
    }
}

#[test]
fn more_killed_links_than_the_dead_link_mask_holds_are_refused() {
    let spec = edited_spec(
        "rack512-linkflap.toml",
        "kill65.toml",
        &[
            ("killed_links = 4", "killed_links = 65"),
            ("backend = \"all\"", "backend = \"sonuma\""),
        ],
    );
    assert_refused(&bench(&["scenario", "--spec", &spec]), "killed_links = 65");
}

#[test]
fn diff_runs_refuses_documents_that_are_not_reports() {
    let not_a_report = scratch("error.json", br#"{"schema": "x"}"#);
    let out = bench(&["diff-runs", &not_a_report, &not_a_report]);
    assert_refused(&out, &not_a_report);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("equivalent"));
}

#[test]
fn removed_gate_flags_are_usage_errors() {
    for args in [
        &["scenario", "--smoke", "--baseline", "BENCH.json"][..],
        &["scenario", "--smoke", "--max-regress", "0.2"],
        &["scenario", "--smoke", "--compare-threads"],
        &["baseline"],
    ] {
        assert_refused(&bench(args), "usage:");
    }
}

#[test]
fn gen_figures_refuses_bad_input_with_exit_2() {
    let garbage = scratch("figures-garbage", &[0xff, b'{', 0x80, b'\n']);
    let not_kv = scratch(
        "figures-not-kv.json",
        br#"{"schema": "x", "scenarios": []}"#,
    );
    let missing = "/nonexistent/sonuma-figures-input";
    for (args, needle) in [
        (&["--csv"][..], "--csv needs a value"),
        (&["trace", "--trace-file"], "--trace-file needs a value"),
        (&["kv", "--kv-report"], "--kv-report needs a value"),
        (&["trace", "--trace-file", missing], missing),
        (&["kv", "--kv-report", missing], missing),
        (&["trace", "--trace-file", &garbage], "trace"),
        (&["kv", "--kv-report", &garbage], &garbage),
        (&["kv", "--kv-report", &not_kv], "no kv sections"),
        (&["bogus"], "known: table1"),
    ] {
        assert_refused(&gen_figures(args), needle);
    }
}

#[test]
fn hostile_arguments_and_files_exit_1_or_2() {
    let garbage = scratch(
        "garbage",
        &[0xff, 0x00, 0x9c, b'{', 0x80, b'\n', b'=', 0xfe],
    );
    let truncated = scratch(
        "truncated.json",
        br#"{"schema": "sonuma-bench.scenario/v9", "scen"#,
    );
    // Nested past any stack: the parser must refuse it, not overflow.
    let deep = scratch("deep.json", "[".repeat(200_000).as_bytes());
    let mut cases: Vec<Vec<&str>> = vec![
        vec!["frobnicate"],
        vec!["scenario", "--frobnicate"],
        vec!["scenario", "--spec", &garbage],
    ];
    for file in [&garbage, &truncated, &deep] {
        cases.push(vec!["diff-runs", file, file]);
        cases.push(vec!["chrome-trace", file]);
    }
    for args in cases {
        let out = bench(&args);
        let code = out.status.code();
        assert!(
            matches!(code, Some(1 | 2)),
            "{args:?} exited {code:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stderr.is_empty(), "{args:?} failed without a message");
    }
}
