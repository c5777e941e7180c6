//! The scenario runner CLI.
//!
//! ```text
//! cargo run --release -p sonuma-bench --bin sonuma-bench -- scenario --smoke
//! ```
//!
//! Subcommand `scenario` sweeps declarative scenario specs across the
//! requested backends and writes a versioned, machine-readable
//! `BENCH.json`:
//!
//! * `--smoke` — the three canned CI specs;
//! * `--canned <name>` — one canned spec by name (repeatable; see `--list`);
//! * `--spec <file.toml>` — a spec file (repeatable);
//! * `--out <path>` — report destination (default `BENCH.json`);
//! * `--max-peak-bytes <n>` — exit nonzero if the process's peak
//!   resident set (`VmHWM`) exceeds `n` bytes; exit 2 where `VmHWM`
//!   cannot be read;
//! * `--trace-out <path>` — write each soNUMA run's flight-recorder
//!   trace (JSON lines; arms tracing at the default cadence when the
//!   spec has no `[trace]` section). With several scenarios selected,
//!   each writes `<stem>-<scenario><ext>`;
//! * `--trace-interval-us <f>` — override the sampling cadence;
//! * `--list` — print the canned spec names and exit.
//!
//! Subcommand `chrome-trace` converts a saved trace to Chrome
//! trace-event JSON for `chrome://tracing` / Perfetto.

use std::path::PathBuf;
use std::process::ExitCode;

use sonuma_bench::json::Json;
use sonuma_bench::scenario::{
    self, canned, canned_names, canned_specs, equivalence_diff, report, run_spec, validate_report,
    ScenarioSpec, TraceSpec,
};

/// Peak resident set (`VmHWM`) in bytes, from `/proc/self/status`, or
/// `None` where that interface is missing (non-Linux).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
}

fn usage() -> ! {
    eprintln!(
        "usage: sonuma-bench scenario [--smoke] [--canned NAME]... [--spec FILE]...\n\
         \x20                          [--threads N] [--max-peak-bytes N] [--out FILE]\n\
         \x20                          [--trace-out FILE] [--trace-interval-us F] [--list]\n\
         \x20      sonuma-bench diff-runs A.json B.json\n\
         \x20      sonuma-bench chrome-trace TRACE.jsonl [--out FILE]"
    );
    std::process::exit(2);
}

/// Pins glibc's mmap threshold so rack-scale `vec![0; n]` state stays
/// zero-page lazy. By default the threshold adapts upward every time a
/// large mmap'd chunk is freed; after the first machine build it rises
/// past the 512 KB cache-tag arrays, later builds get dirty sbrk
/// memory instead, and calloc memsets gigabytes that are never read.
/// Freezing the threshold (and lifting the mmap count cap) keeps every
/// large zeroed allocation resident only where it is touched.
#[cfg(target_os = "linux")]
fn pin_mmap_threshold() {
    unsafe extern "C" {
        fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
    }
    const M_MMAP_THRESHOLD: core::ffi::c_int = -3;
    const M_MMAP_MAX: core::ffi::c_int = -4;
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 10);
        mallopt(M_MMAP_MAX, 1 << 22);
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("scenario") => scenario_cmd(args.collect()),
        Some("diff-runs") => diff_runs_cmd(args.collect()),
        Some("chrome-trace") => chrome_trace_cmd(args.collect()),
        _ => usage(),
    }
}

/// Reads and parses a JSON report, exiting with a CLI error on failure.
fn load_json(path: &str) -> Result<Json, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    Json::parse(&text).map_err(|e| {
        eprintln!("{path} is not valid JSON: {e}");
        ExitCode::from(2)
    })
}

/// `diff-runs A B`: compares two scenario reports for simulated
/// equivalence (everything except `wall_*` and shard metadata must
/// match byte-for-byte). Exit 0 iff equivalent — the CI
/// parallel-equivalence step's workhorse.
fn diff_runs_cmd(args: Vec<String>) -> ExitCode {
    let [a_path, b_path] = args.as_slice() else {
        usage();
    };
    let (a, b) = match (load_json(a_path), load_json(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    // Two error documents are trivially "equivalent": compare reports only.
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        if let Err(e) = validate_report(doc) {
            eprintln!("{path} is not a scenario report: {e}");
            return ExitCode::from(2);
        }
    }
    let diffs = equivalence_diff(&a, &b);
    if diffs.is_empty() {
        println!("{a_path} and {b_path} are simulation-equivalent (wall/shard fields ignored)");
        ExitCode::SUCCESS
    } else {
        eprintln!("{} difference(s) outside wall/shard fields:", diffs.len());
        for d in &diffs {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

/// `chrome-trace TRACE.jsonl [--out FILE]`: converts a saved
/// flight-recorder trace to Chrome trace-event JSON (default output:
/// the input path with `.chrome.json` appended to the stem).
fn chrome_trace_cmd(args: Vec<String>) -> ExitCode {
    let mut input: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                })))
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(arg),
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };
    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match sonuma_bench::tracefig::parse_trace(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = out.unwrap_or_else(|| {
        let mut p = PathBuf::from(&input);
        let stem = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".into());
        p.set_file_name(format!("{stem}.chrome.json"));
        p
    });
    if let Err(e) = std::fs::write(&out, sonuma_bench::tracefig::chrome_trace(&doc)) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} link, {} node, {} tenant, {} fault records)",
        out.display(),
        doc.links.len(),
        doc.nodes.len(),
        doc.tenants.len(),
        doc.faults.len()
    );
    ExitCode::SUCCESS
}

fn scenario_cmd(args: Vec<String>) -> ExitCode {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut out = PathBuf::from("BENCH.json");
    let mut threads: Option<usize> = None;
    let mut max_peak_bytes: Option<u64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_interval_us: Option<f64> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--smoke" => specs.extend(
                canned_names()
                    .filter(|name| name.starts_with("smoke-"))
                    .map(|name| canned(name).expect("canned specs parse")),
            ),
            "--canned" => match canned(&value("--canned")) {
                Ok(spec) => specs.push(spec),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            "--spec" => {
                let path = value("--spec");
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                match ScenarioSpec::from_toml(&text) {
                    Ok(spec) => specs.push(spec),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--threads" => {
                threads = Some(value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                }));
            }
            "--max-peak-bytes" => {
                max_peak_bytes = Some(value("--max-peak-bytes").parse().unwrap_or_else(|_| {
                    eprintln!("--max-peak-bytes needs a byte count");
                    std::process::exit(2);
                }));
            }
            "--out" => out = PathBuf::from(value("--out")),
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--trace-interval-us" => {
                trace_interval_us =
                    Some(value("--trace-interval-us").parse().unwrap_or_else(|_| {
                        eprintln!("--trace-interval-us needs a number of microseconds");
                        std::process::exit(2);
                    }));
            }
            "--list" => {
                for spec in canned_specs() {
                    println!(
                        "{:<20} {:>4} nodes  {:<12} {:<14} backend={}",
                        spec.name,
                        spec.nodes,
                        spec.topology_label(),
                        spec.workload_label(),
                        spec.backend_label(),
                    );
                }
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }
    if specs.is_empty() {
        eprintln!("no scenarios selected (use --smoke, --canned, or --spec)");
        return ExitCode::from(2);
    }
    if max_peak_bytes.is_some() && peak_rss_bytes().is_none() {
        eprintln!("--max-peak-bytes: the peak resident set (VmHWM) cannot be read on this host");
        return ExitCode::from(2);
    }
    if let Some(threads) = threads {
        for spec in &mut specs {
            spec.threads = threads;
            if let Err(e) = spec.validate() {
                eprintln!("--threads {threads}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if trace_out.is_some() || trace_interval_us.is_some() {
        for spec in &mut specs {
            // `--trace-out` arms the recorder even on specs without a
            // [trace] section; an explicit cadence overrides both.
            let t = spec.trace.get_or_insert_with(TraceSpec::default);
            if let Some(us) = trace_interval_us {
                t.interval_us = us;
            }
            if let Err(e) = spec.validate() {
                eprintln!("--trace-interval-us: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let results: Vec<scenario::ScenarioResult> = specs.iter().map(run_spec).collect();
    print_summary(&results);

    let mut doc = report(&results);
    if let Err(e) = validate_report(&doc) {
        eprintln!("internal error: generated report fails schema check: {e}");
        return ExitCode::FAILURE;
    }
    // `wall_` prefix => stripped by the equivalence diff like every other
    // host-side number.
    let peak_rss = peak_rss_bytes();
    if let Json::Obj(members) = &mut doc {
        let bytes = peak_rss.unwrap_or(0) as f64;
        members.push(("wall_peak_rss_bytes".into(), Json::Num(bytes)));
    }
    if let Some(peak) = peak_rss {
        println!(
            "peak heap: {:.1} MiB resident",
            peak as f64 / (1024.0 * 1024.0)
        );
    }
    let text = doc.render();
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", out.display());

    if let Some(base) = &trace_out {
        let traced: Vec<(&str, &String)> = results
            .iter()
            .flat_map(|r| {
                r.runs
                    .iter()
                    .filter_map(|run| run.trace.as_ref().map(|t| (r.spec.name.as_str(), &t.text)))
            })
            .collect();
        if traced.is_empty() {
            eprintln!(
                "--trace-out: no run produced a trace (the soNUMA backend is the only traced one)"
            );
            return ExitCode::FAILURE;
        }
        let many = traced.len() > 1;
        for (name, text) in traced {
            let path = if many {
                let stem = base
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "trace".into());
                let ext = base
                    .extension()
                    .map(|e| format!(".{}", e.to_string_lossy()))
                    .unwrap_or_default();
                base.with_file_name(format!("{stem}-{name}{ext}"))
            } else {
                base.clone()
            };
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} ({} records)",
                path.display(),
                text.lines().count().saturating_sub(1)
            );
        }
    }

    if let (Some(budget), Some(peak)) = (max_peak_bytes, peak_rss) {
        if peak > budget {
            eprintln!(
                "REGRESSION: peak resident heap {peak} bytes exceeds --max-peak-bytes {budget}"
            );
            return ExitCode::FAILURE;
        }
        println!("peak heap within budget ({peak} <= {budget} bytes)");
    }
    ExitCode::SUCCESS
}

fn print_summary(results: &[scenario::ScenarioResult]) {
    println!(
        "{:<20} {:<22} {:>9} {:>12} {:>9} {:>10} {:>10} {:>12} {:>12}",
        "scenario",
        "backend",
        "ops",
        "ops/s(sim)",
        "Gbps",
        "p50(ns)",
        "p99(ns)",
        "events/s(wall)",
        "pkts/s(wall)"
    );
    for result in results {
        for run in &result.runs {
            println!(
                "{:<20} {:<22} {:>9} {:>12.0} {:>9.2} {:>10.0} {:>10.0} {:>12.0} {:>12.0}",
                result.spec.name,
                run.backend,
                run.ops,
                run.ops_per_sec,
                run.gbps,
                run.p50.as_ns_f64(),
                run.p99.as_ns_f64(),
                run.wall_events_per_sec,
                run.wall_packets_per_sec,
            );
            if !run.tenants.is_empty() {
                let per_class: Vec<String> = [
                    sonuma_core::SloClass::Gold,
                    sonuma_core::SloClass::Silver,
                    sonuma_core::SloClass::Bronze,
                ]
                .iter()
                .filter_map(|&class| {
                    run.class_histogram(class).map(|hist| {
                        format!(
                            "{} p99 {:.0} ns",
                            class.as_str(),
                            hist.percentile(0.99).as_ns_f64()
                        )
                    })
                })
                .collect();
                println!(
                    "{:<20}   {} tenants, jain {:.4}, {}",
                    "",
                    run.tenants.len(),
                    run.jain_fairness(),
                    per_class.join(", "),
                );
            }
            if let Some(t) = &run.trace {
                let s = t.summary;
                println!(
                    "{:<20}   trace: {} ticks, {} link + {} node + {} fault + {} tenant samples, \
                     {} dropped",
                    "",
                    s.ticks,
                    s.link_samples,
                    s.node_samples,
                    s.fault_events,
                    t.tenant_samples,
                    s.link_dropped + s.node_dropped + s.fault_dropped,
                );
            }
        }
    }
}
