//! The repo benchmark. One command runs every workload, checks outputs
//! and prints every metric by name with unit, direction and bound:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all
//! ```
//!
//! This is a batch simulator, not a server, so the benchmark issues no
//! real-time load. It reports work per host second at a stated input size
//! (host clock) and the modelled machine's latency and throughput
//! (simulated clock, which repeats exactly for a fixed seed). Every
//! number says which clock it uses. See `benchmark/README.md`.

mod child;
mod measure;
mod metrics;
mod probes;
mod spans;
mod sut;
mod traced;
mod workload;

use std::process::ExitCode;

use measure::{Budget, Measurement};
use metrics::{Clock, END_TO_END, PER_LAYER};
use sut::{num, obj, Json};
use workload::{Workload, WORKLOADS};

/// Repetitions per workload when neither `--reps` nor `--seconds` says
/// otherwise.
const DEFAULT_REPS: usize = 5;

const USAGE: &str = "\
usage: sonuma-benchmark all      [--seed S] [--reps N] [--out FILE]
       sonuma-benchmark WORKLOAD [--seed S] [--reps N] [--out FILE]
       sonuma-benchmark traced   [--workload W] [--seed S]
       sonuma-benchmark repeat   [--seed S] [--reps N]
       sonuma-benchmark list | manifest
       sonuma-benchmark --workload W --seed S --seconds T --trace 0|1
Without --seed every workload runs at the seeds in its own TOML.";

#[derive(Default)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--reps" => o.reps = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--seconds" => {
                let secs: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("--seconds {secs} is not a positive time"));
                }
                o.seconds = Some(secs);
            }
            "--trace" => {
                o.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--out" => o.out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.reps == Some(0) {
        return Err("--reps 0 measures nothing".into());
    }
    Ok(o)
}

impl Options {
    fn budget(&self) -> Budget {
        match (self.seconds, self.reps) {
            (Some(s), _) => Budget::Seconds(s),
            (None, reps) => Budget::Reps(reps.unwrap_or(DEFAULT_REPS)),
        }
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match &self.workload {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => workload::find(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("no workload {name:?} (try `list`)")),
        }
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn print_measurement(m: &Measurement) {
    let seed = m
        .seed
        .map_or("the TOML's own".to_string(), |s| s.to_string());
    println!(
        "\n== {} - seed {seed}, {} repetitions in fresh processes, {} host cores",
        m.workload.name,
        m.reps,
        cores()
    );
    println!("   {}", m.workload.why);
    println!(
        "   {:<20} {:>16} {:<7} {:<7} {:>6}  {:<9} median [min .. max] of n",
        "metric", "value", "unit", "better", "bound", "clock"
    );
    for (def, (_, s)) in END_TO_END.iter().zip(&m.values) {
        let spread = if def.clock == Clock::Host {
            format!("[{:.6} .. {:.6}] of {}", s.min, s.max, s.n)
        } else {
            "exact for this seed".to_string()
        };
        let bound = if def.driver {
            format!("{:.1}%", def.bound * 100.0)
        } else {
            "exact".to_string()
        };
        println!(
            "   {:<20} {:>16.6} {:<7} {:<7} {bound:>6}  {:<9} {spread}",
            def.name,
            s.median,
            def.unit,
            def.better.as_str(),
            def.clock.as_str(),
        );
    }
    let f = &m.facts;
    println!(
        "   failed_ops_ratio {:.6} = 1 - ok_ops_ratio: {} aborted + {} corrupt + {} lost of {} attempted (p50/p99 over {} completions)",
        m.failed_ops_ratio,
        f.errors,
        f.kv_corrupt,
        f.attempted - f.completed.min(f.attempted),
        f.attempted,
        f.completed - f.errors,
    );
    let drives: Vec<String> = m.run_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "   run_s of each repetition, in order: {}",
        drives.join(" ")
    );
    println!("   events {}  sim_digest {:016x}", f.events, m.sim_digest);
    println!("   model error against the paper (validated against these anchors only):");
    for &(what, sim, paper) in &m.anchors.rows {
        println!(
            "     {what:<28} simulated {sim:>10.3}  paper {paper:>8.2}  error {:>5.1} %",
            (sim - paper).abs() / paper * 100.0
        );
    }
    println!(
        "     TCP 64 B latency {:.1} us (pass > 40), peak {:.2} Gbps (paper < 2, pass < 2.2): {}",
        m.anchors.tcp_small_us,
        m.anchors.tcp_peak_gbps,
        if m.anchors.tcp_ok { "pass" } else { "FAIL" }
    );
    for note in &m.notes {
        println!("   note: {note}");
    }
    for v in &m.violations {
        println!("   VIOLATION: {v}");
    }
    println!(
        "   outputs {}",
        if m.correct() { "correct" } else { "WRONG" }
    );
}

/// Everything one `all` printed, for `--out`: drop it anywhere as a
/// `BENCH_<pr>.json` to keep the trajectory across PRs.
fn results_json(ms: &[Measurement]) -> Json {
    let workloads = ms
        .iter()
        .map(|m| {
            let metrics = END_TO_END
                .iter()
                .zip(&m.values)
                .map(|(def, (_, s))| {
                    (
                        def.name,
                        obj(vec![
                            ("median", num(s.median)),
                            ("min", num(s.min)),
                            ("max", num(s.max)),
                            ("n", num(s.n as f64)),
                            ("unit", Json::Str(def.unit.into())),
                            ("better", Json::Str(def.better.as_str().into())),
                            ("bound", num(def.bound)),
                            ("clock", Json::Str(def.clock.as_str().into())),
                        ]),
                    )
                })
                .collect();
            obj(vec![
                ("name", Json::Str(m.workload.name.into())),
                ("reps", num(m.reps as f64)),
                ("correct", Json::Bool(m.correct())),
                ("events", num(m.facts.events as f64)),
                ("attempted", num(m.facts.attempted as f64)),
                ("failed_ops_ratio", num(m.failed_ops_ratio)),
                ("sim_digest", Json::Str(format!("{:016x}", m.sim_digest))),
                ("metrics", obj(metrics)),
            ])
        })
        .collect();
    obj(vec![
        ("schema", Json::Str("sonuma-benchmark/v1".into())),
        (
            "seed",
            ms.first()
                .and_then(|m| m.seed)
                .map_or(Json::Null, |s| num(s as f64)),
        ),
        ("host_cores", num(cores() as f64)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// `all` and `WORKLOAD`: measure, print, optionally write `--out`.
fn run_untraced(o: &Options) -> Result<ExitCode, String> {
    let mut ms = Vec::new();
    for w in o.workloads()? {
        let m = measure::measure(w, o.seed, o.budget())?;
        print_measurement(&m);
        ms.push(m);
    }
    if let Some(path) = &o.out {
        std::fs::write(path, results_json(&ms).render()).map_err(|e| format!("{path}: {e}"))?;
        println!("\nresults written to {path}");
    }
    let wrong: Vec<&str> = ms
        .iter()
        .filter(|m| !m.correct())
        .map(|m| m.workload.name)
        .collect();
    if wrong.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("\nwrong outputs on: {}", wrong.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn print_traced(w: &Workload, run: &traced::TracedRun) {
    println!("\n{}", run.tables.trim_end());
    println!(
        "  per-layer metrics of {} (0 = does not apply here):",
        w.name
    );
    for (def, (_, value)) in PER_LAYER.iter().zip(&run.values) {
        println!(
            "    {:<38} {:>18.4} {:<7} better {}",
            def.name,
            value,
            def.unit,
            def.better.as_str()
        );
    }
    for v in &run.violations {
        println!("  VIOLATION: {v}");
    }
}

fn run_traced(o: &Options) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in o.workloads()? {
        let run = traced::traced(w, o.seed)?;
        print_traced(w, &run);
        ok &= run.violations.is_empty();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `repeat`: two full sets of the same code, back to back. Host metrics
/// must agree within their bounds; simulated metrics and digests must be
/// identical.
fn run_repeat(o: &Options) -> Result<ExitCode, String> {
    let mut unresolved = 0;
    for w in o.workloads()? {
        let a = measure::measure(w, o.seed, o.budget())?;
        let b = measure::measure(w, o.seed, o.budget())?;
        println!("\n== {}: two sets of {} repetitions", w.name, a.reps);
        for def in &END_TO_END {
            let (x, y) = (a.value(def.name).median, b.value(def.name).median);
            let spread = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let limit = if def.clock == Clock::Simulated {
                0.0
            } else {
                def.bound
            };
            let verdict = if spread <= limit {
                "agree"
            } else {
                unresolved += 1;
                "UNRESOLVED"
            };
            let allowed = if def.clock == Clock::Simulated {
                "must be equal".to_string()
            } else {
                format!("bound {:.1}%", limit * 100.0)
            };
            println!(
                "   {:<20} {:>16.6} {:>16.6} {:<7} spread {:>6.2}%, {allowed}: {verdict}",
                def.name,
                x,
                y,
                def.unit,
                spread * 100.0,
            );
        }
        if a.sim_digest != b.sim_digest {
            unresolved += 1;
            println!(
                "   sim_digest {:016x} vs {:016x}  UNRESOLVED",
                a.sim_digest, b.sim_digest
            );
        } else {
            println!("   sim_digest {:016x} in both sets", a.sim_digest);
        }
        for v in a.violations.iter().chain(&b.violations) {
            unresolved += 1;
            println!("   VIOLATION: {v}");
        }
    }
    if unresolved == 0 {
        println!("\nthe two sets agree within every bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("\n{unresolved} unresolved: raise that workload's repetitions, not its bound");
        Ok(ExitCode::FAILURE)
    }
}

/// Prints one value the way the driver reads it: every digit.
fn metric_json(value: f64, unit: &str) -> String {
    format!("{{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The driver's contract: `--workload W --seed S --seconds T --trace 0|1`,
/// one JSON object as the last line of standard output.
fn run_driver(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let w = workload::find(name).ok_or_else(|| format!("no workload {name:?}"))?;
    let seed = Some(o.seed.ok_or("--seed is required")?);
    let (correct, attempted, failed, metrics) = if o.trace == Some(true) {
        let run = traced::traced(w, seed)?;
        print_traced(w, &run);
        let metrics: Vec<String> = PER_LAYER
            .iter()
            .zip(&run.values)
            .map(|(def, (_, v))| format!("\"{}\": {}", def.name, metric_json(*v, def.unit)))
            .collect();
        (run.violations.is_empty(), run.attempted, 0, metrics)
    } else {
        let m = measure::measure(w, seed, Budget::Seconds(o.seconds.unwrap_or(RUN_SECONDS)))?;
        print_measurement(&m);
        let metrics: Vec<String> = END_TO_END
            .iter()
            .zip(&m.values)
            .filter(|(def, _)| def.driver)
            .map(|(def, (_, s))| format!("\"{}\": {}", def.name, metric_json(s.median, def.unit)))
            .collect();
        (
            m.correct(),
            m.facts.attempted,
            m.unexpected_failures,
            metrics,
        )
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json` as the dictionary in `metrics.rs` and the table in
/// `workload.rs` define it.
fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| text(s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.driver)
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// How long the driver lets one run measure. Three drives of the longest
/// workload fit, and all 136 driver runs fit the driver's hour.
const RUN_SECONDS: f64 = 12.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    child::dispatch(first, &args[1..]);
    let (command, rest) = if first.starts_with("--") {
        ("driver", &args[..])
    } else {
        (first.as_str(), &args[1..])
    };
    let outcome = parse_options(rest).and_then(|mut o| match command {
        "driver" => run_driver(&o),
        "all" => run_untraced(&o),
        "traced" => run_traced(&o),
        "repeat" => run_repeat(&o),
        "list" => {
            for w in &WORKLOADS {
                println!("{:<14} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        "manifest" => {
            print!("{}", manifest().render());
            Ok(ExitCode::SUCCESS)
        }
        name if workload::find(name).is_some() => {
            o.workload = Some(name.to_string());
            run_untraced(&o)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sonuma-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
