//! Child processes. Every set-up series and every timed repetition runs
//! in a fresh child of this same binary, one after another, so each
//! starts from a clean allocator and reports its own peak resident set.
//!
//! A child prints `REPORT <bytes>\n`, that many bytes of rendered report,
//! then `RESULT <one-line JSON>\n`.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::sut::{self, num, obj, Json};
use crate::workload::{self, Workload, PAPER_ANCHORS};

/// What a child was asked to do beyond its workload and seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// Overrides the spec's `[execution] threads`.
    pub threads: Option<usize>,
    /// Arms the product's flight recorder at 5 µs.
    pub armed: bool,
}

pub struct ChildOutput {
    pub report: String,
    pub result: Json,
}

/// Runs `mode` (`child-setup`, `child-drive` or `child-staged`) in a fresh
/// process and waits for it.
pub fn spawn(
    mode: &str,
    workload: &Workload,
    seed: Option<u64>,
    variant: Variant,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(mode).arg("--workload").arg(workload.name);
    if let Some(seed) = seed {
        cmd.arg("--seed").arg(seed.to_string());
    }
    if let Some(threads) = variant.threads {
        cmd.arg("--threads").arg(threads.to_string());
    }
    if variant.armed {
        cmd.arg("--armed");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {mode}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} {} ended with {}",
            workload.name, out.status
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("{mode} output: {e}"))?;
    parse_output(&text).ok_or_else(|| format!("{mode} {} printed no result", workload.name))
}

fn parse_output(text: &str) -> Option<ChildOutput> {
    let rest = text.strip_prefix("REPORT ")?;
    let (len, rest) = rest.split_once('\n')?;
    let len: usize = len.parse().ok()?;
    let report = rest.get(..len)?.to_string();
    let result = rest.get(len..)?.trim().strip_prefix("RESULT ")?;
    Some(ChildOutput {
        report,
        result: Json::parse(result).ok()?,
    })
}

/// Prints the report and the result line and ends the process. Numbers
/// go out with every digit Rust has for them (the product's own JSON
/// renderer keeps six decimals, which would round a 100 us build to two
/// digits).
pub fn emit(report: &str, numbers: &[(&str, f64)], validation: &str) -> ! {
    let mut line = String::from("{");
    for (key, value) in numbers {
        line.push_str(&format!("\"{key}\": {value}, "));
    }
    line.push_str(&format!("\"validation\": {:?}}}", validation));
    println!("REPORT {}\n{report}RESULT {line}", report.len());
    // The machine is not torn down: the numbers are out, and freeing a
    // gigabyte of simulator state would only delay the next repetition.
    std::process::exit(0);
}

/// Pins glibc's mmap threshold as the product's own CLI does before it
/// builds a machine, so the benchmark times what a CLI user gets: without
/// it the threshold adapts upward after the first machine is freed and
/// later builds memset gigabytes of recycled heap that are never read.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
    }
    const M_MMAP_THRESHOLD: core::ffi::c_int = -3;
    const M_MMAP_MAX: core::ffi::c_int = -4;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, touches only allocator parameters, and is called
    // here before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 10);
        mallopt(M_MMAP_MAX, 1 << 22);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_mmap_threshold() {}

/// Peak resident set (`VmHWM`) of this process in bytes; 0 where
/// `/proc/self/status` does not exist.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// `child-setup`: builds the workload's machine once, as every timed
/// child does before it drives, and prints the seconds it took. A fresh
/// process per build is what a user pays: a second build in one process
/// gets recycled heap and takes twice as long.
pub fn setup_main(workload: &Workload, seed: Option<u64>) -> ! {
    pin_mmap_threshold();
    let t = Instant::now();
    let (build, preload) = match workload.spec(seed) {
        Some(spec) => {
            let mut machines = sut::build_machines(&spec);
            let build = t.elapsed().as_secs_f64();
            sut::kv_preload(&spec, &mut machines);
            let total = t.elapsed().as_secs_f64();
            std::mem::forget(machines);
            (build, total - build)
        }
        None => {
            sut::build_anchor_systems();
            (t.elapsed().as_secs_f64(), 0.0)
        }
    };
    emit("", &[("build_s", build), ("preload_s", preload)], "")
}

fn anchors_json(a: &sut::Anchors) -> Json {
    obj(vec![
        ("read_rtt_ns", num(a.read_rtt_ns)),
        ("read_mops", num(a.read_mops)),
        ("read_gbps", num(a.read_gbps)),
        ("rdma_rtt_ns", num(a.rdma_rtt_ns)),
        ("rdma_mops", num(a.rdma_mops)),
        ("rdma_gbps", num(a.rdma_gbps)),
        ("tcp_small_us", num(a.tcp_small_us)),
        ("tcp_peak_gbps", num(a.tcp_peak_gbps)),
    ])
}

/// `child-drive`: one timed repetition.
pub fn drive_main(workload: &Workload, seed: Option<u64>, variant: Variant) -> ! {
    pin_mmap_threshold();
    let Some(mut spec) = workload.spec(seed) else {
        drive_anchors()
    };
    if let Some(threads) = variant.threads {
        spec.threads = threads;
    }
    if variant.armed {
        sut::arm_trace(&mut spec);
    }
    let out = sut::run_once(&spec);
    let numbers = [
        ("run_s", out.total_s()),
        ("run_spec_s", out.run_spec_s),
        ("report_build_s", out.report_build_s),
        ("render_s", out.render_s),
        ("validate_s", out.validate_s),
        ("peak_rss_bytes", peak_rss_bytes() as f64),
    ];
    emit(
        &out.text,
        &numbers,
        &out.validation.err().unwrap_or_default(),
    )
}

/// One pass over everything `paper-anchors` runs: Table 2 and Fig. 1
/// (the anchors proper) and the two Fig. 7 sweeps. The "report" is the
/// figures themselves, so the digest pins every simulated value.
fn drive_anchors() -> ! {
    let started = Instant::now();
    let a = sut::anchors();
    let fig7 = sut::fig7_sweeps();
    let run_s = started.elapsed().as_secs_f64();
    let pairs = |rows: Vec<Vec<f64>>| {
        Json::Arr(
            rows.into_iter()
                .map(|r| Json::Arr(r.into_iter().map(num).collect()))
                .collect(),
        )
    };
    let doc = obj(vec![
        ("workload", Json::Str(PAPER_ANCHORS.into())),
        ("anchors", anchors_json(&a)),
        (
            "fig7a_latency_ns",
            pairs(
                fig7.latency_ns
                    .iter()
                    .map(|&(size, ns)| vec![size as f64, ns])
                    .collect(),
            ),
        ),
        (
            "fig7b_bandwidth",
            pairs(
                fig7.bandwidth
                    .iter()
                    .map(|&(size, gbps, iops)| vec![size as f64, gbps, iops])
                    .collect(),
            ),
        ),
        // Table 2 (3 columns x 4) and Fig. 1 (21 rows x 2) plus Fig. 7.
        ("points", num((12 + 42 + fig7.points) as f64)),
    ]);
    let numbers = [
        ("run_s", run_s),
        ("peak_rss_bytes", peak_rss_bytes() as f64),
    ];
    emit(&doc.render(), &numbers, "")
}

/// Runs `mode` and ends the process if it is a child mode; returns
/// otherwise.
pub fn dispatch(mode: &str, args: &[String]) {
    if !["child-setup", "child-drive", "child-staged"].contains(&mode) {
        return;
    }
    let mut name = None;
    let mut seed = None;
    let mut variant = Variant::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => name = it.next().cloned(),
            "--seed" => {
                seed = it
                    .next()
                    .map(|s| s.parse().expect("child: --seed is a number"))
            }
            "--threads" => {
                variant.threads = it
                    .next()
                    .map(|s| s.parse().expect("child: --threads is a number"))
            }
            "--armed" => variant.armed = true,
            other => panic!("child: unknown argument {other}"),
        }
    }
    let workload = name
        .as_deref()
        .and_then(workload::find)
        .expect("child: --workload names a workload");
    match mode {
        "child-setup" => setup_main(workload, seed),
        "child-staged" => crate::traced::staged_main(workload, seed),
        _ => drive_main(workload, seed, variant),
    }
}
