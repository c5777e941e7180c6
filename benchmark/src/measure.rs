//! One untraced measurement of one workload: a set-up child, then timed
//! repetitions in fresh children, the output checks, and the end-to-end
//! metrics. End-to-end numbers always come from here, never from a
//! traced run.

use std::time::Instant;

use crate::child::{self, Variant};
use crate::metrics::{Summary, END_TO_END};
use crate::sut::{self, Json};
use crate::workload::Workload;

/// How long to keep repeating.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many repetitions.
    Reps(usize),
    /// Until this many seconds of repetitions have run, and at least
    /// [`MIN_TIMED_REPS`].
    Seconds(f64),
}

/// A median of fewer repetitions does not repeat within the bounds on
/// this two-core box (single drives of `shard1024-t2` range over 20 %).
pub const MIN_TIMED_REPS: usize = 3;

/// Fresh-process builds per measurement. One build is 10-40 ms, mostly
/// page faults, and too noisy alone.
const SETUP_BUILDS: usize = 15;

/// The paper's figures the repo holds as reference (DESIGN.md,
/// "Deviations from the paper"; Table 2 and Fig. 7 of the paper).
const PAPER_READ_RTT_NS: f64 = 300.0;
const PAPER_READ_MOPS: f64 = 10.9;
const PAPER_READ_GBPS: f64 = 77.0;
const PAPER_RDMA_RTT_NS: f64 = 1190.0;
const PAPER_RDMA_MOPS: f64 = 35.0;
const PAPER_RDMA_GBPS: f64 = 50.0;
const PAPER_TCP_MIN_SMALL_US: f64 = 40.0;
/// The paper says "< 2 Gbps"; the model peaks at 2.09 and the repo's own
/// `fig01::check` accepts up to 2.2, which is the pass mark used here.
const PAPER_TCP_MAX_GBPS: f64 = 2.2;

/// The anchors as simulated now, each beside the paper's value.
#[derive(Debug, Clone)]
pub struct AnchorView {
    /// `(what, simulated, paper)`.
    pub rows: Vec<(&'static str, f64, f64)>,
    pub err_max_pct: f64,
    pub tcp_small_us: f64,
    pub tcp_peak_gbps: f64,
    pub tcp_ok: bool,
}

impl AnchorView {
    fn new(a: &sut::Anchors) -> AnchorView {
        let rows = vec![
            (
                "soNUMA 64 B read RTT (ns)",
                a.read_rtt_ns,
                PAPER_READ_RTT_NS,
            ),
            ("soNUMA 64 B reads (Mops/s)", a.read_mops, PAPER_READ_MOPS),
            ("soNUMA 8 KB reads (Gbps)", a.read_gbps, PAPER_READ_GBPS),
            ("RDMA 64 B read RTT (ns)", a.rdma_rtt_ns, PAPER_RDMA_RTT_NS),
            ("RDMA small ops (Mops/s)", a.rdma_mops, PAPER_RDMA_MOPS),
            ("RDMA peak reads (Gbps)", a.rdma_gbps, PAPER_RDMA_GBPS),
        ];
        let err_max_pct = rows
            .iter()
            .map(|&(_, sim, paper)| (sim - paper).abs() / paper * 100.0)
            .fold(0.0, f64::max);
        let (tcp_small_us, tcp_peak_gbps) = (a.tcp_small_us, a.tcp_peak_gbps);
        AnchorView {
            rows,
            err_max_pct,
            tcp_small_us,
            tcp_peak_gbps,
            tcp_ok: tcp_small_us > PAPER_TCP_MIN_SMALL_US && tcp_peak_gbps < PAPER_TCP_MAX_GBPS,
        }
    }

    pub fn read_rtt_ns(&self) -> f64 {
        self.rows[0].1
    }

    pub fn read_mops(&self) -> f64 {
        self.rows[1].1
    }

    pub fn read_gbps(&self) -> f64 {
        self.rows[2].1
    }
}

/// Counts and simulated figures of the soNUMA run, identical in every
/// repetition.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Logical events summed over every backend the workload runs.
    pub events: u64,
    /// Operations the workload attempted on soNUMA (offered, or nodes x
    /// ops_per_node in a closed loop).
    pub attempted: u64,
    /// Operations that completed, with or without an error status.
    pub completed: u64,
    /// Completions with an error status (aborted by an injected fault).
    pub errors: u64,
    pub kv_corrupt: u64,
    /// Whether the workload's spec injects faults, so that aborted
    /// operations are an outcome it allows.
    pub injects_faults: bool,
    pub sim_ops_per_s: f64,
    pub sim_gbps: f64,
    pub sim_p50_ns: f64,
    pub sim_p99_ns: f64,
    /// Sum of the product's own `wall_construct_secs` over its backends.
    pub wall_construct_s: f64,
}

pub struct Measurement {
    pub workload: &'static Workload,
    pub seed: Option<u64>,
    pub reps: usize,
    /// `run_s` of each repetition, in the order they ran.
    pub run_s: Vec<f64>,
    /// One entry per [`END_TO_END`] row, in that order.
    pub values: Vec<(&'static str, Summary)>,
    pub failed_ops_ratio: f64,
    pub sim_digest: u64,
    pub facts: Facts,
    pub anchors: AnchorView,
    /// Operations whose outcome the workload does not allow: lost,
    /// corrupt, or failed where no fault was injected.
    pub unexpected_failures: u64,
    /// Output checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    /// Observations that are not violations.
    pub notes: Vec<String>,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn value(&self, name: &str) -> Summary {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
    }
}

/// FNV-1a of the report with every `wall_*` key and the `sharding`
/// section removed: two commits with equal digests have identical
/// simulated statistics.
pub fn sim_digest(doc: &Json) -> u64 {
    fn strip(doc: &Json) -> Json {
        match doc {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| !k.starts_with("wall_") && k != "sharding")
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in strip(doc).render().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reads [`Facts`] out of a scenario report and appends what the report
/// itself shows to be wrong.
fn scenario_facts(
    workload: &Workload,
    seed: Option<u64>,
    doc: &Json,
    violations: &mut Vec<String>,
) -> Facts {
    let runs = sut::report_runs(doc);
    let spec = workload.spec(seed).expect("scenario workload");
    let mut facts = Facts::default();
    for (i, run) in runs.iter().enumerate() {
        let backend = run.str_of("backend").unwrap_or("?");
        let u = |k: &str| run.u64_of(k).unwrap_or(0);
        let offered = u("offered_ops");
        let attempted = if offered > 0 {
            offered
        } else {
            spec.nodes as u64 * spec.ops_per_node
        };
        facts.events += u("events");
        facts.wall_construct_s += run.f64_of("wall_construct_secs").unwrap_or(0.0);
        let corrupt = run
            .get("kv")
            .and_then(|kv| kv.u64_of("corrupt"))
            .unwrap_or(0);
        if corrupt != 0 {
            violations.push(format!("{backend}: {corrupt} corrupt KV payloads"));
        }
        if u("ops") != attempted {
            violations.push(format!(
                "{backend}: {} operations completed or aborted of {attempted} attempted",
                u("ops")
            ));
        }
        let bound = run
            .get("sharding")
            .and_then(|s| s.u64_of("pair_bound_violations"))
            .unwrap_or(0);
        if bound != 0 {
            violations.push(format!(
                "{backend}: {bound} lookahead pair-bound violations"
            ));
        }
        if i == 0 {
            facts.attempted = attempted;
            facts.completed = u("ops");
            facts.errors = u("errors");
            facts.kv_corrupt = corrupt;
            facts.sim_ops_per_s = run.f64_of("ops_per_sec").unwrap_or(0.0);
            facts.sim_gbps = run.f64_of("gbps").unwrap_or(0.0);
            facts.sim_p50_ns = run.f64_of("lat_p50_ns").unwrap_or(0.0);
            facts.sim_p99_ns = run.f64_of("lat_p99_ns").unwrap_or(0.0);
        } else if u("errors") != 0 {
            violations.push(format!("{backend}: {} failed operations", u("errors")));
        }
    }
    facts.injects_faults = spec.faults.as_ref().is_some_and(|f| !f.is_empty());
    let expected = match (facts.injects_faults, seed) {
        (false, _) => Some(0),
        (true, None) => Some(workload.errors_at_default_seed),
        // Another seed draws another fault plan; its count is recorded,
        // and only has to repeat.
        (true, Some(_)) => None,
    };
    if let Some(expected) = expected.filter(|&e| e != facts.errors) {
        violations.push(format!(
            "{} aborted operations, expected {expected}",
            facts.errors
        ));
    }
    facts
}

/// Reads [`Facts`] out of a `paper-anchors` figures document. The
/// generic simulated columns hold the two ends of the Fig. 7 sweep.
fn anchor_facts(doc: &Json, anchors: &AnchorView, violations: &mut Vec<String>) -> Facts {
    let rows = |key: &str| -> Vec<Vec<f64>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .map(|r| {
                        r.as_arr()
                            .map(|v| v.iter().filter_map(Json::as_f64).collect())
                            .unwrap_or_default()
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (lat, bw) = (rows("fig7a_latency_ns"), rows("fig7b_bandwidth"));
    let points = doc.u64_of("points").unwrap_or(0);
    let (Some(small), Some(large), Some(bw_small)) = (lat.first(), lat.last(), bw.first()) else {
        violations.push("paper-anchors: empty Fig. 7 sweep".into());
        return Facts::default();
    };
    let peak_gbps = bw.iter().map(|r| r[1]).fold(0.0, f64::max);
    // Fig. 7 and Table 2 run the same microbenchmarks: they must agree.
    for (what, fig, table) in [
        ("64 B read RTT", small[1], anchors.read_rtt_ns()),
        ("64 B read rate", bw_small[2] / 1e6, anchors.read_mops()),
        (
            "8 KB read bandwidth",
            bw.last().map_or(0.0, |r| r[1]),
            anchors.read_gbps(),
        ),
    ] {
        // The figures document keeps six decimals.
        if (fig - table).abs() > table.abs() * 1e-6 {
            violations.push(format!(
                "paper-anchors: {what}: Fig. 7 {fig} vs Table 2 {table}"
            ));
        }
    }
    if lat.windows(2).any(|w| w[1][1] < w[0][1]) {
        violations.push("paper-anchors: Fig. 7a latency falls as size grows".into());
    }
    Facts {
        events: points,
        attempted: points,
        completed: points,
        sim_ops_per_s: bw_small[2],
        sim_gbps: peak_gbps,
        sim_p50_ns: small[1],
        sim_p99_ns: large[1],
        ..Facts::default()
    }
}

/// Runs one measurement. Errors are failures to run at all (a child that
/// died); wrong outputs come back as `violations`.
pub fn measure(
    workload: &'static Workload,
    seed: Option<u64>,
    budget: Budget,
) -> Result<Measurement, String> {
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    // The parent is idle while a child runs, so the anchors (0.1 s) can
    // be computed here without disturbing any timing.
    let anchors = AnchorView::new(&sut::anchors());
    let (mut builds, mut setups) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_BUILDS {
        let setup = child::spawn("child-setup", workload, seed, Variant::default())?;
        let build = setup.result.f64_of("build_s").unwrap_or(0.0);
        builds.push(build);
        setups.push(build + setup.result.f64_of("preload_s").unwrap_or(0.0));
    }
    if !anchors.tcp_ok {
        violations.push(format!(
            "TCP anchor: {:.1} us small-message latency, {:.2} Gbps peak (pass: > 40 us, < 2.2 Gbps)",
            anchors.tcp_small_us, anchors.tcp_peak_gbps
        ));
    }

    let started = Instant::now();
    let (mut run_s, mut rss) = (Vec::new(), Vec::new());
    let mut first: Option<(Json, u64, Facts)> = None;
    loop {
        let done = run_s.len();
        let more = match budget {
            Budget::Reps(n) => done < n.max(1),
            Budget::Seconds(s) => done < MIN_TIMED_REPS || started.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        let rep = child::spawn("child-drive", workload, seed, Variant::default())?;
        let doc = Json::parse(&rep.report).map_err(|e| format!("rep {done}: report: {e}"))?;
        if let Some(msg) = rep.result.str_of("validation").filter(|m| !m.is_empty()) {
            violations.push(format!("rep {done}: validate_report: {msg}"));
        }
        run_s.push(rep.result.f64_of("run_s").unwrap_or(0.0));
        rss.push(rep.result.f64_of("peak_rss_bytes").unwrap_or(0.0));
        let digest = sim_digest(&doc);
        match &first {
            None => {
                let facts = if workload.toml.is_some() {
                    scenario_facts(workload, seed, &doc, &mut violations)
                } else {
                    anchor_facts(&doc, &anchors, &mut violations)
                };
                first = Some((doc, digest, facts));
            }
            Some((first_doc, first_digest, _)) => {
                if workload.toml.is_some() {
                    for diff in sut::equivalence_diff(first_doc, &doc) {
                        violations.push(format!("rep {done} differs from rep 0: {diff}"));
                    }
                }
                if digest != *first_digest {
                    violations.push(format!(
                        "rep {done}: sim_digest {digest:016x} != rep 0's {first_digest:016x}"
                    ));
                }
            }
        }
    }
    let (report, digest, facts) = first.expect("at least one repetition");

    let setup_s = Summary::of(&setups);
    // The product times its own first build in each timed child; the
    // set-up child's median should be the same order of magnitude.
    // (Single-backend workloads only: in a run, later backends are built
    // on heap the first one freed.)
    if sut::report_runs(&report).len() == 1 {
        let build = crate::metrics::median(&builds);
        let ratio = build / facts.wall_construct_s.max(1e-9);
        if !(0.5..=2.0).contains(&ratio) {
            notes.push(format!(
                "set-up median build {build:.4} s vs the run's wall_construct_secs {:.4} s (x{ratio:.2})",
                facts.wall_construct_s
            ));
        }
    }
    let run = Summary::of(&run_s);
    let events_per_s: Vec<f64> = run_s.iter().map(|s| facts.events as f64 / s).collect();
    let failed =
        facts.errors + facts.kv_corrupt + (facts.attempted - facts.completed.min(facts.attempted));
    let failed_ops_ratio = failed as f64 / facts.attempted.max(1) as f64;
    let unexpected_failures = if facts.injects_faults {
        failed - facts.errors
    } else {
        failed
    };
    if facts.attempted == 0 {
        violations.push("no operation was attempted".into());
    }

    let value_of = |name: &str| match name {
        "setup_s" => setup_s,
        "run_s" => run,
        "events_per_s" => Summary::of(&events_per_s),
        "peak_rss_bytes" => Summary::of(&rss),
        "sim_ops_per_s" => Summary::exact(facts.sim_ops_per_s),
        "sim_gbps" => Summary::exact(facts.sim_gbps),
        "sim_p50_ns" => Summary::exact(facts.sim_p50_ns),
        "sim_p99_ns" => Summary::exact(facts.sim_p99_ns),
        "ok_ops_ratio" => Summary::exact(1.0 - failed_ops_ratio),
        "anchor_read_rtt_ns" => Summary::exact(anchors.read_rtt_ns()),
        "anchor_read_mops" => Summary::exact(anchors.read_mops()),
        "anchor_read_gbps" => Summary::exact(anchors.read_gbps()),
        "anchor_err_max_pct" => Summary::exact(anchors.err_max_pct),
        other => panic!("end-to-end metric {other} has no definition"),
    };
    let values = END_TO_END
        .iter()
        .map(|m| (m.name, value_of(m.name)))
        .collect();

    Ok(Measurement {
        workload,
        seed,
        reps: run_s.len(),
        run_s,
        values,
        failed_ops_ratio,
        sim_digest: digest,
        facts,
        anchors,
        unexpected_failures,
        violations,
        notes,
    })
}
