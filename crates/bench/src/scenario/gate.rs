//! The baseline gate: compares a fresh report against a checked-in one.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::time::Instant;

use super::REPORT_SCHEMA;
use crate::json::Json;

/// One calibration event: ordered by `(time_ps, seq)` alone, earliest
/// first out of a max-heap.
struct Scheduled(Reverse<(u64, u64)>, Box<dyn FnOnce(&mut u64)>);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// Measures this machine's single-core event throughput: a heap of boxed
/// closures draining a fixed pseudorandom 100k-event workload (best of
/// three). Reports store this next to their absolute events/sec so
/// [`check_baseline`] can compare runs from different machines by the
/// *ratio* to the host's own calibration instead of raw wall-clock rates.
/// Std-only on purpose: built on `EventEngine`, the divisor would move
/// with the code it gates.
pub fn calibrate() -> f64 {
    const N: u64 = 100_000;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let started = Instant::now();
        let mut queue = BinaryHeap::new();
        let mut acc = 0u64;
        let mut seed = 0x243F_6A88_85A3_08D3u64;
        for seq in 0..N {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let salt = seed;
            queue.push(Scheduled(
                Reverse((seed % 5_000_000_000, seq)),
                Box::new(move |w: &mut u64| *w = w.wrapping_add(salt)),
            ));
        }
        while let Some(Scheduled(_, event)) = queue.pop() {
            event(&mut acc);
        }
        assert_ne!(acc, 0);
        best = best.max(N as f64 / started.elapsed().as_secs_f64());
    }
    best
}

/// Outcome of comparing a fresh report against a checked-in baseline.
#[derive(Debug, Default)]
pub struct BaselineCheck {
    /// `(scenario, backend)` pairs that regressed, with details.
    pub failures: Vec<String>,
    /// Informational lines (sim-metric drift, missing counterparts).
    pub notes: Vec<String>,
}

/// Pairs whose baseline executed fewer events than this are too short for
/// a meaningful wall-clock rate (sub-10 ms runs are scheduler noise); they
/// are excluded from per-pair rate gating but still count toward the
/// aggregate.
pub const MIN_GATED_EVENTS: u64 = 100_000;

/// How a [`Rule`] compares the current value with the baseline's. Every
/// comparator is *armed* by the baseline (the key is present and passes
/// the floor named below); an armed key the current report lacks fails.
enum Cmp {
    /// Host rate, higher is better: divided by each host's calibration,
    /// it may fall at most `max_regress` below the baseline. Armed for a
    /// positive baseline rate on pairs with [`MIN_GATED_EVENTS`] events.
    WallRate,
    /// Host seconds, lower is better: multiplied by each host's
    /// calibration (mirroring the rates), they may exceed the baseline by
    /// at most `max_regress`. Armed from `min` baseline seconds up —
    /// shorter spans are scheduler noise.
    WallSecs { min: f64 },
    /// Simulated value: relative drift beyond `rel` is a note (the
    /// baseline wants regenerating), never a failure.
    Drift { rel: f64 },
    /// May drop at most this much (absolute) below the baseline.
    DropAtMost(f64),
    /// May grow to at most `base * (1 + rel) + abs`. Armed for a positive
    /// baseline (an empty histogram reports 0; nothing to gate).
    GrowAtMost { rel: f64, abs: f64 },
    /// Must be zero, whatever the baseline says.
    Zero,
    /// `true` in the baseline must still be `true`.
    StaysTrue,
    /// Where the baseline keeps this value below the one at `than`, the
    /// current report must too. Armed only where the baseline exhibits
    /// the order: a uniform-weight scenario legitimately reports equal
    /// tails.
    StaysBelow { than: &'static str },
}

/// One gated value: where it lives in a run, what to call it in a
/// message, and how it is compared.
struct Rule {
    /// The run section holding it (`""`: the run object itself). A
    /// section the baseline run has and the current run lost — injection
    /// or the KV plane silently disabled — fails once, for all its rules.
    section: &'static str,
    /// Dotted path below the section. `rows[key=v]` picks the element of
    /// array `rows` whose `key` is `v`; `rows[key]` fans out over every
    /// baseline row, pairing current rows by equal `key`.
    path: &'static str,
    what: &'static str,
    cmp: Cmp,
}

const fn rule(section: &'static str, path: &'static str, what: &'static str, cmp: Cmp) -> Rule {
    Rule {
        section,
        path,
        what,
        cmp,
    }
}

/// Everything [`check_baseline`] gates, per `(scenario, backend)` pair:
/// wall-clock throughput and construction (the `bench-smoke` lane), fault
/// physics (`fault-matrix`) and the KV service (`kv-matrix`). The fault
/// and KV slack is 25 % plus one 1 µs bin of quantization on times, 0.02
/// absolute on delivered fractions.
const RULES: &[Rule] = &[
    rule("", "wall_events_per_sec", "events/sec", Cmp::WallRate),
    // The batching-invariant fabric hot-path gate (fabric-backed pairs).
    rule("", "wall_packets_per_sec", "packets/sec", Cmp::WallRate),
    // Parallel world construction gates independently of drive time.
    rule(
        "",
        "wall_construct_secs",
        "construct time",
        Cmp::WallSecs { min: 0.05 },
    ),
    rule("", "sim_us", "simulated time", Cmp::Drift { rel: 1e-9 }),
    rule(
        "faults",
        "recovered",
        "goodput recovery to 90% of the pre-fault rate",
        Cmp::StaysTrue,
    ),
    rule(
        "faults",
        "recovery_us",
        "recovery time",
        Cmp::GrowAtMost {
            rel: 0.25,
            abs: 1.0,
        },
    ),
    rule(
        "faults",
        "goodput_fraction",
        "goodput under failure",
        Cmp::DropAtMost(0.02),
    ),
    rule(
        "faults",
        "gold_p99_ns",
        "SLO isolation under failure",
        Cmp::StaysBelow {
            than: "bronze_p99_ns",
        },
    ),
    rule(
        "kv",
        "corrupt",
        "corrupt GET responses (value verification failed)",
        Cmp::Zero,
    ),
    rule(
        "kv",
        "achieved_fraction",
        "achieved throughput",
        Cmp::DropAtMost(0.02),
    ),
    rule(
        "kv",
        "classes[bytes].get_p99_ns",
        "GET p99",
        Cmp::GrowAtMost {
            rel: 0.25,
            abs: 1_000.0,
        },
    ),
    rule(
        "kv",
        "slo[class=gold].lat_p99_ns",
        "KV SLO isolation",
        Cmp::StaysBelow {
            than: "slo[class=bronze].lat_p99_ns",
        },
    ),
];

/// What one rule found on one value.
enum Finding {
    Failure(String),
    Note(String),
}

/// Host context of one comparison: calibration divisors (1.0 each for the
/// absolute fallback), the wall-clock budget, and whether the pair ran
/// long enough for its wall rates to mean anything.
struct Host {
    cur_calib: f64,
    base_calib: f64,
    max_regress: f64,
    rates_gated: bool,
}

impl Cmp {
    /// Compares `cur` against `base`, found at the same path below
    /// `cur_obj` and `base_obj`; `None` when the rule is unarmed or holds.
    fn judge(
        &self,
        host: &Host,
        (base, base_obj): (&Json, &Json),
        (cur, cur_obj): (Option<&Json>, &Json),
    ) -> Option<Finding> {
        let fail = |msg: String| Some(Finding::Failure(msg));
        let missing = || fail("is gated by the baseline and missing from the current run".into());
        if let Cmp::StaysTrue = self {
            return match (base, cur) {
                (Json::Bool(true), None) => missing(),
                (Json::Bool(true), Some(c)) if *c != Json::Bool(true) => {
                    fail("no longer holds".into())
                }
                _ => None,
            };
        }
        let b = base.as_f64()?;
        let peer = |obj: &Json, than: &str| resolve(obj, than).first()?.1.as_f64();
        let armed = match *self {
            Cmp::WallRate => host.rates_gated && b > 0.0,
            Cmp::WallSecs { min } => b >= min,
            Cmp::GrowAtMost { .. } => b > 0.0,
            Cmp::StaysBelow { than } => peer(base_obj, than).is_some_and(|p| b < p),
            _ => true,
        };
        if !armed {
            return None;
        }
        let Some(c) = cur.and_then(Json::as_f64) else {
            return missing();
        };
        let budget = host.max_regress * 100.0;
        let (verdict, holds) = match *self {
            Cmp::WallRate => {
                let (c, b) = (c / host.cur_calib, b / host.base_calib);
                let floor = b * (1.0 - host.max_regress);
                let msg = format!(
                    "{c:.3} x-calibration < {floor:.3} (baseline {b:.3}, max regression {budget:.0}%)"
                );
                (msg, c >= floor)
            }
            Cmp::WallSecs { .. } => {
                let (c, b) = (c * host.cur_calib, b * host.base_calib);
                let ceiling = b * (1.0 + host.max_regress);
                let msg = format!(
                    "{c:.3e} x-calibration > {ceiling:.3e} (baseline {b:.3e}, max regression {budget:.0}%)"
                );
                (msg, c <= ceiling)
            }
            Cmp::Drift { rel } => {
                let msg = format!(
                    "drifted ({b:.3} -> {c:.3}); regenerate bench/baseline.json if intended"
                );
                return ((c - b).abs() > b * rel).then_some(Finding::Note(msg));
            }
            Cmp::DropAtMost(abs) => {
                let floor = b - abs;
                let msg = format!("{c:.4} < {floor:.4} (baseline {b:.4} - {abs})");
                (msg, c >= floor)
            }
            Cmp::GrowAtMost { rel, abs } => {
                let ceiling = b * (1.0 + rel) + abs;
                let pct = rel * 100.0;
                let msg =
                    format!("{c:.1} > {ceiling:.1} (baseline {b:.1} + {pct:.0}% + {abs} slack)");
                (msg, c <= ceiling)
            }
            Cmp::Zero => (format!("{c} (must be 0)"), c == 0.0),
            Cmp::StaysBelow { than } => match peer(cur_obj, than) {
                Some(p) => (
                    format!("{c:.0} >= {p:.0} at {than}: isolation broke"),
                    c < p,
                ),
                None => return missing(),
            },
            Cmp::StaysTrue => unreachable!("handled above"),
        };
        (!holds).then_some(Finding::Failure(verdict))
    }
}

/// A scalar as a path selector compares it: strings bare, anything else
/// as rendered.
fn scalar_text(v: &Json) -> String {
    v.as_str()
        .map_or_else(|| v.render().trim_end().to_string(), str::to_string)
}

/// Every value at `path` below `obj`, as `(concrete path, value)` — see
/// [`Rule::path`] for the syntax. Absent members yield nothing.
fn resolve<'a>(obj: &'a Json, path: &str) -> Vec<(String, &'a Json)> {
    let mut found = vec![(String::new(), obj)];
    for step in path.split('.') {
        let mut next = Vec::new();
        for (prefix, o) in found {
            let dot = if prefix.is_empty() { "" } else { "." };
            let Some((rows, sel)) = step.strip_suffix(']').and_then(|s| s.split_once('[')) else {
                next.extend(o.get(step).map(|v| (format!("{prefix}{dot}{step}"), v)));
                continue;
            };
            let (key, want) = sel
                .split_once('=')
                .map_or((sel, None), |(k, v)| (k, Some(v)));
            for row in o.get(rows).and_then(Json::as_arr).into_iter().flatten() {
                let Some(id) = row.get(key).map(scalar_text) else {
                    continue;
                };
                if want.is_none_or(|w| w == id) {
                    next.push((format!("{prefix}{dot}{rows}[{key}={id}]"), row));
                }
            }
        }
        found = next;
    }
    found
}

/// `((scenario, backend), run)` for every run of a report, in order.
fn runs(doc: &Json) -> Vec<((&str, &str), &Json)> {
    let scenarios = doc.get("scenarios").and_then(Json::as_arr);
    let mut out = Vec::new();
    for sc in scenarios.into_iter().flatten() {
        let name = sc.get("spec").and_then(|s| s.str_of("name")).unwrap_or("?");
        for run in sc.get("runs").and_then(Json::as_arr).into_iter().flatten() {
            out.push(((name, run.str_of("backend").unwrap_or("?")), run));
        }
    }
    out
}

/// The host calibration embedded in a report, if present and sane.
fn calibration_of(doc: &Json) -> Option<f64> {
    doc.get("calibration")
        .and_then(|c| c.f64_of("wall_boxed_events_per_sec"))
        .filter(|&x| x > 0.0)
}

/// Gates `current` against `baseline`: one pass over the baseline's
/// `(scenario, backend)` pairs, applying every row of the rule table to each —
/// the single check behind the `bench-smoke`, `fault-matrix` and
/// `kv-matrix` CI lanes.
///
/// When both reports embed a host calibration (see [`calibrate`]), wall
/// figures are compared *relative to each host's calibration*, so a
/// baseline recorded on one machine meaningfully gates a run on another;
/// without calibration the comparison falls back to absolute figures
/// (noted). `max_regress` (e.g. `0.20`) is the wall-clock budget.
///
/// Beyond the rule table: a baseline pair with no current run fails; the
/// aggregate `Σ events / Σ wall_secs` across every matched pair — the
/// overall typed-engine throughput — gets the same budget as the
/// per-pair rates; and current runs with no baseline counterpart (not
/// gated at all) are noted, since that means the baseline wants
/// regenerating.
pub fn check_baseline(current: &Json, baseline: &Json, max_regress: f64) -> BaselineCheck {
    let mut check = BaselineCheck::default();
    // A stale baseline fails loudly with the fix, not with a cascade of
    // missing-field errors: the schema version must match the binary's.
    match baseline.str_of("schema") {
        Some(REPORT_SCHEMA) => {}
        other => {
            check.failures.push(format!(
                "baseline schema {} does not match this binary's {REPORT_SCHEMA:?}; \
                 regenerate it with `sonuma-bench baseline --regen`",
                other.map_or("<missing>".to_string(), |s| format!("{s:?}"))
            ));
            return check;
        }
    }
    let (cur_calib, base_calib) = match (calibration_of(current), calibration_of(baseline)) {
        (Some(c), Some(b)) => (c, b),
        _ => {
            check.notes.push(
                "no calibration on one or both reports; comparing absolute \
                 events/sec (hardware differences count as regressions)"
                    .to_string(),
            );
            (1.0, 1.0)
        }
    };
    let cur_runs = runs(current);
    let base_runs = runs(baseline);
    let (mut base_events, mut base_wall) = (0.0f64, 0.0f64);
    let (mut cur_events, mut cur_wall) = (0.0f64, 0.0f64);
    for &(pair, base) in &base_runs {
        let pair_name = format!("{}/{}", pair.0, pair.1);
        let Some(&(_, cur)) = cur_runs.iter().find(|(p, _)| *p == pair) else {
            check
                .failures
                .push(format!("{pair_name}: present in baseline, missing in run"));
            continue;
        };
        let events = base.f64_of("events").unwrap_or(0.0);
        base_events += events;
        base_wall += base.f64_of("wall_secs").unwrap_or(0.0);
        cur_events += cur.f64_of("events").unwrap_or(0.0);
        cur_wall += cur.f64_of("wall_secs").unwrap_or(0.0);
        let host = Host {
            cur_calib,
            base_calib,
            max_regress,
            rates_gated: events >= MIN_GATED_EVENTS as f64,
        };
        if !host.rates_gated {
            check.notes.push(format!(
                "{pair_name}: only {events:.0} events in baseline, below the \
                 {MIN_GATED_EVENTS} gating floor; counted in the aggregate only"
            ));
        }
        let mut lost: Vec<&str> = Vec::new();
        for rule in RULES {
            let (base_obj, cur_obj) = if rule.section.is_empty() {
                (base, cur)
            } else {
                let Some(base_obj) = base.get(rule.section) else {
                    continue;
                };
                let Some(cur_obj) = cur.get(rule.section) else {
                    if !lost.contains(&rule.section) {
                        lost.push(rule.section);
                        check.failures.push(format!(
                            "{pair_name}: baseline has a {} section, current run does not",
                            rule.section
                        ));
                    }
                    continue;
                };
                (base_obj, cur_obj)
            };
            let cur_vals = resolve(cur_obj, rule.path);
            for (at, base_val) in resolve(base_obj, rule.path) {
                let cur_val = cur_vals.iter().find(|(a, _)| *a == at).map(|&(_, v)| v);
                let line = |msg| format!("{pair_name}: {} ({at}) {msg}", rule.what);
                match rule
                    .cmp
                    .judge(&host, (base_val, base_obj), (cur_val, cur_obj))
                {
                    Some(Finding::Failure(msg)) => check.failures.push(line(msg)),
                    Some(Finding::Note(msg)) => check.notes.push(line(msg)),
                    None => {}
                }
            }
        }
    }
    for &(pair, _) in &cur_runs {
        if !base_runs.iter().any(|(p, _)| *p == pair) {
            check.notes.push(format!(
                "{}/{}: not in baseline, nothing gated; regenerate \
                 bench/baseline.json to cover it",
                pair.0, pair.1
            ));
        }
    }
    if base_wall > 0.0 && cur_wall > 0.0 {
        let base_agg = base_events / base_wall / base_calib;
        let cur_agg = cur_events / cur_wall / cur_calib;
        let floor = base_agg * (1.0 - max_regress);
        if cur_agg < floor {
            check.failures.push(format!(
                "aggregate: {cur_agg:.3} x-calibration events/sec < {floor:.3} \
                 (baseline {base_agg:.3}, max regression {:.0}%)",
                max_regress * 100.0
            ));
        }
    }
    check
}

#[cfg(test)]
mod tests {
    #[test]
    fn calibration_is_a_finite_positive_rate() {
        let rate = super::calibrate();
        assert!(rate.is_finite() && rate > 0.0, "{rate}");
    }
}
