//! Reporting: renders executed scenarios as the versioned `BENCH.json`
//! document, validates a parsed document against that schema, and diffs
//! two documents for simulated equivalence.

use sonuma_core::{PipelineStats, SloClass};
use sonuma_sim::stats::LatencyHistogram;
use sonuma_sim::SimTime;

use super::drive::{BackendRun, FabricSummary, FaultOutcome, KvOutcome, ScenarioResult};
use super::REPORT_SCHEMA;
use crate::json::Json;

/// How many per-tenant detail rows a report includes (lowest ids first).
/// The truncation is explicit (`detail_shown` / `detail_truncated`), and
/// the fairness index and per-class aggregates always cover every
/// tenant — only the row dump is capped, so thousand-tenant reports stay
/// reviewable.
pub const MAX_REPORTED_TENANTS: usize = 64;

fn stats_json(stats: &PipelineStats) -> Json {
    Json::Obj(
        stats
            .rows()
            .iter()
            .map(|&(name, value)| (name.to_string(), Json::Num(value as f64)))
            .collect(),
    )
}

/// The `{prefix}_p50_ns` .. `{prefix}_mean_ns` members of a histogram,
/// in report order (`p999` only where the report carries it).
fn latency_json(prefix: &str, hist: &LatencyHistogram, p999: bool) -> Vec<(String, Json)> {
    let ns = |t: SimTime| Json::Num(t.as_ns_f64());
    let mut members = vec![
        (format!("{prefix}_p50_ns"), ns(hist.percentile(0.50))),
        (format!("{prefix}_p99_ns"), ns(hist.percentile(0.99))),
    ];
    if p999 {
        members.push((format!("{prefix}_p999_ns"), ns(hist.percentile(0.999))));
    }
    members.push((format!("{prefix}_mean_ns"), ns(hist.mean())));
    members
}

/// One row per SLO class the run has tenants of: tenant count, offered
/// and completed operations (with their ratio in the `kv` section) and
/// the class's latency members.
fn class_rows(run: &BackendRun, achieved: bool) -> Vec<Json> {
    let mut rows = Vec::new();
    for class in [SloClass::Gold, SloClass::Silver, SloClass::Bronze] {
        let Some(hist) = run.class_histogram(class) else {
            continue;
        };
        let (mut count, mut offered, mut ops) = (0u64, 0u64, 0u64);
        for t in run.tenants.iter().filter(|t| t.class == class) {
            count += 1;
            offered += t.offered;
            ops += t.ops;
        }
        let mut members = vec![
            ("class".to_string(), Json::Str(class.as_str().into())),
            ("tenants".to_string(), Json::Num(count as f64)),
            ("offered_ops".to_string(), Json::Num(offered as f64)),
            ("ops".to_string(), Json::Num(ops as f64)),
        ];
        if achieved {
            let fraction = if offered > 0 {
                ops as f64 / offered as f64
            } else {
                0.0
            };
            members.push(("achieved_fraction".to_string(), Json::Num(fraction)));
        }
        members.extend(latency_json("lat", &hist, true));
        rows.push(Json::Obj(members));
    }
    rows
}

/// The `per_tenant` report section: achieved-vs-offered fairness (Jain's
/// index over each tenant's delivered fraction), per-SLO-class latency
/// aggregates, and the full per-tenant table.
fn per_tenant_json(run: &BackendRun) -> Json {
    let jain = run.jain_fairness();
    let classes = class_rows(run, false);
    let tenants = run
        .tenants
        .iter()
        .take(MAX_REPORTED_TENANTS)
        .map(|t| {
            let mut members = vec![
                ("tenant".to_string(), Json::Num(t.tenant as f64)),
                ("node".to_string(), Json::Num(t.node as f64)),
                ("class".to_string(), Json::Str(t.class.as_str().into())),
                ("weight".to_string(), Json::Num(t.weight as f64)),
                ("offered_ops".to_string(), Json::Num(t.offered as f64)),
                ("ops".to_string(), Json::Num(t.ops as f64)),
                ("errors".to_string(), Json::Num(t.errors as f64)),
            ];
            members.extend(latency_json("lat", &t.hist, true));
            Json::Obj(members)
        })
        .collect();
    let shown = run.tenants.len().min(MAX_REPORTED_TENANTS);
    Json::Obj(vec![
        ("tenants".to_string(), Json::Num(run.tenants.len() as f64)),
        ("jain_fairness".to_string(), Json::Num(jain)),
        ("classes".to_string(), Json::Arr(classes)),
        ("detail_shown".to_string(), Json::Num(shown as f64)),
        (
            "detail_truncated".to_string(),
            Json::Bool(run.tenants.len() > shown),
        ),
        ("detail".to_string(), Json::Arr(tenants)),
    ])
}

fn fabric_json(fabric: &FabricSummary) -> Json {
    Json::Obj(vec![
        ("bytes".to_string(), Json::Num(fabric.bytes as f64)),
        ("packets".to_string(), Json::Num(fabric.packets as f64)),
        (
            "credit_stalls".to_string(),
            Json::Num(fabric.credit_stalls as f64),
        ),
        (
            "lane_packets".to_string(),
            Json::Arr(
                fabric
                    .lane_packets
                    .iter()
                    .map(|&p| Json::Num(p as f64))
                    .collect(),
            ),
        ),
        (
            "links_observed".to_string(),
            Json::Num(fabric.links_observed as f64),
        ),
        (
            "hot_links".to_string(),
            Json::Arr(
                fabric
                    .hot_links
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("src".to_string(), Json::Num(l.src.0 as f64)),
                            ("dst".to_string(), Json::Num(l.dst.0 as f64)),
                            ("bytes".to_string(), Json::Num(l.bytes as f64)),
                            ("packets".to_string(), Json::Num(l.packets as f64)),
                            (
                                "credit_stalls".to_string(),
                                Json::Num(l.credit_stalls as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// How many 1 µs goodput bins a report includes (fault runs only). The
/// recovery metrics always cover every bin; only the raw dump is capped.
pub const MAX_REPORTED_BINS: usize = 256;

fn fault_json(f: &FaultOutcome, bins: &[u64]) -> Json {
    let mut members = vec![
        (
            "links_degraded".to_string(),
            Json::Num(f.links_degraded as f64),
        ),
        ("links_killed".to_string(), Json::Num(f.links_killed as f64)),
        (
            "nodes_crashed".to_string(),
            Json::Num(f.nodes_crashed as f64),
        ),
        ("dropped".to_string(), Json::Num(f.dropped as f64)),
        ("corrupted".to_string(), Json::Num(f.corrupted as f64)),
        ("rerouted".to_string(), Json::Num(f.rerouted as f64)),
        ("unreachable".to_string(), Json::Num(f.unreachable as f64)),
        ("crashes".to_string(), Json::Num(f.crashes as f64)),
        ("crash_drops".to_string(), Json::Num(f.crash_drops as f64)),
        ("rgp_timeouts".to_string(), Json::Num(f.rgp_timeouts as f64)),
        (
            "rgp_retransmits".to_string(),
            Json::Num(f.rgp_retransmits as f64),
        ),
        (
            "rrpp_corrupt_drops".to_string(),
            Json::Num(f.rrpp_corrupt_drops as f64),
        ),
        ("aborted".to_string(), Json::Num(f.aborted as f64)),
        (
            "goodput_fraction".to_string(),
            Json::Num(f.goodput_fraction),
        ),
        (
            "prefault_ops_per_us".to_string(),
            Json::Num(f.prefault_ops_per_us),
        ),
        ("recovered".to_string(), Json::Bool(f.recovered)),
    ];
    if let Some(onset) = f.onset_us {
        members.push(("onset_us".to_string(), Json::Num(onset)));
    }
    if let Some(rec) = f.recovery_us {
        members.push(("recovery_us".to_string(), Json::Num(rec)));
    }
    if let Some(p99) = f.gold_p99_ns {
        members.push(("gold_p99_ns".to_string(), Json::Num(p99)));
    }
    if let Some(p99) = f.bronze_p99_ns {
        members.push(("bronze_p99_ns".to_string(), Json::Num(p99)));
    }
    members.push((
        "ok_bins_1us".to_string(),
        Json::Arr(
            bins.iter()
                .take(MAX_REPORTED_BINS)
                .map(|&b| Json::Num(b as f64))
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// The `kv` report section: directory-plane totals, verification
/// status, the per-value-size-class GET/PUT crossover rows, and the
/// per-SLO-class achieved-vs-offered rows.
fn kv_json(run: &BackendRun, kv: &KvOutcome) -> Json {
    let classes = kv
        .classes
        .iter()
        .map(|c| {
            let mut members = vec![
                ("bytes".to_string(), Json::Num(c.bytes as f64)),
                ("lines".to_string(), Json::Num(c.bytes.div_ceil(64) as f64)),
                ("keys".to_string(), Json::Num(c.keys as f64)),
                ("gets".to_string(), Json::Num(c.gets as f64)),
                ("puts".to_string(), Json::Num(c.puts as f64)),
            ];
            members.extend(latency_json("get", &c.get_hist, false));
            members.extend(latency_json("put", &c.put_hist, false));
            Json::Obj(members)
        })
        .collect();
    // Per-SLO-class rows: the tenant-visible (GET+PUT) tail and the
    // achieved-vs-offered throughput of each gold/silver/bronze class.
    let slo = class_rows(run, true);
    Json::Obj(vec![
        ("keys".to_string(), Json::Num(kv.keys as f64)),
        ("gets".to_string(), Json::Num(kv.gets as f64)),
        ("puts".to_string(), Json::Num(kv.puts as f64)),
        ("corrupt".to_string(), Json::Num(kv.corrupt as f64)),
        ("get_lines".to_string(), Json::Num(kv.get_lines as f64)),
        ("get_bytes".to_string(), Json::Num(kv.get_bytes as f64)),
        ("put_bytes".to_string(), Json::Num(kv.put_bytes as f64)),
        (
            "achieved_fraction".to_string(),
            Json::Num(if run.offered_ops > 0 {
                (run.ops - run.errors) as f64 / run.offered_ops as f64
            } else {
                0.0
            }),
        ),
        ("classes".to_string(), Json::Arr(classes)),
        ("slo".to_string(), Json::Arr(slo)),
    ])
}

fn run_json(run: &BackendRun) -> Json {
    let mut members = vec![
        ("backend".to_string(), Json::Str(run.backend.clone())),
        ("ops".to_string(), Json::Num(run.ops as f64)),
        ("offered_ops".to_string(), Json::Num(run.offered_ops as f64)),
        (
            "payload_bytes".to_string(),
            Json::Num(run.payload_bytes as f64),
        ),
        ("errors".to_string(), Json::Num(run.errors as f64)),
        ("sim_us".to_string(), Json::Num(run.sim_time.as_us_f64())),
        ("ops_per_sec".to_string(), Json::Num(run.ops_per_sec)),
        ("gbps".to_string(), Json::Num(run.gbps)),
        ("lat_p50_ns".to_string(), Json::Num(run.p50.as_ns_f64())),
        ("lat_p99_ns".to_string(), Json::Num(run.p99.as_ns_f64())),
        ("lat_p999_ns".to_string(), Json::Num(run.p999.as_ns_f64())),
        ("lat_mean_ns".to_string(), Json::Num(run.mean.as_ns_f64())),
        ("events".to_string(), Json::Num(run.events as f64)),
        ("wall_secs".to_string(), Json::Num(run.wall_secs)),
        (
            "wall_events_per_sec".to_string(),
            Json::Num(run.wall_events_per_sec),
        ),
        (
            "wall_packets_per_sec".to_string(),
            Json::Num(run.wall_packets_per_sec),
        ),
        (
            "wall_construct_secs".to_string(),
            Json::Num(run.wall_construct_secs),
        ),
    ];
    // Shard metadata: everything here but `epochs` either depends on the
    // partition (shard_events) or on the host (wall rates), so
    // `equivalence_diff` keeps only `epochs` of this section.
    let mut sharding = vec![
        ("threads".to_string(), Json::Num(run.threads as f64)),
        ("shards".to_string(), Json::Num(run.shards as f64)),
        ("epochs".to_string(), Json::Num(run.epochs as f64)),
        ("cut_links".to_string(), Json::Num(run.cut_links as f64)),
        (
            "pair_bound_violations".to_string(),
            Json::Num(run.pair_bound_violations as f64),
        ),
        (
            "resident_bytes".to_string(),
            Json::Num(run.resident_bytes as f64),
        ),
    ];
    if let Some(lookahead) = run.lookahead {
        sharding.push(("lookahead_ns".to_string(), Json::Num(lookahead.as_ns_f64())));
    }
    if let Some(cmp) = &run.compare_serial {
        sharding.push((
            "compare_serial".to_string(),
            Json::Obj(vec![
                ("wall_secs".to_string(), Json::Num(cmp.wall_secs)),
                ("wall_ratio".to_string(), Json::Num(cmp.wall_ratio)),
                ("epochs".to_string(), Json::Num(cmp.epochs as f64)),
            ]),
        ));
    }
    if !run.shard_events.is_empty() {
        sharding.push((
            "shard_events".to_string(),
            Json::Arr(
                run.shard_events
                    .iter()
                    .map(|&e| Json::Num(e as f64))
                    .collect(),
            ),
        ));
        if run.wall_secs > 0.0 {
            sharding.push((
                "wall_shard_events_per_sec".to_string(),
                Json::Arr(
                    run.shard_events
                        .iter()
                        .map(|&e| Json::Num(e as f64 / run.wall_secs))
                        .collect(),
                ),
            ));
        }
    }
    members.push(("sharding".to_string(), Json::Obj(sharding)));
    if !run.tenants.is_empty() {
        members.push(("per_tenant".to_string(), per_tenant_json(run)));
    }
    if let Some(fabric) = &run.fabric {
        members.push(("fabric".to_string(), fabric_json(fabric)));
    }
    if let Some(f) = &run.faults {
        members.push(("faults".to_string(), fault_json(f, &run.ok_bins_1us)));
    }
    if let Some(kv) = &run.kv {
        members.push(("kv".to_string(), kv_json(run, kv)));
    }
    if let Some(t) = &run.trace {
        let s = t.summary;
        members.push((
            "trace".to_string(),
            Json::Obj(vec![
                ("interval_us".to_string(), Json::Num(t.interval_us)),
                ("ticks".to_string(), Json::Num(s.ticks as f64)),
                ("link_samples".to_string(), Json::Num(s.link_samples as f64)),
                ("link_dropped".to_string(), Json::Num(s.link_dropped as f64)),
                ("node_samples".to_string(), Json::Num(s.node_samples as f64)),
                ("node_dropped".to_string(), Json::Num(s.node_dropped as f64)),
                ("fault_events".to_string(), Json::Num(s.fault_events as f64)),
                (
                    "fault_dropped".to_string(),
                    Json::Num(s.fault_dropped as f64),
                ),
                (
                    "tenant_samples".to_string(),
                    Json::Num(t.tenant_samples as f64),
                ),
            ]),
        ));
    }
    if let Some(total) = &run.pipeline_total {
        members.push(("pipeline_total".to_string(), stats_json(total)));
        members.push((
            "per_node".to_string(),
            Json::Arr(run.per_node.iter().map(stats_json).collect()),
        ));
    }
    Json::Obj(members)
}

/// Builds the versioned report document from executed scenarios.
pub fn report(results: &[ScenarioResult]) -> Json {
    let scenarios = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("spec".into(), r.spec.to_json()),
                (
                    "runs".into(),
                    Json::Arr(r.runs.iter().map(run_json).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(REPORT_SCHEMA.into())),
        ("scenarios".to_string(), Json::Arr(scenarios)),
    ])
}

/// Checks that a parsed document is a well-formed scenario report.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    match doc.str_of("schema") {
        Some(REPORT_SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("missing schema tag".to_string()),
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("missing scenarios array")?;
    if scenarios.is_empty() {
        return Err("empty scenarios array".to_string());
    }
    for (i, sc) in scenarios.iter().enumerate() {
        let spec = sc
            .get("spec")
            .ok_or(format!("scenario {i}: missing spec"))?;
        let name = spec
            .str_of("name")
            .ok_or(format!("scenario {i}: spec has no name"))?;
        spec.u64_of("nodes")
            .filter(|&n| n >= 2)
            .ok_or(format!("scenario {name}: bad nodes"))?;
        spec.u64_of("seed")
            .ok_or(format!("scenario {name}: no seed"))?;
        let runs = sc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("scenario {name}: missing runs"))?;
        if runs.is_empty() {
            return Err(format!("scenario {name}: no runs"));
        }
        for run in runs {
            let backend = run
                .str_of("backend")
                .ok_or(format!("scenario {name}: run without backend"))?;
            for key in [
                "ops",
                "offered_ops",
                "payload_bytes",
                "errors",
                "sim_us",
                "ops_per_sec",
                "gbps",
                "lat_p50_ns",
                "lat_p99_ns",
                "lat_p999_ns",
                "events",
                "wall_secs",
                "wall_events_per_sec",
                "wall_packets_per_sec",
                "wall_construct_secs",
            ] {
                run.f64_of(key)
                    .ok_or(format!("scenario {name}/{backend}: missing {key}"))?;
            }
            let sharding = run
                .get("sharding")
                .ok_or(format!("scenario {name}/{backend}: missing sharding"))?;
            for key in [
                "threads",
                "shards",
                "epochs",
                "cut_links",
                "pair_bound_violations",
                "resident_bytes",
            ] {
                sharding
                    .u64_of(key)
                    .ok_or(format!("scenario {name}/{backend}: sharding has no {key}"))?;
            }
            if let Some(fa) = run.get("faults") {
                let goodput = fa.f64_of("goodput_fraction").ok_or(format!(
                    "scenario {name}/{backend}: faults has no goodput_fraction"
                ))?;
                if !(0.0..=1.0).contains(&goodput) {
                    return Err(format!(
                        "scenario {name}/{backend}: goodput_fraction {goodput} out of [0, 1]"
                    ));
                }
                if !matches!(fa.get("recovered"), Some(Json::Bool(_))) {
                    return Err(format!(
                        "scenario {name}/{backend}: faults has no recovered flag"
                    ));
                }
            }
            if let Some(kv) = run.get("kv") {
                for key in ["keys", "gets", "puts", "corrupt", "get_lines", "get_bytes"] {
                    kv.u64_of(key)
                        .ok_or(format!("scenario {name}/{backend}: kv has no {key}"))?;
                }
                // Every GET payload is verified on completion: a corrupt
                // one is a broken run, not a figure.
                if kv.u64_of("corrupt") != Some(0) {
                    return Err(format!("scenario {name}/{backend}: kv has corrupt GETs"));
                }
                let achieved = kv.f64_of("achieved_fraction").ok_or(format!(
                    "scenario {name}/{backend}: kv has no achieved_fraction"
                ))?;
                if !(0.0..=1.0).contains(&achieved) {
                    return Err(format!(
                        "scenario {name}/{backend}: kv achieved_fraction {achieved} out of [0, 1]"
                    ));
                }
                let classes = kv
                    .get("classes")
                    .and_then(Json::as_arr)
                    .filter(|c| !c.is_empty())
                    .ok_or(format!("scenario {name}/{backend}: kv without classes"))?;
                for c in classes {
                    for key in ["bytes", "keys", "get_p99_ns", "put_p99_ns"] {
                        c.f64_of(key)
                            .ok_or(format!("scenario {name}/{backend}: kv class has no {key}"))?;
                    }
                }
                kv.get("slo")
                    .and_then(Json::as_arr)
                    .filter(|s| !s.is_empty())
                    .ok_or(format!("scenario {name}/{backend}: kv without slo rows"))?;
            }
            if let Some(tr) = run.get("trace") {
                for key in [
                    "ticks",
                    "link_samples",
                    "link_dropped",
                    "node_samples",
                    "node_dropped",
                    "fault_events",
                    "fault_dropped",
                    "tenant_samples",
                ] {
                    tr.u64_of(key)
                        .ok_or(format!("scenario {name}/{backend}: trace has no {key}"))?;
                }
            }
            if let Some(pt) = run.get("per_tenant") {
                let jain = pt
                    .f64_of("jain_fairness")
                    .ok_or(format!("scenario {name}/{backend}: per_tenant has no jain"))?;
                if !(0.0..=1.0).contains(&jain) {
                    return Err(format!(
                        "scenario {name}/{backend}: jain_fairness {jain} out of [0, 1]"
                    ));
                }
                pt.get("detail")
                    .and_then(Json::as_arr)
                    .filter(|d| !d.is_empty())
                    .ok_or(format!(
                        "scenario {name}/{backend}: per_tenant without detail"
                    ))?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parallel-equivalence diffing.
// ---------------------------------------------------------------------

/// Whether `key` is excluded from the parallel-equivalence comparison:
/// host-dependent wall-clock fields (`wall_*`), the
/// requested thread count itself, and the `trace` sections (both the
/// spec's and the run's — the trace *file* is gated byte-for-byte
/// separately, and stripping the report sections lets `diff-runs` also
/// compare a traced run against an untraced baseline).
fn equivalence_ignored(key: &str) -> bool {
    key.starts_with("wall_")
        || matches!(
            key,
            // `speculate_epochs` — frozen-benchmark residue: ROADMAP item 9 deletes
            "threads" | "speculate_epochs" | "trace"
        )
}

/// Strips every [`equivalence_ignored`] member, recursively, and every
/// member of a run's partition-dependent `sharding` section except
/// `epochs`, which is a pure function of the spec.
fn strip_volatile(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !equivalence_ignored(k))
                .map(|(k, v)| match v {
                    Json::Obj(sharding) if k == "sharding" => {
                        let epochs = sharding.iter().filter(|(m, _)| m == "epochs");
                        (k.clone(), Json::Obj(epochs.cloned().collect()))
                    }
                    _ => (k.clone(), strip_volatile(v)),
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// Caps the diff list: past a point, more entries add nothing.
const MAX_DIFFS: usize = 32;

fn diff_push(out: &mut Vec<String>, entry: String) {
    if out.len() < MAX_DIFFS {
        out.push(entry);
    }
}

fn diff_json(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    if out.len() >= MAX_DIFFS {
        return;
    }
    match (a, b) {
        (Json::Obj(ma), Json::Obj(mb)) => {
            for (k, va) in ma {
                match mb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_json(va, vb, &format!("{path}.{k}"), out),
                    None => diff_push(out, format!("{path}.{k}: present only in the first report")),
                }
            }
            for (k, _) in mb {
                if !ma.iter().any(|(ka, _)| ka == k) {
                    diff_push(
                        out,
                        format!("{path}.{k}: present only in the second report"),
                    );
                }
            }
        }
        (Json::Arr(aa), Json::Arr(ab)) => {
            if aa.len() != ab.len() {
                diff_push(
                    out,
                    format!("{path}: array length {} vs {}", aa.len(), ab.len()),
                );
                return;
            }
            for (i, (va, vb)) in aa.iter().zip(ab).enumerate() {
                diff_json(va, vb, &format!("{path}[{i}]"), out);
            }
        }
        _ => {
            let (ra, rb) = (a.render(), b.render());
            if ra != rb {
                diff_push(out, format!("{path}: {ra} vs {rb}"));
            }
        }
    }
}

/// Compares two scenario reports for *simulated* equivalence: every
/// member except the wall-clock fields and the shard-metadata section
/// (bar its `epochs`) must be byte-identical.
/// Returns the list of differences (empty means equivalent) — this is
/// the check the CI `parallel-equivalence` step runs between
/// `--threads 1` and `--threads 4` reports.
pub fn equivalence_diff(a: &Json, b: &Json) -> Vec<String> {
    let (sa, sb) = (strip_volatile(a), strip_volatile(b));
    let mut out = Vec::new();
    diff_json(&sa, &sb, "$", &mut out);
    out
}
