//! Flight-recorder trace consumers: the JSON-lines reader, the
//! Chrome-trace converter, and the two trace figures (link-utilization
//! heatmap, stall/recovery timeline).
//!
//! The trace schema and writer live in `sonuma-trace`; this module is the
//! other direction. It reads a trace file back through the bench's own
//! [`Json`] layer into the recorder's own record types, walking the same
//! member lists the writer renders, so the converter and figures work on
//! any saved `--trace-out` artifact, not just an in-process recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sonuma_trace::{
    FaultEvent, FaultKind, Fields, LinkSample, Member, NodeSample, TenantSample, TraceMeta,
    TraceRecord, TRACE_SCHEMA,
};

use crate::json::{render_string, Json};
use crate::report::CsvTable;

/// A fully parsed trace file.
#[derive(Debug, Default)]
pub struct TraceDoc {
    /// The header.
    pub meta: TraceMeta,
    /// Link windows, in file order (sorted by time).
    pub links: Vec<LinkSample>,
    /// Node windows, in file order.
    pub nodes: Vec<NodeSample>,
    /// Tenant windows, in file order.
    pub tenants: Vec<TenantSample>,
    /// Fault events, in file order.
    pub faults: Vec<FaultEvent>,
}

/// Parses a JSON-lines trace produced by `--trace-out`.
///
/// # Errors
///
/// Returns a one-line description naming the offending line on malformed
/// input, a schema the parser does not understand, or an unknown record
/// or fault kind.
pub fn parse_trace(text: &str) -> Result<TraceDoc, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let header = Json::parse(header).map_err(|e| format!("line 1: {e}"))?;
    let mut doc = TraceDoc::default();
    let schema = std::iter::once(("schema", Member::Tag(TRACE_SCHEMA)));
    read_fields(&header, 1, schema.chain(doc.meta.fields()))?;
    if doc.meta.interval_ps == 0 {
        return Err("line 1: interval_ps is 0".into());
    }
    fn read<R: TraceRecord>(rec: &Json, lineno: usize) -> Result<R, String> {
        let mut r = R::default();
        read_fields(rec, lineno, r.fields())?;
        Ok(r)
    }
    for (idx, line) in lines {
        let lineno = idx + 1;
        let rec = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        match rec.str_of("rec") {
            Some(LinkSample::REC) => doc.links.push(read(&rec, lineno)?),
            Some(NodeSample::REC) => doc.nodes.push(read(&rec, lineno)?),
            Some(TenantSample::REC) => doc.tenants.push(read(&rec, lineno)?),
            Some(FaultEvent::REC) => doc.faults.push(read(&rec, lineno)?),
            other => {
                return Err(format!(
                    "line {lineno}: unknown record kind {:?}",
                    other.unwrap_or("<missing>")
                ))
            }
        }
    }
    Ok(doc)
}

/// Stores each of `json`'s members through its [`Member`] view. Strings
/// may be absent (they read as empty); every other member must be there.
fn read_fields<'a>(
    json: &Json,
    lineno: usize,
    fields: impl Iterator<Item = (&'static str, Member<'a>)>,
) -> Result<(), String> {
    for (key, member) in fields {
        let text = json.str_of(key);
        let missing = || format!("line {lineno}: no {key}");
        let int = || json.u64_of(key).ok_or_else(missing);
        match member {
            Member::Tag(tag) if text == Some(tag) => {}
            Member::Tag(tag) => {
                let got = text.unwrap_or("<missing>");
                return Err(format!(
                    "line {lineno}: {key} {got:?} (this binary reads {tag:?})"
                ));
            }
            Member::Str(s) => *s = text.unwrap_or_default().to_string(),
            Member::Kind(kind) => {
                let label = text.ok_or_else(missing)?;
                *kind = FaultKind::parse(label)
                    .ok_or_else(|| format!("line {lineno}: unknown fault kind {label:?}"))?;
            }
            Member::U16(v) => *v = narrow(int()?, key, lineno)?,
            Member::U32(v) => *v = narrow(int()?, key, lineno)?,
            Member::U64(v) => *v = int()?,
        }
    }
    Ok(())
}

/// `value` as a narrower integer member, or `line N: key V out of range`.
fn narrow<T: TryFrom<u64>>(value: u64, key: &str, lineno: usize) -> Result<T, String> {
    T::try_from(value).map_err(|_| format!("line {lineno}: {key} {value} out of range"))
}

/// A transition's marker label: `link_kill 3->4`, `node_crash n7`.
fn transition_name(f: &FaultEvent) -> String {
    match f.kind {
        FaultKind::LinkKill | FaultKind::LinkRevive => {
            format!("{} {}->{}", f.kind.as_str(), f.a, f.b)
        }
        _ => format!("{} n{}", f.kind.as_str(), f.a),
    }
}

/// Converts a parsed trace into Chrome trace-event JSON (load it at
/// `chrome://tracing` or in Perfetto). Per-window activity becomes
/// counter tracks — `fabric`, `pipelines`, `tenants`, and `faults` —
/// and scheduled fault transitions become global instant markers, so
/// the kill/recovery story reads directly off the counter dips.
pub fn chrome_trace(doc: &TraceDoc) -> String {
    let ts = |t_ps: u64| t_ps as f64 / 1e6; // Chrome wants microseconds.
    let mut events: Vec<String> = Vec::new();
    let mut fabric: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for l in &doc.links {
        let e = fabric.entry(l.t_ps).or_default();
        e.0 += l.bytes;
        e.1 += l.packets;
        e.2 += l.credit_stalls;
    }
    for (t, (bytes, packets, stalls)) in fabric {
        events.push(format!(
            "{{\"name\":\"fabric\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"bytes\":{bytes},\"packets\":{packets},\"credit_stalls\":{stalls}}}}}",
            ts(t)
        ));
    }
    let mut pipes: BTreeMap<u64, [u64; 6]> = BTreeMap::new();
    for n in &doc.nodes {
        let (e, n) = (pipes.entry(n.t_ps).or_default(), &n.counters);
        e[0] += n.rgp_requests;
        e[1] += n.rrpp_served;
        e[2] += n.rcp_completions;
        e[3] += n.rgp_itt_stalls;
        e[4] += n.itt_in_flight;
        e[5] += n.rgp_timeouts + n.rgp_retransmits;
    }
    for (t, [req, served, done, stalls, itt, recov]) in pipes {
        events.push(format!(
            "{{\"name\":\"pipelines\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"rgp_requests\":{req},\"rrpp_served\":{served},\"rcp_completions\":{done},\"itt_stalls\":{stalls},\"itt_in_flight\":{itt},\"recovery\":{recov}}}}}",
            ts(t)
        ));
    }
    let mut flows: BTreeMap<u64, u64> = BTreeMap::new();
    for t in &doc.tenants {
        *flows.entry(t.t_ps).or_default() += t.completions;
    }
    for (t, completions) in flows {
        events.push(format!(
            "{{\"name\":\"tenants\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"completions\":{completions}}}}}",
            ts(t)
        ));
    }
    let mut fault_counters: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
    for f in &doc.faults {
        if f.kind.is_transition() {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"g\"}}",
                transition_name(f),
                ts(f.t_ps)
            ));
        } else {
            *fault_counters
                .entry(f.t_ps)
                .or_default()
                .entry(f.kind.as_str())
                .or_default() += f.count;
        }
    }
    for (t, counters) in fault_counters {
        let args: Vec<String> = counters
            .into_iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        events.push(format!(
            "{{\"name\":\"faults\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{{}}}}}",
            ts(t),
            args.join(",")
        ));
    }
    let (mut scenario, mut backend) = (String::new(), String::new());
    render_string(&mut scenario, &doc.meta.scenario);
    render_string(&mut backend, &doc.meta.backend);
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"scenario\":{scenario},\"backend\":{backend},\"nodes\":{},\"interval_ps\":{}}},\"traceEvents\":[\n{}\n]}}\n",
        doc.meta.nodes,
        doc.meta.interval_ps,
        events.join(",\n")
    )
}

/// Shade ramp for the ASCII heatmap, blank = idle.
const SHADES: &[u8] = b" .:-=+*#%@";

/// Links shown individually in the heatmap; the rest aggregate into a
/// final `other` row so total utilization is never silently dropped.
const HEATMAP_LINKS: usize = 16;

/// The link-utilization heatmap: hottest links as rows, sampling windows
/// as columns, cell shade proportional to bytes moved in that window
/// (scaled against the busiest cell). Returns the printable text; the
/// CSV twin is [`heatmap_csv`].
pub fn render_heatmap(doc: &TraceDoc) -> String {
    let mut windows: Vec<u64> = doc.links.iter().map(|l| l.t_ps).collect();
    windows.sort_unstable();
    windows.dedup();
    let mut totals: BTreeMap<(u16, u16), u64> = BTreeMap::new();
    for l in &doc.links {
        *totals.entry((l.src, l.dst)).or_default() += l.bytes;
    }
    let mut hot: Vec<((u16, u16), u64)> = totals.into_iter().collect();
    hot.sort_by_key(|&((src, dst), bytes)| (std::cmp::Reverse(bytes), src, dst));
    let shown: Vec<(u16, u16)> = hot.iter().take(HEATMAP_LINKS).map(|&(k, _)| k).collect();
    let folded = hot.len().saturating_sub(shown.len());

    // (row, window) -> bytes; row = shown.len() is the fold-in row.
    let col = |t: u64| windows.binary_search(&t).expect("window known");
    let mut grid = vec![vec![0u64; windows.len()]; shown.len() + usize::from(folded > 0)];
    for l in &doc.links {
        let row = shown
            .iter()
            .position(|&k| k == (l.src, l.dst))
            .unwrap_or(shown.len());
        if row < grid.len() {
            grid[row][col(l.t_ps)] += l.bytes;
        }
    }
    // The fold row sums up to `folded` links, so shading it raw would
    // flatten every individual row to blank; show its per-link average
    // instead and scale everything against the same peak.
    if folded > 0 {
        if let Some(fold_row) = grid.last_mut() {
            for cell in fold_row {
                *cell /= folded as u64;
            }
        }
    }
    let peak = grid.iter().flatten().copied().max().unwrap_or(0).max(1);

    let mut out = format!(
        "link utilization heatmap: {} ({} nodes, {} windows of {:.1} us, {} links)\n",
        doc.meta.scenario,
        doc.meta.nodes,
        windows.len(),
        doc.meta.interval_ps as f64 / 1e6,
        hot.len()
    );
    for (row, cells) in grid.iter().enumerate() {
        let label = if row < shown.len() {
            let (src, dst) = shown[row];
            format!("{src:>4}->{dst:<4}")
        } else {
            // Cells on this row are the *average* bytes per folded link.
            format!("+{folded} avg")
        };
        let _ = write!(out, "{label:>10} |");
        for &bytes in cells {
            let shade = (bytes as u128 * (SHADES.len() - 1) as u128 / peak as u128) as usize;
            out.push(SHADES[shade.min(SHADES.len() - 1)] as char);
        }
        out.push_str("|\n");
    }
    if let (Some(&first), Some(&last)) = (windows.first(), windows.last()) {
        let _ = writeln!(
            out,
            "{:>10}  {:.1} us .. {:.1} us, peak cell {} bytes",
            "",
            first as f64 / 1e6,
            last as f64 / 1e6,
            peak
        );
    }
    out
}

/// The heatmap's plottable form: one row per `(window, link)` cell.
pub fn heatmap_csv(doc: &TraceDoc) -> CsvTable {
    let mut t = CsvTable::new(&["t_us", "src", "dst", "bytes", "packets", "credit_stalls"]);
    for l in &doc.links {
        t.row(&[
            format!("{}", l.t_ps as f64 / 1e6),
            l.src.to_string(),
            l.dst.to_string(),
            l.bytes.to_string(),
            l.packets.to_string(),
            l.credit_stalls.to_string(),
        ]);
    }
    t
}

/// Per-window machine-wide activity folded from a trace, the timeline's
/// raw rows.
#[derive(Debug, Default, Clone, Copy)]
pub struct TimelineRow {
    /// Window end, ps.
    pub t_ps: u64,
    /// Operations completed: the tenant stream when the trace has one,
    /// otherwise the nodes' RCP completion deltas.
    pub completions: u64,
    /// Fabric credit stalls.
    pub credit_stalls: u64,
    /// RGP stalls on a full ITT.
    pub itt_stalls: u64,
    /// Timeouts fired.
    pub timeouts: u64,
    /// Lines retransmitted.
    pub retransmits: u64,
}

/// Folds a trace into per-window totals.
///
/// Node samples land on quantum boundaries, not exact cadence
/// multiples, so every record is bucketed into the cadence window it
/// terminates (`ceil(t / interval) * interval`) — one timeline row per
/// window, not one per distinct sample time.
pub fn timeline_rows(doc: &TraceDoc) -> Vec<TimelineRow> {
    let mut rows: BTreeMap<u64, TimelineRow> = BTreeMap::new();
    let interval = doc.meta.interval_ps.max(1);
    let window = |t: u64| t.div_ceil(interval) * interval;
    fn at(rows: &mut BTreeMap<u64, TimelineRow>, t: u64) -> &mut TimelineRow {
        let row = rows.entry(t).or_default();
        row.t_ps = t;
        row
    }
    for l in &doc.links {
        at(&mut rows, window(l.t_ps)).credit_stalls += l.credit_stalls;
    }
    let closed_loop = doc.tenants.is_empty();
    for n in &doc.nodes {
        let (row, n) = (at(&mut rows, window(n.t_ps)), &n.counters);
        if closed_loop {
            row.completions += n.rcp_completions;
        }
        row.itt_stalls += n.rgp_itt_stalls;
        row.timeouts += n.rgp_timeouts;
        row.retransmits += n.rgp_retransmits;
    }
    for t in &doc.tenants {
        at(&mut rows, window(t.t_ps)).completions += t.completions;
    }
    rows.into_values().collect()
}

/// The stall/recovery timeline: one line per sampling window with a
/// completion-rate bar, the stall counters, and fault transitions
/// splicing in at their scheduled instants — the `rack1024-nodekill`
/// dip-and-climb rendered as text.
pub fn render_timeline(doc: &TraceDoc) -> String {
    let rows = timeline_rows(doc);
    let mut transitions: Vec<_> = doc
        .faults
        .iter()
        .filter(|f| f.kind.is_transition())
        .collect();
    transitions.sort_by_key(|f| f.t_ps);
    let mut transitions = transitions.into_iter().peekable();
    let peak = rows.iter().map(|r| r.completions).max().unwrap_or(0).max(1);
    const BAR: usize = 40;
    let mut out = format!(
        "stall/recovery timeline: {} ({} windows of {:.1} us)\n{:>9} {:<BAR$} {:>9} {:>9} {:>9} {:>8} {:>8}\n",
        doc.meta.scenario,
        rows.len(),
        doc.meta.interval_ps as f64 / 1e6,
        "t_us",
        "completions",
        "ops",
        "cr_stall",
        "itt_stall",
        "timeout",
        "rexmit",
    );
    for row in &rows {
        while transitions.peek().is_some_and(|f| f.t_ps <= row.t_ps) {
            let f = transitions.next().expect("peeked");
            let _ = writeln!(out, "{:>9.1} ! {}", f.t_ps as f64 / 1e6, transition_name(f));
        }
        let fill = (row.completions as u128 * BAR as u128 / peak as u128) as usize;
        let _ = writeln!(
            out,
            "{:>9.1} {:<BAR$} {:>9} {:>9} {:>9} {:>8} {:>8}",
            row.t_ps as f64 / 1e6,
            "#".repeat(fill.min(BAR)),
            row.completions,
            row.credit_stalls,
            row.itt_stalls,
            row.timeouts,
            row.retransmits,
        );
    }
    for f in transitions {
        let _ = writeln!(out, "{:>9.1} ! {}", f.t_ps as f64 / 1e6, f.kind.as_str());
    }
    out
}

/// The timeline's plottable form.
pub fn timeline_csv(doc: &TraceDoc) -> CsvTable {
    let rows = timeline_rows(doc);
    let mut t = CsvTable::new(&[
        "t_us",
        "completions",
        "credit_stalls",
        "itt_stalls",
        "timeouts",
        "retransmits",
    ]);
    for r in &rows {
        t.row(&[
            format!("{}", r.t_ps as f64 / 1e6),
            r.completions.to_string(),
            r.credit_stalls.to_string(),
            r.itt_stalls.to_string(),
            r.timeouts.to_string(),
            r.retransmits.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"schema\":\"sonuma-trace/v1\",\"scenario\":\"unit\",\"backend\":\"sonuma\",\"nodes\":4,\"interval_ps\":1000000}\n",
        "{\"t_ps\":1000000,\"rec\":\"fault\",\"kind\":\"link_kill\",\"a\":0,\"b\":1,\"count\":1}\n",
        "{\"t_ps\":1000000,\"rec\":\"link\",\"src\":0,\"dst\":1,\"bytes\":640,\"packets\":10,\"credit_stalls\":2}\n",
        "{\"t_ps\":1000000,\"rec\":\"node\",\"node\":0,\"rgp_requests\":5,\"rrpp_served\":4,\"rcp_completions\":3,\"rgp_itt_stalls\":1,\"api_wq_full\":0,\"itt_in_flight\":2,\"rgp_timeouts\":1,\"rgp_retransmits\":1}\n",
        "{\"t_ps\":2000000,\"rec\":\"fault\",\"kind\":\"timeouts\",\"a\":0,\"b\":0,\"count\":3}\n",
        "{\"t_ps\":2000000,\"rec\":\"tenant\",\"tenant\":7,\"completions\":12,\"p99_ps\":4095}\n",
    );

    #[test]
    fn parses_every_record_kind_and_renders() {
        let doc = parse_trace(SAMPLE).expect("sample parses");
        assert_eq!(doc.meta.nodes, 4);
        assert_eq!(doc.links.len(), 1);
        assert_eq!(doc.nodes.len(), 1);
        assert_eq!(doc.tenants.len(), 1);
        assert_eq!(doc.faults.len(), 2);

        let chrome = chrome_trace(&doc);
        let parsed = Json::parse(&chrome).expect("chrome trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // fabric + pipelines + tenants + faults counters + 1 instant.
        assert_eq!(events.len(), 5);
        assert!(chrome.contains("\"name\":\"link_kill 0->1\""));

        let heat = render_heatmap(&doc);
        assert!(heat.contains("0->1"), "{heat}");
        let tl = render_timeline(&doc);
        assert!(tl.contains("! link_kill 0->1"), "{tl}");
        assert_eq!(timeline_rows(&doc).len(), 2);
    }

    #[test]
    fn chrome_trace_escapes_the_header_strings() {
        let mut doc = parse_trace(SAMPLE).expect("sample parses");
        for name in ["back\\slash", "quote\"d \u{e9}t\u{e9} \u{1F680}"] {
            doc.meta.scenario = name.to_string();
            doc.meta.backend = format!("{name}-backend");
            let parsed = Json::parse(&chrome_trace(&doc)).expect("chrome trace is valid JSON");
            let other = parsed.get("otherData").expect("otherData");
            assert_eq!(other.str_of("scenario"), Some(name));
            assert_eq!(other.str_of("backend"), Some(doc.meta.backend.as_str()));
        }
    }

    #[test]
    fn rejects_foreign_schemas_and_malformed_lines() {
        assert!(parse_trace("{\"schema\":\"other/v9\"}\n")
            .expect_err("foreign schema")
            .contains("other/v9"));
        let mut broken = String::from(SAMPLE);
        broken.push_str("{\"t_ps\":3,\"rec\":\"mystery\"}\n");
        assert!(parse_trace(&broken)
            .expect_err("unknown record kind")
            .contains("mystery"));
        // An unknown fault kind is an error too, not a silent "other".
        let mut broken = String::from(SAMPLE);
        broken.push_str(
            "{\"t_ps\":3,\"rec\":\"fault\",\"kind\":\"meteor\",\"a\":0,\"b\":0,\"count\":1}\n",
        );
        let err = parse_trace(&broken).expect_err("unknown fault kind");
        assert!(err.contains("line 7") && err.contains("meteor"), "{err}");
        // A member too wide for its field is an error, not a wrapped value.
        let mut broken = String::from(SAMPLE);
        broken.push_str("{\"t_ps\":3,\"rec\":\"link\",\"src\":70000,\"dst\":1,\"bytes\":0,\"packets\":0,\"credit_stalls\":0}\n");
        let err = parse_trace(&broken).expect_err("src past u16");
        assert_eq!(err, "line 7: src 70000 out of range");
    }
}
