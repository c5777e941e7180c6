//! The versioned JSON-lines trace schema and its writer.
//!
//! One header line (schema tag plus run identity) followed by one JSON
//! object per sample, merged across the four record streams in
//! `(t_ps, stream rank, ring order)` order. Every value but the tags,
//! names and fault kinds is an integer — no float ever hits the file — so
//! the bytes are a stable function of the samples alone and two runs can
//! be compared with `cmp`.
//!
//! Each line type names its fields once, in file order ([`Fields`]): the
//! writer here renders them and a reader fills a default record through
//! the same walk.

use std::fmt::Write as _;

use crate::recorder::{FaultKind, FlightRecorder};
use crate::tenant::TenantFlow;
use crate::TRACE_SCHEMA;

/// One member of a trace line, as a view into the record that holds it:
/// the writer renders it, a reader stores the parsed value through it.
#[derive(Debug)]
pub enum Member<'a> {
    /// A fixed string the line must carry (the schema, a `rec` tag).
    Tag(&'static str),
    /// A free string, written escaped.
    Str(&'a mut String),
    /// A fault kind, written as its label.
    Kind(&'a mut FaultKind),
    /// A 16-bit integer (node ids).
    U16(&'a mut u16),
    /// A 32-bit integer (tenant ids).
    U32(&'a mut u32),
    /// A 64-bit integer.
    U64(&'a mut u64),
}

/// A trace line type's fields, in file order, each keyed by its JSONL
/// name.
pub trait Fields {
    /// Every field as a `(key, Member)` pair.
    fn fields(&mut self) -> impl Iterator<Item = (&'static str, Member<'_>)>;
}

/// One sampled record stream of the trace. Its lines hold `t_ps`, the
/// `rec` tag, then the record's other fields.
pub trait TraceRecord: Fields + Default {
    /// The `rec` tag of the stream's lines.
    const REC: &'static str;
}

trace_line! {
    /// Run identity stamped into the trace header. Deliberately excludes
    /// anything partition- or wall-clock-dependent (no thread count, no
    /// timestamps): the whole file must be byte-identical across `--threads`.
    #[derive(Debug, Clone, Default)]
    pub struct TraceMeta {
        /// Scenario name.
        pub scenario: String => Str,
        /// Backend name (`sonuma`, …).
        pub backend: String => Str,
        /// Number of nodes in the machine.
        pub nodes: u64 => U64,
        /// Sampling cadence in picoseconds.
        pub interval_ps: u64 => U64,
    }
}

/// Renders the full trace as JSON lines (trailing newline included).
pub fn render_jsonl(
    meta: &TraceMeta,
    recorder: Option<&FlightRecorder>,
    tenants: Option<&TenantFlow>,
) -> String {
    fn line<R: TraceRecord>(mut r: R) -> String {
        let mut fields = r.fields();
        let rec = std::iter::once(("rec", Member::Tag(R::REC)));
        render_line(fields.next().into_iter().chain(rec).chain(fields))
    }
    // Pushed stream by stream, so the stable sort on `t_ps` orders ties
    // faults before links before nodes before tenants, each in ring order.
    let mut records: Vec<(u64, String)> = Vec::new();
    if let Some(rec) = recorder {
        records.extend(rec.fault_events().map(|&e| (e.t_ps, line(e))));
        records.extend(rec.link_samples().map(|&s| (s.t_ps, line(s))));
        records.extend(rec.node_samples().map(|&s| (s.t_ps, line(s))));
    }
    let tenant_samples = tenants.into_iter().flat_map(TenantFlow::samples);
    records.extend(tenant_samples.map(|s| (s.t_ps, line(s))));
    records.sort_by_key(|&(t, _)| t);

    let schema = std::iter::once(("schema", Member::Tag(TRACE_SCHEMA)));
    let mut out = render_line(schema.chain(meta.clone().fields()));
    for (_, line) in records {
        out.push_str(&line);
    }
    out
}

/// One JSON object holding `fields` in order, newline-terminated.
fn render_line<'a>(fields: impl Iterator<Item = (&'static str, Member<'a>)>) -> String {
    let mut out = String::new();
    for (i, (key, member)) in fields.enumerate() {
        let _ = write!(out, "{}\"{key}\":", if i == 0 { '{' } else { ',' });
        let _ = match member {
            Member::Tag(s) => write!(out, "\"{s}\""),
            Member::Str(s) => write!(out, "\"{}\"", escape(s)),
            Member::Kind(k) => write!(out, "\"{}\"", k.as_str()),
            Member::U16(v) => write!(out, "{v}"),
            Member::U32(v) => write!(out, "{v}"),
            Member::U64(v) => write!(out, "{v}"),
        };
    }
    out.push_str("}\n");
    out
}

/// Minimal JSON string escaping (names here are plain identifiers, but a
/// malformed file must be impossible).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use sonuma_sim::SimTime;

    use super::*;
    use crate::recorder::{FaultKind, TraceConfig};

    #[test]
    fn renders_sorted_integer_only_lines() {
        let cfg = TraceConfig::every(SimTime::from_ns(100));
        let mut rec = FlightRecorder::new(&cfg, 2, 2);
        rec.record_link(SimTime::from_ns(200), 0, 0, 1, 64, 1, 0);
        rec.record_transition(SimTime::from_ns(150), FaultKind::LinkKill, 0, 1);
        let mut flow = TenantFlow::new(SimTime::from_ns(100));
        flow.record(SimTime::from_ns(120), 3, SimTime::from_ns(2));
        let meta = TraceMeta {
            scenario: "unit".to_string(),
            backend: "sonuma".to_string(),
            nodes: 2,
            interval_ps: SimTime::from_ns(100).as_ps(),
        };
        let text = render_jsonl(&meta, Some(&rec), Some(&flow));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"schema\":\"sonuma-trace/v1\""));
        // 150 ns fault, then the two 200 ns records with fault < link <
        // tenant rank ordering... here link (rank 1) before tenant (rank 3).
        assert!(lines[1].contains("\"kind\":\"link_kill\""));
        assert!(lines[2].contains("\"rec\":\"link\""));
        assert!(lines[3].contains("\"rec\":\"tenant\""));
        assert!(!text.contains('.'), "integer-only output: {text}");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
