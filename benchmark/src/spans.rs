//! In-memory spans recorded by the traced run around each call into the
//! product: name, start, end and the span that caused it. Nothing is
//! written until the run is over; then the spans go out in Chrome trace
//! format and as a self-time table.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// One row of the self-time table.
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_s: f64,
    /// Total minus the part of it that child spans cover.
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Closes the innermost open span and returns its seconds.
    pub fn end(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end without begin") as usize;
        self.spans[id].end_ns = end_ns;
        (end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.begin(name);
        let out = f(self);
        (out, self.end())
    }

    /// The spans as text, one `name start_ns end_ns parent` line each, for
    /// a child process to hand to its parent.
    pub fn export(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "{} {} {} {parent}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }

    /// Appends spans a child exported, shifted to start now and hung
    /// under the innermost open span. Names must be among `names`; a line
    /// that does not parse is an error.
    pub fn import(&mut self, text: &str, names: &[&'static str]) -> Result<(), String> {
        let base = self.spans.len() as u32;
        let offset = self.now_ns();
        let root = self.open.last().copied();
        for line in text.lines() {
            let bad = || format!("bad span line {line:?}");
            let mut parts = line.split(' ');
            let name = parts.next().ok_or_else(bad)?;
            let name = names.iter().find(|n| **n == name).ok_or_else(bad)?;
            let mut int = || {
                parts
                    .next()
                    .and_then(|p| p.parse::<i64>().ok())
                    .ok_or_else(bad)
            };
            let (start, end, parent) = (int()?, int()?, int()?);
            self.spans.push(Span {
                name,
                start_ns: offset + start as u64,
                end_ns: offset + end as u64,
                parent: if parent < 0 {
                    root
                } else {
                    Some(base + parent as u32)
                },
            });
        }
        Ok(())
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Per-name totals and self times, in order of first appearance.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<SelfTime> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(row) => row,
                None => {
                    rows.push(SelfTime {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_s += dur as f64 / 1e9;
            row.self_s += dur.saturating_sub(*children) as f64 / 1e9;
        }
        rows
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event each, microsecond timestamps, the causing span's
    /// index in `args.parent`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 110 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{workload}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.begin("outer");
        t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.begin("inner");
        t.end();
        t.end();
        let rows = t.self_times();
        let (outer, inner) = (&rows[0], &rows[1]);
        assert_eq!((outer.name, outer.count), ("outer", 1));
        assert_eq!((inner.name, inner.count), ("inner", 2));
        assert!(inner.total_s >= 0.002);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.chrome_trace("w").contains("\"parent\":0"));
    }

    #[test]
    fn import_rehangs_a_childs_spans() {
        let mut child = Tracer::new();
        child.begin("outer");
        child.begin("inner");
        child.end();
        child.end();
        let mut parent = Tracer::new();
        parent.begin("root");
        parent.import(&child.export(), &["outer", "inner"]).unwrap();
        parent.end();
        assert_eq!(parent.spans[1].parent, Some(0));
        assert_eq!(parent.spans[2].parent, Some(1));
        assert!(parent.import("nonsense 1 2 -1\n", &["outer"]).is_err());
    }
}
