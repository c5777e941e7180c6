//! The flat-TOML form of a [`ScenarioSpec`]: `key = value` lines under
//! optional `[tenants]`, `[traffic]`, `[execution]`, `[faults]`, `[trace]`
//! and `[kv]` tables. [`ScenarioSpec::to_toml`] and
//! [`ScenarioSpec::from_toml`] round-trip every field.

use std::collections::HashSet;

use sonuma_core::SchedPolicy;

use super::spec::{
    BackendKind, BackendSel, FaultSpec, KvSpec, PlatformSpec, ScenarioSpec, SpecError, TenancySpec,
    TopologySpec, TraceSpec, TrafficSpec, WeightMode, WorkloadKind,
};
use crate::trafficgen::ArrivalKind;

impl ScenarioSpec {
    /// Renders the spec as flat TOML, the format [`ScenarioSpec::from_toml`]
    /// reads back (round-trip stable). No product caller: it is API as the
    /// round-trip oracle the parser's tests check `from_toml` against.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("# sonuma-bench scenario spec\n");
        out.push_str(&format!("name = \"{}\"\n", self.name));
        out.push_str(&format!("nodes = {}\n", self.nodes));
        out.push_str(&format!("topology = \"{}\"\n", self.topology.render()));
        out.push_str(&format!(
            "platform = \"{}\"\n",
            match self.platform {
                PlatformSpec::Hardware => "hardware",
                PlatformSpec::Dev => "dev",
            }
        ));
        out.push_str(&format!("backend = \"{}\"\n", self.backend.as_str()));
        out.push_str(&format!("workload = \"{}\"\n", self.workload.as_str()));
        out.push_str(&format!("read_fraction = {}\n", self.read_fraction));
        out.push_str(&format!("op_bytes = {}\n", self.op_bytes));
        out.push_str(&format!("ops_per_node = {}\n", self.ops_per_node));
        out.push_str(&format!("window = {}\n", self.window));
        out.push_str(&format!("segment_bytes = {}\n", self.segment_bytes));
        out.push_str(&format!("seed = {}\n", self.seed));
        if self.threads != 1 || self.qp_entries != 64 {
            out.push_str("\n[execution]\n");
            if self.threads != 1 {
                out.push_str(&format!("threads = {}\n", self.threads));
            }
            if self.qp_entries != 64 {
                out.push_str(&format!("qp_entries = {}\n", self.qp_entries));
            }
        }
        if let (Some(tn), Some(tr)) = (&self.tenancy, &self.traffic) {
            out.push_str("\n[tenants]\n");
            out.push_str(&format!("count = {}\n", tn.tenants));
            out.push_str(&format!("scheduler = \"{}\"\n", tn.scheduler.as_str()));
            out.push_str(&format!("weights = \"{}\"\n", tn.weights.as_str()));
            out.push_str("\n[traffic]\n");
            out.push_str(&format!("arrival = \"{}\"\n", tr.arrival.as_str()));
            out.push_str(&format!("rate_per_tenant = {}\n", tr.rate_per_tenant));
            out.push_str(&format!("duration_us = {}\n", tr.duration_us));
            out.push_str(&format!("zipf_addr = {}\n", tr.zipf_addr));
            out.push_str(&format!("zipf_dst = {}\n", tr.zipf_dst));
            out.push_str(&format!("burst = {}\n", tr.burst));
        }
        // A zero-count section renders as no section: the two are
        // behaviorally identical, and rendering them identically keeps
        // reports byte-identical too.
        if let Some(f) = self.faults.as_ref().filter(|f| !f.is_empty()) {
            out.push_str("\n[faults]\n");
            out.push_str(&format!("seed = {}\n", f.seed));
            out.push_str(&format!("degraded_links = {}\n", f.degraded_links));
            out.push_str(&format!("drop_prob = {}\n", f.drop_prob));
            out.push_str(&format!("corrupt_prob = {}\n", f.corrupt_prob));
            out.push_str(&format!("derate = {}\n", f.derate));
            out.push_str(&format!("credit_loss = {}\n", f.credit_loss));
            out.push_str(&format!("killed_links = {}\n", f.killed_links));
            out.push_str(&format!("kill_at_us = {}\n", f.kill_at_us));
            out.push_str(&format!("revive_at_us = {}\n", f.revive_at_us));
            out.push_str(&format!("crashed_nodes = {}\n", f.crashed_nodes));
            out.push_str(&format!("crash_at_us = {}\n", f.crash_at_us));
            out.push_str(&format!("restart_at_us = {}\n", f.restart_at_us));
            out.push_str(&format!("timeout_us = {}\n", f.timeout_us));
            out.push_str(&format!("max_retries = {}\n", f.max_retries));
        }
        // Likewise, a zero-interval [trace] table renders as no section.
        if let Some(t) = self.trace.as_ref().filter(|t| !t.is_empty()) {
            out.push_str("\n[trace]\n");
            out.push_str(&format!("interval_us = {}\n", t.interval_us));
            out.push_str(&format!("link_capacity = {}\n", t.link_capacity));
            out.push_str(&format!("node_capacity = {}\n", t.node_capacity));
            out.push_str(&format!("event_capacity = {}\n", t.event_capacity));
        }
        // And a zero-key [kv] table renders as no section.
        if let Some(kv) = self.kv.as_ref().filter(|kv| !kv.is_empty()) {
            out.push_str("\n[kv]\n");
            out.push_str(&format!("keys = {}\n", kv.keys));
            out.push_str(&format!("value_min = {}\n", kv.value_min));
            out.push_str(&format!("value_max = {}\n", kv.value_max));
            out.push_str(&format!("zipf_key = {}\n", kv.zipf_key));
            out.push_str(&format!("get_fraction = {}\n", kv.get_fraction));
            out.push_str(&format!("repeat_prob = {}\n", kv.repeat_prob));
            out.push_str(&format!("seed = {}\n", kv.seed));
        }
        out
    }

    /// Parses a flat TOML spec (comments and blank lines allowed; every
    /// key checked; unknown and repeated keys and tables rejected).
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed lines, [`SpecError::Invalid`] on
    /// constraint violations.
    pub fn from_toml(text: &str) -> Result<ScenarioSpec, SpecError> {
        let mut spec = ScenarioSpec::default();
        let mut saw_name = false;
        let mut saw_nodes = false;
        /// Which TOML table the parser is inside.
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Section {
            Top,
            Tenants,
            Traffic,
            Execution,
            Faults,
            Trace,
            Kv,
        }
        let mut section = Section::Top;
        // TOML forbids defining a table or a key twice: `(table, key)`
        // pairs seen so far, a table header being its own `""` key.
        let mut seen: HashSet<(Section, &str)> = HashSet::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse_err = |msg: &str| SpecError::Parse(lineno, msg.to_string());
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| parse_err("unterminated section header"))?
                    .trim();
                section = match name {
                    "tenants" => {
                        spec.tenancy.get_or_insert_with(TenancySpec::default);
                        Section::Tenants
                    }
                    "traffic" => {
                        spec.traffic.get_or_insert_with(TrafficSpec::default);
                        Section::Traffic
                    }
                    "execution" => Section::Execution,
                    "faults" => {
                        spec.faults.get_or_insert_with(FaultSpec::default);
                        Section::Faults
                    }
                    "trace" => {
                        spec.trace.get_or_insert_with(TraceSpec::default);
                        Section::Trace
                    }
                    "kv" => {
                        spec.kv.get_or_insert_with(KvSpec::default);
                        Section::Kv
                    }
                    other => {
                        return Err(parse_err(&format!(
                            "unknown section [{other}] (tenants|traffic|execution|faults|trace|kv)"
                        )))
                    }
                };
                if !seen.insert((section, "")) {
                    return Err(parse_err(&format!("duplicate section [{name}]")));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| parse_err("expected `key = value`"))?;
            let key = key.trim();
            if !seen.insert((section, key)) {
                return Err(parse_err(&format!("duplicate key {key:?}")));
            }
            let value = parse_scalar(value.trim()).map_err(|m| SpecError::Parse(lineno, m))?;
            if section == Section::Tenants {
                let tn = spec.tenancy.as_mut().expect("section initialized");
                match key {
                    "count" => tn.tenants = value.into_uint(lineno, "count")?,
                    "scheduler" => {
                        tn.scheduler = SchedPolicy::parse(&value.into_string(lineno, "scheduler")?)
                            .map_err(|m| SpecError::Parse(lineno, m))?;
                    }
                    "weights" => {
                        tn.weights = WeightMode::parse(&value.into_string(lineno, "weights")?)
                            .map_err(|m| SpecError::Parse(lineno, m))?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [tenants]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Execution {
                match key {
                    "threads" => spec.threads = value.into_uint(lineno, "threads")?,
                    "qp_entries" => {
                        spec.qp_entries = value.into_uint(lineno, "qp_entries")?;
                    }
                    // frozen-benchmark residue: ROADMAP item 9 deletes
                    // (`validate` rejects any value but 0)
                    "speculate_epochs" => {
                        spec.speculate_epochs = value.into_uint(lineno, "speculate_epochs")?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [execution]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Faults {
                let f = spec.faults.as_mut().expect("section initialized");
                match key {
                    "seed" => f.seed = value.into_u64(lineno, "seed")?,
                    "degraded_links" => {
                        f.degraded_links = value.into_uint(lineno, "degraded_links")?;
                    }
                    "drop_prob" => f.drop_prob = value.into_f64(lineno, "drop_prob")?,
                    "corrupt_prob" => f.corrupt_prob = value.into_f64(lineno, "corrupt_prob")?,
                    "derate" => f.derate = value.into_f64(lineno, "derate")?,
                    "credit_loss" => {
                        f.credit_loss = value.into_uint(lineno, "credit_loss")?;
                    }
                    "killed_links" => {
                        f.killed_links = value.into_uint(lineno, "killed_links")?;
                    }
                    "kill_at_us" => f.kill_at_us = value.into_f64(lineno, "kill_at_us")?,
                    "revive_at_us" => f.revive_at_us = value.into_f64(lineno, "revive_at_us")?,
                    "crashed_nodes" => {
                        f.crashed_nodes = value.into_uint(lineno, "crashed_nodes")?;
                    }
                    "crash_at_us" => f.crash_at_us = value.into_f64(lineno, "crash_at_us")?,
                    "restart_at_us" => {
                        f.restart_at_us = value.into_f64(lineno, "restart_at_us")?;
                    }
                    "timeout_us" => f.timeout_us = value.into_f64(lineno, "timeout_us")?,
                    "max_retries" => {
                        f.max_retries = value.into_uint(lineno, "max_retries")?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [faults]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Trace {
                let t = spec.trace.as_mut().expect("section initialized");
                match key {
                    "interval_us" => t.interval_us = value.into_f64(lineno, "interval_us")?,
                    "link_capacity" => {
                        t.link_capacity = value.into_uint(lineno, "link_capacity")?;
                    }
                    "node_capacity" => {
                        t.node_capacity = value.into_uint(lineno, "node_capacity")?;
                    }
                    "event_capacity" => {
                        t.event_capacity = value.into_uint(lineno, "event_capacity")?;
                    }
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [trace]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Kv {
                let kv = spec.kv.as_mut().expect("section initialized");
                match key {
                    "keys" => kv.keys = value.into_u64(lineno, "keys")?,
                    "value_min" => kv.value_min = value.into_u64(lineno, "value_min")?,
                    "value_max" => kv.value_max = value.into_u64(lineno, "value_max")?,
                    "zipf_key" => kv.zipf_key = value.into_f64(lineno, "zipf_key")?,
                    "get_fraction" => kv.get_fraction = value.into_f64(lineno, "get_fraction")?,
                    "repeat_prob" => kv.repeat_prob = value.into_f64(lineno, "repeat_prob")?,
                    "seed" => kv.seed = value.into_u64(lineno, "seed")?,
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [kv]"),
                        ));
                    }
                }
                continue;
            }
            if section == Section::Traffic {
                let tr = spec.traffic.as_mut().expect("section initialized");
                match key {
                    "arrival" => {
                        tr.arrival = ArrivalKind::parse(&value.into_string(lineno, "arrival")?)
                            .map_err(|m| SpecError::Parse(lineno, m))?;
                    }
                    "rate_per_tenant" => {
                        tr.rate_per_tenant = value.into_f64(lineno, "rate_per_tenant")?;
                    }
                    "duration_us" => tr.duration_us = value.into_f64(lineno, "duration_us")?,
                    "zipf_addr" => tr.zipf_addr = value.into_f64(lineno, "zipf_addr")?,
                    "zipf_dst" => tr.zipf_dst = value.into_f64(lineno, "zipf_dst")?,
                    "burst" => tr.burst = value.into_uint(lineno, "burst")?,
                    other => {
                        return Err(SpecError::Parse(
                            lineno,
                            format!("unknown key {other:?} in [traffic]"),
                        ));
                    }
                }
                continue;
            }
            match key {
                "name" => {
                    spec.name = value.into_string(lineno, "name")?;
                    saw_name = true;
                }
                "nodes" => {
                    spec.nodes = value.into_uint(lineno, "nodes")?;
                    saw_nodes = true;
                }
                "topology" => {
                    spec.topology = parse_topology(&value.into_string(lineno, "topology")?)
                        .map_err(|m| SpecError::Parse(lineno, m))?;
                }
                "platform" => {
                    spec.platform = match value.into_string(lineno, "platform")?.as_str() {
                        "hardware" => PlatformSpec::Hardware,
                        "dev" => PlatformSpec::Dev,
                        other => {
                            return Err(SpecError::Parse(
                                lineno,
                                format!("unknown platform {other:?} (hardware|dev)"),
                            ))
                        }
                    };
                }
                "backend" => {
                    spec.backend = match value.into_string(lineno, "backend")?.as_str() {
                        "all" => BackendSel::All,
                        "sonuma" => BackendSel::One(BackendKind::Sonuma),
                        "rdma" => BackendSel::One(BackendKind::Rdma),
                        "tcp" => BackendSel::One(BackendKind::Tcp),
                        other => {
                            return Err(SpecError::Parse(
                                lineno,
                                format!("unknown backend {other:?} (sonuma|rdma|tcp|all)"),
                            ))
                        }
                    };
                }
                "workload" => {
                    spec.workload = match value.into_string(lineno, "workload")?.as_str() {
                        "uniform-read" => WorkloadKind::UniformRead,
                        "neighbor-read" => WorkloadKind::NeighborRead,
                        "mixed" => WorkloadKind::Mixed,
                        other => {
                            return Err(SpecError::Parse(
                                lineno,
                                format!(
                                    "unknown workload {other:?} \
                                     (uniform-read|neighbor-read|mixed)"
                                ),
                            ))
                        }
                    };
                }
                "read_fraction" => spec.read_fraction = value.into_f64(lineno, "read_fraction")?,
                "op_bytes" => spec.op_bytes = value.into_u64(lineno, "op_bytes")?,
                "ops_per_node" => spec.ops_per_node = value.into_u64(lineno, "ops_per_node")?,
                "window" => spec.window = value.into_uint(lineno, "window")?,
                "segment_bytes" => spec.segment_bytes = value.into_u64(lineno, "segment_bytes")?,
                "seed" => spec.seed = value.into_u64(lineno, "seed")?,
                other => {
                    return Err(SpecError::Parse(lineno, format!("unknown key {other:?}")));
                }
            }
        }
        if !saw_name {
            return Err(SpecError::Invalid("missing required key `name`".into()));
        }
        if !saw_nodes {
            return Err(SpecError::Invalid("missing required key `nodes`".into()));
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// A scalar TOML value: quoted string or bare number.
enum Scalar {
    Str(String),
    Num(String),
}

impl Scalar {
    fn into_string(self, lineno: usize, key: &str) -> Result<String, SpecError> {
        match self {
            Scalar::Str(s) => Ok(s),
            Scalar::Num(_) => Err(SpecError::Parse(
                lineno,
                format!("{key} must be a quoted string"),
            )),
        }
    }

    fn into_u64(self, lineno: usize, key: &str) -> Result<u64, SpecError> {
        match self {
            Scalar::Num(n) => n
                .parse::<u64>()
                .map_err(|_| SpecError::Parse(lineno, format!("{key} must be an integer"))),
            Scalar::Str(_) => Err(SpecError::Parse(
                lineno,
                format!("{key} must be an unquoted integer"),
            )),
        }
    }

    /// An integer narrowed to the field's own width, rejecting values the
    /// field cannot hold.
    fn into_uint<T: TryFrom<u64>>(self, lineno: usize, key: &str) -> Result<T, SpecError> {
        let n = self.into_u64(lineno, key)?;
        T::try_from(n).map_err(|_| SpecError::Parse(lineno, format!("{key} = {n} is out of range")))
    }

    fn into_f64(self, lineno: usize, key: &str) -> Result<f64, SpecError> {
        match self {
            Scalar::Num(n) => n
                .parse::<f64>()
                .map_err(|_| SpecError::Parse(lineno, format!("{key} must be a number"))),
            Scalar::Str(_) => Err(SpecError::Parse(
                lineno,
                format!("{key} must be an unquoted number"),
            )),
        }
    }
}

fn parse_scalar(value: &str) -> Result<Scalar, String> {
    if let Some(rest) = value.strip_prefix('"') {
        let end = rest.find('"').ok_or("unterminated string")?;
        let tail = rest[end + 1..].trim();
        if !tail.is_empty() && !tail.starts_with('#') {
            return Err(format!("trailing garbage after string: {tail:?}"));
        }
        return Ok(Scalar::Str(rest[..end].to_string()));
    }
    let bare = match value.find('#') {
        Some(i) => value[..i].trim(),
        None => value,
    };
    if bare.is_empty() {
        return Err("empty value".to_string());
    }
    Ok(Scalar::Num(bare.to_string()))
}

fn parse_topology(text: &str) -> Result<TopologySpec, String> {
    if text == "crossbar" {
        return Ok(TopologySpec::Crossbar);
    }
    let dims = |spec: &str| -> Result<Vec<usize>, String> {
        spec.split('x')
            .map(|d| {
                d.parse::<usize>()
                    .map_err(|_| format!("bad dimension {d:?}"))
            })
            .collect()
    };
    if let Some(rest) = text.strip_prefix("torus2d:") {
        let d = dims(rest)?;
        if d.len() != 2 {
            return Err("torus2d needs WxH".to_string());
        }
        return Ok(TopologySpec::Torus2d(d[0], d[1]));
    }
    if let Some(rest) = text.strip_prefix("torus3d:") {
        let d = dims(rest)?;
        if d.len() != 3 {
            return Err("torus3d needs XxYxZ".to_string());
        }
        return Ok(TopologySpec::Torus3d(d[0], d[1], d[2]));
    }
    Err(format!(
        "unknown topology {text:?} (crossbar|torus2d:WxH|torus3d:XxYxZ)"
    ))
}
