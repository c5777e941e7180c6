//! The flat-TOML form of a [`ScenarioSpec`]: `key = value` lines under
//! optional `[execution]`, `[tenants]`, `[traffic]`, `[faults]`, `[trace]`
//! and `[kv]` tables, comments allowed after any line. Neither direction
//! names a key: both walk the key tables in `spec`, and each field type's
//! [`Value`] impl reads and writes its value (and renders it for the
//! report's JSON echo). [`ScenarioSpec::to_toml`] and
//! [`ScenarioSpec::from_toml`] round-trip every field.

use std::collections::HashSet;

use sonuma_core::SchedPolicy;

use super::spec::{
    values, BackendSel, Fields, Key, Keyword, PlatformSpec, ScenarioSpec, SpecError, TopologySpec,
    WeightMode, WorkloadKind, EXECUTION, FAULTS, KV, RESIDUE, TENANTS, TOP, TRACE, TRAFFIC,
};
use crate::json::Json;
use crate::trafficgen::ArrivalKind;

/// A field type a spec key can bind: how its TOML value parses, and how it
/// renders back into TOML and into the report's JSON echo.
pub(super) trait Value {
    fn set(&mut self, value: Scalar, lineno: usize, key: &str) -> Result<(), SpecError>;
    fn toml(&self) -> String;
    fn json(&self) -> Json;
}

/// Numeric fields: integers are narrowed to the field's own width.
macro_rules! number_value {
    ($($t:ty: $read:ident),+) => {$(
        impl Value for $t {
            fn set(&mut self, value: Scalar, lineno: usize, key: &str) -> Result<(), SpecError> {
                *self = value.$read(lineno, key)?;
                Ok(())
            }
            fn toml(&self) -> String {
                self.to_string()
            }
            fn json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )+};
}
number_value!(u16: into_uint, u32: into_uint, u64: into_uint, usize: into_uint, f64: into_f64);

/// Quoted-label fields (`field type: label method, parser;`).
macro_rules! label_value {
    ($($t:ty: $label:ident, $parse:expr;)+) => {$(
        impl Value for $t {
            fn set(&mut self, value: Scalar, lineno: usize, key: &str) -> Result<(), SpecError> {
                let label = value.into_string(lineno, key)?;
                *self = $parse(label.as_str()).map_err(|m| SpecError::Parse(lineno, m))?;
                Ok(())
            }
            fn toml(&self) -> String {
                format!("\"{}\"", self.$label())
            }
            fn json(&self) -> Json {
                Json::Str(self.$label().into())
            }
        }
    )+};
}
label_value! {
    String: clone, |label: &str| Ok::<_, String>(label.into());
    TopologySpec: render, TopologySpec::parse;
    PlatformSpec: name, PlatformSpec::parse;
    BackendSel: name, BackendSel::parse;
    WorkloadKind: name, WorkloadKind::parse;
    WeightMode: name, WeightMode::parse;
    SchedPolicy: as_str, SchedPolicy::parse;
    ArrivalKind: as_str, ArrivalKind::parse;
}

impl ScenarioSpec {
    /// Renders the spec as flat TOML, the format [`ScenarioSpec::from_toml`]
    /// reads back (round-trip stable). No product caller: it is API as the
    /// round-trip oracle the parser's tests check `from_toml` against.
    pub fn to_toml(&self) -> String {
        fn lines(fields: Fields<'_>) -> String {
            let line = |(key, v): (&str, &dyn Value)| format!("{key} = {}\n", v.toml());
            fields.into_iter().map(line).collect()
        }
        let mut out = format!("# sonuma-bench scenario spec\n{}", lines(values(TOP, self)));
        // `[execution]` carries only what differs from the defaults.
        let default = ScenarioSpec::default();
        let execution: Fields<'_> = EXECUTION
            .iter()
            .filter(|k| (k.get)(self).toml() != (k.get)(&default).toml())
            .map(|k| (k.name, (k.get)(self)))
            .collect();
        if !execution.is_empty() {
            out.push_str(&format!("\n[execution]\n{}", lines(execution)));
        }
        for (name, fields) in self.sections() {
            out.push_str(&format!("\n[{name}]\n{}", lines(fields)));
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
        // The table the parser is inside, `""` at the top level.
        let mut table = "";
        // TOML forbids defining a table or a key twice: `(table, key)`
        // pairs seen so far, a table header being its own `""` key.
        let mut seen: HashSet<(&str, &str)> = HashSet::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse_err = |msg: String| SpecError::Parse(lineno, msg);
            if let Some(header) = line.strip_prefix('[') {
                // A header may end in a comment, like a value line.
                let header = header.split_once('#').map_or(header, |(h, _)| h).trim_end();
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| parse_err("unterminated section header".into()))?
                    .trim();
                // Looking up no key opens the section with its defaults.
                if name.is_empty() || spec.field(name, "").is_none() {
                    return Err(parse_err(format!(
                        "unknown section [{name}] (tenants|traffic|execution|faults|trace|kv)"
                    )));
                }
                if !seen.insert((name, "")) {
                    return Err(parse_err(format!("duplicate section [{name}]")));
                }
                table = name;
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| parse_err("expected `key = value`".into()))?;
            let key = key.trim();
            if !seen.insert((table, key)) {
                return Err(parse_err(format!("duplicate key {key:?}")));
            }
            let value = parse_scalar(value.trim()).map_err(parse_err)?;
            let Some(slot) = spec.field(table, key).flatten() else {
                let within = if table.is_empty() {
                    String::new()
                } else {
                    format!(" in [{table}]")
                };
                return Err(parse_err(format!("unknown key {key:?}{within}")));
            };
            slot.set(value, lineno, key)?;
        }
        if let Some(key) = ["name", "nodes"]
            .into_iter()
            .find(|&k| !seen.contains(&("", k)))
        {
            return Err(SpecError::Invalid(format!("missing required key `{key}`")));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The field `key` binds in table `table` (`""` is the top level),
    /// opening an optional section with its defaults: `None` for an
    /// unknown table, `Some(None)` for an unknown key.
    fn field(&mut self, table: &str, key: &str) -> Option<Option<&mut dyn Value>> {
        fn find<'a, 'k, S: 'k>(
            keys: impl IntoIterator<Item = &'k Key<S>>,
            section: &'a mut S,
            key: &str,
        ) -> Option<&'a mut dyn Value> {
            let k = keys.into_iter().find(|k| k.name == key)?;
            Some((k.get_mut)(section))
        }
        Some(match table {
            "" => find(TOP, self, key),
            "execution" => find(EXECUTION.iter().chain(RESIDUE), self, key),
            "tenants" => find(TENANTS, self.tenancy.get_or_insert_default(), key),
            "traffic" => find(TRAFFIC, self.traffic.get_or_insert_default(), key),
            "faults" => find(FAULTS, self.faults.get_or_insert_default(), key),
            "trace" => find(TRACE, self.trace.get_or_insert_default(), key),
            "kv" => find(KV, self.kv.get_or_insert_default(), key),
            _ => return None,
        })
    }
}

/// A scalar TOML value: quoted string or bare number.
pub(super) enum Scalar {
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
