//! The canned scenarios. `bench/specs/*.toml` is their only source: each
//! file is embedded here and parsed on demand, so the shipped file and the
//! spec `--canned <name>` runs cannot drift apart. Adding a canned
//! scenario is one TOML file plus one row of [`CANNED`].

use super::spec::ScenarioSpec;

macro_rules! spec_file {
    ($file:literal) => {
        include_str!(concat!("../../../../bench/specs/", $file, ".toml"))
    };
}

/// `(scenario name, spec text)`, in `--list` order. The `smoke-*` rows
/// are what `--smoke` selects; the whole table is the set the digest
/// ledger in `tests/golden.rs` pins.
const CANNED: [(&str, &str); 14] = [
    ("smoke-uniform-8", spec_file!("smoke-uniform-8")),
    ("smoke-torus-16", spec_file!("smoke-torus-16")),
    ("smoke-mixed-4", spec_file!("smoke-mixed-4")),
    ("rack512-neighbor", spec_file!("rack512")),
    ("rack512-torus-scan", spec_file!("rack512-torus-scan")),
    ("rack64-tenants", spec_file!("rack64-tenants")),
    ("rack64-tenants-strict", spec_file!("rack64-tenants-strict")),
    ("rack1024-shard", spec_file!("rack1024-shard")),
    ("rack4096", spec_file!("rack4096")),
    ("rack8192", spec_file!("rack8192")),
    ("rack512-linkflap", spec_file!("rack512-linkflap")),
    ("rack1024-nodekill", spec_file!("rack1024-nodekill")),
    ("rack512-kv", spec_file!("rack512-kv")),
    ("rack1024-kv-zipf", spec_file!("rack1024-kv-zipf")),
];

/// Every canned scenario name, in `--list` order.
pub fn canned_names() -> impl Iterator<Item = &'static str> {
    CANNED.iter().map(|&(name, _)| name)
}

/// The canned spec called `name`.
///
/// # Errors
///
/// An unknown name is an error listing the known ones.
pub fn canned(name: &str) -> Result<ScenarioSpec, String> {
    let Some((_, text)) = CANNED.iter().find(|(n, _)| *n == name) else {
        let known: Vec<&str> = canned_names().collect();
        return Err(format!(
            "unknown canned spec {name:?}; known: {}",
            known.join(", ")
        ));
    };
    let spec = ScenarioSpec::from_toml(text).map_err(|e| format!("canned spec {name}: {e}"))?;
    if spec.name != name {
        return Err(format!(
            "canned spec {name} is named {:?} in its file",
            spec.name
        ));
    }
    Ok(spec)
}

/// Every canned spec, in `--list` order.
///
/// # Panics
///
/// Panics if an embedded file does not parse under its table name — a bug
/// in the checked-in file, which the `shipped_spec_files_parse` test
/// catches.
pub fn canned_specs() -> Vec<ScenarioSpec> {
    canned_names()
        .map(|name| canned(name).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}
