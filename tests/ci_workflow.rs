//! Guards `.github/workflows/ci.yml` against the YAML slips that make
//! GitHub reject the whole file, so that no job runs and nothing says so.
//!
//! No YAML parser can be downloaded here, so this is a line check of the
//! two keys people type free text after: a one-line `name:` or `run:`
//! value that is not quoted must not contain `: ` (YAML reads a nested
//! mapping: "mapping values are not allowed here") or ` #` (YAML reads a
//! comment and silently drops the rest). Tabs may not indent anything.

use std::path::Path;

#[test]
fn ci_workflow_has_no_plain_scalar_traps() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    let text = std::fs::read_to_string(&path).expect("read ci.yml");
    let mut problems = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = format!("{}:{}", path.display(), i + 1);
        if line.trim_start_matches(' ').starts_with('\t') {
            problems.push(format!("{at}: tab indentation"));
        }
        let entry = line.trim_start().trim_start_matches("- ");
        let Some(value) = ["name:", "run:"]
            .iter()
            .find_map(|key| entry.strip_prefix(key))
        else {
            continue;
        };
        let value = value.trim();
        // Quoted scalars and block scalars (`|`, `>`) take any text.
        if value.starts_with(['"', '\'', '|', '>']) {
            continue;
        }
        for trap in [": ", " #"] {
            if value.contains(trap) {
                problems.push(format!("{at}: unquoted value contains {trap:?}: {value}"));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
