//! Guards `.github/workflows/ci.yml` against the YAML slips that make
//! GitHub reject the whole file, so that no job runs and nothing says so.
//!
//! No YAML parser can be downloaded here, so this is a line check of the
//! two keys people type free text after: a one-line `name:` or `run:`
//! value that is not quoted must not contain `: ` (YAML reads a nested
//! mapping: "mapping values are not allowed here") or ` #` (YAML reads a
//! comment and silently drops the rest). Tabs may not indent anything.
//!
//! No lane can be watched running from here either, so a second check
//! holds `ci.yml` to the tree: every scenario it runs by `--canned NAME`
//! is a shipped spec, and every repo path it names exists.

use std::path::{Path, PathBuf};

fn ci_yml() -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    let text = std::fs::read_to_string(&path).expect("read ci.yml");
    (path, text)
}

#[test]
fn ci_workflow_has_no_plain_scalar_traps() {
    let (path, text) = ci_yml();
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

#[test]
fn ci_workflow_names_only_what_the_tree_ships() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (_, text) = ci_yml();
    let mut shipped = Vec::new();
    for entry in std::fs::read_dir(root.join("bench/specs")).expect("bench/specs exists") {
        let spec = std::fs::read_to_string(entry.expect("dir entry").path()).expect("spec reads");
        let name = spec.lines().find_map(|l| l.trim().strip_prefix("name = "));
        shipped.extend(name.map(|n| n.trim_matches('"').to_string()));
    }
    let words: Vec<&str> = text
        .split(|c: char| c.is_whitespace() || "'\"`()[]{},;".contains(c))
        .filter(|w| !w.is_empty())
        .collect();
    let mut problems = Vec::new();
    for pair in words.windows(2) {
        if pair[0] == "--canned" && !shipped.iter().any(|n| n == pair[1]) {
            problems.push(format!(
                "--canned {}: no bench/specs/*.toml has that name",
                pair[1]
            ));
        }
    }
    for word in &words {
        let path = word.trim_end_matches(['.', ':']);
        if (path.starts_with("bench/") || path.starts_with("benchmark/"))
            && !root.join(path).exists()
        {
            problems.push(format!("{path}: no such file in the repo"));
        }
    }
    assert!(problems.is_empty(), "ci.yml:\n{}", problems.join("\n"));
}
