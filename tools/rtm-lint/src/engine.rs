//! Workspace walking, file classification, and the top-level lint run.

use crate::allowlist::{self, AllowEntry, Applied};
use crate::lexer::{lex, strip_cfg_test};
use crate::rules::{run_all, FileKind, Finding};
use std::fs;
use std::path::{Path, PathBuf};

/// Everything one lint run produced.
pub struct RunResult {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Raw finding count before suppression.
    pub total_findings: usize,
    /// Allowlist application (reported / suppressed / unused entries).
    pub applied: Applied,
}

/// Classifies a root-relative `/`-separated path; `None` = not scanned.
///
/// Skipped entirely:
/// - `target/`, `.git/`: build/VCS output;
/// - `shims/`: vendored stand-ins for crates.io dependencies — excluded
///   exactly as the real external crates would be;
/// - `benchmark/`: the standalone benchmark package, not a workspace
///   member (it declares its own `[workspace]`) and measured by wall
///   clock by design;
/// - `tests/fixtures/`: rtm-lint's own seeded-violation fixtures.
pub fn classify(rel: &str) -> Option<FileKind> {
    let comps: Vec<&str> = rel.split('/').collect();
    if comps.contains(&"target")
        || comps.contains(&".git")
        || matches!(comps.first(), Some(&"shims") | Some(&"benchmark"))
    {
        return None;
    }
    if rel.contains("tests/fixtures/") {
        return None;
    }
    if comps.contains(&"tests") {
        return Some(FileKind::Test);
    }
    if comps.contains(&"benches") {
        return Some(FileKind::Bench);
    }
    if comps.contains(&"examples") {
        return Some(FileKind::Example);
    }
    if rel.contains("src/bin/") {
        return Some(FileKind::Bin);
    }
    if comps.contains(&"src") {
        return Some(FileKind::Lib);
    }
    None
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every classified `.rs` file under `root`, applying `entries`.
pub fn run(root: &Path, entries: &[AllowEntry]) -> Result<RunResult, String> {
    let mut paths = Vec::new();
    walk(root, &mut paths).map_err(|e| format!("walking {}: {e}", root.display()))?;
    // read_dir order is platform-dependent; diagnostics must not be.
    paths.sort();

    let mut findings: Vec<Finding> = Vec::new();
    let mut files = 0usize;
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(kind) = classify(&rel) else {
            continue;
        };
        files += 1;
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let toks = strip_cfg_test(lex(&src));
        findings.extend(run_all(&rel, kind, &toks));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    let total_findings = findings.len();
    let applied = allowlist::apply(findings, entries);
    Ok(RunResult {
        files,
        total_findings,
        applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_workspace_layout() {
        assert_eq!(classify("crates/core/src/manager.rs"), Some(FileKind::Lib));
        assert_eq!(classify("crates/core/src/bin/frpt.rs"), Some(FileKind::Bin));
        assert_eq!(
            classify("crates/fleet/tests/migration.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/t2.rs"),
            Some(FileKind::Bench)
        );
        assert_eq!(classify("examples/fleet_loop.rs"), Some(FileKind::Example));
        assert_eq!(classify("src/lib.rs"), Some(FileKind::Lib));
        assert_eq!(classify("tools/rtm-lint/src/lexer.rs"), Some(FileKind::Lib));
        assert_eq!(classify("shims/rand/src/lib.rs"), None);
        assert_eq!(classify("benchmark/src/main.rs"), None);
        assert_eq!(classify("target/debug/build/x.rs"), None);
        assert_eq!(classify("tools/rtm-lint/tests/fixtures/x/src/lib.rs"), None);
        assert_eq!(classify("Cargo.toml"), None);
    }
}
