//! tdb-lint: workspace-aware static analysis for ThresholDB.
//!
//! A self-contained lint driver (hand-rolled lexer, no syn) that walks
//! every `.rs` file under `crates/`, `compat/` and `tests/` and runs the
//! domain rules in [`rules`] — the three invariants neither the type
//! system nor clippy can state. Any finding fails the run: the only way
//! past a rule is an inline `// tdb-lint: allow(<rule>)` pragma with its
//! justification next to the code, and a pragma naming anything else is
//! itself a finding. See DESIGN.md §8 for what is enforced and by whom.

pub mod lexer;
pub mod rules;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Finding, RULES};
use scan::SourceFile;

/// Directories at the workspace root that are scanned.
pub const SCAN_ROOTS: &[&str] = &["crates", "compat", "tests"];

/// Loads, scans and lints every source file under the scan roots.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let text = fs::read_to_string(p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::new(rel, text));
    }
    Ok(lint_files(&files))
}

/// Runs every rule over an in-memory file set (the self-test entry
/// point; `lint_workspace` goes through here too).
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        out.extend(rules::float_width(f));
        out.extend(rules::unknown_pragmas(f));
    }
    out.extend(rules::lock_order(files));
    out.extend(rules::lock_graph(files));
    out.sort();
    out
}

/// Renders the findings as JSON: `{"findings": [...]}` with one object
/// per finding. Output is byte-stable — findings arrive sorted (rule,
/// path, line) and field order is fixed.
pub fn render_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn finding_json(f: &Finding) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"line_text\":\"{}\"}}",
            esc(&f.rule),
            esc(&f.path),
            f.line,
            esc(&f.message),
            esc(&f.line_text)
        )
    }
    let list = findings
        .iter()
        .map(finding_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    format!("{{\n  \"findings\": [\n    {list}\n  ]\n}}\n")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory holding the workspace
/// `Cargo.toml` (identified by a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_files_runs_all_rules() {
        let files = vec![
            SourceFile::new(
                "crates/cache/src/a.rs",
                "fn f(&self, threshold: f64) { let t = threshold as f32; \
                 let g = self.alpha.lock(); let h = self.beta.lock(); let v = rx.recv(); }",
            ),
            SourceFile::new(
                "crates/cache/src/b.rs",
                "fn g(&self) { let h = self.beta.lock(); let g = self.alpha.lock(); }",
            ),
        ];
        let got = lint_files(&files);
        for rule in RULES {
            assert!(got.iter().any(|f| f.rule == *rule), "{rule}: {got:?}");
        }
    }
}
