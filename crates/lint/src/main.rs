//! CLI driver: `cargo run -p tdb-lint [-- --json]`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use tdb_lint::{find_workspace_root, lint_workspace, render_json};

fn main() -> ExitCode {
    let mut json = false;
    for arg in env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "tdb-lint: domain lints for the ThresholDB workspace\n\n\
                     USAGE: cargo run -p tdb-lint [-- FLAGS]\n\n\
                     FLAGS:\n  --json      emit the findings as JSON on stdout\n  \
                     --help, -h  this help"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("tdb-lint: unknown flag `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!(
            "tdb-lint: no workspace Cargo.toml found above {}",
            cwd.display()
        );
        return ExitCode::from(2);
    };

    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tdb-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", render_json(&findings));
    } else {
        for f in &findings {
            eprintln!("{}", f.render());
        }
        println!("tdb-lint: {} finding(s)", findings.len());
        if !findings.is_empty() {
            eprintln!(
                "tdb-lint: fix them, or add a justified `// tdb-lint: allow(<rule>)` \
                 pragma next to the code"
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
