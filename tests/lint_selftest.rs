//! Self-test corpus for tdb-lint: one known-bad snippet per rule proving
//! the rule fires, pragma/test-code suppression checks, the one direction
//! of the retired `metrics-registry` rule the type system does not give
//! (a declared metric nothing reports), and property tests that the
//! hand-rolled lexer never panics on arbitrary bytes and exactly
//! round-trips every source file in this workspace.

use std::{fs, path::Path};

use proptest::prelude::*;
use tdb_lint::lexer::lex;
use tdb_lint::rules;
use tdb_lint::scan::SourceFile;

// --- one known-bad snippet per rule --------------------------------------

#[test]
fn float_width_fires_on_f32_threshold_comparison() {
    let f = SourceFile::new(
        "crates/core/src/bad.rs",
        r#"
fn above_threshold(values: &[f64], threshold: f64) -> usize {
    let t = threshold as f32;
    values.iter().filter(|&&v| v as f32 >= t).count()
}
"#,
    );
    let got = rules::float_width(&f);
    assert_eq!(got.len(), 2, "both f32 casts must be flagged: {got:?}");
    assert!(got.iter().all(|f| f.rule == "float-width"));
    assert!(got[0].message.contains("threshold"));
}

#[test]
fn lock_graph_fires_on_inverted_acquisition() {
    let a = SourceFile::new(
        "crates/cluster/src/bad_a.rs",
        "fn f(&self) { let s = self.stats.lock(); let q = self.queue.lock(); }",
    );
    let b = SourceFile::new(
        "crates/cluster/src/bad_b.rs",
        "fn g(&self) { let q = self.queue.lock(); let s = self.stats.lock(); }",
    );
    let got = rules::lock_graph(&[a, b]);
    assert!(
        got.iter()
            .any(|f| f.rule == "lock-graph" && f.message.contains("cycle")),
        "inverted acquisition order must be flagged: {got:?}"
    );
}

#[test]
fn lock_graph_consistent_acquisition_passes() {
    // the acyclic must-pass fixture: every function agrees on
    // stats-before-queue, including one reached through a call edge
    let a = SourceFile::new(
        "crates/cluster/src/good_a.rs",
        "fn f(&self) { let s = self.stats.lock(); self.enqueue(1); }\n\
         fn enqueue(&self, n: u32) { let q = self.queue.lock(); }",
    );
    let b = SourceFile::new(
        "crates/cluster/src/good_b.rs",
        "fn g(&self) { let s = self.stats.lock(); let q = self.queue.lock(); }",
    );
    assert!(rules::lock_graph(&[a, b]).is_empty());
}

#[test]
fn lock_graph_fires_on_cycle_through_a_call() {
    // the cyclic must-fail fixture: the inversion is only visible after
    // following `f`'s intra-crate call into `enqueue` one level deep
    let a = SourceFile::new(
        "crates/cluster/src/bad_call.rs",
        "fn f(&self) { let s = self.stats.lock(); self.enqueue(1); }\n\
         fn enqueue(&self, n: u32) { let q = self.queue.lock(); }\n\
         fn g(&self) { let q = self.queue.lock(); let s = self.stats.lock(); }",
    );
    let got = rules::lock_graph(std::slice::from_ref(&a));
    assert!(
        got.iter()
            .any(|f| f.message.contains("via call to `enqueue`")),
        "call-mediated cycle must be flagged: {got:?}"
    );
}

#[test]
fn lock_order_fires_on_guard_held_across_channel_wait() {
    let f = SourceFile::new(
        "crates/wire/src/bad.rs",
        "fn f(&self) { let g = self.state.lock(); let answer = rx.recv(); }",
    );
    let got = rules::lock_order(std::slice::from_ref(&f));
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].message.contains("recv"));
}

#[test]
fn the_rules_are_the_three_no_other_tool_has() {
    assert_eq!(tdb_lint::RULES, ["float-width", "lock-order", "lock-graph"]);
}

/// Metric names are checked by the compiler (a metric is a `static` of
/// `tdb_obs::m`), but an unused `pub static` gets no dead-code warning:
/// a row of the table that nothing reports would be a dashboard line
/// stuck at zero forever.
#[test]
fn every_declared_metric_is_reported() {
    let root = tdb_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let scan = |p: &Path| SourceFile::new(p.to_string_lossy(), fs::read_to_string(p).unwrap());
    let table = scan(&root.join("crates/obs/src/declared.rs"));
    let kinds = ["counter", "gauge", "histogram", "family"];
    let mut idle: Vec<&str> = (1..table.len())
        .filter(|&i| kinds.contains(&table.text(i - 1)))
        .map(|i| table.text(i))
        .filter(|id| id.len() > 1 && !id.contains(char::is_lowercase))
        .collect();
    assert!(idle.len() > 60, "table rows not recognised: {idle:?}");
    let mut stack = vec![root.join("crates")];
    while let Some(path) = stack.pop() {
        if path.is_dir() && !path.ends_with("crates/obs") {
            stack.extend(path.read_dir().expect("dir").flatten().map(|e| e.path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let f = scan(&path);
            let live = |i: usize| !f.in_test_code(f.tok(i).start);
            idle.retain(|id| !(0..f.len()).any(|i| f.is_ident(i, id) && live(i)));
        }
    }
    assert!(idle.is_empty(), "declared but never reported: {idle:?}");
}

// --- suppression ----------------------------------------------------------

#[test]
fn pragma_and_test_code_suppress_findings() {
    let bad = "fn scan(v: f64, threshold: f64) -> bool { v as f32 >= threshold }";
    assert_eq!(
        rules::float_width(&SourceFile::new("crates/wire/src/bad.rs", bad)).len(),
        1
    );

    let pragma = SourceFile::new(
        "crates/wire/src/ok.rs",
        format!("// tdb-lint: allow(float-width) — selects an exact f32 data value\n{bad}\n"),
    );
    assert!(
        rules::float_width(&pragma).is_empty(),
        "pragma must suppress"
    );

    let test_code = SourceFile::new(
        "crates/wire/src/ok.rs",
        format!("#[cfg(test)]\nmod tests {{\n    {bad}\n}}\n"),
    );
    assert!(
        rules::float_width(&test_code).is_empty(),
        "test code is exempt"
    );

    let test_file = SourceFile::new("tests/anything.rs", bad);
    assert!(
        rules::float_width(&test_file).is_empty(),
        "tests/ files are exempt"
    );
}

/// A pragma is only as good as the rule it names: one left over from a
/// retired rule (or mistyped) suppresses nothing, so it is a finding.
#[test]
fn a_pragma_naming_an_unknown_rule_is_a_finding() {
    for retired in [
        "panic-path",
        "metrics-registry",
        "error-context",
        "flaot-width",
    ] {
        let f = SourceFile::new(
            "crates/wire/src/stale.rs",
            format!("fn f(v: &[u8]) -> u8 {{\n    // tdb-lint: allow({retired}) — checked by the caller\n    v[0]\n}}\n"),
        );
        let got = tdb_lint::lint_files(std::slice::from_ref(&f));
        assert_eq!(got.len(), 1, "{retired}: {got:?}");
        assert_eq!((got[0].rule.as_str(), got[0].line), ("pragma", 2));
        assert!(got[0].message.contains(retired), "{got:?}");
    }
    let known = SourceFile::new(
        "crates/wire/src/ok.rs",
        "// tdb-lint: allow(lock-order, float-width) — both exist\nfn f() {}\n",
    );
    assert!(tdb_lint::lint_files(std::slice::from_ref(&known)).is_empty());
}

// --- output determinism ----------------------------------------------------

#[test]
fn findings_sort_by_rule_then_path_then_line() {
    let mk = |rule: &str, path: &str, line: u32| rules::Finding {
        rule: rule.into(),
        path: path.into(),
        line,
        message: "m".into(),
        line_text: "t".into(),
    };
    let mut got = vec![
        mk("lock-order", "crates/a.rs", 1),
        mk("float-width", "crates/b.rs", 9),
        mk("float-width", "crates/a.rs", 5),
        mk("float-width", "crates/a.rs", 2),
    ];
    got.sort();
    let order: Vec<(String, String, u32)> =
        got.into_iter().map(|f| (f.rule, f.path, f.line)).collect();
    assert_eq!(
        order,
        [
            ("float-width".into(), "crates/a.rs".into(), 2),
            ("float-width".into(), "crates/a.rs".into(), 5),
            ("float-width".into(), "crates/b.rs".into(), 9),
            ("lock-order".into(), "crates/a.rs".into(), 1),
        ]
    );
}

#[test]
fn json_report_is_byte_stable_and_escaped() {
    let finding = rules::Finding {
        rule: "lock-order".into(),
        path: "crates/wire/src/x.rs".into(),
        line: 3,
        message: "`recv()` on the \"query\" path".into(),
        line_text: "let x = rx.recv();\t// tail".into(),
    };
    let findings = [finding];
    let a = tdb_lint::render_json(&findings);
    let b = tdb_lint::render_json(&findings);
    assert_eq!(a, b, "same report must render byte-identically");
    assert!(a.contains(r#"\"query\""#), "quotes must be escaped: {a}");
    assert!(a.contains(r"\t"), "control characters must be escaped: {a}");
    assert!(a.contains("\"line\":3"));
}

// --- lexer properties ------------------------------------------------------

/// Tokens must tile the input exactly: concatenating every token's text
/// reproduces the source byte for byte.
fn assert_round_trip(src: &str) {
    let tokens = lex(src);
    let mut rebuilt = String::with_capacity(src.len());
    let mut pos = 0;
    for t in &tokens {
        assert_eq!(t.start, pos, "token gap/overlap at byte {pos}");
        rebuilt.push_str(t.text(src));
        pos = t.end;
    }
    assert_eq!(pos, src.len(), "tokens must cover the whole input");
    assert_eq!(rebuilt, src);
}

#[test]
fn lexer_round_trips_every_workspace_source() {
    let root = tdb_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let mut checked = 0;
    for top in tdb_lint::SCAN_ROOTS {
        let dir = root.join(top);
        if !dir.is_dir() {
            continue;
        }
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).expect("readable dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let src = std::fs::read_to_string(&path).expect("readable source");
                    assert_round_trip(&src);
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked > 50,
        "expected a real workspace, saw {checked} files"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer must never panic and must round-trip on arbitrary bytes
    /// (valid UTF-8 via lossy conversion — the driver reads files as
    /// strings, so that is the real input domain).
    #[test]
    fn lexer_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let src = String::from_utf8_lossy(&bytes);
        assert_round_trip(&src);
    }

    /// Same property over inputs biased toward Rust-ish trouble: quote
    /// and hash runs, half-open strings, raw-string prefixes, nested
    /// comment openers.
    #[test]
    fn lexer_never_panics_on_adversarial_fragments(
        picks in prop::collection::vec(0usize..12, 0..64),
    ) {
        const FRAGMENTS: &[&str] = &[
            "r#\"", "\"", "'", "b'", "/*", "*/", "//", "r##", "0x", "1.",
            "'a", "\\",
        ];
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        assert_round_trip(&src);
    }
}
