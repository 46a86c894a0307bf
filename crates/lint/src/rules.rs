//! The domain-specific lint rules.
//!
//! Every rule is a pure function from the scanned workspace to a list of
//! [`Finding`]s. Rules reason over token shapes, not a full AST — they
//! are deliberately conservative approximations of the invariants
//! DESIGN.md §8 spells out, with the `// tdb-lint: allow(<rule>)` pragma
//! absorbing the residual noise.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::scan::SourceFile;

/// Names of every shipped rule.
pub const RULES: &[&str] = &["float-width", "lock-order", "lock-graph"];

/// One diagnostic. Field order is load-bearing: the derived `Ord` sorts
/// reports by rule, then path, then line — the stable output order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Trimmed text of the offending source line.
    pub line_text: String,
}

impl Finding {
    /// Human-readable `path:line: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

fn finding(file: &SourceFile, sig_idx: usize, rule: &str, message: String) -> Finding {
    Finding {
        path: file.path.clone(),
        line: file.line(sig_idx),
        rule: rule.to_string(),
        message,
        line_text: file.line_text(file.tok(sig_idx).start).to_string(),
    }
}

/// Whether significant token `i` should be skipped by production-path
/// rules: test code, or suppressed by a pragma.
fn skipped(file: &SourceFile, i: usize, rule: &str) -> bool {
    file.in_test_code(file.tok(i).start) || file.allowed(rule, file.line(i))
}

// ---------------------------------------------------------------------------
// float-width
// ---------------------------------------------------------------------------

/// Flags `f32` in threshold/predicate paths: any `f32` type use, cast or
/// `f32`-suffixed literal inside a function that names a `threshold` or
/// `predicate` (parameter, local or call). The PR 1 bug class: the cold
/// scan compared in f32 while the warm cache filter compared in f64, so
/// results flipped at thresholds not representable in f32.
pub fn float_width(file: &SourceFile) -> Vec<Finding> {
    const RULE: &str = "float-width";
    let mut out = Vec::new();
    for f in &file.fns {
        let threshold_path = f.name.contains("threshold")
            || f.name.contains("predicate")
            || (f.body_start..f.body_end)
                .any(|i| file.is_ident(i, "threshold") || file.is_ident(i, "predicate"));
        if !threshold_path {
            continue;
        }
        // skip when an inner function is the real context: report each
        // token once, attributed to its innermost function
        for i in f.body_start..f.body_end.min(file.len()) {
            let innermost = file
                .enclosing_fns(i)
                .last()
                .map(|inner| std::ptr::eq(inner, f))
                .unwrap_or(false);
            if !innermost || skipped(file, i, RULE) {
                continue;
            }
            let tok = file.tok(i);
            let text = file.text(i);
            let hit = match tok.kind {
                TokenKind::Ident => text == "f32",
                TokenKind::Float | TokenKind::Int => text.ends_with("f32"),
                _ => false,
            };
            if hit {
                out.push(finding(
                    file,
                    i,
                    RULE,
                    format!(
                        "`{text}` in threshold path `{}`: thresholds and predicate \
                         comparisons must stay f64 (f32 rounds the threshold and \
                         diverges cold-scan vs warm-cache answers)",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// A lock identity: crate plus the receiver path tail of the guard
/// acquisition (`cache/stats`, `storage/inner`).
type LockId = String;

/// One acquisition edge: while holding `held`, `acquired` was taken —
/// directly, or (`via` set) through a one-level intra-crate call.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub held: LockId,
    pub acquired: LockId,
    pub path: String,
    pub line: u32,
    pub line_text: String,
    pub via: Option<String>,
}

/// A direct call made while at least one guard was held.
struct HeldCall {
    callee: String,
    krate: String,
    held: Vec<LockId>,
    path: String,
    line: u32,
    line_text: String,
}

/// What the per-function guard-scope scan extracts for the two lock
/// rules.
#[derive(Default)]
struct FnLocks {
    /// Acquisition edges within this function.
    edges: Vec<LockEdge>,
    /// Direct calls made with a guard held (for one-level following).
    calls: Vec<HeldCall>,
    /// Every lock this function acquires itself.
    acquired: Vec<LockId>,
    /// Guard-held-across-blocking-call findings (rule `lock-order`).
    blocking: Vec<Finding>,
}

/// Flags guards held across blocking I/O or channel waits — a parked
/// thread holding a lock stalls every other acquirer on the data path.
pub fn lock_order(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if file.is_test_file {
            continue;
        }
        for f in &file.fns {
            out.extend(scan_fn_locks(file, f.body_start, f.body_end).blocking);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Builds the cross-function lock-acquisition graph and fails on cycles.
///
/// Per-function acquisition sequences come from the guard-scope scan
/// (guard binding to end of scope); on top of those direct edges, a call
/// to an intra-crate function whose name is *unique in its crate* pulls
/// in that callee's own acquisitions one level deep — `f` holding `a`
/// and calling `g` which locks `b` contributes the edge `a → b`.
/// Ambiguous names (defined more than once in the crate) are not
/// followed: a wrong guess would manufacture edges that don't exist.
pub fn lock_graph(files: &[SourceFile]) -> Vec<Finding> {
    const RULE: &str = "lock-graph";
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut calls: Vec<HeldCall> = Vec::new();
    // (crate, fn name) → locks the fn acquires; None once ambiguous
    let mut acquired_by: BTreeMap<(String, String), Option<Vec<LockId>>> = BTreeMap::new();
    for file in files {
        if file.is_test_file {
            continue;
        }
        for f in &file.fns {
            let scan = scan_fn_locks(file, f.body_start, f.body_end);
            edges.extend(scan.edges);
            calls.extend(scan.calls.into_iter().filter(|c| c.callee != f.name));
            acquired_by
                .entry((file.crate_name().to_string(), f.name.clone()))
                .and_modify(|e| *e = None)
                .or_insert(Some(scan.acquired));
        }
    }
    // one-level call following
    for c in &calls {
        let Some(Some(callee_locks)) = acquired_by.get(&(c.krate.clone(), c.callee.clone())) else {
            continue;
        };
        for lock in callee_locks {
            for held in &c.held {
                if held != lock {
                    edges.push(LockEdge {
                        held: held.clone(),
                        acquired: lock.clone(),
                        path: c.path.clone(),
                        line: c.line,
                        line_text: c.line_text.clone(),
                        via: Some(c.callee.clone()),
                    });
                }
            }
        }
    }
    // cycle detection over the global acquisition graph
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        graph.entry(&e.held).or_default().insert(&e.acquired);
    }
    let mut out = Vec::new();
    for e in &edges {
        if reaches(&graph, &e.acquired, &e.held) {
            let via = e
                .via
                .as_ref()
                .map(|f| format!(" (via call to `{f}`)"))
                .unwrap_or_default();
            out.push(Finding {
                rule: RULE.to_string(),
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "acquiring `{}`{via} while holding `{}` closes a lock-order \
                     cycle (`{}` is elsewhere acquired while `{}` is held)",
                    e.acquired, e.held, e.held, e.acquired
                ),
                line_text: e.line_text.clone(),
            });
        }
    }
    out.sort();
    out.dedup();
    out
}

fn reaches(graph: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n.to_string()) {
            continue;
        }
        if let Some(next) = graph.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Calls that park the calling thread: channel waits, joins and
/// synchronous I/O. `Condvar::wait`/`wait_for` release the waited lock,
/// so they only count when *more than one* guard is held.
const BLOCKING_CALLS: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "read_until",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "accept",
    "connect",
];
const CONDVAR_WAITS: &[&str] = &["wait", "wait_for", "wait_timeout", "wait_while"];

struct Guard {
    lock: LockId,
    /// Brace depth at acquisition; the guard dies when the block closes.
    depth: usize,
    /// `let`-bound guards live to end of block, temporaries to the `;`.
    let_bound: bool,
    /// Variable name of a let-bound guard (for `drop(name)`).
    var: Option<String>,
}

/// Rust keywords that look like calls in `kw (..)` position.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "in", "as", "let", "else", "break",
];

fn scan_fn_locks(file: &SourceFile, start: usize, end: usize) -> FnLocks {
    let mut scan = FnLocks::default();
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let end = end.min(file.len());
    let mut i = start;
    while i < end {
        if file.is_punct(i, '{') {
            depth += 1;
        } else if file.is_punct(i, '}') {
            depth = depth.saturating_sub(1);
            held.retain(|g| g.depth <= depth);
        } else if file.is_punct(i, ';') {
            held.retain(|g| g.let_bound || g.depth < depth);
        } else if file.tok(i).kind == TokenKind::Ident {
            let name = file.text(i);
            // explicit drop(guard)
            if name == "drop" && file.is_punct(i + 1, '(') {
                if let Some(var) = (i + 2 < end).then(|| file.text(i + 2).to_string()) {
                    held.retain(|g| g.var.as_deref() != Some(var.as_str()));
                }
            }
            let is_call = file.is_punct(i + 1, '(');
            let zero_arg = is_call && file.is_punct(i + 2, ')');
            let acquires = zero_arg
                && file.is_punct(i.wrapping_sub(1), '.')
                && matches!(name, "lock" | "read" | "write");
            if acquires && !skipped(file, i, "lock-graph") {
                let lock = lock_identity(file, i);
                scan.acquired.push(lock.clone());
                for g in &held {
                    if g.lock != lock {
                        scan.edges.push(LockEdge {
                            held: g.lock.clone(),
                            acquired: lock.clone(),
                            path: file.path.clone(),
                            line: file.line(i),
                            line_text: file.line_text(file.tok(i).start).to_string(),
                            via: None,
                        });
                    }
                }
                let (let_bound, var) = binding_of(file, i, start);
                held.push(Guard {
                    lock,
                    depth,
                    let_bound,
                    var,
                });
            } else if is_call {
                let held_guards: Vec<&Guard> = held.iter().filter(|g| g.let_bound).collect();
                let blocking = BLOCKING_CALLS.contains(&name) && !held_guards.is_empty();
                let condvar_blocked = CONDVAR_WAITS.contains(&name) && held_guards.len() >= 2;
                if (blocking || condvar_blocked) && !skipped(file, i, "lock-order") {
                    let lock_list: Vec<&str> =
                        held_guards.iter().map(|g| g.lock.as_str()).collect();
                    scan.blocking.push(finding(
                        file,
                        i,
                        "lock-order",
                        format!(
                            "`{name}()` can block while guard{} `{}` {} held — a \
                             parked thread holding a lock stalls every other \
                             acquirer on the data path",
                            if lock_list.len() > 1 { "s" } else { "" },
                            lock_list.join("`, `"),
                            if lock_list.len() > 1 { "are" } else { "is" },
                        ),
                    ));
                }
                if !held.is_empty()
                    && !CALL_KEYWORDS.contains(&name)
                    && !skipped(file, i, "lock-graph")
                {
                    scan.calls.push(HeldCall {
                        callee: name.to_string(),
                        krate: file.crate_name().to_string(),
                        held: held.iter().map(|g| g.lock.clone()).collect(),
                        path: file.path.clone(),
                        line: file.line(i),
                        line_text: file.line_text(file.tok(i).start).to_string(),
                    });
                }
            }
        }
        i += 1;
    }
    scan
}

/// Builds the lock identity from the receiver path before `.lock()` at
/// sig-index `i` (`self.stats.lock()` → `<crate>/stats`).
fn lock_identity(file: &SourceFile, i: usize) -> LockId {
    // walk back over `ident (. | ::) ident ...`
    let mut parts: Vec<String> = Vec::new();
    let mut j = i.wrapping_sub(1); // the `.` before `lock`
    loop {
        if j == 0 || j >= file.len() {
            break;
        }
        let prev = j - 1;
        if file.tok(prev).kind == TokenKind::Ident {
            parts.push(file.text(prev).to_string());
            if prev >= 2
                && (file.is_punct(prev - 1, '.')
                    || (file.is_punct(prev - 1, ':') && file.is_punct(prev - 2, ':')))
            {
                j = if file.is_punct(prev - 1, '.') {
                    prev - 1
                } else {
                    prev - 2
                };
                continue;
            }
        }
        break;
    }
    parts.retain(|p| p != "self");
    parts.reverse();
    let tail = parts
        .iter()
        .rev()
        .take(2)
        .rev()
        .cloned()
        .collect::<Vec<_>>()
        .join(".");
    format!(
        "{}/{}",
        file.crate_name(),
        if tail.is_empty() { "<expr>" } else { &tail }
    )
}

/// Whether the acquisition at `i` is `let`-bound, and the bound name.
fn binding_of(file: &SourceFile, i: usize, fn_start: usize) -> (bool, Option<String>) {
    // walk back to the start of the statement
    let mut j = i;
    while j > fn_start {
        j -= 1;
        if file.is_punct(j, ';') || file.is_punct(j, '{') || file.is_punct(j, '}') {
            j += 1;
            break;
        }
    }
    if file.is_ident(j, "let") {
        let mut k = j + 1;
        // skip `mut`
        if file.is_ident(k, "mut") {
            k += 1;
        }
        let var = (file.tok(k).kind == TokenKind::Ident).then(|| file.text(k).to_string());
        (true, var)
    } else if file.is_ident(j, "if") || file.is_ident(j, "while") || file.is_ident(j, "match") {
        // `if let Some(x) = m.lock()...` / `match m.lock()` — scrutinee
        // guards live for the whole construct; treat as let-bound
        (true, None)
    } else {
        (false, None)
    }
}

// ---------------------------------------------------------------------------
// pragmas
// ---------------------------------------------------------------------------

/// A pragma that names no shipped rule suppresses nothing and would sit
/// there forever — the leftover of a retired rule, or a typo. Reported
/// under the pseudo-rule `pragma`, which no pragma can allow.
pub fn unknown_pragmas(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (at, rule) in &file.pragmas {
        if !RULES.contains(&rule.as_str()) {
            out.push(Finding {
                rule: "pragma".to_string(),
                path: file.path.clone(),
                line: file.text[..*at].matches('\n').count() as u32 + 1,
                message: format!(
                    "`allow({rule})` names no tdb-lint rule (the rules are {}): \
                     delete the pragma",
                    RULES.join(", ")
                ),
                line_text: file.line_text(*at).to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    #[test]
    fn float_width_fires_on_threshold_cast() {
        let f = file(
            "crates/cluster/src/x.rs",
            "fn scan(v: f64, threshold: f64) -> bool { v as f32 >= threshold as f32 }",
        );
        let got = float_width(&f);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].message.contains("f32"));
    }

    #[test]
    fn float_width_quiet_without_threshold_context() {
        let f = file(
            "crates/kernels/src/x.rs",
            "fn smooth(v: f32) -> f32 { v * 0.5f32 }",
        );
        assert!(float_width(&f).is_empty());
    }

    #[test]
    fn lock_graph_detects_cycle() {
        let a = file(
            "crates/cache/src/a.rs",
            "fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }",
        );
        let b = file(
            "crates/cache/src/b.rs",
            "fn g(&self) { let g = self.beta.lock(); let h = self.alpha.lock(); }",
        );
        let got = lock_graph(&[a, b]);
        assert!(got.iter().any(|f| f.message.contains("cycle")), "{got:?}");
    }

    #[test]
    fn lock_graph_consistent_order_is_clean() {
        let a = file(
            "crates/cache/src/a.rs",
            "fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }\n\
             fn g(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }",
        );
        assert!(lock_graph(&[a]).is_empty());
    }

    #[test]
    fn lock_graph_follows_intra_crate_calls_one_level() {
        // f holds alpha while calling helper (which locks beta); g takes
        // beta then alpha — a cycle only visible through the call edge
        let a = file(
            "crates/cache/src/a.rs",
            "fn f(&self) { let g = self.alpha.lock(); self.helper(1); }\n\
             fn helper(&self, n: u32) { let h = self.beta.lock(); }\n\
             fn g(&self) { let x = self.beta.lock(); let y = self.alpha.lock(); }",
        );
        let got = lock_graph(&[a]);
        assert!(
            got.iter()
                .any(|f| f.message.contains("via call to `helper`")),
            "{got:?}"
        );
    }

    #[test]
    fn lock_graph_does_not_follow_ambiguous_names() {
        // two fns named helper in the crate: the call is not followed,
        // so no cycle is manufactured
        let a = file(
            "crates/cache/src/a.rs",
            "fn f(&self) { let g = self.alpha.lock(); self.helper(1); }\n\
             fn helper(&self, n: u32) { let h = self.beta.lock(); }\n\
             fn g(&self) { let x = self.beta.lock(); let y = self.alpha.lock(); }",
        );
        let b = file("crates/cache/src/b.rs", "fn helper(&self, n: u32) { }");
        assert!(lock_graph(&[a, b]).is_empty());
    }

    #[test]
    fn lock_order_flags_guard_held_across_recv() {
        let a = file(
            "crates/core/src/a.rs",
            "fn f(&self) { let g = self.state.lock(); let v = rx.recv(); }",
        );
        let got = lock_order(&[a]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("recv"));
    }

    #[test]
    fn lock_order_temporary_guard_dies_at_statement_end() {
        let a = file(
            "crates/core/src/a.rs",
            "fn f(&self) { self.state.lock().push(1); let v = rx.recv(); }",
        );
        assert!(lock_order(&[a]).is_empty());
    }

    #[test]
    fn pragma_suppresses_findings() {
        let src =
            "fn scan(v: f64, threshold: f64) -> bool {\n    PRAGMA\n    v as f32 >= threshold\n}";
        let bare = file("crates/cluster/src/x.rs", &src.replace("PRAGMA", ""));
        assert_eq!(float_width(&bare).len(), 1);
        let allowed = src.replace("PRAGMA", "// tdb-lint: allow(float-width) — an exact f32");
        assert!(float_width(&file("crates/cluster/src/x.rs", &allowed)).is_empty());
    }
}
