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
pub const RULES: &[&str] = &[
    "float-width",
    "lock-order",
    "lock-graph",
    "panic-path",
    "metrics-registry",
    "error-context",
];

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
// panic-path
// ---------------------------------------------------------------------------

/// Crates whose non-test code is the server/cluster/cache query path.
pub const PANIC_PATH_CRATES: &[&str] = &["wire", "cluster", "cache", "core", "storage"];

/// Forbids `unwrap`/`expect`/`panic!`-family macros and slice indexing in
/// the query path: a panic in a handler thread kills the request (and
/// under `parking_lot` semantics leaves shared state unprotected by
/// poisoning), where a typed error would travel the proto error channel.
pub fn panic_path(file: &SourceFile) -> Vec<Finding> {
    const RULE: &str = "panic-path";
    let mut out = Vec::new();
    if !PANIC_PATH_CRATES.contains(&file.crate_name()) || file.is_test_file {
        return out;
    }
    for i in 0..file.len() {
        if skipped(file, i, RULE) {
            continue;
        }
        let tok = file.tok(i);
        match tok.kind {
            TokenKind::Ident => {
                let text = file.text(i);
                let prev_dot = i > 0 && file.is_punct(i - 1, '.');
                if (text == "unwrap" || text == "expect") && prev_dot && file.is_punct(i + 1, '(') {
                    out.push(finding(
                        file,
                        i,
                        RULE,
                        format!(
                            "`.{text}()` on the query path: convert to a typed error \
                             that travels the proto error channel"
                        ),
                    ));
                } else if matches!(text, "panic" | "unreachable" | "todo" | "unimplemented")
                    && file.is_punct(i + 1, '!')
                {
                    out.push(finding(
                        file,
                        i,
                        RULE,
                        format!("`{text}!` on the query path: return a typed error instead"),
                    ));
                }
            }
            TokenKind::Punct if file.text(i) == "[" => {
                // index expressions: `expr[...]` where expr ends in an
                // identifier, `)` or `]`. Attribute `#[...]`, array
                // literals `[0u8; n]` and full-range `[..]` are exempt.
                if i == 0 {
                    continue;
                }
                let prev = file.tok(i - 1);
                let indexes = match prev.kind {
                    TokenKind::Ident => {
                        // `let [a, b] = ..` destructures and `impl T for
                        // [u8; 4]` names a type: neither indexes
                        !matches!(
                            file.text(i - 1),
                            "in" | "return" | "break" | "mut" | "ref" | "let" | "for"
                        )
                    }
                    TokenKind::Punct => matches!(file.text(i - 1), ")" | "]"),
                    _ => false,
                };
                let full_range = file.is_punct(i + 1, '.')
                    && file.is_punct(i + 2, '.')
                    && file.is_punct(i + 3, ']');
                if indexes && !full_range {
                    out.push(finding(
                        file,
                        i,
                        RULE,
                        "slice/array indexing can panic on the query path: use \
                         `.get()` or a checked range"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// metrics-registry
// ---------------------------------------------------------------------------

/// A metric name use site.
#[derive(Debug)]
struct MetricUse {
    name: String,
    /// True when the site builds the name with `format!` — matched
    /// against declared wildcard prefixes.
    dynamic: bool,
    file_idx: usize,
    sig_idx: usize,
}

/// Cross-checks every metric name string against the declared-metrics
/// list: a name used but not declared is a typo waiting to split a
/// counter, a name declared but never reported is a dashboard that will
/// stay at zero forever.
pub fn metrics_registry(files: &[SourceFile], declared: &DeclaredMetrics) -> Vec<Finding> {
    const RULE: &str = "metrics-registry";
    let mut uses: Vec<MetricUse> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !file.path.starts_with("crates/") {
            continue;
        }
        for i in 0..file.len() {
            if skipped(file, i, RULE) {
                continue;
            }
            let is_reporting_call = file.tok(i).kind == TokenKind::Ident
                && matches!(
                    file.text(i),
                    "counter" | "gauge" | "histogram" | "add" | "observe"
                )
                && file.is_punct(i + 1, '(')
                && (file.is_punct(i.wrapping_sub(1), '.')
                    || (i >= 2 && file.is_punct(i - 1, ':') && file.is_punct(i - 2, ':')));
            if !is_reporting_call {
                continue;
            }
            // first argument: optional `&`, then a string literal or a
            // `format!("prefix{...}")` builder
            let mut a = i + 2;
            if file.is_punct(a, '&') {
                a += 1;
            }
            if a < file.len() && file.tok(a).kind == TokenKind::Str {
                if let Some(name) = str_value(file.text(a)) {
                    uses.push(MetricUse {
                        name,
                        dynamic: false,
                        file_idx: fi,
                        sig_idx: a,
                    });
                }
            } else if file.is_ident(a, "format")
                && file.is_punct(a + 1, '!')
                && file.is_punct(a + 2, '(')
                && a + 3 < file.len()
                && file.tok(a + 3).kind == TokenKind::Str
            {
                if let Some(tpl) = str_value(file.text(a + 3)) {
                    let prefix = tpl.split('{').next().unwrap_or("").to_string();
                    uses.push(MetricUse {
                        name: prefix,
                        dynamic: true,
                        file_idx: fi,
                        sig_idx: a + 3,
                    });
                }
            }
        }
    }

    let mut out = Vec::new();
    let mut used_entries: BTreeSet<String> = BTreeSet::new();
    for u in &uses {
        let file = &files[u.file_idx];
        let hit = if u.dynamic {
            declared
                .wildcard_prefixes()
                .find(|p| u.name.starts_with(p.as_str()) || p.starts_with(&u.name))
                .map(|p| format!("{p}*"))
        } else {
            declared.matches(&u.name)
        };
        match hit {
            Some(entry) => {
                used_entries.insert(entry);
            }
            None => out.push(finding(
                file,
                u.sig_idx,
                RULE,
                format!(
                    "metric name `{}{}` is not in tdb-obs::declared_metrics() — \
                     a typo here silently splits a counter",
                    u.name,
                    if u.dynamic { "…" } else { "" }
                ),
            )),
        }
    }
    for (entry, line) in &declared.entries {
        if !used_entries.contains(entry) {
            out.push(Finding {
                path: declared.path.clone(),
                line: *line,
                rule: RULE.to_string(),
                message: format!(
                    "declared metric `{entry}` is never reported by any \
                     non-test code — remove it or wire it up"
                ),
                line_text: format!("\"{entry}\""),
            });
        }
    }
    out
}

/// The central declared-metrics list, parsed out of the tdb-obs source
/// (the lint never links against the code it checks).
pub struct DeclaredMetrics {
    /// `(entry, line)` — an entry ending in `*` declares a prefix family.
    pub entries: Vec<(String, u32)>,
    pub path: String,
}

impl DeclaredMetrics {
    /// Extracts the `DECLARED_METRICS` array from the obs source file.
    pub fn parse(file: &SourceFile) -> Option<DeclaredMetrics> {
        let mut entries = Vec::new();
        let start = (0..file.len()).find(|&i| file.is_ident(i, "DECLARED_METRICS"))?;
        // skip the type annotation (`&[&str]`) — the value array opens
        // after the `=`
        let eq = (start..file.len()).find(|&i| file.is_punct(i, '='))?;
        let open = (eq..file.len()).find(|&i| file.is_punct(i, '['))?;
        for i in open + 1..file.len() {
            if file.is_punct(i, ']') {
                break;
            }
            if file.tok(i).kind == TokenKind::Str {
                if let Some(v) = str_value(file.text(i)) {
                    entries.push((v, file.line(i)));
                }
            }
        }
        Some(DeclaredMetrics {
            entries,
            path: file.path.clone(),
        })
    }

    /// A declared-metrics list given directly (self-tests).
    pub fn from_list(names: &[&str]) -> DeclaredMetrics {
        DeclaredMetrics {
            entries: names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), i as u32 + 1))
                .collect(),
            path: "<declared>".to_string(),
        }
    }

    fn wildcard_prefixes(&self) -> impl Iterator<Item = String> + '_ {
        self.entries
            .iter()
            .filter(|(e, _)| e.ends_with('*'))
            .map(|(e, _)| e[..e.len() - 1].to_string())
    }

    /// The declared entry covering a literal `name`, if any.
    fn matches(&self, name: &str) -> Option<String> {
        for (e, _) in &self.entries {
            if let Some(prefix) = e.strip_suffix('*') {
                if name.starts_with(prefix) {
                    return Some(e.clone());
                }
            } else if e == name {
                return Some(e.clone());
            }
        }
        None
    }
}

/// The value of a plain string literal token (`"abc"` → `abc`).
fn str_value(text: &str) -> Option<String> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

// ---------------------------------------------------------------------------
// error-context
// ---------------------------------------------------------------------------

/// Filesystem calls that always produce `io::Error`.
const IO_CALLS: &[&str] = &[
    "read_exact_at",
    "write_all",
    "write_at",
    "sync_all",
    "sync_data",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "seek",
    "set_len",
    "flush",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "read_dir",
    "rename",
    "copy",
    "metadata",
];
/// Generic names that are io calls only with a `File`/`fs` receiver.
const IO_CALLS_QUALIFIED: &[&str] = &["open", "create", "read", "write"];
/// Markers that context was attached within the statement.
const CONTEXT_MARKERS: &[&str] = &["map_err", "in_file", "at_file", "io_at", "with_context"];

/// `io::Error` propagation in tdb-storage must attach the path/atom
/// context: a bare `?` after a filesystem call erases which partition
/// file failed, and the retry/quarantine policies key off that context.
pub fn error_context(file: &SourceFile) -> Vec<Finding> {
    const RULE: &str = "error-context";
    let mut out = Vec::new();
    if file.crate_name() != "storage" || file.is_test_file {
        return out;
    }
    for i in 0..file.len() {
        if skipped(file, i, RULE) {
            continue;
        }
        if file.tok(i).kind != TokenKind::Ident || !file.is_punct(i + 1, '(') {
            continue;
        }
        let name = file.text(i);
        let qualified = i >= 2
            && file.is_punct(i - 1, ':')
            && (file.is_ident(i - 3, "File") || file.is_ident(i - 3, "fs"));
        let is_io = IO_CALLS.contains(&name) || (IO_CALLS_QUALIFIED.contains(&name) && qualified);
        if !is_io {
            continue;
        }
        // match the call's parentheses, then look for `?`
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < file.len() {
            if file.is_punct(j, '(') {
                depth += 1;
            } else if file.is_punct(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if !file.is_punct(j + 1, '?') {
            continue;
        }
        // context attached anywhere in the enclosing statement?
        let stmt_start = statement_start(file, i);
        let stmt_end = (j..file.len())
            .find(|&k| file.is_punct(k, ';'))
            .unwrap_or(file.len() - 1);
        let has_context =
            (stmt_start..=stmt_end).any(|k| CONTEXT_MARKERS.iter().any(|m| file.is_ident(k, m)));
        if !has_context {
            out.push(finding(
                file,
                i,
                RULE,
                format!(
                    "`{name}(..)?` propagates io::Error without file context: \
                     attach the partition path (`.at_file(&self.path)?` or \
                     `.map_err(..)`) so retries and error messages name the \
                     failing file"
                ),
            ));
        }
    }
    out
}

fn statement_start(file: &SourceFile, i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if file.is_punct(j, ';') || file.is_punct(j, '{') || file.is_punct(j, '}') {
            return j + 1;
        }
    }
    0
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
    fn panic_path_flags_unwrap_and_indexing() {
        let f = file(
            "crates/wire/src/x.rs",
            "fn handle(v: Vec<u8>, i: usize) -> u8 { let x = v.get(0).unwrap(); v[i] + x }",
        );
        let got = panic_path(&f);
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn panic_path_ignores_tests_attrs_and_other_crates() {
        let f = file(
            "crates/wire/src/x.rs",
            "#[derive(Debug)]\nstruct S;\n#[test]\nfn t() { None::<u8>.unwrap(); }\n",
        );
        assert!(panic_path(&f).is_empty());
        let f = file("crates/turbgen/src/x.rs", "fn t(v: Vec<u8>) -> u8 { v[0] }");
        assert!(panic_path(&f).is_empty());
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
    fn metrics_registry_both_directions() {
        let declared = DeclaredMetrics::from_list(&["cache.hits", "io.ops.*", "never.used"]);
        let f = file(
            "crates/cache/src/a.rs",
            "fn f() { tdb_obs::add(\"cache.hits\", 1); tdb_obs::add(\"cache.hitz\", 1); \
             reg.add(&format!(\"io.ops.{name}\"), n); }",
        );
        let got = metrics_registry(&[f], &declared);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().any(|f| f.message.contains("cache.hitz")));
        assert!(got.iter().any(|f| f.message.contains("never.used")));
    }

    #[test]
    fn error_context_requires_file_context() {
        let f = file(
            "crates/storage/src/a.rs",
            "fn f(&self) -> StorageResult<()> { self.file.write_all(&b)?; Ok(()) }",
        );
        let got = error_context(&f);
        assert_eq!(got.len(), 1, "{got:?}");
        let f = file(
            "crates/storage/src/a.rs",
            "fn f(&self) -> StorageResult<()> { self.file.write_all(&b).at_file(&self.path)?; Ok(()) }",
        );
        assert!(error_context(&f).is_empty());
    }

    #[test]
    fn pragma_suppresses_findings() {
        let f = file(
            "crates/wire/src/x.rs",
            "fn handle(v: Vec<u8>) -> u8 {\n    // tdb-lint: allow(panic-path)\n    v[0]\n}",
        );
        assert!(panic_path(&f).is_empty());
    }
}
