//! A lightweight item/expression scanner over the token stream.
//!
//! Builds the per-file model the rules work on: the significant (non
//! trivia) token sequence, test-code spans (`#[cfg(test)]` modules and
//! `#[test]` functions are exempt from production-path rules), inline
//! `// tdb-lint: allow(<rule>)` pragmas, and the span + name of every
//! `fn` item (rules like `float-width` reason per function).

use std::collections::{HashMap, HashSet};

use crate::lexer::{lex, Token, TokenKind};

/// One function item: its name and the significant-token index range of
/// its body (braces included).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Index into [`SourceFile::sig`] of the opening `{`.
    pub body_start: usize,
    /// Index just past the closing `}`.
    pub body_end: usize,
}

/// A lexed and scanned source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub text: String,
    /// Every token, trivia included (tiles the text).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Function items found in the file, in source order.
    pub fns: Vec<FnItem>,
    /// Byte spans of test-only code (`#[cfg(test)]` / `#[test]` items).
    test_spans: Vec<(usize, usize)>,
    /// Lines on which `// tdb-lint: allow(rule, ...)` pragmas act.
    allows: HashMap<u32, HashSet<String>>,
    /// Every rule name a pragma gives, with the byte offset of its comment.
    pub pragmas: Vec<(usize, String)>,
    /// Whether the whole file is test code (lives under `tests/`).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Lexes and scans one file.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        let path = path.into();
        let text = text.into();
        let tokens = lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let is_test_file =
            path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/");
        let mut file = SourceFile {
            path,
            text,
            tokens,
            sig,
            fns: Vec::new(),
            test_spans: Vec::new(),
            allows: HashMap::new(),
            pragmas: Vec::new(),
            is_test_file,
        };
        file.collect_allows();
        file.collect_test_spans();
        file.collect_fns();
        file
    }

    /// The crate this file belongs to (`crates/cache/...` → `cache`,
    /// `compat/parking_lot/...` → `parking_lot`), or the first path
    /// segment when the layout is unfamiliar.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.path.split('/');
        match parts.next() {
            Some("crates") | Some("compat") => parts.next().unwrap_or(""),
            Some(first) => first,
            None => "",
        }
    }

    /// Significant token at sig-index `i`.
    pub fn tok(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    /// Text of the significant token at sig-index `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tok(i).text(&self.text)
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the file has no significant tokens.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// Whether the significant token at `i` is a punct with this text.
    pub fn is_punct(&self, i: usize, p: char) -> bool {
        i < self.len() && self.tok(i).kind == TokenKind::Punct && self.text(i).starts_with(p)
    }

    /// Whether the significant token at `i` is an identifier equal to `s`.
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        i < self.len() && self.tok(i).kind == TokenKind::Ident && self.text(i) == s
    }

    /// Whether byte offset `pos` lies inside test-only code.
    pub fn in_test_code(&self, pos: usize) -> bool {
        self.is_test_file || self.test_spans.iter().any(|&(s, e)| pos >= s && pos < e)
    }

    /// Whether a finding of `rule` on `line` is suppressed by a pragma: a
    /// trailing pragma acts on its own line, a standalone pragma comment
    /// acts on the line below it.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|rules| rules.contains(rule))
    }

    /// The 1-based line of significant token `i`.
    pub fn line(&self, i: usize) -> u32 {
        self.tok(i).line
    }

    /// The trimmed source line containing byte offset `pos`.
    pub fn line_text(&self, pos: usize) -> &str {
        let start = self.text[..pos].rfind('\n').map_or(0, |i| i + 1);
        let end = self.text[pos..]
            .find('\n')
            .map_or(self.text.len(), |i| pos + i);
        self.text[start..end].trim()
    }

    fn collect_allows(&mut self) {
        for t in &self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let body = t.text(&self.text);
            // doc comments describe the pragma syntax; only plain comments
            // carry one
            if body.starts_with("///") || body.starts_with("//!") {
                continue;
            }
            let Some(at) = body.find("tdb-lint:") else {
                continue;
            };
            let rest = &body[at + "tdb-lint:".len()..];
            let Some(open) = rest.find("allow(") else {
                continue;
            };
            let Some(close) = rest[open..].find(')') else {
                continue;
            };
            let rules: HashSet<String> = rest[open + "allow(".len()..open + close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            // a standalone pragma comment (nothing but whitespace before
            // it on the line) acts on the first code line below it
            // (skipping the rest of the comment block); a trailing pragma
            // acts on its own line
            let standalone = self.text[..t.start]
                .rfind('\n')
                .map_or(&self.text[..t.start], |i| &self.text[i + 1..t.start])
                .trim()
                .is_empty();
            let target = if standalone {
                self.next_code_line(t.line)
            } else {
                t.line
            };
            self.pragmas
                .extend(rules.iter().map(|r| (t.start, r.clone())));
            self.allows.entry(target).or_default().extend(rules);
        }
    }

    /// The first line after `line` that is not blank or comment-only
    /// (where a standalone pragma's suppression lands).
    fn next_code_line(&self, line: u32) -> u32 {
        let mut n = line + 1;
        for l in self.text.lines().skip(line as usize) {
            let t = l.trim();
            if !t.is_empty() && !t.starts_with("//") && !t.starts_with('*') {
                break;
            }
            n += 1;
        }
        n
    }

    /// Finds `#[test]` / `#[cfg(test)]` attributed items and records the
    /// byte span of each (attribute through closing brace or semicolon).
    fn collect_test_spans(&mut self) {
        let mut i = 0;
        while i < self.len() {
            if self.is_punct(i, '#') && self.is_punct(i + 1, '[') {
                // scan the attribute body for the ident `test`
                let attr_start = self.tok(i).start;
                let mut j = i + 2;
                let mut depth = 1;
                let mut is_test_attr = false;
                let mut negated = false;
                while j < self.len() && depth > 0 {
                    if self.is_punct(j, '[') {
                        depth += 1;
                    } else if self.is_punct(j, ']') {
                        depth -= 1;
                    } else if self.is_ident(j, "test") {
                        is_test_attr = true;
                    } else if self.is_ident(j, "not") {
                        // `#[cfg(not(test))]` guards production code
                        negated = true;
                    }
                    j += 1;
                }
                let is_test_attr = is_test_attr && !negated;
                if is_test_attr {
                    // the attributed item runs to its matching `}` (or a
                    // `;` that arrives before any `{`)
                    let mut k = j;
                    let mut end = None;
                    while k < self.len() {
                        if self.is_punct(k, ';') {
                            end = Some(self.tok(k).end);
                            break;
                        }
                        if self.is_punct(k, '{') {
                            end = Some(self.tok(self.match_brace(k)).end);
                            break;
                        }
                        k += 1;
                    }
                    let end = end.unwrap_or(self.text.len());
                    self.test_spans.push((attr_start, end));
                }
                i = j;
                continue;
            }
            i += 1;
        }
    }

    /// Sig-index of the `}` matching the `{` at sig-index `open`.
    pub fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.len() {
            if self.is_punct(i, '{') {
                depth += 1;
            } else if self.is_punct(i, '}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.len().saturating_sub(1)
    }

    fn collect_fns(&mut self) {
        let mut fns = Vec::new();
        let mut i = 0;
        while i + 1 < self.len() {
            if self.is_ident(i, "fn") && self.tok(i + 1).kind == TokenKind::Ident {
                let name = self.text(i + 1).to_string();
                // find the body `{`; a `;` first means a trait/extern decl
                let mut j = i + 2;
                let mut body = None;
                while j < self.len() {
                    if self.is_punct(j, ';') {
                        break;
                    }
                    if self.is_punct(j, '{') {
                        body = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = body {
                    let close = self.match_brace(open);
                    fns.push(FnItem {
                        name,
                        body_start: open,
                        body_end: close + 1,
                    });
                }
            }
            i += 1;
        }
        self.fns = fns;
    }

    /// The function items whose body contains sig-index `i` (innermost
    /// last).
    pub fn enclosing_fns(&self, i: usize) -> impl Iterator<Item = &FnItem> {
        self.fns
            .iter()
            .filter(move |f| i >= f.body_start && i < f.body_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_mod_and_test_fn() {
        let src = r#"
fn live() { x.unwrap(); }
#[test]
fn a_test() { y.unwrap(); }
#[cfg(test)]
mod tests {
    fn helper() { z.unwrap(); }
}
"#;
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        let live = src.find("x.unwrap").unwrap();
        let in_test = src.find("y.unwrap").unwrap();
        let in_mod = src.find("z.unwrap").unwrap();
        assert!(!f.in_test_code(live));
        assert!(f.in_test_code(in_test));
        assert!(f.in_test_code(in_mod));
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let src = "// tdb-lint: allow(lock-graph)\nlet a = b.lock();\nlet c = d.lock(); // tdb-lint: allow(lock-graph, float-width)\nlet e = f.lock();\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert!(f.allowed("lock-graph", 2));
        assert!(f.allowed("lock-graph", 3));
        assert!(f.allowed("float-width", 3));
        assert!(!f.allowed("lock-graph", 4));
        assert!(!f.allowed("lock-order", 2));
        assert_eq!(f.pragmas.len(), 3);
    }

    #[test]
    fn fn_items_and_enclosing() {
        let src = "fn outer(threshold: f64) { fn inner() {} let x = 1; }\nfn other() {}";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert_eq!(f.fns.len(), 3);
        let x_at = f
            .sig
            .iter()
            .position(|&t| f.tokens[t].text(src) == "x")
            .unwrap();
        let names: Vec<&str> = f.enclosing_fns(x_at).map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["outer"]);
    }

    #[test]
    fn crate_name_from_path() {
        assert_eq!(
            SourceFile::new("crates/cache/src/semantic.rs", "").crate_name(),
            "cache"
        );
        assert_eq!(
            SourceFile::new("compat/parking_lot/src/lib.rs", "").crate_name(),
            "parking_lot"
        );
        assert_eq!(SourceFile::new("tests/foo.rs", "").crate_name(), "tests");
    }
}
