//! A small, strict JSON value type with serializer and parser.
//!
//! Covers the full JSON grammar (RFC 8259) minus one deliberate
//! restriction: numbers are stored as `f64` (protocol messages only carry
//! counts, times and coordinates, all exactly representable).

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64 (numeric, integral, non-negative).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as &str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice of elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialises to a compact single-line string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // formatting into a `String` cannot fail
                    let _ = if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                        write!(out, "{}", *n as i64)
                    } else {
                        write!(out, "{n}")
                    };
                } else {
                    // JSON has no Inf/NaN; encode as null like browsers do
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document; trailing garbage is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// Deepest accepted nesting. The parser recurses once per level and a
/// request line may be a megabyte of `[`; protocol documents stay under 20.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            detail: detail.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
        {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // surrogate pairs
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                if self
                                    .bytes
                                    .get(self.pos..)
                                    .is_some_and(|rest| rest.starts_with(b"\\u"))
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("control character in string")),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // multi-byte UTF-8: length from the lead byte, then
                    // re-decode exactly that many bytes from the source
                    let start = self.pos - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8 lead byte")),
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let ch = std::str::from_utf8(chunk)
                        .ok()
                        .and_then(|t| t.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    self.pos = start + len;
                    out.push(ch);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let quad = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(quad).map_err(|_| self.err("invalid hex"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid hex"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_known_values() {
        assert_eq!(Json::Null.encode(), "null");
        assert_eq!(Json::Bool(true).encode(), "true");
        assert_eq!(Json::Num(3.0).encode(), "3");
        assert_eq!(Json::Num(3.5).encode(), "3.5");
        assert_eq!(Json::Str("a\"b\n".into()).encode(), r#""a\"b\n""#);
        assert_eq!(
            Json::Str("\u{1}\u{1f}".into()).encode(),
            r#""\u0001\u001f""#
        );
        let o = Json::obj([("b", Json::Num(1.0)), ("a", Json::Arr(vec![Json::Null]))]);
        assert_eq!(o.encode(), r#"{"a":[null],"b":1}"#);
    }

    #[test]
    fn parse_known_documents() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(
            Json::parse(" [1, 2.5, -3e2] ").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        let v = Json::parse(r#"{"k": "v", "n": {"x": []}}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some("v"));
        assert_eq!(v.get("n").unwrap().get("x").unwrap(), &Json::Arr(vec![]));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        assert_eq!(
            Json::parse(r#""aébA\t""#).unwrap(),
            Json::Str("aébA\t".into())
        );
        // surrogate pair: U+1F600
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        // raw multi-byte UTF-8 passes through
        assert_eq!(Json::parse("\"πω\"").unwrap(), Json::Str("πω".into()));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "[1] trailing",
            "{\"a\" 1}",
            "\"bad\\escape\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // a request line of nothing but `[` is an error, not a stack overflow
        let deep = "[".repeat(1 << 20);
        assert!(Json::parse(&deep).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_guards() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }

    fn arb_json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            (-1e12f64..1e12).prop_map(|n| Json::Num((n * 100.0).round() / 100.0)),
            "[a-zA-Z0-9 _\"\\\\\n\t\u{e9}]{0,20}".prop_map(Json::Str),
        ];
        leaf.prop_recursive(3, 32, 6, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
                prop::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Json::Obj),
            ]
        })
    }

    proptest! {
        #[test]
        fn roundtrip(v in arb_json()) {
            let encoded = v.encode();
            let back = Json::parse(&encoded).unwrap();
            prop_assert_eq!(back, v);
        }

        #[test]
        fn parser_never_panics(s in "\\PC{0,64}") {
            let _ = Json::parse(&s);
        }

        /// `write!` into the output produces the bytes `format!` + `push_str`
        /// did, for every class of `f64`: any bit pattern, subnormals,
        /// NaN / ±Inf (→ `null`), integers on both sides of 2⁵³, −0.
        #[test]
        fn numbers_encode_as_they_always_did(
            bits in any::<u64>(),
            int in any::<i64>(),
            shift in 0u32..64,
        ) {
            let two53 = 2f64.powi(53);
            for n in [
                f64::from_bits(bits),
                f64::from_bits(bits >> 12),
                f64::from_bits(bits | 0x7ff0_0000_0000_0000),
                (int >> shift) as f64,
                -0.0,
                two53 - 1.0,
                two53,
                -two53,
                two53 + 2.0,
            ] {
                let old = if !n.is_finite() {
                    "null".to_string()
                } else if n.fract() == 0.0 && n.abs() < two53 {
                    format!("{}", n as i64)
                } else {
                    format!("{n}")
                };
                prop_assert_eq!(Json::Num(n).encode(), old);
            }
        }
    }
}
