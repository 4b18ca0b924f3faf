//! A minimal JSON document model with a deterministic writer.
//!
//! The build environment has no serde, so reports are emitted through this
//! hand-rolled value type. Objects preserve insertion order and floats are
//! rendered with Rust's shortest-roundtrip formatting, so the same report
//! always serializes to the same bytes — the determinism tests compare
//! serialized output directly.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, kept exact — 64-bit seeds exceed 2^53 and must
    /// round-trip so runs can be replayed from emitted records.
    UInt(u64),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// String value from anything stringy.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Unsigned integer rendered exactly, without a decimal point.
    pub fn u64(v: u64) -> Json {
        Json::UInt(v)
    }

    /// Array of `item(x)` for each `x` of `items`.
    pub fn arr<T>(items: impl IntoIterator<Item = T>, item: impl FnMut(T) -> Json) -> Json {
        Json::Arr(items.into_iter().map(item).collect())
    }

    /// Object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at the end of `path`, descending one object key per
    /// segment (the empty path is `self`).
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |value, key| value.get(key))
    }

    /// The number as an `f64` ([`Json::UInt`] or [`Json::Num`] — which of
    /// the two a whole number parses back as is a rendering detail).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the inverse of [`Json::render`] /
    /// [`Json::render_pretty`]). Numbers that look like unsigned integers
    /// (no sign, fraction, or exponent) come back as [`Json::UInt`] so
    /// 64-bit seeds survive a round-trip exactly; everything else numeric
    /// is a [`Json::Num`]. Object key order is preserved as read.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Serializes compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serializes with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind)
            }),
            Json::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                write_str(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, ind);
            }),
        }
    }
}

/// Deepest container nesting [`Json::parse`] accepts. Real reports nest a
/// handful of levels; the cap exists so a corrupt or adversarial document
/// (`[[[[…`) returns a parse error instead of overflowing the
/// recursive-descent stack.
const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over the document bytes. JSON structure is
/// ASCII, so byte-wise scanning is safe; string contents are copied out of
/// `text` a run at a time (escapes decoded). Container recursion is
/// bounded by [`MAX_DEPTH`].
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is one slice of
            // the input: both are ASCII, so the cut never splits a scalar.
            let rest = &self.bytes[self.pos..];
            let Some(run) = rest.iter().position(|&c| c == b'"' || c == b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Reports never emit surrogate pairs (the writer only
                    // \u-escapes control characters), so a lone surrogate
                    // is a parse error, not a pair start.
                    out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            for _ in 0..d * 2 {
                out.push(' ');
            }
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        for _ in 0..d * 2 {
            out.push(' ');
        }
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_escaped() {
        let v = Json::obj([
            ("a", Json::u64(3)),
            ("b", Json::Num(0.5)),
            ("s", Json::str("x\"y\n\\\u{1}")),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a":3,"b":0.5,"s":"x\"y\n\\\u0001","arr":[true,null],"empty":{}}"#
        );
    }

    #[test]
    fn accessors_read_through_the_matching_variant_only() {
        let v = Json::parse(r#"{"n": 2, "x": 2.5, "s": "hi", "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("a").and_then(Json::as_arr), Some(&[Json::u64(1)][..]));
        assert_eq!(v.get("missing"), None);
        let nested = Json::parse(r#"{"a": {"b.c": {"d": 7}}}"#).unwrap();
        assert_eq!(nested.at(&["a", "b.c", "d"]), Some(&Json::u64(7)));
        assert_eq!(nested.at(&[]), Some(&nested));
        assert_eq!(nested.at(&["a", "d"]), None);
        assert_eq!(v.get("s").and_then(Json::as_f64), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(Json::u64(1_000_000).render(), "1000000");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn u64_beyond_2_pow_53_is_exact() {
        // Seeds are uniform u64s; they must round-trip for replay.
        let seed = 0xdead_beef_dead_beef_u64;
        assert_eq!(Json::u64(seed).render(), seed.to_string());
        assert_eq!(Json::u64(u64::MAX).render(), u64::MAX.to_string());
    }

    #[test]
    fn pretty_is_stable() {
        let v = Json::obj([("k", Json::Arr(vec![Json::u64(1)]))]);
        assert_eq!(v.render_pretty(), "{\n  \"k\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn parse_round_trips_render() {
        let v = Json::obj([
            ("a", Json::u64(0xdead_beef_dead_beef)),
            ("b", Json::Num(0.5)),
            ("neg", Json::Num(-3.0)),
            ("s", Json::str("x\"y\n\t\\ é")),
            (
                "arr",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::obj::<String>([])]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_round_trips_a_megabyte_report_in_linear_time() {
        // String contents are copied a run at a time; re-validating the
        // whole remaining document per character would never finish here.
        let row = Json::obj([
            ("label", Json::str("σ_NP → (π_fork, π_bait) ± 0.5")),
            (
                "note",
                Json::str("quote \" backslash \\ tab \t bell \u{7} é"),
            ),
            ("seed", Json::u64(u64::MAX)),
            (
                "utilities",
                Json::Arr(vec![Json::Num(-0.25), Json::Num(1e-9)]),
            ),
        ]);
        let doc = Json::obj([("batches", Json::Arr(vec![row; 6_000]))]);
        let text = doc.render_pretty();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn parse_keeps_u64_exact_and_key_order() {
        let doc = r#"{"z": 18446744073709551615, "a": 1e2, "m": {"k": [1, 2.5]}}"#;
        let v = Json::parse(doc).unwrap();
        let Json::Obj(pairs) = &v else { panic!() };
        assert_eq!(pairs[0].0, "z");
        assert_eq!(pairs[0].1, Json::UInt(u64::MAX));
        assert_eq!(pairs[1].1, Json::Num(100.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":01x}",
            "\"\\u12\"",
            "nullx",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_caps_nesting_depth() {
        // A corrupt/adversarial document must come back as a clean error,
        // not a stack overflow.
        let deep_arr = "[".repeat(100_000);
        let err = Json::parse(&deep_arr).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        let deep_obj = "{\"k\":".repeat(100_000);
        let err = Json::parse(&deep_obj).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");

        // At the cap itself (interleaved containers), parsing still works.
        let ok = format!(
            "{}null{}",
            "[{\"k\":".repeat(MAX_DEPTH / 2),
            "}]".repeat(MAX_DEPTH / 2)
        );
        assert!(Json::parse(&ok).is_ok());
        // One past the cap fails.
        let over = format!(
            "{}null{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn parse_decodes_escapes() {
        assert_eq!(
            Json::parse(r#""a\u0041\n\t\"\\\/ b""#).unwrap(),
            Json::str("aA\n\t\"\\/ b")
        );
    }
}
