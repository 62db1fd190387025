//! Minimal shared JSON: one tree value, a writer, and a strict parser with
//! depth/size limits.
//!
//! The workspace has no crates.io access, and three places speak JSON: the
//! metrics exposition ([`crate::MetricsRegistry::render_json`]), the JSONL
//! event log, and the HTTP serving front-end's request/response DTOs
//! (`hd_server`). This module is the single implementation all of them
//! share, so escaping and number formatting cannot drift between them.
//!
//! The parser is deliberately strict — it is the first thing untrusted
//! network bytes hit:
//!
//! * **Size limit** — inputs above [`ParseLimits::max_bytes`] are rejected
//!   before a single byte is scanned.
//! * **Depth limit** — nesting beyond [`ParseLimits::max_depth`] is rejected
//!   (a 10 kB body of `[[[[…` must not recurse the stack away).
//! * **No trailing garbage**, no comments, no `NaN`/`Infinity` literals,
//!   and duplicate object keys are an error (an attacker must not be able
//!   to smuggle a second `"k"` past a validator that saw the first).
//!
//! Rendering is the exact inverse on everything the writer can produce:
//! `parse(render(x)) == x` for any finite-number tree (property-tested in
//! this module). Non-finite numbers render as `null`, matching the event
//! log's long-standing behavior.

use std::fmt::Write as _;

/// A parsed or to-be-rendered JSON value. Objects preserve insertion order
/// (and therefore round-trip byte-identically), which keeps rendered
/// exposition deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers, as f64 — the only number type JSON interchange
    /// guarantees. Counters above 2^53 lose exactness here; the Prometheus
    /// text format remains the lossless channel for those.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; parsing rejects duplicates).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the tree as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => render_number(out, *v),
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, key);
                    out.push_str("\":");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `v` as a JSON number: `f64`'s shortest round-trip decimal for
/// finite values, `null` for NaN/±∞ (JSON has no spelling for them).
pub fn render_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` with JSON string escaping (`"`/`\`, the short escapes, and
/// `\u00XX` for remaining control characters). Shared by the event log, the
/// exposition renderers, and the DTO writers.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Caps the parser enforces on untrusted input.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum input length in bytes; longer texts are rejected unscanned.
    pub max_bytes: usize,
    /// Maximum container nesting depth (`[` / `{` on the stack at once).
    pub max_depth: usize,
    /// Maximum total number of values in the tree.
    pub max_nodes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self {
            max_bytes: 1 << 20,
            max_depth: 32,
            max_nodes: 1 << 20,
        }
    }
}

/// A parse failure: byte offset of the violation plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses `text` under the default [`ParseLimits`].
pub fn parse(text: &str) -> Result<Json, JsonError> {
    parse_with_limits(text, &ParseLimits::default())
}

/// Parses `text`, rejecting inputs that exceed `limits`. The whole input
/// must be one JSON value plus optional trailing whitespace.
pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Json, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError {
            offset: 0,
            msg: format!(
                "input of {} bytes exceeds limit {}",
                text.len(),
                limits.max_bytes
            ),
        });
    }
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        limits,
        nodes: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    limits: &'a ParseLimits,
    nodes: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            return Err(self.err(format!("more than {} values", self.limits.max_nodes)));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth + 1 > self.limits.max_depth {
            Err(self.err(format!("nesting deeper than {}", self.limits.max_depth)))
        } else {
            Ok(())
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.enter(depth)?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.enter(depth)?;
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    msg: format!("duplicate object key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free, ASCII-or-UTF-8 run.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so slicing on byte positions that
                // stop at ASCII delimiters stays on char boundaries.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 inside string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let v: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !v.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1", "3.5", "1e3", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.render()).unwrap(), v, "{text}");
        }
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"k":10,"q":[1.5,2],"name":"x","on":true}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(10));
        assert_eq!(
            v.get("q").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("on").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(
            parse("1.5").unwrap().as_u64(),
            None,
            "fractional is not u64"
        );
        assert_eq!(parse("-1").unwrap().as_u64(), None, "negative is not u64");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "quote \" backslash \\ newline \n tab \t nul \u{0} unicode ☃";
        let v = Json::Str(s.to_string());
        let text = v.render();
        assert!(text.contains("\\u0000"));
        assert_eq!(parse(&text).unwrap(), v);
        // Escapes the writer never emits still parse.
        assert_eq!(
            parse(r#""\u2603 \/ \b \f \ud83d\ude00""#).unwrap(),
            Json::Str("☃ / \u{8} \u{c} 😀".to_string())
        );
    }

    #[test]
    fn strict_rejections() {
        for bad in [
            "",
            "nul",
            "01",
            "+1",
            "1.",
            ".5",
            "1e",
            "NaN",
            "Infinity",
            "[1,]",
            "[1 2]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{'a':1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\ud800\"",
            "1 2",
            "[1] []",
            "{\"a\":1,\"a\":2}",
            "1e400",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn limits_are_enforced() {
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&deep).unwrap_err().msg.contains("nesting"));
        let shallow = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&shallow).is_ok());

        let tiny = ParseLimits {
            max_bytes: 4,
            ..Default::default()
        };
        assert!(parse_with_limits("12345", &tiny).is_err());
        assert!(parse_with_limits("1", &tiny).is_ok());

        let few = ParseLimits {
            max_nodes: 3,
            ..Default::default()
        };
        assert!(parse_with_limits("[1,2,3,4]", &few).is_err());
        assert!(parse_with_limits("[1,2]", &few).is_ok());
    }

    #[test]
    fn non_finite_numbers_render_null() {
        let mut out = String::new();
        render_number(&mut out, f64::NAN);
        out.push(',');
        render_number(&mut out, f64::INFINITY);
        assert_eq!(out, "null,null");
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    /// Xorshift step, bounded — the property test's whole RNG.
    fn next(seed: &mut u64, m: u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed % m
    }

    /// Deterministic pseudo-random tree for the round-trip property.
    fn arbitrary_json(seed: &mut u64, depth: usize) -> Json {
        let choice = if depth == 0 {
            next(seed, 4)
        } else {
            next(seed, 6)
        };
        match choice {
            0 => Json::Null,
            1 => Json::Bool(next(seed, 2) == 0),
            2 => {
                // Finite f64 from random bits; Display/parse round-trips
                // shortest decimal representations exactly.
                let bits = next(seed, u64::MAX);
                let v = f64::from_bits(bits);
                Json::Num(if v.is_finite() { v } else { bits as f64 / 7.0 })
            }
            3 => {
                let len = next(seed, 8);
                let s: String = (0..len)
                    .map(|_| char::from_u32(next(seed, 0xD7FF) as u32).unwrap_or('x'))
                    .collect();
                Json::Str(s)
            }
            4 => {
                let len = next(seed, 4) as usize;
                Json::Arr((0..len).map(|_| arbitrary_json(seed, depth - 1)).collect())
            }
            _ => {
                let len = next(seed, 4) as usize;
                let mut fields: Vec<(String, Json)> = Vec::new();
                for i in 0..len {
                    // Unique keys: parsing rejects duplicates by design.
                    let key = format!("k{i}_{}", next(seed, 100));
                    fields.push((key, arbitrary_json(seed, depth - 1)));
                }
                Json::Obj(fields)
            }
        }
    }

    #[test]
    fn fuzz_round_trip_parse_render() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        for case in 0..500 {
            let tree = arbitrary_json(&mut seed, 4);
            let text = tree.render();
            let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, tree, "case {case}: {text}");
            // And a second round trip is byte-stable.
            assert_eq!(back.render(), text, "case {case}");
        }
    }
}
