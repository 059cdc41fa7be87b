//! Hand-rolled JSON: a small value model with a recursive-descent parser
//! and a stable pretty-printer.
//!
//! The workspace builds offline with no serialization framework, so every
//! JSON file it reads or writes goes through this module: chaos campaigns
//! and repros, the `BENCH_*.json` artifacts, telemetry exports and the
//! benchmark's saved runs. Three properties matter more than generality:
//!
//! * **Byte-stable emission** — objects keep insertion order and numbers
//!   print through Rust's shortest-round-trip formatting, so the same
//!   `Trial` always serializes to the same bytes. The determinism test
//!   compares repro files byte-for-byte across `--jobs` settings.
//! * **Full-width integers** — seeds are arbitrary `u64`s, which do not
//!   survive an f64 round-trip; integers without fraction/exponent parse
//!   into a dedicated variant.
//! * **Bounded recursion** — containers nest at most 128 deep; deeper
//!   input is a [`JsonError`], not a stack overflow.

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The files the
/// workspace writes nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (seeds, counts, times).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and emitted).
    Obj(Vec<(String, Json)>),
}

/// Parse error: byte offset + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// Stable pretty form (2-space indent, `\n` line ends, no trailing
    /// newline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(xs) => {
                if xs.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Short scalar-only arrays print inline (spans, ranges).
                let inline = xs.len() <= 4 && xs.iter().all(|x| x.is_scalar());
                if inline {
                    out.push('[');
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        x.write(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, x) in xs.iter().enumerate() {
                        pad(out, indent + 1);
                        x.write(out, indent + 1);
                        if i + 1 < xs.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(kv) => {
                if kv.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in kv.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < kv.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// As `u64` (from `Int`, or an integral `Num`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) => Some(n),
            Json::Num(x) if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// As `f64` (from `Int` or `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// As string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Build an object from pairs.
    pub fn obj(kv: Vec<(&str, Json)>) -> Json {
        Json::Obj(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53) {
            Json::Int(x as u64)
        } else {
            Json::Num(x)
        }
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(xs: Vec<Json>) -> Self {
        Json::Arr(xs)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one container a level down, refusing to pass [`MAX_DEPTH`]:
    /// the parser recurses once per level, so unbounded input would
    /// overflow the stack.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            kv.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    s.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    });
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary of the
                    // &str input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    s.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// The character a `\u` escape names, its four hex digits starting at
    /// the cursor. Characters beyond the BMP arrive as a UTF-16 surrogate
    /// pair of two escapes; a surrogate without its partner is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone surrogate in \\u escape")),
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Exactly four hex digits (no sign, no shorter form).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + d;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Json::obj(vec![
            ("name", "smoke".into()),
            ("seed", Json::Int(u64::MAX)),
            ("rate", Json::Num(0.015)),
            ("on", true.into()),
            ("tags", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("nested", Json::obj(vec![("k", Json::Null)])),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn full_width_u64_survives() {
        for n in [0u64, 1 << 53, u64::MAX, u64::MAX - 1] {
            let text = Json::Int(n).pretty();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
    }

    #[test]
    fn emission_is_stable() {
        let v = Json::obj(vec![("b", Json::Int(2)), ("a", Json::Int(1))]);
        // Insertion order, not alphabetical: byte-stable round trips.
        assert_eq!(v.pretty(), "{\n  \"b\": 2,\n  \"a\": 1\n}");
        assert_eq!(Json::parse(&v.pretty()).unwrap().pretty(), v.pretty());
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::Str("a\"b\\c\nd\té\u{1}".to_string());
        let back = Json::parse(&v.pretty()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_fail() {
        let emoji = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(emoji.as_str(), Some("\u{1F600}"));
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
        for lone in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
        ] {
            assert!(Json::parse(lone).is_err(), "{lone} must be rejected");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04""#, r#""\u004g""#] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        for doc in [arrays, objects] {
            assert!(Json::parse(&doc(MAX_DEPTH)).is_ok());
            let err = Json::parse(&doc(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.msg, "nesting too deep");
        }
        // Far past the cap on a 2 MiB thread: an error, not an abort.
        let deep = "[".repeat(10_000);
        let rejected = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&deep).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(rejected);
    }

    #[test]
    fn parses_floats_and_negatives() {
        assert_eq!(Json::parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(Json::parse("2e3").unwrap().as_f64(), Some(2000.0));
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
    }
}
