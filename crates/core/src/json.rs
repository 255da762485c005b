//! A minimal JSON value: parser, writer, and typed accessors.
//!
//! The workspace is std-only (the offline build has no serde), and before
//! this module every JSON producer wrote strings by hand while consumers
//! were external (`python3` in CI, Perfetto for traces). The serve line
//! protocol (`docs/serve.md`) and the sweep checkpoint manifest
//! (`docs/sweeps.md`) need both directions in-process — requests are
//! parsed off the wire, the journal and manifests are replayed at
//! recovery — so this module carries a small, total JSON implementation:
//!
//! * [`Json::parse`] accepts any RFC 8259 document (objects, arrays,
//!   strings with escapes, numbers, booleans, null) and returns a
//!   structured error — never panics on malformed input, which matters
//!   because both the TCP socket and the tail of a `kill -9`'d journal
//!   feed it arbitrary bytes;
//! * the `Display` impl writes a canonical form: object keys in insertion
//!   order, numbers via Rust's shortest-roundtrip float formatting —
//!   matching the hand-written producers elsewhere in the workspace, so
//!   `parse ∘ write` is an identity on the protocol's documents.
//!
//! Deliberately not a general-purpose library: no streaming, no
//! borrowed-str zero-copy, no number-precision preservation beyond `f64`
//! (the protocol's integers — job ids, sizes, seeds — stay well inside the
//! 2^53 exact range; ids are `u64` counters starting at 1).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. A `Vec` of pairs, not a map, so writing preserves
    /// insertion order and duplicate-key documents round-trip losslessly
    /// (last key wins on lookup, like serde).
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable reason.
    pub why: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.why)
    }
}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins). `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n)
                if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // Integral values print without a fractional part (`3`, not
                // `3.0`), matching the workspace's hand-written emitters.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs escaping is
/// ASCII, and no byte of a multi-byte UTF-8 sequence is, so the string is
/// scanned bytewise and each unescaped run goes out with one `write_str`.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// Convenience builder for object literals in protocol code:
/// `obj([("ok", Json::Bool(true)), ("id", Json::Num(7.0))])`.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience: a JSON object from a `BTreeMap` (sorted keys).
pub fn obj_sorted(map: BTreeMap<String, Json>) -> Json {
    Json::Obj(map.into_iter().collect())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, why: &str) -> JsonError {
        JsonError { at: self.pos, why: why.to_string() }
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid; walk to the next char start).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// Parses `uXXXX` (cursor on the `u`), including surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume 'u'
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xdc00..0xe000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("non-hex in \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { at: start, why: format!("bad number {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(
            r#"{"op":"submit","name":"a b","n":20,"k":2,"priority":-3,"exact_ref":false,
                "tags":[1,2.5,null,true],"nested":{"x":"\u00e9\n"}}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(20));
        assert_eq!(v.get("priority").and_then(Json::as_i64), Some(-3));
        assert_eq!(v.get("exact_ref").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("tags").and_then(Json::as_arr).unwrap().len(), 4);
        assert_eq!(
            v.get("nested").and_then(|n| n.get("x")).and_then(Json::as_str),
            Some("é\n")
        );
    }

    #[test]
    fn write_parse_roundtrips() {
        let v = obj([
            ("ok", Json::Bool(true)),
            ("id", Json::Num(7.0)),
            ("ratio", Json::Num(1.25)),
            ("label", Json::Str("n=8 \"q\" \\ tab\t".into())),
            ("items", Json::Arr(vec![Json::Null, Json::Num(-2.0)])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Integral floats print as integers.
        assert!(text.contains("\"id\":7,"), "{text}");
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "", "{", "}", "{\"a\"}", "{\"a\":}", "[1,", "\"abc", "tru", "1.2.3", "{} x",
            "\"\\u12\"", "\"\\ud800\"", "nul", "--1", "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
    }

    /// The escape as it was first written, one `char` at a time: the
    /// oracle for the run-based `write_escaped`.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from("\"");
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
        out.push('"');
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Strings drawn from a palette of every control character, the
        /// two escaped printables, DEL, plain ASCII and 2-, 3- and 4-byte
        /// chars escape exactly as the per-char oracle does, and parse back.
        #[test]
        fn run_escape_matches_the_per_char_oracle(
            picks in proptest::collection::vec(0usize..48, 0..40),
        ) {
            const EXTRA: [char; 16] = [
                '"', '\\', '\u{7f}', ' ', 'a', 'Z', '0', '~', '/', 'é', 'ß', '€', '中',
                '\u{fffd}', '😀', '\u{10ffff}',
            ];
            let s: String = picks
                .iter()
                .map(|&p| if p < 32 { char::from(p as u8) } else { EXTRA[p - 32] })
                .collect();
            let text = Json::Str(s.clone()).to_string();
            proptest::prop_assert_eq!(&text, &escape_per_char(&s));
            proptest::prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn duplicate_keys_last_wins_on_lookup() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }
}
