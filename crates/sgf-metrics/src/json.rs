//! The workspace's JSON codec: a value type, a strict parser, and a canonical
//! renderer.
//!
//! The metrics snapshots, the `BENCH_*.json` benchmark documents, the
//! perf-trajectory file, and the sgf-serve wire protocol all go through this
//! one module (the vendored serde stub carries no serializer).  Numbers split
//! into an exact integer variant (`Int`: counters, nanosecond totals, `u64`
//! request seeds) and a float variant (`Float`: wall clocks, budgets,
//! ratios).
//!
//! Rendering is canonical: object keys come out sorted (`BTreeMap`), strings
//! are escaped, integral floats keep a `.0`, and non-finite floats render as
//! `null`.  Parsing a canonical document and rendering it reproduces the
//! bytes.  Hot encoders skip the tree: [`write_object`] writes the same
//! canonical bytes straight into a `String`, its keys supplied in order.
//!
//! The parser reads hostile input (serve request lines), so it is strict and
//! panic-free: surrogate pairs decode, while lone surrogates, raw control
//! characters in strings, and dangling escapes are errors.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, within `i128` range
    /// (wide enough to carry every `u64` exactly).
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted, so rendering is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// An object from `(key, value)` pairs (a repeated key keeps the last).
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

    /// The value as an `f64` (both number variants), if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer: integer
    /// literals exactly across the whole `u64` range, integral floats (`1e3`)
    /// within f64's exact range (≤ 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::Float(x) if x.fract() == 0.0 && (0.0..=2f64.powi(53)).contains(x) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|map| map.get(key))
    }

    /// Render the value as one line of canonical JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
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
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(i128::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as i128)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
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

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// Integer types an [`ObjectWriter`] writes as exact JSON integers (the
/// digits [`Json::Int`] renders).
pub trait JsonInteger: fmt::Display + Copy {}

impl JsonInteger for u64 {}

impl JsonInteger for usize {}

/// Write one canonical JSON object into `out` without building a [`Json`]
/// tree: `fields` writes the members through an [`ObjectWriter`], in
/// ascending key order.  Numbers and strings go through the encoders of
/// [`Json::render`], so the bytes equal the rendering of the same object
/// built as a tree.
pub fn write_object(out: &mut String, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    let mut object = ObjectWriter { out, last: None };
    fields(&mut object);
    object.out.push('}');
}

/// The member writer of [`write_object`].  Keys must ascend (byte order, the
/// order a [`Json::Obj`] renders in); debug builds assert it, so an encoder
/// that writes through this type is canonical by construction.
pub struct ObjectWriter<'o> {
    out: &'o mut String,
    last: Option<&'static str>,
}

impl ObjectWriter<'_> {
    /// Start the member `key`: separator, key, colon.  Returns the buffer
    /// the value goes into.
    fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(
            self.last.is_none_or(|last| last < key),
            "object keys must ascend: {key:?} after {:?}",
            self.last
        );
        if self.last.is_some() {
            self.out.push(',');
        }
        self.last = Some(key);
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// An exact integer member.
    pub fn int(&mut self, key: &'static str, value: impl JsonInteger) -> &mut Self {
        let _ = fmt::Write::write_fmt(self.key(key), format_args!("{value}"));
        self
    }

    /// A float member (non-finite values write `null`, as [`Json::Float`]
    /// renders them).
    pub fn float(&mut self, key: &'static str, value: f64) -> &mut Self {
        write_f64(self.key(key), value);
        self
    }

    /// An optional float member: `None` writes `null`.
    pub fn opt_float(&mut self, key: &'static str, value: Option<f64>) -> &mut Self {
        match value {
            Some(value) => self.float(key, value),
            None => self.raw(key, "null"),
        }
    }

    /// A string member.
    pub fn string(&mut self, key: &'static str, value: &str) -> &mut Self {
        write_string(self.key(key), value);
        self
    }

    /// A boolean member.
    pub fn boolean(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// A member whose value is already rendered canonical JSON.
    pub fn raw(&mut self, key: &'static str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// A member whose value an encoder writes into the buffer (it must write
    /// exactly one canonical JSON value).
    pub fn with(&mut self, key: &'static str, value: impl FnOnce(&mut String)) -> &mut Self {
        value(self.key(key));
        self
    }

    /// A nested object member.
    pub fn object(
        &mut self,
        key: &'static str,
        fields: impl FnOnce(&mut ObjectWriter<'_>),
    ) -> &mut Self {
        write_object(self.key(key), fields);
        self
    }
}

/// Render an `f64` so that parsing it back yields the same value: finite
/// numbers use Rust's shortest round-trip formatting (with a forced `.0` for
/// integral values so they stay in the float domain), and non-finite numbers
/// — which JSON cannot represent — render as `null`.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
    if !out
        .get(start..)
        .is_some_and(|s| s.contains(['.', 'e', 'E']))
    {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The unread input (empty once `pos` reaches the end).
    fn rest(&self) -> &[u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    // Named to stay visibly distinct from the panicking `Option::expect` /
    // `Result::expect` — nothing in this parser is allowed to panic (R3).
    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, ParseError> {
        if self.rest().starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
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
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape sequence")),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the run of ordinary bytes up to the next quote,
                    // escape, or control byte; the input is a &str and the
                    // run ends on an ASCII byte, so it is whole UTF-8.
                    let run = self
                        .rest()
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.rest().len());
                    let chunk = self.rest().get(..run).unwrap_or_default();
                    let chunk = std::str::from_utf8(chunk)
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += run;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let unit = self.hex4()?;
        // Decode surrogate pairs; lone surrogates are rejected.
        if (0xD800..=0xDBFF).contains(&unit) {
            if !self.rest().starts_with(b"\\u") {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(self.error("invalid low surrogate"));
            }
            let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(scalar).ok_or_else(|| self.error("invalid surrogate pair"))
        } else {
            char::from_u32(unit).ok_or_else(|| self.error("lone low surrogate"))
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.error("expected 4 hex digits after \\u")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The consumed region is ASCII digits/sign/dot/exponent, so this
        // never fails — but a parse error beats a worker panic.
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .ok_or_else(|| self.error("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Json, ParseError> {
        Json::parse(text)
    }

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let value = parse(text).unwrap();
            assert_eq!(value.render(), text);
        }
    }

    #[test]
    fn integers_stay_exact() {
        let value = parse("9007199254740993").unwrap();
        assert_eq!(value, Json::Int(9_007_199_254_740_993));
        assert_eq!(value.render(), "9007199254740993");
        assert_eq!(value.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn floats_round_trip_shortest() {
        let value = parse("0.1").unwrap();
        assert_eq!(value, Json::Float(0.1));
        assert_eq!(value.render(), "0.1");
        // Integral floats keep their `.0` marker through a round trip.
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(
            parse("{\"gamma\":4.0}").unwrap().render(),
            "{\"gamma\":4.0}"
        );
    }

    #[test]
    fn nested_documents_round_trip_deterministically() {
        let text = "{\"a\":[1,2.5,\"x\"],\"b\":{\"nested\":true,\"z\":null}}";
        let value = parse(text).unwrap();
        assert_eq!(value.render(), text);
        // Key order in the input does not matter: BTreeMap sorts.
        let shuffled = parse("{\"b\":{\"z\":null,\"nested\":true},\"a\":[1,2.5,\"x\"]}").unwrap();
        assert_eq!(shuffled.render(), text);
        let built = Json::obj([
            ("b", Json::obj([("z", Json::Null), ("nested", true.into())])),
            ("a", Json::Arr(vec![1u64.into(), 2.5.into(), "x".into()])),
        ]);
        assert_eq!(built.render(), text);
    }

    #[test]
    fn string_escapes_round_trip() {
        let value = Json::Str("line\nbreak \"quoted\" \\ tab\t\u{1}".to_string());
        let rendered = value.render();
        assert_eq!(parse(&rendered).unwrap(), value);
    }

    #[test]
    fn unicode_escapes_parse() {
        for (text, decoded) in [
            ("\"\\u0041\\u00e9\"", "Aé"),
            ("\"\\ud83e\\udd80\"", "🦀"),
            ("\"\\uD83E\\uDD80 and 🦀\"", "🦀 and 🦀"),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Str(decoded.to_string()));
        }
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = parse("{\"n\":3,\"x\":1.5,\"s\":\"v\",\"flag\":true,\"xs\":[1]}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("x").and_then(Json::as_u64), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(doc.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.as_object().map(BTreeMap::len), Some(5));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for text in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{1:2}",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"\u{1}\"",
            "\"\\",
        ] {
            assert!(parse(text).is_err(), "`{text}` must not parse");
        }
        let err = parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().starts_with("invalid JSON at byte 4"));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn u64_conversion_is_exact_across_the_full_range() {
        assert_eq!(Json::from(7u64), Json::Int(7));
        let max = Json::from(u64::MAX);
        assert_eq!(max, Json::Int(i128::from(u64::MAX)));
        assert_eq!(parse(&max.render()).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(
            r#"{"verb":"generate","target":10,"seed":7,"stream":false,"omega":{"lo":9,"hi":11},"record":[1,2,3],"cap":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("verb").and_then(Json::as_str), Some("generate"));
        assert_eq!(v.get("target").and_then(Json::as_usize), Some(10));
        assert_eq!(v.get("stream").and_then(Json::as_bool), Some(false));
        let hi = v.get("omega").and_then(|o| o.get("hi"));
        assert_eq!(hi.and_then(Json::as_u64), Some(11));
        let record: Option<Vec<u64>> = v
            .get("record")
            .and_then(Json::as_array)
            .map(|xs| xs.iter().filter_map(Json::as_u64).collect());
        assert_eq!(record, Some(vec![1, 2, 3]));
        assert_eq!(v.get("cap"), Some(&Json::Null));
    }

    #[test]
    fn parses_numbers_strings_and_escapes() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("0").unwrap().as_usize(), Some(0));
        assert_eq!(parse("1.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        let s = parse(r#""a\"b\\c\nd\u00e9 \ud83e\udd80""#).unwrap();
        assert_eq!(s.as_str(), Some("a\"b\\c\ndé 🦀"));
        assert_eq!(parse("  true ").unwrap().as_bool(), Some(true));
        assert_eq!(parse("[]").unwrap().as_array(), Some(&[][..]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "\"",
            "{\"a\":1,}",
            "nul",
            "\"\\q\"",
            "\"\\u12\"",
            "\"tab\there\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn integer_literals_stay_exact_across_the_u64_range() {
        // 2^53 + 1 is the first integer f64 cannot represent; u64::MAX is
        // the worst case a request seed can carry.  Both must survive.
        for n in [0u64, 9_007_199_254_740_993, u64::MAX - 1, u64::MAX] {
            let parsed = parse(&n.to_string()).unwrap();
            assert_eq!(parsed, Json::from(n));
            assert_eq!(parsed.as_u64(), Some(n));
        }
        // Integral but non-literal forms are floats, usable as integers
        // inside f64's exact range only.
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        assert_eq!(parse("-0.5e1").unwrap().as_u64(), None);
        // Beyond u64::MAX the literal is no longer a u64.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn object_writer_writes_the_rendering_of_the_tree() {
        let mut written = String::from("[");
        write_object(&mut written, |object| {
            object
                .boolean("a", true)
                .float("b", 2.0)
                .float("c", f64::NAN)
                .int("d", u64::MAX)
                .int("e", 7usize)
                .object("f", |inner| {
                    inner.opt_float("x", None).opt_float("y", Some(0.1));
                })
                .raw("g", "[1,2]")
                .string("h", "q\"u\n")
                .with("i", |out| write_object(out, |_| {}));
        });
        written.push(']');
        let tree = Json::Arr(vec![Json::obj([
            ("i", Json::obj([])),
            ("h", "q\"u\n".into()),
            ("g", Json::Arr(vec![1u64.into(), 2u64.into()])),
            (
                "f",
                Json::obj([("y", 0.1.into()), ("x", Option::<f64>::None.into())]),
            ),
            ("e", 7usize.into()),
            ("d", u64::MAX.into()),
            ("c", f64::NAN.into()),
            ("b", 2.0.into()),
            ("a", true.into()),
        ])]);
        assert_eq!(written, tree.render());
        assert_eq!(parse(&written).unwrap().render(), written);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn object_writer_rejects_unsorted_keys() {
        write_object(&mut String::new(), |object| {
            object.int("b", 1u64).int("a", 2u64);
        });
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\nwith \"quotes\", back\\slash, tab\t and unicode é🦀";
        let encoded = Json::from(original).render();
        assert_eq!(parse(&encoded).unwrap().as_str(), Some(original));
    }
}
