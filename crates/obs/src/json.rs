//! A minimal ordered JSON tree with both a writer and a parser.
//!
//! The workspace's vendored `serde_json` shim is serialise-only, but the
//! observability layer needs to *read* JSON back: the
//! [`RunManifest`](crate::RunManifest) round-trips through disk, and the
//! `xtask lint --check-events` schema checker validates trace files. This
//! module is the self-contained answer: an insertion-ordered value tree, a
//! compact writer whose float formatting is byte-compatible with the shim
//! (shortest round-trip, exponent form outside `[1e-5, 1e17)`, always a
//! `.0`/exponent so the token stays a float, non-finite → `null`), and a
//! strict recursive-descent parser.

use std::fmt;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (preferred for all counters).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// This value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// This value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// This value's key/value pairs if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self);
        out
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::UInt(n) => {
            let mut buf = [0u8; 20];
            out.push_str(format_u64(*n, &mut buf));
        }
        JsonValue::Int(n) => out.push_str(&n.to_string()),
        JsonValue::Float(x) => write_float(out, *x),
        JsonValue::Str(s) => write_escaped(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Formats a `u64` into a stack buffer (avoids an allocation on the hot
/// serialisation path).
fn format_u64(mut n: u64, buf: &mut [u8; 20]) -> &str {
    // 20 digits hold u64::MAX, so the loop always ends on `n == 0`.
    let mut start = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        start -= 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Digits are ASCII by construction.
    std::str::from_utf8(&buf[start..]).unwrap_or("0") // lint: allow(no-unwrap) ascii digits
}

/// Float formatting byte-compatible with the vendored serde_json shim.
fn write_float(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let a = v.abs();
    // lint: allow(float-eq) formatter branch on exact zero, not a tolerance
    let s = if a != 0.0 && !(1e-5..1e17).contains(&a) {
        format!("{v:e}")
    } else {
        format!("{v}")
    };
    out.push_str(&s);
    if !(s.contains('.') || s.contains('e') || s.contains('E')) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
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

    /// The input from `start` up to the cursor, which must be UTF-8.
    fn text_from(&self, start: usize, what: &str) -> Result<&'a str, JsonError> {
        let bytes = self.bytes.get(start..self.pos).unwrap_or_default();
        std::str::from_utf8(bytes).map_err(|_| self.err(&format!("invalid utf-8 in {what}")))
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut map = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = self.text_from(start, "string")?;
                out.push_str(chunk);
            }
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are not needed by our own
                            // writer; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate escape"))?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected hex digit")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self.text_from(start, "number")?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_documents() {
        let cases = [
            r#"{"a":1,"b":[1,2.5,"x",null,{"inner":true}],"c":-4}"#,
            r#"[]"#,
            r#"{}"#,
            r#"{"s":"a\"b\\c\nd"}"#,
            r#"{"big":18446744073709551615,"neg":-9223372036854775808}"#,
            r#"[0.001,2.0,1e300]"#,
        ];
        for case in cases {
            let v = parse(case).expect(case);
            assert_eq!(v.to_compact(), case, "round-trip of {case}");
        }
    }

    #[test]
    fn float_formatting_matches_vendored_serde_json() {
        assert_eq!(JsonValue::Float(2.0).to_compact(), "2.0");
        assert_eq!(JsonValue::Float(2.5).to_compact(), "2.5");
        assert_eq!(JsonValue::Float(1e300).to_compact(), "1e300");
        assert_eq!(JsonValue::Float(1e-7).to_compact(), "1e-7");
        assert_eq!(JsonValue::Float(f64::NAN).to_compact(), "null");
        assert_eq!(JsonValue::Float(0.0).to_compact(), "0.0");
    }

    #[test]
    fn integer_types_are_preserved() {
        let v = parse("[7,-7,2.5]").expect("parses");
        let a = v.as_array().expect("array");
        assert_eq!(a[0], JsonValue::UInt(7));
        assert_eq!(a[1], JsonValue::Int(-7));
        assert_eq!(a[2], JsonValue::Float(2.5));
        assert_eq!(a[0].as_u64(), Some(7));
        assert_eq!(a[1].as_u64(), None);
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = parse(r#"{"name":"fit","fields":{"iters":12}}"#).expect("parses");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("fit"));
        assert_eq!(
            v.get("fields")
                .and_then(|f| f.get("iters"))
                .and_then(JsonValue::as_u64),
            Some(12)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let original = JsonValue::Str("tab\t newline\n quote\" back\\ unicode \u{0001}".into());
        let text = original.to_compact();
        assert_eq!(parse(&text).expect("parses"), original);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1..2",
            "\"unterminated",
            "{} x",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn reports_error_offsets() {
        let err = parse("[1, @]").expect_err("must fail");
        assert_eq!(err.offset, 4);
    }
}
