//! A minimal, dependency-free JSON value: parser and renderer.
//!
//! The registry and the `soctam-serve` daemon exchange structured data as
//! JSON. The workspace is std-only, so this module hand-rolls the subset
//! we need: the full JSON data model, a strict recursive-descent parser
//! with a depth limit, and a compact deterministic renderer (objects
//! preserve insertion order; no HashMap anywhere, so rendering the same
//! value always produces the same bytes).

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]; hostile inputs
/// beyond this fail with an error instead of overflowing the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value.
///
/// Objects are ordered key/value vectors, not maps: field order is
/// preserved from parse to render, duplicate keys are rejected at parse
/// time, and rendering is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integral number (anything without `.`, `e` or `E`).
    Int(i128),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds a string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer
    /// in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Parses `text` as a single JSON document (trailing whitespace only).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing data after JSON document"));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let mut buf = itoa_buf();
                let _ = fmt::Write::write_fmt(&mut buf, format_args!("{n}"));
                out.push_str(&buf);
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let mut buf = itoa_buf();
                    let _ = fmt::Write::write_fmt(&mut buf, format_args!("{x}"));
                    // `{}` renders integral floats without a fraction
                    // ("2"); keep them recognisably floats.
                    if !buf.contains(['.', 'e', 'E']) {
                        buf.push_str(".0");
                    }
                    out.push_str(&buf);
                } else {
                    // JSON has no NaN/Inf; degrade to null rather than
                    // emit an unparseable document.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
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
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn itoa_buf() -> String {
    String::with_capacity(24)
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting depth limit exceeded"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require `\uXXXX` low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(unit)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume one UTF-8 scalar (input is &str, so slicing
                    // on char boundaries is safe via the str API).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = rest.get(..len).ok_or_else(|| self.err("truncated UTF-8"))?;
                    match std::str::from_utf8(chunk) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    }
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match byte {
                b'0'..=b'9' => u32::from(byte - b'0'),
                b'a'..=b'f' => u32::from(byte - b'a') + 10,
                b'A'..=b'F' => u32::from(byte - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    /// One number in the grammar of RFC 8259 §6:
    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`. Text with
    /// no fraction or exponent is a [`Json::Int`]; the rest must be a
    /// finite [`Json::Float`].
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let out_of_range = || JsonError {
            offset: start,
            message: "number out of range".to_owned(),
        };
        if is_float {
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json::Float(x)),
                _ => Err(out_of_range()),
            }
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| out_of_range())
        }
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected a digit"))
        } else {
            Ok(())
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let text = r#"{"a":[1,2.5,"x\n\"y\"",true,null],"b":{"c":-7}}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(value.render(), text);
        assert_eq!(value.get("b").unwrap().get("c"), Some(&Json::Int(-7)));
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01",
            "-01",
            "00",
            "1.",
            "1.e5",
            r#"{"p":1.}"#,
            "-.5",
            ".5",
            "+1",
            "-",
            "1e",
            "1e+",
            "1e400",
            "-1e400",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(Json::parse("-").unwrap_err().message, "expected a digit");
        assert_eq!(
            Json::parse("1e400").unwrap_err().message,
            "number out of range"
        );
        for (good, value) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("0.5", Json::Float(0.5)),
            ("-0.5e1", Json::Float(-5.0)),
            ("1E+2", Json::Float(100.0)),
            ("1e-2", Json::Float(0.01)),
        ] {
            assert_eq!(Json::parse(good), Ok(value), "`{good}`");
        }
    }

    #[test]
    fn object_field_order_is_preserved() {
        let value = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(value.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Json::parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("depth"));
    }

    #[test]
    fn unicode_escapes_decode_including_surrogates() {
        let value = Json::parse(r#""é 😀""#).unwrap();
        assert_eq!(value, Json::Str("é 😀".to_owned()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn strings_escape_control_characters() {
        let rendered = Json::Str("a\u{01}b".to_owned()).render();
        assert_eq!(rendered, "\"a\\u0001b\"");
        assert_eq!(
            Json::parse(&rendered).unwrap(),
            Json::Str("a\u{01}b".to_owned())
        );
    }

    #[test]
    fn integral_floats_render_with_a_fraction() {
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Int(2).render(), "2");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn accessors_are_type_checked() {
        let value = Json::parse(r#"{"n":3,"s":"x","b":true,"a":[]}"#).unwrap();
        assert_eq!(value.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(value.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("a").unwrap().as_arr(), Some(&[][..]));
        assert_eq!(value.get("n").unwrap().as_str(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
    }
}
