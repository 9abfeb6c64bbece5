//! Minimal hand-rolled JSON: one value type, a parser and a writer.
//!
//! The workspace carries no serde, so every JSON byte the harnesses
//! produce — the `observe`/`timeline` capture lines and the
//! `BENCH_*.json` documents — is built as a [`JsonValue`] and rendered
//! by [`JsonValue::compact`] or [`JsonValue::pretty`], and `experiments
//! compare` reads them back with [`JsonValue::parse`]. The parser
//! accepts standard JSON — objects, arrays, strings with the usual
//! escapes, numbers, booleans, null — and nothing more: no comments, no
//! trailing commas.
//!
//! Numbers keep their literal token, so a 64-bit checksum survives a
//! round trip bit for bit ([`JsonValue::as_u64`]) and a value written
//! at a fixed precision re-emits byte-identically.

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as its literal token.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as (key, value) pairs in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document; trailing whitespace is
    /// allowed, trailing content is an error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (rounded to the nearest
    /// `f64` above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The exact value, if this is a non-negative integer literal that
    /// fits 64 bits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An empty object, to be filled with [`JsonValue::with`] /
    /// [`JsonValue::set`].
    pub fn object() -> JsonValue {
        JsonValue::Obj(Vec::new())
    }

    /// Appends one field to an object under construction.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object — a builder bug.
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) {
        match self {
            JsonValue::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("JsonValue::set({key:?}) on non-object {other:?}"),
        }
    }

    /// [`JsonValue::set`], chaining.
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        self.set(key, value);
        self
    }

    /// `x` at `digits` decimals (`null` when not finite — JSON has no
    /// literal for it).
    pub fn fixed(x: f64, digits: usize) -> JsonValue {
        if x.is_finite() {
            JsonValue::Num(format!("{x:.digits$}"))
        } else {
            JsonValue::Null
        }
    }

    /// Renders on one line with no whitespace — the capture's line
    /// format.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders a document: two-space indentation, one array element or
    /// object field per line, except that an object holding only
    /// scalars stays on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is `None` for compact output, else the current depth in
    /// spaces.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &JsonValue)>) = match self {
            JsonValue::Null => return out.push_str("null"),
            JsonValue::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(token) => return out.push_str(token),
            JsonValue::Str(s) => return write_escaped(out, s),
            JsonValue::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            JsonValue::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', fields.collect())
            }
        };
        let scalars = |items: &[(Option<&str>, &JsonValue)]| {
            let nested = |v: &JsonValue| matches!(v, JsonValue::Arr(_) | JsonValue::Obj(_));
            !items.iter().any(|(_, v)| nested(v))
        };
        // Pretty output breaks after every element, except in an empty
        // container and in an object holding only scalars.
        let inner = indent
            .filter(|_| !(items.is_empty() || open == '{' && scalars(&items)))
            .map(|depth| depth + 2);
        let spaced = indent.is_some();
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', depth));
        };
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if spaced && inner.is_none() { ", " } else { "," });
            }
            if let Some(depth) = inner {
                newline(out, depth);
            }
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(if spaced { ": " } else { ":" });
            }
            value.write(out, inner.or(indent));
        }
        if let (Some(depth), Some(_)) = (indent, inner) {
            newline(out, depth);
        }
        out.push(close);
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for ch in s.chars() {
        match ch {
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

macro_rules! json_from_integer {
    ($($ty:ty),*) => {$(
        impl From<$ty> for JsonValue {
            fn from(n: $ty) -> Self {
                JsonValue::Num(n.to_string())
            }
        }
    )*};
}

json_from_integer!(u32, u64, usize);

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

/// Collects into an array.
impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// `None` renders as `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by any of
                            // our exporters; map lone surrogates to the
                            // replacement character rather than failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid char boundaries).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let span = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        match span.parse::<f64>() {
            Ok(_) => Ok(JsonValue::Num(span.to_string())),
            Err(_) => Err(format!("bad number {span:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let v = JsonValue::parse(
            r#"{"a": 1, "b": -2.5e2, "c": [true, false, null], "d": {"nested": "x"}}"#,
        )
        .expect("valid document");
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(JsonValue::as_f64), Some(-250.0));
        match v.get("c") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(
                    items,
                    &[
                        JsonValue::Bool(true),
                        JsonValue::Bool(false),
                        JsonValue::Null
                    ]
                );
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("d")
                .and_then(|d| d.get("nested"))
                .and_then(JsonValue::as_str),
            Some("x")
        );
    }

    #[test]
    fn decodes_string_escapes() {
        let v = JsonValue::parse(r#""a\"b\\c\ndA""#).expect("valid string");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_trailing_content_and_bad_syntax() {
        assert!(JsonValue::parse("{\"a\": 1} extra").is_err());
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn integer_literals_stay_exact_on_all_64_bits() {
        // BENCH_serve.json's FNV-1a digest is above 2^53: as an f64 it
        // would collide with its 2047 nearest neighbours.
        let v = JsonValue::parse("{\"n\": 14485680915734382006, \"m\": 14485680915734382007}")
            .expect("valid");
        let (n, m) = (v.get("n").expect("n"), v.get("m").expect("m"));
        assert_eq!(n.as_u64(), Some(14_485_680_915_734_382_006));
        assert_eq!(m.as_u64(), Some(14_485_680_915_734_382_007));
        assert_eq!(
            n.as_f64(),
            m.as_f64(),
            "the f64 view cannot tell them apart"
        );
        assert_eq!(JsonValue::from(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(JsonValue::parse("-3").expect("valid").as_u64(), None);
        assert_eq!(JsonValue::parse("2.5").expect("valid").as_u64(), None);
    }

    #[test]
    fn writer_escapes_strings_and_round_trips_byte_identically() {
        let doc = JsonValue::object()
            .with("name", "a \"quoted\" back\\slash\nnewline \u{1} é")
            .with("count", 7u64)
            .with("ratio", JsonValue::fixed(0.5, 4))
            .with("nan", JsonValue::fixed(f64::NAN, 2))
            .with("none", None::<u64>)
            .with("lanes", [1u64, 2].into_iter().collect::<JsonValue>())
            .with("leaf", JsonValue::object().with("ok", true));
        let compact = doc.compact();
        assert_eq!(
            compact,
            "{\"name\":\"a \\\"quoted\\\" back\\\\slash\\nnewline \\u0001 é\",\"count\":7,\
             \"ratio\":0.5000,\"nan\":null,\"none\":null,\"lanes\":[1,2],\"leaf\":{\"ok\":true}}"
        );
        let back = JsonValue::parse(&compact).expect("writer output parses");
        assert_eq!(back, doc);
        assert_eq!(back.compact(), compact);
        let pretty = doc.pretty();
        assert_eq!(JsonValue::parse(&pretty).expect("pretty parses"), doc);
        assert!(
            pretty.contains("\n  \"lanes\": [\n    1,\n    2\n  ],\n"),
            "{pretty}"
        );
        assert!(
            pretty.contains("\n  \"leaf\": {\"ok\": true}\n}"),
            "{pretty}"
        );
        assert_eq!(JsonValue::object().pretty(), "{}");
        assert_eq!(JsonValue::Arr(Vec::new()).pretty(), "[]");
    }
}
