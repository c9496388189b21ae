//! Minimal JSON reading/writing for flat attribute maps.
//!
//! The build environment has no access to crates.io, so instead of `serde`
//! this module hand-rolls exactly what the middleware needs: serialising a
//! [`DataItem`]'s flat `string → scalar` map to one
//! JSON object per line and parsing it back. Floats are written with Rust's
//! shortest-roundtrip formatting (so `1.0` keeps its decimal point and the
//! int/float distinction survives a round trip); non-finite floats become
//! `null`. The parser accepts only what the writer can write back: RFC 8259
//! numbers that fit an `i64` or a finite `f64`, and `\u` escapes of four hex
//! digits.
//!
//! Both directions work per item, not per attribute, wherever they can. The
//! writer *appends* into a caller-owned buffer: a key or string with nothing
//! to escape is copied as one slice, integers are written digit by digit
//! without `fmt`, and floats go through std's shortest round-trip form
//! straight into the buffer, so serialising into a reused buffer allocates
//! nothing once the buffer has grown to the line length. The parser is a
//! scanner over the input `&str` that hands out **borrowed** slices wherever
//! no escape sequence intervenes ([`Cow::Borrowed`]; the slices are cut at
//! ASCII quotes, so they need no UTF-8 check). [`parse_item`] fills one
//! local attribute map — keys interned through the calling thread's front
//! cache, short strings inline, each key appended when it sorts after the
//! last, as every line this writer produced does — and wraps it in the
//! item's one allocation at the end.

use crate::intern::Key;
use crate::item::{AttrMap, DataItem, SmallStr, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (with quotes) to `out`.
///
/// Clean runs are copied as slices rather than char by char, so a string
/// with nothing to escape — every attribute key the feeds use — is one
/// slice copy. Every byte that needs escaping is ASCII, so splitting the string at
/// those byte offsets always lands on a char boundary.
pub fn escape_into(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        let escaped: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            _ => None,
        };
        out.push_str(&s[start..i]);
        match escaped {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{:04x}", b as u32);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends a finite float in shortest-roundtrip form (`1.0`, not `1`);
/// NaN/infinities have no JSON representation and are written as `null`.
/// Formats directly into `out` — no intermediate `String`.
pub(crate) fn float_into(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest round-trip form and always keeps a
        // decimal point or exponent, so floats re-parse as floats.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends an integer in decimal, without going through `fmt`.
fn int_into(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends one scalar [`Value`] to `out`.
pub fn value_into(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => int_into(out, *i),
        Value::Float(f) => float_into(out, *f),
        Value::Str(s) => escape_into(out, s.as_str()),
    }
}

/// Appends a flat attribute sequence (already in canonical key order) as one
/// JSON object — the reusable-buffer form of [`object_to_string`].
pub(crate) fn object_into<'a, I>(out: &mut String, attrs: I)
where
    I: IntoIterator<Item = (&'a str, &'a Value)>,
{
    out.push('{');
    for (i, (k, v)) in attrs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, k);
        out.push(':');
        value_into(out, v);
    }
    out.push('}');
}

/// Appends one [`DataItem`] as a JSON object to `out`.
pub(crate) fn item_into(out: &mut String, item: &DataItem) {
    object_into(out, item.iter());
}

/// Parses one JSON object of scalar values. Nested arrays/objects are
/// rejected: data items are flat by construction.
///
/// This is the owned-map form (for callers that want a `BTreeMap` they can
/// pick apart); the data plane parses straight into a [`DataItem`] via
/// [`parse_item`].
pub fn parse_object(s: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut map = BTreeMap::new();
    parse_into(s, |key, value| {
        map.insert(key.into_owned(), value);
    })?;
    Ok(map)
}

/// Parses one JSON object straight into a [`DataItem`]: keys intern from the
/// borrowed input slice, short string values land in inline storage — no
/// intermediate `String` per field (escaped strings decode through one
/// scratch buffer). The attributes fill a local map that becomes the item's
/// one heap allocation at the end (a line wider than the inline capacity
/// also allocates its spill vector).
pub fn parse_item(s: &str) -> Result<DataItem, String> {
    let mut attrs = AttrMap::new();
    parse_into(s, |key, value| attrs.insert(Key::new(&key), value))?;
    Ok(DataItem::from_attrs(attrs))
}

/// Shared driver: scans one complete JSON object and feeds each `key, value`
/// pair to `sink` (duplicate keys: last wins, matching map-insert
/// semantics).
fn parse_into<'a>(s: &'a str, mut sink: impl FnMut(Cow<'a, str>, Value)) -> Result<(), String> {
    let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    p.object(&mut sink)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes; every position the scanner stops at to cut a slice
    /// is next to an ASCII byte, hence a char boundary of `src`.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn object(&mut self, sink: &mut impl FnMut(Cow<'a, str>, Value)) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            sink(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(match self.string()? {
                Cow::Borrowed(s) => SmallStr::new(s),
                Cow::Owned(s) => SmallStr::from(s),
            })),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b'{') | Some(b'[') => {
                Err(format!("nested values are not supported (byte {})", self.pos))
            }
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Scans one number by the JSON grammar (`-? int frac? exp?`) and
    /// checks it once, on the whole token: no leading zero, a digit after
    /// `.`, a digit in the exponent, and a value that fits an `i64` or a
    /// finite `f64` (an overflow would come back as `inf` and be written as
    /// `null`).
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.digits();
        let mut ok = int == 1 || (int > 1 && self.bytes[self.pos - int] != b'0');
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        // Every byte scanned is ASCII.
        let text = &self.src[start..self.pos];
        let value = match (ok, is_float) {
            (false, _) => None,
            (true, true) => text.parse::<f64>().ok().filter(|f| f.is_finite()).map(Value::Float),
            (true, false) => text.parse::<i64>().ok().map(Value::Int),
        };
        value.ok_or_else(|| format!("bad number '{text}' at byte {start}"))
    }

    /// Skips a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Scans one string literal. The common case — no escape sequences —
    /// returns a slice borrowed straight from the input; only escaped
    /// strings decode into an owned buffer.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let clean_start = self.pos;
        // Fast path: scan to the closing quote; if no backslash intervenes,
        // the literal is the input slice itself.
        while let Some(b) = self.peek() {
            if b == b'"' {
                let s = &self.src[clean_start..self.pos];
                self.pos += 1;
                return Ok(Cow::Borrowed(s));
            }
            if b == b'\\' {
                break;
            }
            self.pos += 1;
        }
        if self.peek().is_none() {
            return Err("unterminated string".to_string());
        }
        // Slow path: at least one escape — decode into an owned buffer,
        // starting from the clean prefix already scanned.
        let mut out = String::with_capacity(self.pos - clean_start + 16);
        out.push_str(&self.src[clean_start..self.pos]);
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: must pair with \uXXXX low.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| "bad surrogate pair".to_string())?
                            } else {
                                char::from_u32(cp).ok_or_else(|| "bad \\u escape".to_string())?
                            };
                            out.push(c);
                            continue; // hex4 leaves pos past the escape
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Reads 4 hex digits; leaves `pos` past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        // Digit by digit: `u32::from_str_radix` would also take a sign.
        let mut cp = 0;
        for &b in &self.bytes[self.pos..end] {
            cp = cp * 16 + (b as char).to_digit(16).ok_or_else(|| "bad \\u escape".to_string())?;
        }
        self.pos = end;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_json(attrs: &BTreeMap<String, Value>) -> String {
        let mut out = String::new();
        object_into(&mut out, attrs.iter().map(|(k, v)| (k.as_str(), v)));
        out
    }

    fn roundtrip(attrs: BTreeMap<String, Value>) {
        let json = to_json(&attrs);
        assert_eq!(parse_object(&json).unwrap(), attrs, "roundtrip of {json}");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(BTreeMap::new());
        roundtrip(BTreeMap::from([
            ("int".to_string(), Value::Int(-42)),
            ("float".to_string(), Value::Float(53.35)),
            ("whole_float".to_string(), Value::Float(1.0)),
            ("bool".to_string(), Value::Bool(true)),
            ("null".to_string(), Value::Null),
            ("str".to_string(), Value::Str("r10".into())),
        ]));
    }

    #[test]
    fn ints_are_written_like_display() {
        for v in [0, 7, -1, 9, 10, -10, 99, 100, 33009, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut out = String::from("x");
            int_into(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn floats_keep_their_type() {
        let attrs = BTreeMap::from([("x".to_string(), Value::Float(2.0))]);
        let json = to_json(&attrs);
        assert!(json.contains("2.0"), "whole floats keep a decimal point: {json}");
        assert_eq!(parse_object(&json).unwrap()["x"], Value::Float(2.0));
    }

    #[test]
    fn escapes_roundtrip() {
        roundtrip(BTreeMap::from([("s".to_string(), Value::Str("a\"b\\c\nd\te\u{1}é€𝄞".into()))]));
        // Parse-side escapes we never emit.
        let parsed = parse_object(r#"{"s":"A𝄞\/"}"#).unwrap();
        assert_eq!(parsed["s"], Value::Str("A𝄞/".into()));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let attrs = BTreeMap::from([("x".to_string(), Value::Float(f64::NAN))]);
        assert_eq!(to_json(&attrs), r#"{"x":null}"#);
    }

    #[test]
    fn accepts_whitespace_and_exponents() {
        let parsed = parse_object(" { \"a\" : 1 , \"b\" : 2.5e3 } ").unwrap();
        assert_eq!(parsed["a"], Value::Int(1));
        assert_eq!(parsed["b"], Value::Float(2500.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "not json",
            "{",
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a":1} extra"#,
            r#"{"a":[1]}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":truth}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":"\uD800"}"#,
            "[1,2]",
        ] {
            assert!(parse_object(bad).is_err(), "should reject: {bad}");
            assert!(parse_item(bad).is_err(), "parse_item should reject: {bad}");
        }
    }

    #[test]
    fn parse_item_matches_parse_object() {
        let line = r#"{"bus":1,"kind":"bus","lat":53.35,"note":"a\"b","ok":true,"x":null}"#;
        let item = parse_item(line).unwrap();
        let map = parse_object(line).unwrap();
        assert_eq!(item.len(), map.len());
        for (k, v) in &map {
            assert_eq!(item.get(k), Some(v), "key {k}");
        }
        // Re-serialisation is byte-identical (canonical sorted form).
        assert_eq!(item.to_json(), line);
    }

    #[test]
    fn parse_item_duplicate_keys_last_wins() {
        let item = parse_item(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(item.len(), 1);
        assert_eq!(item.get_i64("a"), Some(2));
    }

    #[test]
    fn writer_into_reused_buffer_appends() {
        let item = DataItem::new().with("a", 1i64).with("s", "x");
        let mut buf = String::from("prefix ");
        item.to_json_into(&mut buf);
        assert_eq!(buf, r#"prefix {"a":1,"s":"x"}"#);
    }
}
