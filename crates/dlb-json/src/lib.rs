//! Minimal self-contained JSON support for the dlb workspace.
//!
//! The build environment has no crates.io access, so instead of serde the
//! workspace serialises through an explicit [`Json`] value tree with a
//! recursive-descent parser and deterministic renderers. Design points:
//!
//! - Integers are kept as `i128` ([`Json::Int`]), separate from floats, so
//!   `u64` seeds and `u128` stream positions round-trip exactly.
//! - Objects are ordered `Vec<(String, Json)>`, so rendering is a pure
//!   function of construction order — byte-stable output for determinism
//!   regression tests.
//! - [`ToJson`] / [`FromJson`] are implemented by hand per type; parse
//!   errors are `String`s with context.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (no fraction or exponent in the source text, within
    /// `i128`).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, first match wins on lookup.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Json::Int`].
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean value, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is a [`Json::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Renders pretty JSON (two-space indent).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{}` on f64 is the shortest round-trippable decimal form.
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`Json::parse`] accepts.  The parser
/// recurses once per level, so without a bound a few hundred kilobytes
/// of `[` overflow the stack and abort the process.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(format!("bad escape near byte {}", self.pos)),
                            }
                            continue; // hex4 already advanced
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        // An integer past `i128` is still a number: it reads as the
        // float it is (and `write_float` renders `1e308` as such digits).
        match text.parse::<i128>() {
            Ok(int) if !is_float => Ok(Json::Int(int)),
            _ => text
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number '{text}': {e}")),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Types convertible into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Types constructible from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses from a JSON value; the error names what was wrong.
    fn from_json(value: &Json) -> Result<Self, String>;
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, String> {
                let i = value
                    .as_i128()
                    .ok_or_else(|| format!("expected integer, got {value:?}"))?;
                <$t>::try_from(i).map_err(|_| {
                    format!("integer {i} out of range for {}", stringify!($t))
                })
            }
        }
    )*};
}
json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

impl ToJson for u128 {
    fn to_json(&self) -> Json {
        Json::Int(i128::try_from(*self).expect("u128 value exceeds i128 range"))
    }
}

impl FromJson for u128 {
    fn from_json(value: &Json) -> Result<Self, String> {
        let i = value
            .as_i128()
            .ok_or_else(|| format!("expected integer, got {value:?}"))?;
        u128::try_from(i).map_err(|_| format!("integer {i} out of range for u128"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("expected number, got {value:?}"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_bool()
            .ok_or_else(|| format!("expected bool, got {value:?}"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {value:?}"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_arr()
            .ok_or_else(|| format!("expected array, got {value:?}"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, String> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Required-field lookup with a descriptive error.
pub fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Optional-field decode falling back to `default` when absent.
pub fn field_or<T: FromJson>(obj: &Json, key: &str, default: T) -> Result<T, String> {
    match obj.get(key) {
        Some(v) => T::from_json(v).map_err(|e| format!("field '{key}': {e}")),
        None => Ok(default),
    }
}

/// Required-field decode with the key folded into the error.
pub fn req<T: FromJson>(obj: &Json, key: &str) -> Result<T, String> {
    T::from_json(field(obj, key)?).map_err(|e| format!("field '{key}': {e}"))
}

/// Rejects keys outside `allowed` with a key-path error, so a typo in a
/// config file fails loudly instead of silently falling back to a
/// default.  Callers that decode nested objects via [`req`]/[`field_or`]
/// get the full path for free: the nested error is wrapped as
/// `field 'outer': unknown key "inner_typo" ...`.
///
/// Non-object values pass (the decoder reports its own type error).
pub fn reject_unknown(value: &Json, allowed: &[&str]) -> Result<(), String> {
    if let Json::Obj(entries) = value {
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown key {key:?} (allowed: {})",
                    allowed.join(", ")
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_unknown_names_the_stray_key() {
        let value = Json::parse(r#"{"n": 4, "stepz": 9}"#).unwrap();
        assert!(reject_unknown(&value, &["n", "stepz"]).is_ok());
        let err = reject_unknown(&value, &["n", "steps"]).unwrap_err();
        assert!(err.contains("\"stepz\""), "{err}");
        assert!(err.contains("steps"), "{err}");
        // Non-objects pass; the decoder reports its own type error.
        assert!(reject_unknown(&Json::Int(3), &[]).is_ok());
    }

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "12345678901234567890",
            "\"hi\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
        let v = Json::parse("1.5").unwrap();
        assert_eq!(v, Json::Float(1.5));
        assert_eq!(v.render(), "1.5");
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn nested_round_trip_preserves_order() {
        let text = r#"{"b":1,"a":[true,null,{"x":-2.25}],"c":"s"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        // Pretty output re-parses to the same value.
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    /// `1e308` renders as 309 digits, which used to be refused on the
    /// way back as an integer too large for `i128`.
    #[test]
    fn every_finite_float_round_trips() {
        for f in [1e308, -1e308, f64::MAX, 1e39, 0.5] {
            assert_eq!(Json::parse(&Json::Float(f).render()), Ok(Json::Float(f)));
        }
        assert_eq!(
            Json::parse("170141183460469231731687303715884105727"),
            Ok(Json::Int(i128::MAX))
        );
    }

    /// 200 000 `[` used to overflow the stack and abort the process.
    #[test]
    fn nesting_past_the_bound_is_an_error_not_an_abort() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let err = Json::parse(&"[{\"a\":".repeat(200_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\n\tAé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\n\tAé");
        let rendered = Json::Str("x\ny\"z\u{1}".to_string()).render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str().unwrap(),
            "x\ny\"z\u{1}"
        );
    }

    #[test]
    fn surrogate_pair() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }

    #[test]
    fn u128_and_u64_precision() {
        let pos: u128 = (1u128 << 68) + 3;
        let rendered = pos.to_json().render();
        assert_eq!(
            u128::from_json(&Json::parse(&rendered).unwrap()).unwrap(),
            pos
        );
        let big: u64 = u64::MAX;
        let rendered = big.to_json().render();
        assert_eq!(
            u64::from_json(&Json::parse(&rendered).unwrap()).unwrap(),
            big
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(u8::from_json(&Json::Int(300)).is_err());
        assert!(req::<u64>(&Json::Obj(vec![]), "n").is_err());
        assert_eq!(field_or(&Json::Obj(vec![]), "n", 7u64).unwrap(), 7);
    }

    #[test]
    fn float_int_coercion() {
        // Integral floats render without a dot and re-parse as Int;
        // f64::from_json must accept that.
        let rendered = Json::Float(2.0).render();
        assert_eq!(rendered, "2");
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(f64::from_json(&back).unwrap(), 2.0);
    }

    #[test]
    fn vec_and_option() {
        let xs = vec![1u64, 2, 3];
        let j = xs.to_json();
        assert_eq!(Vec::<u64>::from_json(&j).unwrap(), xs);
        assert_eq!(Option::<u64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u64>::from_json(&Json::Int(4)).unwrap(), Some(4));
        assert_eq!(None::<u64>.to_json(), Json::Null);
    }
}
