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
//! - A record's format is declared once, with [`codec!`]: one row per
//!   field gives its `ToJson` and a strict `FromJson`.  Strict means a
//!   document that does not say exactly what the type holds is refused,
//!   with the key path in the error: a non-object, a missing required
//!   key, a key the type does not declare and (in [`Json::parse`]) a key
//!   repeated within one object.  Errors are `String`s with context.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use std::collections::HashSet;
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
    /// An object, insertion-ordered; [`Json::parse`] refuses a repeated
    /// key.
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
    pub(crate) fn as_i128(&self) -> Option<i128> {
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
    pub(crate) fn as_bool(&self) -> Option<bool> {
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
pub(crate) const MAX_DEPTH: usize = 128;

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
        let mut fields: Vec<(String, Json)> = Vec::new();
        // The keys so far, once there are too many for a linear scan.
        let mut seen: Option<HashSet<String>> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            let repeated = if fields.len() < 16 {
                fields.iter().any(|(k, _)| *k == key)
            } else {
                let seen =
                    seen.get_or_insert_with(|| fields.iter().map(|(k, _)| k.clone()).collect());
                !seen.insert(key.clone())
            };
            if repeated {
                return Err(format!("repeated key {key:?} at byte {at}"));
            }
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
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("#{i}: {e}")))
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self[..].to_json()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &Json) -> Result<Self, String> {
        let items = Vec::<T>::from_json(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected {N} items, got {len}"))
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

/// Required-field decode with the key folded into the error.
pub fn req<T: FromJson>(obj: &Json, key: &str) -> Result<T, String> {
    decode(key, field(obj, key)?)
}

fn decode<T: FromJson>(key: &str, value: &Json) -> Result<T, String> {
    T::from_json(value).map_err(|e| format!("field '{key}': {e}"))
}

/// The `kind` tag of a [`codec!`] `kind` object; `what` names the object
/// in the error.
pub fn kind_of<'a>(value: &'a Json, what: &str) -> Result<&'a str, String> {
    value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} needs a string \"kind\" field"))
}

/// An object being decoded strictly: `keys` are every key its codec
/// declares.  Each field is read, then [`Record::finish`] refuses any
/// other key.  Errors carry the key (`field 'outer': …`), so a nested
/// refusal reads as a key path.
pub struct Record<'a> {
    fields: &'a [(String, Json)],
    keys: &'a [&'a str],
}

impl<'a> Record<'a> {
    /// Refuses a non-object.
    pub fn new(value: &'a Json, keys: &'a [&'a str]) -> Result<Self, String> {
        match value {
            Json::Obj(fields) => Ok(Record { fields, keys }),
            other => Err(format!("expected an object, got {other:?}")),
        }
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The first key the codec does not declare, as the error.
    fn unknown(&self) -> Result<(), String> {
        match self
            .fields
            .iter()
            .find(|(k, _)| !self.keys.contains(&k.as_str()))
        {
            Some((key, _)) => Err(format!(
                "unknown key {key:?} (allowed: {})",
                self.keys.join(", ")
            )),
            None => Ok(()),
        }
    }

    /// The required field `key`.  A missing key's error also names an
    /// undeclared key: the two together are usually one misspelling.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let Some(value) = self.get(key) else {
            return Err(match self.unknown() {
                Ok(()) => format!("missing field '{key}'"),
                Err(unknown) => format!("missing field '{key}'; {unknown}"),
            });
        };
        decode(key, value)
    }

    /// The field `key`, or `default` when it is absent.
    pub fn or<T: FromJson>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key)
            .map_or(Ok(default), |value| decode(key, value))
    }

    /// The field `key` as `[lo, hi]`, or `default` when it is absent
    /// (`None`: required).
    pub fn pair<T: FromJson>(&self, key: &str, default: Option<(T, T)>) -> Result<(T, T), String> {
        let items: Vec<T> = match (self.get(key), default) {
            (None, Some(default)) => return Ok(default),
            _ => self.req(key)?,
        };
        let len = items.len();
        match <[T; 2]>::try_from(items) {
            Ok([lo, hi]) => Ok((lo, hi)),
            Err(_) => Err(format!("{key} must hold exactly [lo, hi], got {len} items")),
        }
    }

    /// `decoded`, unless the object holds a key the codec does not
    /// declare.
    pub fn finish<T>(&self, decoded: T) -> Result<T, String> {
        self.unknown().map(|()| decoded)
    }
}

/// Declares the JSON format of a type once, generating its `ToJson` and
/// strict `FromJson` (see [`Record`]) from one row per field, in
/// document order, each key being the field's name.  Three forms:
///
/// - `struct Type { field: codec, … }`: an object;
/// - `enum Type as "what" { "tag" => Variant, … }`: a string;
/// - `kind Type as "what" { "tag" => Self::Variant { field: codec, … }, … }`:
///   an object whose `"kind"` (emitted first) names the variant; also
///   generates `kind()`.  A row may wrap its variant in a slot of an
///   outer one: `"tag" => [Outer.slot] Inner::Variant { … }`.
///
/// Codecs: `req` (required), `or(default)` (optional), `omit(default)`
/// (optional, and emitted only when it differs from `default`) and
/// `pair(default)` (an optional `[lo, hi]`, held as a tuple).  The
/// encoder destructures every value without `..`, so a field without a
/// row, or a variant without one, does not compile.
#[macro_export]
macro_rules! codec {
    (struct $ty:ident { $($field:ident : $codec:ident $(($default:expr))?),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let $ty { $($field),* } = self;
                let mut obj = Vec::new();
                $( $crate::codec!(@put obj $field $codec $(($default))?); )*
                $crate::Json::Obj(obj)
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, String> {
                let r = $crate::Record::new(value, &[$(stringify!($field)),*])?;
                r.finish($ty { $($field: $crate::codec!(@get r $field $codec $(($default))?)),* })
            }
        }
    };
    (enum $ty:ident as $what:literal { $($tag:literal => $variant:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(match self { $($ty::$variant => $tag,)* }.to_string())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, String> {
                match value.as_str() {
                    $(Some($tag) => Ok($ty::$variant),)*
                    _ => Err(format!(
                        "unknown {} {} (expected {})",
                        $what,
                        value.render(),
                        [$(concat!("\"", $tag, "\"")),*].join(" or ")
                    )),
                }
            }
        }
    };
    (kind $ty:ident as $what:literal {
        $( $tag:literal => $([$outer:ident . $slot:ident])? $($variant:ident)::+ {
            $( $field:ident : $codec:ident $(($default:expr))? ),*
        } ),* $(,)?
    }) => {
        impl $ty {
            /// The JSON `kind` tag of this value.
            pub(crate) fn kind(&self) -> &'static str {
                match self {
                    $( $crate::codec!(@wrap [$($outer.$slot)?] $($variant)::+ { .. }) => $tag, )*
                }
            }
        }

        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let mut obj = vec![("kind".to_string(), $crate::Json::Str(self.kind().to_string()))];
                match self {
                    $( $crate::codec!(@wrap [$($outer.$slot)?] $($variant)::+ { $($field),* }) => {
                        $( $crate::codec!(@put obj $field $codec $(($default))?); )*
                    } )*
                }
                $crate::Json::Obj(obj)
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, String> {
                match $crate::kind_of(value, $what)? {
                    $( $tag => {
                        let r = $crate::Record::new(value, &["kind", $(stringify!($field)),*])?;
                        r.finish($crate::codec!(@wrap [$($outer.$slot)?] $($variant)::+ {
                            $( $field: $crate::codec!(@get r $field $codec $(($default))?) ),*
                        }))
                    } )*
                    other => {
                        $crate::Record::new(value, &["kind"])?.finish(())?;
                        Err(format!("unknown {} kind {other:?}", $what))
                    }
                }
            }
        }
    };
    (@wrap [] $($inner:tt)*) => { $($inner)* };
    (@wrap [$outer:ident . $slot:ident] $($inner:tt)*) => { Self::$outer { $slot: $($inner)* } };
    (@put $obj:ident $x:ident omit($d:expr)) => {
        if *$x != $d {
            $crate::codec!(@put $obj $x req);
        }
    };
    (@put $obj:ident $x:ident pair $(($d:expr))?) => {
        $obj.push((
            stringify!($x).to_string(),
            $crate::Json::Arr(vec![$crate::ToJson::to_json(&$x.0), $crate::ToJson::to_json(&$x.1)]),
        ))
    };
    (@put $obj:ident $x:ident $codec:ident $(($d:expr))?) => {
        $obj.push((stringify!($x).to_string(), $crate::ToJson::to_json($x)))
    };
    (@get $r:ident $x:ident req) => { $r.req(stringify!($x))? };
    (@get $r:ident $x:ident or($d:expr)) => { $r.or(stringify!($x), $d)? };
    (@get $r:ident $x:ident omit($d:expr)) => { $r.or(stringify!($x), $d)? };
    (@get $r:ident $x:ident pair($d:expr)) => { $r.pair(stringify!($x), Some($d))? };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_unknown_names_the_stray_key() {
        let value = Json::parse(r#"{"n": 4, "stepz": 9}"#).unwrap();
        assert!(Record::new(&value, &["n", "stepz"])
            .unwrap()
            .finish(())
            .is_ok());
        let err = Record::new(&value, &["n", "steps"])
            .unwrap()
            .finish(())
            .unwrap_err();
        assert!(err.contains("\"stepz\""), "{err}");
        assert!(err.contains("steps"), "{err}");
        // A non-object is refused before any key is read.
        let err = Record::new(&Json::Int(3), &[]).err().unwrap();
        assert_eq!(err, "expected an object, got Int(3)");
    }

    /// One type per codec form, with every field codec.
    #[derive(Debug, PartialEq)]
    struct Rec {
        n: u64,
        seed: [u8; 2],
        range: (u32, u32),
        tags: Vec<Mode>,
        spare: Option<u64>,
    }

    codec! { struct Rec {
        n: req,
        seed: or([0, 0]),
        range: pair((1, 9)),
        tags: omit(Vec::new()),
        spare: omit(None),
    } }

    #[derive(Debug, PartialEq)]
    enum Mode {
        Lost,
        Frozen,
    }

    codec! { enum Mode as "mode" { "lost" => Lost, "frozen" => Frozen } }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Box { w: u64, h: u64 },
        Wrapped { inner: Inner },
    }

    #[derive(Debug, PartialEq)]
    enum Inner {
        Line { len: (u8, u8) },
    }

    codec! { kind Shape as "shape" {
        "dot" => Self::Dot {},
        "box" => Self::Box { w: req, h: or(1) },
        "line" => [Wrapped.inner] Inner::Line { len: pair((0, 1)) },
    } }

    fn rec(text: &str) -> Result<Rec, String> {
        Rec::from_json(&Json::parse(text)?)
    }

    fn shape(text: &str) -> Result<Shape, String> {
        Shape::from_json(&Json::parse(text)?)
    }

    #[test]
    fn record_codec_round_trips_fills_defaults_and_omits_them() {
        let full = r#"{"n":3,"seed":[7,8],"range":[2,5],"tags":["frozen","lost"],"spare":4}"#;
        let value = rec(full).unwrap();
        assert_eq!(value.tags, vec![Mode::Frozen, Mode::Lost]);
        assert_eq!(value.to_json().render(), full);
        let bare = rec(r#"{"n":3}"#).unwrap();
        assert_eq!(
            bare,
            Rec {
                n: 3,
                seed: [0, 0],
                range: (1, 9),
                tags: Vec::new(),
                spare: None,
            }
        );
        // `or` and `pair` emit their defaults; `omit` skips them.
        assert_eq!(
            bare.to_json().render(),
            r#"{"n":3,"seed":[0,0],"range":[1,9]}"#
        );
    }

    #[test]
    fn record_codec_refuses_what_it_cannot_read() {
        let err = |text: &str| rec(text).unwrap_err();
        assert_eq!(err(r#"{"seed":[1,2]}"#), "missing field 'n'");
        assert_eq!(
            err(r#"{"n":1,"sede":[1,2]}"#),
            r#"unknown key "sede" (allowed: n, seed, range, tags, spare)"#
        );
        // A misspelt required key is missing and unknown at once.
        assert_eq!(
            err(r#"{"m":1}"#),
            r#"missing field 'n'; unknown key "m" (allowed: n, seed, range, tags, spare)"#
        );
        assert_eq!(err("5"), "expected an object, got Int(5)");
        assert_eq!(
            err(r#"{"n":1,"range":[1]}"#),
            "range must hold exactly [lo, hi], got 1 items"
        );
        assert_eq!(
            err(r#"{"n":1,"range":[1,2,3]}"#),
            "range must hold exactly [lo, hi], got 3 items"
        );
        assert_eq!(
            err(r#"{"n":1,"range":[1,-2]}"#),
            "field 'range': #1: integer -2 out of range for u32"
        );
        assert_eq!(
            err(r#"{"n":1,"seed":[1]}"#),
            "field 'seed': expected 2 items, got 1"
        );
        assert_eq!(
            err(r#"{"n":1,"tags":["lost","gone"]}"#),
            r#"field 'tags': #1: unknown mode "gone" (expected "lost" or "frozen")"#
        );
        assert_eq!(err(r#"{"n":1,"n":2}"#), r#"repeated key "n" at byte 7"#);
    }

    #[test]
    fn string_enum_codec_round_trips_and_refuses() {
        for mode in [Mode::Lost, Mode::Frozen] {
            assert_eq!(Mode::from_json(&mode.to_json()), Ok(mode));
        }
        assert_eq!(Mode::Frozen.to_json().render(), r#""frozen""#);
        let err = Mode::from_json(&Json::Int(1)).unwrap_err();
        assert_eq!(err, r#"unknown mode 1 (expected "lost" or "frozen")"#);
    }

    #[test]
    fn kind_codec_round_trips_and_refuses() {
        for text in [
            r#"{"kind":"dot"}"#,
            r#"{"kind":"box","w":2,"h":3}"#,
            r#"{"kind":"line","len":[4,5]}"#,
        ] {
            let value = shape(text).unwrap();
            assert_eq!(value.to_json().render(), text);
        }
        assert_eq!(
            shape(r#"{"kind":"box","w":2}"#).unwrap(),
            Shape::Box { w: 2, h: 1 }
        );
        assert_eq!(shape(r#"{"kind":"line"}"#).unwrap().kind(), "line");
        let err = |text: &str| shape(text).unwrap_err();
        assert_eq!(err(r#"{"kind":"box","h":2}"#), "missing field 'w'");
        assert_eq!(
            err(r#"{"kind":"box","w":2,"d":1}"#),
            r#"unknown key "d" (allowed: kind, w, h)"#
        );
        assert_eq!(
            err(r#"{"kind":"dot","w":1}"#),
            r#"unknown key "w" (allowed: kind)"#
        );
        assert_eq!(err(r#"{"kind":"cone"}"#), r#"unknown shape kind "cone""#);
        assert_eq!(err("[]"), r#"shape needs a string "kind" field"#);
        assert_eq!(
            err(r#"{"kind":"line","len":[]}"#),
            "len must hold exactly [lo, hi], got 0 items"
        );
    }

    /// A repeated key used to be read as its first occurrence.
    #[test]
    fn a_repeated_key_is_refused_by_name() {
        let err = Json::parse(r#"{"steps": 20, "f": 1.1, "steps": 0}"#).unwrap_err();
        assert_eq!(err, r#"repeated key "steps" at byte 24"#);
        // Nested, and past the linear scan's reach.
        assert!(Json::parse(r#"{"a": {"b": 1, "b": 1}}"#).is_err());
        let many: Vec<String> = (0..40).map(|i| format!("\"k{i}\": {i}")).collect();
        let text = format!("{{{}}}", many.join(","));
        assert!(Json::parse(&text).is_ok());
        let text = format!("{{{}, \"k33\": 0}}", many.join(","));
        assert!(Json::parse(&text)
            .unwrap_err()
            .starts_with(r#"repeated key "k33""#));
        // The same key in sibling objects is no repeat.
        assert!(Json::parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
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
