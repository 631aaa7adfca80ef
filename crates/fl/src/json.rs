//! A deliberately small JSON reader shared by the workspace's artifact
//! formats ([`RunLog::from_json`](crate::RunLog::from_json),
//! [`SimCheckpoint::from_json`](crate::SimCheckpoint::from_json)) and the
//! declarative scenario files (`fedzkt_scenario`).
//!
//! The wire formats are owned by the crates that write them; this module
//! provides the value model and parser they read back with, and the one
//! set of typed readers ([`FromJson`], [`Value::field`],
//! [`Value::field_or`]) every format reads its fields through. Supported:
//! objects, arrays, numbers (kept as raw text so integer width and float
//! precision are decided by the caller), strings (with the two escapes the
//! workspace writers emit, `\"` and `\\`), booleans and `null`. Anything
//! else is rejected rather than guessed at, and containers may nest at most
//! [`MAX_DEPTH`] deep, so a hostile file cannot overflow the parser's stack.

use std::borrow::Cow;

/// A parsed JSON value; numbers stay as raw slices of the input.
#[derive(Debug)]
pub enum Value<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, unparsed.
    Number(&'a str),
    /// A string (unescaped; borrowed when the input needed no escapes).
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object (insertion-ordered).
    Object(Vec<(&'a str, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The raw text when this is a number.
    pub fn as_number(&self) -> Option<&'a str> {
        match self {
            Value::Number(raw) => Some(raw),
            _ => None,
        }
    }

    /// The unescaped text when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object fields when this is an object.
    pub fn as_object(&self) -> Option<&[(&'a str, Value<'a>)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Read the required object field `key` as a `T`.
    ///
    /// # Errors
    /// Names `key` when it is missing or is not a `T`.
    pub fn field<'s, T: FromJson<'s>>(&'s self, key: &str) -> Result<T, String> {
        let value = self.get(key).ok_or_else(|| format!("missing field \"{key}\""))?;
        T::from_json(value).map_err(|e| format!("field \"{key}\": {e}"))
    }

    /// Read the optional object field `key` as a `T`, `default` when the
    /// key is absent (a present `null` is read like any other value).
    ///
    /// # Errors
    /// Names `key` when it is present but not a `T`.
    pub fn field_or<'s, T: FromJson<'s>>(&'s self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(value) => T::from_json(value).map_err(|e| format!("field \"{key}\": {e}")),
        }
    }
}

/// A type read from one JSON value; `'v` is the borrow of the parsed tree,
/// so `&str` reads without copying.
///
/// Floats read `null` (the writers' spelling of a non-finite value) as
/// NaN, and `Option` reads it as `None`.
pub trait FromJson<'v>: Sized {
    /// Read `value`.
    ///
    /// # Errors
    /// Says what `value` should have been.
    fn from_json(value: &'v Value<'_>) -> Result<Self, String>;
}

macro_rules! from_json_number {
    ($($t:ty: $what:literal $(, null $nan:expr)?;)*) => {$(
        impl FromJson<'_> for $t {
            fn from_json(value: &Value<'_>) -> Result<Self, String> {
                $(if let Value::Null = value {
                    return Ok($nan);
                })?
                Ok(value.as_number().and_then(|raw| raw.parse().ok()).ok_or($what)?)
            }
        }
    )*};
}

from_json_number! {
    usize: "not a non-negative integer";
    u64: "not a 64-bit unsigned integer";
    f32: "not a number", null f32::NAN;
    f64: "not a number", null f64::NAN;
}

impl FromJson<'_> for bool {
    fn from_json(value: &Value<'_>) -> Result<Self, String> {
        Ok(value.as_bool().ok_or("not a boolean")?)
    }
}

impl<'v> FromJson<'v> for &'v str {
    fn from_json(value: &'v Value<'_>) -> Result<Self, String> {
        Ok(value.as_str().ok_or("not a string")?)
    }
}

impl FromJson<'_> for String {
    fn from_json(value: &Value<'_>) -> Result<Self, String> {
        <&str>::from_json(value).map(str::to_string)
    }
}

impl<'v, T: FromJson<'v>> FromJson<'v> for Vec<T> {
    fn from_json(value: &'v Value<'_>) -> Result<Self, String> {
        let items = value.as_array().ok_or("not an array")?;
        items.iter().map(T::from_json).collect()
    }
}

/// A two-element array.
impl<'v, A: FromJson<'v>, B: FromJson<'v>> FromJson<'v> for (A, B) {
    fn from_json(value: &'v Value<'_>) -> Result<Self, String> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err("not a two-element array".into()),
        }
    }
}

impl<'v, T: FromJson<'v>> FromJson<'v> for Option<T> {
    fn from_json(value: &'v Value<'_>) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Escape a string for embedding in a JSON document written by the
/// workspace's hand-rolled serializers (`"` and `\` only; all other
/// characters pass through, so callers should restrict themselves to
/// printable text).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            other => out.push(other),
        }
    }
    out
}

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level; no document the workspace writes nests deeper than 6.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document (trailing whitespace allowed).
///
/// # Errors
/// Returns a byte-positioned message when the input is not in the
/// supported subset or nests deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value<'_>, String> {
    let mut p = Parser { bytes: input.as_bytes(), input, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string(),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b) if *b == b'-' || b.is_ascii_digit() => Ok(self.number()),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Parse one container, refusing to recurse past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value<'a>, String>,
    ) -> Result<Value<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Value<'a> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| {
            b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        Value::Number(&self.input[start..self.pos])
    }

    /// A string value; only the escapes [`escape`] emits are accepted.
    fn string(&mut self) -> Result<Value<'a>, String> {
        let raw = self.raw_string()?;
        if !raw.contains('\\') {
            return Ok(Value::String(Cow::Borrowed(raw)));
        }
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => return Err(format!("unsupported escape \\{other:?}")),
            }
        }
        Ok(Value::String(Cow::Owned(out)))
    }

    /// The raw content between quotes, escapes unprocessed.
    fn raw_string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = &self.input[start..self.pos];
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    /// Object keys: plain strings, no escapes (no workspace writer emits
    /// escaped keys).
    fn key(&mut self) -> Result<&'a str, String> {
        let raw = self.raw_string()?;
        if raw.contains('\\') {
            return Err("escapes are not supported in keys".into());
        }
        Ok(raw)
    }

    fn object(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.key()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, -2.5e3, null], "b": true, "c": "hi", "d": false}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_number(), Some("1"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("c").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(false));
        assert!(matches!(v.get("a").unwrap().as_array().unwrap()[2], Value::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote \" and backslash \\ done";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_unsupported_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2") .is_err());
        assert!(parse("{\"s\": \"\\n\"}").is_err(), "unsupported escape");
        assert!(parse("nul").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(1_000_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128 at byte"), "{err}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn typed_field_readers() {
        let v = parse(
            r#"{"n": 7, "x": null, "s": "hi", "b": true, "l": [1, null], "p": ["k", [2]], "o": null}"#,
        )
        .unwrap();
        assert_eq!(v.field::<usize>("n"), Ok(7));
        assert!(v.field::<f32>("x").unwrap().is_nan(), "null reads NaN");
        assert!(v.field::<u64>("x").is_err(), "but never an integer");
        assert_eq!(v.field::<&str>("s"), Ok("hi"));
        assert_eq!(v.field::<String>("s"), Ok("hi".to_string()));
        assert_eq!(v.field::<bool>("b"), Ok(true));
        assert!(v.field::<bool>("n").is_err());
        let list: Vec<f64> = v.field("l").unwrap();
        assert_eq!(list[0], 1.0);
        assert!(list[1].is_nan());
        assert_eq!(v.field::<(&str, Vec<u64>)>("p"), Ok(("k", vec![2])));
        assert!(v.field::<(&str, &str)>("l").is_err());
        assert_eq!(v.field::<Option<usize>>("o"), Ok(None));
        assert_eq!(v.field::<Option<usize>>("n"), Ok(Some(7)));
        let missing = v.field::<usize>("absent").unwrap_err();
        assert!(missing.contains("\"absent\""), "{missing}");
        assert_eq!(v.field_or("absent", 3usize), Ok(3));
        assert_eq!(v.field_or("n", 3usize), Ok(7));
        assert!(v.field_or("s", 3usize).is_err(), "present but malformed is an error");
        assert_eq!(v.field_or("o", Some(3usize)), Ok(None), "present null is read, not defaulted");
    }

    #[test]
    fn empty_containers() {
        assert!(parse("{}").unwrap().as_object().unwrap().is_empty());
        assert!(parse("[]").unwrap().as_array().unwrap().is_empty());
    }
}
