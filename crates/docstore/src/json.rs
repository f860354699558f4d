//! A self-contained JSON implementation: value model, recursive-descent
//! parser, and serializer.
//!
//! The paper's system stores metadata and collected data in MongoDB; this
//! workspace substitutes a from-scratch document store, and JSON is both its
//! document model and the wire encoding of the networked server
//! (`crowdfill-net` frames carry JSON payloads). No external serialization
//! dependency is used.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound::{Excluded, Included, Unbounded};

/// A JSON value. Object keys are kept sorted (`BTreeMap`) so serialization
/// is canonical — byte-identical for equal values — which the WAL and tests
/// rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers are held as `f64`, like JavaScript; integral values
    /// serialize without a decimal point.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member access for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element access.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Arr(v) => v.get(idx),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (exact integral numbers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes to a compact canonical string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// [`encode`](Self::encode) of this object as if it also held `key`
    /// with the value whose encoding is `raw`: text that is already JSON
    /// takes the member's canonical (sorted) place as it is, instead of
    /// being parsed into a tree to be written out again. For an object
    /// that does not hold `key`; panics on any other value.
    pub fn encode_with_member(&self, key: &str, raw: &str) -> String {
        let members = self.as_obj().expect("encode_with_member on an object");
        let mut out = String::with_capacity(raw.len() + 256);
        let mut open = '{';
        let mut name = |out: &mut String, k: &str| {
            out.push(std::mem::replace(&mut open, ','));
            write_string(k, out);
            out.push(':');
        };
        for (k, v) in members.range::<str, _>((Unbounded, Excluded(key))) {
            name(&mut out, k);
            v.write(&mut out);
        }
        name(&mut out, key);
        out.push_str(raw);
        for (k, v) in members.range::<str, _>((Included(key), Unbounded)) {
            name(&mut out, k);
            v.write(&mut out);
        }
        out.push('}');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
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
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document; the entire input must be consumed (modulo
    /// trailing whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_number(n: f64, out: &mut String) {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no NaN/Infinity; encode as null (never produced by the
        // store, which validates on insert).
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\x08' => out.push_str("\\b"),
            '\x0C' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub message: String,
}

/// The read accessors [`Json`] and [`JsonRef`] share, so a decoder written
/// once against this trait reads the same message out of whichever tree
/// the caller holds. Each method forwards to the inherent one of the same
/// name; [`to_json`](JsonNode::to_json) is the owned copy of a subtree,
/// for the cold decoders that are written against [`Json`].
pub trait JsonNode: Sized {
    fn to_json(&self) -> Json;
    fn get(&self, key: &str) -> Option<&Self>;
    fn as_str(&self) -> Option<&str>;
    fn as_f64(&self) -> Option<f64>;
    fn as_i64(&self) -> Option<i64>;
    fn as_bool(&self) -> Option<bool>;
    fn as_arr(&self) -> Option<&[Self]>;
}

macro_rules! forward_json_node {
    ($($method:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
        impl JsonNode for Json {
            fn to_json(&self) -> Json { self.clone() }
            $(fn $method(&self $(, $arg: $ty)*) -> $ret { Json::$method(self $(, $arg)*) })*
        }
        impl JsonNode for JsonRef<'_> {
            fn to_json(&self) -> Json { self.to_owned() }
            $(fn $method(&self $(, $arg: $ty)*) -> $ret { JsonRef::$method(self $(, $arg)*) })*
        }
    };
}

forward_json_node! {
    get(key: &str) -> Option<&Self>;
    as_str() -> Option<&str>;
    as_f64() -> Option<f64>;
    as_i64() -> Option<i64>;
    as_bool() -> Option<bool>;
    as_arr() -> Option<&[Self]>;
}

/// A JSON value that borrows from the parsed input — the zero-copy twin of
/// [`Json`] for decode-and-discard paths (network frame decode above all).
///
/// Escape-free strings are `Cow::Borrowed` slices of the input buffer;
/// only strings containing escapes are decoded into owned storage. Objects
/// keep their members in a `Vec` in document order rather than a sorted
/// map: wire objects are a handful of keys, where a linear scan beats a
/// `BTreeMap` and building the map is the dominant per-field allocation
/// this type exists to avoid. [`JsonRef::get`] scans members in reverse so
/// duplicate keys resolve last-wins, matching the owned parser's
/// insert-overwrite semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonRef<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Arr(Vec<JsonRef<'a>>),
    Obj(Vec<(Cow<'a, str>, JsonRef<'a>)>),
}

impl<'a> JsonRef<'a> {
    /// Parses a JSON document without copying escape-free strings; the
    /// entire input must be consumed (modulo trailing whitespace).
    pub fn parse(input: &'a str) -> Result<JsonRef<'a>, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value_ref()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Member access for objects (last occurrence wins, like [`Json::get`]).
    pub fn get(&self, key: &str) -> Option<&JsonRef<'a>> {
        match self {
            JsonRef::Obj(members) => members
                .iter()
                .rev()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element access.
    pub fn at(&self, idx: usize) -> Option<&JsonRef<'a>> {
        match self {
            JsonRef::Arr(v) => v.get(idx),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonRef::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonRef::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (exact integral numbers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonRef::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonRef::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonRef<'a>]> {
        match self {
            JsonRef::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Converts into the owned [`Json`] model, for values that must outlive
    /// the input buffer. Duplicate object keys collapse last-wins, exactly
    /// as the owned parser would have resolved them.
    pub fn to_owned(&self) -> Json {
        match self {
            JsonRef::Null => Json::Null,
            JsonRef::Bool(b) => Json::Bool(*b),
            JsonRef::Num(n) => Json::Num(*n),
            JsonRef::Str(s) => Json::Str(s.clone().into_owned()),
            JsonRef::Arr(items) => Json::Arr(items.iter().map(JsonRef::to_owned).collect()),
            JsonRef::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(k, v)| (k.clone().into_owned(), v.to_owned()))
                    .collect(),
            ),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
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

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The borrowing twin of [`Parser::value`]; grammar and error behavior
    /// are identical, only the produced representation differs.
    fn value_ref(&mut self) -> Result<JsonRef<'a>, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object_ref(),
            Some(b'[') => self.array_ref(),
            Some(b'"') => Ok(JsonRef::Str(self.string_ref()?)),
            Some(b't') => self.literal("true").map(|()| JsonRef::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonRef::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonRef::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonRef::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        self.depth -= 1;
        Ok(Json::Obj(map))
    }

    fn object_ref(&mut self) -> Result<JsonRef<'a>, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonRef::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string_ref()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value_ref()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        self.depth -= 1;
        Ok(JsonRef::Obj(members))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    fn array_ref(&mut self) -> Result<JsonRef<'a>, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonRef::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value_ref()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        self.depth -= 1;
        Ok(JsonRef::Arr(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.string_ref().map(Cow::into_owned)
    }

    /// Scans a string, borrowing the input slice when it contains no
    /// escapes (the common case for this workspace's wire vocabulary) and
    /// falling back to the allocating escape decoder otherwise.
    fn string_ref(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => {
                    // Rewind to just past the opening quote and decode with
                    // escape handling into owned storage.
                    self.pos = start;
                    return self.string_escaped().map(Cow::Owned);
                }
                Some(b) if b < 0x20 => {
                    self.pos += 1; // position the error on the offender
                    return Err(self.err("control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The escape-decoding string scanner; `self.pos` sits just past the
    /// opening quote.
    fn string_escaped(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\x08'),
                    Some(b'f') => out.push('\x0C'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).ok_or_else(|| self.err("invalid codepoint"))?
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-decode UTF-8 multi-byte sequences from the source.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                        let end = start + len;
                        if end > self.bytes.len() {
                            return Err(self.err("truncated UTF-8"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0 | [1-9][0-9]*
        match self.bump() {
            Some(b'0') => {}
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(n)
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let encoded = v.encode();
        let parsed = Json::parse(&encoded).unwrap_or_else(|e| panic!("{e} in {encoded}"));
        assert_eq!(&parsed, v, "roundtrip failed for {encoded}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::num(0));
        roundtrip(&Json::num(-42));
        roundtrip(&Json::num(3.25));
        roundtrip(&Json::num(-1e-7));
        roundtrip(&Json::str(""));
        roundtrip(&Json::str("hello"));
    }

    #[test]
    fn a_raw_member_takes_its_canonical_place() {
        let history = Json::Arr(vec![Json::obj([("kind", Json::str("insert"))]), Json::Null]);
        let header = [("history_len", Json::num(2)), ("client", Json::num(1))];
        for key in ["a", "history", "zz \"quoted\""] {
            let spliced = Json::obj(header.clone()).encode_with_member(key, &history.encode());
            let whole = header.clone().into_iter().chain([(key, history.clone())]);
            assert_eq!(spliced, Json::obj(whole).encode(), "{key}");
        }
        assert_eq!(Json::obj([]).encode_with_member("k", "[1]"), r#"{"k":[1]}"#);
    }

    #[test]
    fn strings_with_escapes_roundtrip() {
        roundtrip(&Json::str("line\nbreak\ttab \"quote\" back\\slash"));
        roundtrip(&Json::str("control:\u{1}\u{1f}"));
        roundtrip(&Json::str("unicode: ü ✓ 日本語 🦀"));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&Json::Arr(vec![]));
        roundtrip(&Json::Obj(BTreeMap::new()));
        roundtrip(&Json::obj([
            ("name", Json::str("Messi")),
            ("caps", Json::num(83)),
            (
                "teams",
                Json::Arr(vec![Json::str("Barcelona"), Json::str("PSG")]),
            ),
            ("meta", Json::obj([("active", Json::Bool(true))])),
        ]));
    }

    #[test]
    fn parses_standard_syntax() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5 , -3e2 , true , null ] } "#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[
                Json::num(1),
                Json::num(2.5),
                Json::num(-300),
                Json::Bool(true),
                Json::Null
            ]
        );
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::str("A"));
        assert_eq!(Json::parse(r#""🦀""#).unwrap(), Json::str("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err()); // unpaired high
        assert!(Json::parse(r#""\udd80""#).is_err()); // unpaired low
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "1e",
            "tru",
            "nul",
            "\"unterminated",
            "[1]extra",
            "+1",
            "'single'",
            "{\"a\":1,}",
            "[1,]",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn ref_parse_matches_owned_parse() {
        for doc in [
            "null",
            "true",
            "-12.5e3",
            r#""plain text""#,
            r#""esc \"aped\" é\n""#,
            r#"[1, "two", {"three": [false, null]}]"#,
            r#"{"kind":"replace","old":{"c":1,"s":2},"value":[{"col":0,"val":{"t":"text","v":"a"}}]}"#,
        ] {
            let owned = Json::parse(doc).unwrap();
            let borrowed = JsonRef::parse(doc).unwrap();
            assert_eq!(borrowed.to_owned(), owned, "mismatch for {doc}");
        }
    }

    #[test]
    fn ref_strings_borrow_unless_escaped() {
        let doc = r#"{"plain":"no escapes here","fancy":"tab\there"}"#;
        let j = JsonRef::parse(doc).unwrap();
        match j.get("plain") {
            Some(JsonRef::Str(Cow::Borrowed(s))) => assert_eq!(*s, "no escapes here"),
            other => panic!("expected borrowed str, got {other:?}"),
        }
        match j.get("fancy") {
            Some(JsonRef::Str(Cow::Owned(s))) => assert_eq!(s, "tab\there"),
            other => panic!("expected owned str, got {other:?}"),
        }
    }

    #[test]
    fn ref_duplicate_keys_resolve_last_wins() {
        let doc = r#"{"k":1,"k":2}"#;
        let owned = Json::parse(doc).unwrap();
        let borrowed = JsonRef::parse(doc).unwrap();
        assert_eq!(owned.get("k").unwrap().as_i64(), Some(2));
        assert_eq!(borrowed.get("k").unwrap().as_i64(), Some(2));
        assert_eq!(borrowed.to_owned(), owned);
    }

    #[test]
    fn ref_rejects_what_owned_rejects() {
        for doc in [
            "",
            "{",
            r#"{"a":}"#,
            r#""unterminated"#,
            "[1,]",
            "01",
            "1e",
            "\"ctrl\u{1}char\"",
        ] {
            assert!(Json::parse(doc).is_err(), "owned accepted {doc:?}");
            assert!(JsonRef::parse(doc).is_err(), "borrowed accepted {doc:?}");
        }
    }

    #[test]
    fn canonical_encoding_sorts_keys() {
        let a = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(a.encode(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn integral_floats_encode_without_point() {
        assert_eq!(Json::num(83).encode(), "83");
        assert_eq!(Json::num(83.5).encode(), "83.5");
        assert_eq!(Json::num(-0.0).encode(), "0");
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("x", Json::num(5)), ("s", Json::str("y"))]);
        assert_eq!(v.get("x").unwrap().as_i64(), Some(5));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(5.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("y"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::num(1.5).as_i64(), None);
        assert_eq!(Json::Arr(vec![Json::Null]).at(0), Some(&Json::Null));
        assert_eq!(Json::Arr(vec![]).at(0), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert!(v.as_obj().is_some());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
    }
}
