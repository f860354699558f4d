//! A self-contained JSON implementation: value model, one parser, and
//! serializer.
//!
//! The paper's system stores metadata and collected data in MongoDB; this
//! workspace substitutes a from-scratch document store, and JSON is both its
//! document model and the wire encoding of the networked server
//! (`crowdfill-net` frames carry JSON payloads). No external serialization
//! dependency is used.
//!
//! There is one grammar, and it writes a [`Tape`]: every value of a
//! document is one fixed-size slot of one `Vec`, in document order, a
//! container's slot recording its member count and the index just past its
//! last descendant (the tape of simdjson; Langdale & Lemire, "Parsing
//! Gigabytes of JSON per Second", VLDB J. 2019). Decoders read it through
//! [`TapeNode`] handles; the owned [`Json`] tree is the tape materialised.

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

/// `2^63` as an `f64`: the first integral value an `i64` cannot hold
/// (`i64::MAX as f64` rounds up to it).
const I64_END: f64 = 9_223_372_036_854_775_808.0;

/// The integer an `f64` holds exactly, if it is integral and in `i64`'s
/// range `[-2^63, 2^63)`.
fn f64_to_i64(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && (-I64_END..I64_END).contains(&n)).then_some(n as i64)
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

    /// Integer view (exact integral numbers in `i64`'s range only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => f64_to_i64(*n),
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
    /// trailing whitespace). The [`Tape`] of `input`, materialised.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Tape::parse(input).map(|tape| tape.root().to_json())
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

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A read-only view of one JSON value, as a cheap `Copy` handle: the read
/// accessors [`TapeNode`] and `&Json` share, so a decoder written once
/// against this trait reads the same message out of a tape or an owned
/// tree. `'t` is how long what the handle reads (its strings) lives.
/// [`to_json`](JsonNode::to_json) is the owned copy of a subtree, for the
/// cold decoders that are written against [`Json`].
pub trait JsonNode<'t>: Copy {
    fn to_json(self) -> Json;
    /// An object's member `key` (the last, if the key repeats).
    fn get(self, key: &str) -> Option<Self>;
    /// An array's elements, in order.
    fn items(self) -> Option<impl ExactSizeIterator<Item = Self>>;
    fn as_str(self) -> Option<&'t str>;
    fn as_f64(self) -> Option<f64>;
    fn as_i64(self) -> Option<i64>;
    fn as_bool(self) -> Option<bool>;
    fn is_null(self) -> bool;

    /// An array's element `idx`, O(`idx`) on a tape.
    fn at(self, idx: usize) -> Option<Self> {
        self.items()?.nth(idx)
    }
}

impl<'t> JsonNode<'t> for &'t Json {
    fn to_json(self) -> Json {
        self.clone()
    }
    fn get(self, key: &str) -> Option<Self> {
        Json::get(self, key)
    }
    fn items(self) -> Option<impl ExactSizeIterator<Item = Self>> {
        self.as_arr().map(<[Json]>::iter)
    }
    fn as_str(self) -> Option<&'t str> {
        Json::as_str(self)
    }
    fn as_f64(self) -> Option<f64> {
        Json::as_f64(self)
    }
    fn as_i64(self) -> Option<i64> {
        Json::as_i64(self)
    }
    fn as_bool(self) -> Option<bool> {
        Json::as_bool(self)
    }
    fn is_null(self) -> bool {
        matches!(self, Json::Null)
    }
}

/// A parsed document a decoder starts from: a [`Tape`] or an owned
/// [`Json`], read through the [`JsonNode`] handle of its root.
pub trait JsonDoc {
    type Root<'t>: JsonNode<'t>
    where
        Self: 't;
    fn root(&self) -> Self::Root<'_>;
}

impl JsonDoc for Json {
    type Root<'t> = &'t Json;
    fn root(&self) -> &Json {
        self
    }
}

impl JsonDoc for Tape<'_> {
    type Root<'t>
        = TapeNode<'t>
    where
        Self: 't;
    fn root(&self) -> TapeNode<'_> {
        Tape::root(self)
    }
}

/// `crates/e2e` still names the parsed tree `JsonRef` (`JsonRef::parse`,
/// `JsonRef::as_str`); it is the owned [`Json`], materialised from the
/// tape. Delete with ROADMAP item 2(a), which un-pins that crate.
pub type JsonRef = Json;

/// One value of a [`Tape`]. Sixteen bytes: spans and counts are `u32`,
/// which is why a document is at most 4 GiB.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Null,
    Bool(bool),
    Num(f64),
    /// An escape-free string: a span of the input.
    Str {
        start: u32,
        len: u32,
    },
    /// A string with escapes: a span of the tape's decoded-string buffer.
    Esc {
        start: u32,
        len: u32,
    },
    /// `len` elements follow; `end` is the slot just past the last of
    /// them, so a reader skips the array in O(1).
    Arr {
        len: u32,
        end: u32,
    },
    /// `len` members follow, each a key (`Str` or `Esc`) and its value.
    Obj {
        len: u32,
        end: u32,
    },
}

/// A parsed JSON document that borrows its input: one `Vec` of slots, and
/// one buffer holding only the strings that had escapes. Parsing costs
/// O(1) allocations and dropping is one free per buffer, whatever the
/// document's size.
#[derive(Debug, Clone)]
pub struct Tape<'a> {
    input: &'a str,
    slots: Vec<Slot>,
    unescaped: String,
}

impl<'a> Tape<'a> {
    /// Parses a JSON document; the entire input must be consumed (modulo
    /// trailing whitespace).
    pub fn parse(input: &'a str) -> Result<Tape<'a>, JsonError> {
        if u32::try_from(input.len()).is_err() {
            return Err(JsonError {
                pos: 0,
                message: "document too large".to_string(),
            });
        }
        // Every slot but the root follows a `,`, a `:` or an opening
        // bracket, so counting those bytes (in strings too) bounds the
        // tape: it is allocated once. Each such slot also takes two bytes
        // of input (its value and that byte), which caps the bound for an
        // input that is mostly those bytes.
        // (In runs of 255 bytes, so the count vectorises.)
        let opens = |b: u8| u8::from((b == b',') | (b == b':') | (b | 0x20 == b'{'));
        let runs = input.as_bytes().chunks(255);
        let bound: usize = runs
            .map(|run| run.iter().fold(0, |n, &b| n + opens(b)) as usize)
            .sum();
        let bound = bound.min(input.len() / 2);
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            slots: Vec::with_capacity(bound + 1),
            unescaped: String::new(),
        };
        p.skip_ws();
        p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(Tape {
            input,
            slots: p.slots,
            unescaped: p.unescaped,
        })
    }

    /// The document's value.
    pub fn root(&self) -> TapeNode<'_> {
        TapeNode { tape: self, at: 0 }
    }

    /// The index of the slot after the value at `at` and its descendants.
    #[inline]
    fn after(&self, at: usize) -> usize {
        match self.slots[at] {
            Slot::Arr { end, .. } | Slot::Obj { end, .. } => end as usize,
            _ => at + 1,
        }
    }

    #[inline]
    fn text(&self, at: usize) -> Option<&str> {
        let span = |start: u32, len: u32| start as usize..(start + len) as usize;
        match self.slots[at] {
            Slot::Str { start, len } => Some(&self.input[span(start, len)]),
            Slot::Esc { start, len } => Some(&self.unescaped[span(start, len)]),
            _ => None,
        }
    }

    /// Whether the key slot at `at` reads `key`. Lengths first, then
    /// bytes: `text(at) == Some(key)` slices the `str` first, checking both
    /// ends for char boundaries on every member a `get` passes, which
    /// makes a welcome's decode about a fifth slower.
    #[inline]
    fn key_is(&self, at: usize, key: &str) -> bool {
        match self.slots[at] {
            Slot::Str { start, len } => {
                let start = start as usize;
                len as usize == key.len()
                    && &self.input.as_bytes()[start..start + key.len()] == key.as_bytes()
            }
            _ => self.text(at) == Some(key),
        }
    }
}

/// A handle to one value of a [`Tape`]: a reference and an index, `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct TapeNode<'t> {
    tape: &'t Tape<'t>,
    at: usize,
}

/// The values of an array, or the keys and values of an object, in
/// document order: each step skips a whole subtree in O(1).
#[derive(Debug, Clone)]
struct Items<'t> {
    tape: &'t Tape<'t>,
    next: usize,
    left: usize,
}

impl<'t> Iterator for Items<'t> {
    type Item = TapeNode<'t>;

    #[inline]
    fn next(&mut self) -> Option<TapeNode<'t>> {
        self.left = self.left.checked_sub(1)?;
        let node = TapeNode {
            tape: self.tape,
            at: self.next,
        };
        self.next = self.tape.after(self.next);
        Some(node)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Items<'_> {}

impl<'t> TapeNode<'t> {
    #[inline]
    fn slot(self) -> Slot {
        self.tape.slots[self.at]
    }

    /// The members of an object as (key, value) pairs, in document order.
    fn members(self) -> Option<impl Iterator<Item = (&'t str, TapeNode<'t>)>> {
        let Slot::Obj { len, .. } = self.slot() else {
            return None;
        };
        let mut fields = Items {
            tape: self.tape,
            next: self.at + 1,
            left: 2 * len as usize,
        };
        let pairs = (0..len).map(move |_| {
            let key = fields.next().and_then(TapeNode::as_str);
            (key.expect("a key"), fields.next().expect("a value"))
        });
        Some(pairs)
    }
}

impl<'t> JsonNode<'t> for TapeNode<'t> {
    /// The subtree as an owned [`Json`]; duplicate keys collapse
    /// last-wins.
    fn to_json(self) -> Json {
        if let Some(items) = self.items() {
            return Json::Arr(items.map(Self::to_json).collect());
        }
        if let Some(members) = self.members() {
            let mut map = BTreeMap::new();
            for (k, v) in members {
                map.insert(k.to_string(), v.to_json());
            }
            return Json::Obj(map);
        }
        match self.slot() {
            Slot::Bool(b) => Json::Bool(b),
            Slot::Num(n) => Json::Num(n),
            _ => self.as_str().map_or(Json::Null, Json::str),
        }
    }

    /// A scan of the members that skips each value in O(1).
    #[inline]
    fn get(self, key: &str) -> Option<Self> {
        let Slot::Obj { len, .. } = self.slot() else {
            return None;
        };
        let (tape, mut at, mut found) = (self.tape, self.at + 1, None);
        for _ in 0..len {
            if tape.key_is(at, key) {
                found = Some(at + 1);
            }
            at = tape.after(at + 1);
        }
        found.map(|at| TapeNode { tape, at })
    }

    #[inline]
    fn items(self) -> Option<impl ExactSizeIterator<Item = Self>> {
        let Slot::Arr { len, .. } = self.slot() else {
            return None;
        };
        Some(Items {
            tape: self.tape,
            next: self.at + 1,
            left: len as usize,
        })
    }

    #[inline]
    fn as_str(self) -> Option<&'t str> {
        self.tape.text(self.at)
    }

    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self.slot() {
            Slot::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Like [`Json::as_i64`]: a number read as `f64`, every encoder's
    /// reading, so what is decoded is what is journaled and broadcast.
    #[inline]
    fn as_i64(self) -> Option<i64> {
        self.as_f64().and_then(f64_to_i64)
    }

    #[inline]
    fn as_bool(self) -> Option<bool> {
        match self.slot() {
            Slot::Bool(b) => Some(b),
            _ => None,
        }
    }

    #[inline]
    fn is_null(self) -> bool {
        self.slot() == Slot::Null
    }
}

const MAX_DEPTH: usize = 128;

/// The grammar: recursive descent over the bytes, one slot pushed per
/// value (a container's patched once its end is known).
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    slots: Vec<Slot>,
    unescaped: String,
}

impl Parser<'_> {
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

    fn value(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let slot = match self.peek() {
            Some(b'{') => return self.container(b'}'),
            Some(b'[') => return self.container(b']'),
            Some(b'"') => self.string()?,
            Some(b't') => self.literal("true").map(|()| Slot::Bool(true))?,
            Some(b'f') => self.literal("false").map(|()| Slot::Bool(false))?,
            Some(b'n') => self.literal("null").map(|()| Slot::Null)?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.slots.push(slot);
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    /// An object (`close` is `}`: members are `"key": value`) or an array
    /// (`close` is `]`), the opening bracket under the cursor.
    fn container(&mut self, close: u8) -> Result<(), JsonError> {
        let object = close == b'}';
        self.pos += 1;
        self.depth += 1;
        let at = self.slots.len();
        self.slots.push(Slot::Null);
        let mut len = 0u32;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                if object {
                    let key = self.string()?;
                    self.slots.push(key);
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                }
                self.value()?;
                len += 1;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b) if b == close => break,
                    _ if object => return Err(self.err("expected ',' or '}'")),
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }
        self.depth -= 1;
        let end = self.slots.len() as u32;
        self.slots[at] = if object {
            Slot::Obj { len, end }
        } else {
            Slot::Arr { len, end }
        };
        Ok(())
    }

    /// A string: a span of the input if it has no escapes, else decoded
    /// into the tape's buffer.
    fn string(&mut self) -> Result<Slot, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let plain = self.bytes[start..].iter();
        self.pos += plain
            .take_while(|&&b| b != b'"' && b != b'\\' && b >= 0x20)
            .count();
        match self.peek() {
            None => Err(self.err("unterminated string")),
            Some(b'"') => {
                let len = (self.pos - start) as u32;
                self.pos += 1;
                Ok(Slot::Str {
                    start: start as u32,
                    len,
                })
            }
            Some(b'\\') => self.string_escaped(start),
            Some(_) => {
                self.pos += 1; // position the error on the offender
                Err(self.err("control character in string"))
            }
        }
    }

    /// The rest of a string from the first escape, the cursor on it;
    /// `start` is just past the opening quote.
    fn string_escaped(&mut self, start: usize) -> Result<Slot, JsonError> {
        let out = self.unescaped.len();
        let mut run = start;
        loop {
            let at = self.pos;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.unescaped.push_str(&self.input[run..at]);
                    let len = (self.unescaped.len() - out) as u32;
                    return Ok(Slot::Esc {
                        start: out as u32,
                        len,
                    });
                }
                Some(b'\\') => {
                    self.unescaped.push_str(&self.input[run..at]);
                    let c = self.escape()?;
                    self.unescaped.push(c);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {}
            }
        }
    }

    /// The character an escape stands for, the cursor past its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\x08',
            Some(b'f') => '\x0C',
            Some(b'u') => {
                let cp = self.hex4()?;
                // Surrogate pairs.
                if (0xD800..0xDC00).contains(&cp) {
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
                }
            }
            _ => return Err(self.err("invalid escape")),
        })
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

    /// A number, as the nearest `f64`.
    fn number(&mut self) -> Result<Slot, JsonError> {
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
        let text = &self.input[start..self.pos];
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Slot::Num(n))
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
            "\"ctrl\u{1}char\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_stops_at_128() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Tape::parse(&nested(128)).is_ok());
        let err = Tape::parse(&nested(129)).unwrap_err();
        assert_eq!((err.pos, err.message.as_str()), (128, "nesting too deep"));
    }

    #[test]
    fn tape_strings_borrow_unless_escaped() {
        let doc = r#"{"plain":"no escapes here","fancy":"tab\there éé"}"#;
        let tape = Tape::parse(doc).unwrap();
        assert!(matches!(tape.slots[2], Slot::Str { .. }));
        assert!(matches!(tape.slots[4], Slot::Esc { .. }));
        assert_eq!(
            tape.root().get("plain").unwrap().as_str(),
            Some("no escapes here")
        );
        assert_eq!(
            tape.root().get("fancy").unwrap().as_str(),
            Some("tab\there éé")
        );
        assert_eq!(tape.unescaped, "tab\there éé");
    }

    #[test]
    fn containers_skip_their_descendants() {
        let tape = Tape::parse(r#"[{"a":[1,[2,3]],"b":{}},"x",[],4]"#).unwrap();
        let items: Vec<Json> = tape
            .root()
            .items()
            .unwrap()
            .map(TapeNode::to_json)
            .collect();
        assert_eq!(items.len(), 4);
        assert_eq!(items[1], Json::str("x"));
        assert_eq!(tape.root().at(3).unwrap().as_i64(), Some(4));
        assert_eq!(tape.root().at(4).map(TapeNode::to_json), None);
        let first = tape.root().at(0).unwrap();
        assert_eq!(
            first.get("b").unwrap().to_json(),
            Json::Obj(BTreeMap::new())
        );
        assert_eq!(first.get("a").unwrap().items().unwrap().len(), 2);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let doc = r#"{"k":1,"j":0,"k":2}"#;
        assert_eq!(
            Json::parse(doc).unwrap().get("k").unwrap().as_i64(),
            Some(2)
        );
        let tape = Tape::parse(doc).unwrap();
        assert_eq!(tape.root().get("k").unwrap().as_i64(), Some(2));
        assert_eq!(tape.root().members().unwrap().count(), 3);
    }

    /// `i64::MAX as f64` is 2^63, which no `i64` holds: the integer view
    /// ends below it, on the owned tree and on the tape alike. Both read a
    /// number through its `f64`, as every encoder writes it.
    #[test]
    fn integer_view_reads_the_f64_and_refuses_2_pow_63() {
        let view = |doc: &str| {
            let owned = Json::parse(doc).unwrap().as_i64();
            (owned, Tape::parse(doc).unwrap().root().as_i64())
        };
        assert_eq!(view("9223372036854775808"), (None, None));
        assert_eq!(view("-9223372036854777856"), (None, None)); // -2^63 - 2^11
        assert_eq!(view("9.223372036854775808e18"), (None, None));
        assert_eq!(
            view("-9223372036854775808"),
            (Some(i64::MIN), Some(i64::MIN))
        );
        assert_eq!(view("9223372036854775807"), (None, None)); // 2^63 as f64
        assert_eq!(
            view("9223372036854774784"),
            (Some(i64::MAX - 1023), Some(i64::MAX - 1023))
        );
        // 2^53 + 1: the f64 rounds it to 2^53, on both.
        let two_53 = Some(9_007_199_254_740_992);
        assert_eq!(view("9007199254740993"), (two_53, two_53));
        assert_eq!(view("1e3"), (Some(1000), Some(1000)));
        assert_eq!(view("1.5"), (None, None));
        assert_eq!(Tape::parse("-0").unwrap().root().to_json(), Json::num(-0.0));
        assert!(Json::num(-0.0).as_f64().unwrap().is_sign_negative());
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
}
