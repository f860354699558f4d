//! The wire protocol, as a type: every frame either end sends is a
//! [`Request`] or a [`Reply`], each frame kind has one encoder and one
//! decoder, side by side in this file, and no other file of the server or
//! of the harnesses names a field. Below them sit the JSON codecs of the
//! model types, shared with the front-end store and the trace exports.
//!
//! ## Grammar (one JSON object per frame, keys sorted)
//!
//! ```text
//! client → server   {"type":"hello","collection":"name"?}
//!                   {"type":"resume","worker":n,"from":n,"have":[n,...],
//!                    "collection":"name"?}
//!                   {"type":"submit","auto":bool,"msg":{...},
//!                    "speculative":true?,"trace":"hex"?}   ("auto" is
//!                    honoured for the upvote of the row the sender's last
//!                    fill completed, and ignored on anything else)
//!                   {"type":"modify","msgs":[{"auto":bool,"msg":{...}},...],
//!                    "trace":"hex"?}
//!                   {"type":"sync","from":n,"have":[n,...]}
//!                   {"type":"sync","reset":true}  (a full resync: answered
//!                    with a reset whatever the horizon)
//!                   {"type":"stats"}
//!                   {"type":"health"}
//!                   {"type":"trace_dump"}
//!                   {"type":"bye"}
//! server → client   {"type":"welcome","worker":n,"client":n,"history_len":n,
//!                    "collection":"name","schema":{...},"history":BOOTSTRAP}
//!                   {"type":"resumed","client":n,"collection":"name",
//!                    "history_len":n, CATCH-UP}
//!                   {"type":"synced","history_len":n, CATCH-UP}
//!                   {"type":"ack","estimate":x,"fulfilled":bool,
//!                    "seqs":[n,...],"trace":"hex"?}
//!                   {"type":"reject","reason":"...","trace":"hex"?}
//!                   {"type":"overloaded","retry_after_ms":n,"trace":"hex"?}
//!                   {"type":"lagging"}  (catch up via sync; broadcasts dropped)
//!                   {"type":"stats","snapshot":"..."}  (metrics text)
//!                   {"type":"health","report":{...}}  (see DESIGN.md §11)
//!                   {"type":"trace_dump","events":"..."}  (JSON lines)
//!                   {"type":"msg", ENTRY}  (broadcast)
//!                   {"type":"batch","msgs":[{ENTRY},...]}  (broadcast)
//! ENTRY             "seq":n,"msg":{...},"trace":"hex"?
//! CATCH-UP          "msgs":[{ENTRY},...]           (the missing suffix)
//!                 | "reset":true,"history":BOOTSTRAP
//! BOOTSTRAP         {"image":IMAGE,"log":[msg,...]}  (image at seq S, log[S..))
//! IMAGE             {"dh":[[i,n],...],"rows":[[c,s,i],...],
//!                    "types":[type,...],"uh":[[i,n],...],
//!                    "values":[[cell|null,...],...]}
//! ```
//!
//! An IMAGE is a table. `types` names the schema's column types once, in
//! column order (`"text"`, `"int"`, `"float"`, `"bool"`, `"date"`). It
//! writes each distinct row value once, in `values`, ascending in
//! `RowValue`'s order, as an array by column index: a cell is a bare
//! payload of its column's type (a string, a number or a boolean, a date
//! as `"YYYY-MM-DD"`), an empty cell is `null`, and no value is wider than
//! `types` or ends in a `null` (the empty value is `[]`). A live row
//! (`rows`, ascending by id) is `[client, seq, i]`, and a vote count of
//! either history (`uh`, `dh`, ascending by index) is `[i, n]`: both name
//! a value by its index `i`. A count `n` is a 32-bit integer. A message
//! spells a cell `{"t":type,"v":payload}`, the same payload.
//!
//! ## What is malformed
//!
//! A decoder returns a value or a [`WireError`], and what an error costs is
//! the receiver's call (a server drops a connection whose first frame fails
//! and answers `reject` inside a session; a client reports a protocol
//! error). A request is read leniently where a hand-written client may be
//! brief — `auto`, `speculative`, `from`, `have` and `collection` default
//! when absent, and a `have` entry that is no seq is skipped — and a reply
//! strictly: the server sends every field, always. `"trace"` is read only
//! while tracing is on. A number that names a client, a worker or a
//! column must fit its id: `"c":4294967297` is malformed, never client 1.
//!
//! The decoders are generic over [`JsonNode`], a `Copy` handle: both ends
//! of the socket and recovery decode a frame's [`Tape`] (one parse per
//! frame, O(1) allocations), the stores decode owned [`Json`] — one
//! function body either way, so every replica reads the same message out
//! of the same bytes. A whole frame decodes from a [`JsonDoc`], the
//! document whose root is the handle.

use crate::health::HealthReport;
use crowdfill_docstore::{
    write_json, ArrayWriter, Json, JsonDoc, JsonNode, JsonWriter, ObjectWriter, Tape,
};
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Date, Entry, Message, Predicate, RowId, RowValue, Schema,
    Template, TemplateRow, Value,
};
use crowdfill_obs::trace::{self as obstrace, TraceId};
use crowdfill_pay::WorkerId;
use crowdfill_sync::{Replica, VoteHistory};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Codec errors: malformed or out-of-vocabulary wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

fn field<'t, J: JsonNode<'t>>(j: J, name: &str) -> Result<J> {
    j.get(name)
        .ok_or_else(|| WireError::new(format!("missing field {name:?}")))
}

/// Field `name` read as a `T`, which the error calls `what`.
fn typed<'t, J: JsonNode<'t>, T>(
    j: J,
    name: &str,
    what: &str,
    read: impl FnOnce(J) -> Option<T>,
) -> Result<T> {
    read(field(j, name)?).ok_or_else(|| WireError::new(format!("field {name:?} must be {what}")))
}

fn str_field<'t, J: JsonNode<'t>>(j: J, name: &str) -> Result<&'t str> {
    typed(j, name, "a string", J::as_str)
}

/// A seq, an id or a count: an integer in `0..2^63`.
fn u64_of<'t, J: JsonNode<'t>>(v: J) -> Option<u64> {
    u64::try_from(v.as_i64()?).ok()
}

fn u64_field<'t, J: JsonNode<'t>>(j: J, name: &str) -> Result<u64> {
    typed(j, name, "a non-negative integer", u64_of)
}

fn u32_field<'t, J: JsonNode<'t>>(j: J, name: &str) -> Result<u32> {
    typed(j, name, "a 32-bit id", |v| u32::try_from(v.as_i64()?).ok())
}

fn column_field<'t, J: JsonNode<'t>>(j: J, name: &str) -> Result<ColumnId> {
    typed(j, name, "a 16-bit column", |v| {
        u16::try_from(v.as_i64()?).ok()
    })
    .map(ColumnId)
}

fn arr_field<'t, J: JsonNode<'t>>(
    j: J,
    name: &str,
) -> Result<impl ExactSizeIterator<Item = J> + use<'t, J>> {
    typed(j, name, "an array", J::items)
}

/// An optional boolean of a request: absent (or not a boolean) is `false`.
fn flag<'t, J: JsonNode<'t>>(j: J, name: &str) -> bool {
    j.get(name).and_then(J::as_bool).unwrap_or(false)
}

// ---- Value ----------------------------------------------------------------

/// A cell's payload, bare: a text or a date as a string, an int or a float
/// as a number, a bool as a boolean. The one payload codec — a message's
/// cell `{"t":type,"v":payload}` and an image's positional cell both write
/// it, and its type comes from the cell or from the image's `types`.
fn write_payload(w: JsonWriter<'_>, v: &Value) {
    match v {
        Value::Text(s) => w.str(s.as_str()),
        Value::Int(i) => w.int(*i),
        Value::Float(f) => w.num(f.get()),
        Value::Bool(b) => w.bool(*b),
        Value::Date(d) => w.str_display(d),
    }
}

/// A payload as a tree, for the cold documents and the tree oracle: the
/// parse of what [`write_payload`] writes, so a payload has one codec.
fn payload_to_json(v: &Value) -> Json {
    Json::parse(&write_json(24, |w| write_payload(w, v))).expect("a payload is JSON")
}

/// Reads a payload as a value of type `t`, refusing a JSON kind the type
/// does not admit: an integral number is a float where `t` says float.
fn payload_from_json<'t, J: JsonNode<'t>>(t: DataType, v: J) -> Result<Value> {
    let (value, what) = match t {
        DataType::Text => (v.as_str().map(Value::text), "a string"),
        DataType::Int => (v.as_i64().map(Value::Int), "integral"),
        DataType::Float => (v.as_f64().and_then(Value::try_float), "finite"),
        DataType::Bool => (v.as_bool().map(Value::Bool), "a boolean"),
        DataType::Date => (
            v.as_str().and_then(Date::parse).map(Value::Date),
            "YYYY-MM-DD",
        ),
    };
    value.ok_or_else(|| WireError::new(format!("{t} value must be {what}")))
}

fn data_type_from_name(name: &str) -> Result<DataType> {
    DataType::from_name(name).ok_or_else(|| WireError::new(format!("unknown data type {name:?}")))
}

/// A message's cell, `{"t":type,"v":payload}`.
pub(crate) fn write_value(w: JsonWriter<'_>, v: &Value) {
    w.obj(|o| {
        o.key("t").str(v.data_type().name());
        write_payload(o.key("v"), v);
    });
}

/// The tree of [`write_value`], for the cold documents (a schema's
/// domains, a template's predicates) and the tree oracle.
pub fn value_to_json(v: &Value) -> Json {
    let t = Json::str(v.data_type().name());
    Json::obj([("t", t), ("v", payload_to_json(v))])
}

pub fn value_from_json<'t, J: JsonNode<'t>>(j: J) -> Result<Value> {
    payload_from_json(data_type_from_name(str_field(j, "t")?)?, field(j, "v")?)
}

// ---- RowId / RowValue -----------------------------------------------------

pub(crate) fn write_row_id(w: JsonWriter<'_>, id: RowId) {
    w.obj(|o| {
        o.key("c").uint(id.client.0.into());
        o.key("s").uint(id.seq);
    });
}

pub fn row_id_to_json(id: RowId) -> Json {
    Json::obj([
        ("c", Json::num(id.client.0 as f64)),
        ("s", Json::num(id.seq as f64)),
    ])
}

pub fn row_id_from_json<'t, J: JsonNode<'t>>(j: J) -> Result<RowId> {
    Ok(RowId::new(ClientId(u32_field(j, "c")?), u64_field(j, "s")?))
}

pub(crate) fn write_row_value(w: JsonWriter<'_>, rv: &RowValue) {
    w.arr(|a| {
        for (col, v) in rv.iter() {
            a.item().obj(|o| {
                o.key("col").uint(col.0.into());
                write_value(o.key("val"), v);
            });
        }
    });
}

pub fn row_value_to_json(rv: &RowValue) -> Json {
    Json::Arr(
        rv.iter()
            .map(|(col, v)| {
                Json::obj([("col", Json::num(col.0 as f64)), ("val", value_to_json(v))])
            })
            .collect(),
    )
}

pub fn row_value_from_json<'t, J: JsonNode<'t>>(j: J) -> Result<RowValue> {
    let arr = j
        .items()
        .ok_or_else(|| WireError::new("row value must be an array"))?;
    let mut pairs = Vec::with_capacity(arr.len());
    for item in arr {
        let col = column_field(item, "col")?;
        let val = value_from_json(field(item, "val")?)?;
        pairs.push((col, val));
    }
    Ok(RowValue::from_pairs(pairs))
}

// ---- Message ----------------------------------------------------------------

/// A message, the `msg` of every frame and journal record that carries
/// one (DESIGN.md §12).
pub(crate) fn write_message(w: JsonWriter<'_>, m: &Message) {
    fn vote(o: &mut ObjectWriter<'_, '_>, kind: &str, value: &RowValue) {
        o.key("kind").str(kind);
        write_row_value(o.key("value"), value);
    }
    w.obj(|o| match m {
        Message::Insert { row } => {
            o.key("kind").str("insert");
            write_row_id(o.key("row"), *row);
        }
        Message::Replace { old, new, value } => {
            o.key("kind").str("replace");
            write_row_id(o.key("new"), *new);
            write_row_id(o.key("old"), *old);
            write_row_value(o.key("value"), value);
        }
        Message::Upvote { value } => vote(o, "upvote", value),
        Message::Downvote { value } => vote(o, "downvote", value),
        Message::UndoUpvote { value } => vote(o, "undo_upvote", value),
        Message::UndoDownvote { value } => vote(o, "undo_downvote", value),
    });
}

/// About how many bytes `m` writes to: a capacity, not a bound — a cell
/// of a long text costs the buffer one doubling.
pub(crate) fn message_capacity(m: &Message) -> usize {
    const CELL: usize = 64;
    match m {
        Message::Insert { .. } => 64,
        Message::Replace { value, .. } => 128 + CELL * value.len(),
        Message::Upvote { value }
        | Message::Downvote { value }
        | Message::UndoUpvote { value }
        | Message::UndoDownvote { value } => 48 + CELL * value.len(),
    }
}

/// The tree of a message: what no product path writes, kept as the oracle
/// the writer is proven byte-identical against (`tests/wire_props.rs`)
/// and for the benchmark's replay, which times it.
pub fn message_to_json(m: &Message) -> Json {
    let vote = |kind, v| Json::obj([("kind", Json::str(kind)), ("value", row_value_to_json(v))]);
    match m {
        Message::Insert { row } => {
            Json::obj([("kind", Json::str("insert")), ("row", row_id_to_json(*row))])
        }
        Message::Replace { old, new, value } => Json::obj([
            ("kind", Json::str("replace")),
            ("old", row_id_to_json(*old)),
            ("new", row_id_to_json(*new)),
            ("value", row_value_to_json(value)),
        ]),
        Message::Upvote { value } => vote("upvote", value),
        Message::Downvote { value } => vote("downvote", value),
        Message::UndoUpvote { value } => vote("undo_upvote", value),
        Message::UndoDownvote { value } => vote("undo_downvote", value),
    }
}

pub fn message_from_json<'t, J: JsonNode<'t>>(j: J) -> Result<Message> {
    let value = || row_value_from_json(field(j, "value")?);
    match str_field(j, "kind")? {
        "insert" => Ok(Message::Insert {
            row: row_id_from_json(field(j, "row")?)?,
        }),
        "replace" => Ok(Message::Replace {
            old: row_id_from_json(field(j, "old")?)?,
            new: row_id_from_json(field(j, "new")?)?,
            value: value()?,
        }),
        "upvote" => Ok(Message::Upvote { value: value()? }),
        "downvote" => Ok(Message::Downvote { value: value()? }),
        "undo_upvote" => Ok(Message::UndoUpvote { value: value()? }),
        "undo_downvote" => Ok(Message::UndoDownvote { value: value()? }),
        other => Err(WireError::new(format!("unknown message kind {other:?}"))),
    }
}

// `crates/e2e/src/replay.rs` calls the decoder under its old borrowed-twin
// name and only a benchmark PR may edit that crate; the next one deletes
// this alias.
pub use self::message_from_json as message_from_json_ref;

/// A frame's or broadcast entry's trace context: an optional `"trace"`
/// field carrying the id in hex. Only consulted when tracing is on, so the
/// disabled path pays one branch.
fn trace_id_from_json<'t, J: JsonNode<'t>>(j: J) -> TraceId {
    if !obstrace::enabled() {
        return TraceId::NONE;
    }
    j.get("trace")
        .and_then(J::as_str)
        .and_then(TraceId::from_hex)
        .unwrap_or(TraceId::NONE)
}

// ---- Frames -----------------------------------------------------------------

/// A traced frame's or entry's `"trace"` member, its 16 hex digits written
/// in place; an untraced one has none.
fn write_trace(o: &mut ObjectWriter<'_, '_>, trace: TraceId) {
    if !trace.is_none() {
        o.key("trace").hex(trace.0);
    }
}

/// Parses one received frame into its tape, borrowed. Bytes that are not
/// UTF-8 are malformed exactly like text that is not JSON: nothing either
/// end applies, journals or broadcasts is a rewrite of what it was sent.
pub fn parse_frame(frame: &[u8]) -> Result<Tape<'_>> {
    let text = std::str::from_utf8(frame).map_err(|e| WireError::new(e.to_string()))?;
    Tape::parse(text).map_err(|e| WireError::new(e.to_string()))
}

/// Where a replica stands in the server's history, as a `resume` or `sync`
/// request says it: every seq below `from` applied, and the sparse `have`
/// above it. The default asks for the whole history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cursor {
    pub from: u64,
    pub have: BTreeSet<u64>,
}

impl Cursor {
    /// Writes the cursor's `from` and `have` members.
    fn write(&self, o: &mut ObjectWriter<'_, '_>) {
        o.key("from").uint(self.from);
        o.key("have")
            .arr(|a| self.have.iter().for_each(|s| a.item().uint(*s)));
    }

    fn decode<'t, J: JsonNode<'t>>(j: J) -> Cursor {
        let have = j.get("have").and_then(J::items).into_iter().flatten();
        Cursor {
            from: j.get("from").and_then(u64_of).unwrap_or(0),
            have: have.filter_map(u64_of).collect(),
        }
    }
}

/// One message a client submits and its `auto` flag: the body of a
/// `submit`, an element of a `modify`.
pub type Op = (Message, bool);

/// Writes an op's `auto` and `msg` members.
fn write_op(o: &mut ObjectWriter<'_, '_>, (msg, auto): &Op) {
    o.key("auto").bool(*auto);
    write_message(o.key("msg"), msg);
}

fn op_from_json<'t, J: JsonNode<'t>>(j: J) -> Result<Op> {
    Ok((message_from_json(field(j, "msg")?)?, flag(j, "auto")))
}

/// A frame a client sends. A collection is `None` for the server's default
/// one; a [`TraceId`] is the id of a traced op.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a session on the collection.
    Hello(Option<String>),
    /// Re-attaches the worker's session, from its cursor, on a fresh
    /// connection; worker ids are per collection, so it names its own.
    Resume(WorkerId, Cursor, Option<String>),
    /// One op. The flag marks it speculative: the first traffic the server
    /// may turn away under load.
    Submit(Op, bool, TraceId),
    /// The bundle of a composite modify action, in one frame so the server
    /// can authorize its insert.
    Modify(Vec<Op>, TraceId),
    /// Asks for what the cursor is missing.
    Sync(Cursor),
    /// Asks for a reset: the bootstrap to replace a diverged replica with.
    Resync,
    Stats,
    Health,
    TraceDump,
    /// Releases the session; not answered.
    Bye,
}

impl Request {
    /// The trace id of a `submit` or a `modify`.
    pub fn trace(&self) -> TraceId {
        match self {
            Request::Submit(.., trace) | Request::Modify(_, trace) => *trace,
            _ => TraceId::NONE,
        }
    }

    pub fn encode(&self) -> String {
        write_json(self.capacity(), |w| w.obj(|o| self.write(o)))
    }

    fn write(&self, o: &mut ObjectWriter<'_, '_>) {
        let collection = |o: &mut ObjectWriter<'_, '_>, c: &Option<String>| {
            if let Some(c) = c {
                o.key("collection").str(c);
            }
        };
        match self {
            Request::Hello(c) => {
                collection(o, c);
                o.key("type").str("hello");
            }
            Request::Resume(worker, cursor, c) => {
                collection(o, c);
                cursor.write(o);
                o.key("type").str("resume");
                o.key("worker").uint(worker.0.into());
            }
            Request::Submit(op, speculative, trace) => {
                write_op(o, op);
                if *speculative {
                    o.key("speculative").bool(true);
                }
                write_trace(o, *trace);
                o.key("type").str("submit");
            }
            Request::Modify(bundle, trace) => {
                o.key("msgs").arr(|a| {
                    for op in bundle {
                        a.item().obj(|o| write_op(o, op));
                    }
                });
                write_trace(o, *trace);
                o.key("type").str("modify");
            }
            Request::Sync(cursor) => {
                cursor.write(o);
                o.key("type").str("sync");
            }
            Request::Resync => {
                o.key("reset").bool(true);
                o.key("type").str("sync");
            }
            Request::Stats => o.key("type").str("stats"),
            Request::Health => o.key("type").str("health"),
            Request::TraceDump => o.key("type").str("trace_dump"),
            Request::Bye => o.key("type").str("bye"),
        }
    }

    /// About how many bytes the frame writes to.
    fn capacity(&self) -> usize {
        let named = |c: &Option<String>| c.as_ref().map_or(0, String::len);
        match self {
            Request::Hello(c) => 48 + named(c),
            Request::Resume(_, cursor, c) => 96 + named(c) + 20 * cursor.have.len(),
            Request::Submit((msg, _), ..) => 96 + message_capacity(msg),
            Request::Modify(bundle, _) => {
                let op = |(msg, _): &Op| 24 + message_capacity(msg);
                64 + bundle.iter().map(op).sum::<usize>()
            }
            Request::Sync(cursor) => 64 + 20 * cursor.have.len(),
            _ => 48,
        }
    }

    pub fn decode<D: JsonDoc>(doc: &D) -> Result<Request> {
        let j = doc.root();
        let collection = j.get("collection").and_then(JsonNode::as_str);
        let collection = collection.map(str::to_string);
        let trace = trace_id_from_json(j);
        Ok(match str_field(j, "type")? {
            "hello" => Request::Hello(collection),
            "resume" => Request::Resume(
                WorkerId(u32_field(j, "worker")?),
                Cursor::decode(j),
                collection,
            ),
            "submit" => Request::Submit(op_from_json(j)?, flag(j, "speculative"), trace),
            "modify" => {
                let bundle = arr_field(j, "msgs")?.map(op_from_json);
                Request::Modify(bundle.collect::<Result<_>>()?, trace)
            }
            "sync" if flag(j, "reset") => Request::Resync,
            "sync" => Request::Sync(Cursor::decode(j)),
            "stats" => Request::Stats,
            "health" => Request::Health,
            "trace_dump" => Request::TraceDump,
            "bye" => Request::Bye,
            other => return Err(WireError::new(format!("unknown request type {other:?}"))),
        })
    }
}

/// One seq-tagged log entry, the ENTRY of the grammar: a whole `msg`
/// broadcast, or an element of a `msgs` array. `trace` is the originating
/// op's id when it was traced, so the receiver can attribute absorb
/// latency.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqMsg {
    pub seq: u64,
    pub msg: Message,
    pub trace: TraceId,
}

/// Writes an ENTRY's members: `msg`, `seq` and, if traced, `trace`.
fn write_entry(o: &mut ObjectWriter<'_, '_>, seq: u64, msg: &Message, trace: TraceId) {
    write_message(o.key("msg"), msg);
    o.key("seq").uint(seq);
    write_trace(o, trace);
}

/// Writes the `msgs` array of ENTRYs.
fn write_entries<'m>(
    a: &mut ArrayWriter<'_>,
    entries: impl Iterator<Item = (u64, &'m Message, TraceId)>,
) {
    for (seq, msg, trace) in entries {
        a.item().obj(|o| write_entry(o, seq, msg, trace));
    }
}

fn entry_from_json<'t, J: JsonNode<'t>>(j: J) -> Result<SeqMsg> {
    Ok(SeqMsg {
        seq: u64_field(j, "seq")?,
        msg: message_from_json(field(j, "msg")?)?,
        trace: trace_id_from_json(j),
    })
}

// ---- Table image ------------------------------------------------------------

/// A replica's state as one table, the IMAGE of the grammar (DESIGN.md
/// §14.3): its schema's column types, its live rows and both vote
/// histories, each distinct row value written once — positionally, its
/// cells bare — and named by its index. It is the body of a bootstrap and
/// the table of a checkpoint; [`replica`](Self::replica) turns it back into
/// the replica it images.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableImage {
    /// The column types, by column index: what a value's cells are read as.
    pub types: Vec<DataType>,
    /// Each distinct row value, ascending.
    pub values: Vec<RowValue>,
    /// The live rows, ascending by id, each with its value's index.
    pub rows: Vec<(RowId, u32)>,
    /// The upvote history as (value index, count), ascending by index.
    pub uh: Vec<(u32, u32)>,
    /// The downvote history, likewise.
    pub dh: Vec<(u32, u32)>,
}

impl TableImage {
    /// The image of `replica`.
    pub fn of(replica: &Replica) -> TableImage {
        let mut values: Vec<&RowValue> = replica.table().iter().map(|(_, e)| &e.value).collect();
        let (uh, dh) = (replica.upvote_history(), replica.downvote_history());
        values.extend(uh.iter().chain(dh.iter()).map(|(v, _)| v));
        values.sort_unstable();
        values.dedup();
        let index = |v: &RowValue| values.binary_search(&v).expect("an imaged value") as u32;
        let votes = |history: &VoteHistory| {
            let mut votes: Vec<(u32, u32)> = history.iter().map(|(v, n)| (index(v), n)).collect();
            votes.sort_unstable();
            votes
        };
        TableImage {
            types: (replica.schema().columns().iter())
                .map(Column::data_type)
                .collect(),
            rows: replica
                .table()
                .iter()
                .map(|(id, e)| (id, index(&e.value)))
                .collect(),
            uh: votes(uh),
            dh: votes(dh),
            values: values.into_iter().cloned().collect(),
        }
    }

    /// Whether the image's `types` are `schema`'s: what a client and
    /// recovery check before they build a replica of it.
    pub fn fits(&self, schema: &Schema) -> bool {
        let types = schema.columns().iter().map(Column::data_type);
        self.types.iter().copied().eq(types)
    }

    /// Values, rows and vote entries: what the image costs to send.
    pub fn entries(&self) -> usize {
        self.values.len() + self.rows.len() + self.uh.len() + self.dh.len()
    }

    /// The replica this is an image of, owned by `client` and minting row
    /// ids from `next_seq`: `Replica::restore`, which derives every row's
    /// counts from the histories (Lemma 3).
    pub fn replica(&self, client: ClientId, schema: Arc<Schema>, next_seq: u64) -> Replica {
        let value = |i: u32| self.values[i as usize].clone();
        let uh = self.uh.iter().map(|&(i, n)| (value(i), n));
        let dh = self.dh.iter().map(|&(i, n)| (value(i), n));
        let rows = self.rows.iter().map(|&(id, i)| (id, value(i)));
        Replica::restore(client, schema, next_seq, uh, dh, rows)
    }

    /// The image as messages that rebuild its replica on an empty one:
    /// every vote, repeated as often as it was cast, then each live row —
    /// an `insert` if it is empty, else a self-`replace` — whose counts
    /// the replace derives from the histories (Lemma 3).
    pub fn to_messages(&self) -> Vec<Message> {
        let value = |i: u32| self.values[i as usize].clone();
        let mut msgs = Vec::new();
        for &(i, n) in &self.uh {
            let value = value(i);
            msgs.extend(std::iter::repeat_n(Message::Upvote { value }, n as usize));
        }
        for &(i, n) in &self.dh {
            let value = value(i);
            msgs.extend(std::iter::repeat_n(Message::Downvote { value }, n as usize));
        }
        msgs.extend(self.rows.iter().map(|&(id, i)| match value(i) {
            value if value.is_empty() => Message::Insert { row: id },
            value => Message::Replace {
                old: id,
                new: id,
                value,
            },
        }));
        msgs
    }

    /// The image's one encoder, the IMAGE of the grammar.
    pub fn write(&self, w: JsonWriter<'_>) {
        let votes = |w: JsonWriter<'_>, votes: &[(u32, u32)]| {
            w.arr(|a| {
                for &(i, n) in votes {
                    a.item().arr(|vote| {
                        vote.item().uint(i.into());
                        vote.item().uint(n.into());
                    });
                }
            });
        };
        let value = |w: JsonWriter<'_>, v: &RowValue| {
            w.arr(|cells| {
                let mut next = 0;
                for (col, v) in v.iter() {
                    (next..col.index()).for_each(|_| cells.item().null());
                    write_payload(cells.item(), v);
                    next = col.index() + 1;
                }
            });
        };
        w.obj(|o| {
            votes(o.key("dh"), &self.dh);
            o.key("rows").arr(|a| {
                for &(id, i) in &self.rows {
                    a.item().arr(|row| {
                        row.item().uint(id.client.0.into());
                        row.item().uint(id.seq);
                        row.item().uint(i.into());
                    });
                }
            });
            o.key("types")
                .arr(|a| self.types.iter().for_each(|t| a.item().str(t.name())));
            votes(o.key("uh"), &self.uh);
            o.key("values")
                .arr(|a| self.values.iter().for_each(|v| value(a.item(), v)));
        });
    }

    /// About how many bytes the image writes to.
    pub(crate) fn capacity(&self) -> usize {
        let cells: usize = self.values.iter().map(RowValue::len).sum();
        64 + 8 * self.types.len()
            + 4 * self.values.len()
            + 24 * cells
            + 32 * self.rows.len()
            + 24 * (self.uh.len() + self.dh.len())
    }

    /// The image's one decoder. Refuses, rather than trusts, a type it
    /// does not know, a cell whose JSON kind its column's type does not
    /// admit, a value wider than `types` or ending in `null`, an index
    /// with no value, a row id out of range or not above the one before
    /// it, and a count that is no 32-bit integer — so what it yields is an
    /// image [`replica`](Self::replica) can build.
    pub fn from_json<'t, J: JsonNode<'t>>(j: J) -> Result<TableImage> {
        let types = arr_field(j, "types")?.map(|t| {
            let name = t
                .as_str()
                .ok_or_else(|| WireError::new("a type must be a string"))?;
            data_type_from_name(name)
        });
        let types = types.collect::<Result<Vec<_>>>()?;
        if types.len() > usize::from(u16::MAX) {
            return Err(WireError::new("more types than column ids"));
        }
        let value = |v: J| {
            let cells = v
                .items()
                .ok_or_else(|| WireError::new("an image value must be an array"))?;
            if cells.len() > types.len() {
                return Err(WireError::new("a value wider than \"types\""));
            }
            let mut pairs = Vec::with_capacity(cells.len());
            let mut null_last = false;
            for (col, (cell, &t)) in cells.zip(&types).enumerate() {
                null_last = cell.is_null();
                if !null_last {
                    pairs.push((ColumnId(col as u16), payload_from_json(t, cell)?));
                }
            }
            if null_last {
                return Err(WireError::new("a value must not end in null"));
            }
            Ok(RowValue::from_pairs(pairs))
        };
        let values = arr_field(j, "values")?.map(value);
        let values = values.collect::<Result<Vec<_>>>()?;
        let index = |i: J| {
            let i = u32::try_from(i.as_i64()?).ok()?;
            ((i as usize) < values.len()).then_some(i)
        };
        let count = |n: J| u32::try_from(n.as_i64()?).ok();
        let votes = |name: &str| {
            let vote = |v: J| Some((index(v.at(0)?)?, count(v.at(1)?)?));
            let votes = arr_field(j, name)?.map(vote);
            votes.collect::<Option<Vec<_>>>().ok_or_else(|| {
                WireError::new(format!(
                    "{name:?} must hold [value index, 32-bit count] pairs"
                ))
            })
        };
        let (uh, dh) = (votes("uh")?, votes("dh")?);
        let rows = arr_field(j, "rows")?;
        let mut rows_read: Vec<(RowId, u32)> = Vec::with_capacity(rows.len());
        for row in rows {
            let read = || {
                let client = u32::try_from(row.at(0)?.as_i64()?).ok()?;
                let id = RowId::new(ClientId(client), u64_of(row.at(1)?)?);
                Some((id, index(row.at(2)?)?))
            };
            let row = read()
                .ok_or_else(|| WireError::new("a row must be [32-bit client, seq, value index]"))?;
            if rows_read.last().is_some_and(|(last, _)| *last >= row.0) {
                return Err(WireError::new("row ids must be distinct and ascending"));
            }
            rows_read.push(row);
        }
        Ok(TableImage {
            types,
            values,
            rows: rows_read,
            uh,
            dh,
        })
    }
}

/// A bootstrap, the BOOTSTRAP of the grammar (DESIGN.md §14.3): what a
/// joiner or a reset replica starts from — a table image at some seq and
/// the log since — and *not* the history, so nothing in it is a cursor.
#[derive(Debug, Clone, PartialEq)]
pub enum Image<'a> {
    /// The member as the JSON text `Backend::bootstrap_text` caches:
    /// spliced into the frame as it is, no tree built of it.
    Text(Cow<'a, str>),
    /// The member decoded, which is what a decoder yields: the image,
    /// boxed to keep a [`Reply`] small, and the log.
    Table(Box<TableImage>, Vec<Message>),
}

impl Image<'_> {
    fn write(&self, w: JsonWriter<'_>) {
        match self {
            Image::Text(text) => w.raw(text),
            Image::Table(image, log) => write_bootstrap(w, image, log),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Image::Text(text) => text.len(),
            Image::Table(image, log) => {
                image.capacity() + log.iter().map(message_capacity).sum::<usize>()
            }
        }
    }

    fn decode<'t, J: JsonNode<'t>>(j: J) -> Result<Image<'static>> {
        let image = Box::new(TableImage::from_json(field(j, "image")?)?);
        let log = arr_field(j, "log")?.map(message_from_json);
        Ok(Image::Table(image, log.collect::<Result<_>>()?))
    }
}

/// The BOOTSTRAP of `image` and `log`.
fn write_bootstrap(w: JsonWriter<'_>, image: &TableImage, log: &[Message]) {
    w.obj(|o| {
        image.write(o.key("image"));
        o.key("log")
            .arr(|a| log.iter().for_each(|m| write_message(a.item(), m)));
    });
}

/// A bootstrap's text, the BOOTSTRAP's one encoder: the image written
/// once, then the log appended a message at a time — so the backend's
/// cache encodes for a join only what no earlier join has.
#[derive(Debug, Clone)]
pub struct BootstrapText {
    text: String,
    logged: usize,
}

impl BootstrapText {
    /// The text of `image` with an empty log.
    pub fn new(image: &TableImage) -> BootstrapText {
        let text = write_json(image.capacity(), |w| write_bootstrap(w, image, &[]));
        BootstrapText { text, logged: 0 }
    }

    /// Appends `msg` to the log.
    pub fn push(&mut self, msg: &Message) {
        self.text.truncate(self.text.len() - "]}".len());
        if self.logged > 0 {
            self.text.push(',');
        }
        write_message(JsonWriter::new(&mut self.text), msg);
        self.text.push_str("]}");
        self.logged += 1;
    }

    /// How many log messages the text holds.
    pub fn logged(&self) -> usize {
        self.logged
    }

    pub fn as_str(&self) -> &str {
        &self.text
    }
}

/// What brings a `resume` or `sync` cursor up to date: the CATCH-UP of
/// the grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum CatchUp<'a> {
    /// The history entries the cursor was missing.
    Suffix(Vec<(u64, Message)>),
    /// The cursor predates the server's compaction horizon — the log below
    /// it is gone — so the reply degrades to a deterministic full reset:
    /// the bootstrap a joiner would get, from which the client rebuilds
    /// its replica and restarts its cursor at `history_len`.
    Image(Image<'a>),
}

impl CatchUp<'_> {
    /// Writes the members of a reply from `history` to `reset`: the
    /// catch-up around its `history_len`.
    fn write(&self, o: &mut ObjectWriter<'_, '_>, history_len: u64) {
        if let CatchUp::Image(image) = self {
            image.write(o.key("history"));
        }
        o.key("history_len").uint(history_len);
        match self {
            CatchUp::Suffix(msgs) => {
                let entries = msgs.iter().map(|(seq, m)| (*seq, m, TraceId::NONE));
                o.key("msgs").arr(|a| write_entries(a, entries));
            }
            CatchUp::Image(_) => o.key("reset").bool(true),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            CatchUp::Suffix(msgs) => msgs.iter().map(|(_, m)| 40 + message_capacity(m)).sum(),
            CatchUp::Image(image) => image.capacity(),
        }
    }

    fn decode<'t, J: JsonNode<'t>>(j: J) -> Result<CatchUp<'static>> {
        if flag(j, "reset") {
            return Ok(CatchUp::Image(Image::decode(field(j, "history")?)?));
        }
        let entry = |e| entry_from_json(e).map(|e| (e.seq, e.msg));
        let msgs = arr_field(j, "msgs")?.map(entry);
        Ok(CatchUp::Suffix(msgs.collect::<Result<_>>()?))
    }
}

/// A frame the server sends. A `u64` beside a catch-up or an image is
/// `history_len`, the server's watermark: where the receiver's cursor
/// stands once it has applied the frame. A [`TraceId`] echoes the request's.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<'a> {
    /// Answers `hello`: the collection, the session's worker and client
    /// ids, `history_len`, the schema, and the image that stands in for
    /// the history below `history_len`.
    Welcome(String, WorkerId, ClientId, u64, Arc<Schema>, Image<'a>),
    /// Answers `resume`: the collection, the session's client id,
    /// `history_len`, and the way there.
    Resumed(String, ClientId, u64, CatchUp<'a>),
    /// Answers `sync`: `history_len`, and the way there.
    Synced(u64, CatchUp<'a>),
    /// The submission was applied: the sender's estimated compensation,
    /// whether the table is now fulfilled, and the history seqs of its own
    /// messages, which it never gets back as broadcasts.
    Ack(f64, bool, Vec<u64>, TraceId),
    /// The request, or the handshake, was refused, and why.
    Reject(String, TraceId),
    /// The op was neither applied nor acked: retry after this many ms.
    Overloaded(u64, TraceId),
    /// Broadcasts to this session are being dropped; catch up via `sync`.
    Lagging,
    /// The metrics snapshot, Prometheus-style text.
    Stats(String),
    Health(Box<HealthReport>),
    /// The flight recorder's contents, as JSON lines.
    TraceDump(String),
    /// A broadcast of one message.
    Msg(SeqMsg),
    /// The broadcasts of one batch in one frame. Clients unpack it entry by
    /// entry into the seq-dedup path of `msg`, so a batch boundary is
    /// invisible to the convergence argument.
    Batch(Vec<SeqMsg>),
}

impl Reply<'_> {
    /// A `reject` outside any traced op.
    pub fn reject(reason: impl ToString) -> Reply<'static> {
        Reply::Reject(reason.to_string(), TraceId::NONE)
    }

    pub fn encode(&self) -> String {
        write_json(self.capacity(), |w| w.obj(|o| self.write(o)))
    }

    fn write(&self, o: &mut ObjectWriter<'_, '_>) {
        match self {
            Reply::Welcome(collection, worker, client, history_len, schema, history) => {
                o.key("client").uint(client.0.into());
                o.key("collection").str(collection);
                history.write(o.key("history"));
                o.key("history_len").uint(*history_len);
                o.key("schema").json(&schema_to_json(schema));
                o.key("type").str("welcome");
                o.key("worker").uint(worker.0.into());
            }
            Reply::Resumed(collection, client, history_len, body) => {
                o.key("client").uint(client.0.into());
                o.key("collection").str(collection);
                body.write(o, *history_len);
                o.key("type").str("resumed");
            }
            Reply::Synced(history_len, body) => {
                body.write(o, *history_len);
                o.key("type").str("synced");
            }
            Reply::Ack(estimate, fulfilled, seqs, trace) => {
                o.key("estimate").num(*estimate);
                o.key("fulfilled").bool(*fulfilled);
                o.key("seqs")
                    .arr(|a| seqs.iter().for_each(|s| a.item().uint(*s)));
                write_trace(o, *trace);
                o.key("type").str("ack");
            }
            Reply::Reject(reason, trace) => {
                o.key("reason").str(reason);
                write_trace(o, *trace);
                o.key("type").str("reject");
            }
            Reply::Overloaded(retry_after_ms, trace) => {
                o.key("retry_after_ms").uint(*retry_after_ms);
                write_trace(o, *trace);
                o.key("type").str("overloaded");
            }
            Reply::Lagging => o.key("type").str("lagging"),
            Reply::Stats(snapshot) => {
                o.key("snapshot").str(snapshot);
                o.key("type").str("stats");
            }
            Reply::Health(report) => {
                o.key("report").json(&report.to_json());
                o.key("type").str("health");
            }
            Reply::TraceDump(events) => {
                o.key("events").str(events);
                o.key("type").str("trace_dump");
            }
            Reply::Msg(e) => {
                write_entry(o, e.seq, &e.msg, e.trace);
                o.key("type").str("msg");
            }
            Reply::Batch(batch) => {
                let entries = batch.iter().map(|e| (e.seq, &e.msg, e.trace));
                o.key("msgs").arr(|a| write_entries(a, entries));
                o.key("type").str("batch");
            }
        }
    }

    /// About how many bytes the frame writes to: a text member's length
    /// and an eighth more for its escapes.
    fn capacity(&self) -> usize {
        let text = |s: &str| 64 + s.len() + s.len() / 8;
        match self {
            Reply::Welcome(collection, .., history) => 512 + text(collection) + history.capacity(),
            Reply::Resumed(collection, .., body) => 128 + text(collection) + body.capacity(),
            Reply::Synced(_, body) => 96 + body.capacity(),
            Reply::Ack(.., seqs, _) => 112 + 20 * seqs.len(),
            Reply::Reject(reason, _) => 64 + text(reason),
            Reply::Stats(s) | Reply::TraceDump(s) => text(s),
            Reply::Msg(e) => 96 + message_capacity(&e.msg),
            Reply::Batch(batch) => {
                let entry = |e: &SeqMsg| 64 + message_capacity(&e.msg);
                64 + batch.iter().map(entry).sum::<usize>()
            }
            Reply::Overloaded(..) | Reply::Lagging | Reply::Health(_) => 96,
        }
    }

    pub fn decode<D: JsonDoc>(doc: &D) -> Result<Reply<'static>> {
        let j = doc.root();
        let text = |name: &str| str_field(j, name).map(str::to_string);
        let history_len = || u64_field(j, "history_len");
        let trace = trace_id_from_json(j);
        Ok(match str_field(j, "type")? {
            "welcome" => Reply::Welcome(
                text("collection")?,
                WorkerId(u32_field(j, "worker")?),
                ClientId(u32_field(j, "client")?),
                history_len()?,
                // Read once per session: the owned detour keeps the cold
                // decoders (schema, template, trace, health) off the
                // generics.
                Arc::new(schema_from_json(&field(j, "schema")?.to_json())?),
                Image::decode(field(j, "history")?)?,
            ),
            "resumed" => {
                let client = ClientId(u32_field(j, "client")?);
                Reply::Resumed(
                    text("collection")?,
                    client,
                    history_len()?,
                    CatchUp::decode(j)?,
                )
            }
            "synced" => Reply::Synced(history_len()?, CatchUp::decode(j)?),
            "ack" => Reply::Ack(
                typed(j, "estimate", "a number", JsonNode::as_f64)?,
                typed(j, "fulfilled", "a boolean", JsonNode::as_bool)?,
                typed(j, "seqs", "an array of seqs", |seqs| {
                    seqs.items()?.map(u64_of).collect()
                })?,
                trace,
            ),
            "reject" => Reply::Reject(text("reason")?, trace),
            "overloaded" => Reply::Overloaded(u64_field(j, "retry_after_ms")?, trace),
            "lagging" => Reply::Lagging,
            "stats" => Reply::Stats(text("snapshot")?),
            "health" => {
                let report = |r: D::Root<'_>| HealthReport::from_json(&r.to_json()).map(Box::new);
                Reply::Health(typed(j, "report", "a health report", report)?)
            }
            "trace_dump" => Reply::TraceDump(text("events")?),
            "msg" => Reply::Msg(entry_from_json(j)?),
            "batch" => {
                let entries = arr_field(j, "msgs")?.map(entry_from_json);
                Reply::Batch(entries.collect::<Result<_>>()?)
            }
            other => return Err(WireError::new(format!("unknown reply type {other:?}"))),
        })
    }
}

// ---- Trace ------------------------------------------------------------------

/// Serializes a trace entry (timestamp, attribution, message, auto flag,
/// filled column).
pub fn trace_entry_to_json(e: &crowdfill_pay::TraceEntry) -> Json {
    let nullable = |n: Option<u64>| n.map_or(Json::Null, |n| Json::num(n as f64));
    Json::obj([
        ("at", Json::num(e.at.0 as f64)),
        ("worker", nullable(e.worker.map(|w| w.0.into()))),
        ("auto", Json::Bool(e.auto_upvote)),
        ("msg", message_to_json(&e.msg)),
        ("filled", nullable(e.filled.map(|c| c.0.into()))),
    ])
}

pub fn trace_entry_from_json(j: &Json) -> Result<crowdfill_pay::TraceEntry> {
    /// An id of type `T`, or `null`; refused, not truncated, out of range.
    fn nullable<T: TryFrom<i64>>(j: &Json, name: &str) -> Result<Option<T>> {
        match field(j, name)? {
            Json::Null => Ok(None),
            n => n
                .as_i64()
                .and_then(|v| T::try_from(v).ok())
                .map(Some)
                .ok_or_else(|| WireError::new(format!("{name} must be an id in range or null"))),
        }
    }
    Ok(crowdfill_pay::TraceEntry {
        at: crowdfill_pay::Millis(u64_field(j, "at")?),
        worker: nullable(j, "worker")?.map(WorkerId),
        auto_upvote: field(j, "auto")?
            .as_bool()
            .ok_or_else(|| WireError::new("auto must be a boolean"))?,
        msg: message_from_json(field(j, "msg")?)?,
        filled: nullable(j, "filled")?.map(ColumnId),
    })
}

/// Serializes the full action trace (the §3.3 "complete trace of worker
/// actions for bookkeeping").
pub fn trace_to_json(t: &crowdfill_pay::Trace) -> Json {
    Json::Arr(t.entries().iter().map(trace_entry_to_json).collect())
}

pub fn trace_from_json(j: &Json) -> Result<crowdfill_pay::Trace> {
    let arr = j
        .as_arr()
        .ok_or_else(|| WireError::new("trace must be an array"))?;
    let mut t = crowdfill_pay::Trace::new();
    for e in arr {
        t.record(trace_entry_from_json(e)?);
    }
    Ok(t)
}

// ---- Schema -----------------------------------------------------------------

pub fn schema_to_json(s: &Schema) -> Json {
    let columns: Vec<Json> = s
        .columns()
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("name", Json::str(c.name())),
                ("type", Json::str(c.data_type().name())),
            ];
            if let Some(domain) = c.domain() {
                fields.push((
                    "domain",
                    Json::Arr(domain.iter().map(value_to_json).collect()),
                ));
            }
            Json::obj(fields)
        })
        .collect();
    let key: Vec<Json> = s
        .key()
        .iter()
        .map(|k| Json::str(s.columns()[k.index()].name()))
        .collect();
    Json::obj([
        ("name", Json::str(s.name())),
        ("columns", Json::Arr(columns)),
        ("key", Json::Arr(key)),
    ])
}

pub fn schema_from_json(j: &Json) -> Result<Schema> {
    let name = str_field(j, "name")?;
    let cols_json = arr_field(j, "columns")?;
    let mut columns = Vec::with_capacity(cols_json.len());
    for c in cols_json {
        let cname = str_field(c, "name")?;
        let ctype = data_type_from_name(str_field(c, "type")?)?;
        let col = match c.get("domain") {
            Some(d) => {
                let values = d
                    .as_arr()
                    .ok_or_else(|| WireError::new("domain must be an array"))?
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<Vec<_>>>()?;
                Column::with_domain(cname, ctype, values)
                    .map_err(|e| WireError::new(e.to_string()))?
            }
            None => Column::new(cname, ctype),
        };
        columns.push(col);
    }
    let key: Vec<&str> = arr_field(j, "key")?
        .map(|k| {
            k.as_str()
                .ok_or_else(|| WireError::new("key entries must be strings"))
        })
        .collect::<Result<Vec<_>>>()?;
    Schema::new(name, columns, &key).map_err(|e| WireError::new(e.to_string()))
}

// ---- Template ---------------------------------------------------------------

fn predicate_to_json(p: &Predicate) -> Json {
    match p {
        Predicate::Eq(v) => Json::obj([("op", Json::str("eq")), ("v", value_to_json(v))]),
        Predicate::Ne(v) => Json::obj([("op", Json::str("ne")), ("v", value_to_json(v))]),
        Predicate::Lt(v) => Json::obj([("op", Json::str("lt")), ("v", value_to_json(v))]),
        Predicate::Le(v) => Json::obj([("op", Json::str("le")), ("v", value_to_json(v))]),
        Predicate::Gt(v) => Json::obj([("op", Json::str("gt")), ("v", value_to_json(v))]),
        Predicate::Ge(v) => Json::obj([("op", Json::str("ge")), ("v", value_to_json(v))]),
        Predicate::Between(lo, hi) => Json::obj([
            ("op", Json::str("between")),
            ("lo", value_to_json(lo)),
            ("hi", value_to_json(hi)),
        ]),
        Predicate::In(set) => Json::obj([
            ("op", Json::str("in")),
            ("set", Json::Arr(set.iter().map(value_to_json).collect())),
        ]),
    }
}

fn predicate_from_json(j: &Json) -> Result<Predicate> {
    let v = || value_from_json(field(j, "v")?);
    match str_field(j, "op")? {
        "eq" => Ok(Predicate::Eq(v()?)),
        "ne" => Ok(Predicate::Ne(v()?)),
        "lt" => Ok(Predicate::Lt(v()?)),
        "le" => Ok(Predicate::Le(v()?)),
        "gt" => Ok(Predicate::Gt(v()?)),
        "ge" => Ok(Predicate::Ge(v()?)),
        "between" => Ok(Predicate::Between(
            value_from_json(field(j, "lo")?)?,
            value_from_json(field(j, "hi")?)?,
        )),
        "in" => {
            let set = arr_field(j, "set")?
                .map(value_from_json)
                .collect::<Result<Vec<_>>>()?;
            Ok(Predicate::In(set))
        }
        other => Err(WireError::new(format!("unknown predicate {other:?}"))),
    }
}

pub fn template_to_json(t: &Template) -> Json {
    Json::Arr(
        t.rows()
            .iter()
            .map(|row| {
                Json::Arr(
                    row.entries()
                        .iter()
                        .map(|(col, e)| {
                            let entry = match e {
                                Entry::Any => Json::Null,
                                Entry::Value(v) => Json::obj([("value", value_to_json(v))]),
                                Entry::Pred(p) => Json::obj([("pred", predicate_to_json(p))]),
                            };
                            Json::obj([("col", Json::num(col.0 as f64)), ("entry", entry)])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

pub fn template_from_json(j: &Json) -> Result<Template> {
    let rows_json = j
        .as_arr()
        .ok_or_else(|| WireError::new("template must be an array"))?;
    let mut rows = Vec::with_capacity(rows_json.len());
    for row in rows_json {
        let entries_json = row
            .as_arr()
            .ok_or_else(|| WireError::new("template row must be an array"))?;
        let mut entries = Vec::with_capacity(entries_json.len());
        for e in entries_json {
            let col = column_field(e, "col")?;
            let entry_json = field(e, "entry")?;
            let entry = if let Some(v) = entry_json.get("value") {
                Entry::Value(value_from_json(v)?)
            } else if let Some(p) = entry_json.get("pred") {
                Entry::Pred(predicate_from_json(p)?)
            } else {
                Entry::Any
            };
            entries.push((col, entry));
        }
        rows.push(TemplateRow::from_entries(entries));
    }
    Ok(Template::from_rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let j = value_to_json(&v);
        // Also across a text encode/parse cycle, as the wire does.
        let j2 = Json::parse(&j.encode()).unwrap();
        assert_eq!(value_from_json(&j2).unwrap(), v);
    }

    #[test]
    fn values_roundtrip() {
        roundtrip_value(Value::text("Lionel Messi"));
        roundtrip_value(Value::text(""));
        roundtrip_value(Value::int(-42));
        roundtrip_value(Value::float(83.5));
        roundtrip_value(Value::bool(true));
        roundtrip_value(Value::date(1987, 6, 24));
    }

    #[test]
    fn messages_roundtrip() {
        let rv = RowValue::from_pairs([
            (ColumnId(0), Value::text("Messi")),
            (ColumnId(3), Value::int(83)),
        ]);
        let msgs = [
            Message::Insert {
                row: RowId::new(ClientId(3), 7),
            },
            Message::Replace {
                old: RowId::new(ClientId(1), 0),
                new: RowId::new(ClientId(1), 1),
                value: rv.clone(),
            },
            Message::Upvote { value: rv.clone() },
            Message::Downvote { value: rv },
        ];
        for m in msgs {
            let j = Json::parse(&message_to_json(&m).encode()).unwrap();
            assert_eq!(message_from_json(&j).unwrap(), m);
        }
    }

    #[test]
    fn tape_message_decode_matches_owned() {
        let rv = RowValue::from_pairs([
            (ColumnId(0), Value::text("Pelé \"O Rei\"")),
            (ColumnId(1), Value::int(77)),
            (ColumnId(2), Value::Bool(true)),
            (
                ColumnId(3),
                Value::parse(DataType::Date, "1940-10-23").unwrap(),
            ),
        ]);
        let msgs = vec![
            Message::Insert {
                row: RowId::new(ClientId(3), 7),
            },
            Message::Replace {
                old: RowId::new(ClientId(1), 0),
                new: RowId::new(ClientId(1), 1),
                value: rv.clone(),
            },
            Message::Upvote { value: rv.clone() },
            Message::UndoDownvote { value: rv },
        ];
        for m in msgs {
            let encoded = message_to_json(&m).encode();
            let owned = message_from_json(&Json::parse(&encoded).unwrap()).unwrap();
            let tape = message_from_json(Tape::parse(&encoded).unwrap().root()).unwrap();
            assert_eq!(tape, m);
            assert_eq!(tape, owned);
        }
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::new(
            "SoccerPlayer",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nationality", DataType::Text),
                Column::with_domain(
                    "position",
                    DataType::Text,
                    vec![Value::text("GK"), Value::text("FW")],
                )
                .unwrap(),
                Column::new("caps", DataType::Int),
                Column::new("dob", DataType::Date),
            ],
            &["name", "nationality"],
        )
        .unwrap();
        let j = Json::parse(&schema_to_json(&s).encode()).unwrap();
        let back = schema_from_json(&j).unwrap();
        assert_eq!(back.name(), s.name());
        assert_eq!(back.width(), s.width());
        assert_eq!(back.key(), s.key());
        assert_eq!(back.column(ColumnId(2)).unwrap().domain().unwrap().len(), 2);
    }

    #[test]
    fn template_roundtrip() {
        let t = Template::from_rows(vec![
            TemplateRow::from_values([(ColumnId(1), Value::text("Brazil"))]),
            TemplateRow::from_entries([
                (ColumnId(2), Entry::Pred(Predicate::Eq(Value::text("FW")))),
                (ColumnId(4), Entry::Pred(Predicate::Ge(Value::int(30)))),
                (
                    ColumnId(3),
                    Entry::Pred(Predicate::Between(Value::int(80), Value::int(99))),
                ),
                (
                    ColumnId(0),
                    Entry::Pred(Predicate::In(vec![Value::text("A"), Value::text("B")])),
                ),
            ]),
            TemplateRow::empty(),
        ]);
        let j = Json::parse(&template_to_json(&t).encode()).unwrap();
        assert_eq!(template_from_json(&j).unwrap(), t);
    }

    #[test]
    fn malformed_wire_data_rejected() {
        assert!(value_from_json(&Json::Null).is_err());
        assert!(value_from_json(&Json::obj([("t", Json::str("blob"))])).is_err());
        assert!(message_from_json(&Json::obj([("kind", Json::str("explode"))])).is_err());
        assert!(row_id_from_json(&Json::obj([("c", Json::num(-1))])).is_err());
        assert!(schema_from_json(&Json::obj([("name", Json::str("T"))])).is_err());
        assert!(template_from_json(&Json::Bool(true)).is_err());
        assert!(value_from_json(&Json::obj([
            ("t", Json::str("date")),
            ("v", Json::str("not-a-date"))
        ]))
        .is_err());
    }
}
