//! JSON codecs for model types — the wire vocabulary shared by the TCP
//! protocol, the front-end store, and the trace exports.
//!
//! The message decoders are generic over [`JsonNode`]: both ends of the
//! socket decode frames borrowed (`JsonRef`), recovery and the stores
//! decode owned [`Json`] — one function body either way, so every replica
//! reads the same message out of the same bytes.

use crowdfill_docstore::{Json, JsonNode};
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Date, Entry, Message, Predicate, RowId, RowValue, Schema,
    Template, TemplateRow, Value,
};
use crowdfill_obs::trace::{self as obstrace, TraceId};
use std::fmt;

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

fn field<'a, J: JsonNode>(j: &'a J, name: &str) -> Result<&'a J> {
    j.get(name)
        .ok_or_else(|| WireError::new(format!("missing field {name:?}")))
}

fn str_field<'a, J: JsonNode>(j: &'a J, name: &str) -> Result<&'a str> {
    field(j, name)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field {name:?} must be a string")))
}

fn u64_field<J: JsonNode>(j: &J, name: &str) -> Result<u64> {
    field(j, name)?
        .as_i64()
        .filter(|v| *v >= 0)
        .map(|v| v as u64)
        .ok_or_else(|| WireError::new(format!("field {name:?} must be a non-negative integer")))
}

// ---- Value ----------------------------------------------------------------

pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Text(s) => Json::obj([("t", Json::str("text")), ("v", Json::str(s.as_str()))]),
        Value::Int(i) => Json::obj([("t", Json::str("int")), ("v", Json::num(*i as f64))]),
        Value::Float(f) => Json::obj([("t", Json::str("float")), ("v", Json::num(f.get()))]),
        Value::Bool(b) => Json::obj([("t", Json::str("bool")), ("v", Json::Bool(*b))]),
        Value::Date(d) => Json::obj([("t", Json::str("date")), ("v", Json::str(d.to_string()))]),
    }
}

pub fn value_from_json<J: JsonNode>(j: &J) -> Result<Value> {
    let t = str_field(j, "t")?;
    let v = field(j, "v")?;
    match t {
        "text" => {
            Ok(Value::text(v.as_str().ok_or_else(|| {
                WireError::new("text value must be a string")
            })?))
        }
        "int" => v
            .as_i64()
            .map(Value::Int)
            .ok_or_else(|| WireError::new("int value must be integral")),
        "float" => v
            .as_f64()
            .and_then(Value::try_float)
            .ok_or_else(|| WireError::new("float value must be finite")),
        "bool" => v
            .as_bool()
            .map(Value::Bool)
            .ok_or_else(|| WireError::new("bool value must be a boolean")),
        "date" => v
            .as_str()
            .and_then(Date::parse)
            .map(Value::Date)
            .ok_or_else(|| WireError::new("date value must be YYYY-MM-DD")),
        other => Err(WireError::new(format!("unknown value type {other:?}"))),
    }
}

// ---- RowId / RowValue -----------------------------------------------------

pub fn row_id_to_json(id: RowId) -> Json {
    Json::obj([
        ("c", Json::num(id.client.0 as f64)),
        ("s", Json::num(id.seq as f64)),
    ])
}

pub fn row_id_from_json<J: JsonNode>(j: &J) -> Result<RowId> {
    Ok(RowId::new(
        ClientId(u64_field(j, "c")? as u32),
        u64_field(j, "s")?,
    ))
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

pub fn row_value_from_json<J: JsonNode>(j: &J) -> Result<RowValue> {
    let arr = j
        .as_arr()
        .ok_or_else(|| WireError::new("row value must be an array"))?;
    let mut pairs = Vec::with_capacity(arr.len());
    for item in arr {
        let col = ColumnId(u64_field(item, "col")? as u16);
        let val = value_from_json(field(item, "val")?)?;
        pairs.push((col, val));
    }
    Ok(RowValue::from_pairs(pairs))
}

// ---- Message ----------------------------------------------------------------

pub fn message_to_json(m: &Message) -> Json {
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
        Message::Upvote { value } => Json::obj([
            ("kind", Json::str("upvote")),
            ("value", row_value_to_json(value)),
        ]),
        Message::Downvote { value } => Json::obj([
            ("kind", Json::str("downvote")),
            ("value", row_value_to_json(value)),
        ]),
        Message::UndoUpvote { value } => Json::obj([
            ("kind", Json::str("undo_upvote")),
            ("value", row_value_to_json(value)),
        ]),
        Message::UndoDownvote { value } => Json::obj([
            ("kind", Json::str("undo_downvote")),
            ("value", row_value_to_json(value)),
        ]),
    }
}

pub fn message_from_json<J: JsonNode>(j: &J) -> Result<Message> {
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
pub fn trace_id_from_json<J: JsonNode>(j: &J) -> TraceId {
    if !obstrace::enabled() {
        return TraceId::NONE;
    }
    j.get("trace")
        .and_then(J::as_str)
        .and_then(TraceId::from_hex)
        .unwrap_or(TraceId::NONE)
}

// ---- Trace ------------------------------------------------------------------

/// Serializes a trace entry (timestamp, attribution, message, auto flag).
pub fn trace_entry_to_json(e: &crowdfill_pay::TraceEntry) -> Json {
    Json::obj([
        ("at", Json::num(e.at.0 as f64)),
        (
            "worker",
            match e.worker {
                Some(w) => Json::num(w.0 as f64),
                None => Json::Null,
            },
        ),
        ("auto", Json::Bool(e.auto_upvote)),
        ("msg", message_to_json(&e.msg)),
    ])
}

pub fn trace_entry_from_json(j: &Json) -> Result<crowdfill_pay::TraceEntry> {
    Ok(crowdfill_pay::TraceEntry {
        at: crowdfill_pay::Millis(u64_field(j, "at")?),
        worker: match field(j, "worker")? {
            Json::Null => None,
            w => Some(crowdfill_pay::WorkerId(
                w.as_i64()
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| WireError::new("worker must be a non-negative integer"))?
                    as u32,
            )),
        },
        auto_upvote: field(j, "auto")?
            .as_bool()
            .ok_or_else(|| WireError::new("auto must be a boolean"))?,
        msg: message_from_json(field(j, "msg")?)?,
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

fn data_type_name(t: DataType) -> &'static str {
    match t {
        DataType::Text => "text",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Bool => "bool",
        DataType::Date => "date",
    }
}

fn data_type_from_name(s: &str) -> Result<DataType> {
    match s {
        "text" => Ok(DataType::Text),
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "bool" => Ok(DataType::Bool),
        "date" => Ok(DataType::Date),
        other => Err(WireError::new(format!("unknown data type {other:?}"))),
    }
}

pub fn schema_to_json(s: &Schema) -> Json {
    let columns: Vec<Json> = s
        .columns()
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("name", Json::str(c.name())),
                ("type", Json::str(data_type_name(c.data_type()))),
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
    let cols_json = field(j, "columns")?
        .as_arr()
        .ok_or_else(|| WireError::new("columns must be an array"))?;
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
    let key_json = field(j, "key")?
        .as_arr()
        .ok_or_else(|| WireError::new("key must be an array"))?;
    let key: Vec<&str> = key_json
        .iter()
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
            let set = field(j, "set")?
                .as_arr()
                .ok_or_else(|| WireError::new("in-set must be an array"))?
                .iter()
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
            let col = ColumnId(u64_field(e, "col")? as u16);
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
    use crowdfill_docstore::JsonRef;

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
    fn borrowed_message_decode_matches_owned() {
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
            let borrowed = message_from_json(&JsonRef::parse(&encoded).unwrap()).unwrap();
            assert_eq!(borrowed, m);
            assert_eq!(borrowed, owned);
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
