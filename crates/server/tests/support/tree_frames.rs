//! The encoders that built every frame, bootstrap, journal record and
//! checkpoint as a `Json` tree and then serialised it, kept as the oracle
//! the writer is checked against (`wire_props.rs`): the writer's text must
//! be the tree's `encode()`, byte for byte. Built from the public trees of
//! the model types (`wire::message_to_json` and its helpers).
#![allow(dead_code)]

use crowdfill_docstore::Json;
use crowdfill_model::{ColumnId, Message, RowValue};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::{Ledger, TraceEntry, Unit, Vote};
use crowdfill_server::persist::BackendState;
use crowdfill_server::wire::{self, CatchUp, Cursor, Image, Op, Reply, Request, TableImage};

type Fields = Vec<(&'static str, Json)>;

fn num(n: u64) -> Json {
    Json::num(n as f64)
}

fn frame(ty: &'static str, fields: Fields, trace: TraceId) -> Json {
    let ty = [("type", Json::str(ty))];
    let trace = (!trace.is_none()).then(|| ("trace", Json::str(trace.to_hex())));
    Json::obj(fields.into_iter().chain(ty).chain(trace))
}

fn untraced(ty: &'static str, fields: Fields) -> Json {
    frame(ty, fields, TraceId::NONE)
}

fn cursor_fields(cursor: &Cursor) -> Fields {
    let have = cursor.have.iter().map(|s| num(*s)).collect();
    vec![("from", num(cursor.from)), ("have", Json::Arr(have))]
}

fn op_fields((msg, auto): &Op) -> Fields {
    vec![
        ("auto", Json::Bool(*auto)),
        ("msg", wire::message_to_json(msg)),
    ]
}

fn entry_fields(seq: u64, msg: &Message, trace: TraceId) -> Fields {
    let fields = [("seq", num(seq)), ("msg", wire::message_to_json(msg))];
    let trace = (!trace.is_none()).then(|| ("trace", Json::str(trace.to_hex())));
    fields.into_iter().chain(trace).collect()
}

pub fn request(request: &Request) -> Json {
    let named = |c: &Option<String>| c.as_ref().map(|c| ("collection", Json::str(c)));
    match request {
        Request::Hello(collection) => untraced("hello", named(collection).into_iter().collect()),
        Request::Resume(worker, cursor, collection) => {
            let mut fields = cursor_fields(cursor);
            fields.push(("worker", num(worker.0 as u64)));
            fields.extend(named(collection));
            untraced("resume", fields)
        }
        Request::Submit(op, speculative, trace) => {
            let mut fields = op_fields(op);
            fields.extend(speculative.then_some(("speculative", Json::Bool(true))));
            frame("submit", fields, *trace)
        }
        Request::Modify(bundle, trace) => {
            let msgs = bundle.iter().map(|op| Json::obj(op_fields(op))).collect();
            frame("modify", vec![("msgs", Json::Arr(msgs))], *trace)
        }
        Request::Sync(cursor) => untraced("sync", cursor_fields(cursor)),
        Request::Resync => untraced("sync", vec![("reset", Json::Bool(true))]),
        Request::Stats => untraced("stats", vec![]),
        Request::Health => untraced("health", vec![]),
        Request::TraceDump => untraced("trace_dump", vec![]),
        Request::Bye => untraced("bye", vec![]),
    }
}

/// The IMAGE, its cells bare: the `"v"` of a message's cell.
pub fn image(image: &TableImage) -> Json {
    let votes = |votes: &[(u32, u32)]| {
        let vote = |&(i, n): &(u32, u32)| Json::Arr(vec![num(i.into()), num(n.into())]);
        Json::Arr(votes.iter().map(vote).collect())
    };
    let value = |v: &RowValue| {
        let mut cells = Vec::with_capacity(v.len());
        for (col, v) in v.iter() {
            cells.resize(col.index(), Json::Null);
            cells.push(wire::value_to_json(v).get("v").expect("a payload").clone());
        }
        Json::Arr(cells)
    };
    let row = |&(id, i): &(crowdfill_model::RowId, u32)| {
        let (c, s) = (num(id.client.0.into()), num(id.seq));
        Json::Arr(vec![c, s, num(i.into())])
    };
    let types = image.types.iter().map(|t| Json::str(t.name()));
    Json::obj([
        ("types", Json::Arr(types.collect())),
        (
            "values",
            Json::Arr(image.values.iter().map(value).collect()),
        ),
        ("rows", Json::Arr(image.rows.iter().map(row).collect())),
        ("uh", votes(&image.uh)),
        ("dh", votes(&image.dh)),
    ])
}

pub fn bootstrap(table: &TableImage, log: &[Message]) -> Json {
    let log = Json::Arr(log.iter().map(wire::message_to_json).collect());
    Json::obj([("image", image(table)), ("log", log)])
}

fn history(history: &Image<'_>) -> Json {
    match history {
        Image::Text(text) => Json::parse(text).expect("a bootstrap is JSON"),
        Image::Table(table, log) => bootstrap(table, log),
    }
}

fn catch_up(ty: &'static str, body: &CatchUp<'_>, mut fields: Fields) -> Json {
    match body {
        CatchUp::Suffix(msgs) => {
            let entry = |(seq, m): &(u64, Message)| Json::obj(entry_fields(*seq, m, TraceId::NONE));
            fields.push(("msgs", Json::Arr(msgs.iter().map(entry).collect())));
        }
        CatchUp::Image(image) => {
            fields.push(("reset", Json::Bool(true)));
            fields.push(("history", history(image)));
        }
    }
    untraced(ty, fields)
}

pub fn reply(reply: &Reply<'_>) -> Json {
    match reply {
        Reply::Welcome(collection, worker, client, history_len, schema, image) => untraced(
            "welcome",
            vec![
                ("collection", Json::str(collection)),
                ("worker", num(worker.0 as u64)),
                ("client", num(client.0 as u64)),
                ("history_len", num(*history_len)),
                ("schema", wire::schema_to_json(schema)),
                ("history", history(image)),
            ],
        ),
        Reply::Resumed(collection, client, history_len, body) => {
            let fields = vec![
                ("collection", Json::str(collection)),
                ("client", num(client.0 as u64)),
                ("history_len", num(*history_len)),
            ];
            catch_up("resumed", body, fields)
        }
        Reply::Synced(history_len, body) => {
            catch_up("synced", body, vec![("history_len", num(*history_len))])
        }
        Reply::Ack(estimate, fulfilled, seqs, trace) => {
            let fields = vec![
                ("estimate", Json::num(*estimate)),
                ("fulfilled", Json::Bool(*fulfilled)),
                ("seqs", Json::Arr(seqs.iter().map(|s| num(*s)).collect())),
            ];
            frame("ack", fields, *trace)
        }
        Reply::Reject(reason, trace) => {
            frame("reject", vec![("reason", Json::str(reason))], *trace)
        }
        Reply::Overloaded(retry_after_ms, trace) => frame(
            "overloaded",
            vec![("retry_after_ms", num(*retry_after_ms))],
            *trace,
        ),
        Reply::Lagging => untraced("lagging", vec![]),
        Reply::Stats(snapshot) => untraced("stats", vec![("snapshot", Json::str(snapshot))]),
        Reply::Health(report) => untraced("health", vec![("report", report.to_json())]),
        Reply::TraceDump(events) => untraced("trace_dump", vec![("events", Json::str(events))]),
        Reply::Msg(e) => untraced("msg", entry_fields(e.seq, &e.msg, e.trace)),
        Reply::Batch(entries) => {
            let entry = |e: &wire::SeqMsg| Json::obj(entry_fields(e.seq, &e.msg, e.trace));
            let msgs = entries.iter().map(entry).collect();
            untraced("batch", vec![("msgs", Json::Arr(msgs))])
        }
    }
}

pub fn journal_frame(from: u64, at: u64, entries: &[TraceEntry], tdrops: &[usize]) -> Json {
    let column = |f: &dyn Fn(&TraceEntry) -> Json| Json::Arr(entries.iter().map(f).collect());
    let workers = column(&|e| Json::num(e.worker.map_or(0, |w| w.0) as f64));
    let auto = column(&|e| Json::num(u8::from(e.auto_upvote) as f64));
    let mut fields = vec![
        ("from", Json::num(from as f64)),
        ("at", Json::num(at as f64)),
        ("msgs", column(&|e| wire::message_to_json(&e.msg))),
        ("workers", workers),
        ("auto", auto),
    ];
    if !tdrops.is_empty() {
        let indexes = tdrops.iter().map(|i| Json::num(*i as f64)).collect();
        fields.push(("tdrops", Json::Arr(indexes)));
    }
    Json::obj(fields)
}

pub fn journal_session(worker: u32, client: u32, at: u64) -> Json {
    Json::obj([(
        "session",
        Json::obj([
            ("worker", Json::num(worker as f64)),
            ("client", Json::num(client as f64)),
            ("at", Json::num(at as f64)),
        ]),
    )])
}

pub fn journal_closed(at: u64) -> Json {
    Json::obj([("closed", Json::Bool(true)), ("at", Json::num(at as f64))])
}

fn unit(u: Option<&Unit>) -> Json {
    let Some(u) = u else { return Json::Null };
    let (seq, worker, at) = (num(u.seq), num(u.worker.0.into()), num(u.at.0));
    let latency = u.latency.map_or(Json::Null, |l| num(l.0));
    Json::Arr(vec![seq, worker, at, latency])
}

fn ledger(l: &Ledger) -> Json {
    let arr = Json::Arr;
    let cells = l.cells.iter().map(|(row, fills)| {
        let fill = |(c, u): &(ColumnId, Unit)| arr(vec![num(c.0.into()), unit(Some(u))]);
        arr(vec![
            wire::row_id_to_json(*row),
            arr(fills.iter().map(fill).collect()),
        ])
    });
    let first = l.first.iter().map(|((c, v), f)| {
        let (c, v, at) = (num(c.0.into()), wire::value_to_json(v), num(f.at.0));
        let (u, row) = (unit(f.unit.as_ref()), wire::row_value_to_json(&f.row));
        arr(vec![c, v, at, u, row])
    });
    let votes = l.votes.iter().map(|((w, up, v), live)| {
        let vote = |x: &Vote| arr(vec![unit(Some(&x.unit)), Json::Bool(x.auto)]);
        let (w, up, v) = (num(w.0.into()), Json::Bool(*up), wire::row_value_to_json(v));
        arr(vec![w, up, v, arr(live.iter().map(vote).collect())])
    });
    let last = l.last_at.iter();
    let last = last.map(|(w, at)| arr(vec![num(w.0.into()), num(at.0)]));
    Json::obj([
        ("cells", arr(cells.collect())),
        ("first", arr(first.collect())),
        ("votes", arr(votes.collect())),
        ("last", arr(last.collect())),
    ])
}

pub fn backend_state(state: &BackendState) -> Json {
    let indexes = |xs: &[usize]| Json::Arr(xs.iter().map(|i| Json::num(*i as f64)).collect());
    let sessions = state.sessions.iter().map(|s| {
        let voted = s
            .voted
            .iter()
            .map(|(v, up)| Json::Arr(vec![wire::row_value_to_json(v), num(u8::from(*up).into())]));
        let keys = s.upvoted_keys.iter().map(wire::row_value_to_json);
        Json::obj([
            ("worker", num(s.worker.into())),
            ("client", num(s.client.into())),
            ("epoch", num(s.epoch)),
            ("ops", num(s.ops)),
            ("confirmed", num(s.confirmed)),
            ("voted", Json::Arr(voted.collect())),
            ("keys", Json::Arr(keys.collect())),
        ])
    });
    Json::obj([
        ("v", Json::num(4)),
        ("base", num(state.base_seq)),
        ("at", num(state.at_ms)),
        ("next_worker", num(state.next_worker.into())),
        ("closed", Json::Bool(state.closed)),
        ("cc_next_seq", num(state.cc_next_seq)),
        ("image", image(&state.image)),
        ("live", indexes(&state.live_template)),
        ("dropped", indexes(&state.dropped_template)),
        ("sessions", Json::Arr(sessions.collect())),
        ("ledger", ledger(&state.ledger)),
    ])
}
