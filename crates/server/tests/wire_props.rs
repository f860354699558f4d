//! `decode(encode(x)) == x` for every frame kind of the wire protocol, over
//! generated messages, cursors, typed table images and trace ids, through
//! both trees a decoder can be handed: the borrowed tape the two ends of
//! the socket parse, and the owned `Json` of the stores. A field an encoder writes and its
//! decoder does not read (or reads under another name, or defaults) fails
//! here. Tracing is switched on for the whole binary: a trace id is only
//! read off the wire while it is.
//!
//! And byte identity: every frame, bootstrap, journal record and
//! checkpoint the writer writes is the text the tree encoders it replaced
//! (`support/tree_frames.rs`, the oracle) serialised — over strings with
//! quotes, backslashes, every control character and non-ASCII text, and
//! numbers past 2^53 and 10^15.

use crowdfill_docstore::Json;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_obs::trace::{self as obstrace, TraceId, TraceMode};
use crowdfill_pay::{FirstFill, Ledger, Millis, TraceEntry, Unit, Vote, WorkerId};
use crowdfill_server::persist::{self, BackendState, SessionState};
use crowdfill_server::wire::{self, BootstrapText, CatchUp, Cursor, Image, Reply, Request, SeqMsg};
use crowdfill_server::{Backend, TaskConfig};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::sync::Arc;
use typed_image::table_image;

#[path = "support/tree_frames.rs"]
mod tree_frames;
#[path = "support/typed_image.rs"]
mod typed_image;

/// JSON numbers travel as f64: exactness holds below 2^53.
const MAX_EXACT: u64 = 1 << 50;

/// A message's cell: self-describing, of any of the five types.
fn value() -> impl Strategy<Value = Value> {
    typed_image::cell()
}

fn row_value() -> impl Strategy<Value = RowValue> {
    row_value_of(value())
}

fn row_value_of(cell: impl Strategy<Value = Value>) -> impl Strategy<Value = RowValue> {
    proptest::collection::btree_map(0u16..4, cell, 0..4)
        .prop_map(|cells| RowValue::from_pairs(cells.into_iter().map(|(c, v)| (ColumnId(c), v))))
}

fn row_id() -> impl Strategy<Value = RowId> {
    (any::<u32>(), 0..MAX_EXACT).prop_map(|(c, s)| RowId::new(ClientId(c), s))
}

fn message() -> BoxedStrategy<Message> {
    message_of(row_value().boxed())
}

fn message_of(row_value: BoxedStrategy<RowValue>) -> BoxedStrategy<Message> {
    prop_oneof![
        row_id().prop_map(|row| Message::Insert { row }),
        (row_id(), row_id(), row_value.clone()).prop_map(|(old, new, value)| Message::Replace {
            old,
            new,
            value
        }),
        row_value
            .clone()
            .prop_map(|value| Message::Upvote { value }),
        row_value
            .clone()
            .prop_map(|value| Message::Downvote { value }),
        row_value
            .clone()
            .prop_map(|value| Message::UndoUpvote { value }),
        row_value.prop_map(|value| Message::UndoDownvote { value }),
    ]
    .boxed()
}

/// Text that needs care: quotes, backslashes, every control character,
/// DEL, non-ASCII of one to four bytes — or nothing at all.
fn text() -> impl Strategy<Value = String> {
    let hard = prop_oneof![
        (0u8..0x20).prop_map(char::from),
        Just('"'),
        Just('\\'),
        Just('\x7f'),
        Just('é'),
        Just('✓'),
        Just('🦀'),
        any::<char>(),
        (b'a'..=b'z').prop_map(char::from),
    ];
    proptest::collection::vec(hard, 0..12).prop_map(|chars| chars.into_iter().collect())
}

/// A cell at the edges of its encoding: hard text, ints at ±2^53 and past
/// ±10^15 (where an int is written as the `f64` it rounds to), integral,
/// negative and fractional floats, and dates.
fn hard_cell() -> impl Strategy<Value = Value> {
    const EXACT: i64 = 1 << 53;
    const DIGITS: i64 = 1_000_000_000_000_000;
    prop_oneof![
        text().prop_map(Value::text),
        prop_oneof![
            Just(EXACT),
            Just(-EXACT),
            Just(EXACT + 1),
            (-3i64..=3).prop_map(|d| DIGITS + d),
            (-3i64..=3).prop_map(|d| -DIGITS + d),
            any::<i64>(),
        ]
        .prop_map(Value::int),
        prop_oneof![
            (-1000i32..1000).prop_map(f64::from),
            -1e6f64..1e6,
            Just(-0.0),
            Just(1e20),
            Just(-2.5e-7),
            Just(f64::MAX),
        ]
        .prop_map(Value::float),
        any::<bool>().prop_map(Value::bool),
        (-9999i32..9999, 1u8..=12, 1u8..=28).prop_map(|(y, m, d)| Value::date(y, m, d)),
    ]
}

fn hard_message() -> BoxedStrategy<Message> {
    message_of(row_value_of(hard_cell()).boxed())
}

fn trace() -> impl Strategy<Value = TraceId> {
    prop_oneof![Just(TraceId::NONE), any::<u64>().prop_map(TraceId)]
}

fn cursor() -> impl Strategy<Value = Cursor> {
    let have = proptest::collection::vec(0..MAX_EXACT, 0..6);
    (0..MAX_EXACT, have).prop_map(|(from, have)| Cursor {
        from,
        have: have.into_iter().collect(),
    })
}

fn collection() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), text().prop_map(Some)]
}

fn request() -> impl Strategy<Value = Request> {
    request_of(message())
}

fn request_of(message: BoxedStrategy<Message>) -> impl Strategy<Value = Request> {
    let op = || (message.clone(), any::<bool>());
    prop_oneof![
        collection().prop_map(Request::Hello),
        (any::<u32>(), cursor(), collection()).prop_map(|(w, cursor, c)| Request::Resume(
            WorkerId(w),
            cursor,
            c
        )),
        (op(), any::<bool>(), trace()).prop_map(|(op, s, t)| Request::Submit(op, s, t)),
        (proptest::collection::vec(op(), 0..5), trace())
            .prop_map(|(bundle, t)| Request::Modify(bundle, t)),
        cursor().prop_map(Request::Sync),
        Just(Request::Resync),
        Just(Request::Stats),
        Just(Request::Health),
        Just(Request::TraceDump),
        Just(Request::Bye),
    ]
}

fn schema() -> Arc<Schema> {
    let positions = vec![Value::text("GK"), Value::text("FW")];
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::with_domain("position", DataType::Text, positions).unwrap(),
        Column::new("caps", DataType::Int),
    ];
    Arc::new(Schema::new("SoccerPlayer", columns, &["name"]).unwrap())
}

fn seq_msg(message: BoxedStrategy<Message>) -> impl Strategy<Value = SeqMsg> {
    (0..MAX_EXACT, message, trace()).prop_map(|(seq, msg, trace)| SeqMsg { seq, msg, trace })
}

/// A bootstrap: an image and the log since.
fn bootstrap(message: BoxedStrategy<Message>) -> impl Strategy<Value = Image<'static>> {
    let log = proptest::collection::vec(message, 0..4);
    (table_image(), log).prop_map(|(image, log)| Image::Table(Box::new(image), log))
}

fn catch_up(message: BoxedStrategy<Message>) -> impl Strategy<Value = CatchUp<'static>> {
    let suffix = proptest::collection::vec((0..MAX_EXACT, message.clone()), 0..5);
    prop_oneof![
        suffix.prop_map(CatchUp::Suffix),
        bootstrap(message).prop_map(CatchUp::Image),
    ]
}

fn reply() -> impl Strategy<Value = Reply<'static>> {
    reply_of(message())
}

fn reply_of(message: BoxedStrategy<Message>) -> impl Strategy<Value = Reply<'static>> {
    let history_len = || 0..MAX_EXACT;
    let estimate = (0i32..(1 << 20)).prop_map(|v| v as f64 / 8.0);
    let seqs = proptest::collection::vec(0..MAX_EXACT, 0..4);
    let quorum = Arc::new(QuorumMajority::of_three());
    let config = TaskConfig::new(schema(), quorum, Template::cardinality(2), 10.0);
    let report = Box::new(crowdfill_server::collect(&Backend::new(config)));
    prop_oneof![
        (
            text(),
            any::<u32>(),
            any::<u32>(),
            history_len(),
            bootstrap(message.clone())
        )
            .prop_map(|(collection, w, c, len, image)| {
                let (worker, client) = (WorkerId(w), ClientId(c));
                Reply::Welcome(collection, worker, client, len, schema(), image)
            }),
        (
            text(),
            any::<u32>(),
            history_len(),
            catch_up(message.clone())
        )
            .prop_map(|(name, c, len, body)| Reply::Resumed(name, ClientId(c), len, body)),
        (history_len(), catch_up(message.clone())).prop_map(|(len, body)| Reply::Synced(len, body)),
        (estimate, any::<bool>(), seqs, trace())
            .prop_map(|(e, fulfilled, seqs, t)| Reply::Ack(e, fulfilled, seqs, t)),
        (text(), trace()).prop_map(|(reason, t)| Reply::Reject(reason, t)),
        (history_len(), trace()).prop_map(|(ms, t)| Reply::Overloaded(ms, t)),
        Just(Reply::Lagging),
        text().prop_map(Reply::Stats),
        Just(Reply::Health(report)),
        text().prop_map(Reply::TraceDump),
        seq_msg(message.clone()).prop_map(Reply::Msg),
        proptest::collection::vec(seq_msg(message), 0..5).prop_map(Reply::Batch),
    ]
}

fn trace_entry() -> impl Strategy<Value = TraceEntry> {
    let worker = prop_oneof![Just(None), any::<u32>().prop_map(|w| Some(WorkerId(w)))];
    (any::<u64>(), worker, hard_message(), any::<bool>()).prop_map(|(at, worker, msg, auto)| {
        TraceEntry {
            at: Millis(at),
            worker,
            msg,
            auto_upvote: auto,
            filled: None,
        }
    })
}

fn hard_row_value() -> impl Strategy<Value = RowValue> {
    row_value_of(hard_cell())
}

fn unit() -> impl Strategy<Value = Unit> {
    let latency = prop_oneof![Just(None), any::<u64>().prop_map(|l| Some(Millis(l)))];
    (any::<u64>(), any::<u32>(), any::<u64>(), latency).prop_map(|(seq, w, at, latency)| Unit {
        seq,
        worker: WorkerId(w),
        at: Millis(at),
        latency,
    })
}

fn ledger() -> impl Strategy<Value = Ledger> {
    use proptest::collection::{btree_map, vec};
    let column = || any::<u16>().prop_map(ColumnId);
    let fills = vec((column(), unit()), 0..3);
    let first = (
        any::<u64>(),
        prop_oneof![Just(None), unit().prop_map(Some)],
        hard_row_value(),
    )
        .prop_map(|(at, unit, row)| FirstFill {
            at: Millis(at),
            unit,
            row,
        });
    let vote = (unit(), any::<bool>()).prop_map(|(unit, auto)| Vote { unit, auto });
    let voter = (any::<u32>(), any::<bool>(), hard_row_value())
        .prop_map(|(w, up, value)| (WorkerId(w), up, value));
    (
        btree_map(row_id(), fills, 0..4),
        btree_map((column(), hard_cell()), first, 0..4),
        btree_map(voter, vec(vote, 0..3), 0..4),
        btree_map(
            any::<u32>().prop_map(WorkerId),
            any::<u64>().prop_map(Millis),
            0..4,
        ),
    )
        .prop_map(|(cells, first, votes, last_at)| Ledger {
            cells,
            first,
            votes,
            last_at,
        })
}

fn session() -> impl Strategy<Value = SessionState> {
    use proptest::collection::vec;
    let ids = (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    );
    let voted = vec((hard_row_value(), any::<bool>()), 0..4);
    (ids, voted, vec(hard_row_value(), 0..4)).prop_map(
        |((worker, client, epoch, ops, confirmed), voted, upvoted_keys)| SessionState {
            worker,
            client,
            epoch,
            ops,
            confirmed,
            voted,
            upvoted_keys,
        },
    )
}

fn backend_state() -> impl Strategy<Value = BackendState> {
    use proptest::collection::vec;
    let counters = (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        any::<u64>(),
    );
    let template = (vec(any::<usize>(), 0..4), vec(any::<usize>(), 0..4));
    (
        counters,
        table_image(),
        template,
        vec(session(), 0..3),
        ledger(),
    )
        .prop_map(
            |(
                (base_seq, at_ms, next_worker, closed, cc_next_seq),
                image,
                (live, dropped),
                sessions,
                ledger,
            )| {
                BackendState {
                    base_seq,
                    at_ms,
                    next_worker,
                    closed,
                    cc_next_seq,
                    image,
                    live_template: live,
                    dropped_template: dropped,
                    sessions,
                    ledger,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The writer writes every request as the tree oracle serialises it.
    #[test]
    fn every_request_is_written_as_its_tree_encodes(request in request_of(hard_message())) {
        prop_assert_eq!(request.encode(), tree_frames::request(&request).encode());
    }

    /// The writer writes every reply as the tree oracle serialises it, the
    /// bootstrap's cached text included.
    #[test]
    fn every_reply_is_written_as_its_tree_encodes(reply in reply_of(hard_message())) {
        prop_assert_eq!(reply.encode(), tree_frames::reply(&reply).encode());
        if let Reply::Welcome(.., Image::Table(image, log)) = &reply {
            let mut text = BootstrapText::new(image);
            log.iter().for_each(|m| text.push(m));
            prop_assert_eq!(text.as_str(), tree_frames::bootstrap(image, log).encode());
        }
    }

    /// Journal records: a frame of hard messages, with and without
    /// template drops, a session birth and the closed marker.
    #[test]
    fn every_journal_record_is_written_as_its_tree_encodes(
        from in any::<u64>(),
        at in any::<u64>(),
        entries in proptest::collection::vec(trace_entry(), 0..4),
        tdrops in proptest::collection::vec(any::<usize>(), 0..3),
        (worker, client) in (any::<u32>(), any::<u32>()),
    ) {
        let frame = persist::encode_journal_frame(from, at, &entries, &tdrops);
        prop_assert_eq!(frame, tree_frames::journal_frame(from, at, &entries, &tdrops).encode());
        let session = persist::encode_journal_session(worker, client, at);
        prop_assert_eq!(session, tree_frames::journal_session(worker, client, at).encode());
        prop_assert_eq!(persist::encode_journal_closed(at), tree_frames::journal_closed(at).encode());
    }

    /// The checkpoint, image, sessions and ledger.
    #[test]
    fn a_checkpoint_is_written_as_its_tree_encodes(state in backend_state()) {
        let payload = persist::encode_backend_state(&state);
        prop_assert_eq!(payload, tree_frames::backend_state(&state).encode());
    }

    #[test]
    fn every_request_round_trips_through_both_trees(request in request()) {
        obstrace::set_mode(TraceMode::All);
        let frame = request.encode();
        let borrowed = Request::decode(&wire::parse_frame(frame.as_bytes()).unwrap());
        prop_assert_eq!(borrowed.as_ref(), Ok(&request), "{}", frame);
        let owned = Request::decode(&Json::parse(&frame).unwrap());
        prop_assert_eq!(owned.as_ref(), Ok(&request), "{}", frame);
    }

    #[test]
    fn every_reply_round_trips_through_both_trees(reply in reply()) {
        obstrace::set_mode(TraceMode::All);
        let frame = reply.encode();
        let borrowed = Reply::decode(&wire::parse_frame(frame.as_bytes()).unwrap());
        prop_assert_eq!(borrowed.as_ref(), Ok(&reply), "{}", frame);
        let owned = Reply::decode(&Json::parse(&frame).unwrap());
        prop_assert_eq!(owned.as_ref(), Ok(&reply), "{}", frame);
        // The canonical encoding is a fixed point, spliced image or not.
        prop_assert_eq!(Json::parse(&frame).unwrap().encode(), frame);
    }

    /// A welcome's image, spliced in as the server's cached text, decodes
    /// to the image: every cell of every type, a float that is integral
    /// still a float, an int at ±2^53 exact.
    #[test]
    fn a_welcome_image_comes_back_exactly(image in table_image()) {
        let text = Image::Text(BootstrapText::new(&image).as_str().to_owned().into());
        let (worker, client) = (WorkerId(1), ClientId(2));
        let welcome = Reply::Welcome("c".into(), worker, client, 3, schema(), text);
        let frame = welcome.encode();
        let decoded = Reply::decode(&wire::parse_frame(frame.as_bytes()).unwrap());
        let Ok(Reply::Welcome(.., Image::Table(decoded, log))) = decoded else {
            panic!("no welcome: {frame}");
        };
        prop_assert_eq!(*decoded, image, "{}", frame);
        prop_assert!(log.is_empty());
    }
}
