//! `decode(encode(x)) == x` for every frame kind of the wire protocol, over
//! generated messages, cursors, typed table images and trace ids, through
//! both trees a decoder can be handed: the borrowed tape the two ends of
//! the socket parse, and the owned `Json` of the stores. A field an encoder writes and its
//! decoder does not read (or reads under another name, or defaults) fails
//! here. Tracing is switched on for the whole binary: a trace id is only
//! read off the wire while it is.

use crowdfill_docstore::Json;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_obs::trace::{self as obstrace, TraceId, TraceMode};
use crowdfill_pay::WorkerId;
use crowdfill_server::wire::{
    self, BootstrapText, CatchUp, Cursor, Image, Op, Reply, Request, SeqMsg,
};
use crowdfill_server::{Backend, TaskConfig};
use proptest::prelude::*;
use std::sync::Arc;
use typed_image::table_image;

#[path = "support/typed_image.rs"]
mod typed_image;

/// JSON numbers travel as f64: exactness holds below 2^53.
const MAX_EXACT: u64 = 1 << 50;

fn text() -> impl Strategy<Value = String> {
    // Printable chars of any script, quotes and backslashes among them.
    proptest::collection::vec(any::<char>(), 0..10).prop_map(|chars| chars.into_iter().collect())
}

/// A message's cell: self-describing, of any of the five types.
fn value() -> impl Strategy<Value = Value> {
    typed_image::cell()
}

fn row_value() -> impl Strategy<Value = RowValue> {
    proptest::collection::btree_map(0u16..4, value(), 0..4)
        .prop_map(|cells| RowValue::from_pairs(cells.into_iter().map(|(c, v)| (ColumnId(c), v))))
}

fn row_id() -> impl Strategy<Value = RowId> {
    (any::<u32>(), 0..MAX_EXACT).prop_map(|(c, s)| RowId::new(ClientId(c), s))
}

fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        row_id().prop_map(|row| Message::Insert { row }),
        (row_id(), row_id(), row_value()).prop_map(|(old, new, value)| Message::Replace {
            old,
            new,
            value
        }),
        row_value().prop_map(|value| Message::Upvote { value }),
        row_value().prop_map(|value| Message::Downvote { value }),
        row_value().prop_map(|value| Message::UndoUpvote { value }),
        row_value().prop_map(|value| Message::UndoDownvote { value }),
    ]
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

fn op() -> impl Strategy<Value = Op> {
    (message(), any::<bool>())
}

fn collection() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), text().prop_map(Some)]
}

fn request() -> impl Strategy<Value = Request> {
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

fn seq_msg() -> impl Strategy<Value = SeqMsg> {
    (0..MAX_EXACT, message(), trace()).prop_map(|(seq, msg, trace)| SeqMsg { seq, msg, trace })
}

/// A bootstrap: an image and the log since.
fn bootstrap() -> impl Strategy<Value = Image<'static>> {
    let log = proptest::collection::vec(message(), 0..4);
    (table_image(), log).prop_map(|(image, log)| Image::Table(Box::new(image), log))
}

fn catch_up() -> impl Strategy<Value = CatchUp<'static>> {
    let suffix = proptest::collection::vec((0..MAX_EXACT, message()), 0..5);
    prop_oneof![
        suffix.prop_map(CatchUp::Suffix),
        bootstrap().prop_map(CatchUp::Image),
    ]
}

fn reply() -> impl Strategy<Value = Reply<'static>> {
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
            bootstrap()
        )
            .prop_map(|(collection, w, c, len, image)| {
                let (worker, client) = (WorkerId(w), ClientId(c));
                Reply::Welcome(collection, worker, client, len, schema(), image)
            }),
        (text(), any::<u32>(), history_len(), catch_up())
            .prop_map(|(name, c, len, body)| Reply::Resumed(name, ClientId(c), len, body)),
        (history_len(), catch_up()).prop_map(|(len, body)| Reply::Synced(len, body)),
        (estimate, any::<bool>(), seqs, trace())
            .prop_map(|(e, fulfilled, seqs, t)| Reply::Ack(e, fulfilled, seqs, t)),
        (text(), trace()).prop_map(|(reason, t)| Reply::Reject(reason, t)),
        (history_len(), trace()).prop_map(|(ms, t)| Reply::Overloaded(ms, t)),
        Just(Reply::Lagging),
        text().prop_map(Reply::Stats),
        Just(Reply::Health(report)),
        text().prop_map(Reply::TraceDump),
        seq_msg().prop_map(Reply::Msg),
        proptest::collection::vec(seq_msg(), 0..5).prop_map(Reply::Batch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
