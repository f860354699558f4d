//! Property tests: arbitrary JSON values roundtrip through the canonical
//! encoder/parser, and encoding is canonical (equal values → equal bytes);
//! the tape grammar accepts, rejects and reads exactly what the tree
//! parser it replaced did (`support/tree_parser.rs`, the oracle), and the
//! writer writes exactly what the tree serializer it replaced did
//! (`support/tree_writer.rs`).

#[path = "support/tree_parser.rs"]
mod tree_parser;
#[path = "support/tree_writer.rs"]
mod tree_writer;

use crowdfill_docstore::{Json, JsonError, JsonNode, Tape};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The frames of every request and reply kind, as the server's codec
/// writes them (`crates/server/tests/wire_frames.rs`).
const WIRE_FRAMES: &str = include_str!("../../server/tests/fixtures/wire_frames.txt");

/// The bytes a mutation writes: structure, literal and number starts,
/// escapes, and a control character.
const MUTATIONS: &[u8] = b"{}[]\",:\\ 0123456789-+.eEtfnulx\x01\x7f";

fn wire_frames() -> Vec<&'static str> {
    let frames = WIRE_FRAMES.lines().filter_map(|l| l.split_once('\t'));
    frames.map(|(_, frame)| frame).collect()
}

/// The tape's reading of `input`, materialised, beside the oracle's: the
/// same value or the same error.
fn same_as_oracle(input: &str) -> Result<(), TestCaseError> {
    let tape: Result<Json, JsonError> = Tape::parse(input).map(|t| t.root().to_json());
    prop_assert_eq!(&tape, &tree_parser::parse(input), "input {:?}", input);
    prop_assert_eq!(Json::parse(input), tape);
    Ok(())
}

fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite doubles only; JSON has no NaN/Inf.
        (-1e12f64..1e12).prop_map(Json::Num),
        any::<i32>().prop_map(|i| Json::Num(i as f64)),
        "[\\x00-\\x7F«✓🦀]{0,12}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 32, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| Json::Obj(m.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

/// A string of what needs care: quotes, backslashes, every control
/// character, DEL, non-ASCII text of one to four bytes, or nothing.
fn hard_string() -> impl Strategy<Value = String> {
    let hard = prop_oneof![
        (0u8..0x20).prop_map(char::from),
        Just('"'),
        Just('\\'),
        Just('\x7f'),
        Just('/'),
        Just('é'),
        Just('✓'),
        Just('🦀'),
        any::<char>(),
        (b'a'..=b'z').prop_map(char::from),
    ];
    proptest::collection::vec(hard, 0..16).prop_map(|chars| chars.into_iter().collect())
}

/// A number at the edges of its two forms: integers out to ±2^53 and past
/// ±10^15, integral and negative floats, fractions, and the extremes.
fn hard_number() -> impl Strategy<Value = f64> {
    const EXACT: i64 = 1 << 53;
    prop_oneof![
        (-EXACT..=EXACT).prop_map(|n| n as f64),
        prop_oneof![Just(EXACT), Just(-EXACT), Just(EXACT + 1), Just(-EXACT - 1)]
            .prop_map(|n| n as f64),
        (-3i64..=3).prop_map(|d| (1_000_000_000_000_000 + d) as f64),
        (-3i64..=3).prop_map(|d| (-1_000_000_000_000_000 + d) as f64),
        any::<i64>().prop_map(|n| n as f64),
        -1e6f64..1e6,
        (-1000i32..1000).prop_map(|n| f64::from(n) / 8.0),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MAX),
            Just(f64::MIN),
            Just(f64::MIN_POSITIVE),
            Just(1e300),
            Just(-1e-300),
            Just(f64::NAN),
            Just(f64::INFINITY),
        ],
    ]
}

/// A tree of hard strings (as values and as keys) and hard numbers.
fn hard_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        hard_number().prop_map(Json::Num),
        hard_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 32, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::btree_map(hard_string(), inner, 0..6).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Json::encode` walks the tree through the writer and writes exactly
    /// the text the tree serializer wrote.
    #[test]
    fn encode_writes_what_the_tree_serializer_wrote(v in hard_json()) {
        prop_assert_eq!(v.encode(), tree_writer::encode(&v));
    }

    #[test]
    fn roundtrip(v in json_strategy()) {
        let encoded = v.encode();
        let parsed = Json::parse(&encoded).map_err(|e| {
            TestCaseError::fail(format!("{e} while parsing {encoded:?}"))
        })?;
        prop_assert_eq!(&parsed, &v);
        // Canonical: re-encoding the parse is byte-identical.
        prop_assert_eq!(parsed.encode(), encoded);
    }

    /// The parser never panics on arbitrary input, and it errs exactly
    /// where and how the tree parser did.
    #[test]
    fn parser_total(input in "\\PC{0,64}") {
        same_as_oracle(&input)?;
    }

    /// Every document reads back as the value it encodes, through the tape
    /// and its handles.
    #[test]
    fn tape_reads_what_the_tree_reads(v in json_strategy()) {
        let encoded = v.encode();
        let tape = Tape::parse(&encoded).unwrap();
        prop_assert_eq!(&tape.root().to_json(), &v);
        if let Json::Obj(members) = &v {
            for (key, value) in members {
                prop_assert_eq!(&tape.root().get(key).map(JsonNode::to_json), &Some(value.clone()));
            }
        }
        if let Json::Arr(items) = &v {
            let read: Vec<Json> = tape.root().items().unwrap().map(JsonNode::to_json).collect();
            prop_assert_eq!(&read, items);
        }
        same_as_oracle(&encoded)?;
    }

    /// A wire frame with one byte replaced, inserted or removed: the same
    /// decision and the same error as the tree parser.
    #[test]
    fn mutated_wire_frames(frame in 0usize..64, at in 0usize..4096, byte in 0usize..64,
                           edit in 0u8..3) {
        let frames = wire_frames();
        let mut bytes = frames[frame % frames.len()].as_bytes().to_vec();
        let at = at % (bytes.len() + 1);
        let byte = MUTATIONS[byte % MUTATIONS.len()];
        match edit {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => { bytes.remove(at); }
            _ => bytes.truncate(at),
        }
        if let Ok(text) = std::str::from_utf8(&bytes) {
            same_as_oracle(text)?;
        }
    }

    /// A repeated key resolves to its last occurrence, in the tape's `get`
    /// and in the materialised tree.
    #[test]
    fn duplicate_keys_resolve_last_wins(values in proptest::collection::vec(any::<i32>(), 1..6),
                                        key in "[a-c]") {
        let members: Vec<String> = values.iter().enumerate()
            .map(|(i, v)| format!("\"{}\":{v}", if i % 2 == 0 { key.as_str() } else { "z" }))
            .collect();
        let doc = format!("{{{}}}", members.join(","));
        let last = values.iter().step_by(2).next_back().map(|v| *v as i64);
        let tape = Tape::parse(&doc).unwrap();
        prop_assert_eq!(tape.root().get(&key).and_then(JsonNode::as_i64), last);
        prop_assert_eq!(Json::parse(&doc).unwrap().get(&key).and_then(Json::as_i64), last);
        same_as_oracle(&doc)?;
    }

    /// Whitespace insertion around structure is accepted.
    #[test]
    fn whitespace_insensitive(v in json_strategy()) {
        let encoded = v.encode();
        let spaced: String = encoded
            .chars()
            .flat_map(|c| {
                // Safe only outside strings; cheap check: skip if any string
                // chars present (quotes make splicing unsound).
                if c == ',' { vec![c, ' '] } else { vec![c] }
            })
            .collect();
        if !encoded.contains('"') {
            prop_assert_eq!(Json::parse(&spaced).unwrap(), v);
        }
    }
}

/// Every fixture frame reads the same through the tape as through the
/// tree parser.
#[test]
fn wire_frames_read_as_the_oracle_reads_them() {
    for frame in wire_frames() {
        same_as_oracle(frame).unwrap();
    }
}

/// 128 nested containers are a document; 129 are refused, at the same
/// byte and with the same message as before.
#[test]
fn nesting_limit_is_128() {
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        for depth in [127, 128, 129, 200] {
            let doc = open.repeat(depth) + "[]" + &close.repeat(depth);
            same_as_oracle(&doc).unwrap();
            let nested = open.repeat(depth - 1) + "[]" + &close.repeat(depth - 1);
            assert_eq!(
                Tape::parse(&nested).is_ok(),
                depth <= 128,
                "{open} x {depth}"
            );
        }
    }
}
