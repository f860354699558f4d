//! Byte-identity of the interned/arena model, end to end: a deterministic
//! op script is serialized through the wire codec, applied through the
//! backend, and journaled into the docstore WAL — and every layer's bytes
//! are pinned against the checked-in fixture
//! (`tests/fixtures/wire_history.txt`), which was captured before the
//! zero-copy refactor. If interning, `Arc`-backed rows, or the borrowed
//! frame decoder ever change what goes over the wire or into the journal,
//! this fails.
//!
//! Regenerate with `UPDATE_FIXTURE=1 cargo test -p crowdfill-server
//! --test wire_fixture` after an *intentional* format change.

use crowdfill_docstore::{FsyncPolicy, Json, JsonRef, Wal};
use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_pay::Millis;
use crowdfill_server::{wire, Backend, TaskConfig, WorkerClient};
use crowdfill_sync::AppliedSeqs;
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/wire_history.txt");

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "Fixture",
            vec![
                Column::new("name", DataType::Text),
                Column::new("caps", DataType::Int),
                Column::new("rating", DataType::Float),
                Column::new("active", DataType::Bool),
                Column::new("dob", DataType::Date),
            ],
            &["name"],
        )
        .unwrap(),
    )
}

fn config() -> TaskConfig {
    TaskConfig::new(
        schema(),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(2),
        10.0,
    )
}

/// One worker runs a fixed fill/vote script against a fresh backend.
/// Returns the backend and the number of pre-script history entries (the
/// template bootstrap inserts, which predate any WAL attachment).
fn run_script(wal: Option<Wal>) -> (Backend, usize) {
    let mut backend = Backend::new(config());
    if let Some(wal) = wal {
        backend.attach_wal(wal);
    }
    let (id, client_id, history) = backend.connect(Millis(0));
    let preamble = history.len();
    let mut client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
    let mut applied = AppliedSeqs::new();
    applied.note_prefix(history.len() as u64);
    let (id2, client_id2, history2) = backend.connect(Millis(0));
    let mut voter = WorkerClient::new(id2, client_id2, backend.config().schema.clone(), &history2);
    let mut applied2 = AppliedSeqs::new();
    applied2.note_prefix(history2.len() as u64);

    let submit_all = |id: crowdfill_pay::WorkerId,
                      client: &mut WorkerClient,
                      applied: &mut AppliedSeqs,
                      backend: &mut Backend,
                      outs: Vec<crowdfill_server::Outgoing>| {
        for out in outs {
            let report = backend
                .submit(id, out.msg, Millis(1), out.auto_upvote)
                .expect("fixture script op rejected");
            for s in report.seqs {
                applied.note(s);
            }
        }
        for (seq, msg) in backend.poll_seq(id) {
            if applied.note(seq) {
                client.absorb(&msg);
            }
        }
    };

    // Deterministic row selection: the lowest row id with the given column
    // still empty (fills replace rows under fresh ids, so positional
    // indexing would drift).
    let row_with_empty = |client: &WorkerClient, col: ColumnId| -> RowId {
        let table = client.replica().table();
        let schema = client.replica().schema();
        let mut ids: Vec<RowId> = table.row_ids().collect();
        ids.sort();
        ids.into_iter()
            .find(|r| {
                table
                    .get(*r)
                    .unwrap()
                    .value
                    .empty_columns(schema)
                    .any(|c| c == col)
            })
            .expect("no row with that column empty")
    };
    let complete_row = |client: &WorkerClient| -> RowId {
        let table = client.replica().table();
        let schema = client.replica().schema();
        let mut ids: Vec<RowId> = table.row_ids().collect();
        ids.sort();
        ids.into_iter()
            .find(|r| table.get(*r).unwrap().value.is_complete(schema))
            .expect("no complete row")
    };

    // First row fills column by column (text exercises escapes and
    // non-ASCII; the final fill triggers the automatic upvote).
    let fills = [
        (ColumnId(0), Value::text("Pelé \"O Rei\"")),
        (ColumnId(1), Value::int(77)),
        (ColumnId(2), Value::try_float(9.5).unwrap()),
        (ColumnId(3), Value::Bool(false)),
        (ColumnId(4), Value::date(1940, 10, 23)),
    ];
    let mut target = row_with_empty(&client, ColumnId(0));
    for (col, value) in fills {
        let outs = client.fill(target, col, value).unwrap();
        if let Message::Replace { new, .. } = &outs[0].msg {
            target = *new;
        }
        submit_all(id, &mut client, &mut applied, &mut backend, outs);
    }

    // Second row gets a partial fill; then the second worker (who cast no
    // automatic upvote) downvotes the complete row.
    let r = row_with_empty(&client, ColumnId(0));
    let outs = client
        .fill(r, ColumnId(0), Value::text("Garrincha\tAnjo"))
        .unwrap();
    submit_all(id, &mut client, &mut applied, &mut backend, outs);

    for (seq, msg) in backend.poll_seq(id2) {
        if applied2.note(seq) {
            voter.absorb(&msg);
        }
    }
    let complete = complete_row(&voter);
    let out = voter.downvote(complete).unwrap();
    submit_all(id2, &mut voter, &mut applied2, &mut backend, vec![out]);

    (backend, preamble)
}

fn history_lines(backend: &Backend) -> Vec<String> {
    backend
        .history_suffix(0)
        .iter()
        .map(|(seq, m)| format!("{seq}:{}", wire::message_to_json(m).encode()))
        .collect()
}

/// The wire bytes of the scripted history match the checked-in fixture.
#[test]
fn scripted_history_matches_fixture() {
    let (backend, _) = run_script(None);
    let lines = history_lines(&backend);
    if std::env::var("UPDATE_FIXTURE").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/wire_history.txt"
        );
        std::fs::write(path, lines.join("\n") + "\n").unwrap();
        panic!("fixture regenerated at {path}; rerun without UPDATE_FIXTURE");
    }
    let expected: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(
        lines, expected,
        "scripted history drifted from the checked-in wire bytes"
    );
}

/// Every fixture line survives decode → re-encode byte-identically, through
/// both the owned and the borrowed decoder, and the two agree.
#[test]
fn fixture_lines_roundtrip_both_decoders() {
    for line in FIXTURE.lines() {
        let (_, payload) = line.split_once(':').expect("seq:json fixture line");
        let owned = wire::message_from_json(&Json::parse(payload).unwrap()).unwrap();
        let borrowed = wire::message_from_json(&JsonRef::parse(payload).unwrap()).unwrap();
        assert_eq!(owned, borrowed, "decoders disagree on {payload}");
        assert_eq!(
            wire::message_to_json(&owned).encode(),
            payload,
            "re-encode is not byte-identical"
        );
    }
}

/// Replaying the fixture messages through a fresh backend (decoded via the
/// borrowed path, as the TCP service would) reproduces the same history
/// bytes — decode feeds apply without altering the op stream.
#[test]
fn fixture_replay_reproduces_history() {
    let mut backend = Backend::new(config());
    let (id, _, history) = backend.connect(Millis(0));
    let (voter, _, _) = backend.connect(Millis(0));
    let preamble = history.len();
    for line in FIXTURE.lines().skip(preamble) {
        let (_, payload) = line.split_once(':').unwrap();
        let msg: Message = wire::message_from_json(&JsonRef::parse(payload).unwrap()).unwrap();
        // The script's downvote came from the second worker (the first
        // already holds the automatic upvote on that value); everything
        // else is the first worker's. Replayed fills never auto-upvote:
        // the upvotes are their own ops in the recorded stream.
        let who = match &msg {
            Message::Downvote { .. } => voter,
            _ => id,
        };
        backend
            .submit(who, msg, Millis(1), false)
            .expect("fixture replay op rejected");
    }
    assert_eq!(history_lines(&backend), FIXTURE.lines().collect::<Vec<_>>());
}

/// The docstore journal holds the same bytes: each WAL frame's messages
/// re-encode to exactly the fixture lines they journaled.
#[test]
fn journal_frames_match_fixture() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "crowdfill-wire-fixture-{}-{:x}.wal",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let wal = Wal::open_with(&path, FsyncPolicy::EveryN(1), |_| {}).unwrap();
    let (backend, preamble) = run_script(Some(wal));
    drop(backend);

    let mut journaled: Vec<String> = Vec::new();
    let _wal = Wal::open(&path, |record| {
        let frame = Json::parse(std::str::from_utf8(record).unwrap()).unwrap();
        // The journal also carries non-frame records (session births, the
        // closed marker); only history frames hold fixture messages.
        let Some(from) = frame.get("from").and_then(Json::as_i64) else {
            return;
        };
        let from = from as u64;
        for (i, msg) in frame
            .get("msgs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .enumerate()
        {
            journaled.push(format!("{}:{}", from + i as u64, msg.encode()));
        }
    })
    .unwrap();
    std::fs::remove_file(&path).ok();

    let expected: Vec<&str> = FIXTURE.lines().skip(preamble).collect();
    assert_eq!(
        journaled, expected,
        "journal bytes drifted from the wire bytes"
    );
}
