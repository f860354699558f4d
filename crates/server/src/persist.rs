//! Backend durability: checkpoint images, journal records, and the
//! crash-recovery driver (DESIGN.md §14).
//!
//! A long-lived collection persists through two artifacts under one
//! directory:
//!
//! * `journal.wal` — the CRC-framed history journal the backend appends
//!   every accepted submission to (plus session births and the closed
//!   marker), and
//! * `snapshots/` — versioned, CRC-framed checkpoint images of the live
//!   state at a history watermark (`base_seq`), written crash-atomically.
//!
//! Both formats live here and nowhere else: the payload codec, whose table
//! is the wire's [`TableImage`] in that image's one codec (a joiner and a
//! recovery build their replica from the same image), and one journal
//! encoder per record shape (the backend hands them a slice of its op log)
//! beside the one decoder recovery reads them back with.
//!
//! Recovery composes them: load the newest sound snapshot (corrupt files
//! degrade to older ones, then to a full journal replay), rebuild the
//! backend from the image, replay the journal suffix at or above the
//! watermark, and re-derive the Central Client's matching once at the end.
//! Replay cost is O(live state + journal suffix), independent of lifetime
//! history once compaction runs.
//!
//! Settlement survives a restart whole: the image carries the settlement
//! [`Ledger`], so a recovered collection pays exactly what it would have
//! paid had it never stopped. What deliberately does **not** survive
//! (scoped to the current process run): the action trace below the
//! checkpoint, estimator state (compensation estimates re-warm), and the
//! values of dead row lineages (only live rows are imaged — the
//! O(live-state) requirement).

use crate::backend::Backend;
use crate::config::TaskConfig;
use crate::wire::{self, TableImage};
use crowdfill_docstore::{
    write_json, Disk, FsyncPolicy, JsonNode, JsonWriter, ObjectWriter, RealDisk, SnapshotStore,
    Tape, TapeNode, Wal,
};
use crowdfill_model::{ClientId, ColumnId, Message, RowValue, Schema};
use crowdfill_pay::{FirstFill, Ledger, Millis, TraceEntry, Unit, Vote, WorkerId};
use crowdfill_sync::Replica;
use std::path::Path;
use std::sync::Arc;

/// Snapshot payload format version (2: the settlement ledger; 3: the
/// table as the wire's [`TableImage`]; 4: that image typed and positional).
const STATE_VERSION: f64 = 4.0;

/// Per-worker session state inside a checkpoint image: identity plus the
/// §3.4 vote-policy bookkeeping (what the worker has voted on), which is
/// exactly what the backend needs to keep enforcing the policy across a
/// restart. Connection state is *not* imaged — every recovered session
/// starts disconnected.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    pub worker: u32,
    pub client: u32,
    pub epoch: u64,
    pub ops: u64,
    pub confirmed: u64,
    /// Row values voted on, `true` = upvote (ascending by value).
    pub voted: Vec<(RowValue, bool)>,
    /// Primary-key projections upvoted (ascending).
    pub upvoted_keys: Vec<RowValue>,
}

/// A point-in-time image of a [`Backend`]'s live state — the snapshot
/// payload. Everything here is either impossible or unsound to re-derive
/// from the task config alone: the CRDT vote histories and live rows, the
/// live/dropped template partition (drops depend on the pre-crash
/// matching), session vote state, the id counters, and the settlement
/// ledger (the log it folded is gone below the watermark).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendState {
    /// History watermark: every seq below this is inside the image.
    pub base_seq: u64,
    /// Server clock at capture.
    pub at_ms: u64,
    pub next_worker: u32,
    pub closed: bool,
    /// The Central Client's row-id counter.
    pub cc_next_seq: u64,
    /// The master table: live rows and vote histories, in the one codec a
    /// bootstrap uses too.
    pub image: TableImage,
    /// Original template indexes still live.
    pub live_template: Vec<usize>,
    /// Original template indexes the CC dropped (§4.2 degenerate case).
    pub dropped_template: Vec<usize>,
    pub sessions: Vec<SessionState>,
    pub ledger: Ledger,
}

impl BackendState {
    /// The Central Client's replica as checkpointed — the server's one copy
    /// of the table — built from the image as every joiner's is.
    pub fn central_replica(&self, schema: Arc<Schema>) -> Replica {
        (self.image).replica(ClientId::CENTRAL, schema, self.cc_next_seq)
    }
}

/// One journaled history message with its recovery attribution.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    pub seq: u64,
    pub msg: Message,
    /// Originating worker id; 0 means the Central Client.
    pub worker: u32,
    /// Whether this was an automatic completion upvote (§3.4).
    pub auto: bool,
}

/// One decoded journal frame: the history delta of a single
/// submit/modify/batch, plus any template drops it caused.
#[derive(Debug, Clone)]
pub struct JournalFrame {
    pub from: u64,
    /// Server clock when the frame was written.
    pub at: u64,
    pub entries: Vec<JournalEntry>,
    /// Original template indexes dropped while applying this delta.
    pub tdrops: Vec<usize>,
}

/// Any record the backend writes to its journal.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    Frame(JournalFrame),
    /// A session birth ([`Backend::connect`]).
    Session {
        worker: u32,
        client: u32,
        at: u64,
    },
    /// The collection-closed marker ([`Backend::settle`]).
    Closed {
        at: u64,
    },
}

/// Durability tuning for a served collection. The directory itself is
/// supplied per-collection by the caller (the TCP service uses one
/// subdirectory per collection name).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Journal fsync policy (default: every append — an acked op is a
    /// durable op).
    pub fsync: FsyncPolicy,
    /// Snapshots retained on disk (≥ 1; 2 keeps one fallback).
    pub keep_snapshots: usize,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            keep_snapshots: 2,
        }
    }
}

// ---- snapshot payload codec -------------------------------------------------

/// Encodes a checkpoint image as its JSON snapshot payload.
pub fn encode_backend_state(state: &BackendState) -> String {
    let indexes = |w: JsonWriter<'_>, xs: &[usize]| {
        w.arr(|a| xs.iter().for_each(|i| a.item().uint(*i as u64)));
    };
    write_json(state_capacity(state), |w| {
        w.obj(|o| {
            o.key("at").uint(state.at_ms);
            o.key("base").uint(state.base_seq);
            o.key("cc_next_seq").uint(state.cc_next_seq);
            o.key("closed").bool(state.closed);
            indexes(o.key("dropped"), &state.dropped_template);
            state.image.write(o.key("image"));
            write_ledger(o.key("ledger"), &state.ledger);
            indexes(o.key("live"), &state.live_template);
            o.key("next_worker").uint(state.next_worker.into());
            o.key("sessions").arr(|a| {
                for s in &state.sessions {
                    a.item().obj(|o| write_session(o, s));
                }
            });
            o.key("v").num(STATE_VERSION);
        });
    })
}

/// A session's members: ids, counters, and the values it voted on.
fn write_session(o: &mut ObjectWriter<'_, '_>, s: &SessionState) {
    o.key("client").uint(s.client.into());
    o.key("confirmed").uint(s.confirmed);
    o.key("epoch").uint(s.epoch);
    o.key("keys").arr(|a| {
        for key in &s.upvoted_keys {
            wire::write_row_value(a.item(), key);
        }
    });
    o.key("ops").uint(s.ops);
    o.key("voted").arr(|a| {
        for (value, up) in &s.voted {
            a.item().arr(|pair| {
                wire::write_row_value(pair.item(), value);
                pair.item().uint(u8::from(*up).into());
            });
        }
    });
    o.key("worker").uint(s.worker.into());
}

/// About how many bytes a checkpoint writes to.
fn state_capacity(state: &BackendState) -> usize {
    let l = &state.ledger;
    let entries = l.cells.len() + l.first.len() + l.votes.len() + l.last_at.len();
    state.image.capacity() + 256 * (1 + entries + state.sessions.len())
}

fn int(j: TapeNode) -> Option<u64> {
    u64::try_from(j.as_i64()?).ok()
}

/// A ledger unit as `[seq, worker, at, latency | null]`, no unit as `null`.
fn write_unit(w: JsonWriter<'_>, u: Option<&Unit>) {
    let Some(u) = u else { return w.null() };
    w.arr(|a| {
        a.item().uint(u.seq);
        a.item().uint(u.worker.0.into());
        a.item().uint(u.at.0);
        match u.latency {
            Some(l) => a.item().uint(l.0),
            None => a.item().null(),
        }
    });
}

fn unit_from_json(j: TapeNode) -> Option<Option<Unit>> {
    if j.is_null() {
        return Some(None);
    }
    let latency = match j.at(3)? {
        l if l.is_null() => None,
        l => Some(Millis(int(l)?)),
    };
    let (seq, at) = (int(j.at(0)?)?, Millis(int(j.at(2)?)?));
    let worker = WorkerId(int(j.at(1)?)? as u32);
    Some(Some(Unit {
        seq,
        worker,
        at,
        latency,
    }))
}

/// The ledger as four arrays, in its maps' order: `cells` `[row, [[col,
/// unit]…]]`, `first` `[col, value, at, unit | null, row value]`, `votes`
/// `[worker, up, value, [[unit, auto]…]]` and `last` `[worker, at]`.
fn write_ledger(w: JsonWriter<'_>, l: &Ledger) {
    w.obj(|o| {
        o.key("cells").arr(|a| {
            for (row, fills) in &l.cells {
                a.item().arr(|e| {
                    wire::write_row_id(e.item(), *row);
                    e.item().arr(|fills_w| {
                        for (c, u) in fills {
                            fills_w.item().arr(|fill| {
                                fill.item().uint(c.0.into());
                                write_unit(fill.item(), Some(u));
                            });
                        }
                    });
                });
            }
        });
        o.key("first").arr(|a| {
            for ((c, v), f) in &l.first {
                a.item().arr(|e| {
                    e.item().uint(c.0.into());
                    wire::write_value(e.item(), v);
                    e.item().uint(f.at.0);
                    write_unit(e.item(), f.unit.as_ref());
                    wire::write_row_value(e.item(), &f.row);
                });
            }
        });
        o.key("last").arr(|a| {
            for (w, at) in &l.last_at {
                a.item().arr(|e| {
                    e.item().uint(w.0.into());
                    e.item().uint(at.0);
                });
            }
        });
        o.key("votes").arr(|a| {
            for ((w, up, v), live) in &l.votes {
                a.item().arr(|e| {
                    e.item().uint(w.0.into());
                    e.item().bool(*up);
                    wire::write_row_value(e.item(), v);
                    e.item().arr(|votes| {
                        for x in live {
                            votes.item().arr(|vote| {
                                write_unit(vote.item(), Some(&x.unit));
                                vote.item().bool(x.auto);
                            });
                        }
                    });
                });
            }
        });
    });
}

fn ledger_from_json(j: TapeNode) -> Option<Ledger> {
    let each = |key: &str| j.get(key)?.items();
    let col = |c| Some(ColumnId(int(c)? as u16));
    let worker = |w| Some(WorkerId(int(w)? as u32));
    let mut ledger = Ledger::default();
    for e in each("cells")? {
        let fills = e.at(1)?.items()?;
        let fills = fills.map(|f| Some((col(f.at(0)?)?, unit_from_json(f.at(1)?)??)));
        let row = wire::row_id_from_json(e.at(0)?).ok()?;
        ledger.cells.insert(row, fills.collect::<Option<_>>()?);
    }
    for e in each("first")? {
        let (at, unit) = (Millis(int(e.at(2)?)?), unit_from_json(e.at(3)?)?);
        let row = wire::row_value_from_json(e.at(4)?).ok()?;
        let key = (col(e.at(0)?)?, wire::value_from_json(e.at(1)?).ok()?);
        ledger.first.insert(key, FirstFill { at, unit, row });
    }
    for e in each("votes")? {
        let vote = |x: TapeNode| {
            let (unit, auto) = (unit_from_json(x.at(0)?)??, x.at(1)?.as_bool()?);
            Some(Vote { unit, auto })
        };
        let live = e.at(3)?.items()?.map(vote);
        let value = wire::row_value_from_json(e.at(2)?).ok()?;
        let key = (worker(e.at(0)?)?, e.at(1)?.as_bool()?, value);
        ledger.votes.insert(key, live.collect::<Option<_>>()?);
    }
    for e in each("last")? {
        ledger
            .last_at
            .insert(worker(e.at(0)?)?, Millis(int(e.at(1)?)?));
    }
    Some(ledger)
}

/// Decodes a snapshot payload from its tape (one parse, no owned tree).
/// `None` on any structural mismatch — an image without its ledger
/// included, which must not settle as if nothing had happened before it —
/// or another version, and the recovery driver then degrades to the next-older snapshot's
/// semantics (fresh backend + full journal replay).
pub fn decode_backend_state(payload: &[u8]) -> Option<BackendState> {
    let text = std::str::from_utf8(payload).ok()?;
    let tape = Tape::parse(text).ok()?;
    let json = tape.root();
    if json.get("v")?.as_f64()? != STATE_VERSION {
        return None;
    }
    let indexes = |key: &str| -> Option<Vec<usize>> {
        json.get(key)?
            .items()?
            .map(|i| Some(i.as_i64()? as usize))
            .collect()
    };
    let sessions: Vec<SessionState> = json
        .get("sessions")?
        .items()?
        .map(|s| {
            let voted: Vec<(RowValue, bool)> = s
                .get("voted")?
                .items()?
                .map(|pair| {
                    let v = wire::row_value_from_json(pair.at(0)?).ok()?;
                    Some((v, pair.at(1)?.as_i64()? != 0))
                })
                .collect::<Option<_>>()?;
            let upvoted_keys: Vec<RowValue> = s
                .get("keys")?
                .items()?
                .map(|v| wire::row_value_from_json(v).ok())
                .collect::<Option<_>>()?;
            Some(SessionState {
                worker: s.get("worker")?.as_i64()? as u32,
                client: s.get("client")?.as_i64()? as u32,
                epoch: s.get("epoch")?.as_i64()? as u64,
                ops: s.get("ops")?.as_i64()? as u64,
                confirmed: s.get("confirmed")?.as_i64()? as u64,
                voted,
                upvoted_keys,
            })
        })
        .collect::<Option<_>>()?;
    Some(BackendState {
        base_seq: json.get("base")?.as_i64()? as u64,
        at_ms: json.get("at")?.as_i64()? as u64,
        next_worker: json.get("next_worker")?.as_i64()? as u32,
        closed: json.get("closed")?.as_bool()?,
        cc_next_seq: json.get("cc_next_seq")?.as_i64()? as u64,
        image: TableImage::from_json(json.get("image")?).ok()?,
        live_template: indexes("live")?,
        dropped_template: indexes("dropped")?,
        sessions,
        ledger: ledger_from_json(json.get("ledger")?)?,
    })
}

// ---- journal record codec ---------------------------------------------------

/// Encodes a history-delta frame, `{"from": N, "at": ms, "msgs": [...],
/// "workers": [...], "auto": [...], "tdrops": [...]?}`: the op-log slice
/// `entries` starting at seq `from` — each message with the attribution
/// recovery rebuilds per-session vote state and the action trace from
/// (worker 0 is the Central Client) — and, unless there are none, the
/// original indexes of the template rows dropped while applying it.
pub fn encode_journal_frame(
    from: u64,
    at: u64,
    entries: &[TraceEntry],
    tdrops: &[usize],
) -> String {
    let capacity = 96 + 8 * tdrops.len();
    let capacity = capacity
        + entries
            .iter()
            .map(|e| 8 + wire::message_capacity(&e.msg))
            .sum::<usize>();
    let column = |w: JsonWriter<'_>, f: &dyn Fn(&TraceEntry) -> u64| {
        w.arr(|a| entries.iter().for_each(|e| a.item().uint(f(e))));
    };
    write_json(capacity, |w| {
        w.obj(|o| {
            o.key("at").uint(at);
            column(o.key("auto"), &|e| e.auto_upvote.into());
            o.key("from").uint(from);
            o.key("msgs").arr(|a| {
                for e in entries {
                    wire::write_message(a.item(), &e.msg);
                }
            });
            if !tdrops.is_empty() {
                o.key("tdrops")
                    .arr(|a| tdrops.iter().for_each(|i| a.item().uint(*i as u64)));
            }
            column(o.key("workers"), &|e| e.worker.map_or(0, |w| w.0).into());
        });
    })
}

/// Encodes a session-birth record ([`Backend::connect`]).
pub fn encode_journal_session(worker: u32, client: u32, at: u64) -> String {
    write_json(64, |w| {
        w.obj(|o| {
            o.key("session").obj(|s| {
                s.key("at").uint(at);
                s.key("client").uint(client.into());
                s.key("worker").uint(worker.into());
            });
        });
    })
}

/// Encodes the collection-closed marker ([`Backend::close`]).
pub fn encode_journal_closed(at: u64) -> String {
    write_json(40, |w| {
        w.obj(|o| {
            o.key("at").uint(at);
            o.key("closed").bool(true);
        });
    })
}

/// Decodes one journal record (any of the shapes the backend writes).
/// Frames written before the attribution extension (no `workers`/`auto`/
/// `at` fields) decode with Central-Client attribution and clock 0 — their
/// messages still replay correctly.
pub fn decode_journal_record(payload: &[u8]) -> Option<JournalRecord> {
    let text = std::str::from_utf8(payload).ok()?;
    let tape = Tape::parse(text).ok()?;
    let json = tape.root();
    let at = || json.get("at").and_then(TapeNode::as_i64).unwrap_or(0) as u64;
    if let Some(s) = json.get("session") {
        return Some(JournalRecord::Session {
            worker: s.get("worker")?.as_i64()? as u32,
            client: s.get("client")?.as_i64()? as u32,
            at: s.get("at").and_then(TapeNode::as_i64).unwrap_or(0) as u64,
        });
    }
    if json.get("closed").and_then(TapeNode::as_bool) == Some(true) {
        return Some(JournalRecord::Closed { at: at() });
    }
    let from = json.get("from")?.as_i64()? as u64;
    let msgs = json.get("msgs")?.items()?;
    // A short or absent attribution column reads as 0 past its end.
    let column = |key| {
        json.get(key)
            .and_then(TapeNode::items)
            .into_iter()
            .flatten()
    };
    let (mut workers, mut autos) = (column("workers"), column("auto"));
    let mut entries = Vec::with_capacity(msgs.len());
    for (i, m) in msgs.enumerate() {
        let msg = wire::message_from_json(m).ok()?;
        let worker = workers.next().and_then(TapeNode::as_i64).unwrap_or(0) as u32;
        let auto = autos.next().and_then(TapeNode::as_i64).unwrap_or(0) != 0;
        entries.push(JournalEntry {
            seq: from + i as u64,
            msg,
            worker,
            auto,
        });
    }
    let tdrops = column("tdrops")
        .filter_map(TapeNode::as_i64)
        .map(|n| n as usize)
        .collect();
    Some(JournalRecord::Frame(JournalFrame {
        from,
        at: at(),
        entries,
        tdrops,
    }))
}

// ---- recovery driver --------------------------------------------------------

/// Opens (or recovers) a durable backend rooted at `dir` on the real
/// filesystem. See [`open_or_recover_on`].
pub fn open_or_recover(
    config: TaskConfig,
    dir: impl AsRef<Path>,
    opts: &DurabilityOptions,
) -> std::io::Result<Backend> {
    open_or_recover_on(Arc::new(RealDisk), config, dir, opts)
}

/// Opens (or recovers) a durable backend rooted at `dir` on an explicit
/// [`Disk`] (fault injection goes here):
///
/// 1. load the newest sound snapshot from `dir/snapshots/` (corrupt files
///    degrade to older ones, then to none);
/// 2. rebuild the backend from the image — or run the deterministic fresh
///    initialization when no image is usable;
/// 3. replay the journal suffix from `dir/journal.wal` (entries below the
///    snapshot watermark skip; a torn tail was already truncated by the
///    WAL's CRC scan);
/// 4. re-derive the Central Client's matching once, and attach the journal
///    and snapshot store for continued operation.
///
/// Errors mean recovery is genuinely impossible without losing acked
/// operations (disk fault, or a journal gap after the last sound
/// snapshot) — the caller should surface them, not serve a partial state.
pub fn open_or_recover_on(
    disk: Arc<dyn Disk>,
    config: TaskConfig,
    dir: impl AsRef<Path>,
    opts: &DurabilityOptions,
) -> std::io::Result<Backend> {
    let dir = dir.as_ref();
    disk.create_dir_all(dir)?;
    let snapshots = SnapshotStore::open_on(
        Arc::clone(&disk),
        dir.join("snapshots"),
        opts.keep_snapshots,
    )?;
    let snap = snapshots.load_latest()?;
    let mut backend = match &snap {
        Some(s) => {
            match decode_backend_state(&s.payload).filter(|s| s.image.fits(&config.schema)) {
                Some(state) => Backend::from_state(config, &state),
                None => {
                    crowdfill_obs::metrics::counter("crowdfill_snapshot_corrupt").inc();
                    crowdfill_obs::obs_warn!(
                        "server",
                        "snapshot payload undecodable or of another schema; falling back to full journal replay";
                        base_seq => s.base_seq,
                    );
                    Backend::new(config)
                }
            }
        }
        None => Backend::new(config),
    };
    let mut records = Vec::new();
    let mut undecodable = 0u64;
    let wal = Wal::open_on(
        Arc::clone(&disk),
        dir.join("journal.wal"),
        opts.fsync,
        |payload| match decode_journal_record(payload) {
            Some(r) => records.push(r),
            None => undecodable += 1,
        },
    )?;
    if undecodable > 0 {
        // The frame passed its CRC but does not decode: format drift, not
        // disk corruption. Skipping it would silently drop acked ops.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{undecodable} journal record(s) failed to decode"),
        ));
    }
    let mut frames = 0u64;
    let mut replayed = 0u64;
    for record in &records {
        match record {
            JournalRecord::Frame(f) => {
                frames += 1;
                replayed += f.entries.len() as u64;
                backend.replay_frame(f)?;
            }
            JournalRecord::Session { worker, client, .. } => {
                backend.replay_session_record(*worker, *client);
            }
            JournalRecord::Closed { .. } => backend.replay_closed(),
        }
    }
    backend.finish_recovery();
    backend.attach_wal(wal);
    backend.attach_snapshots(snapshots);
    crowdfill_obs::obs_info!(
        "server",
        "backend recovered";
        snapshot_base => snap.as_ref().map(|s| s.base_seq).unwrap_or(0),
        journal_frames => frames,
        replayed_msgs => replayed,
        history_len => backend.history_len(),
    );
    Ok(backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_docstore::Json;
    use crowdfill_model::{DataType, RowId, Value};

    fn rv(pairs: &[(u16, i64)]) -> RowValue {
        RowValue::from_pairs(pairs.iter().map(|(c, v)| (ColumnId(*c), Value::int(*v))))
    }

    fn sample_state() -> BackendState {
        BackendState {
            base_seq: 42,
            at_ms: 12_345,
            next_worker: 4,
            closed: false,
            cc_next_seq: 9,
            image: TableImage {
                types: vec![DataType::Int, DataType::Int],
                values: vec![rv(&[(0, 1)]), rv(&[(0, 2), (1, 3)]), rv(&[(1, 7)])],
                rows: vec![
                    (RowId::new(ClientId::CENTRAL, 0), 0),
                    (RowId::new(ClientId(2), 5), 1),
                ],
                uh: vec![(0, 2), (1, 1)],
                dh: vec![(2, 3)],
            },
            live_template: vec![0, 2],
            dropped_template: vec![1],
            sessions: vec![SessionState {
                worker: 1,
                client: 1,
                epoch: 3,
                ops: 17,
                confirmed: 40,
                voted: vec![(rv(&[(0, 1)]), true), (rv(&[(1, 7)]), false)],
                upvoted_keys: vec![rv(&[(0, 1)])],
            }],
            ledger: sample_ledger(),
        }
    }

    fn sample_ledger() -> Ledger {
        let unit = |seq, latency| Unit {
            seq,
            worker: WorkerId(1),
            at: Millis(seq * 10),
            latency,
        };
        let mut ledger = Ledger::default();
        let row = RowId::new(ClientId(2), 5);
        ledger
            .cells
            .insert(row, vec![(ColumnId(1), unit(40, Some(Millis(7))))]);
        let first = |unit| FirstFill {
            at: Millis(400),
            unit,
            row: rv(&[(0, 2), (1, 3)]),
        };
        let key = |v| (ColumnId(1), Value::int(v));
        ledger
            .first
            .insert(key(3), first(Some(unit(40, Some(Millis(7))))));
        ledger.first.insert(key(4), first(None));
        let vote = Vote {
            unit: unit(41, None),
            auto: true,
        };
        ledger
            .votes
            .insert((WorkerId(1), true, rv(&[(0, 2), (1, 3)])), vec![vote]);
        ledger.last_at.insert(WorkerId(1), Millis(410));
        ledger
    }

    #[test]
    fn backend_state_roundtrips() {
        let state = sample_state();
        let encoded = encode_backend_state(&state);
        let decoded = decode_backend_state(encoded.as_bytes()).expect("decodes");
        assert_eq!(decoded, state);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let state = sample_state();
        let encoded = encode_backend_state(&state).replace("\"v\":4", "\"v\":999");
        assert!(decode_backend_state(encoded.as_bytes()).is_none());
    }

    #[test]
    fn garbage_payload_is_rejected() {
        assert!(decode_backend_state(b"not json at all").is_none());
        assert!(decode_backend_state(b"{\"v\":4}").is_none());
        assert!(decode_backend_state(&[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn an_image_without_its_ledger_is_refused() {
        let encoded = encode_backend_state(&sample_state());
        let Json::Obj(mut fields) = Json::parse(&encoded).unwrap() else {
            panic!("an image is an object");
        };
        fields.remove("ledger");
        let stripped = Json::Obj(fields).encode();
        assert!(decode_backend_state(stripped.as_bytes()).is_none());
    }

    #[test]
    fn journal_records_decode_all_shapes() {
        let session = encode_journal_session(3, 4, 100);
        match decode_journal_record(session.as_bytes()) {
            Some(JournalRecord::Session { worker, client, at }) => {
                assert_eq!((worker, client, at), (3, 4, 100));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let closed = encode_journal_closed(200);
        assert!(matches!(
            decode_journal_record(closed.as_bytes()),
            Some(JournalRecord::Closed { at: 200 })
        ));
        // A frame — a worker's automatic upvote and the Central Client's
        // reaction to it — with and without template drops.
        let up = Message::Upvote {
            value: rv(&[(0, 1)]),
        };
        let entry = |worker, auto_upvote| TraceEntry {
            at: Millis(7),
            worker,
            msg: up.clone(),
            auto_upvote,
            filled: None,
        };
        let log = [entry(Some(WorkerId(2)), true), entry(None, false)];
        for tdrops in [vec![], vec![4, 1]] {
            let frame = encode_journal_frame(9, 7, &log, &tdrops);
            assert_eq!(frame.contains("tdrops"), !tdrops.is_empty());
            let Some(JournalRecord::Frame(f)) = decode_journal_record(frame.as_bytes()) else {
                panic!("not a frame: {frame}");
            };
            assert_eq!((f.from, f.at, f.tdrops), (9, 7, tdrops));
            let read = |e: &JournalEntry| (e.seq, e.worker, e.auto, e.msg.clone());
            let entries: Vec<_> = f.entries.iter().map(read).collect();
            let written = [(9, 2, true, up.clone()), (10, 0, false, up.clone())];
            assert_eq!(entries, written);
        }
        // A legacy frame (no attribution fields) decodes as CC-attributed.
        let legacy = br#"{"from":5,"msgs":[{"kind":"upvote","value":[]}]}"#;
        match decode_journal_record(legacy) {
            Some(JournalRecord::Frame(f)) => {
                assert_eq!(f.from, 5);
                assert_eq!(f.at, 0);
                assert_eq!(f.entries.len(), 1);
                assert_eq!(f.entries[0].seq, 5);
                assert_eq!(f.entries[0].worker, 0);
                assert!(!f.entries[0].auto);
                assert!(f.tdrops.is_empty());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
