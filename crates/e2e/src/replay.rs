//! The layer replay of the traced run: the public functions of each
//! layer, timed one call at a time on exactly the frames and messages one
//! captured block put on the wire — no sockets, no other thread (except
//! the batch pipeline's own apply thread, which is the layer under test).
//!
//! These are the bills the ack would pay if nothing ever waited. What the
//! ack pays beyond their sum — sweep sleeps, thread hand-offs, wake-ups —
//! is `ledger.unattributed_us`, and it is a finding, not slack.
//!
//! Per-op layers are sampled on *plain fills* (a `replace` that does not
//! complete its row), the class `fill_ack_p50_us` measures.

use crate::driver::{RunContext, Step};
use crate::script::WIDTH;
use crate::stats::median;
use crowdfill_constraints::PriMaintainer;
use crowdfill_docstore::{Json, JsonRef, Wal};
use crowdfill_model::{ClientId, Message};
use crowdfill_net::{FrameReader, FrameWriter};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::persist::{decode_journal_record, encode_backend_state};
use crowdfill_server::{
    open_or_recover, wire, Backend, BatchOp, BatchOptions, BatchPipeline, DurabilityOptions,
    JournalRecord, OverloadOptions, WorkerClient,
};
use crowdfill_sync::Replica;
use std::io::{Error, Result};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One row of the layer table: name, unit, value, sample count.
pub type Layer = (&'static str, &'static str, f64, usize);

/// A captured step with its request decoded.
enum Replayed {
    Join(WorkerId),
    Leave(WorkerId),
    Op {
        worker: WorkerId,
        msg: Message,
        auto: bool,
        plain_fill: bool,
    },
}

fn is_plain_fill(msg: &Message) -> bool {
    matches!(msg, Message::Replace { value, .. } if value.len() < WIDTH)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_nanos() as f64 / 1e3)
}

fn layer(name: &'static str, samples: &[f64]) -> Layer {
    (name, "us", median(samples), samples.len())
}

/// Replays a join or leave onto `backend`, checking that the replay mints
/// the worker ids the wire phase saw (row ids embed them).
fn membership(backend: &mut Backend, step: &Replayed) -> Result<()> {
    match step {
        Replayed::Join(worker) => {
            let (id, _, _) = backend.connect(Millis(0));
            if id != *worker {
                return Err(Error::other(format!(
                    "replay minted worker {} where the wire phase saw {}",
                    id.0, worker.0
                )));
            }
        }
        Replayed::Leave(worker) => backend.disconnect(*worker),
        Replayed::Op { .. } => {}
    }
    Ok(())
}

/// What the broadcast flush does after every batch: empty the outboxes.
fn drain_outboxes(backend: &mut Backend) {
    for worker in backend.connected_workers() {
        backend.poll_seq(worker);
    }
}

/// Decodes the captured requests, timing the request path's codecs.
fn decode_steps(steps: &[Step], layers: &mut Vec<Layer>) -> Vec<Replayed> {
    let (mut parse, mut decode, mut frame_rt) = (Vec::new(), Vec::new(), Vec::new());
    let mut replayed = Vec::new();
    let mut sink = Vec::new();
    for step in steps {
        let (worker, bytes) = match step {
            Step::Join { worker } => {
                replayed.push(Replayed::Join(WorkerId(*worker)));
                continue;
            }
            Step::Leave { worker } => {
                replayed.push(Replayed::Leave(WorkerId(*worker)));
                continue;
            }
            Step::Frame { worker, bytes } => (WorkerId(*worker), bytes),
        };
        let Ok(text) = std::str::from_utf8(bytes) else {
            continue;
        };
        let (parsed, parse_us) = timed(|| JsonRef::parse(text));
        let Ok(json) = parsed else { continue };
        if json.get("type").and_then(JsonRef::as_str) != Some("submit") {
            continue;
        }
        let Some(body) = json.get("msg") else {
            continue;
        };
        let (msg, decode_us) = timed(|| wire::message_from_json_ref(body));
        let Ok(msg) = msg else { continue };
        let (_, rt_us) = timed(|| {
            let mut writer = FrameWriter::new();
            let mut reader = FrameReader::new();
            sink.clear();
            writer
                .enqueue(bytes)
                .expect("a captured frame fits a frame");
            writer
                .flush(&mut sink)
                .expect("writing to a Vec cannot fail");
            reader.push(&sink);
            reader.pop()
        });
        let plain_fill = is_plain_fill(&msg);
        if plain_fill {
            parse.push(parse_us);
            decode.push(decode_us);
            frame_rt.push(rt_us);
        }
        replayed.push(Replayed::Op {
            worker,
            auto: json.get("auto").and_then(JsonRef::as_bool).unwrap_or(false),
            msg,
            plain_fill,
        });
    }
    layers.push(layer("docstore.parse_us", &parse));
    layers.push(layer("wire.decode_us", &decode));
    layers.push(layer("net.frame_us", &frame_rt));
    replayed
}

/// `Backend::submit` op by op, with its two named parts (`Replica::
/// process`, `PriMaintainer::on_message`) and the client-side absorb timed
/// on side copies fed the same history. Returns the backend as the block
/// left it.
fn replay_apply(
    ctx: &RunContext,
    replayed: &[Replayed],
    layers: &mut Vec<Layer>,
) -> Result<Backend> {
    let schema = ctx.spec.schema();
    let config = ctx.spec.config();
    let mut backend = ctx.fresh_backend();
    let initial: Vec<Message> = backend
        .history_suffix(0)
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let mut side = Replica::new(ClientId(u32::MAX), Arc::clone(&schema));
    side.replay(&initial);
    let mut pri = PriMaintainer::new(Arc::clone(&schema), config.scoring, &config.template);
    // The maintainer starts with its own inserts applied; what follows
    // them in the initial history is worker traffic (the prefill).
    let own_inserts = pri.take_outbox().len();
    for msg in &initial[own_inserts..] {
        pri.on_message(msg);
        pri.take_outbox();
    }
    let mut observer = WorkerClient::new(
        WorkerId(0),
        ClientId(u32::MAX - 1),
        Arc::clone(&schema),
        &initial,
    );

    let (mut apply, mut process, mut pri_us, mut encode, mut absorb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for step in replayed {
        let Replayed::Op {
            worker,
            msg,
            auto,
            plain_fill,
        } = step
        else {
            membership(&mut backend, step)?;
            continue;
        };
        let before = backend.history_len();
        let submitted = msg.clone();
        let (result, apply_us) = timed(|| backend.submit(*worker, submitted, Millis(1), *auto));
        result.map_err(|e| Error::other(format!("replay submit: {e}")))?;
        drain_outboxes(&mut backend);
        let (_, process_us) = timed(|| side.process(msg));
        let (_, pri_step_us) = timed(|| pri.on_message(msg));
        pri.take_outbox();
        let (_, encode_us) = timed(|| wire::message_to_json(msg).encode());
        let (_, absorb_us) = timed(|| observer.absorb(msg));
        // Central-Client reactions follow the op in the history.
        for (_, reaction) in backend.history_suffix(before + 1) {
            side.process(&reaction);
            observer.absorb(&reaction);
        }
        if *plain_fill {
            apply.push(apply_us);
            process.push(process_us);
            pri_us.push(pri_step_us);
            encode.push(encode_us);
            absorb.push(absorb_us);
        }
    }
    if !side.same_state(backend.master()) {
        return Err(Error::other(
            "replay: side replica diverged from the replayed master",
        ));
    }
    layers.push(layer("wire.encode_us", &encode));
    layers.push(layer("backend.apply_us", &apply));
    layers.push(layer("sync.process_us", &process));
    layers.push(layer("constraints.pri_us", &pri_us));
    layers.push((
        "backend.other_us",
        "us",
        median(&apply) - median(&process) - median(&pri_us),
        apply.len(),
    ));
    layers.push(layer("client.absorb_apply_us", &absorb));
    Ok(backend)
}

/// The join path without sockets: history read on the server
/// (`Backend::connect`), replica rebuild on the client.
fn replay_join(
    ctx: &RunContext,
    backend: &mut Backend,
    welcome: Option<&[u8]>,
    layers: &mut Vec<Layer>,
) {
    let schema = ctx.spec.schema();
    let (mut connect, mut rebuild, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..9 {
        let ((worker, client, history), connect_us) = timed(|| backend.connect(Millis(2)));
        // The welcome's history as the server prints it: one JSON value
        // per message, one encode of the array.
        let (_, encode_us) =
            timed(|| Json::Arr(history.iter().map(wire::message_to_json).collect()).encode());
        let (_, rebuild_us) =
            timed(|| WorkerClient::new(worker, client, Arc::clone(&schema), &history));
        backend.disconnect(worker);
        connect.push(connect_us);
        encode.push(encode_us);
        rebuild.push(rebuild_us);
    }
    layers.push(layer("backend.connect_us", &connect));
    layers.push(layer("wire.welcome_encode_us", &encode));
    layers.push(layer("client.rebuild_us", &rebuild));

    // The captured welcome frame, decoded the way `RemoteWorker` does:
    // an owned `Json` tree, then one `message_from_json` per entry.
    let (mut parse, mut decode) = (Vec::new(), Vec::new());
    if let Some(text) = welcome.and_then(|w| std::str::from_utf8(w).ok()) {
        for _ in 0..9 {
            let (parsed, parse_us) = timed(|| Json::parse(text));
            let Ok(parsed) = parsed else { break };
            let history = parsed.get("history").and_then(Json::as_arr).unwrap_or(&[]);
            let (_, decode_us) = timed(|| {
                history
                    .iter()
                    .map(wire::message_from_json)
                    .collect::<std::result::Result<Vec<_>, _>>()
            });
            parse.push(parse_us);
            decode.push(decode_us);
        }
    }
    layers.push(layer("client.welcome_parse_us", &parse));
    layers.push(layer("client.welcome_decode_us", &decode));
}

/// `BatchPipeline::submit`: admission queue, hand-off to the apply thread,
/// apply, reply — everything between the reactor and the ack but the
/// sockets.
fn replay_batch(ctx: &RunContext, replayed: &[Replayed], layers: &mut Vec<Layer>) -> Result<()> {
    let shared = Arc::new(parking_lot::Mutex::new(ctx.fresh_backend()));
    let pipeline = BatchPipeline::start(
        Arc::clone(&shared),
        Box::new(|| Millis(1)),
        Box::new(|| {}),
        BatchOptions::default(),
        OverloadOptions::default(),
    );
    let mut batch = Vec::new();
    for step in replayed {
        let Replayed::Op {
            worker,
            msg,
            auto,
            plain_fill,
        } = step
        else {
            membership(&mut shared.lock(), step)?;
            continue;
        };
        let op = BatchOp::Msg {
            msg: msg.clone(),
            auto_upvote: *auto,
        };
        let (result, us) = timed(|| pipeline.submit(*worker, op));
        result.map_err(|e| Error::other(format!("replay batch submit: {e}")))?;
        drain_outboxes(&mut shared.lock());
        if *plain_fill {
            batch.push(us);
        }
    }
    layers.push(layer("batch.submit_us", &batch));
    Ok(())
}

/// The journal: the same ops through a journaled backend, then the raw
/// appends (`Wal::append` under the default fsync policy) and the recovery
/// ladder on what it wrote.
fn replay_journal(
    ctx: &RunContext,
    replayed: &[Replayed],
    scratch: &Path,
    layers: &mut Vec<Layer>,
) -> Result<()> {
    let dir = scratch.join("replay-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityOptions::default();
    let mut backend = open_or_recover(ctx.spec.config(), &dir, &durability)?;
    ctx.replay_prefill(&mut backend);
    for step in replayed {
        let Replayed::Op {
            worker, msg, auto, ..
        } = step
        else {
            membership(&mut backend, step)?;
            continue;
        };
        backend
            .submit(*worker, msg.clone(), Millis(1), *auto)
            .map_err(|e| Error::other(format!("journaled replay submit: {e}")))?;
        drain_outboxes(&mut backend);
    }
    let mut checkpoint = Vec::new();
    for _ in 0..3 {
        let (result, us) = timed(|| backend.checkpoint());
        result?;
        checkpoint.push(us);
    }
    let snapshot_bytes = encode_backend_state(&backend.capture_state()).len();
    let master = backend.master().clone();
    drop(backend);

    let mut recover = Vec::new();
    for _ in 0..5 {
        let (reopened, us) = timed(|| open_or_recover(ctx.spec.config(), &dir, &durability));
        if !reopened?.master().same_state(&master) {
            return Err(Error::other(
                "replay: recovered master differs from the journaled one",
            ));
        }
        recover.push(us);
    }

    let mut payloads: Vec<Vec<u8>> = Vec::new();
    drop(Wal::open(dir.join("journal.wal"), |p| {
        payloads.push(p.to_vec())
    })?);
    let raw_path = scratch.join("replay-raw.wal");
    let _ = std::fs::remove_file(&raw_path);
    let mut raw = Wal::open_with(&raw_path, durability.fsync, |_| {})?;
    let fsyncs = raw.fsync_counter();
    let fsyncs_before = fsyncs.load(Ordering::Relaxed);
    let (mut append, mut frame_bytes) = (Vec::new(), Vec::new());
    for payload in &payloads {
        let (result, us) = timed(|| raw.append(payload));
        result?;
        let plain_fill = matches!(
            decode_journal_record(payload),
            Some(JournalRecord::Frame(f))
                if f.entries.first().is_some_and(|e| is_plain_fill(&e.msg))
        );
        if plain_fill {
            append.push(us);
            frame_bytes.push(8.0 + payload.len() as f64);
        }
    }
    let fsyncs_per_op =
        (fsyncs.load(Ordering::Relaxed) - fsyncs_before) as f64 / payloads.len().max(1) as f64;
    drop(raw);
    let _ = std::fs::remove_file(&raw_path);
    let _ = std::fs::remove_dir_all(&dir);

    layers.push(layer("docstore.wal_append_us", &append));
    layers.push((
        "docstore.wal_bytes_per_op",
        "bytes",
        median(&frame_bytes),
        frame_bytes.len(),
    ));
    layers.push((
        "docstore.fsyncs_per_op",
        "count",
        fsyncs_per_op,
        payloads.len(),
    ));
    layers.push(layer("persist.recover_us", &recover));
    layers.push(layer("persist.checkpoint_us", &checkpoint));
    layers.push(("persist.snapshot_bytes", "bytes", snapshot_bytes as f64, 1));
    Ok(())
}

/// Times every layer on the captured block. `welcome` is the last welcome
/// frame a late joiner received; `scratch` is a directory for the journal
/// and snapshots the journal layers write.
pub fn replay_layers(
    ctx: &RunContext,
    steps: &[Step],
    welcome: Option<&[u8]>,
    scratch: &Path,
) -> Result<Vec<Layer>> {
    let mut layers = Vec::new();
    let replayed = decode_steps(steps, &mut layers);
    let mut backend = replay_apply(ctx, &replayed, &mut layers)?;
    replay_join(ctx, &mut backend, welcome, &mut layers);
    replay_batch(ctx, &replayed, &mut layers)?;
    replay_journal(ctx, &replayed, scratch, &mut layers)?;
    Ok(layers)
}
