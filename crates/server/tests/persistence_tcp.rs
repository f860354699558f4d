//! Durability over the wire (DESIGN.md §14): a TCP service on a recovered
//! backend, compaction while clients are live, the reset-resync protocol
//! for cursors below the compaction horizon, a full service restart from
//! disk, and settlement across one.

use crowdfill_docstore::{FsyncPolicy, Json};
use crowdfill_model::{
    Column, ColumnId, DataType, Difference, QuorumMajority, Schema, Template, Value,
};
use crowdfill_net::{FrameConn, TcpConn};
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::wire::{CatchUp, Cursor, Reply, Request};
use crowdfill_server::{
    wire, Dialer, DurabilitySweepOptions, ReconnectPolicy, RemoteWorker, ServiceOptions,
    TaskConfig, TcpService,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "support/metric.rs"]
mod metric;

fn config() -> TaskConfig {
    let schema = Arc::new(
        Schema::new(
            "Persist",
            vec![
                Column::new("name", DataType::Text),
                Column::new("n", DataType::Int),
            ],
            &["name"],
        )
        .unwrap(),
    );
    TaskConfig::new(
        schema,
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(8),
        10.0,
    )
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "crowdfill-persistence-tcp-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    }
}

fn plain_dialer(addr: SocketAddr) -> Dialer {
    Box::new(move |_| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>))
}

fn policy() -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        ack_timeout: Duration::from_millis(750),
        jitter_seed: 7,
    }
}

/// Completes one row (`name` then `n`) through the remote client.
fn fill_row(w: &mut RemoteWorker, name: &str, n: i64) {
    w.absorb_pending();
    let row = {
        let table = w.view().replica().table();
        let schema = w.view().replica().schema();
        let mut ids: Vec<_> = table.row_ids().collect();
        ids.sort();
        ids.into_iter()
            .find(|r| {
                table
                    .get(*r)
                    .unwrap()
                    .value
                    .empty_columns(schema)
                    .any(|c| c == ColumnId(0))
            })
            .expect("an empty row to fill")
    };
    w.fill(row, ColumnId(0), Value::text(name)).unwrap();
    let target = {
        let table = w.view().replica().table();
        table
            .iter()
            .find(|(_, e)| e.value.get(ColumnId(0)) == Some(&Value::text(name)))
            .map(|(id, _)| id)
            .expect("the row just filled")
    };
    w.fill(target, ColumnId(1), Value::int(n)).unwrap();
}

/// Deterministic wire encoding of a backend's full live state.
fn state_image(b: &crowdfill_server::Backend) -> Vec<String> {
    b.table_image()
        .to_messages()
        .iter()
        .map(|m| wire::message_to_json(m).encode())
        .collect()
}

#[test]
fn compaction_resets_stale_cursors_over_tcp() {
    let dir = tmp_dir("reset");
    let backend = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    let service = TcpService::start(backend, "127.0.0.1:0").unwrap();
    let addr = service.addr();

    // Alice connects early and then goes quiet: her cursor stays at the
    // small prefix she saw at the welcome.
    let mut alice = RemoteWorker::connect_with(plain_dialer(addr), policy()).unwrap();
    let mut bob = RemoteWorker::connect_with(plain_dialer(addr), policy()).unwrap();
    fill_row(&mut bob, "ada", 1);
    fill_row(&mut bob, "grace", 2);

    // The server compacts: history below the new base exists only as the
    // snapshot image; alice's cursor is now below the horizon.
    {
        let backend = service.backend();
        let mut b = backend.lock();
        let base = b.compact_storage().unwrap();
        assert!(base > 0);
        assert_eq!(b.wal_bytes(), 0);
    }
    fill_row(&mut bob, "alan", 3);

    // Kill alice's connection; her next sync reconnects, resumes with a
    // pre-horizon cursor, and must be reset to the bootstrap image.
    service.disconnect_all();
    alice.sync().unwrap();
    // The reset leaves a follow-up sync owed (broadcasts racing the
    // image); drain it, then drain anything still in flight.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        alice.absorb_pending();
        alice.sync().unwrap();
        let caught_up = {
            let backend = service.backend();
            let b = backend.lock();
            alice.view().replica().same_state(b.master())
        };
        if caught_up {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "alice never converged after the reset resync"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A brand-new client lands directly on the bootstrap image and can
    // submit immediately (its cursor starts at the real watermark).
    let mut carol = RemoteWorker::connect(addr).unwrap();
    {
        let backend = service.backend();
        let b = backend.lock();
        assert!(carol.view().replica().same_state(b.master()));
    }
    fill_row(&mut carol, "edsger", 4);

    // A `sync` whose cursor predates the horizon is a reset too — it is
    // how every full resync (`from: 0`) lands after a compaction — and
    // the service counts it exactly like alice's resume above.
    let resets = || {
        let stats = service.stats();
        metric::read(&stats, "crowdfill_server_reset_resyncs").unwrap()
    };
    let before = resets();
    let dave = TcpConn::connect(addr).unwrap();
    dave.send(Request::Hello(None).encode().as_bytes()).unwrap();
    let welcome = String::from_utf8(dave.recv().expect("welcome")).unwrap();
    let full = Request::Sync(Cursor::default());
    dave.send(full.encode().as_bytes()).unwrap();
    let synced = String::from_utf8(dave.recv().expect("synced")).unwrap();
    let decoded = Reply::decode(&wire::parse_frame(synced.as_bytes()).unwrap());
    let reset = matches!(decoded, Ok(Reply::Synced(_, CatchUp::Image(_))));
    assert!(reset, "{synced}");
    assert_eq!(resets(), before + 1, "a reset `sync` is a counted reset");
    // Both frames were spliced together around the backend's bootstrap
    // text, and no reader can tell: each is, byte for byte, the canonical
    // encoding of the tree it parses to, and both carry that one array.
    let bootstrap = service.backend().lock().bootstrap_text().to_owned();
    for frame in [&welcome, &synced] {
        let tree = Json::parse(frame).unwrap();
        assert_eq!(&tree.encode(), frame);
        assert_eq!(tree.get("history").unwrap().encode(), bootstrap);
    }

    service.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn service_restart_recovers_from_disk() {
    let dir = tmp_dir("restart");
    let backend = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    // A tight sweep so the test exercises the background compaction path:
    // any journal at all is over the threshold.
    let options = ServiceOptions {
        durability: DurabilitySweepOptions {
            interval: Duration::from_millis(10),
            compact_wal_bytes: 1,
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let addr = service.addr();

    let mut w = RemoteWorker::connect(addr).unwrap();
    fill_row(&mut w, "ada", 1);
    fill_row(&mut w, "grace", 2);

    // Wait for the sweep to compact, then capture the pre-restart image.
    let deadline = Instant::now() + Duration::from_secs(5);
    let (image, history_len) = loop {
        let compacted = {
            let backend = service.backend();
            let b = backend.lock();
            if b.history_base() > 0 {
                Some((state_image(&b), b.history_len()))
            } else {
                None
            }
        };
        if let Some(got) = compacted {
            break got;
        }
        assert!(Instant::now() < deadline, "sweep never compacted");
        std::thread::sleep(Duration::from_millis(10));
    };
    service.stop();

    // Restart from disk: same state image, same watermark — and the
    // restarted service keeps serving.
    let recovered = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    assert_eq!(state_image(&recovered), image);
    assert_eq!(recovered.history_len(), history_len);
    let service = TcpService::start(recovered, "127.0.0.1:0").unwrap();
    let mut w = RemoteWorker::connect(service.addr()).unwrap();
    fill_row(&mut w, "alan", 3);
    {
        let backend = service.backend();
        let b = backend.lock();
        assert!(w.view().replica().same_state(b.master()));
    }
    service.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// The settle-after-restart probe over the wire: worker 1 completes three
/// rows and the durability tick compacts them into a snapshot, worker 2
/// completes one; the service settles, stops and is reopened from disk,
/// and the reopened backend settles bit for bit the same.
#[test]
fn settlement_survives_a_compaction_and_a_service_restart() {
    let dir = tmp_dir("settle");
    let config = TaskConfig {
        scoring: Arc::new(Difference),
        template: Template::cardinality(4),
        ..config()
    };
    let backend = persist::open_or_recover(config.clone(), &dir, &opts()).unwrap();
    let options = ServiceOptions {
        durability: DurabilitySweepOptions {
            interval: Duration::from_millis(10),
            compact_wal_bytes: 1,
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let mut first = RemoteWorker::connect(service.addr()).unwrap();
    for (name, n) in [("ada", 1), ("grace", 2), ("alan", 3)] {
        fill_row(&mut first, name, n);
    }
    let filled = service.backend().lock().history_len();
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.backend().lock().history_base() < filled {
        assert!(Instant::now() < deadline, "the tick never compacted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut second = RemoteWorker::connect(service.addr()).unwrap();
    fill_row(&mut second, "edsger", 4);
    let (_, _, twin) = service.backend().lock().settle();
    service.stop();

    let mut recovered = persist::open_or_recover(config, &dir, &opts()).unwrap();
    assert!(
        recovered.history_base() >= filled,
        "reopened from the snapshot"
    );
    let (_, _, payout) = recovered.settle();
    let bits = |p: &crowdfill_pay::Payout| {
        let amounts = p.per_message.iter().map(|(s, c)| (*s, c.amount.to_bits()));
        let workers = p
            .per_worker
            .iter()
            .map(|(w, a)| (u64::from(w.0), a.to_bits()));
        let unspent = (u64::MAX, p.unspent.to_bits());
        amounts.chain(workers).chain([unspent]).collect::<Vec<_>>()
    };
    assert_eq!(payout.per_worker.len(), 2, "both workers are paid");
    assert_eq!(bits(&payout), bits(&twin));
    std::fs::remove_dir_all(&dir).ok();
}
