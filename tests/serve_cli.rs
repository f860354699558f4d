//! The `crowdfill serve` binary end to end: it collects until its table is
//! fulfilled — told so by the batch that fulfilled it, not by a poll — then
//! prints the final table and exits 0.

use crowdfill::prelude::*;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Two rows of (name, nationality), keyed by name; under `difference`
/// scoring the filler's automatic upvote makes a complete row probable.
const SPEC: &str = r#"{"budget":2,"schema":{"columns":[{"name":"name","type":"text"},{"name":"nationality","type":"text"}],"key":["name"],"name":"SoccerPlayer"},"scoring":"difference","template":[[],[]]}"#;

/// The row of `worker`'s replica whose name is `name`, or an empty one.
fn row_named(worker: &RemoteWorker, name: Option<&str>) -> RowId {
    let name = name.map(Value::text);
    let table = worker.view().replica().table();
    let found = table
        .iter()
        .find(|(_, entry)| entry.value.get(ColumnId(0)) == name.as_ref());
    found.map(|(id, _)| id).expect("the row")
}

#[test]
fn serve_exits_with_the_final_table_once_fulfilled() {
    let spec = std::env::temp_dir().join(format!("crowdfill-serve-{}.json", std::process::id()));
    std::fs::write(&spec, SPEC).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_crowdfill"))
        .args(["serve", "--spec", spec.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0"])
        .env("OBS_LEVEL", "info")
        .env("OBS_FORMAT", "text")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run crowdfill serve");

    // The address is in the log line that says the service listens; the
    // rest of the log is drained so that the child never blocks on it.
    let mut log = BufReader::new(child.stderr.take().unwrap()).lines();
    let addr: std::net::SocketAddr = loop {
        let line = log
            .next()
            .expect("serve exited before it listened")
            .unwrap();
        if let Some((_, rest)) = line.split_once("listening on ") {
            break rest.split_whitespace().next().unwrap().parse().unwrap();
        }
    };
    let drain = std::thread::spawn(move || log.count());

    let mut worker = RemoteWorker::connect(addr).unwrap();
    for (name, nationality) in [("Pelé", "Brazil"), ("Zico", "Brazil")] {
        let row = row_named(&worker, None);
        worker.fill(row, ColumnId(0), Value::text(name)).unwrap();
        let row = row_named(&worker, Some(name));
        // The last fill may find the service stopping behind its ack.
        let _ = worker.fill(row, ColumnId(1), Value::text(nationality));
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("serve did not exit once its table was fulfilled");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    drain.join().unwrap();
    let mut table = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut table)
        .unwrap();
    let _ = std::fs::remove_file(&spec);
    assert!(status.success(), "{status}");
    for name in ["Pelé", "Zico"] {
        assert!(table.contains(name), "{name} missing from:\n{table}");
    }
}
