//! How many shard threads a default service starts. This file holds one
//! test, so the services it starts are the only ones in its process and the
//! thread counts below are exact.

use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
use crowdfill_server::{Backend, RemoteWorker, ServiceOptions, TaskConfig, TcpService};
use std::sync::Arc;

fn backend() -> Backend {
    let columns = vec![Column::new("name", DataType::Text)];
    let schema = Schema::new("T", columns, &["name"]).unwrap();
    let scoring = Arc::new(QuorumMajority::of_three());
    Backend::new(TaskConfig::new(
        Arc::new(schema),
        scoring,
        Template::cardinality(1),
        1.0,
    ))
}

/// The `comm` of every running thread of this process (the kernel cuts a
/// shard's to `crowdfill-shard`). A thread in its exit path (`PF_EXITING`
/// in its `stat` flags) has been joined and only waits to be reaped, so it
/// is not listed.
fn running_threads() -> Vec<String> {
    const PF_EXITING: u64 = 0x4;
    let running = |task: std::fs::DirEntry| {
        let stat = std::fs::read_to_string(task.path().join("stat")).ok()?;
        let flags = stat.rsplit_once(')')?.1.split_whitespace().nth(6)?;
        let exiting = flags.parse::<u64>().ok()? & PF_EXITING != 0;
        let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
        (!exiting).then(|| comm.trim_end().to_string())
    };
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks.filter_map(|task| running(task.ok()?)).collect()
}

fn shard_threads() -> usize {
    let threads = running_threads().into_iter();
    threads.filter(|name| name == "crowdfill-shard").count()
}

/// Under the default options a service runs no more shards than it has
/// collections: one for one, at most three for three, and none once it is
/// stopped. A thread exists when `start` returns but names
/// itself only once it runs, so the threads the service added are counted
/// as such, and a name is read once the shard has answered a `hello`.
#[test]
fn a_default_service_runs_no_more_shards_than_collections() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // thread accounting needs procfs
    }
    let at_rest = running_threads().len();
    let options = ServiceOptions::default();
    let service = TcpService::start_with(backend(), "127.0.0.1:0", options.clone()).unwrap();
    assert_eq!(
        running_threads().len(),
        at_rest + 1,
        "one collection, one shard"
    );
    drop(RemoteWorker::connect(service.addr()).unwrap());
    assert_eq!(shard_threads(), 1, "{:?}", running_threads());
    service.stop();
    assert_eq!(running_threads().len(), at_rest, "a shard outlived stop");

    let backends = (0..3).map(|i| (format!("c{i}"), backend())).collect();
    let service = TcpService::start_multi(backends, "127.0.0.1:0", options).unwrap();
    let shards = running_threads().len() - at_rest;
    assert!(
        (1..=3).contains(&shards),
        "{shards} shards for 3 collections"
    );
    service.stop();
    assert_eq!(running_threads().len(), at_rest, "a shard outlived stop");
    assert_eq!(shard_threads(), 0);
}
