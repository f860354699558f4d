//! Progress (DESIGN.md §15) as a running service serves it: the `health`
//! reply forecasts toward the configured target, its progress objectives
//! are computed from the same collection's progress section, and a
//! stopping policy — the one thing the progress tick exists for — closes
//! a saturated collection, once.

use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, Schema, Template, Value};
use crowdfill_server::progress::ProgressReport;
use crowdfill_server::{
    Backend, RemoteError, RemoteWorker, ServiceOptions, StopAction, StoppingPolicy, SubmitError,
    TaskConfig, TcpService,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "support/metric.rs"]
mod metric;

const ROWS: usize = 12;
const WIDTH: usize = 3;

fn config() -> TaskConfig {
    let columns = ["a", "b", "c"].map(|name| Column::new(name, DataType::Text));
    let schema = Schema::new("T", columns.to_vec(), &["a"]).unwrap();
    let scoring = Arc::new(QuorumMajority::of_three());
    TaskConfig::new(Arc::new(schema), scoring, Template::cardinality(ROWS), 10.0)
}

fn stopping(policy: StoppingPolicy) -> ServiceOptions {
    ServiceOptions {
        stopping: Some(policy),
        ..ServiceOptions::default()
    }
}

fn closed(result: Result<impl Sized, RemoteError>) -> bool {
    let closed = SubmitError::CollectionClosed.to_string();
    match result {
        Ok(_) => false,
        Err(RemoteError::Rejected(reason)) if reason == closed => true,
        Err(e) => panic!("{e}"),
    }
}

/// Fills `col` of the first row of `worker`'s replica that holds every
/// column before it and not `col`; false once the collection refuses it.
fn fill_next(worker: &mut RemoteWorker, col: u16, text: String) -> bool {
    worker.absorb_pending();
    let table = worker.view().replica().table();
    let row = worker.view().presented_rows().into_iter().find(|row| {
        table.get(*row).is_some_and(|e| {
            (0..col).all(|c| e.value.has(ColumnId(c))) && !e.value.has(ColumnId(col))
        })
    });
    let row = row.expect("a row to fill");
    !closed(worker.fill(row, ColumnId(col), Value::text(text)))
}

/// Anchors every row, completes all but the last (each completion is
/// auto-upvoted), then has a second worker confirm the complete rows —
/// duplicate observations, the estimator's evidence of saturation. Stops
/// early if the collection closes; returns the filler and the confirmer.
fn saturate(addr: SocketAddr, collection: &str, rows: usize) -> (RemoteWorker, RemoteWorker) {
    let mut filler = RemoteWorker::connect_to(addr, collection).unwrap();
    let mut observer = RemoteWorker::connect_to(addr, collection).unwrap();
    let open = (0..rows).all(|r| fill_next(&mut filler, 0, format!("row-{r}")))
        && (0..rows - 1).all(|r| {
            fill_next(&mut filler, 1, format!("b-{r}"))
                && fill_next(&mut filler, 2, format!("c-{r}"))
        });
    if open {
        observer.sync().unwrap();
        let table = observer.view().replica().table();
        let complete: Vec<_> = (observer.view().presented_rows().into_iter())
            .filter(|row| table.get(*row).is_some_and(|e| e.value.len() == WIDTH))
            .collect();
        for row in complete {
            if closed(observer.upvote(row)) {
                break;
            }
        }
    }
    (filler, observer)
}

fn progress_of(worker: &mut RemoteWorker) -> (ProgressReport, Vec<(String, f64, bool)>) {
    let report = worker.health().unwrap();
    let rows = report.slos.iter().filter(|s| s.name.contains("target"));
    let rows = rows.map(|s| (s.name.clone(), s.burn_rate, s.ok)).collect();
    (report.progress.unwrap(), rows)
}

/// A service whose stopping policy targets 0.8 forecasts toward 0.8, not
/// toward the default: one target serves the forecast and the stop.
#[test]
fn health_forecasts_toward_the_configured_target() {
    let options = stopping(StoppingPolicy {
        action: StopAction::Alert,
        ..StoppingPolicy::close_at(0.8)
    });
    let service = TcpService::start_with(Backend::new(config()), "127.0.0.1:0", options).unwrap();
    let mut worker = RemoteWorker::connect(service.addr()).unwrap();
    assert!(fill_next(&mut worker, 0, "row-0".into()));
    let (progress, _) = progress_of(&mut worker);
    assert_eq!(progress.target, 0.8);
    worker.bye();
    service.stop();
}

/// `StoppingPolicy::close_at(0.9)` on a saturating workload: the tick
/// closes the collection, says so in `crowdfill_progress_stopped`, and a
/// later fill is refused.
#[test]
fn a_stopping_policy_closes_a_saturated_collection_once() {
    let options = stopping(StoppingPolicy::close_at(0.9));
    let service = TcpService::start_with(Backend::new(config()), "127.0.0.1:0", options).unwrap();
    let backend = service.backend();
    let (mut filler, observer) = saturate(service.addr(), "default", ROWS);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !backend.lock().is_closed() {
        assert!(Instant::now() < deadline, "the policy never closed it");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Ticks go on, one every 500 ms; the policy has acted and does not
    // again.
    let history_len = backend.lock().history_len();
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(backend.lock().history_len(), history_len);
    let stopped = metric::read(&service.stats(), "crowdfill_progress_stopped");
    assert_eq!(stopped, Some(1));
    // The last row still has cells to fill, and the fill is refused.
    filler.absorb_pending();
    let table = filler.view().replica().table();
    let row = filler
        .view()
        .presented_rows()
        .into_iter()
        .find(|row| table.get(*row).is_some_and(|e| !e.value.has(ColumnId(1))));
    let fill = filler.fill(row.expect("an open row"), ColumnId(1), Value::text("late"));
    assert!(closed(fill), "a fill after the close was not refused");
    filler.bye();
    observer.bye();
    service.stop();
}

/// Two collections on one shard, one saturated and one barely started:
/// each `health` reply's progress objectives are its own section's.
#[test]
fn each_collection_reads_its_own_progress_objectives() {
    let options = ServiceOptions {
        shards: 1,
        ..ServiceOptions::default()
    };
    let backends = ["full", "sparse"].map(|name| (name.to_string(), Backend::new(config())));
    let service = TcpService::start_multi(backends.into(), "127.0.0.1:0", options).unwrap();
    let (mut full, observer) = saturate(service.addr(), "full", ROWS);
    let mut sparse = RemoteWorker::connect_to(service.addr(), "sparse").unwrap();
    assert!(fill_next(&mut sparse, 0, "row-0".into()));
    let mut burns = Vec::new();
    for worker in [&mut full, &mut sparse] {
        let (p, rows) = progress_of(worker);
        let (completeness, target) = (p.overall.completeness, p.target);
        let way = (completeness / target).min(1.0);
        let expected = [
            ("burn_to_target", (p.spent / p.budget) / way),
            ("completeness_target", target / completeness),
        ];
        let expected: Vec<_> = expected
            .into_iter()
            .map(|(name, burn)| (name.to_string(), burn, burn <= 1.0))
            .collect();
        assert_eq!(rows, expected, "{p:?}");
        burns.push(rows);
    }
    assert_ne!(burns[0], burns[1], "the collections were to differ");
    for worker in [full, sparse, observer] {
        worker.bye();
    }
    service.stop();
}
