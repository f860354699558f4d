//! Two services in one process keep separate books: each owns its
//! instruments, so the fills one serves show in its own `stats` and
//! `health` and in none of the other's.

use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, Schema, Template, Value};
use crowdfill_obs::timeseries::PERIOD;
use crowdfill_server::{Backend, RemoteWorker, SloHealth, TaskConfig, TcpService};
use std::sync::Arc;

#[path = "support/metric.rs"]
mod metric;

const FILLS: usize = 5;

fn config(rows: usize) -> TaskConfig {
    let schema = Schema::new(
        "T",
        vec![
            Column::new("name", DataType::Text),
            Column::new("nationality", DataType::Text),
        ],
        &["name"],
    );
    TaskConfig::new(
        Arc::new(schema.unwrap()),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        10.0,
    )
}

fn start() -> TcpService {
    TcpService::start(Backend::new(config(FILLS)), "127.0.0.1:0").unwrap()
}

/// The service objectives (`ack-p99`, `shed-rate`) of a `health` asked on
/// `service`, after the readings caught up with what it served.
fn service_objectives(service: &TcpService) -> Vec<SloHealth> {
    std::thread::sleep(PERIOD * 2);
    let mut worker = RemoteWorker::connect(service.addr()).unwrap();
    let report = worker.health().unwrap();
    worker.bye();
    let service_wide = |slo: &SloHealth| slo.name == "ack-p99" || slo.name == "shed-rate";
    report.slos.into_iter().filter(service_wide).collect()
}

fn count(service: &TcpService, name: &str) -> i64 {
    metric::read(&service.stats(), name).unwrap_or_else(|| panic!("no {name} in the stats"))
}

#[test]
fn each_service_counts_only_what_it_served() {
    let (a, b) = (start(), start());
    let mut worker = RemoteWorker::connect(a.addr()).unwrap();
    for (i, row) in worker.view().presented_rows().into_iter().enumerate() {
        let value = Value::text(format!("player-{i}"));
        worker.fill(row, ColumnId(0), value).unwrap();
    }
    worker.bye();

    for name in [
        "crowdfill_server_submit_requests",
        "crowdfill_server_ack_latency_ns_count",
    ] {
        assert_eq!(count(&a, name), FILLS as i64, "A's {name}");
        assert_eq!(count(&b, name), 0, "B's {name}");
    }

    // B's objectives read as those of a service that served nothing; A's
    // saw its own acks.
    let idle = start();
    assert_eq!(service_objectives(&b), service_objectives(&idle));
    let a_ack = service_objectives(&a)
        .into_iter()
        .find(|s| s.name == "ack-p99");
    assert!(a_ack.unwrap().value > 0.0, "A's ack-p99 read no ack");
    for service in [a, b, idle] {
        service.stop();
    }
}
