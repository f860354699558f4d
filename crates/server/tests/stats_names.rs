//! The metric names a `stats` reply renders, and their kinds, are a
//! contract: dashboards and harnesses read them by name. This golden pins
//! the sorted `# TYPE <name> <kind>` lines of a fresh two-collection,
//! two-shard service, one collection with storage, after one session on
//! each collection. To accept a deliberate change, run with
//! `UPDATE_FIXTURE=1` and review the fixture's diff.

use crowdfill_docstore::FsyncPolicy;
use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::{Backend, RemoteWorker, ServiceOptions, TaskConfig, TcpService};
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/stats_names.txt");

fn config() -> TaskConfig {
    let schema = Schema::new(
        "T",
        vec![
            Column::new("name", DataType::Text),
            Column::new("n", DataType::Int),
        ],
        &["name"],
    );
    TaskConfig::new(
        Arc::new(schema.unwrap()),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(2),
        10.0,
    )
}

#[test]
fn stats_renders_the_golden_metric_names() {
    let dir = std::env::temp_dir().join(format!("crowdfill-stats-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurabilityOptions {
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    let stored = persist::open_or_recover(config(), &dir, &opts).unwrap();
    let backends = vec![
        ("kept".to_string(), stored),
        ("memory".to_string(), Backend::new(config())),
    ];
    let options = ServiceOptions {
        shards: 2,
        ..ServiceOptions::default()
    };
    let service = TcpService::start_multi(backends, "127.0.0.1:0", options).unwrap();
    for collection in ["kept", "memory"] {
        RemoteWorker::connect_to(service.addr(), collection)
            .unwrap()
            .bye();
    }

    let stats = service.stats();
    let mut names: Vec<&str> = stats.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    names.sort_unstable();
    let got = names.iter().map(|l| format!("{l}\n")).collect::<String>();
    service.stop();
    let _ = std::fs::remove_dir_all(&dir);

    if std::env::var("UPDATE_FIXTURE").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/stats_names.txt"
        );
        std::fs::write(path, &got).unwrap();
        panic!("fixture regenerated at {path}; rerun without UPDATE_FIXTURE");
    }
    assert_eq!(got, FIXTURE, "the names `stats` renders changed");
}
