//! End-to-end tracing smoke test: a seeded scenario against a real
//! [`TcpService`] with `OBS_TRACE=all`, asserting the acceptance property
//! of PR 5 — every acked submission's spans form a complete, single-rooted
//! client → server → ack tree in the flight-recorder dump, the
//! `{"type":"trace_dump"}` wire request returns a parseable dump, and the
//! trace report is deterministic over it.
//!
//! One `#[test]` on purpose: the tracing mode and flight recorder are
//! process-global, and parallel tests mutating the mode would race.

use crowdfill_bench::tracereport::{parse_jsonl, Report};
use crowdfill_bench::workload::pipeline_config;
use crowdfill_model::{ColumnId, Value};
use crowdfill_obs::trace::{self as obstrace, by_trace, validate_span_tree, Stage, TraceMode};
use crowdfill_server::{Backend, BatchOptions, RemoteWorker, ServiceOptions, TcpService};
use std::time::Duration;

const ROWS: usize = 12;

/// Stages every acked, pipelined submission must have stamped.
const REQUIRED: &[Stage] = &[
    Stage::ClientSubmit,
    Stage::Enqueue,
    Stage::Admit,
    Stage::BatchForm,
    Stage::Apply,
    Stage::Ack,
];

#[test]
fn every_acked_op_has_a_complete_span_tree() {
    obstrace::set_mode(TraceMode::All);

    let backend = Backend::new(pipeline_config(ROWS));
    let options = ServiceOptions {
        idle_timeout: Some(Duration::from_secs(30)),
        batch: BatchOptions {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let addr = service.addr();

    let mut filler = RemoteWorker::connect(addr).unwrap();
    // A second replica so broadcasts actually fan out (exercising the
    // `broadcast`/`client_absorb` stages, asserted present below).
    let mut observer = RemoteWorker::connect(addr).unwrap();

    let mut fills = 0usize;
    for r in 0..ROWS {
        let row = filler
            .view()
            .presented_rows()
            .iter()
            .copied()
            .find(|row| {
                filler
                    .view()
                    .replica()
                    .table()
                    .get(*row)
                    .is_none_or(|e| !e.value.has(ColumnId(0)))
            })
            .expect("an unfilled template row remains");
        let anchor = format!("row-{r}");
        filler
            .fill(row, ColumnId(0), Value::text(anchor))
            .expect("anchor fill acked");
        fills += 1;
        filler.absorb_pending();
        observer.absorb_pending();
    }
    // Drain the tail of the broadcast stream into the observer.
    std::thread::sleep(Duration::from_millis(50));
    observer.absorb_pending();

    // The wire-level dump parses back into events.
    let dump = filler.trace_dump().expect("trace_dump round-trips");
    let (events, bad) = parse_jsonl(&dump);
    assert_eq!(bad, 0, "unparsable lines in trace_dump");
    assert!(!events.is_empty(), "trace_dump returned no events");

    // Every acked op: a single rooted tree with the full lifecycle.
    let grouped = by_trace(&events);
    let mut acked = 0usize;
    let mut absorbed = 0usize;
    for (trace, evs) in &grouped {
        if !evs.iter().any(|e| e.stage == Stage::Ack) {
            continue;
        }
        acked += 1;
        validate_span_tree(evs).unwrap_or_else(|e| {
            panic!("trace {}: spans are not a rooted tree: {e}", trace.to_hex())
        });
        for &stage in REQUIRED {
            assert!(
                evs.iter().any(|e| e.stage == stage),
                "trace {}: acked op missing stage {}",
                trace.to_hex(),
                stage.as_str()
            );
        }
        if evs.iter().any(|e| e.stage == Stage::ClientAbsorb) {
            absorbed += 1;
        }
    }
    assert!(
        acked >= fills,
        "{acked} acked traces for {fills} acked fills"
    );
    assert!(
        events.iter().any(|e| e.stage == Stage::Broadcast),
        "no broadcast events despite a second replica"
    );
    assert!(
        absorbed > 0,
        "no acked op's broadcast was absorbed by the observer"
    );

    // The report is a pure function of the dump.
    let a = Report::build(&events, 5, 0).render();
    let b = Report::build(&events, 5, 0).render();
    assert_eq!(a, b, "trace report not deterministic over the same dump");
    assert!(a.contains("critical path"), "{a}");

    filler.bye();
    observer.bye();
    obstrace::set_mode(TraceMode::Off);
}
