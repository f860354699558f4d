//! `trace-capture`: run a seeded fill workload through a real
//! [`TcpService`] with tracing on and print the flight-recorder dump to
//! stdout, ready for `trace-report`:
//!
//! ```text
//! trace-capture | trace-report -
//! ```
//!
//! The workload mirrors the tracing smoke test: one filler anchoring every
//! template row over the wire (pipelined through the batcher), a second
//! replica absorbing the broadcast stream, then a `{"type":"trace_dump"}`
//! request for the events.

use crowdfill_bench::workload::pipeline_config;
use crowdfill_model::{ColumnId, Value};
use crowdfill_obs::trace::{self as obstrace, TraceMode};
use crowdfill_server::{Backend, BatchOptions, RemoteWorker, ServiceOptions, TcpService};
use std::time::Duration;

const ROWS: usize = 24;

fn main() {
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
    let mut observer = RemoteWorker::connect(addr).unwrap();

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
        filler
            .fill(row, ColumnId(0), Value::text(format!("row-{r}")))
            .expect("anchor fill acked");
        filler.absorb_pending();
        observer.absorb_pending();
    }
    std::thread::sleep(Duration::from_millis(50));
    observer.absorb_pending();

    let dump = filler.trace_dump().expect("trace_dump");
    print!("{dump}");
    service.stop();
}
