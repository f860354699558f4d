//! End-to-end health smoke test: a seeded fill workload against a real
//! [`TcpService`] under the default options, asserting the acceptance
//! property of PR 6 — the `{"type":"health"}` wire request returns a
//! report whose per-collection completeness matches ground truth, whose
//! per-worker rows carry ops/latency/lag, whose SLO section is populated
//! from the service's reading ring, and whose replica lag drains to zero
//! once a lagging replica syncs. PR 10 extends the gate with the §15
//! progress section: it must be populated over the real wire path, and
//! the species estimate must converge to completeness ≈ 1.0 (truth inside
//! the CI) once every cell is filled and a second worker has duplicated
//! coverage — duplicate observations are the estimator's evidence of
//! saturation.

use crowdfill_bench::workload::pipeline_config;
use crowdfill_model::{ColumnId, Value};
use crowdfill_obs::timeseries::PERIOD;
use crowdfill_server::{Backend, BatchOptions, RemoteWorker, ServiceOptions, TcpService};
use std::time::Duration;

const ROWS: usize = 12;
const WIDTH: usize = 3; // pipeline_schema: a, b, c

#[test]
fn health_report_matches_ground_truth() {
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
    // A second replica that deliberately lags: it absorbs nothing while the
    // filler works, so its server-side confirmed seq stays at the connect
    // snapshot until it syncs.
    let mut observer = RemoteWorker::connect(addr).unwrap();

    // Ground truth: anchor every template row's key column exactly once.
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
    }

    // One period on, the `health` request's own wake takes a reading
    // past the fills, so the SLO window covers them.
    std::thread::sleep(PERIOD);

    // First health read: the filler has confirmed nothing since connect, so
    // its server-side replica lag is exactly its own ROWS accepted fills.
    let report = filler.health().expect("health request round-trips");
    let col = &report.collection;
    assert_eq!(col.rows, ROWS, "template rows: {report:?}");
    assert_eq!(col.cells, ROWS * WIDTH);
    assert_eq!(col.filled_cells, ROWS, "one anchor per row: {col:?}");
    let expected = ROWS as f64 / (ROWS * WIDTH) as f64;
    assert!(
        (col.completeness - expected).abs() < 1e-9,
        "completeness {} != ground truth {expected}",
        col.completeness
    );
    assert_eq!(col.columns.len(), WIDTH);
    assert_eq!(col.columns[0].filled, ROWS);
    assert_eq!(col.columns[1].filled, 0);
    assert!(!col.fulfilled);

    let filler_health = report
        .workers
        .iter()
        .find(|w| w.ops > 0)
        .expect("the filler shows up with ops");
    assert_eq!(filler_health.ops, ROWS as u64, "one accepted op per fill");
    assert!(filler_health.connected);
    assert!(
        filler_health.ack_p99_ns.is_some(),
        "ack latency quantiles recorded for the filler: {filler_health:?}"
    );
    assert_eq!(
        filler_health.lag, ROWS as u64,
        "filler confirmed nothing since connect"
    );
    let observer_health = report
        .workers
        .iter()
        .find(|w| w.ops == 0)
        .expect("the observer shows up too");
    assert_eq!(
        observer_health.lag, ROWS as u64,
        "observer absorbed nothing yet"
    );

    // The service's static SLO specs are evaluated over its reading ring.
    // The ok-assertion is limited to those: the two progress objectives
    // (`burn_to_target`, `completeness_target`) are computed from this
    // collection's own `progress` section, read off the owner shard's
    // telemetry fold, and a half-filled table legitimately burns against
    // its completeness target mid-run.
    let names: Vec<&str> = report.slos.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.contains(&"ack-p99") && names.contains(&"shed-rate"),
        "default SLOs missing from health report: {names:?}"
    );
    for slo in &report.slos {
        if slo.name == "ack-p99" || slo.name == "shed-rate" {
            assert!(slo.ok, "an idle-ish run must not burn budget: {slo:?}");
        }
    }

    // The §15 progress section rides every health reply. With one worker
    // having anchored every row exactly once, the stream is all
    // singletons: no duplication evidence, so the estimate must leave
    // plenty of room above the observed count.
    let progress = report
        .progress
        .as_ref()
        .expect("progress section populated over the wire");
    assert_eq!(progress.overall.observed, ROWS as u64, "{progress:?}");
    assert!(
        progress.overall.est_total >= ROWS as f64,
        "estimate below observed: {progress:?}"
    );
    assert!(progress.overall.completeness < 1.0, "{progress:?}");
    assert_eq!(progress.columns.len(), WIDTH);

    // Both replicas sync; lag must drain to zero — on the server's report
    // and in the client-side mirror.
    filler.sync().expect("filler sync");
    observer.sync().expect("observer sync");
    assert_eq!(observer.local_lag(), 0, "client-side lag after sync");
    assert_eq!(filler.local_lag(), 0);

    let report = observer.health().expect("second health request");
    for w in &report.workers {
        assert_eq!(w.lag, 0, "lag after both replicas synced: {w:?}");
        assert_eq!(w.outbox_depth, 0, "drained outbox after sync: {w:?}");
    }

    // The rendered form (what `crowdfill top` draws) names the collection,
    // the arrival rate, and the §15 burn-down line; the JSON form
    // round-trips losslessly, progress section included.
    let rendered = report.render();
    assert!(rendered.contains('B'), "{rendered}");
    assert!(rendered.contains("fills/min"), "{rendered}");
    assert!(rendered.contains("progress:"), "{rendered}");
    assert_eq!(
        crowdfill_server::HealthReport::from_json(&report.to_json()),
        Some(report)
    );

    // Fill the table out completely: the filler (synced) takes columns b
    // and c on every row. Species identity is lineage root × column, so
    // each fill is a fresh singleton so far.
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
                    .is_some_and(|e| !e.value.has(ColumnId(1)))
            })
            .expect("a row without column b remains");
        filler
            .fill(row, ColumnId(1), Value::text(format!("b-{r}")))
            .expect("column b fill acked");
        filler.absorb_pending();
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
                    .is_some_and(|e| e.value.has(ColumnId(1)) && !e.value.has(ColumnId(2)))
            })
            .expect("a row without column c remains");
        filler
            .fill(row, ColumnId(2), Value::text(format!("c-{r}")))
            .expect("column c fill acked");
        filler.absorb_pending();
    }

    // The observer syncs and upvotes every completed row: §3.4's "I
    // found the same thing" signal. Each vote re-observes the cells the
    // value covers — the duplicate evidence the estimator needs to call
    // the collection saturated. (Stale competing fills are rejected by
    // the server's vote policy, so votes are the only wire-reachable
    // duplication path.)
    observer.sync().expect("observer re-sync");
    for row in observer.view().presented_rows().to_vec() {
        if observer
            .view()
            .replica()
            .table()
            .get(row)
            .is_some_and(|e| e.value.len() == WIDTH)
        {
            observer.upvote(row).expect("confirming upvote acked");
        }
    }

    // Converged: every cell filled, column b double-covered. Completeness
    // must reach ~1.0 with the ground-truth total inside the CI — the
    // §15 acceptance property over the real wire path.
    let report = filler.health().expect("third health request");
    let truth = (ROWS * WIDTH) as f64;
    let progress = report
        .progress
        .as_ref()
        .expect("progress section still populated");
    assert_eq!(
        progress.overall.observed as usize,
        ROWS * WIDTH,
        "{progress:?}"
    );
    assert!(
        progress.overall.ci_lo <= truth && truth <= progress.overall.ci_hi,
        "ground truth outside CI: {progress:?}"
    );
    assert!(
        progress.overall.completeness >= 0.95,
        "completeness failed to converge on a saturated table: {progress:?}"
    );
    // The conservative measure the stopping rule uses agrees.
    assert!(
        progress.completeness_lo() >= 0.9,
        "conservative completeness lags a fully-filled table: {progress:?}"
    );
    for col in &progress.columns {
        assert_eq!(col.estimate.observed, ROWS as u64, "{col:?}");
    }

    filler.bye();
    observer.bye();
    service.stop();
}
