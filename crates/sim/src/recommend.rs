//! Cell/row recommendation (paper §8: "have the system recommend certain
//! cells to individual workers, guiding workers to fill in different parts
//! of the table... taking into account the current state of the table").
//!
//! The paper's deployed system only randomizes row order per worker; this
//! module implements the proposed smarter strategy, for the simulator's
//! guided workers (the running service recommends nothing). Recommendations
//! are computed from the server's global view — the Central Client's live
//! probable-row classification and per-worker vote state, read through
//! [`Backend`]'s public API — and prioritize:
//!
//! 1. **settling votes**: complete rows sitting at a zero score need votes
//!    before anything else can finish — recommend them to workers who have
//!    not voted on them (and can still upvote that key);
//! 2. **closing rows**: partial probable rows with a full key are one fill
//!    chain from contributing — recommend their empty cells;
//! 3. **opening keys**: empty/keyless probable rows last (they need a key).
//!
//! Ties inside a class are broken per worker (rotating by worker id), so
//! concurrent workers are spread across different targets instead of
//! colliding on the same cell — the conflict-avoidance rationale of §8.

use crowdfill_model::{ColumnId, RowId, RowValue};
use crowdfill_pay::WorkerId;
use crowdfill_server::Backend;

/// What the worker is being asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecommendationKind {
    /// Evaluate (up/downvote) a complete row that needs votes.
    VoteOnRow,
    /// Fill a specific empty cell of a keyed partial row.
    FillCell,
    /// Start a new entity in an open (keyless) row.
    OpenKey,
}

/// One recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recommendation {
    pub kind: RecommendationKind,
    pub row: RowId,
    /// The suggested column for fill recommendations.
    pub column: Option<ColumnId>,
}

/// Computes up to `limit` recommendations for `worker` on `backend`'s
/// table, best first.
pub fn recommend(backend: &Backend, worker: WorkerId, limit: usize) -> Vec<Recommendation> {
    let schema = &backend.config().schema;
    let table = backend.master().table();

    let mut votes = Vec::new();
    let mut fills = Vec::new();
    let mut opens = Vec::new();

    for &id in backend.central_client().probable_set() {
        let entry = table.get(id).expect("probable row exists");
        if entry.value.is_complete(schema) {
            // Complete but not yet accepted: needs votes. Steer only as
            // many workers at it as votes are still missing — otherwise
            // every worker converges on the same row inside the
            // data-entry latency window and the surplus votes are waste.
            let score = backend
                .config()
                .scoring
                .score(entry.upvotes, entry.downvotes);
            if score <= 0 && !backend.has_voted(worker, &entry.value) {
                let deficit = backend
                    .config()
                    .scoring
                    .min_upvotes()
                    .unwrap_or(1)
                    .saturating_sub(entry.upvotes)
                    .max(1) as usize;
                if worker_rank_for_row(backend, worker, id, &entry.value) < deficit {
                    votes.push(Recommendation {
                        kind: RecommendationKind::VoteOnRow,
                        row: id,
                        column: None,
                    });
                }
            }
        } else if entry.value.has_full_key(schema) {
            if let Some(column) = entry.value.empty_columns(schema).next() {
                fills.push(Recommendation {
                    kind: RecommendationKind::FillCell,
                    row: id,
                    column: Some(column),
                });
            }
        } else {
            let column = entry
                .value
                .empty_columns(schema)
                .find(|c| schema.is_key(*c));
            opens.push(Recommendation {
                kind: RecommendationKind::OpenKey,
                row: id,
                column,
            });
        }
    }

    // Give each worker an independent pseudo-random permutation of each
    // class (a hash of worker × row), so concurrent workers are steered to
    // *different* rows instead of racing on a shared order — racing loses
    // the race-loser's data-entry time to a stale fill.
    let spread = |v: &mut Vec<Recommendation>| v.sort_by_key(|r| mix(worker, r.row));
    spread(&mut votes);
    spread(&mut fills);
    spread(&mut opens);

    votes
        .into_iter()
        .chain(fills)
        .chain(opens)
        .take(limit)
        .collect()
}

/// The hash of `worker` × `row` that orders a class: splitmix64's
/// finalizer over the packed pair, with no gamma increment.
fn mix(worker: WorkerId, row: RowId) -> u64 {
    let mut z = (worker.0 as u64) << 32 ^ ((row.client.0 as u64) << 20) ^ row.seq;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// This worker's position, in a per-row hash order, among the connected
/// workers still *eligible* to vote on the row; used to hand a row's
/// remaining vote slots to a bounded set of workers rather than everyone
/// at once.
fn worker_rank_for_row(backend: &Backend, worker: WorkerId, row: RowId, value: &RowValue) -> usize {
    let mine = mix(worker, row);
    backend
        .connected_workers()
        .into_iter()
        .filter(|w| !backend.has_voted(*w, value) && mix(*w, row) < mine)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template, Value};
    use crowdfill_pay::Millis;
    use crowdfill_server::{Outgoing, TaskConfig, WorkerClient};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "T",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("pos", DataType::Text),
                ],
                &["name"],
            )
            .unwrap(),
        )
    }

    fn rig(rows: usize) -> (Backend, WorkerClient, WorkerClient) {
        let cfg = TaskConfig::new(
            schema(),
            Arc::new(QuorumMajority::of_three()),
            Template::cardinality(rows),
            10.0,
        );
        let mut backend = Backend::new(cfg);
        let (w1, c1, h1) = backend.connect(Millis(0));
        let a = WorkerClient::new(w1, c1, schema(), &h1);
        let (w2, c2, h2) = backend.connect(Millis(0));
        let b = WorkerClient::new(w2, c2, schema(), &h2);
        (backend, a, b)
    }

    fn submit_all(backend: &mut Backend, client: &mut WorkerClient, outs: Vec<Outgoing>) -> RowId {
        let row = outs[0].msg.creates_row().unwrap();
        for o in outs {
            backend
                .submit(client.worker(), o.msg, Millis(1000), o.auto_upvote)
                .unwrap();
        }
        row
    }

    #[test]
    fn empty_table_recommends_opening_keys() {
        let (backend, a, _) = rig(3);
        let recs = recommend(&backend, a.worker(), 10);
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|r| r.kind == RecommendationKind::OpenKey));
        // Key column suggested.
        assert!(recs.iter().all(|r| r.column == Some(ColumnId(0))));
    }

    #[test]
    fn keyed_rows_recommended_before_open_ones() {
        let (mut backend, mut a, _) = rig(2);
        let rows = a.presented_rows();
        let outs = a.fill(rows[0], ColumnId(0), Value::text("Messi")).unwrap();
        submit_all(&mut backend, &mut a, outs);

        let recs = recommend(&backend, a.worker(), 10);
        assert_eq!(recs[0].kind, RecommendationKind::FillCell);
        assert_eq!(recs[0].column, Some(ColumnId(1)));
        assert_eq!(recs.last().unwrap().kind, RecommendationKind::OpenKey);
    }

    #[test]
    fn unsettled_complete_rows_top_the_list_until_voted() {
        let (mut backend, mut a, mut b) = rig(1);
        let rows = a.presented_rows();
        let outs = a.fill(rows[0], ColumnId(0), Value::text("Messi")).unwrap();
        let r = submit_all(&mut backend, &mut a, outs);
        let outs = a.fill(r, ColumnId(1), Value::text("FW")).unwrap();
        let done = submit_all(&mut backend, &mut a, outs);

        // Worker A auto-upvoted the row: no vote recommendation for A…
        let recs_a = recommend(&backend, a.worker(), 10);
        assert!(recs_a
            .iter()
            .all(|r| r.kind != RecommendationKind::VoteOnRow));
        // …but B should be pointed at it.
        let recs_b = recommend(&backend, b.worker(), 10);
        assert_eq!(recs_b[0].kind, RecommendationKind::VoteOnRow);
        assert_eq!(recs_b[0].row, done);

        // After B votes, the row is settled: no more vote recommendations.
        for m in backend.poll(b.worker()) {
            b.absorb(&m);
        }
        let out = b.upvote(done).unwrap();
        backend
            .submit(b.worker(), out.msg, Millis(2000), false)
            .unwrap();
        let recs_b = recommend(&backend, b.worker(), 10);
        assert!(recs_b
            .iter()
            .all(|r| r.kind != RecommendationKind::VoteOnRow));
    }

    #[test]
    fn workers_are_spread_across_targets() {
        let (backend, a, b) = rig(4);
        let ra = recommend(&backend, a.worker(), 1);
        let rb = recommend(&backend, b.worker(), 1);
        assert_ne!(ra[0].row, rb[0].row, "workers should take different rows");
    }

    #[test]
    fn limit_respected() {
        let (backend, a, _) = rig(5);
        assert_eq!(recommend(&backend, a.worker(), 2).len(), 2);
    }
}
