//! The PRI scaling gate: what a worker's fill costs the Central Client grows
//! linearly with the table, and building the Central Client quadratically
//! (a cardinality template's PRI graph is complete bipartite, so N² edges is
//! its size) — with one constant for every table size, so there is no
//! threshold past which the matcher falls off a cliff.
//!
//! It counts adjacency entries touched (`crowdfill_matching_edge_visits`)
//! instead of timing, so machine speed cannot flake it. The counter is
//! process-global: this file is its own test binary and holds one test.

use crowdfill_constraints::PriMaintainer;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Operation, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_sync::Replica;
use std::sync::Arc;

fn edge_visits() -> u64 {
    crowdfill_obs::metrics::counter("crowdfill_matching_edge_visits").get()
}

#[test]
fn edge_visits_are_linear_per_fill_and_quadratic_per_build() {
    // A fill drops a probable row (N edges), adds its replacement (N edges)
    // and re-homes the widowed template row (a scan of its ≤ N neighbours).
    const PER_FILL: u64 = 4;
    // A build adds N rows with N edges each, then matches template row i
    // after scanning the i rows taken before it.
    const PER_BUILD: u64 = 2;

    let schema = Arc::new(
        Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
            ],
            &["a"],
        )
        .unwrap(),
    );
    for n in [200u64, 400, 800] {
        let before = edge_visits();
        let mut cc = PriMaintainer::new(
            Arc::clone(&schema),
            Arc::new(QuorumMajority::of_three()),
            &Template::cardinality(n as usize),
        );
        let build = edge_visits() - before;
        assert!(
            build <= PER_BUILD * n * n,
            "building {n} rows touched {build} adjacency entries"
        );

        let mut worker = Replica::new(ClientId(1), Arc::clone(&schema));
        for m in cc.take_outbox() {
            worker.process(&m);
        }
        let seeds: Vec<RowId> = worker.table().row_ids().take(40).collect();
        for (i, row) in seeds.into_iter().enumerate() {
            let fill = Operation::Fill {
                row,
                column: ColumnId(0),
                value: Value::text(format!("k{i}")),
            };
            let msg = worker.apply_local(&fill).expect("seed row is fillable");
            let before = edge_visits();
            cc.on_message(&msg);
            let visits = edge_visits() - before;
            assert!(visits > 0, "a fill replaces a probable row");
            assert!(
                visits <= PER_FILL * n,
                "fill {i} on {n} rows touched {visits} adjacency entries"
            );
            assert!(cc.invariant_holds() && cc.take_outbox().is_empty());
        }
    }
}
