//! The PRI scaling gate: what a worker's fill costs the Central Client does
//! not grow with the table, and building the Central Client grows linearly —
//! one constant for every table size, so there is no threshold past which
//! the matcher falls off a cliff. A cardinality template is N equal rows, one
//! matcher class, so its PRI graph holds one edge per probable row. A
//! template of N *distinct* rows that every probable row satisfies is the
//! matcher's worst case (N² edges, one class per row); it keeps the bounds
//! it had when every template row held its own adjacency list.
//!
//! It counts adjacency entries touched (the matcher's
//! `MatchCounts::edge_visits`, read off each Central Client) instead of
//! timing, so machine speed cannot flake it.

use crowdfill_constraints::PriMaintainer;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Entry, Operation, Predicate, QuorumMajority, RowId,
    Schema, Template, TemplateRow, Value,
};
use crowdfill_sync::Replica;
use std::sync::Arc;

fn edge_visits(cc: &PriMaintainer) -> u64 {
    cc.counts().matching.edge_visits
}

/// Builds a Central Client over `template`, then has a worker fill the key
/// column of 40 seed rows, each a new key. Returns the build's edge visits,
/// the edges held after it, and the most visits one fill cost.
fn build_and_fill(schema: &Arc<Schema>, template: &Template) -> (u64, u64, u64) {
    let mut cc = PriMaintainer::new(
        Arc::clone(schema),
        Arc::new(QuorumMajority::of_three()),
        template,
    );
    let build = edge_visits(&cc);
    let edges = cc.edges_held() as u64;

    let mut worker = Replica::new(ClientId(1), Arc::clone(schema));
    for m in cc.take_outbox() {
        worker.process(&m);
    }
    let seeds: Vec<RowId> = worker.table().row_ids().take(40).collect();
    let mut most = 0;
    for (i, row) in seeds.into_iter().enumerate() {
        let fill = Operation::Fill {
            row,
            column: ColumnId(0),
            value: Value::text(format!("k{i}")),
        };
        let msg = worker.apply_local(&fill).expect("seed row is fillable");
        let before = edge_visits(&cc);
        cc.on_message(&msg);
        let visits = edge_visits(&cc) - before;
        assert!(visits > 0, "a fill replaces a probable row");
        most = most.max(visits);
        assert!(cc.invariant_holds() && cc.take_outbox().is_empty());
    }
    (build, edges, most)
}

#[test]
fn edge_visits_are_constant_per_fill_and_linear_per_build() {
    // A fill drops one probable row (one edge), adds its replacement (one
    // edge) and re-homes the widowed template row from the class's free set,
    // dropping the matched entry it finds at the front (measured: 4).
    const PER_FILL: u64 = 4;
    // A build adds N rows of one edge each and matches every template row
    // from the free set (measured: 3·N − 1).
    const PER_BUILD: u64 = 3;

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
    for n in [200u64, 400, 800, 3_200] {
        let (build, edges, fill) = build_and_fill(&schema, &Template::cardinality(n as usize));
        assert_eq!(edges, n, "a cardinality build holds one edge per row");
        assert!(
            build <= PER_BUILD * n,
            "building {n} rows touched {build} adjacency entries"
        );
        assert!(
            fill <= PER_FILL,
            "a fill on {n} rows touched {fill} adjacency entries"
        );
    }

    // N distinct rows, each an optimistic predicate on the empty column `b`:
    // every seed row is adjacent to every class (measured: 3·N per fill and
    // 1.5·N² + N/2 per build, as with one adjacency list per template row).
    for n in [200u64, 400] {
        let rows = (0..n).map(|i| {
            let pred = Predicate::Ne(Value::text(format!("x{i}")));
            TemplateRow::from_entries([(ColumnId(1), Entry::Pred(pred))])
        });
        let (build, edges, fill) = build_and_fill(&schema, &Template::from_rows(rows.collect()));
        assert_eq!(edges, n * n, "distinct rows hold an edge each");
        assert!(
            build <= 2 * n * n,
            "building {n} distinct rows touched {build} adjacency entries"
        );
        assert!(
            fill <= 4 * n,
            "a fill on {n} distinct rows touched {fill} adjacency entries"
        );
    }
}
