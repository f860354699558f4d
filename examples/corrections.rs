//! The §8 extensions in action: vote **undo**, the composite **modify**
//! action, and server-side **cell recommendations** — all proposed as
//! future work in the paper and implemented in this reproduction.
//!
//! Run with: `cargo run --example corrections`

use crowdfill::prelude::*;
use crowdfill::sim::{recommend, RecommendationKind};
use std::sync::Arc;

fn show(table: &CandidateTable, schema: &Schema) {
    for (id, e) in table.iter() {
        println!(
            "  {id}: {} (↑{} ↓{})",
            e.value.display(schema),
            e.upvotes,
            e.downvotes
        );
    }
}

fn main() {
    let schema = Arc::new(
        Schema::new(
            "SoccerPlayer",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nationality", DataType::Text),
                Column::new("position", DataType::Text),
            ],
            &["name", "nationality"],
        )
        .unwrap(),
    );
    let config = TaskConfig::new(
        Arc::clone(&schema),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(2),
        6.0,
    );
    let mut backend = Backend::new(config);
    let (w1, c1, h) = backend.connect(Millis(0));
    let mut alice = WorkerClient::new(w1, c1, Arc::clone(&schema), &h);
    let (w2, c2, h) = backend.connect(Millis(0));
    let mut bob = WorkerClient::new(w2, c2, Arc::clone(&schema), &h);

    let mut t = 0u64;
    fn send(
        t: &mut u64,
        backend: &mut Backend,
        w: WorkerId,
        outs: Vec<crowdfill::server::Outgoing>,
    ) {
        *t += 1000;
        for o in outs {
            backend.submit(w, o.msg, Millis(*t), o.auto_upvote).unwrap();
        }
    }

    // Alice enters Zidane... as a forward (wrong!).
    let mut row = alice.presented_rows()[0];
    for (col, v) in [(0u16, "Zinedine Zidane"), (1, "France"), (2, "FW")] {
        let outs = alice.fill(row, ColumnId(col), Value::text(v)).unwrap();
        row = outs[0].msg.creates_row().unwrap();
        send(&mut t, &mut backend, w1, outs);
    }
    println!("After Alice's (partly wrong) entry:");
    show(backend.master().table(), &schema);

    // The server recommends Bob what to do next.
    for msg in backend.poll(w2) {
        bob.absorb(&msg);
    }
    let recs = recommend(&backend, w2, 3);
    println!("\nRecommendations for Bob:");
    for r in &recs {
        println!("  {:?} on {}", r.kind, r.row);
    }
    assert_eq!(recs[0].kind, RecommendationKind::VoteOnRow);

    // Bob hastily upvotes the recommended row… then reconsiders (undo, §8)…
    let target = recs[0].row;
    let out = bob.upvote(target).unwrap();
    send(&mut t, &mut backend, w2, vec![out]);
    println!("\nBob upvotes — oops, Zidane was a midfielder. Undoing:");
    let out = bob.undo_upvote(target).unwrap();
    send(&mut t, &mut backend, w2, vec![out]);
    show(backend.master().table(), &schema);

    // …and corrects the position outright with the modify action (§8):
    // downvote + insert + refill, travelling as one authorized bundle.
    let bundle = bob
        .modify(target, ColumnId(2), Value::text("MF"))
        .unwrap()
        .into_iter()
        .map(|o| (o.msg, o.auto_upvote))
        .collect();
    t += 1000;
    backend.submit_modify(w2, bundle, Millis(t)).unwrap();
    println!("\nAfter Bob's modify (old row downvoted, corrected row inserted):");
    show(backend.master().table(), &schema);

    // Alice wants to approve the corrected row — but her automatic
    // completion upvote on the *wrong* row holds her one-upvote-per-key
    // slot. Undo frees it (the §3.4 policy meets the §8 undo).
    for msg in backend.poll(w1) {
        alice.absorb(&msg);
    }
    let wrong = alice
        .presented_rows()
        .into_iter()
        .find(|r| {
            alice
                .replica()
                .table()
                .get(*r)
                .is_some_and(|e| e.value.get(ColumnId(2)) == Some(&Value::text("FW")))
        })
        .expect("wrong row still visible");
    let out = alice.undo_upvote(wrong).unwrap();
    send(&mut t, &mut backend, w1, vec![out]);
    println!(
        "
Alice retracts her auto-upvote on the wrong row, freeing her key slot."
    );
    let corrected = alice
        .presented_rows()
        .into_iter()
        .find(|r| {
            alice
                .replica()
                .table()
                .get(*r)
                .is_some_and(|e| e.value.get(ColumnId(2)) == Some(&Value::text("MF")))
        })
        .expect("corrected row visible");
    let out = alice.upvote(corrected).unwrap();
    send(&mut t, &mut backend, w1, vec![out]);

    let ft = backend.final_table();
    println!("\nFinal table:");
    for r in ft.rows() {
        println!("  {} [score {}]", r.value.display(&schema), r.score);
    }
    assert!(ft
        .values()
        .any(|v| v.get(ColumnId(2)) == Some(&Value::text("MF"))));

    // Settlement: Bob's undone upvote earns nothing; his correction does.
    let (_, contributions, payout) = backend.settle();
    println!(
        "\nContribution units: {} cells, {} upvotes, {} downvotes",
        contributions.cells.len(),
        contributions.upvotes.len(),
        contributions.downvotes.len()
    );
    for (w, amount) in &payout.per_worker {
        println!("  {w}: ${amount:.2}");
    }
}
