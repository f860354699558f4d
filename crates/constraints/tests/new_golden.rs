//! Golden captures of the Central Client's constructor (paper §4.2).
//!
//! [`PriMaintainer::new`] seeds the candidate table with the template rows
//! and sets up the Probable Rows Invariant; [`PriMaintainer::restore`]
//! rebuilds the same derived state from a checkpointed replica. Each case
//! pins what the constructor decides: the outbox, the matched (template
//! index, row id) pairs, the free and dropped template rows, and every row's
//! status; then the same again after `restore` of the built replica. The
//! constants were captured with the row-at-a-time constructor, and every
//! constructor since must reproduce them.

use crowdfill_constraints::PriMaintainer;
use crowdfill_model::{
    Column, ColumnId, DataType, Entry, Message, Predicate, QuorumMajority, Schema, ScoringRef,
    Template, TemplateRow, Value,
};
use std::fmt::Write;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "SoccerPlayer",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nationality", DataType::Text),
                Column::new("position", DataType::Text),
                Column::new("caps", DataType::Int),
            ],
            &["name", "nationality"],
        )
        .unwrap(),
    )
}

fn scoring() -> ScoringRef {
    Arc::new(QuorumMajority::of_three())
}

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Everything the constructor decided, one fact a line: the messages it
/// queued, each live template row's match (or `free`), the dropped rows,
/// and every row of the replica with its status.
fn render(cc: &PriMaintainer, outbox: &[Message]) -> String {
    let mut out = String::new();
    for msg in outbox {
        writeln!(out, "msg {msg:?}").unwrap();
    }
    for (idx, _) in cc.live_template() {
        match cc.matched_row(*idx) {
            Some(row) => writeln!(out, "t{idx} -> {row}").unwrap(),
            None => writeln!(out, "t{idx} free").unwrap(),
        }
    }
    for (idx, _) in cc.dropped_template_rows() {
        writeln!(out, "t{idx} dropped").unwrap();
    }
    for (id, entry) in cc.replica().table().iter() {
        let status = cc.classification().status(id);
        writeln!(
            out,
            "{id} {status:?} +{} -{}",
            entry.upvotes, entry.downvotes
        )
        .unwrap();
    }
    out
}

/// Builds the Central Client for `template`, then restores one from its
/// replica and template partition: the fingerprint and line count of each,
/// and whether each holds the PRI.
fn case(template: &Template) -> [(u64, usize, bool); 2] {
    let mut built = PriMaintainer::new(schema(), scoring(), template);
    let outbox = built.take_outbox();
    let new = render(&built, &outbox);
    let restored = PriMaintainer::restore(
        scoring(),
        built.replica().clone(),
        built.live_template().to_vec(),
        built.dropped_template_rows().to_vec(),
    );
    let restore = render(&restored, &[]);
    [
        (fnv1a(&new), new.lines().count(), built.invariant_holds()),
        (
            fnv1a(&restore),
            restore.lines().count(),
            restored.invariant_holds(),
        ),
    ]
}

fn text(s: &str) -> Value {
    Value::text(s)
}

const NAME: ColumnId = ColumnId(0);
const NAT: ColumnId = ColumnId(1);
const POS: ColumnId = ColumnId(2);
const CAPS: ColumnId = ColumnId(3);

#[test]
fn cardinality_1_is_golden() {
    let got = case(&Template::cardinality(1));
    assert_eq!(
        got,
        [
            (1345064173542761142, 3, true),
            (5921475878106345610, 2, true)
        ]
    );
}

#[test]
fn cardinality_32_is_golden() {
    let got = case(&Template::cardinality(32));
    assert_eq!(
        got,
        [
            (11960686954762636667, 96, true),
            (2584471968960318151, 64, true)
        ]
    );
}

#[test]
fn cardinality_400_is_golden() {
    let got = case(&Template::cardinality(400));
    assert_eq!(
        got,
        [
            (7111677395920608215, 1200, true),
            (9474130551230725837, 800, true)
        ]
    );
}

/// Prescribed cells: partial rows, complete rows (upvoted at creation),
/// a complete row prescribed twice (its second copy is outscored, so the
/// free-left loop has to shuffle or drop), and two rows of one key.
#[test]
fn values_template_is_golden() {
    let complete = |name: &str, nat: &str, pos: &str, caps: i64| {
        TemplateRow::from_values([
            (NAME, text(name)),
            (NAT, text(nat)),
            (POS, text(pos)),
            (CAPS, Value::Int(caps)),
        ])
    };
    let template = Template::from_rows(vec![
        TemplateRow::from_values([(POS, text("FW"))]),
        complete("Messi", "Argentina", "FW", 180),
        TemplateRow::from_values([(NAT, text("Brazil"))]),
        complete("Neymar", "Brazil", "FW", 128),
        TemplateRow::from_values([(NAME, text("Xavi")), (NAT, text("Spain"))]),
        complete("Messi", "Argentina", "FW", 180),
        complete("Neymar", "Brazil", "MF", 128),
        TemplateRow::from_values([(NAT, text("Brazil"))]),
    ]);
    let got = case(&template);
    assert_eq!(
        got,
        [
            (1534512161161645980, 49, true),
            (8646494207168777969, 16, true)
        ]
    );
}

/// Predicate entries: optimistic edges on partial rows.
#[test]
fn predicate_template_is_golden() {
    let template = Template::from_rows(vec![
        TemplateRow::from_entries([
            (NAT, Entry::Value(text("Brazil"))),
            (POS, Entry::Pred(Predicate::Eq(text("FW")))),
        ]),
        TemplateRow::from_entries([(CAPS, Entry::Pred(Predicate::Ge(Value::Int(100))))]),
        TemplateRow::from_entries([
            (
                NAT,
                Entry::Pred(Predicate::In(vec![text("Spain"), text("Italy")])),
            ),
            (CAPS, Entry::Pred(Predicate::Lt(Value::Int(50)))),
        ]),
        TemplateRow::from_entries([(CAPS, Entry::Pred(Predicate::Ge(Value::Int(100))))]),
        TemplateRow::from_entries([(POS, Entry::Pred(Predicate::Ne(text("GK"))))]),
    ]);
    let got = case(&template);
    assert_eq!(
        got,
        [
            (1048519188234976315, 16, true),
            (7111679965325611036, 10, true)
        ]
    );
}

/// Equal rows that are not adjacent share a matcher class; its members
/// must still match in template order.
#[test]
fn scattered_equal_rows_are_golden() {
    let a = TemplateRow::from_values([(POS, text("FW"))]);
    let b = TemplateRow::from_values([(NAT, text("Brazil"))]);
    let c = TemplateRow::from_entries([(CAPS, Entry::Pred(Predicate::Gt(Value::Int(10))))]);
    let empty = Template::cardinality(1).rows()[0].clone();
    let template = Template::from_rows(vec![
        a.clone(),
        b.clone(),
        empty.clone(),
        a.clone(),
        c.clone(),
        b,
        empty,
        a,
        c,
    ]);
    let got = case(&template);
    assert_eq!(
        got,
        [
            (17335075970779991782, 32, true),
            (15688951742985349458, 18, true)
        ]
    );
}
