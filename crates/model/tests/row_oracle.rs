//! `RowValue` against its oracle, the `Arc<BTreeMap>` row value it replaced
//! (`support/map_row.rs`): built from the same random pair lists —
//! repeated and out-of-order columns, text, int and date cells — the two
//! answer every query alike, order and compare pairwise alike, feed a
//! `Hasher` the same writes and print the same `{:?}`. So nothing that
//! keys, sorts or logs row values can tell the slice from the map.

#[path = "support/map_row.rs"]
mod map_row;

use crowdfill_model::{Column, ColumnId, DataType, RowValue, Schema, Value};
use map_row::RowValue as MapRow;
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

/// Columns drawn from; one past the schema's width, so a pair may name a
/// column the schema does not have.
const COLUMNS: u16 = 6;

/// Few distinct cells, so that equal values, repeated columns and subsuming
/// rows are common.
fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[ab]{1,2}".prop_map(Value::text),
        (-2i64..3).prop_map(Value::int),
        (2000i32..2002, 1u8..3, 1u8..3).prop_map(|(y, m, d)| Value::date(y, m, d)),
    ]
}

fn pairs() -> impl Strategy<Value = Vec<(ColumnId, Value)>> {
    let pair = (0..COLUMNS, cell()).prop_map(|(c, v)| (ColumnId(c), v));
    proptest::collection::vec(pair, 0..9)
}

/// Five columns whose key is not ascending, so a projection is built from
/// out-of-order pairs.
fn schema() -> Schema {
    let columns = (0..5).map(|c| Column::new(format!("c{c}"), DataType::Text));
    Schema::new("T", columns.collect(), &["c3", "c1"]).unwrap()
}

/// One write a `Hasher` saw.
#[derive(Debug, PartialEq)]
enum Write {
    Bytes(Vec<u8>),
    Int(&'static str, i128),
}

/// A `Hasher` that keeps what it is fed, in order.
#[derive(Default)]
struct Recorder(Vec<Write>);

macro_rules! record {
    ($($name:ident: $t:ty),*) => {$(
        fn $name(&mut self, i: $t) {
            self.0.push(Write::Int(stringify!($t), i as i128));
        }
    )*};
}

impl Hasher for Recorder {
    fn finish(&self) -> u64 {
        0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0.push(Write::Bytes(bytes.to_vec()));
    }
    record!(write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64, write_usize: usize);
    record!(write_i8: i8, write_i16: i16, write_i32: i32, write_i64: i64, write_isize: isize);
}

fn writes(v: &impl Hash) -> Vec<Write> {
    let mut recorder = Recorder::default();
    v.hash(&mut recorder);
    recorder.0
}

/// Everything one value can be asked on its own, asked of both.
fn agree(new: &RowValue, old: &MapRow) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
    prop_assert_eq!(format!("{new:#?}"), format!("{old:#?}"));
    prop_assert_eq!(new.len(), old.len());
    prop_assert!(new.iter().eq(old.iter()), "iter: {new:?} vs {old:?}");
    prop_assert_eq!(writes(new), writes(old));
    for c in (0..=COLUMNS).map(ColumnId) {
        prop_assert_eq!(new.get(c), old.get(c));
        prop_assert_eq!(new.has(c), old.has(c));
    }
    let schema = schema();
    prop_assert_eq!(new.key_values(&schema), old.key_values(&schema));
    match (new.key_projection(&schema), old.key_projection(&schema)) {
        (Some(new), Some(old)) => prop_assert_eq!(format!("{new:?}"), format!("{old:?}")),
        (new, old) => prop_assert_eq!(new.is_some(), old.is_some()),
    }
    Ok(())
}

/// What two values can be asked of each other, asked of both pairs.
fn agree_pairwise(
    (new_a, old_a): (&RowValue, &MapRow),
    (new_b, old_b): (&RowValue, &MapRow),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(new_a == new_b, old_a == old_b);
    prop_assert_eq!(new_a.cmp(new_b), old_a.cmp(old_b));
    prop_assert_eq!(new_a.partial_cmp(new_b), old_a.partial_cmp(old_b));
    prop_assert_eq!(new_a.subsumes(new_b), old_a.subsumes(old_b));
    prop_assert_eq!(new_a.added_column(new_b), old_a.added_column(old_b));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn a_row_value_is_its_map(
        a in pairs(),
        b in pairs(),
        fill in (0..COLUMNS, cell()),
    ) {
        let (new_a, old_a) = (RowValue::from_pairs(a.clone()), MapRow::from_pairs(a.clone()));
        let (new_b, old_b) = (RowValue::from_pairs(b.clone()), MapRow::from_pairs(b));
        agree(&new_a, &old_a)?;
        agree(&new_b, &old_b)?;

        // A fill of `a`, a value with one of `a`'s pairs dropped, and `a`
        // rebuilt reversed: the operands that make `subsumes`, `==` and
        // `added_column` true, which two random lists seldom are.
        let (col, v) = (ColumnId(fill.0), fill.1);
        let (new_w, old_w) = (new_a.with(col, v.clone()), old_a.with(col, v));
        agree(&new_w, &old_w)?;
        let fewer = a.iter().skip(1).cloned();
        let (new_f, old_f) = (RowValue::from_pairs(fewer.clone()), MapRow::from_pairs(fewer));
        agree(&new_f, &old_f)?;
        let mut reversed: Vec<_> = old_a.iter().map(|(c, v)| (c, v.clone())).collect();
        reversed.reverse();
        let new_r = RowValue::from_pairs(reversed);
        agree(&new_r, &old_a)?;

        let all = [
            (&new_a, &old_a),
            (&new_b, &old_b),
            (&new_w, &old_w),
            (&new_f, &old_f),
            (&new_r, &old_a),
        ];
        for x in all {
            for y in all {
                agree_pairwise(x, y)?;
            }
        }
    }
}

/// A `Vec`-shaped pair list that repeats a column, out of order, is read
/// last-pair-wins, as a map's `collect` is.
#[test]
fn the_last_pair_of_a_column_wins() {
    let pairs = [
        (ColumnId(2), Value::int(1)),
        (ColumnId(0), Value::int(2)),
        (ColumnId(2), Value::int(3)),
        (ColumnId(0), Value::int(4)),
    ];
    let new = RowValue::from_pairs(pairs.clone());
    assert_eq!(new.get(ColumnId(0)), Some(&Value::int(4)));
    assert_eq!(new.get(ColumnId(2)), Some(&Value::int(3)));
    assert_eq!(
        format!("{new:?}"),
        format!("{:?}", MapRow::from_pairs(pairs))
    );
}
