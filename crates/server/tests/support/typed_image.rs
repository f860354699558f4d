//! Strategies for typed table images, shared by `wire_props.rs` and
//! `snapshot_props.rs`: a `types` vector over all five data types, and
//! values whose every cell is of its column's type — what the server's
//! door check makes true of every image it sends or checkpoints. Each
//! including file uses some of it.
#![allow(dead_code)]

use crowdfill_model::{ClientId, ColumnId, DataType, RowId, RowValue, Value};
use crowdfill_server::wire::TableImage;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The widest integer every JSON peer reads exactly: cells reach ±2^53.
pub const EXACT_INT: i64 = 1 << 53;

/// A strategy that is a function of the generator: what a draw that
/// depends on an earlier one (cells on their column's type) is written as.
pub struct Draw<F>(pub F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for Draw<F> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn data_type_of(rng: &mut TestRng) -> DataType {
    DataType::ALL[rng.below(DataType::ALL.len() as u64) as usize]
}

pub fn data_type() -> impl Strategy<Value = DataType> {
    Draw(data_type_of)
}

/// A cell of type `t`: text of any script (quotes and backslashes among
/// it), ints out to ±2^53, floats that are integral — a `3.0` must come
/// back a float, not an int — or dyadic (exact in JSON), and dates.
fn cell_of(t: DataType, rng: &mut TestRng) -> Value {
    match t {
        DataType::Text => {
            let chars = proptest::collection::vec(any::<char>(), 0..10).generate(rng);
            Value::text(chars.into_iter().collect::<String>())
        }
        DataType::Int => Value::int(match rng.below(4) {
            0 => EXACT_INT,
            1 => -EXACT_INT,
            _ => (-(1i64 << 40)..(1i64 << 40)).generate(rng),
        }),
        DataType::Float => match rng.below(2) {
            0 => Value::float((-1000i32..1000).generate(rng).into()),
            _ => Value::float(f64::from((-(1i32 << 20)..(1i32 << 20)).generate(rng)) / 8.0),
        },
        DataType::Bool => Value::bool(rng.below(2) == 1),
        DataType::Date => {
            let (y, m, d) = (1900i32..2100, 1u8..=12, 1u8..=28).generate(rng);
            Value::date(y, m, d)
        }
    }
}

/// A cell of any of the five types, as a message carries one.
pub fn cell() -> impl Strategy<Value = Value> {
    Draw(|rng: &mut TestRng| {
        let t = data_type_of(rng);
        cell_of(t, rng)
    })
}

/// A value over `types`: each column empty or holding a cell of its type.
fn value_of(types: &[DataType], rng: &mut TestRng) -> RowValue {
    let mut cells = Vec::new();
    for (c, t) in types.iter().enumerate() {
        if rng.below(3) > 0 {
            cells.push((ColumnId(c as u16), cell_of(*t, rng)));
        }
    }
    RowValue::from_pairs(cells)
}

/// A typed table image of distinct, ascending values whose rows and votes
/// name them by valid indexes: any value by several rows, by votes only,
/// or by nothing; row ids reach the ends of their ranges, counts 2^32 − 1.
pub fn table_image() -> impl Strategy<Value = TableImage> {
    use proptest::collection::btree_map;
    let votes = || btree_map(any::<u32>(), 1u32..=u32::MAX, 0..4);
    let id = (any::<u32>(), 0..(1u64 << 53)).prop_map(|(c, s)| RowId::new(ClientId(c), s));
    let rows = btree_map(id, any::<u32>(), 0..6);
    let typed_values = Draw(|rng: &mut TestRng| {
        let types: Vec<DataType> = (0..rng.below(6)).map(|_| data_type_of(rng)).collect();
        let mut values: Vec<RowValue> = (0..1 + rng.below(4))
            .map(|_| value_of(&types, rng))
            .collect();
        // The grammar's `values`: distinct and ascending.
        values.sort();
        values.dedup();
        (types, values)
    });
    (typed_values, rows, votes(), votes()).prop_map(|((types, values), rows, uh, dh)| {
        let n = values.len() as u32;
        let votes = |votes: BTreeMap<u32, u32>| {
            let votes = votes.into_iter().map(|(i, count)| (i % n, count));
            votes.collect::<BTreeMap<_, _>>().into_iter().collect()
        };
        TableImage {
            types,
            values,
            rows: rows.into_iter().map(|(id, i)| (id, i % n)).collect(),
            uh: votes(uh),
            dh: votes(dh),
        }
    })
}
