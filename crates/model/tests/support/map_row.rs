//! The row value as it was before its cells became one ascending slice:
//! an `Arc<BTreeMap<ColumnId, Value>>`, with the derived `Debug`, `Eq`,
//! `Ord` and `Hash` of the map. It is the oracle of `row_oracle.rs`, which
//! checks that `crowdfill_model::RowValue` answers every query, orders,
//! hashes and prints exactly as this does.

use crowdfill_model::{ColumnId, Schema, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowValue {
    cells: Arc<BTreeMap<ColumnId, Value>>,
}

impl RowValue {
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ColumnId, Value)>) -> RowValue {
        RowValue {
            cells: Arc::new(pairs.into_iter().collect()),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn get(&self, col: ColumnId) -> Option<&Value> {
        self.cells.get(&col)
    }

    pub fn has(&self, col: ColumnId) -> bool {
        self.cells.contains_key(&col)
    }

    pub fn with(&self, col: ColumnId, v: Value) -> RowValue {
        let mut cells = BTreeMap::clone(&self.cells);
        cells.insert(col, v);
        RowValue {
            cells: Arc::new(cells),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &Value)> {
        self.cells.iter().map(|(c, v)| (*c, v))
    }

    pub fn subsumes(&self, other: &RowValue) -> bool {
        if Arc::ptr_eq(&self.cells, &other.cells) {
            return true;
        }
        if other.cells.len() > self.cells.len() {
            return false;
        }
        other
            .cells
            .iter()
            .all(|(c, v)| self.cells.get(c) == Some(v))
    }

    pub fn key_projection(&self, schema: &Schema) -> Option<RowValue> {
        let mut cells = BTreeMap::new();
        for &k in schema.key() {
            cells.insert(k, self.cells.get(&k)?.clone());
        }
        Some(RowValue {
            cells: Arc::new(cells),
        })
    }

    pub fn key_values(&self, schema: &Schema) -> Option<Vec<Value>> {
        let key = schema.key();
        let mut out = Vec::with_capacity(key.len());
        for k in key {
            out.push(self.cells.get(k)?.clone());
        }
        Some(out)
    }

    pub fn added_column(&self, other: &RowValue) -> Option<ColumnId> {
        if other.cells.len() != self.cells.len() + 1 || !other.subsumes(self) {
            return None;
        }
        other
            .cells
            .keys()
            .find(|c| !self.cells.contains_key(c))
            .copied()
    }
}
