//! Rows, row identifiers, and row values (paper §2.2–2.3).
//!
//! The paper distinguishes a row's *identifier* `r` from its *value* `r̄`.
//! A row value is a partial assignment of columns to values: an *empty* row
//! has no values, a *partial* row has one or more, and a *complete* row has a
//! value for every column. The subsumption relation `q ⊇ r` (row value `q`
//! contains every value of `r`) is central to the whole model: downvotes
//! propagate to supersets, templates are satisfied by subsuming rows, and
//! indirect compensation is granted to subsets of final rows.

use crate::schema::{ColumnId, Schema};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Identifies the origin of a row (a worker client or the central client).
///
/// Client 0 is reserved for the system's Central Client (paper §4); the
/// back-end server never creates rows itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl ClientId {
    /// The reserved id of the Central Client.
    pub const CENTRAL: ClientId = ClientId(0);

    /// Whether this is the Central Client.
    pub fn is_central(self) -> bool {
        self == ClientId::CENTRAL
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_central() {
            write!(f, "CC")
        } else {
            write!(f, "client#{}", self.0)
        }
    }
}

/// A globally unique row identifier.
///
/// The paper requires that "insert and fill operations generate globally
/// unique row identifiers for their newly-constructed rows". We achieve this
/// without coordination by pairing the originating client with a per-client
/// sequence number. The derived `Ord` gives the deterministic tie-breaking
/// the final-table derivation and probable-row selection rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    pub client: ClientId,
    pub seq: u64,
}

impl RowId {
    pub fn new(client: ClientId, seq: u64) -> RowId {
        RowId { client, seq }
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.client.0, self.seq)
    }
}

/// A row value `r̄`: a sparse assignment of columns to values.
///
/// Also used for the paper's *value-vectors* `v` (values for a subset of the
/// columns), which key the upvote/downvote histories.
///
/// The cells are one `Arc`'d slice of `(column, value)` pairs, strictly
/// ascending by column: one allocation per value. Row values are immutable
/// once built (Lemma 1 — a fill *replaces* the row under a fresh id), so
/// cloning one — into vote histories, broadcast outboxes, the WAL, the trace
/// ring — is a refcount bump, not a deep copy. A map and an ascending slice
/// of its pairs hash the same writes (a length prefix, then each pair) and
/// order and compare the same (lexicographically by pair), so
/// `Eq`/`Ord`/`Hash` and `{:?}` are those of a `BTreeMap<ColumnId, Value>`
/// (`tests/row_oracle.rs` holds one as the oracle), and sharing is invisible
/// to vote resolution and subsumption; [`subsumes`](Self::subsumes)
/// additionally short-circuits on pointer-identical cells.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowValue {
    cells: Arc<[(ColumnId, Value)]>,
}

impl RowValue {
    /// The empty row value.
    pub fn empty() -> RowValue {
        RowValue::default()
    }

    /// Builds a row value from `(column, value)` pairs, in any order; of
    /// pairs naming one column the last wins. Pairs that come strictly
    /// ascending from an iterator of known length (an array, a `Vec`, a
    /// drained buffer) are written straight into the value's one
    /// allocation.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ColumnId, Value)>) -> RowValue {
        let cells: Arc<[(ColumnId, Value)]> = pairs.into_iter().collect();
        if cells.windows(2).all(|w| w[0].0 < w[1].0) {
            return RowValue { cells };
        }
        // Reversed, a stable sort puts each column's last pair first in its
        // run, which is the one `dedup` keeps.
        let mut pairs = cells.to_vec();
        pairs.reverse();
        pairs.sort_by_key(|&(c, _)| c);
        pairs.dedup_by_key(|&mut (c, _)| c);
        RowValue {
            cells: pairs.into(),
        }
    }

    /// Where `col` is, or would be inserted.
    fn find(&self, col: ColumnId) -> Result<usize, usize> {
        self.cells.binary_search_by_key(&col, |&(c, _)| c)
    }

    /// Number of filled cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are filled (an *empty* row).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// True when at least one cell is filled (a *partial* row; note a
    /// complete row is also partial by the paper's definition).
    pub fn is_partial(&self) -> bool {
        !self.cells.is_empty()
    }

    /// True when every column of `schema` is filled (a *complete* row).
    pub fn is_complete(&self, schema: &Schema) -> bool {
        self.cells.len() == schema.width()
    }

    /// The value in `col`, if filled.
    pub fn get(&self, col: ColumnId) -> Option<&Value> {
        self.find(col).ok().map(|i| &self.cells[i].1)
    }

    /// Whether `col` is filled.
    pub fn has(&self, col: ColumnId) -> bool {
        self.find(col).is_ok()
    }

    /// Returns a copy with `col` set to `v`. The caller is responsible for
    /// having checked that `col` was empty (the `fill` operation's contract).
    /// This is the one place a row value is built from another: one
    /// allocation, and the copied values are interned/shared, so the copy is
    /// shallow.
    pub fn with(&self, col: ColumnId, v: Value) -> RowValue {
        let (head, tail) = match self.find(col) {
            Ok(i) => (&self.cells[..i], &self.cells[i + 1..]),
            Err(i) => self.cells.split_at(i),
        };
        let cells = (head.iter().cloned())
            .chain(std::iter::once((col, v)))
            .chain(tail.iter().cloned())
            .collect();
        RowValue { cells }
    }

    /// Iterates over filled `(column, value)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &Value)> {
        self.cells.iter().map(|(c, v)| (*c, v))
    }

    /// The filled column ids, ascending.
    pub fn columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.cells.iter().map(|&(c, _)| c)
    }

    /// Subsumption: `self ⊇ other` — every value in `other` is present and
    /// equal in `self` (paper §2.3, after [Ullman 89]). One merge walk of
    /// the two ascending slices.
    pub fn subsumes(&self, other: &RowValue) -> bool {
        if Arc::ptr_eq(&self.cells, &other.cells) {
            return true;
        }
        if other.cells.len() > self.cells.len() {
            return false;
        }
        let mut mine = self.cells.iter();
        other.cells.iter().all(|(c, v)| {
            mine.find(|(m, _)| m >= c)
                .is_some_and(|(m, w)| m == c && w == v)
        })
    }

    /// The projection of this row value onto the primary-key columns.
    /// Returns `None` unless *all* key columns are filled.
    pub fn key_projection(&self, schema: &Schema) -> Option<RowValue> {
        let key = schema.key().iter();
        let cells = key.map(|&k| Some((k, self.get(k)?.clone())));
        Some(RowValue::from_pairs(cells.collect::<Option<Vec<_>>>()?))
    }

    /// The primary-key cell values in key-column order, or `None` unless all
    /// key columns are filled. A flat, allocation-light alternative to
    /// [`key_projection`](Self::key_projection) for use as a grouping key on
    /// hot paths (the values themselves are shared, not copied).
    pub fn key_values(&self, schema: &Schema) -> Option<Vec<Value>> {
        let key = schema.key();
        let mut out = Vec::with_capacity(key.len());
        for &k in key {
            out.push(self.get(k)?.clone());
        }
        Some(out)
    }

    /// Whether all primary-key columns are filled.
    pub fn has_full_key(&self, schema: &Schema) -> bool {
        schema.key().iter().all(|&k| self.has(k))
    }

    /// The columns of `schema` that are still empty in this row.
    pub fn empty_columns<'s>(&'s self, schema: &'s Schema) -> impl Iterator<Item = ColumnId> + 's {
        schema.column_ids().filter(move |c| !self.has(*c))
    }

    /// If `other` is `self` plus exactly one extra cell, returns that cell's
    /// column. Used to recover which column a `replace` message filled.
    pub fn added_column(&self, other: &RowValue) -> Option<ColumnId> {
        if other.cells.len() != self.cells.len() + 1 || !other.subsumes(self) {
            return None;
        }
        other.columns().find(|&c| !self.has(c))
    }

    /// Renders the row against a schema, `-` for empty cells.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> RowDisplay<'a> {
        RowDisplay { row: self, schema }
    }
}

/// The text a map's derived `Debug` prints, `RowValue { cells:
/// {ColumnId(0): Text("Messi"), …} }`, on which logs and goldens rely.
impl fmt::Debug for RowValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Cells<'a>(&'a [(ColumnId, Value)]);
        impl fmt::Debug for Cells<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(c, v)| (c, v)))
                    .finish()
            }
        }
        f.debug_struct("RowValue")
            .field("cells", &Cells(&self.cells))
            .finish()
    }
}

impl FromIterator<(ColumnId, Value)> for RowValue {
    fn from_iter<T: IntoIterator<Item = (ColumnId, Value)>>(iter: T) -> RowValue {
        RowValue::from_pairs(iter)
    }
}

/// Schema-aware display adapter for [`RowValue`].
pub struct RowDisplay<'a> {
    row: &'a RowValue,
    schema: &'a Schema,
}

impl fmt::Display for RowDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for col in self.schema.column_ids() {
            if !first {
                f.write_str(" | ")?;
            }
            first = false;
            match self.row.get(col) {
                Some(v) => write!(f, "{v}")?,
                None => f.write_str("-")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "SoccerPlayer",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nationality", DataType::Text),
                Column::new("position", DataType::Text),
                Column::new("caps", DataType::Int),
                Column::new("goals", DataType::Int),
            ],
            &["name", "nationality"],
        )
        .unwrap()
    }

    fn rv(pairs: &[(u16, Value)]) -> RowValue {
        RowValue::from_pairs(pairs.iter().map(|(c, v)| (ColumnId(*c), v.clone())))
    }

    #[test]
    fn emptiness_states() {
        let s = schema();
        let empty = RowValue::empty();
        assert!(empty.is_empty() && !empty.is_partial() && !empty.is_complete(&s));

        let partial = rv(&[(0, Value::text("Messi"))]);
        assert!(!partial.is_empty() && partial.is_partial() && !partial.is_complete(&s));

        let complete = rv(&[
            (0, Value::text("Messi")),
            (1, Value::text("Argentina")),
            (2, Value::text("FW")),
            (3, Value::int(83)),
            (4, Value::int(37)),
        ]);
        assert!(complete.is_partial() && complete.is_complete(&s));
    }

    #[test]
    fn subsumption_reflexive_and_monotone() {
        let a = rv(&[(0, Value::text("Messi"))]);
        let b = rv(&[(0, Value::text("Messi")), (1, Value::text("Argentina"))]);
        assert!(a.subsumes(&a));
        assert!(b.subsumes(&a));
        assert!(!a.subsumes(&b));
        assert!(b.subsumes(&RowValue::empty()));
        assert!(RowValue::empty().subsumes(&RowValue::empty()));
    }

    #[test]
    fn subsumption_requires_equal_values() {
        let a = rv(&[(0, Value::text("Messi"))]);
        let b = rv(&[(0, Value::text("Neymar")), (1, Value::text("Brazil"))]);
        assert!(!b.subsumes(&a));
    }

    #[test]
    fn with_does_not_mutate_original() {
        let a = rv(&[(0, Value::text("Messi"))]);
        let b = a.with(ColumnId(1), Value::text("Argentina"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert!(b.subsumes(&a));
    }

    #[test]
    fn key_projection() {
        let s = schema();
        let full_key = rv(&[(0, Value::text("Messi")), (1, Value::text("Argentina"))]);
        let proj = full_key.key_projection(&s).unwrap();
        assert_eq!(proj, full_key);

        let partial_key = rv(&[(0, Value::text("Messi")), (2, Value::text("FW"))]);
        assert!(partial_key.key_projection(&s).is_none());
        assert!(!partial_key.has_full_key(&s));
        assert!(full_key.has_full_key(&s));
    }

    #[test]
    fn added_column_detection() {
        let a = rv(&[(0, Value::text("Messi"))]);
        let b = a.with(ColumnId(3), Value::int(83));
        assert_eq!(a.added_column(&b), Some(ColumnId(3)));
        assert_eq!(b.added_column(&a), None);
        assert_eq!(a.added_column(&a), None);
        // Replaced (not added) value is not an "added column".
        let c = rv(&[(0, Value::text("Neymar")), (3, Value::int(83))]);
        assert_eq!(a.added_column(&c), None);
    }

    #[test]
    fn empty_columns_lists_holes() {
        let s = schema();
        let partial = rv(&[(0, Value::text("Messi")), (3, Value::int(83))]);
        let holes: Vec<ColumnId> = partial.empty_columns(&s).collect();
        assert_eq!(holes, vec![ColumnId(1), ColumnId(2), ColumnId(4)]);
    }

    #[test]
    fn row_id_ordering_is_total_and_deterministic() {
        let a = RowId::new(ClientId(1), 5);
        let b = RowId::new(ClientId(1), 6);
        let c = RowId::new(ClientId(2), 0);
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "r1.5");
    }

    #[test]
    fn display_renders_holes() {
        let s = schema();
        let partial = rv(&[(0, Value::text("Messi")), (3, Value::int(83))]);
        assert_eq!(partial.display(&s).to_string(), "Messi | - | - | 83 | -");
    }
}
