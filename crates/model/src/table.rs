//! The candidate table (paper §2.2).
//!
//! A candidate table is a set of rows, each annotated with upvote and
//! downvote counts. This type is purely the *state*: mutation happens through
//! the synchronization layer (`crowdfill-sync`), which applies the paper's
//! primitive operations and messages. The methods here are the queries every
//! layer needs — lookup, completeness, vote bumps, and derivation input.

use crate::row::{RowId, RowValue};
use crate::schema::{ColumnId, Schema};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};

/// A full primary-key projection, in key-column order: what the key index
/// (and the probable-row classification, paper §4.1) groups rows by.
pub type Key = Vec<Value>;

/// One row of a candidate table: its value plus vote counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowEntry {
    pub value: RowValue,
    pub upvotes: u32,
    pub downvotes: u32,
}

impl RowEntry {
    /// A fresh row with the given value and zero votes.
    pub fn new(value: RowValue) -> RowEntry {
        RowEntry {
            value,
            upvotes: 0,
            downvotes: 0,
        }
    }
}

/// A candidate table: rows keyed by their globally-unique identifiers.
///
/// Iteration order is ascending [`RowId`], which makes every derived artifact
/// (final tables, probable-row tie-breaking, displays) deterministic across
/// replicas — a property the convergence tests rely on.
///
/// Beside the rows sits a **key index**: full key projection → the rows
/// holding it, ascending. A vote reaches only rows equal to or subsuming its
/// vector, and when the vector's key is full all of those share it, so a
/// vote reads one posting list instead of the table. Rows with an
/// incomplete key are not indexed; only a vote on a key-incomplete vector
/// (in practice a downvote, or its undo) still scans: [`scans`](Self::scans)
/// counts those, and [`last_scan`](Self::last_scan) keeps the rows the latest
/// one hit, so a reader of the table (the probable-row classifier) need not
/// scan again. The index is derived from the rows, so equality compares
/// rows only.
#[derive(Debug, Clone)]
pub struct CandidateTable {
    rows: BTreeMap<RowId, RowEntry>,
    /// The schema's primary-key columns, ascending.
    key: Vec<ColumnId>,
    by_key: HashMap<Key, Vec<RowId>>,
    scans: u64,
    /// The rows the latest scanning vote hit, ascending.
    scanned: Vec<RowId>,
}

impl PartialEq for CandidateTable {
    fn eq(&self, other: &CandidateTable) -> bool {
        self.rows == other.rows
    }
}

impl Eq for CandidateTable {}

impl CandidateTable {
    /// An empty candidate table over `schema`'s primary key.
    pub fn new(schema: &Schema) -> CandidateTable {
        CandidateTable {
            rows: BTreeMap::new(),
            key: schema.key().to_vec(),
            by_key: HashMap::new(),
            scans: 0,
            scanned: Vec::new(),
        }
    }

    /// A table over `schema`'s primary key holding `rows`, which must come
    /// strictly ascending by id: the row map is built in one bulk pass, and
    /// each row is appended to its key's posting list, which so stays
    /// ascending without a search.
    pub fn from_ascending(
        schema: &Schema,
        rows: impl IntoIterator<Item = (RowId, RowEntry)>,
    ) -> CandidateTable {
        let mut table = CandidateTable::new(schema);
        let rows: Vec<(RowId, RowEntry)> = rows.into_iter().collect();
        assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "rows must be strictly ascending by id"
        );
        for (id, entry) in &rows {
            if let Some(key) = table.key_of(&entry.value) {
                table.by_key.entry(key).or_default().push(*id);
            }
        }
        table.rows = rows.into_iter().collect();
        table
    }

    /// Adds `n` downvotes to every row whose value subsumes `v`: the
    /// Lemma 3 sum of a table built from its parts. Through `v`'s key group
    /// when its key is full, else by a scan — which, no vote being applied,
    /// is not counted in [`scans`](Self::scans).
    pub fn add_downvotes(&mut self, v: &RowValue, n: u32) {
        let add = |entry: &mut RowEntry| {
            if entry.value.subsumes(v) {
                entry.downvotes += n;
            }
        };
        match self.key_of(v) {
            Some(key) => {
                for id in self.by_key.get(&key).into_iter().flatten() {
                    add(self.rows.get_mut(id).expect("indexed row exists"));
                }
            }
            None => self.rows.values_mut().for_each(add),
        }
    }

    /// Number of rows (empty, partial, and complete alike).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether a row with this id exists.
    pub fn contains(&self, id: RowId) -> bool {
        self.rows.contains_key(&id)
    }

    /// The row entry for `id`, if present.
    pub fn get(&self, id: RowId) -> Option<&RowEntry> {
        self.rows.get(&id)
    }

    /// Inserts a row entry; replaces any existing row with the same id.
    /// (In well-formed executions ids are never reused; debug builds assert.)
    pub fn insert(&mut self, id: RowId, entry: RowEntry) {
        let key = self.key_of(&entry.value);
        let prev = self.rows.insert(id, entry);
        debug_assert!(prev.is_none(), "row id {id} reused");
        if let Some(prev) = prev {
            self.unindex(id, &prev.value);
        }
        if let Some(key) = key {
            let ids = self.by_key.entry(key).or_default();
            let at = ids.partition_point(|x| *x < id);
            ids.insert(at, id);
        }
    }

    /// Removes a row, returning it if present.
    pub fn remove(&mut self, id: RowId) -> Option<RowEntry> {
        let entry = self.rows.remove(&id)?;
        self.unindex(id, &entry.value);
        Some(entry)
    }

    fn unindex(&mut self, id: RowId, value: &RowValue) {
        let Some(key) = self.key_of(value) else {
            return;
        };
        if let Some(ids) = self.by_key.get_mut(&key) {
            if let Ok(at) = ids.binary_search(&id) {
                ids.remove(at);
            }
            if ids.is_empty() {
                self.by_key.remove(&key);
            }
        }
    }

    /// Iterates rows in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &RowEntry)> {
        self.rows.iter().map(|(id, e)| (*id, e))
    }

    /// All row ids in ascending order.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.rows.keys().copied()
    }

    /// `v`'s full key projection, or `None` unless every key column is
    /// filled.
    pub fn key_of(&self, v: &RowValue) -> Option<Key> {
        self.key.iter().map(|c| v.get(*c).cloned()).collect()
    }

    /// The rows whose key projection is `key`, ascending (empty if none).
    pub fn key_group(&self, key: &[Value]) -> &[RowId] {
        self.by_key.get(key).map_or(&[], Vec::as_slice)
    }

    /// Every non-empty key group, in no particular order.
    pub fn key_groups(&self) -> impl Iterator<Item = (&[Value], &[RowId])> {
        self.by_key
            .iter()
            .map(|(k, ids)| (k.as_slice(), ids.as_slice()))
    }

    /// How many vote applications had to scan every row because their
    /// vector's key is incomplete (this table's lifetime).
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// The rows the latest scanning vote hit, ascending (empty before the
    /// first scan).
    pub fn last_scan(&self) -> &[RowId] {
        &self.scanned
    }

    /// Applies `hit` to every row that can equal or subsume `v` — `v`'s key
    /// group when its key is full, else every row (a counted scan, whose
    /// hits it keeps) — and returns how many it reported hit.
    fn for_candidates(
        &mut self,
        v: &RowValue,
        mut hit: impl FnMut(&mut RowEntry) -> bool,
    ) -> usize {
        let mut n = 0;
        match self.key_of(v) {
            Some(key) => {
                for id in self.by_key.get(&key).into_iter().flatten() {
                    let entry = self.rows.get_mut(id).expect("indexed row exists");
                    n += usize::from(hit(entry));
                }
            }
            None => {
                self.scans += 1;
                self.scanned.clear();
                for (id, entry) in self.rows.iter_mut() {
                    if hit(entry) {
                        self.scanned.push(*id);
                    }
                }
                n = self.scanned.len();
            }
        }
        n
    }

    /// Increments the upvote count of every row whose value equals `v`
    /// (the paper's `upvote` semantics). Returns how many rows matched.
    pub fn upvote_matching(&mut self, v: &RowValue) -> usize {
        self.for_candidates(v, |e| {
            let hit = e.value == *v;
            e.upvotes += u32::from(hit);
            hit
        })
    }

    /// Increments the downvote count of every row whose value subsumes `v`
    /// (the paper's `downvote` semantics: `q ⊇ r`). Returns matches.
    pub fn downvote_subsuming(&mut self, v: &RowValue) -> usize {
        self.for_candidates(v, |e| {
            let hit = e.value.subsumes(v);
            e.downvotes += u32::from(hit);
            hit
        })
    }

    /// Decrements the upvote count of every row whose value equals `v`
    /// (undo semantics; saturating as a defensive measure — policy-compliant
    /// executions never underflow). Returns how many rows matched.
    pub fn undo_upvote_matching(&mut self, v: &RowValue) -> usize {
        self.for_candidates(v, |e| {
            let hit = e.value == *v;
            if hit {
                debug_assert!(e.upvotes > 0, "undo without a matching upvote");
                e.upvotes = e.upvotes.saturating_sub(1);
            }
            hit
        })
    }

    /// Decrements the downvote count of every row whose value subsumes `v`
    /// (undo semantics; saturating). Returns matches.
    pub fn undo_downvote_subsuming(&mut self, v: &RowValue) -> usize {
        self.for_candidates(v, |e| {
            let hit = e.value.subsumes(v);
            if hit {
                debug_assert!(e.downvotes > 0, "undo without a matching downvote");
                e.downvotes = e.downvotes.saturating_sub(1);
            }
            hit
        })
    }

    /// Count of rows that are complete under `schema`.
    pub fn complete_count(&self, schema: &Schema) -> usize {
        self.rows
            .values()
            .filter(|e| e.value.is_complete(schema))
            .count()
    }

    /// Count of empty rows.
    pub fn empty_count(&self) -> usize {
        self.rows.values().filter(|e| e.value.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::ClientId;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Int),
            ],
            &["a"],
        )
        .unwrap()
    }

    fn id(seq: u64) -> RowId {
        RowId::new(ClientId(1), seq)
    }

    fn rv(pairs: &[(u16, Value)]) -> RowValue {
        RowValue::from_pairs(pairs.iter().map(|(c, v)| (ColumnId(*c), v.clone())))
    }

    #[test]
    fn insert_get_remove() {
        let mut t = CandidateTable::new(&schema());
        assert!(t.is_empty());
        t.insert(id(0), RowEntry::new(RowValue::empty()));
        assert_eq!(t.len(), 1);
        assert!(t.contains(id(0)));
        assert!(t.get(id(0)).unwrap().value.is_empty());
        assert!(t.remove(id(0)).is_some());
        assert!(t.remove(id(0)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn upvote_hits_equal_values_only() {
        let mut t = CandidateTable::new(&schema());
        let v = rv(&[(0, Value::text("x")), (1, Value::int(1))]);
        t.insert(id(0), RowEntry::new(v.clone()));
        t.insert(id(1), RowEntry::new(v.clone())); // duplicate value, different id
        t.insert(id(2), RowEntry::new(rv(&[(0, Value::text("x"))])));
        assert_eq!(t.upvote_matching(&v), 2);
        assert_eq!(t.get(id(0)).unwrap().upvotes, 1);
        assert_eq!(t.get(id(1)).unwrap().upvotes, 1);
        assert_eq!(t.get(id(2)).unwrap().upvotes, 0);
    }

    #[test]
    fn downvote_hits_supersets() {
        let mut t = CandidateTable::new(&schema());
        let partial = rv(&[(0, Value::text("x"))]);
        let full = rv(&[(0, Value::text("x")), (1, Value::int(1))]);
        let other = rv(&[(0, Value::text("y")), (1, Value::int(1))]);
        t.insert(id(0), RowEntry::new(partial.clone()));
        t.insert(id(1), RowEntry::new(full));
        t.insert(id(2), RowEntry::new(other));
        // Downvoting the partial value hits both it and its superset.
        assert_eq!(t.downvote_subsuming(&partial), 2);
        assert_eq!(t.get(id(0)).unwrap().downvotes, 1);
        assert_eq!(t.get(id(1)).unwrap().downvotes, 1);
        assert_eq!(t.get(id(2)).unwrap().downvotes, 0);
    }

    #[test]
    fn counts() {
        let s = schema();
        let mut t = CandidateTable::new(&s);
        t.insert(id(0), RowEntry::new(RowValue::empty()));
        t.insert(id(1), RowEntry::new(rv(&[(0, Value::text("x"))])));
        t.insert(
            id(2),
            RowEntry::new(rv(&[(0, Value::text("y")), (1, Value::int(2))])),
        );
        assert_eq!(t.empty_count(), 1);
        assert_eq!(t.complete_count(&s), 1);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut t = CandidateTable::new(&schema());
        t.insert(RowId::new(ClientId(2), 0), RowEntry::new(RowValue::empty()));
        t.insert(RowId::new(ClientId(1), 7), RowEntry::new(RowValue::empty()));
        t.insert(RowId::new(ClientId(1), 3), RowEntry::new(RowValue::empty()));
        let ids: Vec<RowId> = t.row_ids().collect();
        assert_eq!(
            ids,
            vec![
                RowId::new(ClientId(1), 3),
                RowId::new(ClientId(1), 7),
                RowId::new(ClientId(2), 0)
            ]
        );
    }

    #[test]
    fn key_index_follows_inserts_and_removes() {
        let mut t = CandidateTable::new(&schema());
        let x = rv(&[(0, Value::text("x"))]);
        let x1 = rv(&[(0, Value::text("x")), (1, Value::int(1))]);
        t.insert(id(5), RowEntry::new(x1.clone()));
        t.insert(id(2), RowEntry::new(x.clone()));
        t.insert(id(9), RowEntry::new(RowValue::empty())); // no key: not indexed
        let key = t.key_of(&x).unwrap();
        assert_eq!(t.key_group(&key), &[id(2), id(5)]);
        assert_eq!(t.key_groups().count(), 1);
        t.remove(id(2));
        assert_eq!(t.key_group(&key), &[id(5)]);
        t.remove(id(5));
        assert!(t.key_group(&key).is_empty());
        assert_eq!(t.key_groups().count(), 0);
    }

    #[test]
    fn only_key_incomplete_votes_scan() {
        let mut t = CandidateTable::new(&schema());
        let full = rv(&[(0, Value::text("x")), (1, Value::int(1))]);
        t.insert(id(0), RowEntry::new(full.clone()));
        t.insert(id(1), RowEntry::new(rv(&[(1, Value::int(1))])));
        assert_eq!(t.upvote_matching(&full), 1);
        assert_eq!(t.downvote_subsuming(&full), 1);
        assert_eq!(t.scans(), 0);
        // {b: 1} has no key: both rows subsume it, found by a scan.
        assert_eq!(t.downvote_subsuming(&rv(&[(1, Value::int(1))])), 2);
        assert_eq!(t.last_scan(), &[id(0), id(1)]);
        assert_eq!(t.undo_downvote_subsuming(&rv(&[(1, Value::int(1))])), 2);
        assert_eq!(t.scans(), 2);
        // {b: 2}: nothing subsumes it, and the scan says so.
        assert_eq!(t.downvote_subsuming(&rv(&[(1, Value::int(2))])), 0);
        assert!(t.last_scan().is_empty());
    }

    #[test]
    fn equality_ignores_the_index() {
        let (a, b) = (
            rv(&[(0, Value::text("x"))]),
            rv(&[(0, Value::text("x")), (1, Value::int(1))]),
        );
        let mut left = CandidateTable::new(&schema());
        left.insert(id(0), RowEntry::new(a.clone()));
        left.insert(id(1), RowEntry::new(b.clone()));
        let mut right = CandidateTable::new(&schema());
        right.insert(id(1), RowEntry::new(b));
        right.insert(id(0), RowEntry::new(a));
        right.downvote_subsuming(&rv(&[(1, Value::int(1))]));
        right.undo_downvote_subsuming(&rv(&[(1, Value::int(1))]));
        assert_eq!(left, right);
    }

    #[test]
    fn a_bulk_built_table_is_the_incremental_one() {
        let (x, x1, b1) = (
            rv(&[(0, Value::text("x"))]),
            rv(&[(0, Value::text("x")), (1, Value::int(1))]),
            rv(&[(1, Value::int(1))]),
        );
        let rows = [(id(1), x1.clone()), (id(3), x.clone()), (id(4), x1.clone())];
        let mut bulk = CandidateTable::from_ascending(
            &schema(),
            rows.iter().map(|(id, v)| (*id, RowEntry::new(v.clone()))),
        );
        bulk.add_downvotes(&x, 2); // full key: through its group
        bulk.add_downvotes(&b1, 3); // no key: a scan, not counted
        let mut one_by_one = CandidateTable::new(&schema());
        for (id, v) in rows.iter().rev() {
            one_by_one.insert(*id, RowEntry::new(v.clone()));
        }
        for _ in 0..2 {
            one_by_one.downvote_subsuming(&x);
        }
        for _ in 0..3 {
            one_by_one.downvote_subsuming(&b1);
        }
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.get(id(1)).unwrap().downvotes, 5);
        assert_eq!(bulk.get(id(3)).unwrap().downvotes, 2);
        let key = bulk.key_of(&x).unwrap();
        assert_eq!(bulk.key_group(&key), one_by_one.key_group(&key));
        assert_eq!(bulk.key_group(&key), &[id(1), id(3), id(4)]);
        assert_eq!(bulk.scans(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_bulk_build_refuses_rows_out_of_order() {
        let rows = [id(2), id(1)].map(|id| (id, RowEntry::new(RowValue::empty())));
        CandidateTable::from_ascending(&schema(), rows);
    }
}
