//! Final-table derivation (paper §2.2).
//!
//! A final table `S` derived from a candidate table `R` contains each
//! *complete* row `r ∈ R` such that `f(u_r, d_r) > 0` and `f(u_r, d_r)` is the
//! highest score of any row with the same primary key as `r`. Ties are broken
//! arbitrarily in the paper; we break them deterministically by lowest
//! [`RowId`] so that every replica derives the identical final table. Groups
//! with no positive score contribute nothing. The final table respects the
//! primary-key constraint by construction.

use crate::row::{RowId, RowValue};
use crate::schema::Schema;
use crate::score::Scoring;
use crate::table::CandidateTable;
use std::collections::HashMap;

/// One row of a final table, remembering which candidate row produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalRow {
    /// The candidate row that won its primary-key group.
    pub id: RowId,
    /// The (complete) row value.
    pub value: RowValue,
    /// The winning score `f(u, d)`.
    pub score: i64,
    pub upvotes: u32,
    pub downvotes: u32,
}

/// A derived final table. Rows are ordered by ascending winner [`RowId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FinalTable {
    rows: Vec<FinalRow>,
}

impl FinalTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the final table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, ordered by winner id.
    pub fn rows(&self) -> &[FinalRow] {
        &self.rows
    }

    /// Iterates over row values.
    pub fn values(&self) -> impl Iterator<Item = &RowValue> {
        self.rows.iter().map(|r| &r.value)
    }

    /// Finds the final row whose value equals `v`, if any.
    pub fn row_with_value(&self, v: &RowValue) -> Option<&FinalRow> {
        self.rows.iter().find(|r| r.value == *v)
    }

    /// Whether some final row's value subsumes `v` (used to decide whether a
    /// downvote was "consistent with all rows in S", paper §5.2.1 — it
    /// contributes iff **no** final row subsumes the downvoted vector).
    pub fn any_subsumes(&self, v: &RowValue) -> bool {
        self.rows.iter().any(|r| r.value.subsumes(v))
    }
}

/// Derives the final table from a candidate table under `scoring`.
///
/// Grouping is by the primary-key projection; only complete rows with a
/// strictly positive score compete. Within a group the winner has the
/// highest score, ties broken by lowest row id.
pub fn derive_final_table(
    table: &CandidateTable,
    schema: &Schema,
    scoring: &dyn Scoring,
) -> FinalTable {
    // key projection -> index into `winners`
    let mut by_key: HashMap<RowValue, usize> = HashMap::new();
    let mut winners: Vec<FinalRow> = Vec::new();

    // Ascending-id iteration + strict `>` comparison implements the
    // lowest-id tie-break without an explicit comparator.
    for (id, entry) in table.iter() {
        if !entry.value.is_complete(schema) {
            continue;
        }
        let score = scoring.score(entry.upvotes, entry.downvotes);
        if score <= 0 {
            continue;
        }
        let key = entry
            .value
            .key_projection(schema)
            .expect("complete row has full key");
        let candidate = FinalRow {
            id,
            value: entry.value.clone(),
            score,
            upvotes: entry.upvotes,
            downvotes: entry.downvotes,
        };
        match by_key.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(winners.len());
                winners.push(candidate);
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                let cur = &mut winners[*o.get()];
                if score > cur.score {
                    *cur = candidate;
                }
            }
        }
    }

    winners.sort_by_key(|r| r.id);
    FinalTable { rows: winners }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::ClientId;
    use crate::schema::{Column, ColumnId};
    use crate::score::QuorumMajority;
    use crate::table::RowEntry;
    use crate::value::{DataType, Value};

    fn soccer_schema() -> Schema {
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

    fn row(vals: &[(&str, &str)], schema: &Schema) -> RowValue {
        RowValue::from_pairs(vals.iter().map(|(c, v)| {
            let id = schema.column_id(c).unwrap();
            let ty = schema.column(id).unwrap().data_type();
            (id, Value::parse(ty, v).unwrap())
        }))
    }

    fn entry(v: RowValue, up: u32, down: u32) -> RowEntry {
        RowEntry {
            value: v,
            upvotes: up,
            downvotes: down,
        }
    }

    /// The paper's §2.2 example: 10-row candidate table → 3-row final table.
    #[test]
    fn paper_section_2_2_example() {
        let s = soccer_schema();
        let mut t = CandidateTable::new(&s);
        let mut seq = 0;
        let mut add = |t: &mut CandidateTable, vals: &[(&str, &str)], up, down| {
            let id = RowId::new(ClientId(1), seq);
            seq += 1;
            t.insert(id, entry(row(vals, &s), up, down));
            id
        };

        add(
            &mut t,
            &[
                ("name", "Lionel Messi"),
                ("nationality", "Argentina"),
                ("position", "FW"),
                ("caps", "83"),
                ("goals", "37"),
            ],
            2,
            0,
        );
        add(
            &mut t,
            &[
                ("name", "Ronaldinho"),
                ("nationality", "Brazil"),
                ("position", "MF"),
                ("caps", "97"),
                ("goals", "33"),
            ],
            3,
            0,
        );
        add(
            &mut t,
            &[
                ("name", "Ronaldinho"),
                ("nationality", "Brazil"),
                ("position", "FW"),
                ("caps", "97"),
                ("goals", "33"),
            ],
            2,
            1,
        );
        add(
            &mut t,
            &[
                ("name", "Iker Casillas"),
                ("nationality", "Spain"),
                ("position", "GK"),
                ("caps", "150"),
                ("goals", "0"),
            ],
            2,
            0,
        );
        add(
            &mut t,
            &[
                ("name", "David Beckham"),
                ("nationality", "England"),
                ("position", "MF"),
                ("caps", "115"),
                ("goals", "17"),
            ],
            1,
            0,
        );
        add(
            &mut t,
            &[
                ("name", "Neymar"),
                ("nationality", "Brazil"),
                ("position", "FW"),
            ],
            0,
            1,
        );
        add(&mut t, &[("name", "Zinedine Zidane")], 0, 0);
        add(
            &mut t,
            &[("nationality", "France"), ("position", "DF")],
            0,
            0,
        );
        add(&mut t, &[], 0, 0);
        add(&mut t, &[], 0, 0);

        let f = derive_final_table(&t, &s, &QuorumMajority::of_three());
        assert_eq!(f.len(), 3);
        let names: Vec<&Value> = f
            .rows()
            .iter()
            .map(|r| r.value.get(ColumnId(0)).unwrap())
            .collect();
        assert_eq!(
            names,
            vec![
                &Value::text("Lionel Messi"),
                &Value::text("Ronaldinho"),
                &Value::text("Iker Casillas")
            ]
        );
        // Ronaldinho's winning row is the MF one (score 3 beats 1).
        let ron = &f.rows()[1];
        assert_eq!(ron.value.get(ColumnId(2)), Some(&Value::text("MF")));
        assert_eq!(ron.score, 3);
        // Beckham is excluded: score f(1,0)=0.
        assert!(!f
            .values()
            .any(|v| v.get(ColumnId(0)) == Some(&Value::text("David Beckham"))));
    }

    #[test]
    fn ties_break_to_lowest_row_id() {
        let s = soccer_schema();
        let mut t = CandidateTable::new(&s);
        let v1 = row(
            &[
                ("name", "A"),
                ("nationality", "X"),
                ("position", "FW"),
                ("caps", "80"),
                ("goals", "1"),
            ],
            &s,
        );
        let v2 = row(
            &[
                ("name", "A"),
                ("nationality", "X"),
                ("position", "MF"),
                ("caps", "80"),
                ("goals", "1"),
            ],
            &s,
        );
        // Same key, same score; higher id inserted first to prove ordering,
        // not insertion order, decides.
        t.insert(RowId::new(ClientId(2), 9), entry(v2, 2, 0));
        t.insert(RowId::new(ClientId(1), 1), entry(v1.clone(), 2, 0));
        let f = derive_final_table(&t, &s, &QuorumMajority::of_three());
        assert_eq!(f.len(), 1);
        assert_eq!(f.rows()[0].id, RowId::new(ClientId(1), 1));
        assert_eq!(f.rows()[0].value, v1);
    }

    #[test]
    fn incomplete_rows_never_appear() {
        let s = soccer_schema();
        let mut t = CandidateTable::new(&s);
        // Even with absurdly many upvotes, an incomplete row is out.
        t.insert(
            RowId::new(ClientId(1), 0),
            entry(row(&[("name", "A"), ("nationality", "X")], &s), 10, 0),
        );
        let f = derive_final_table(&t, &s, &QuorumMajority::of_three());
        assert!(f.is_empty());
    }

    #[test]
    fn zero_and_negative_scores_excluded() {
        let s = soccer_schema();
        let full = row(
            &[
                ("name", "A"),
                ("nationality", "X"),
                ("position", "FW"),
                ("caps", "80"),
                ("goals", "1"),
            ],
            &s,
        );
        let mut t = CandidateTable::new(&s);
        t.insert(RowId::new(ClientId(1), 0), entry(full.clone(), 1, 1)); // score 0
        t.insert(
            RowId::new(ClientId(1), 1),
            entry(full.with(ColumnId(4), Value::int(1)), 0, 3),
        ); // negative
        let f = derive_final_table(&t, &s, &QuorumMajority::of_three());
        assert!(f.is_empty());
    }

    #[test]
    fn any_subsumes_checks_downvote_consistency() {
        let s = soccer_schema();
        let full = row(
            &[
                ("name", "A"),
                ("nationality", "X"),
                ("position", "FW"),
                ("caps", "80"),
                ("goals", "1"),
            ],
            &s,
        );
        let mut t = CandidateTable::new(&s);
        t.insert(RowId::new(ClientId(1), 0), entry(full.clone(), 2, 0));
        let f = derive_final_table(&t, &s, &QuorumMajority::of_three());
        let sub = row(&[("name", "A")], &s);
        let other = row(&[("name", "B")], &s);
        assert!(f.any_subsumes(&sub));
        assert!(!f.any_subsumes(&other));
        assert!(f.row_with_value(&full).is_some());
        assert!(f.row_with_value(&sub).is_none());
    }
}
