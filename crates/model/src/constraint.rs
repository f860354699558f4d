//! Constraints on the collected data (paper §2.3).
//!
//! * **Cardinality constraint** — the final table must contain at least `n`
//!   rows; expressed as `n` empty template rows.
//! * **Values constraint** — a set `T` of template rows; the final table must
//!   contain, for each `t ∈ T`, a *unique* row `s` with `s ⊇ t`.
//! * **Predicates constraint** — template entries may be predicates instead
//!   of specific values (`s ⊇* t`). The paper describes these but had not
//!   implemented them; this crate implements them fully, and they degrade to
//!   values constraints when every predicate is an equality.
//!
//! Satisfaction requires a *unique witness* per template row, i.e. a perfect
//! matching of `T` into the final table's rows — checked here with a small
//! augmenting-path matcher (the heavy-duty incremental matcher used for live
//! PRI maintenance lives in `crowdfill-matching`).

use crate::final_table::FinalTable;
use crate::row::RowValue;
use crate::schema::{ColumnId, Schema};
use crate::value::Value;
use std::fmt;

/// A predicate over a single cell value (paper §2.3's template entries like
/// `≥30` or `='Brazil'`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    Eq(Value),
    Ne(Value),
    Lt(Value),
    Le(Value),
    Gt(Value),
    Ge(Value),
    /// Inclusive range.
    Between(Value, Value),
    /// Membership in a fixed set.
    In(Vec<Value>),
}

impl Predicate {
    /// Evaluates the predicate against a cell value. Comparisons across
    /// different data types are false (the schema normally prevents them).
    pub fn eval(&self, v: &Value) -> bool {
        let same = |a: &Value| a.data_type() == v.data_type();
        match self {
            Predicate::Eq(a) => v == a,
            Predicate::Ne(a) => same(a) && v != a,
            Predicate::Lt(a) => same(a) && v < a,
            Predicate::Le(a) => same(a) && v <= a,
            Predicate::Gt(a) => same(a) && v > a,
            Predicate::Ge(a) => same(a) && v >= a,
            Predicate::Between(lo, hi) => same(lo) && same(hi) && v >= lo && v <= hi,
            Predicate::In(set) => set.contains(v),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Eq(v) => write!(f, "={v}"),
            Predicate::Ne(v) => write!(f, "!={v}"),
            Predicate::Lt(v) => write!(f, "<{v}"),
            Predicate::Le(v) => write!(f, "<={v}"),
            Predicate::Gt(v) => write!(f, ">{v}"),
            Predicate::Ge(v) => write!(f, ">={v}"),
            Predicate::Between(lo, hi) => write!(f, "in [{lo}, {hi}]"),
            Predicate::In(set) => {
                write!(f, "in {{")?;
                for (i, v) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// One entry of a template row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Entry {
    /// No restriction; workers fill freely. (An absent entry.)
    Any,
    /// A prespecified value (values constraint).
    Value(Value),
    /// A predicate the collected value must satisfy (predicates constraint).
    Pred(Predicate),
}

/// A template row `t ∈ T`. Unrestricted columns are simply absent.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TemplateRow {
    entries: Vec<(ColumnId, Entry)>,
}

impl TemplateRow {
    /// An empty template row (contributes only to cardinality).
    pub fn empty() -> TemplateRow {
        TemplateRow::default()
    }

    /// Builds a template row from `(column, entry)` pairs; `Entry::Any`
    /// entries are dropped (they are the default).
    pub fn from_entries(pairs: impl IntoIterator<Item = (ColumnId, Entry)>) -> TemplateRow {
        let mut entries: Vec<(ColumnId, Entry)> = pairs
            .into_iter()
            .filter(|(_, e)| !matches!(e, Entry::Any))
            .collect();
        entries.sort_by_key(|(c, _)| *c);
        entries.dedup_by_key(|(c, _)| *c);
        TemplateRow { entries }
    }

    /// Builds a values-only template row.
    pub fn from_values(pairs: impl IntoIterator<Item = (ColumnId, Value)>) -> TemplateRow {
        TemplateRow::from_entries(pairs.into_iter().map(|(c, v)| (c, Entry::Value(v))))
    }

    /// The restricted entries, in column order.
    pub fn entries(&self) -> &[(ColumnId, Entry)] {
        &self.entries
    }

    /// The entry for `col` (`Entry::Any` if unrestricted).
    pub fn entry(&self, col: ColumnId) -> &Entry {
        self.entries
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, e)| e)
            .unwrap_or(&Entry::Any)
    }

    /// Whether this row places no restrictions at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The concrete values prespecified by this row (its `Entry::Value`s),
    /// i.e. the cells the Central Client fills at initialization.
    pub fn prescribed_values(&self) -> impl Iterator<Item = (ColumnId, &Value)> {
        self.entries.iter().filter_map(|(c, e)| match e {
            Entry::Value(v) => Some((*c, v)),
            _ => None,
        })
    }

    /// The concrete values as a [`RowValue`].
    pub fn prescribed_row_value(&self) -> RowValue {
        self.prescribed_values()
            .map(|(c, v)| (c, v.clone()))
            .collect()
    }

    /// Whether this template row uses only values/any entries (no predicates),
    /// i.e. expresses a plain values constraint.
    pub fn is_values_only(&self) -> bool {
        self.entries
            .iter()
            .all(|(_, e)| !matches!(e, Entry::Pred(_)))
    }

    /// Generalized subsumption `s ⊇* t` (paper §2.3): every restricted entry
    /// is satisfied by the corresponding value in `s` — equal for values,
    /// predicate-satisfying for predicates. Absent values in `s` fail any
    /// restricted entry.
    pub fn satisfied_by(&self, s: &RowValue) -> bool {
        self.entries.iter().all(|(c, e)| match (e, s.get(*c)) {
            (Entry::Any, _) => true,
            (_, None) => false,
            (Entry::Value(v), Some(sv)) => sv == v,
            (Entry::Pred(p), Some(sv)) => p.eval(sv),
        })
    }

    /// Validates the row against a schema: referenced columns exist, and
    /// value entries are type/domain admissible.
    pub fn validate(&self, schema: &Schema) -> Result<(), crate::error::ModelError> {
        for (c, e) in &self.entries {
            let col = schema.column(*c)?;
            if let Entry::Value(v) = e {
                col.admits(v)?;
            }
        }
        Ok(())
    }
}

/// A constraint template `T`: the user's specification of what the final
/// table must contain (cardinality constraints are absorbed as empty rows,
/// paper §4 intro).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Template {
    rows: Vec<TemplateRow>,
}

impl Template {
    /// An empty template (no constraints).
    pub fn new() -> Template {
        Template::default()
    }

    /// A pure cardinality constraint: `n` empty template rows.
    pub fn cardinality(n: usize) -> Template {
        Template {
            rows: vec![TemplateRow::empty(); n],
        }
    }

    /// Builds a template from explicit rows.
    pub fn from_rows(rows: Vec<TemplateRow>) -> Template {
        Template { rows }
    }

    /// Absorbs a cardinality constraint: if the template has fewer than `n`
    /// rows, pads with empty rows so `|T| ≥ n` (paper §4 intro).
    pub fn with_min_rows(mut self, n: usize) -> Template {
        while self.rows.len() < n {
            self.rows.push(TemplateRow::empty());
        }
        self
    }

    pub fn rows(&self) -> &[TemplateRow] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total number of unprescribed cells across all template rows — the
    /// estimator's initial guess for `|C|`, the number of worker-entered
    /// cells in the final table (paper §5.3).
    pub fn empty_cell_count(&self, schema: &Schema) -> usize {
        self.rows
            .iter()
            .map(|t| {
                schema.width()
                    - t.entries
                        .iter()
                        .filter(|(_, e)| matches!(e, Entry::Value(_)))
                        .count()
            })
            .sum()
    }

    /// Validates every row against the schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), crate::error::ModelError> {
        self.rows.iter().try_for_each(|r| r.validate(schema))
    }

    /// Checks satisfaction: for each template row `t` there must exist a
    /// **unique** final row `s` with `s ⊇* t` (unique-witness semantics via
    /// bipartite matching).
    pub fn satisfied_by(&self, final_table: &FinalTable) -> bool {
        rows_satisfied_by(self.rows.iter(), final_table)
    }
}

/// [`Template::satisfied_by`] over a borrowed row sequence, for callers (like
/// the PRI maintainer) that track live template rows outside a `Template` and
/// must not clone them per check.
pub fn rows_satisfied_by<'a>(
    rows: impl Iterator<Item = &'a TemplateRow>,
    final_table: &FinalTable,
) -> bool {
    let values: Vec<&RowValue> = final_table.values().collect();
    // adjacency[i] = final rows satisfying template row i
    let adj: Vec<Vec<usize>> = rows
        .map(|t| {
            values
                .iter()
                .enumerate()
                .filter(|(_, s)| t.satisfied_by(s))
                .map(|(j, _)| j)
                .collect()
        })
        .collect();
    max_matching(&adj, values.len()) == adj.len()
}

/// Kuhn's augmenting-path maximum bipartite matching. `adj[i]` lists the
/// right-vertices adjacent to left-vertex `i`. Small and allocation-light;
/// the satisfaction check runs it once per query, over |T| × |S|.
fn max_matching(adj: &[Vec<usize>], n_right: usize) -> usize {
    let mut match_right: Vec<Option<usize>> = vec![None; n_right];
    let mut size = 0;
    let mut visited = vec![false; n_right];
    for left in 0..adj.len() {
        visited.iter_mut().for_each(|v| *v = false);
        if try_kuhn(left, adj, &mut match_right, &mut visited) {
            size += 1;
        }
    }
    size
}

fn try_kuhn(
    left: usize,
    adj: &[Vec<usize>],
    match_right: &mut [Option<usize>],
    visited: &mut [bool],
) -> bool {
    for &right in &adj[left] {
        if visited[right] {
            continue;
        }
        visited[right] = true;
        if match_right[right].is_none()
            || try_kuhn(match_right[right].unwrap(), adj, match_right, visited)
        {
            match_right[right] = Some(left);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{ClientId, RowId};
    use crate::schema::Column;
    use crate::score::QuorumMajority;
    use crate::table::{CandidateTable, RowEntry};
    use crate::value::DataType;

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

    /// Builds the paper's §2.2 final table (Messi, Ronaldinho-MF, Casillas).
    fn paper_final_table(schema: &Schema) -> FinalTable {
        let mut t = CandidateTable::new(schema);
        let rows = [
            row(
                &[
                    ("name", "Lionel Messi"),
                    ("nationality", "Argentina"),
                    ("position", "FW"),
                    ("caps", "83"),
                    ("goals", "37"),
                ],
                schema,
            ),
            row(
                &[
                    ("name", "Ronaldinho"),
                    ("nationality", "Brazil"),
                    ("position", "MF"),
                    ("caps", "97"),
                    ("goals", "33"),
                ],
                schema,
            ),
            row(
                &[
                    ("name", "Iker Casillas"),
                    ("nationality", "Spain"),
                    ("position", "GK"),
                    ("caps", "150"),
                    ("goals", "0"),
                ],
                schema,
            ),
        ];
        for (i, v) in rows.into_iter().enumerate() {
            t.insert(
                RowId::new(ClientId(1), i as u64),
                RowEntry {
                    value: v,
                    upvotes: 2,
                    downvotes: 0,
                },
            );
        }
        crate::final_table::derive_final_table(&t, schema, &QuorumMajority::of_three())
    }

    #[test]
    fn predicate_eval() {
        assert!(Predicate::Eq(Value::text("FW")).eval(&Value::text("FW")));
        assert!(!Predicate::Eq(Value::text("FW")).eval(&Value::text("MF")));
        assert!(Predicate::Ge(Value::int(30)).eval(&Value::int(33)));
        assert!(!Predicate::Ge(Value::int(30)).eval(&Value::int(17)));
        assert!(Predicate::Lt(Value::int(100)).eval(&Value::int(99)));
        assert!(Predicate::Between(Value::int(80), Value::int(99)).eval(&Value::int(80)));
        assert!(!Predicate::Between(Value::int(80), Value::int(99)).eval(&Value::int(100)));
        assert!(Predicate::In(vec![Value::text("GK"), Value::text("DF")]).eval(&Value::text("GK")));
        assert!(Predicate::Ne(Value::int(0)).eval(&Value::int(5)));
        // Cross-type comparisons are false, not panics.
        assert!(!Predicate::Ge(Value::int(30)).eval(&Value::text("33")));
    }

    /// Paper §2.3: the values-constraint template (a forward from any country,
    /// any player from Brazil, any player from Spain) is satisfied by the
    /// §2.2 final table.
    #[test]
    fn paper_values_constraint_satisfied() {
        let s = soccer_schema();
        let ft = paper_final_table(&s);
        let pos = s.column_id("position").unwrap();
        let nat = s.column_id("nationality").unwrap();
        let template = Template::from_rows(vec![
            TemplateRow::from_values([(pos, Value::text("FW"))]),
            TemplateRow::from_values([(nat, Value::text("Brazil"))]),
            TemplateRow::from_values([(nat, Value::text("Spain"))]),
        ]);
        assert!(template.satisfied_by(&ft));
    }

    /// Paper §2.3: the predicates-constraint refinement (forward with ≥30
    /// goals, Brazilian with ≥30 goals, Spaniard with ≥100 caps) is also
    /// satisfied by the §2.2 final table.
    #[test]
    fn paper_predicates_constraint_satisfied() {
        let s = soccer_schema();
        let ft = paper_final_table(&s);
        let pos = s.column_id("position").unwrap();
        let nat = s.column_id("nationality").unwrap();
        let caps = s.column_id("caps").unwrap();
        let goals = s.column_id("goals").unwrap();
        let template = Template::from_rows(vec![
            TemplateRow::from_entries([
                (pos, Entry::Pred(Predicate::Eq(Value::text("FW")))),
                (goals, Entry::Pred(Predicate::Ge(Value::int(30)))),
            ]),
            TemplateRow::from_entries([
                (nat, Entry::Pred(Predicate::Eq(Value::text("Brazil")))),
                (goals, Entry::Pred(Predicate::Ge(Value::int(30)))),
            ]),
            TemplateRow::from_entries([
                (nat, Entry::Pred(Predicate::Eq(Value::text("Spain")))),
                (caps, Entry::Pred(Predicate::Ge(Value::int(100)))),
            ]),
        ]);
        assert!(template.satisfied_by(&ft));
    }

    #[test]
    fn uniqueness_of_witness_matters() {
        let s = soccer_schema();
        let ft = paper_final_table(&s);
        let nat = s.column_id("nationality").unwrap();
        // Two template rows both demanding a Brazilian: only one Brazilian
        // exists in the final table, so no injective assignment exists.
        let template = Template::from_rows(vec![
            TemplateRow::from_values([(nat, Value::text("Brazil"))]),
            TemplateRow::from_values([(nat, Value::text("Brazil"))]),
        ]);
        assert!(!template.satisfied_by(&ft));
    }

    #[test]
    fn matching_handles_contention() {
        let s = soccer_schema();
        let ft = paper_final_table(&s);
        let pos = s.column_id("position").unwrap();
        let nat = s.column_id("nationality").unwrap();
        // Row 1 could match Messi (FW) but must yield it if row 2 can only
        // match Messi... here: "any Argentine" can only be Messi, so the
        // "any FW" row must also settle on Messi — unsatisfiable together.
        let template = Template::from_rows(vec![
            TemplateRow::from_values([(pos, Value::text("FW"))]),
            TemplateRow::from_values([(nat, Value::text("Argentina"))]),
        ]);
        assert!(!template.satisfied_by(&ft)); // Messi is the only FW and only Argentine
    }

    #[test]
    fn cardinality_template() {
        let s = soccer_schema();
        let ft = paper_final_table(&s);
        assert!(Template::cardinality(3).satisfied_by(&ft));
        assert!(!Template::cardinality(4).satisfied_by(&ft));
        assert!(Template::cardinality(0).satisfied_by(&ft));
        assert_eq!(Template::cardinality(5).len(), 5);
    }

    #[test]
    fn with_min_rows_pads() {
        let s = soccer_schema();
        let nat = s.column_id("nationality").unwrap();
        let t = Template::from_rows(vec![TemplateRow::from_values([(
            nat,
            Value::text("Brazil"),
        )])])
        .with_min_rows(3);
        assert_eq!(t.len(), 3);
        assert!(t.rows()[1].is_empty() && t.rows()[2].is_empty());
        // No-op when already large enough.
        assert_eq!(t.clone().with_min_rows(2).len(), 3);
    }

    #[test]
    fn empty_cell_count() {
        let s = soccer_schema();
        let nat = s.column_id("nationality").unwrap();
        let caps = s.column_id("caps").unwrap();
        let t = Template::from_rows(vec![
            TemplateRow::from_values([(nat, Value::text("Brazil"))]),
            TemplateRow::from_entries([(caps, Entry::Pred(Predicate::Ge(Value::int(100))))]),
            TemplateRow::empty(),
        ]);
        // Row 1 prescribes one value (4 empty); predicates don't count as
        // filled (5 empty); empty row has 5 empty.
        assert_eq!(t.empty_cell_count(&s), 4 + 5 + 5);
    }

    #[test]
    fn template_row_validation() {
        let s = soccer_schema();
        let caps = s.column_id("caps").unwrap();
        let good = TemplateRow::from_values([(caps, Value::int(83))]);
        assert!(good.validate(&s).is_ok());
        let bad_type = TemplateRow::from_values([(caps, Value::text("eighty"))]);
        assert!(bad_type.validate(&s).is_err());
        let bad_col = TemplateRow::from_values([(ColumnId(99), Value::int(1))]);
        assert!(bad_col.validate(&s).is_err());
    }

    #[test]
    fn prescribed_values_skip_predicates() {
        let s = soccer_schema();
        let nat = s.column_id("nationality").unwrap();
        let goals = s.column_id("goals").unwrap();
        let t = TemplateRow::from_entries([
            (nat, Entry::Value(Value::text("Brazil"))),
            (goals, Entry::Pred(Predicate::Ge(Value::int(30)))),
        ]);
        let rv = t.prescribed_row_value();
        assert_eq!(rv.len(), 1);
        assert_eq!(rv.get(nat), Some(&Value::text("Brazil")));
        assert!(!t.is_values_only());
    }

    #[test]
    fn satisfied_by_requires_present_values() {
        let s = soccer_schema();
        let nat = s.column_id("nationality").unwrap();
        let t = TemplateRow::from_values([(nat, Value::text("Brazil"))]);
        let missing = row(&[("name", "Neymar")], &s);
        assert!(!t.satisfied_by(&missing));
        let present = row(&[("name", "Neymar"), ("nationality", "Brazil")], &s);
        assert!(t.satisfied_by(&present));
        assert!(TemplateRow::empty().satisfied_by(&RowValue::empty()));
    }
}
