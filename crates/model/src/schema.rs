//! Table schemas (paper §2.1).
//!
//! A CrowdFill user launches data collection by providing a table schema:
//! column definitions (name, data type, optional domain of allowed values)
//! and a primary key (one or more columns that must uniquely identify each
//! row in the *final* table; by default all columns together form the key).

use crate::error::ModelError;
use crate::value::{DataType, Value};
use std::fmt;

/// Identifies a column by its position in the schema.
///
/// Column ids are dense indexes (0-based); they are stable for the lifetime of
/// a data-collection task because schemas are immutable once collection starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnId(pub u16);

impl ColumnId {
    /// The index of this column within its schema.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "col#{}", self.0)
    }
}

/// A single column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data_type: DataType,
    /// Optional set of allowed values (the paper's "domain"). When present,
    /// every fill into this column must use one of these values.
    domain: Option<Vec<Value>>,
}

impl Column {
    /// Creates a column with no domain restriction.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            name: name.into(),
            data_type,
            domain: None,
        }
    }

    /// Creates a column restricted to a fixed set of allowed values. All
    /// domain values must match `data_type`.
    pub fn with_domain(
        name: impl Into<String>,
        data_type: DataType,
        domain: Vec<Value>,
    ) -> Result<Column, ModelError> {
        for v in &domain {
            if v.data_type() != data_type {
                return Err(ModelError::TypeMismatch {
                    expected: data_type,
                    found: v.data_type(),
                });
            }
        }
        Ok(Column {
            name: name.into(),
            data_type,
            domain: Some(domain),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
    pub fn domain(&self) -> Option<&[Value]> {
        self.domain.as_deref()
    }

    /// Checks that `v` is admissible for this column (type and domain).
    pub fn admits(&self, v: &Value) -> Result<(), ModelError> {
        if v.data_type() != self.data_type {
            return Err(ModelError::TypeMismatch {
                expected: self.data_type,
                found: v.data_type(),
            });
        }
        if let Some(domain) = &self.domain {
            if !domain.contains(v) {
                return Err(ModelError::DomainViolation {
                    column: self.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// An immutable table schema: columns plus a primary key.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    name: String,
    columns: Vec<Column>,
    /// Indexes (into `columns`) of the primary-key columns, ascending.
    key: Vec<ColumnId>,
}

impl Schema {
    /// Builds a schema. `key_columns` names the primary-key columns; if empty,
    /// all columns together form the key (the paper's default: no duplicate
    /// rows in the final table).
    pub fn new(
        name: impl Into<String>,
        columns: Vec<Column>,
        key_columns: &[&str],
    ) -> Result<Schema, ModelError> {
        let name = name.into();
        if columns.is_empty() {
            return Err(ModelError::EmptySchema);
        }
        if columns.len() > u16::MAX as usize {
            return Err(ModelError::TooManyColumns);
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(ModelError::DuplicateColumn(c.name.clone()));
            }
        }
        let key = if key_columns.is_empty() {
            (0..columns.len() as u16).map(ColumnId).collect()
        } else {
            let mut key = Vec::with_capacity(key_columns.len());
            for &k in key_columns {
                let id = columns
                    .iter()
                    .position(|c| c.name == k)
                    .map(|i| ColumnId(i as u16))
                    .ok_or_else(|| ModelError::UnknownColumn(k.to_string()))?;
                if key.contains(&id) {
                    return Err(ModelError::DuplicateColumn(k.to_string()));
                }
                key.push(id);
            }
            key.sort_unstable();
            key
        };
        Ok(Schema { name, columns, key })
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Iterates over `(ColumnId, &Column)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .map(|(i, c)| (ColumnId(i as u16), c))
    }

    /// All column ids in schema order.
    pub fn column_ids(&self) -> impl Iterator<Item = ColumnId> + '_ {
        (0..self.columns.len() as u16).map(ColumnId)
    }

    /// The primary-key column ids (ascending).
    pub fn key(&self) -> &[ColumnId] {
        &self.key
    }

    /// Whether `col` is part of the primary key.
    pub fn is_key(&self, col: ColumnId) -> bool {
        self.key.binary_search(&col).is_ok()
    }

    /// Looks a column up by name.
    pub fn column_id(&self, name: &str) -> Option<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColumnId(i as u16))
    }

    /// The column definition for `col`, or an error for out-of-range ids.
    pub fn column(&self, col: ColumnId) -> Result<&Column, ModelError> {
        self.columns
            .get(col.index())
            .ok_or(ModelError::ColumnOutOfRange(col))
    }

    /// Validates that `v` may be filled into `col`.
    pub fn admits(&self, col: ColumnId, v: &Value) -> Result<(), ModelError> {
        self.column(col)?.admits(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soccer() -> Schema {
        Schema::new(
            "SoccerPlayer",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nationality", DataType::Text),
                Column::with_domain(
                    "position",
                    DataType::Text,
                    ["GK", "DF", "MF", "FW"]
                        .iter()
                        .map(|s| Value::text(*s))
                        .collect(),
                )
                .unwrap(),
                Column::new("caps", DataType::Int),
                Column::new("goals", DataType::Int),
            ],
            &["name", "nationality"],
        )
        .unwrap()
    }

    #[test]
    fn builds_running_example_schema() {
        let s = soccer();
        assert_eq!(s.width(), 5);
        assert_eq!(s.key(), &[ColumnId(0), ColumnId(1)]);
        assert!(s.is_key(ColumnId(0)));
        assert!(!s.is_key(ColumnId(2)));
        assert_eq!(s.column_id("caps"), Some(ColumnId(3)));
        assert_eq!(s.column_id("height"), None);
    }

    #[test]
    fn default_key_is_all_columns() {
        let s = Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ],
            &[],
        )
        .unwrap();
        assert_eq!(s.key().len(), 2);
    }

    #[test]
    fn rejects_duplicate_columns() {
        let err = Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Int),
                Column::new("a", DataType::Text),
            ],
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateColumn(_)));
    }

    #[test]
    fn rejects_unknown_key_column() {
        let err = Schema::new("T", vec![Column::new("a", DataType::Int)], &["z"]).unwrap_err();
        assert!(matches!(err, ModelError::UnknownColumn(_)));
    }

    #[test]
    fn rejects_empty_schema() {
        assert!(matches!(
            Schema::new("T", vec![], &[]),
            Err(ModelError::EmptySchema)
        ));
    }

    #[test]
    fn rejects_duplicate_key_reference() {
        let err = Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ],
            &["a", "a"],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateColumn(_)));
    }

    #[test]
    fn admits_checks_type_and_domain() {
        let s = soccer();
        let pos = s.column_id("position").unwrap();
        assert!(s.admits(pos, &Value::text("FW")).is_ok());
        assert!(matches!(
            s.admits(pos, &Value::text("STRIKER")),
            Err(ModelError::DomainViolation { .. })
        ));
        assert!(matches!(
            s.admits(pos, &Value::int(3)),
            Err(ModelError::TypeMismatch { .. })
        ));
        let caps = s.column_id("caps").unwrap();
        assert!(s.admits(caps, &Value::int(83)).is_ok());
    }

    #[test]
    fn domain_values_must_match_type() {
        assert!(Column::with_domain("p", DataType::Int, vec![Value::text("x")]).is_err());
    }

    #[test]
    fn column_out_of_range() {
        let s = soccer();
        assert!(matches!(
            s.column(ColumnId(99)),
            Err(ModelError::ColumnOutOfRange(_))
        ));
    }
}
