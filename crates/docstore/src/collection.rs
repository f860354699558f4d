//! In-memory document collections.
//!
//! The front-end server stores task specifications, traces, and collected
//! results as JSON documents. A collection maps a string document id to a
//! JSON object and iterates them in id order.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from collection operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Insert with an id that already exists.
    DuplicateId(String),
    /// Operation referenced a missing document.
    NotFound(String),
    /// Documents must be JSON objects.
    NotAnObject,
    /// I/O or corruption errors from the persistence layer.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateId(id) => write!(f, "document {id:?} already exists"),
            StoreError::NotFound(id) => write!(f, "document {id:?} not found"),
            StoreError::NotAnObject => write!(f, "documents must be JSON objects"),
            StoreError::Io(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An in-memory collection of JSON documents keyed by string ids.
///
/// Iteration is in ascending id order (deterministic).
#[derive(Debug, Clone, Default)]
pub struct Collection {
    docs: BTreeMap<String, Json>,
}

impl Collection {
    pub fn new() -> Collection {
        Collection::default()
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Inserts a new document (must be a JSON object with a fresh id).
    pub fn insert(&mut self, id: impl Into<String>, doc: Json) -> Result<(), StoreError> {
        let id = id.into();
        if !matches!(doc, Json::Obj(_)) {
            return Err(StoreError::NotAnObject);
        }
        if self.docs.contains_key(&id) {
            return Err(StoreError::DuplicateId(id));
        }
        self.docs.insert(id, doc);
        Ok(())
    }

    /// Replaces an existing document.
    pub fn update(&mut self, id: &str, doc: Json) -> Result<(), StoreError> {
        if !matches!(doc, Json::Obj(_)) {
            return Err(StoreError::NotAnObject);
        }
        let slot = self
            .docs
            .get_mut(id)
            .ok_or_else(|| StoreError::NotFound(id.to_string()))?;
        *slot = doc;
        Ok(())
    }

    /// Inserts or replaces.
    pub fn upsert(&mut self, id: impl Into<String>, doc: Json) -> Result<(), StoreError> {
        let id = id.into();
        if self.docs.contains_key(&id) {
            self.update(&id, doc)
        } else {
            self.insert(id, doc)
        }
    }

    /// Removes a document, returning it.
    pub fn remove(&mut self, id: &str) -> Result<Json, StoreError> {
        self.docs
            .remove(id)
            .ok_or_else(|| StoreError::NotFound(id.to_string()))
    }

    pub fn get(&self, id: &str) -> Option<&Json> {
        self.docs.get(id)
    }

    pub fn contains(&self, id: &str) -> bool {
        self.docs.contains_key(id)
    }

    /// Iterates `(id, doc)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.docs.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str, caps: i64) -> Json {
        Json::obj([("name", Json::str(name)), ("caps", Json::num(caps as f64))])
    }

    #[test]
    fn insert_get_update_remove() {
        let mut c = Collection::new();
        c.insert("1", doc("Messi", 83)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("1").unwrap().get("caps").unwrap().as_i64(), Some(83));
        c.update("1", doc("Messi", 86)).unwrap();
        assert_eq!(c.get("1").unwrap().get("caps").unwrap().as_i64(), Some(86));
        let removed = c.remove("1").unwrap();
        assert_eq!(removed.get("name").unwrap().as_str(), Some("Messi"));
        assert!(c.is_empty());
    }

    #[test]
    fn rejects_duplicates_and_missing() {
        let mut c = Collection::new();
        c.insert("1", doc("A", 1)).unwrap();
        assert_eq!(
            c.insert("1", doc("B", 2)),
            Err(StoreError::DuplicateId("1".into()))
        );
        assert_eq!(
            c.update("9", doc("B", 2)),
            Err(StoreError::NotFound("9".into()))
        );
        assert!(matches!(c.remove("9"), Err(StoreError::NotFound(_))));
        assert_eq!(c.insert("2", Json::num(5)), Err(StoreError::NotAnObject));
    }

    #[test]
    fn upsert_both_paths() {
        let mut c = Collection::new();
        c.upsert("1", doc("A", 1)).unwrap();
        c.upsert("1", doc("A", 2)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("1").unwrap().get("caps").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn iterates_in_id_order() {
        let mut c = Collection::new();
        c.insert("2", doc("Xavi", 133)).unwrap();
        c.insert("1", doc("Messi", 83)).unwrap();
        c.insert("3", doc("Neymar", 83)).unwrap();
        let ids: Vec<&str> = c.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, ["1", "2", "3"]);
    }
}
