//! The document store: named collections with WAL-backed durability.
//!
//! Plays the role MongoDB plays for the paper's front-end server (§3.2):
//! task specifications, collected results, and the action trace live here.
//! Mutations are logged to a write-ahead log before being applied; opening a
//! store replays the log. [`DocStore::compact`] rewrites the log as one
//! snapshot per document.

use crate::collection::{Collection, StoreError};
use crate::json::Json;
use crate::wal::Wal;
use std::collections::BTreeMap;
use std::path::Path;

/// A WAL-logged mutation.
enum LogOp<'a> {
    Upsert {
        collection: &'a str,
        id: &'a str,
        doc: &'a Json,
    },
    Remove {
        collection: &'a str,
        id: &'a str,
    },
}

impl LogOp<'_> {
    fn encode(&self) -> Vec<u8> {
        let json = match self {
            LogOp::Upsert {
                collection,
                id,
                doc,
            } => Json::obj([
                ("op", Json::str("upsert")),
                ("c", Json::str(*collection)),
                ("id", Json::str(*id)),
                ("doc", (*doc).clone()),
            ]),
            LogOp::Remove { collection, id } => Json::obj([
                ("op", Json::str("remove")),
                ("c", Json::str(*collection)),
                ("id", Json::str(*id)),
            ]),
        };
        json.encode().into_bytes()
    }
}

/// A multi-collection document database with optional durability.
pub struct DocStore {
    collections: BTreeMap<String, Collection>,
    wal: Option<Wal>,
}

impl DocStore {
    /// An in-memory store (no persistence): used by tests and simulations.
    pub fn in_memory() -> DocStore {
        DocStore {
            collections: BTreeMap::new(),
            wal: None,
        }
    }

    /// Opens a durable store backed by the WAL at `path`, replaying any
    /// existing records.
    pub fn open(path: impl AsRef<Path>) -> Result<DocStore, StoreError> {
        let mut collections: BTreeMap<String, Collection> = BTreeMap::new();
        let wal = Wal::open(path, |record| {
            // Records that fail to parse are skipped (already CRC-checked, so
            // this only happens across version skew).
            let Some(json) = std::str::from_utf8(record)
                .ok()
                .and_then(|text| Json::parse(text).ok())
            else {
                return;
            };
            let (Some(op), Some(c), Some(id)) = (
                json.get("op").and_then(Json::as_str),
                json.get("c").and_then(Json::as_str),
                json.get("id").and_then(Json::as_str),
            ) else {
                return;
            };
            let coll = collections.entry(c.to_string()).or_default();
            match op {
                "upsert" => {
                    if let Some(doc) = json.get("doc") {
                        let _ = coll.upsert(id, doc.clone());
                    }
                }
                "remove" => {
                    let _ = coll.remove(id);
                }
                _ => {}
            }
        })
        .map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(DocStore {
            collections,
            wal: Some(wal),
        })
    }

    /// Names of existing collections.
    pub fn collection_names(&self) -> Vec<&str> {
        self.collections.keys().map(String::as_str).collect()
    }

    /// Read access to a collection (absent collections read as empty).
    pub fn collection(&self, name: &str) -> Option<&Collection> {
        self.collections.get(name)
    }

    /// Inserts a document.
    pub fn insert(
        &mut self,
        collection: &str,
        id: impl Into<String>,
        doc: Json,
    ) -> Result<(), StoreError> {
        let id = id.into();
        self.collections
            .entry(collection.to_string())
            .or_default()
            .insert(id.clone(), doc.clone())?;
        self.log(LogOp::Upsert {
            collection,
            id: &id,
            doc: &doc,
        })
    }

    /// Inserts or replaces a document.
    pub fn upsert(
        &mut self,
        collection: &str,
        id: impl Into<String>,
        doc: Json,
    ) -> Result<(), StoreError> {
        let id = id.into();
        self.collections
            .entry(collection.to_string())
            .or_default()
            .upsert(id.clone(), doc.clone())?;
        self.log(LogOp::Upsert {
            collection,
            id: &id,
            doc: &doc,
        })
    }

    /// Removes a document.
    pub fn remove(&mut self, collection: &str, id: &str) -> Result<Json, StoreError> {
        let doc = self
            .collections
            .get_mut(collection)
            .ok_or_else(|| StoreError::NotFound(id.to_string()))?
            .remove(id)?;
        self.log(LogOp::Remove { collection, id })?;
        Ok(doc)
    }

    /// Fetches a document.
    pub fn get(&self, collection: &str, id: &str) -> Option<&Json> {
        self.collections.get(collection)?.get(id)
    }

    /// Rewrites the WAL as one snapshot record per live document.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let records: Vec<Vec<u8>> = self
            .collections
            .iter()
            .flat_map(|(cname, coll)| {
                coll.iter().map(move |(id, doc)| {
                    LogOp::Upsert {
                        collection: cname,
                        id,
                        doc,
                    }
                    .encode()
                })
            })
            .collect();
        wal.compact(records.iter().map(Vec::as_slice))
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    fn log(&mut self, op: LogOp<'_>) -> Result<(), StoreError> {
        if let Some(wal) = &mut self.wal {
            wal.append(&op.encode())
                .map_err(|e| StoreError::Io(e.to_string()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "crowdfill-store-test-{}-{name}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn doc(n: i64) -> Json {
        Json::obj([("n", Json::num(n as f64))])
    }

    #[test]
    fn in_memory_crud() {
        let mut s = DocStore::in_memory();
        s.insert("tasks", "t1", doc(1)).unwrap();
        s.upsert("tasks", "t1", doc(2)).unwrap();
        assert_eq!(
            s.get("tasks", "t1").unwrap().get("n").unwrap().as_i64(),
            Some(2)
        );
        assert_eq!(s.collection("tasks").map(Collection::len), Some(1));
        assert!(s.collection("ghosts").is_none());
        s.remove("tasks", "t1").unwrap();
        assert_eq!(s.get("tasks", "t1"), None);
        assert_eq!(s.collection_names(), vec!["tasks"]);
    }

    #[test]
    fn durable_roundtrip() {
        let path = tmp_path("roundtrip");
        {
            let mut s = DocStore::open(&path).unwrap();
            s.insert("tasks", "t1", doc(1)).unwrap();
            s.insert("tasks", "t2", doc(2)).unwrap();
            s.insert("results", "r1", doc(3)).unwrap();
            s.remove("tasks", "t2").unwrap();
            s.upsert("tasks", "t1", doc(10)).unwrap();
        }
        let s = DocStore::open(&path).unwrap();
        assert_eq!(
            s.get("tasks", "t1").unwrap().get("n").unwrap().as_i64(),
            Some(10)
        );
        assert_eq!(s.get("tasks", "t2"), None);
        assert_eq!(
            s.get("results", "r1").unwrap().get("n").unwrap().as_i64(),
            Some(3)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let path = tmp_path("compact");
        {
            let mut s = DocStore::open(&path).unwrap();
            for i in 0..100 {
                s.upsert("t", "same-id", doc(i)).unwrap();
            }
            let before = std::fs::metadata(&path).unwrap().len();
            s.compact().unwrap();
            let after = std::fs::metadata(&path).unwrap().len();
            assert!(after < before / 10, "compaction should shrink the log");
        }
        let s = DocStore::open(&path).unwrap();
        assert_eq!(
            s.get("t", "same-id").unwrap().get("n").unwrap().as_i64(),
            Some(99)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejected_inserts_are_not_logged() {
        let path = tmp_path("rejected");
        {
            let mut s = DocStore::open(&path).unwrap();
            s.insert("t", "a", doc(1)).unwrap();
            assert!(s.insert("t", "a", doc(2)).is_err());
        }
        let s = DocStore::open(&path).unwrap();
        assert_eq!(s.collection("t").unwrap().len(), 1);
        assert_eq!(s.get("t", "a").unwrap().get("n").unwrap().as_i64(), Some(1));
        std::fs::remove_file(&path).unwrap();
    }
}
