//! Property tests for the document store: collection operations agree with
//! a plain-map oracle, iteration is in id order, and WAL-backed stores
//! survive reopen with identical contents.

use crowdfill_docstore::{Collection, DocStore, Json};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert { id: u8, field: u8, num: i32 },
    Upsert { id: u8, field: u8, num: i32 },
    Remove { id: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), 0u8..4, -50i32..50).prop_map(|(id, field, num)| Op::Insert { id, field, num }),
        3 => (any::<u8>(), 0u8..4, -50i32..50).prop_map(|(id, field, num)| Op::Upsert { id, field, num }),
        1 => any::<u8>().prop_map(|id| Op::Remove { id }),
    ]
}

fn doc(field: u8, num: i32) -> Json {
    Json::obj([
        ("f", Json::str(format!("k{field}"))),
        ("n", Json::num(num as f64)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Collection CRUD agrees with a BTreeMap oracle, and iterating the
    /// collection yields the oracle's entries in its (id) order.
    #[test]
    fn collection_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut coll = Collection::new();
        let mut oracle: BTreeMap<String, Json> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert { id, field, num } => {
                    let id = format!("{id:03}");
                    let d = doc(field, num);
                    let expect_ok = !oracle.contains_key(&id);
                    let got = coll.insert(id.clone(), d.clone());
                    prop_assert_eq!(got.is_ok(), expect_ok);
                    if expect_ok {
                        oracle.insert(id, d);
                    }
                }
                Op::Upsert { id, field, num } => {
                    let id = format!("{id:03}");
                    let d = doc(field, num);
                    coll.upsert(id.clone(), d.clone()).unwrap();
                    oracle.insert(id, d);
                }
                Op::Remove { id } => {
                    let id = format!("{id:03}");
                    let expect_ok = oracle.remove(&id).is_some();
                    prop_assert_eq!(coll.remove(&id).is_ok(), expect_ok);
                }
            }
        }
        // Contents agree.
        prop_assert_eq!(coll.len(), oracle.len());
        for (id, d) in &oracle {
            prop_assert_eq!(coll.get(id), Some(d));
        }
        // Iteration == the oracle's, id-ordered.
        let via_iter: Vec<(&str, &Json)> = coll.iter().collect();
        let via_oracle: Vec<(&str, &Json)> = oracle.iter().map(|(id, d)| (id.as_str(), d)).collect();
        prop_assert_eq!(via_iter, via_oracle);
    }

    /// A WAL-backed store reopened from disk equals the in-memory state.
    #[test]
    fn wal_reopen_preserves_state(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let path = std::env::temp_dir().join(format!(
            "crowdfill-storeprop-{}-{:x}.wal",
            std::process::id(),
            std::collections::hash_map::RandomState::new().hash_one(format!("{ops:?}"))
        ));
        let _ = std::fs::remove_file(&path);
        let mut oracle: BTreeMap<String, Json> = BTreeMap::new();
        {
            let mut store = DocStore::open(&path).unwrap();
            for op in &ops {
                match *op {
                    Op::Insert { id, field, num } => {
                        let id = format!("{id:03}");
                        if store.insert("c", id.clone(), doc(field, num)).is_ok() {
                            oracle.insert(id, doc(field, num));
                        }
                    }
                    Op::Upsert { id, field, num } => {
                        let id = format!("{id:03}");
                        store.upsert("c", id.clone(), doc(field, num)).unwrap();
                        oracle.insert(id, doc(field, num));
                    }
                    Op::Remove { id } => {
                        let id = format!("{id:03}");
                        if oracle.remove(&id).is_some() {
                            store.remove("c", &id).unwrap();
                        }
                    }
                }
            }
        }
        let store = DocStore::open(&path).unwrap();
        let n = store.collection("c").map(Collection::len).unwrap_or(0);
        prop_assert_eq!(n, oracle.len());
        for (id, d) in &oracle {
            prop_assert_eq!(store.get("c", id), Some(d));
        }
        let _ = std::fs::remove_file(&path);
    }
}

use std::hash::BuildHasher;
