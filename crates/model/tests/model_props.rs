//! Property tests for the formal model's algebraic backbone:
//! * subsumption (⊇) is a partial order and `with` is monotone under it;
//! * `added_column` inverts `with`;
//! * final-table derivation always yields complete, positive-score,
//!   key-unique winners whose scores are maximal in their groups;
//! * `Value::parse` inverts `Display` for every data type.

use crowdfill_model::{
    derive_final_table, CandidateTable, ClientId, Column, ColumnId, DataType, IStr, QuorumMajority,
    RowEntry, RowId, RowValue, Schema, Scoring, Value,
};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        // Trim-stable text: the data-entry parser trims whitespace, so
        // values never start or end with spaces.
        "[a-zA-Z0-9]([a-zA-Z0-9 ]{0,6}[a-zA-Z0-9])?".prop_map(Value::text),
        (-1000i64..1000).prop_map(Value::int),
        any::<bool>().prop_map(Value::bool),
        (-100i32..100, 1u32..13, 1u32..29).prop_map(|(y, m, d)| Value::date(
            2000 + y,
            m as u8,
            d as u8
        )),
    ]
}

fn row_value_strategy(width: u16) -> impl Strategy<Value = RowValue> {
    proptest::collection::btree_map(0..width, value_strategy(), 0..=width as usize)
        .prop_map(|m| RowValue::from_pairs(m.into_iter().map(|(c, v)| (ColumnId(c), v))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn subsumption_is_a_partial_order(
        a in row_value_strategy(4),
        b in row_value_strategy(4),
        c in row_value_strategy(4),
    ) {
        // Reflexive.
        prop_assert!(a.subsumes(&a));
        // Antisymmetric.
        if a.subsumes(&b) && b.subsumes(&a) {
            prop_assert_eq!(&a, &b);
        }
        // Transitive.
        if a.subsumes(&b) && b.subsumes(&c) {
            prop_assert!(a.subsumes(&c));
        }
        // Empty is the bottom element.
        prop_assert!(a.subsumes(&RowValue::empty()));
    }

    #[test]
    fn with_extends_and_added_column_inverts(
        base in row_value_strategy(4),
        col in 0u16..4,
        v in value_strategy(),
    ) {
        let col = ColumnId(col);
        prop_assume!(!base.has(col));
        let extended = base.with(col, v.clone());
        prop_assert!(extended.subsumes(&base));
        prop_assert_eq!(extended.get(col), Some(&v));
        prop_assert_eq!(base.added_column(&extended), Some(col));
        prop_assert_eq!(extended.len(), base.len() + 1);
    }

    #[test]
    fn final_table_invariants(
        entries in proptest::collection::vec(
            (row_value_strategy(3), 0u32..5, 0u32..5),
            0..30,
        ),
    ) {
        let schema = Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Text),
            ],
            &["a"],
        )
        .unwrap();
        // Coerce values to text so completeness is type-consistent.
        let mut table = CandidateTable::new(&schema);
        for (i, (rv, up, down)) in entries.iter().enumerate() {
            let rv: RowValue = rv
                .iter()
                .map(|(c, v)| (c, Value::text(v.to_string())))
                .collect();
            table.insert(
                RowId::new(ClientId(1), i as u64),
                RowEntry { value: rv, upvotes: *up, downvotes: *down },
            );
        }
        let scoring = QuorumMajority::of_three();
        let ft = derive_final_table(&table, &schema, &scoring);

        let mut seen_keys = std::collections::HashSet::new();
        for row in ft.rows() {
            // Complete, positive, key-unique.
            prop_assert!(row.value.is_complete(&schema));
            prop_assert!(row.score > 0);
            let key = row.value.key_projection(&schema).unwrap();
            prop_assert!(seen_keys.insert(key.clone()), "duplicate key in final table");
            // Group-maximal score with lowest-id tie-break.
            for (id, e) in table.iter() {
                if e.value.is_complete(&schema)
                    && e.value.key_projection(&schema).as_ref() == Some(&key)
                {
                    let s = scoring.score(e.upvotes, e.downvotes);
                    prop_assert!(s < row.score || (s == row.score && id >= row.id));
                }
            }
        }
        // Completeness of the derivation: every positive-score complete row's
        // key appears in the final table.
        for (_, e) in table.iter() {
            if e.value.is_complete(&schema) && scoring.score(e.upvotes, e.downvotes) > 0 {
                let key = e.value.key_projection(&schema).unwrap();
                prop_assert!(seen_keys.contains(&key));
            }
        }
    }

    #[test]
    fn value_display_parse_roundtrip(v in value_strategy()) {
        let ty = v.data_type();
        let text = v.to_string();
        let parsed = Value::parse(ty, &text);
        prop_assert_eq!(parsed, Some(v));
    }

    /// Key projection is defined exactly when all key columns are filled,
    /// and is itself subsumed by the row.
    #[test]
    fn key_projection_laws(rv in row_value_strategy(4)) {
        let schema = Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Text),
                Column::new("d", DataType::Text),
            ],
            &["a", "c"],
        )
        .unwrap();
        let rv: RowValue = rv
            .iter()
            .map(|(c, v)| (c, Value::text(v.to_string())))
            .collect();
        match rv.key_projection(&schema) {
            Some(key) => {
                prop_assert!(rv.has_full_key(&schema));
                prop_assert!(rv.subsumes(&key));
                prop_assert_eq!(key.len(), schema.key().len());
            }
            None => prop_assert!(!rv.has_full_key(&schema)),
        }
    }

    /// Interned text keeps the raw strings' Eq/Ord/Hash contract — the
    /// contract the vote histories (`HashMap<RowValue, _>`) and the sorted
    /// cell maps lean on. Equal content must also share storage, which is
    /// the point of interning.
    #[test]
    fn interned_text_preserves_eq_ord_hash(a in "[ -~]{0,12}", b in "[ -~]{0,12}") {
        use std::hash::{BuildHasher, RandomState};

        let (ia, ib) = (IStr::new(&a), IStr::new(&b));
        prop_assert_eq!(ia == ib, a == b);
        prop_assert_eq!(ia.cmp(&ib), a.as_str().cmp(b.as_str()));

        // `Borrow<str>` requires the interned hash to equal the raw str
        // hash, under any hasher.
        let s = RandomState::new();
        prop_assert_eq!(s.hash_one(&ia), s.hash_one(a.as_str()));

        // Equal content shares one allocation.
        if a == b {
            prop_assert!(IStr::ptr_eq(&ia, &ib));
        }
    }

    /// `Value` comparisons are content-based through interning: two
    /// independently-built text values compare exactly like the strings
    /// they hold, so vote resolution's deterministic orderings are
    /// unchanged by the interned representation.
    #[test]
    fn value_text_compares_by_content(a in "[ -~]{0,12}", b in "[ -~]{0,12}") {
        use std::hash::{BuildHasher, RandomState};

        let (va, vb) = (Value::text(a.as_str()), Value::text(b.as_str()));
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(
            va.partial_cmp(&vb),
            Some(a.as_str().cmp(b.as_str())),
            "text value ordering must match string ordering"
        );
        let s = RandomState::new();
        prop_assert_eq!(s.hash_one(&va) == s.hash_one(&vb), a == b);
    }
}
