//! Property tests of the bulk calls. `add_lefts` and `add_rights` over any
//! split of a vertex sequence must leave the matcher exactly as one
//! `add_left` / `add_right` per vertex does: the same slots (vacated ones
//! reused in the same order), the same edge positions, the same free sets
//! and counts, and so the same matching. The whole structure is compared
//! through its `Debug` rendering, which prints every field. The matcher
//! with one adjacency list per left (`support/per_left.rs`) stays the
//! reference for the matching itself.

#[path = "support/per_left.rs"]
mod per_left;

use crowdfill_matching::IncrementalMatcher;
use per_left::PerLeftMatcher;
use proptest::prelude::*;
use std::collections::BTreeSet;

type Matcher = IncrementalMatcher<u8, u8>;

/// Feeds `items` to `one` a call per item and to `bulk` a call per chunk,
/// cut at the given lengths (cycled; the last chunk takes the rest).
fn split<T: Clone>(
    items: &[T],
    cuts: &[usize],
    mut one: impl FnMut(T),
    mut bulk: impl FnMut(Vec<T>),
) {
    for item in items {
        one(item.clone());
    }
    let (mut at, mut cut) = (0, cuts.iter().cycle());
    while at < items.len() {
        let len = (*cut.next().expect("cuts are not empty")).min(items.len() - at);
        bulk(items[at..at + len].to_vec());
        at += len;
    }
}

/// The classes of live lefts: what the per-left reference joins a right to.
fn members(class_of: &[usize], live: &BTreeSet<u8>, classes: &[usize]) -> Vec<u8> {
    let of = |l: &&u8| classes.contains(&class_of[**l as usize]);
    live.iter().filter(of).copied().collect()
}

fn lefts_strategy() -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0u8..24, 0usize..5), 0..16)
}

fn rights_strategy() -> impl Strategy<Value = Vec<(u8, Vec<usize>)>> {
    let classes = proptest::collection::vec(0usize..6, 0..4);
    proptest::collection::vec((0u8..16, classes), 0..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bulk_calls_equal_one_call_per_vertex(
        first_lefts in lefts_strategy(),
        gone_lefts in proptest::collection::vec(0u8..24, 0..6),
        more_lefts in lefts_strategy(),
        first_rights in rights_strategy(),
        gone_rights in proptest::collection::vec(0u8..16, 0..6),
        more_rights in rights_strategy(),
        cuts in proptest::collection::vec(1usize..6, 1..4),
    ) {
        let (mut one, mut bulk) = (Matcher::new(), Matcher::new());
        let mut reference: PerLeftMatcher<u8, u8> = PerLeftMatcher::new();
        // A left keeps the class it joined with; a re-add is a no-op.
        let mut class_of = [usize::MAX; 24];
        let mut live = BTreeSet::new();
        let mut add_lefts = |lefts: &[(u8, usize)], one: &mut Matcher, bulk: &mut Matcher,
                             reference: &mut PerLeftMatcher<u8, u8>, live: &mut BTreeSet<u8>| {
            for &(l, class) in lefts {
                if live.insert(l) {
                    class_of[l as usize] = class;
                    reference.add_left(l);
                }
            }
            split(lefts, &cuts, |(l, c)| one.add_left(l, c), |run| bulk.add_lefts(run));
        };

        // Lefts, then some of them removed: their slots are vacant.
        add_lefts(&first_lefts, &mut one, &mut bulk, &mut reference, &mut live);
        for l in &gone_lefts {
            prop_assert_eq!(one.remove_left(l), bulk.remove_left(l));
            reference.remove_left(l);
            live.remove(l);
        }
        add_lefts(&more_lefts, &mut one, &mut bulk, &mut reference, &mut live);
        prop_assert_eq!(format!("{one:?}"), format!("{bulk:?}"));

        // Rights, a repair, some rights removed (widowing their mates and
        // vacating slots), then rights again: new keys, keys present and
        // matched, and keys repeated within one call.
        for (rights, gone) in [(&first_rights, &gone_rights), (&more_rights, &Vec::new())] {
            for (r, classes) in rights {
                reference.add_right(*r, members(&class_of, &live, classes));
            }
            split(
                rights,
                &cuts,
                |(r, classes)| one.add_right(r, classes),
                |run| bulk.add_rights(run),
            );
            prop_assert_eq!(format!("{one:?}"), format!("{bulk:?}"));
            let size = reference.repair();
            prop_assert_eq!(one.repair(), size);
            prop_assert_eq!(bulk.repair(), size);
            prop_assert_eq!(format!("{one:?}"), format!("{bulk:?}"));
            for l in &live {
                prop_assert_eq!(bulk.matched_right(l), reference.matched_right(l));
            }
            // A shuffle on all three: the same donors, the same outcome.
            prop_assert_eq!(bulk.free_lefts(), reference.free_lefts());
            if let Some(&l) = reference.lowest_free_left() {
                prop_assert_eq!(bulk.lowest_free_left(), Some(&l));
                let donors = reference.exchangeable_lefts(&l);
                prop_assert_eq!(&bulk.exchangeable_lefts(&l), &donors);
                prop_assert_eq!(&one.exchangeable_lefts(&l), &donors);
                if let Some(d) = donors.first() {
                    prop_assert!(reference.exchange(&l, d));
                    prop_assert!(bulk.exchange(&l, d) && one.exchange(&l, d));
                }
            }
            prop_assert_eq!(format!("{one:?}"), format!("{bulk:?}"));
            for r in gone {
                prop_assert_eq!(one.remove_right(r), bulk.remove_right(r));
                reference.remove_right(r);
            }
            prop_assert!(bulk.check_consistency());
        }
    }
}
