//! Property tests. The product matcher is held to two oracles across random
//! mutation sequences: an independent Hopcroft–Karp solver for the matching
//! *size*, and the matcher it replaced — one adjacency list per left
//! (`support/per_left.rs`) — for every choice the Central Client reads:
//! matched pairs, the lowest free left, donor lists and exchange outcomes.
//! As in the Central Client, the lefts come first and fall into classes; the
//! product holds one adjacency list per class, the oracle one per member.

#[path = "support/per_left.rs"]
mod per_left;

use crowdfill_matching::{hopcroft_karp, max_matching_size, IncrementalMatcher};
use per_left::PerLeftMatcher;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

const RIGHTS: u8 = 16;

#[derive(Debug, Clone)]
enum Mutation {
    /// A right joins the given classes (a class may have no live member).
    AddRight(u8, Vec<usize>),
    RemoveLeft(u8),
    RemoveRight(u8),
    Repair,
    /// Shuffle: the lowest free left takes the match of a donor — of its
    /// `n/2`-th exchangeable left for even `n`, of left `n/2` (reachable or
    /// not) for odd `n`.
    Exchange(usize),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        5 => (0u8..RIGHTS, proptest::collection::vec(0usize..6, 0..4))
            .prop_map(|(r, cs)| Mutation::AddRight(r, cs)),
        1 => (0u8..30).prop_map(Mutation::RemoveLeft),
        2 => (0u8..RIGHTS).prop_map(Mutation::RemoveRight),
        3 => Just(Mutation::Repair),
        3 => (0usize..64).prop_map(Mutation::Exchange),
    ]
}

/// The class of each left key: classes of the given sizes, members
/// interleaved by sorting on `shuffle`.
fn classes_of(sizes: &[usize], shuffle: &[u64]) -> Vec<usize> {
    let mut lefts: Vec<(u64, usize)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
        .zip(shuffle)
        .map(|(class, key)| (*key, class))
        .collect();
    lefts.sort_unstable();
    lefts.into_iter().map(|(_, class)| class).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every mutation, product and oracle hold identical matched
    /// pairs, free lefts and donor lists and agree on every exchange, and
    /// after every repair the matching size is the Hopcroft–Karp maximum.
    #[test]
    fn product_matches_per_left_oracle(
        sizes in proptest::collection::vec(1usize..7, 1..6),
        shuffle in proptest::collection::vec(any::<u64>(), 30..31),
        muts in proptest::collection::vec(mutation_strategy(), 1..80),
    ) {
        let class_of = classes_of(&sizes, &shuffle);
        let n = class_of.len() as u8;
        let mut m: IncrementalMatcher<u8, u8> = IncrementalMatcher::new();
        let mut oracle: PerLeftMatcher<u8, u8> = PerLeftMatcher::new();
        for (l, &class) in class_of.iter().enumerate() {
            m.add_left(l as u8, class);
            oracle.add_left(l as u8);
        }
        let mut live: BTreeSet<u8> = (0..n).collect();
        // right → the classes it neighbours.
        let mut adj: BTreeMap<u8, BTreeSet<usize>> = BTreeMap::new();
        let mut maximal = true;
        for mu in &muts {
            match mu {
                Mutation::AddRight(r, classes) => {
                    m.add_right(*r, classes.iter().copied());
                    let members = live.iter().filter(|l| classes.contains(&class_of[**l as usize]));
                    oracle.add_right(*r, members.copied());
                    adj.entry(*r).or_default().extend(classes);
                    maximal = false;
                }
                Mutation::RemoveLeft(l) => {
                    prop_assert_eq!(m.remove_left(l), oracle.remove_left(l));
                    live.remove(l);
                    maximal = false;
                }
                Mutation::RemoveRight(r) => {
                    prop_assert_eq!(m.remove_right(r), oracle.remove_right(r));
                    adj.remove(r);
                    maximal = false;
                }
                Mutation::Repair => {
                    prop_assert_eq!(m.repair(), oracle.repair());
                    maximal = true;
                }
                Mutation::Exchange(k) => {
                    if let Some(&l) = m.lowest_free_left() {
                        let donors = m.exchangeable_lefts(&l);
                        let donor = if k % 2 == 0 && !donors.is_empty() {
                            donors[k / 2 % donors.len()]
                        } else {
                            (k / 2 % n as usize) as u8
                        };
                        let swapped = m.exchange(&l, &donor);
                        prop_assert_eq!(swapped, oracle.exchange(&l, &donor));
                        prop_assert_eq!(swapped, donors.contains(&donor));
                        if swapped {
                            prop_assert!(m.matched_right(&donor).is_none());
                        }
                    }
                }
            }
            prop_assert!(m.check_consistency());
            for l in 0..n {
                prop_assert_eq!(
                    m.matched_right(&l), oracle.matched_right(&l),
                    "product and oracle diverged at left {} after {:?}", l, mu
                );
            }
            prop_assert_eq!(m.matching_size(), oracle.matching_size());
            prop_assert_eq!(m.lowest_free_left(), oracle.lowest_free_left());
            let free = oracle.free_lefts();
            prop_assert_eq!(&m.free_lefts(), &free);
            for l in free {
                prop_assert_eq!(m.exchangeable_lefts(&l), oracle.exchangeable_lefts(&l));
            }
            let edges: usize = adj.values().map(BTreeSet::len).sum();
            prop_assert_eq!(m.edge_count(), edges);

            // An exchange moves a match without changing the size, so a
            // repaired matching stays maximum until the graph changes.
            if maximal {
                let hk_adj: Vec<Vec<usize>> = (0..n)
                    .map(|l| {
                        let class = class_of[l as usize];
                        adj.iter()
                            .filter(|(_, cs)| live.contains(&l) && cs.contains(&class))
                            .map(|(r, _)| *r as usize)
                            .collect()
                    })
                    .collect();
                prop_assert_eq!(m.matching_size(), max_matching_size(&hk_adj, RIGHTS as usize));
            }
        }
    }

    /// Hopcroft–Karp returns an injective matching using only real edges.
    #[test]
    fn hopcroft_karp_is_valid(
        edges in proptest::collection::hash_set((0usize..12, 0usize..12), 0..50)
    ) {
        let mut adj = vec![Vec::new(); 12];
        for &(l, r) in &edges {
            adj[l].push(r);
        }
        let m = hopcroft_karp(&adj, 12);
        let mut used = HashSet::new();
        for (l, r) in m.iter().enumerate() {
            if let Some(r) = r {
                prop_assert!(adj[l].contains(r));
                prop_assert!(used.insert(*r));
            }
        }
    }

    /// Maximality: no single free-left/free-right edge remains unmatched.
    #[test]
    fn hopcroft_karp_is_maximal(
        edges in proptest::collection::hash_set((0usize..10, 0usize..10), 0..40)
    ) {
        let mut adj = vec![Vec::new(); 10];
        for &(l, r) in &edges {
            adj[l].push(r);
        }
        let m = hopcroft_karp(&adj, 10);
        let used_rights: HashSet<usize> = m.iter().flatten().copied().collect();
        for (l, r) in &edges {
            // An augmenting path of length 1 would contradict maximality.
            prop_assert!(
                m[*l].is_some() || used_rights.contains(r),
                "edge ({l},{r}) joins two free vertices"
            );
        }
    }
}
