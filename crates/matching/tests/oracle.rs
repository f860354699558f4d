//! Property tests. The product matcher is held to two oracles across random
//! mutation sequences: an independent Hopcroft–Karp solver for the matching
//! *size*, and a naive reference matcher — the determinism contract written
//! down as code — for the matched *pairs*. The Central Client's decisions
//! read the pairs, so the dense slot-indexed engine must pick the very edges
//! that plain `Vec` adjacency in insertion order, plain BFS and ascending
//! free lefts would pick.

use crowdfill_matching::{hopcroft_karp, max_matching_size, IncrementalMatcher};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

/// The specification the product must reproduce edge for edge.
#[derive(Default)]
struct Reference {
    /// left → adjacent rights, in insertion order.
    adj: BTreeMap<u8, Vec<u8>>,
    mate_l: BTreeMap<u8, u8>,
    mate_r: BTreeMap<u8, u8>,
}

impl Reference {
    fn add_edge(&mut self, l: u8, r: u8) {
        let rights = self.adj.entry(l).or_default();
        if !rights.contains(&r) {
            rights.push(r);
        }
    }

    fn remove_edge(&mut self, l: u8, r: u8) {
        let Some(rights) = self.adj.get_mut(&l) else {
            return;
        };
        rights.retain(|x| *x != r);
        if self.mate_l.get(&l) == Some(&r) {
            self.mate_l.remove(&l);
            self.mate_r.remove(&r);
        }
    }

    fn remove_left(&mut self, l: u8) {
        self.adj.remove(&l);
        if let Some(r) = self.mate_l.remove(&l) {
            self.mate_r.remove(&r);
        }
    }

    fn remove_right(&mut self, r: u8) {
        for rights in self.adj.values_mut() {
            rights.retain(|x| *x != r);
        }
        if let Some(l) = self.mate_r.remove(&r) {
            self.mate_l.remove(&l);
        }
    }

    fn free_lefts(&self) -> Vec<u8> {
        let free = self.adj.keys().filter(|l| !self.mate_l.contains_key(l));
        free.copied().collect()
    }

    /// BFS over alternating paths from free `root`. Returns the matched
    /// lefts in discovery order and, if some discovered right's mate is
    /// `goal` (`None`: a free right), the path to the first such right as
    /// `(left, right)` pairs to match, root's pair last.
    fn search(&self, root: u8, goal: Option<u8>) -> (Vec<u8>, Option<Vec<(u8, u8)>>) {
        let mut parent: BTreeMap<u8, u8> = BTreeMap::new();
        let mut seen = BTreeSet::from([root]);
        let mut found = Vec::new();
        let mut queue = VecDeque::from([root]);
        while let Some(cur) = queue.pop_front() {
            for &r in &self.adj[&cur] {
                if parent.contains_key(&r) {
                    continue;
                }
                parent.insert(r, cur);
                let mate = self.mate_r.get(&r).copied();
                if mate == goal {
                    let mut path = vec![(cur, r)];
                    while let Some(&prev) = self.mate_l.get(&path[path.len() - 1].0) {
                        path.push((parent[&prev], prev));
                    }
                    return (found, Some(path));
                }
                if let Some(l) = mate.filter(|l| seen.insert(*l)) {
                    found.push(l);
                    queue.push_back(l);
                }
            }
        }
        (found, None)
    }

    fn flip(&mut self, path: Vec<(u8, u8)>) {
        for (l, r) in path {
            self.mate_l.insert(l, r);
            self.mate_r.insert(r, l);
        }
    }

    fn repair(&mut self) {
        for l in self.free_lefts() {
            if let (_, Some(path)) = self.search(l, None) {
                self.flip(path);
            }
        }
    }

    fn exchange(&mut self, l: u8, donor: u8) -> bool {
        let (_, Some(path)) = self.search(l, Some(donor)) else {
            return false;
        };
        let freed = self.mate_l.remove(&donor).expect("donor is matched");
        self.mate_r.remove(&freed);
        self.flip(path);
        true
    }
}

#[derive(Debug, Clone)]
enum Mutation {
    AddEdge(u8, u8),
    AddRight(u8, Vec<u8>),
    RemoveEdge(u8, u8),
    RemoveLeft(u8),
    RemoveRight(u8),
    /// Shuffle: the lowest free left takes the match of its `n`-th donor.
    Exchange(usize),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        5 => (0u8..10, 0u8..10).prop_map(|(l, r)| Mutation::AddEdge(l, r)),
        2 => (0u8..10, proptest::collection::vec(0u8..10, 0..6))
            .prop_map(|(r, ls)| Mutation::AddRight(r, ls)),
        2 => (0u8..10, 0u8..10).prop_map(|(l, r)| Mutation::RemoveEdge(l, r)),
        1 => (0u8..10).prop_map(Mutation::RemoveLeft),
        1 => (0u8..10).prop_map(Mutation::RemoveRight),
        2 => (0usize..8).prop_map(Mutation::Exchange),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any mutation sequence, product and reference hold identical
    /// matched pairs, free lefts and donor lists, and the matching size is
    /// the Hopcroft–Karp maximum on the surviving graph.
    #[test]
    fn product_matches_reference_and_oracle(
        muts in proptest::collection::vec(mutation_strategy(), 1..60)
    ) {
        let mut m: IncrementalMatcher<u8, u8> = IncrementalMatcher::new();
        let mut spec = Reference::default();
        for mu in &muts {
            match mu {
                Mutation::AddEdge(l, r) => {
                    let fresh = !spec.adj.get(l).is_some_and(|v| v.contains(r));
                    prop_assert_eq!(m.add_edge(*l, *r), fresh);
                    spec.add_edge(*l, *r);
                }
                Mutation::AddRight(r, ls) => {
                    m.add_right(*r, ls.iter().copied());
                    for l in ls {
                        spec.add_edge(*l, *r);
                    }
                }
                Mutation::RemoveEdge(l, r) => {
                    m.remove_edge(l, r);
                    spec.remove_edge(*l, *r);
                }
                Mutation::RemoveLeft(l) => {
                    prop_assert_eq!(m.remove_left(l), spec.mate_l.get(l).copied());
                    spec.remove_left(*l);
                }
                Mutation::RemoveRight(r) => {
                    prop_assert_eq!(m.remove_right(r), spec.mate_r.get(r).copied());
                    spec.remove_right(*r);
                }
                Mutation::Exchange(n) => {
                    if let Some(&l) = m.lowest_free_left() {
                        let donors = m.exchangeable_lefts(&l);
                        if !donors.is_empty() {
                            let donor = donors[n % donors.len()];
                            prop_assert!(m.exchange(&l, &donor));
                            prop_assert!(spec.exchange(l, donor));
                            prop_assert!(m.matched_right(&donor).is_none());
                        }
                    }
                }
            }
            if !matches!(mu, Mutation::Exchange(_)) {
                m.repair();
                spec.repair();
            }
            prop_assert!(m.check_consistency());
            for l in 0u8..10 {
                prop_assert_eq!(
                    m.matched_right(&l), spec.mate_l.get(&l),
                    "product and reference diverged at left {}", l
                );
            }
            let free = spec.free_lefts();
            prop_assert_eq!(m.lowest_free_left(), free.first());
            prop_assert_eq!(&m.free_lefts(), &free);
            for l in free {
                prop_assert_eq!(m.exchangeable_lefts(&l), spec.search(l, Some(u8::MAX)).0);
            }

            // An exchange moves a match without changing the size, so the
            // matching stays maximum either way.
            let mut adj = vec![Vec::new(); 10];
            for (l, rights) in &spec.adj {
                adj[*l as usize] = rights.iter().map(|r| *r as usize).collect();
            }
            prop_assert_eq!(m.matching_size(), max_matching_size(&adj, 10));
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
