//! # crowdfill-matching
//!
//! Bipartite-matching substrate for CrowdFill's Probable Rows Invariant
//! (paper §4.2). The PRI is equivalent to: *a maximum bipartite matching
//! between template rows (left) and probable rows (right) has exactly |T|
//! edges*. The Central Client maintains that matching **incrementally** as
//! workers act — each change adds/removes a handful of edges, after which a
//! single augmenting-path search (Berge's theorem) restores maximality.
//!
//! Two engines are provided:
//!
//! * [`IncrementalMatcher`] — the live structure: add/remove vertices and
//!   edges, repair with BFS augmenting paths, and query the alternating
//!   structure (used by the CC's "shuffle" step when a template row must be
//!   freed).
//! * [`hopcroft_karp`] — an independent O(E·√V) bulk solver, used for bulk
//!   (re)construction and as a test oracle for the incremental engine.
//! * [`ShardedMatcher`] — a deterministic, component-sharded engine with the
//!   same incremental API, whose repair runs independent connected
//!   components on scoped threads (see [`sharded`]).

#![forbid(unsafe_code)]

pub mod sharded;

pub use sharded::{Parallelism, ShardedMatcher, PAR_MIN_VERTICES};

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::OnceLock;

use crowdfill_obs::metrics::Counter;

/// Counter of augmenting-path searches started.
fn augment_searches() -> &'static Counter {
    static C: OnceLock<std::sync::Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_matching_augment_searches"))
}

/// Counter of BFS expansions performed across all augmenting-path
/// searches — the matcher's unit of work.
fn augment_steps() -> &'static Counter {
    static C: OnceLock<std::sync::Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_matching_augment_steps"))
}

/// An incrementally-maintained bipartite matching over caller-supplied
/// vertex keys.
///
/// Left vertices model template rows; right vertices model probable rows.
/// The structure never removes a matched edge on its own: mutations report
/// whether they broke the matching, and [`IncrementalMatcher::repair`]
/// restores maximality via augmenting paths.
#[derive(Debug, Clone)]
pub struct IncrementalMatcher<L, R>
where
    L: Clone + Eq + Hash,
    R: Clone + Eq + Hash,
{
    /// left → adjacent rights (insertion-ordered for determinism).
    adj: HashMap<L, Vec<R>>,
    /// right → adjacent lefts.
    radj: HashMap<R, Vec<L>>,
    /// left → matched right.
    match_l: HashMap<L, R>,
    /// right → matched left.
    match_r: HashMap<R, L>,
}

impl<L, R> Default for IncrementalMatcher<L, R>
where
    L: Clone + Eq + Hash,
    R: Clone + Eq + Hash,
{
    fn default() -> Self {
        IncrementalMatcher {
            adj: HashMap::new(),
            radj: HashMap::new(),
            match_l: HashMap::new(),
            match_r: HashMap::new(),
        }
    }
}

impl<L, R> IncrementalMatcher<L, R>
where
    L: Clone + Eq + Hash,
    R: Clone + Eq + Hash,
{
    /// An empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of matched pairs.
    pub fn matching_size(&self) -> usize {
        self.match_l.len()
    }

    /// Number of left vertices.
    pub fn left_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of right vertices.
    pub fn right_count(&self) -> usize {
        self.radj.len()
    }

    /// The right vertex matched to `l`, if any.
    pub fn matched_right(&self, l: &L) -> Option<&R> {
        self.match_l.get(l)
    }

    /// The left vertex matched to `r`, if any.
    pub fn matched_left(&self, r: &R) -> Option<&L> {
        self.match_r.get(r)
    }

    /// Whether left vertex `l` exists.
    pub fn has_left(&self, l: &L) -> bool {
        self.adj.contains_key(l)
    }

    /// Whether right vertex `r` exists.
    pub fn has_right(&self, r: &R) -> bool {
        self.radj.contains_key(r)
    }

    /// The currently unmatched left vertices (arbitrary order).
    pub fn free_lefts(&self) -> Vec<L> {
        self.adj
            .keys()
            .filter(|l| !self.match_l.contains_key(*l))
            .cloned()
            .collect()
    }

    /// Adds an isolated left vertex. No-op if present.
    pub fn add_left(&mut self, l: L) {
        self.adj.entry(l).or_default();
    }

    /// Adds an isolated right vertex. No-op if present.
    pub fn add_right(&mut self, r: R) {
        self.radj.entry(r).or_default();
    }

    /// Adds an edge (creating endpoints as needed). Returns `true` if the
    /// edge is new.
    pub fn add_edge(&mut self, l: L, r: R) -> bool {
        let lv = self.adj.entry(l.clone()).or_default();
        if lv.contains(&r) {
            return false;
        }
        lv.push(r.clone());
        self.radj.entry(r).or_default().push(l);
        true
    }

    /// Removes an edge if present; if it was matched, the pair becomes
    /// unmatched (call [`repair`](Self::repair) afterwards). Returns `true`
    /// if an edge was removed.
    pub fn remove_edge(&mut self, l: &L, r: &R) -> bool {
        let Some(lv) = self.adj.get_mut(l) else {
            return false;
        };
        let Some(pos) = lv.iter().position(|x| x == r) else {
            return false;
        };
        lv.remove(pos);
        if let Some(rv) = self.radj.get_mut(r) {
            rv.retain(|x| x != l);
        }
        if self.match_l.get(l) == Some(r) {
            self.match_l.remove(l);
            self.match_r.remove(r);
        }
        true
    }

    /// Removes a right vertex and all its edges; unmatches its partner.
    /// Returns the left vertex that lost its match, if any.
    pub fn remove_right(&mut self, r: &R) -> Option<L> {
        let lefts = self.radj.remove(r)?;
        for l in &lefts {
            if let Some(lv) = self.adj.get_mut(l) {
                lv.retain(|x| x != r);
            }
        }
        let widowed = self.match_r.remove(r);
        if let Some(l) = &widowed {
            self.match_l.remove(l);
        }
        widowed
    }

    /// Removes a left vertex and all its edges; unmatches its partner.
    /// Returns the right vertex that lost its match, if any.
    pub fn remove_left(&mut self, l: &L) -> Option<R> {
        let rights = self.adj.remove(l)?;
        for r in &rights {
            if let Some(rv) = self.radj.get_mut(r) {
                rv.retain(|x| x != l);
            }
        }
        let widowed = self.match_l.remove(l);
        if let Some(r) = &widowed {
            self.match_r.remove(r);
        }
        widowed
    }

    /// Attempts to match free left vertex `l` via a BFS augmenting path
    /// (Berge's theorem: flipping an augmenting path grows the matching by
    /// one). Returns `true` on success. No-op (`false`) if `l` is unknown or
    /// already matched.
    pub fn augment(&mut self, l: &L) -> bool {
        if !self.adj.contains_key(l) || self.match_l.contains_key(l) {
            return false;
        }
        augment_searches().inc();
        // BFS over alternating paths: free-left → (unmatched edge) right →
        // (matched edge) left → ...; stop at the first free right.
        let mut parent_of_right: HashMap<R, L> = HashMap::new();
        let mut visited_left: HashSet<L> = HashSet::new();
        let mut queue = VecDeque::new();
        visited_left.insert(l.clone());
        queue.push_back(l.clone());
        let mut endpoint: Option<R> = None;
        let mut steps = 0u64;

        'bfs: while let Some(cur) = queue.pop_front() {
            steps += 1;
            for r in self.adj.get(&cur).into_iter().flatten() {
                if let Entry::Vacant(slot) = parent_of_right.entry(r.clone()) {
                    slot.insert(cur.clone());
                    match self.match_r.get(r) {
                        None => {
                            endpoint = Some(r.clone());
                            break 'bfs;
                        }
                        Some(next_l) => {
                            if visited_left.insert(next_l.clone()) {
                                queue.push_back(next_l.clone());
                            }
                        }
                    }
                }
            }
        }

        augment_steps().add(steps);
        let Some(mut r) = endpoint else {
            return false;
        };
        // Flip the path back to `l`.
        loop {
            let left = parent_of_right[&r].clone();
            let prev_r = self.match_l.insert(left.clone(), r.clone());
            self.match_r.insert(r, left.clone());
            match prev_r {
                Some(pr) => r = pr, // left was matched to pr; continue flipping
                None => break,      // reached the originally-free left vertex
            }
        }
        true
    }

    /// Augments every free left vertex once; returns the matching size.
    /// After arbitrary edge/vertex mutations this restores maximality.
    pub fn repair(&mut self) -> usize {
        for l in self.free_lefts() {
            self.augment(&l);
        }
        self.matching_size()
    }

    /// The *exchangeable* left vertices for a free left vertex `l`: matched
    /// lefts `t'` reachable from `l` by an alternating path, i.e. those whose
    /// match can be shifted so that `l` becomes matched and `t'` free, with
    /// no other vertex losing its match.
    ///
    /// This implements the Central Client's "shuffle" step (paper §4.2): when
    /// inserting a row for template `t` would not be probable, CC looks for
    /// another template row `t'` to free instead.
    pub fn exchangeable_lefts(&self, l: &L) -> Vec<L> {
        if !self.adj.contains_key(l) || self.match_l.contains_key(l) {
            return Vec::new();
        }
        let mut visited_left: HashSet<L> = HashSet::new();
        let mut out = Vec::new();
        let mut queue = VecDeque::new();
        visited_left.insert(l.clone());
        queue.push_back(l.clone());
        while let Some(cur) = queue.pop_front() {
            for r in self.adj.get(&cur).into_iter().flatten() {
                if let Some(next_l) = self.match_r.get(r) {
                    if visited_left.insert(next_l.clone()) {
                        out.push(next_l.clone());
                        queue.push_back(next_l.clone());
                    }
                }
            }
        }
        out
    }

    /// Rebuilds the matching so that `l` (currently free) becomes matched and
    /// `donor` (currently matched, and exchangeable from `l`) becomes free.
    /// Returns `false` — leaving the matching unchanged — if no alternating
    /// path from `l` ends at `donor`.
    pub fn exchange(&mut self, l: &L, donor: &L) -> bool {
        if self.match_l.contains_key(l) || !self.match_l.contains_key(donor) {
            return false;
        }
        // BFS as in `augment`, but the goal is reaching `donor`.
        let mut parent_of_right: HashMap<R, L> = HashMap::new();
        let mut visited_left: HashSet<L> = HashSet::new();
        let mut queue = VecDeque::new();
        visited_left.insert(l.clone());
        queue.push_back(l.clone());
        let mut endpoint: Option<R> = None;
        'bfs: while let Some(cur) = queue.pop_front() {
            for r in self.adj.get(&cur).into_iter().flatten() {
                if let Entry::Vacant(slot) = parent_of_right.entry(r.clone()) {
                    slot.insert(cur.clone());
                    if let Some(next_l) = self.match_r.get(r) {
                        if next_l == donor {
                            endpoint = Some(r.clone());
                            break 'bfs;
                        }
                        if visited_left.insert(next_l.clone()) {
                            queue.push_back(next_l.clone());
                        }
                    }
                }
            }
        }
        let Some(mut r) = endpoint else {
            return false;
        };
        // Free the donor, then flip the alternating path so everyone on it
        // (including `l`) is matched.
        self.match_l.remove(donor);
        self.match_r.remove(&r);
        loop {
            let left = parent_of_right[&r].clone();
            let prev_r = self.match_l.insert(left.clone(), r.clone());
            self.match_r.insert(r, left.clone());
            match prev_r {
                Some(pr) => {
                    self.match_r.remove(&pr);
                    r = pr;
                }
                None => break,
            }
        }
        true
    }

    /// Internal consistency check (used by tests and debug assertions):
    /// matched pairs are symmetric and all matched edges exist.
    pub fn check_consistency(&self) -> bool {
        self.match_l.len() == self.match_r.len()
            && self.match_l.iter().all(|(l, r)| {
                self.match_r.get(r) == Some(l) && self.adj.get(l).is_some_and(|v| v.contains(r))
            })
    }
}

/// Bulk maximum bipartite matching via Hopcroft–Karp, O(E·√V).
///
/// `adj[i]` lists right-vertex indices adjacent to left vertex `i`;
/// `n_right` is the number of right vertices. Returns `match_left` where
/// `match_left[i]` is the matched right index of left `i`, if any.
pub fn hopcroft_karp(adj: &[Vec<usize>], n_right: usize) -> Vec<Option<usize>> {
    const INF: u32 = u32::MAX;
    let n_left = adj.len();
    let mut match_l: Vec<Option<usize>> = vec![None; n_left];
    let mut match_r: Vec<Option<usize>> = vec![None; n_right];
    let mut dist = vec![INF; n_left];
    let mut queue = VecDeque::new();

    loop {
        // BFS phase: layer free left vertices.
        queue.clear();
        for l in 0..n_left {
            if match_l[l].is_none() {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        while let Some(l) = queue.pop_front() {
            for &r in &adj[l] {
                match match_r[r] {
                    None => found_augmenting_layer = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push_back(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS phase: vertex-disjoint shortest augmenting paths.
        fn dfs(
            l: usize,
            adj: &[Vec<usize>],
            dist: &mut [u32],
            match_l: &mut [Option<usize>],
            match_r: &mut [Option<usize>],
        ) -> bool {
            for idx in 0..adj[l].len() {
                let r = adj[l][idx];
                let ok = match match_r[r] {
                    None => true,
                    Some(l2) => dist[l2] == dist[l] + 1 && dfs(l2, adj, dist, match_l, match_r),
                };
                if ok {
                    match_l[l] = Some(r);
                    match_r[r] = Some(l);
                    return true;
                }
            }
            dist[l] = u32::MAX;
            false
        }
        for l in 0..n_left {
            if match_l[l].is_none() && dist[l] == 0 {
                dfs(l, adj, &mut dist, &mut match_l, &mut match_r);
            }
        }
    }
    match_l
}

/// Size of a maximum matching, via [`hopcroft_karp`].
pub fn max_matching_size(adj: &[Vec<usize>], n_right: usize) -> usize {
    hopcroft_karp(adj, n_right).iter().flatten().count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher_from(edges: &[(u32, u32)]) -> IncrementalMatcher<u32, u32> {
        let mut m = IncrementalMatcher::new();
        for &(l, r) in edges {
            m.add_edge(l, r);
        }
        m
    }

    #[test]
    fn empty_matcher() {
        let m: IncrementalMatcher<u32, u32> = IncrementalMatcher::new();
        assert_eq!(m.matching_size(), 0);
        assert!(m.check_consistency());
    }

    #[test]
    fn simple_perfect_matching() {
        let mut m = matcher_from(&[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(m.repair(), 3);
        assert!(m.check_consistency());
    }

    #[test]
    fn augmenting_path_reshuffles() {
        // l0-{r0,r1}, l1-{r0}: greedy could match l0-r0 and strand l1;
        // augmenting must find size 2.
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(m.repair(), 2);
        assert!(m.check_consistency());
    }

    #[test]
    fn long_augmenting_chain() {
        // Chain where each new left steals the previous one's match.
        let mut m = matcher_from(&[(0, 0)]);
        assert_eq!(m.repair(), 1);
        m.add_edge(1, 0);
        m.add_edge(0, 1);
        assert_eq!(m.repair(), 2);
        m.add_edge(2, 1);
        m.add_edge(1, 2); // wait—1 already has only r0; give 0 another option
        assert_eq!(m.repair(), 3);
        assert!(m.check_consistency());
    }

    #[test]
    fn unmatchable_left_stays_free() {
        let mut m = matcher_from(&[(0, 0), (1, 0)]);
        assert_eq!(m.repair(), 1);
        assert_eq!(m.free_lefts().len(), 1);
    }

    #[test]
    fn remove_right_widows_partner_and_repair_recovers() {
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 0)]);
        m.repair();
        // Remove whichever right l0 holds; repair must restore size 2 if
        // possible, else 1.
        let widowed = m.remove_right(&0);
        assert!(widowed.is_some());
        let size = m.repair();
        assert_eq!(size, 1); // only r1 remains, adjacent to l0 only
        assert!(m.check_consistency());
    }

    #[test]
    fn remove_left_releases_right() {
        let mut m = matcher_from(&[(0, 0), (1, 0)]);
        m.repair();
        let matched_left = m.matched_left(&0).copied().unwrap();
        m.remove_left(&matched_left);
        assert_eq!(m.matching_size(), 0);
        assert_eq!(m.repair(), 1);
        assert!(m.check_consistency());
    }

    #[test]
    fn remove_matched_edge_unmatches() {
        let mut m = matcher_from(&[(0, 0)]);
        m.repair();
        assert!(m.remove_edge(&0, &0));
        assert_eq!(m.matching_size(), 0);
        assert!(!m.remove_edge(&0, &0)); // already gone
        assert!(m.check_consistency());
    }

    #[test]
    fn exchangeable_lefts_follow_alternating_paths() {
        // l0 matched r0; l1 matched r1; l2 free, adjacent to r0 only.
        let mut m = matcher_from(&[(0, 0), (1, 1)]);
        m.repair();
        m.add_edge(2, 0);
        let ex = m.exchangeable_lefts(&2);
        assert_eq!(ex, vec![0]); // l0 can donate r0 to l2 (and then be free)
                                 // l1 is not reachable: r1 is not adjacent to l2 or l0.
        m.add_edge(0, 1);
        let mut ex = m.exchangeable_lefts(&2);
        ex.sort();
        assert_eq!(ex, vec![0, 1]); // now l0 could take r1, freeing l1
    }

    #[test]
    fn exchange_shifts_matching() {
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 1)]);
        m.repair();
        assert_eq!(m.matching_size(), 2);
        // l2 adjacent only to r0. Exchange with l0 (shifting l0 to r1 would
        // conflict with l1... so the exchange frees l1 transitively? No —
        // exchange(l2, donor) requires donor reachable; test both donors.
        m.add_edge(2, 0);
        let ex = {
            let mut e = m.exchangeable_lefts(&2);
            e.sort();
            e
        };
        assert_eq!(ex, vec![0, 1]);
        assert!(m.exchange(&2, &1));
        assert!(m.check_consistency());
        assert_eq!(m.matching_size(), 2);
        assert!(m.matched_right(&2).is_some());
        assert!(m.matched_right(&1).is_none()); // donor is now free
        assert!(m.matched_right(&0).is_some());
    }

    #[test]
    fn exchange_fails_when_unreachable() {
        let mut m = matcher_from(&[(0, 0), (1, 1)]);
        m.repair();
        m.add_edge(2, 0);
        // l1 is not on any alternating path from l2.
        assert!(!m.exchange(&2, &1));
        // Matching unchanged.
        assert_eq!(m.matching_size(), 2);
        assert!(m.check_consistency());
    }

    #[test]
    fn hopcroft_karp_small_cases() {
        assert_eq!(max_matching_size(&[], 0), 0);
        assert_eq!(max_matching_size(&[vec![0], vec![0]], 1), 1);
        assert_eq!(max_matching_size(&[vec![0, 1], vec![0]], 2), 2);
        let adj = vec![vec![0, 1], vec![0], vec![1, 2], vec![2]];
        assert_eq!(max_matching_size(&adj, 3), 3);
    }

    #[test]
    fn hopcroft_karp_returns_valid_matching() {
        let adj = vec![vec![0, 1, 2], vec![0], vec![0, 2], vec![1]];
        let m = hopcroft_karp(&adj, 3);
        let mut used = HashSet::new();
        for (l, r) in m.iter().enumerate() {
            if let Some(r) = r {
                assert!(adj[l].contains(r), "matched edge must exist");
                assert!(used.insert(*r), "right vertex used twice");
            }
        }
        assert_eq!(m.iter().flatten().count(), 3);
    }
}
