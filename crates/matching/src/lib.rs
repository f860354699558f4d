//! # crowdfill-matching
//!
//! Bipartite-matching substrate for CrowdFill's Probable Rows Invariant
//! (paper §4.2). The PRI is equivalent to: *a maximum bipartite matching
//! between template rows (left) and probable rows (right) has exactly |T|
//! edges*. The Central Client maintains that matching **incrementally** as
//! workers act — each change adds/removes a vertex or two, after which a
//! single augmenting-path search (Berge's theorem) restores maximality.
//!
//! * [`IncrementalMatcher`] — the live structure and the only incremental
//!   engine: add vertices (one, or a whole run at once, as a constructor
//!   does) and remove them, repair with augmenting paths, and query
//!   the alternating structure (the CC's "shuffle" step, when a template
//!   row must be freed). Edges join a right to a *class* of lefts: lefts of
//!   one class have the same neighbours (the Central Client puts equal
//!   template rows in one class), so a class holds one adjacency list and
//!   each member keeps its own mate. A template of N equal rows costs one
//!   edge per probable row, not N.
//! * [`hopcroft_karp`] — an independent O(E·√V) bulk solver, kept as the
//!   test oracle for the incremental engine's matching *size*.
//!
//! ## Determinism
//! The Central Client's insert / shuffle / drop decisions read the matching,
//! so two servers fed the same message sequence must produce byte-identical
//! broadcast histories (`server/tests/batch_props.rs`, the crash-point
//! matrix). The matching is therefore a pure function of the mutation
//! history: free lefts are augmented in ascending key order, a class's
//! adjacency is scanned in the order its edges were added, and a search
//! ends at the first goal right in BFS discovery order. Slot numbers, class
//! ids and the scratch arrays never influence a choice.
//!
//! These are exactly the choices of a matcher with one adjacency list per
//! left (`tests/support/per_left.rs`, the oracle of `tests/oracle.rs`):
//! classmates' lists would be equal, so the first classmate a search expands
//! discovers every right of the list and a later one finds nothing new — a
//! search expands each class once and skips the rest.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};

/// What a matcher has done so far ([`IncrementalMatcher::counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchCounts {
    /// Augmenting-path searches started.
    pub augment_searches: u64,
    /// BFS expansions across all augmenting-path searches (a search that
    /// ends at a free neighbour of its root is one).
    pub augment_steps: u64,
    /// Adjacency entries touched by add / remove / repair / exchange — the
    /// matcher's unit of work, and what the scaling gate
    /// (`constraints/tests/pri_scaling.rs`) bounds instead of a wall clock.
    pub edge_visits: u64,
}

/// "No slot": a free vertex's mate, a matched left's position in the free
/// list.
const NIL: u32 = u32::MAX;

/// A left vertex: the class whose adjacency it shares, and its partner.
#[derive(Debug, Clone, Copy)]
struct Left {
    class: u32,
    mate: u32,
}

/// A right vertex: its partner, and its edges as (class, position in that
/// class's adjacency).
#[derive(Debug, Clone)]
struct Right {
    mate: u32,
    edges: Vec<(u32, u64)>,
}

/// The neighbours every left of one class shares, keyed by edge position
/// (so they iterate in insertion order).
#[derive(Debug, Clone, Default)]
struct Class {
    adj: BTreeMap<u64, u32>,
    /// A subset of `adj` holding every unmatched neighbour: a right enters
    /// as it is added or unmatched, and leaves lazily, when an augment finds
    /// it matched at the front. So a match costs nothing per class, and an
    /// augment's first free neighbour is the first entry that is free.
    free: BTreeMap<u64, u32>,
}

/// One side of the graph. Caller keys are interned to dense `u32` slots here,
/// at the API boundary, and nowhere else; vacated slots are reused.
#[derive(Debug, Clone)]
struct Side<K, N> {
    slot_of: BTreeMap<K, u32>,
    /// `None` while the slot is vacant.
    keys: Vec<Option<K>>,
    nodes: Vec<N>,
    vacant: Vec<u32>,
    /// Keys interned since the last [`flush`](Self::flush), ascending, not
    /// yet in `slot_of`. Empty between calls.
    run: Vec<(K, u32)>,
}

impl<K: Clone + Ord, N> Side<K, N> {
    fn new() -> Self {
        Side {
            slot_of: BTreeMap::new(),
            keys: Vec::new(),
            nodes: Vec::new(),
            vacant: Vec::new(),
            run: Vec::new(),
        }
    }

    fn slot(&self, key: &K) -> Option<u32> {
        self.slot_of.get(key).copied()
    }

    fn key(&self, slot: u32) -> &K {
        self.keys[slot as usize]
            .as_ref()
            .expect("slot in use has a key")
    }

    /// The slot of `key`, and whether it was created by this call (holding
    /// `node`). A created key joins the ascending run that the next
    /// [`flush`](Self::flush) enters into `slot_of`; a key below the run's
    /// last flushes it first.
    fn intern(&mut self, key: K, node: N) -> (u32, bool) {
        match self.run.last() {
            Some((last, slot)) if *last == key => return (*slot, false),
            Some((last, _)) if *last > key => self.flush(),
            _ => {}
        }
        if let Some(slot) = self.slot(&key) {
            return (slot, false);
        }
        let slot = match self.vacant.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let slot = u32::try_from(self.nodes.len()).expect("fewer than 2^32 vertices");
                assert!(slot != NIL, "fewer than 2^32 vertices");
                self.keys.push(None);
                self.nodes.push(node);
                slot
            }
        };
        self.keys[slot as usize] = Some(key.clone());
        self.run.push((key, slot));
        (slot, true)
    }

    /// Enters the keys interned since the last flush into `slot_of`.
    fn flush(&mut self) {
        append_run(&mut self.slot_of, self.run.drain(..));
    }

    fn vacate(&mut self, slot: u32) {
        let key = self.keys[slot as usize]
            .take()
            .expect("slot in use has a key");
        self.slot_of.remove(&key);
        self.vacant.push(slot);
    }
}

/// Enters `run`, ascending, into `map`: a run of two or more into an empty
/// map is built in one pass, with full nodes; anything else entry by entry.
fn append_run<K: Ord, V>(map: &mut BTreeMap<K, V>, run: impl Iterator<Item = (K, V)>) {
    let mut run = run.peekable();
    match run.next() {
        Some(first) if map.is_empty() && run.peek().is_some() => {
            *map = std::iter::once(first).chain(run).collect();
        }
        Some((k, v)) => {
            map.insert(k, v);
            map.extend(run);
        }
        None => {}
    }
}

/// An incrementally-maintained bipartite matching over caller-supplied
/// vertex keys, with edges on classes of left vertices.
///
/// Left vertices model template rows; right vertices model probable rows.
/// Class ids are the caller's and index a vector, so keep them dense. The
/// structure never removes a matched edge on its own: mutations may leave a
/// left unmatched, and [`repair`](Self::repair) restores maximality via
/// augmenting paths. See the crate docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct IncrementalMatcher<L, R> {
    lefts: Side<L, Left>,
    rights: Side<R, Right>,
    classes: Vec<Class>,
    /// The next edge's position: ascending, so a class iterates in
    /// insertion order.
    next_pos: u64,
    /// Unmatched left slots, unordered; `free_pos[l]` is `l`'s index here.
    free: Vec<u32>,
    free_pos: Vec<u32>,
    /// Search scratch, stamped with `epoch` instead of cleared: a left is
    /// visited, a right has a parent, or a class was expanded iff its stamp
    /// equals the epoch.
    epoch: u32,
    seen_left: Vec<u32>,
    seen_right: Vec<u32>,
    seen_class: Vec<u32>,
    /// The left from which a right was discovered.
    parent: Vec<u32>,
    queue: VecDeque<u32>,
    /// The edges an [`add_rights`](Self::add_rights) call added, as
    /// (class, position, right, whether the right is free). Empty between
    /// calls.
    edge_run: Vec<(u32, u64, u32, bool)>,
    counts: MatchCounts,
}

impl<L: Clone + Ord, R: Clone + Ord> Default for IncrementalMatcher<L, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Clone + Ord, R: Clone + Ord> IncrementalMatcher<L, R> {
    /// An empty matcher.
    pub fn new() -> Self {
        IncrementalMatcher {
            lefts: Side::new(),
            rights: Side::new(),
            classes: Vec::new(),
            next_pos: 0,
            free: Vec::new(),
            free_pos: Vec::new(),
            epoch: 0,
            seen_left: Vec::new(),
            seen_right: Vec::new(),
            seen_class: Vec::new(),
            parent: Vec::new(),
            queue: VecDeque::new(),
            edge_run: Vec::new(),
            counts: MatchCounts::default(),
        }
    }

    /// What this matcher has done since it was made.
    pub fn counts(&self) -> MatchCounts {
        self.counts
    }

    /// Number of matched pairs.
    pub fn matching_size(&self) -> usize {
        self.lefts.slot_of.len() - self.free.len()
    }

    /// Number of edges held: one per (class, right) pair.
    pub fn edge_count(&self) -> usize {
        self.classes.iter().map(|c| c.adj.len()).sum()
    }

    /// The right vertex matched to `l`, if any.
    pub fn matched_right(&self, l: &L) -> Option<&R> {
        let mate = self.lefts.nodes[self.lefts.slot(l)? as usize].mate;
        (mate != NIL).then(|| self.rights.key(mate))
    }

    /// The left vertex matched to `r`, if any.
    pub fn matched_left(&self, r: &R) -> Option<&L> {
        let mate = self.rights.nodes[self.rights.slot(r)? as usize].mate;
        (mate != NIL).then(|| self.lefts.key(mate))
    }

    /// The currently unmatched left vertices, ascending.
    pub fn free_lefts(&self) -> Vec<L> {
        let mut out: Vec<L> = self
            .free
            .iter()
            .map(|&l| self.lefts.key(l).clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// The smallest unmatched left vertex — the one [`repair`](Self::repair)
    /// would try first.
    pub fn lowest_free_left(&self) -> Option<&L> {
        self.free.iter().map(|&l| self.lefts.key(l)).min()
    }

    /// Adds left vertex `l` to `class`, whose adjacency it shares as it
    /// stands. No-op if `l` is present.
    pub fn add_left(&mut self, l: L, class: usize) {
        self.add_lefts([(l, class)]);
    }

    /// [`add_left`](Self::add_left) for each `(l, class)` in turn, the new
    /// keys entering the key index as ascending runs.
    pub fn add_lefts(&mut self, lefts: impl IntoIterator<Item = (L, usize)>) {
        for (l, class) in lefts {
            let class = self.intern_class(class);
            let (slot, fresh) = self.lefts.intern(l, Left { class, mate: NIL });
            if fresh {
                if slot as usize == self.seen_left.len() {
                    self.seen_left.push(0);
                    self.free_pos.push(NIL);
                }
                self.set_free(slot, true);
            }
        }
        self.lefts.flush();
    }

    /// Adds right vertex `r` together with its edges to `classes`, appended
    /// to each class's adjacency in iteration order; edges `r` already has
    /// are skipped.
    pub fn add_right(&mut self, r: R, classes: impl IntoIterator<Item = usize>) {
        self.add_rights([(r, classes)]);
    }

    /// [`add_right`](Self::add_right) for each `(r, classes)` in turn: the
    /// same slots, edge positions and matching. The new keys enter the key
    /// index, and each class's new edges its adjacency and free set, as
    /// ascending runs.
    pub fn add_rights<C: IntoIterator<Item = usize>>(
        &mut self,
        rights: impl IntoIterator<Item = (R, C)>,
    ) {
        let mut visits = 0;
        for (r, classes) in rights {
            let (r, _) = self.rights.intern(
                r,
                Right {
                    mate: NIL,
                    edges: Vec::new(),
                },
            );
            if r as usize == self.seen_right.len() {
                self.seen_right.push(0);
                self.parent.push(NIL);
            }
            let epoch = self.next_epoch();
            let node = &self.rights.nodes[r as usize];
            let free = node.mate == NIL;
            visits += node.edges.len() as u64;
            for &(c, _) in &node.edges {
                self.seen_class[c as usize] = epoch;
            }
            for class in classes {
                let c = self.intern_class(class);
                if std::mem::replace(&mut self.seen_class[c as usize], epoch) != epoch {
                    visits += 1;
                    let pos = self.next_pos;
                    self.next_pos += 1;
                    self.edge_run.push((c, pos, r, free));
                    self.rights.nodes[r as usize].edges.push((c, pos));
                }
            }
        }
        self.rights.flush();
        // Stable: each class's edges stay ascending by position, all above
        // the positions it holds.
        self.edge_run.sort_by_key(|&(c, ..)| c);
        for run in self.edge_run.chunk_by(|a, b| a.0 == b.0) {
            let class = &mut self.classes[run[0].0 as usize];
            append_run(&mut class.adj, run.iter().map(|&(_, pos, r, _)| (pos, r)));
            let free = run.iter().filter(|e| e.3);
            append_run(&mut class.free, free.map(|&(_, pos, r, _)| (pos, r)));
        }
        self.edge_run.clear();
        self.counts.edge_visits += visits;
    }

    /// Removes a right vertex and all its edges; unmatches its partner.
    /// Returns the left vertex that lost its match, if any.
    pub fn remove_right(&mut self, r: &R) -> Option<L> {
        let r = self.rights.slot(r)?;
        let node = &mut self.rights.nodes[r as usize];
        let (widowed, edges) = (node.mate, std::mem::take(&mut node.edges));
        if widowed != NIL {
            self.lefts.nodes[widowed as usize].mate = NIL;
            self.set_free(widowed, true);
        }
        for &(c, pos) in &edges {
            let class = &mut self.classes[c as usize];
            class.adj.remove(&pos);
            class.free.remove(&pos);
        }
        self.counts.edge_visits += edges.len() as u64;
        self.rights.vacate(r);
        (widowed != NIL).then(|| self.lefts.key(widowed).clone())
    }

    /// Removes a left vertex from its class; unmatches its partner.
    /// Returns the right vertex that lost its match, if any.
    pub fn remove_left(&mut self, l: &L) -> Option<R> {
        let l = self.lefts.slot(l)?;
        let widowed = self.lefts.nodes[l as usize].mate;
        if widowed != NIL {
            self.unmatch(l, widowed);
        }
        self.set_free(l, false);
        self.lefts.vacate(l);
        (widowed != NIL).then(|| self.rights.key(widowed).clone())
    }

    /// Augments every free left vertex once, in ascending key order, and
    /// returns the matching size. After arbitrary mutations this restores
    /// maximality.
    pub fn repair(&mut self) -> usize {
        if !self.free.is_empty() {
            let mut order = self.free.clone();
            order.sort_unstable_by(|a, b| self.lefts.key(*a).cmp(self.lefts.key(*b)));
            for l in order {
                self.augment(l);
            }
        }
        self.matching_size()
    }

    /// The *exchangeable* left vertices for a free left `l`: matched lefts
    /// reachable by an alternating path, i.e. candidates to donate their
    /// match so that `l` becomes matched and no other vertex loses its own
    /// (the Central Client's "shuffle" step, paper §4.2). BFS discovery
    /// order.
    pub fn exchangeable_lefts(&mut self, l: &L) -> Vec<L> {
        let Some(root) = self.lefts.slot(l) else {
            return Vec::new();
        };
        if self.lefts.nodes[root as usize].mate != NIL {
            return Vec::new();
        }
        let epoch = self.next_epoch();
        let mut out = Vec::new();
        let mut visits = 0u64;
        self.queue.clear();
        self.seen_left[root as usize] = epoch;
        self.queue.push_back(root);
        while let Some(cur) = self.queue.pop_front() {
            let c = self.lefts.nodes[cur as usize].class as usize;
            if std::mem::replace(&mut self.seen_class[c], epoch) == epoch {
                continue;
            }
            for &r in self.classes[c].adj.values() {
                visits += 1;
                let mate = self.rights.nodes[r as usize].mate;
                if mate != NIL && self.seen_left[mate as usize] != epoch {
                    self.seen_left[mate as usize] = epoch;
                    out.push(self.lefts.key(mate).clone());
                    self.queue.push_back(mate);
                }
            }
        }
        self.counts.edge_visits += visits;
        out
    }

    /// Rebuilds the matching so that `l` (currently free) becomes matched and
    /// `donor` (currently matched, reachable from `l`) becomes free. Returns
    /// `false` — leaving the matching unchanged — if no alternating path from
    /// `l` ends at `donor`.
    pub fn exchange(&mut self, l: &L, donor: &L) -> bool {
        let (Some(root), Some(donor)) = (self.lefts.slot(l), self.lefts.slot(donor)) else {
            return false;
        };
        if self.lefts.nodes[root as usize].mate != NIL
            || self.lefts.nodes[donor as usize].mate == NIL
        {
            return false;
        }
        let Some(end) = self.search(root, donor) else {
            return false;
        };
        self.unmatch(donor, end);
        self.flip(root, end);
        true
    }

    /// Internal consistency check: matched pairs are symmetric and joined by
    /// an edge, the free list holds exactly the unmatched lefts, each class's
    /// adjacency holds exactly its edges, and its free set is a part of the
    /// adjacency that holds every unmatched neighbour.
    pub fn check_consistency(&self) -> bool {
        let lefts = self.lefts.slot_of.values().all(|&l| {
            let Left { class, mate } = self.lefts.nodes[l as usize];
            let pos = self.free_pos[l as usize];
            if mate == NIL {
                self.free.get(pos as usize) == Some(&l)
            } else {
                let right = &self.rights.nodes[mate as usize];
                pos == NIL && right.mate == l && right.edges.iter().any(|&(c, _)| c == class)
            }
        });
        let mut edges = 0;
        let rights = self.rights.slot_of.values().all(|&r| {
            let Right {
                mate,
                edges: ref own,
            } = self.rights.nodes[r as usize];
            edges += own.len();
            (mate == NIL || self.lefts.nodes[mate as usize].mate == r)
                && own.iter().all(|&(c, pos)| {
                    let class = &self.classes[c as usize];
                    class.adj.get(&pos) == Some(&r)
                        && (mate != NIL || class.free.contains_key(&pos))
                })
        });
        let free_in_adj = self
            .classes
            .iter()
            .all(|class| (class.free.iter()).all(|(pos, r)| class.adj.get(pos) == Some(r)));
        lefts && rights && free_in_adj && edges == self.edge_count()
    }

    // ---- internals -------------------------------------------------------

    /// The slot of caller class id `class`, growing the class table to it.
    fn intern_class(&mut self, class: usize) -> u32 {
        let slot = u32::try_from(class).expect("class ids below 2^32");
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Class::default);
            self.seen_class.resize(class + 1, 0);
        }
        slot
    }

    /// Puts left slot `l` on, or takes it off, the free list. Idempotent.
    fn set_free(&mut self, l: u32, free: bool) {
        let pos = self.free_pos[l as usize];
        if free && pos == NIL {
            self.free_pos[l as usize] = self.free.len() as u32;
            self.free.push(l);
        } else if !free && pos != NIL {
            self.free.swap_remove(pos as usize);
            if let Some(&moved) = self.free.get(pos as usize) {
                self.free_pos[moved as usize] = pos;
            }
            self.free_pos[l as usize] = NIL;
        }
    }

    /// Unmatches the pair, entering `r` into the free sets of its classes.
    fn unmatch(&mut self, l: u32, r: u32) {
        self.lefts.nodes[l as usize].mate = NIL;
        let right = &mut self.rights.nodes[r as usize];
        right.mate = NIL;
        for &(c, pos) in &right.edges {
            self.classes[c as usize].free.insert(pos, r);
        }
        self.counts.edge_visits += right.edges.len() as u64;
        self.set_free(l, true);
    }

    /// A fresh stamp for the search scratch (see the `epoch` field).
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.seen_left.fill(0);
            self.seen_right.fill(0);
            self.seen_class.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// One augmenting-path search from free left `root` (Berge's theorem:
    /// flipping an augmenting path grows the matching by one). A free
    /// neighbour of `root` is where the BFS would end anyway — it scans
    /// `root`'s adjacency first and stops at the first free right — so that
    /// case reads the class's free set instead, dropping the matched rights
    /// it finds at the front.
    fn augment(&mut self, root: u32) -> bool {
        self.counts.augment_searches += 1;
        let free = &mut self.classes[self.lefts.nodes[root as usize].class as usize].free;
        let mut visits = 0u64;
        while let Some(first) = free.first_entry() {
            visits += 1;
            let r = *first.get();
            if self.rights.nodes[r as usize].mate == NIL {
                self.counts.edge_visits += visits;
                self.counts.augment_steps += 1;
                self.parent[r as usize] = root;
                self.flip(root, r);
                return true;
            }
            first.remove();
        }
        self.counts.edge_visits += visits;
        match self.search(root, NIL) {
            Some(end) => {
                self.flip(root, end);
                true
            }
            None => false,
        }
    }

    /// BFS over alternating paths from free left `root` — unmatched edge to
    /// a right, matched edge back to a left — to the first right, in
    /// discovery order, whose mate is `goal`: `NIL` looks for a free right
    /// (an augmenting path), a left slot looks for that donor's right. A
    /// class is expanded once. Records each discovered right's parent for
    /// [`flip`](Self::flip).
    fn search(&mut self, root: u32, goal: u32) -> Option<u32> {
        let epoch = self.next_epoch();
        let (mut steps, mut visits) = (0u64, 0u64);
        let mut end = None;
        self.queue.clear();
        self.seen_left[root as usize] = epoch;
        self.queue.push_back(root);
        'bfs: while let Some(cur) = self.queue.pop_front() {
            let c = self.lefts.nodes[cur as usize].class as usize;
            if std::mem::replace(&mut self.seen_class[c], epoch) == epoch {
                continue;
            }
            steps += 1;
            for &r in self.classes[c].adj.values() {
                visits += 1;
                if self.seen_right[r as usize] == epoch {
                    continue;
                }
                self.seen_right[r as usize] = epoch;
                self.parent[r as usize] = cur;
                let mate = self.rights.nodes[r as usize].mate;
                if mate == goal {
                    end = Some(r);
                    break 'bfs;
                }
                if mate != NIL && self.seen_left[mate as usize] != epoch {
                    self.seen_left[mate as usize] = epoch;
                    self.queue.push_back(mate);
                }
            }
        }
        self.counts.augment_steps += steps;
        self.counts.edge_visits += visits;
        end
    }

    /// Flips the alternating path recorded in `parent`, from its end right
    /// back to `root`: every left on it takes the right it was discovered
    /// from and hands its old right to its parent.
    fn flip(&mut self, root: u32, end: u32) {
        let mut r = end;
        loop {
            let l = self.parent[r as usize];
            let prev = std::mem::replace(&mut self.lefts.nodes[l as usize].mate, r);
            self.rights.nodes[r as usize].mate = l;
            if prev == NIL {
                debug_assert_eq!(l, root);
                break;
            }
            r = prev;
        }
        self.set_free(root, false);
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
    use std::collections::HashSet;

    /// Adds edge `l`–`r`, `l` alone in class `l`.
    fn join(m: &mut IncrementalMatcher<u32, u32>, l: u32, r: u32) {
        m.add_left(l, l as usize);
        m.add_right(r, [l as usize]);
    }

    fn matcher_from(edges: &[(u32, u32)]) -> IncrementalMatcher<u32, u32> {
        let mut m = IncrementalMatcher::new();
        for &(l, r) in edges {
            join(&mut m, l, r);
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
        // Each new left steals the previous one's match, which moves on.
        let mut m = matcher_from(&[(0, 0)]);
        assert_eq!(m.repair(), 1);
        join(&mut m, 1, 0);
        join(&mut m, 0, 1);
        assert_eq!(m.repair(), 2);
        join(&mut m, 2, 1);
        join(&mut m, 1, 2);
        assert_eq!(m.repair(), 3);
        assert!(m.check_consistency());
    }

    #[test]
    fn unmatchable_left_stays_free() {
        let mut m = matcher_from(&[(0, 0), (1, 0)]);
        assert_eq!(m.repair(), 1);
        assert_eq!(m.free_lefts(), vec![1]);
        assert_eq!(m.lowest_free_left(), Some(&1));
    }

    #[test]
    fn duplicate_edges_are_refused() {
        let mut m = matcher_from(&[(0, 0), (1, 1)]);
        // A right added with its edge list: duplicates inside the list and
        // against the edges it already has are both skipped.
        m.add_right(0, [0, 1, 1]);
        m.add_right(1, [1, 1, 0]);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.repair(), 2);
        assert!(m.check_consistency());
    }

    #[test]
    fn classmates_share_one_adjacency_and_keep_their_own_mates() {
        // Lefts 3, 1, 2 in class 0; left 0 alone in class 1.
        let mut m: IncrementalMatcher<u32, u32> = IncrementalMatcher::new();
        for (l, class) in [(3, 0), (1, 0), (2, 0), (0, 1)] {
            m.add_left(l, class);
        }
        for r in [10, 11] {
            m.add_right(r, [0, 1]);
        }
        assert_eq!(m.edge_count(), 4);
        // Ascending lefts take the class's free rights in insertion order.
        assert_eq!(m.repair(), 2);
        assert_eq!(m.matched_right(&0), Some(&10));
        assert_eq!(m.matched_right(&1), Some(&11));
        assert_eq!(m.free_lefts(), vec![2, 3]);
        // Left 2 reaches both matched lefts; left 1's class is expanded once.
        assert_eq!(m.exchangeable_lefts(&2), vec![0, 1]);
        assert!(m.exchange(&2, &1));
        assert_eq!(m.matched_right(&2), Some(&11));
        m.add_right(12, [0]);
        assert_eq!(m.repair(), 3);
        assert_eq!(m.matched_right(&1), Some(&12));
        assert_eq!(m.remove_left(&1), Some(12));
        assert_eq!(m.repair(), 3);
        assert_eq!(m.matched_right(&3), Some(&12));
        assert!(m.check_consistency());
    }

    #[test]
    fn repair_is_deterministic_across_instances() {
        let edges: Vec<(u32, u32)> = (0..40)
            .flat_map(|l| (0..3).map(move |k| (l, (l * 7 + k * 11) % 40)))
            .collect();
        let mut a = matcher_from(&edges);
        let mut b = matcher_from(&edges);
        assert_eq!(a.repair(), b.repair());
        for l in 0..40u32 {
            assert_eq!(a.matched_right(&l), b.matched_right(&l), "left {l}");
        }
    }

    #[test]
    fn adjacency_keeps_insertion_order_across_removals_and_slot_reuse() {
        // l0's neighbours in insertion order: r5, r3, r9. The first free one
        // wins, whatever its key or slot.
        let mut m = matcher_from(&[(0, 5), (0, 3), (0, 9)]);
        m.repair();
        assert_eq!(m.matched_right(&0), Some(&5));
        m.remove_right(&5);
        m.repair();
        assert_eq!(m.matched_right(&0), Some(&3));
        // r1 reuses r5's slot but joins at the back of l0's list.
        m.add_right(1, [0]);
        m.remove_right(&3);
        m.repair();
        assert_eq!(m.matched_right(&0), Some(&9));
        assert!(m.check_consistency());
    }

    #[test]
    fn remove_right_widows_partner_and_repair_recovers() {
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 0)]);
        m.repair();
        let widowed = m.remove_right(&0);
        assert!(widowed.is_some());
        // Only r1 remains, adjacent to l0 only.
        assert_eq!(m.repair(), 1);
        m.remove_left(&0);
        assert_eq!(m.repair(), 0);
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
    fn exchangeable_lefts_follow_alternating_paths() {
        // l0 matched r0; l1 matched r1; l2 free, adjacent to r0 only.
        let mut m = matcher_from(&[(0, 0), (1, 1)]);
        m.repair();
        join(&mut m, 2, 0);
        // l0 can donate r0 to l2; r1 is adjacent to neither l2 nor l0.
        assert_eq!(m.exchangeable_lefts(&2), vec![0]);
        join(&mut m, 0, 1);
        // Now l0 could take r1, freeing l1.
        assert_eq!(m.exchangeable_lefts(&2), vec![0, 1]);
    }

    #[test]
    fn exchange_shifts_matching() {
        let mut m = matcher_from(&[(0, 0), (0, 1), (1, 1)]);
        m.repair();
        assert_eq!(m.matching_size(), 2);
        join(&mut m, 2, 0);
        assert_eq!(m.exchangeable_lefts(&2), vec![0, 1]);
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
        join(&mut m, 2, 0);
        // l1 is not on any alternating path from l2.
        assert!(!m.exchange(&2, &1));
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
