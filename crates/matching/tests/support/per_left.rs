//! The matcher the product replaced, kept as its oracle: every left vertex
//! holds its own adjacency list, so a template of N equal rows costs N edges
//! per right. Edges are threaded on doubly-linked lists in insertion order;
//! free lefts are augmented in ascending key order and a search ends at the
//! first goal right in BFS discovery order. The product holds one list per
//! class of lefts and must make exactly the choices made here.

use std::collections::{BTreeMap, VecDeque};

const NIL: u32 = u32::MAX;

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// One edge, threaded on the adjacency lists of both endpoints.
#[derive(Debug, Clone, Copy)]
struct Edge {
    end: [u32; 2],
    prev: [u32; 2],
    next: [u32; 2],
}

#[derive(Debug, Clone, Copy)]
struct Node {
    head: u32,
    tail: u32,
    mate: u32,
}

const ISOLATED: Node = Node {
    head: NIL,
    tail: NIL,
    mate: NIL,
};

#[derive(Debug, Clone)]
struct Side<K> {
    slot_of: BTreeMap<K, u32>,
    keys: Vec<Option<K>>,
    nodes: Vec<Node>,
    vacant: Vec<u32>,
}

impl<K: Clone + Ord> Side<K> {
    fn new() -> Self {
        Side {
            slot_of: BTreeMap::new(),
            keys: Vec::new(),
            nodes: Vec::new(),
            vacant: Vec::new(),
        }
    }

    fn slot(&self, key: &K) -> Option<u32> {
        self.slot_of.get(key).copied()
    }

    fn key(&self, slot: u32) -> &K {
        self.keys[slot as usize].as_ref().expect("slot in use")
    }

    fn intern(&mut self, key: K) -> (u32, bool) {
        if let Some(slot) = self.slot(&key) {
            return (slot, false);
        }
        let slot = match self.vacant.pop() {
            Some(slot) => slot,
            None => {
                self.keys.push(None);
                self.nodes.push(ISOLATED);
                (self.nodes.len() - 1) as u32
            }
        };
        self.keys[slot as usize] = Some(key.clone());
        self.nodes[slot as usize] = ISOLATED;
        self.slot_of.insert(key, slot);
        (slot, true)
    }

    fn vacate(&mut self, slot: u32) {
        let key = self.keys[slot as usize].take().expect("slot in use");
        self.slot_of.remove(&key);
        self.vacant.push(slot);
    }
}

/// The per-left-edge incremental matcher.
#[derive(Debug, Clone)]
pub struct PerLeftMatcher<L, R> {
    lefts: Side<L>,
    rights: Side<R>,
    edges: Vec<Edge>,
    vacant_edges: Vec<u32>,
    free: Vec<u32>,
    free_pos: Vec<u32>,
    epoch: u32,
    seen_left: Vec<u32>,
    seen_right: Vec<u32>,
    parent: Vec<u32>,
    queue: VecDeque<u32>,
}

impl<L: Clone + Ord, R: Clone + Ord> PerLeftMatcher<L, R> {
    pub fn new() -> Self {
        PerLeftMatcher {
            lefts: Side::new(),
            rights: Side::new(),
            edges: Vec::new(),
            vacant_edges: Vec::new(),
            free: Vec::new(),
            free_pos: Vec::new(),
            epoch: 0,
            seen_left: Vec::new(),
            seen_right: Vec::new(),
            parent: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    pub fn matching_size(&self) -> usize {
        self.lefts.slot_of.len() - self.free.len()
    }

    pub fn matched_right(&self, l: &L) -> Option<&R> {
        let mate = self.lefts.nodes[self.lefts.slot(l)? as usize].mate;
        (mate != NIL).then(|| self.rights.key(mate))
    }

    pub fn free_lefts(&self) -> Vec<L> {
        let mut out: Vec<L> = self
            .free
            .iter()
            .map(|&l| self.lefts.key(l).clone())
            .collect();
        out.sort_unstable();
        out
    }

    pub fn lowest_free_left(&self) -> Option<&L> {
        self.free.iter().map(|&l| self.lefts.key(l)).min()
    }

    pub fn add_left(&mut self, l: L) {
        self.intern_left(l);
    }

    /// Adds `r` with edges to `lefts`, skipping edges it already has.
    pub fn add_right(&mut self, r: R, lefts: impl IntoIterator<Item = L>) {
        let r = self.intern_right(r);
        let epoch = self.next_epoch();
        let mut e = self.rights.nodes[r as usize].head;
        while e != NIL {
            self.seen_left[self.edges[e as usize].end[LEFT] as usize] = epoch;
            e = self.edges[e as usize].next[RIGHT];
        }
        for l in lefts {
            let l = self.intern_left(l);
            if self.seen_left[l as usize] != epoch {
                self.seen_left[l as usize] = epoch;
                self.push_edge(l, r);
            }
        }
    }

    pub fn remove_right(&mut self, r: &R) -> Option<L> {
        let r = self.rights.slot(r)?;
        let widowed = self.rights.nodes[r as usize].mate;
        if widowed != NIL {
            self.unmatch(widowed, r);
        }
        self.drop_edges_of(RIGHT, r);
        self.rights.vacate(r);
        (widowed != NIL).then(|| self.lefts.key(widowed).clone())
    }

    pub fn remove_left(&mut self, l: &L) -> Option<R> {
        let l = self.lefts.slot(l)?;
        let widowed = self.lefts.nodes[l as usize].mate;
        if widowed != NIL {
            self.unmatch(l, widowed);
        }
        self.set_free(l, false);
        self.drop_edges_of(LEFT, l);
        self.lefts.vacate(l);
        (widowed != NIL).then(|| self.rights.key(widowed).clone())
    }

    pub fn repair(&mut self) -> usize {
        let mut order = self.free.clone();
        order.sort_unstable_by(|a, b| self.lefts.key(*a).cmp(self.lefts.key(*b)));
        for l in order {
            self.augment(l);
        }
        self.matching_size()
    }

    pub fn exchangeable_lefts(&mut self, l: &L) -> Vec<L> {
        let Some(root) = self.lefts.slot(l) else {
            return Vec::new();
        };
        if self.lefts.nodes[root as usize].mate != NIL {
            return Vec::new();
        }
        let epoch = self.next_epoch();
        let mut out = Vec::new();
        self.queue.clear();
        self.seen_left[root as usize] = epoch;
        self.queue.push_back(root);
        while let Some(cur) = self.queue.pop_front() {
            let mut e = self.lefts.nodes[cur as usize].head;
            while e != NIL {
                let mate = self.rights.nodes[self.edges[e as usize].end[RIGHT] as usize].mate;
                if mate != NIL && self.seen_left[mate as usize] != epoch {
                    self.seen_left[mate as usize] = epoch;
                    out.push(self.lefts.key(mate).clone());
                    self.queue.push_back(mate);
                }
                e = self.edges[e as usize].next[LEFT];
            }
        }
        out
    }

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

    fn intern_left(&mut self, l: L) -> u32 {
        let (slot, fresh) = self.lefts.intern(l);
        if fresh {
            if slot as usize == self.seen_left.len() {
                self.seen_left.push(0);
                self.free_pos.push(NIL);
            }
            self.set_free(slot, true);
        }
        slot
    }

    fn intern_right(&mut self, r: R) -> u32 {
        let (slot, _) = self.rights.intern(r);
        if slot as usize == self.seen_right.len() {
            self.seen_right.push(0);
            self.parent.push(NIL);
        }
        slot
    }

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

    fn unmatch(&mut self, l: u32, r: u32) {
        self.lefts.nodes[l as usize].mate = NIL;
        self.rights.nodes[r as usize].mate = NIL;
        self.set_free(l, true);
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    fn nodes_mut(&mut self, side: usize) -> &mut [Node] {
        if side == LEFT {
            &mut self.lefts.nodes
        } else {
            &mut self.rights.nodes
        }
    }

    fn push_edge(&mut self, l: u32, r: u32) {
        let edge = Edge {
            end: [l, r],
            prev: [NIL; 2],
            next: [NIL; 2],
        };
        let e = match self.vacant_edges.pop() {
            Some(e) => {
                self.edges[e as usize] = edge;
                e
            }
            None => {
                self.edges.push(edge);
                (self.edges.len() - 1) as u32
            }
        };
        for side in [LEFT, RIGHT] {
            let node = &mut self.nodes_mut(side)[edge.end[side] as usize];
            let tail = std::mem::replace(&mut node.tail, e);
            if tail == NIL {
                node.head = e;
            } else {
                self.edges[tail as usize].next[side] = e;
            }
            self.edges[e as usize].prev[side] = tail;
        }
    }

    fn unlink(&mut self, e: u32, side: usize) {
        let Edge { end, prev, next } = self.edges[e as usize];
        let (prev, next) = (prev[side], next[side]);
        if prev != NIL {
            self.edges[prev as usize].next[side] = next;
        }
        if next != NIL {
            self.edges[next as usize].prev[side] = prev;
        }
        let node = &mut self.nodes_mut(side)[end[side] as usize];
        if prev == NIL {
            node.head = next;
        }
        if next == NIL {
            node.tail = prev;
        }
    }

    fn drop_edges_of(&mut self, side: usize, v: u32) {
        let mut e = self.nodes_mut(side)[v as usize].head;
        while e != NIL {
            let next = self.edges[e as usize].next[side];
            self.unlink(e, 1 - side);
            self.vacant_edges.push(e);
            e = next;
        }
        self.nodes_mut(side)[v as usize] = ISOLATED;
    }

    fn augment(&mut self, root: u32) -> bool {
        let mut e = self.lefts.nodes[root as usize].head;
        while e != NIL {
            let r = self.edges[e as usize].end[RIGHT];
            if self.rights.nodes[r as usize].mate == NIL {
                self.parent[r as usize] = root;
                self.flip(root, r);
                return true;
            }
            e = self.edges[e as usize].next[LEFT];
        }
        match self.search(root, NIL) {
            Some(end) => {
                self.flip(root, end);
                true
            }
            None => false,
        }
    }

    fn search(&mut self, root: u32, goal: u32) -> Option<u32> {
        let epoch = self.next_epoch();
        self.queue.clear();
        self.seen_left[root as usize] = epoch;
        self.queue.push_back(root);
        while let Some(cur) = self.queue.pop_front() {
            let mut e = self.lefts.nodes[cur as usize].head;
            while e != NIL {
                let r = self.edges[e as usize].end[RIGHT];
                e = self.edges[e as usize].next[LEFT];
                if self.seen_right[r as usize] == epoch {
                    continue;
                }
                self.seen_right[r as usize] = epoch;
                self.parent[r as usize] = cur;
                let mate = self.rights.nodes[r as usize].mate;
                if mate == goal {
                    return Some(r);
                }
                if mate != NIL && self.seen_left[mate as usize] != epoch {
                    self.seen_left[mate as usize] = epoch;
                    self.queue.push_back(mate);
                }
            }
        }
        None
    }

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
