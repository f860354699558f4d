//! Upvote and downvote histories (paper §2.4).
//!
//! To maintain consistency across the server and all clients, each replica
//! keeps `UH` and `DH`: maps from *value-vectors* to the number of upvotes
//! and downvotes cast for that exact vector. They are what lets a `replace`
//! message initialize the new row's vote counts correctly even when votes
//! were processed before the row existed locally — the key to order-
//! insensitive convergence.

use crowdfill_model::RowValue;
use std::collections::HashMap;

/// One vote history (`UH` or `DH`): value-vector → vote count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VoteHistory {
    votes: HashMap<RowValue, u32>,
}

impl VoteHistory {
    pub fn new() -> VoteHistory {
        VoteHistory::default()
    }

    /// The history of `(vector, count)` pairs, sized for all of them up
    /// front. A zero count is the absent entry, as in [`set`](Self::set).
    pub fn from_counts(counts: impl ExactSizeIterator<Item = (RowValue, u32)>) -> VoteHistory {
        let mut votes = HashMap::with_capacity(counts.len());
        votes.extend(counts.filter(|(_, n)| *n > 0));
        VoteHistory { votes }
    }

    /// `H[v]`, with absent vectors reading as zero (paper's convention).
    pub fn get(&self, v: &RowValue) -> u32 {
        self.votes.get(v).copied().unwrap_or(0)
    }

    /// Increments `H[v]`.
    pub fn increment(&mut self, v: &RowValue) {
        *self.votes.entry(v.clone()).or_insert(0) += 1;
    }

    /// Decrements `H[v]`, removing the entry at zero. Returns `false` (and
    /// does nothing) when no vote is recorded — the defensive path;
    /// policy-compliant executions always find one.
    pub fn decrement(&mut self, v: &RowValue) -> bool {
        match self.votes.get_mut(v) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                self.votes.remove(v);
                true
            }
            None => false,
        }
    }

    /// `Σ_{w ⊆ q} H[w]` — the total votes recorded for any subset of `q`.
    /// Used to initialize a freshly-constructed row's downvote count.
    pub fn sum_subsets_of(&self, q: &RowValue) -> u32 {
        self.votes
            .iter()
            .filter(|(w, _)| q.subsumes(w))
            .map(|(_, n)| *n)
            .sum()
    }

    /// Sets `H[v] = n` directly (snapshot restore). A zero count is the
    /// absent entry, matching `decrement`'s removal-at-zero behavior —
    /// restored histories stay structurally equal to organically-built ones.
    pub fn set(&mut self, v: RowValue, n: u32) {
        if n == 0 {
            self.votes.remove(&v);
        } else {
            self.votes.insert(v, n);
        }
    }

    /// Number of distinct vectors ever voted on.
    pub fn distinct_vectors(&self) -> usize {
        self.votes.len()
    }

    /// Iterates `(vector, count)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&RowValue, u32)> {
        self.votes.iter().map(|(v, n)| (v, *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_model::{ColumnId, Value};

    fn rv(pairs: &[(u16, i64)]) -> RowValue {
        RowValue::from_pairs(pairs.iter().map(|(c, v)| (ColumnId(*c), Value::int(*v))))
    }

    #[test]
    fn absent_reads_zero() {
        let h = VoteHistory::new();
        assert_eq!(h.get(&rv(&[(0, 1)])), 0);
        assert_eq!(h.distinct_vectors(), 0);
    }

    #[test]
    fn increment_accumulates() {
        let mut h = VoteHistory::new();
        let v = rv(&[(0, 1)]);
        h.increment(&v);
        h.increment(&v);
        assert_eq!(h.get(&v), 2);
        assert_eq!(h.distinct_vectors(), 1);
    }

    #[test]
    fn sum_subsets_counts_all_contained_vectors() {
        let mut h = VoteHistory::new();
        h.increment(&rv(&[(0, 1)])); // ⊆ q
        h.increment(&rv(&[(0, 1), (1, 2)])); // ⊆ q
        h.increment(&rv(&[(0, 9)])); // not ⊆ q (different value)
        h.increment(&rv(&[(2, 3)])); // not ⊆ q (different column)
        h.increment(&RowValue::empty()); // the empty vector ⊆ everything
        let q = rv(&[(0, 1), (1, 2)]);
        assert_eq!(h.sum_subsets_of(&q), 3);
        // The empty row only contains the empty vector.
        assert_eq!(h.sum_subsets_of(&RowValue::empty()), 1);
    }
}
