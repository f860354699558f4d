//! A simulated crowdsourcing marketplace (paper §3.1–3.2).
//!
//! The paper integrates with Amazon Mechanical Turk — specifically its
//! *developer sandbox*, a non-production environment — to attract workers
//! and pay bonuses. This module simulates the same lifecycle against the
//! same server code paths: the front end creates externally-hosted tasks
//! ("HITs"), workers accept assignments and are redirected to the back-end
//! server, and once collection finishes each worker receives a bonus
//! payment. Any marketplace supporting external questions and bonus
//! payments could be slotted in behind this interface.

use std::collections::HashMap;
use std::fmt;

/// Identifies a marketplace task (a HIT, in Mechanical Turk terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HitId(pub u64);

/// Identifies an accepted assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AssignmentId(pub u64);

/// Marketplace errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarketError {
    UnknownHit(HitId),
    UnknownAssignment(AssignmentId),
    /// The HIT's assignment quota is exhausted.
    HitFull(HitId),
    /// The HIT was expired/cancelled.
    HitClosed(HitId),
    /// Bonus on an assignment that was never submitted.
    NotSubmitted(AssignmentId),
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::UnknownHit(h) => write!(f, "unknown HIT {h:?}"),
            MarketError::UnknownAssignment(a) => write!(f, "unknown assignment {a:?}"),
            MarketError::HitFull(h) => write!(f, "HIT {h:?} has no assignments left"),
            MarketError::HitClosed(h) => write!(f, "HIT {h:?} is closed"),
            MarketError::NotSubmitted(a) => write!(f, "assignment {a:?} not submitted"),
        }
    }
}

impl std::error::Error for MarketError {}

/// A published task.
#[derive(Debug, Clone)]
pub struct Hit {
    pub id: HitId,
    pub title: String,
    /// The external URL workers are redirected to — here, the back-end task id.
    pub external_task: String,
    /// Base reward for completing the assignment.
    pub base_reward: f64,
    pub max_assignments: u32,
    pub open: bool,
    accepted: u32,
}

/// One worker's accepted assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    pub id: AssignmentId,
    pub hit: HitId,
    /// The marketplace's external worker identity.
    pub external_worker: String,
    pub submitted: bool,
    pub bonus_paid: f64,
}

/// A proposed reward change for one HIT, produced by the progress
/// layer's stopping policy (never auto-applied).
#[derive(Debug, Clone, PartialEq)]
pub struct RepriceRecommendation {
    pub hit: HitId,
    pub current_reward: f64,
    pub recommended_reward: f64,
    /// The stopping-policy trigger that motivated the change.
    pub reason: String,
}

/// The simulated marketplace.
#[derive(Debug, Default)]
pub struct Marketplace {
    hits: HashMap<HitId, Hit>,
    assignments: HashMap<AssignmentId, Assignment>,
    next_hit: u64,
    next_assignment: u64,
}

impl Marketplace {
    pub fn new() -> Marketplace {
        Marketplace::default()
    }

    /// Publishes a HIT pointing at an externally-hosted task.
    pub fn create_hit(
        &mut self,
        title: impl Into<String>,
        external_task: impl Into<String>,
        base_reward: f64,
        max_assignments: u32,
    ) -> HitId {
        let id = HitId(self.next_hit);
        self.next_hit += 1;
        self.hits.insert(
            id,
            Hit {
                id,
                title: title.into(),
                external_task: external_task.into(),
                base_reward,
                max_assignments,
                open: true,
                accepted: 0,
            },
        );
        id
    }

    /// A worker accepts the HIT; returns the assignment and the external
    /// task to redirect to (paper §3.1 step 3).
    pub fn accept(
        &mut self,
        hit: HitId,
        external_worker: impl Into<String>,
    ) -> Result<(AssignmentId, String), MarketError> {
        let h = self
            .hits
            .get_mut(&hit)
            .ok_or(MarketError::UnknownHit(hit))?;
        if !h.open {
            return Err(MarketError::HitClosed(hit));
        }
        if h.accepted >= h.max_assignments {
            return Err(MarketError::HitFull(hit));
        }
        h.accepted += 1;
        let id = AssignmentId(self.next_assignment);
        self.next_assignment += 1;
        self.assignments.insert(
            id,
            Assignment {
                id,
                hit,
                external_worker: external_worker.into(),
                submitted: false,
                bonus_paid: 0.0,
            },
        );
        Ok((id, h.external_task.clone()))
    }

    /// The worker submits the assignment (finished working).
    pub fn submit(&mut self, assignment: AssignmentId) -> Result<(), MarketError> {
        let a = self
            .assignments
            .get_mut(&assignment)
            .ok_or(MarketError::UnknownAssignment(assignment))?;
        a.submitted = true;
        Ok(())
    }

    /// Pays a bonus on a submitted assignment (paper §3.1 step 5; CrowdFill
    /// compensates through bonuses so amounts can reflect contribution).
    pub fn pay_bonus(&mut self, assignment: AssignmentId, amount: f64) -> Result<(), MarketError> {
        let a = self
            .assignments
            .get_mut(&assignment)
            .ok_or(MarketError::UnknownAssignment(assignment))?;
        if !a.submitted {
            return Err(MarketError::NotSubmitted(assignment));
        }
        a.bonus_paid += amount;
        Ok(())
    }

    /// Stops accepting new assignments.
    pub fn close_hit(&mut self, hit: HitId) -> Result<(), MarketError> {
        self.hits
            .get_mut(&hit)
            .ok_or(MarketError::UnknownHit(hit))?
            .open = false;
        Ok(())
    }

    pub fn hit(&self, id: HitId) -> Option<&Hit> {
        self.hits.get(&id)
    }

    pub fn assignment(&self, id: AssignmentId) -> Option<&Assignment> {
        self.assignments.get(&id)
    }

    /// Recommends a new reward for every open HIT by scaling the
    /// current one by `factor` (clamped positive). This is the
    /// stopping-policy's `Reprice` outlet (DESIGN.md §15): the progress
    /// tick computes the factor from the marginal cost of novelty and
    /// records recommendations without touching live prices —
    /// [`apply_reprice`](Self::apply_reprice) commits one explicitly.
    pub fn recommend_reprice(&self, factor: f64, reason: &str) -> Vec<RepriceRecommendation> {
        let factor = factor.max(f64::MIN_POSITIVE);
        let mut out: Vec<RepriceRecommendation> = self
            .hits
            .values()
            .filter(|h| h.open)
            .map(|h| RepriceRecommendation {
                hit: h.id,
                current_reward: h.base_reward,
                recommended_reward: h.base_reward * factor,
                reason: reason.to_string(),
            })
            .collect();
        out.sort_unstable_by_key(|r| r.hit);
        out
    }

    /// Commits a new base reward on an open HIT (new assignments accept
    /// at the new price; already-accepted ones keep theirs, matching
    /// how Mechanical Turk HIT edits behave).
    pub fn apply_reprice(&mut self, hit: HitId, new_reward: f64) -> Result<(), MarketError> {
        let h = self
            .hits
            .get_mut(&hit)
            .ok_or(MarketError::UnknownHit(hit))?;
        if !h.open {
            return Err(MarketError::HitClosed(hit));
        }
        h.base_reward = new_reward;
        Ok(())
    }

    /// Total paid out (base rewards of submitted assignments + bonuses).
    pub fn total_paid(&self) -> f64 {
        self.assignments
            .values()
            .filter(|a| a.submitted)
            .map(|a| {
                let base = self.hits.get(&a.hit).map(|h| h.base_reward).unwrap_or(0.0);
                base + a.bonus_paid
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_lifecycle() {
        let mut m = Marketplace::new();
        let hit = m.create_hit("Fill a soccer table", "task-1", 0.05, 2);
        let (a1, redirect) = m.accept(hit, "AMZN-W1").unwrap();
        assert_eq!(redirect, "task-1");
        let (_a2, _) = m.accept(hit, "AMZN-W2").unwrap();
        assert_eq!(m.accept(hit, "AMZN-W3"), Err(MarketError::HitFull(hit)));

        m.submit(a1).unwrap();
        m.pay_bonus(a1, 1.23).unwrap();
        m.pay_bonus(a1, 0.10).unwrap();
        assert_eq!(m.assignment(a1).unwrap().bonus_paid, 1.33);
        assert!((m.total_paid() - (0.05 + 1.33)).abs() < 1e-9);
    }

    #[test]
    fn bonus_requires_submission() {
        let mut m = Marketplace::new();
        let hit = m.create_hit("t", "task-1", 0.0, 1);
        let (a, _) = m.accept(hit, "W").unwrap();
        assert_eq!(m.pay_bonus(a, 1.0), Err(MarketError::NotSubmitted(a)));
    }

    #[test]
    fn closed_hits_reject_accepts() {
        let mut m = Marketplace::new();
        let hit = m.create_hit("t", "task-1", 0.0, 10);
        m.close_hit(hit).unwrap();
        assert_eq!(m.accept(hit, "W"), Err(MarketError::HitClosed(hit)));
    }

    #[test]
    fn reprice_recommends_open_hits_and_applies_explicitly() {
        let mut m = Marketplace::new();
        let open = m.create_hit("open", "task-1", 0.08, 10);
        let closed = m.create_hit("closed", "task-2", 0.10, 10);
        m.close_hit(closed).unwrap();
        let recs = m.recommend_reprice(0.5, "marginal-cost");
        // Only the open HIT is recommended, at half its reward.
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].hit, open);
        assert!((recs[0].recommended_reward - 0.04).abs() < 1e-9);
        assert_eq!(recs[0].reason, "marginal-cost");
        // Recommendations don't change prices until applied.
        assert_eq!(m.hit(open).unwrap().base_reward, 0.08);
        m.apply_reprice(open, recs[0].recommended_reward).unwrap();
        assert!((m.hit(open).unwrap().base_reward - 0.04).abs() < 1e-9);
        assert_eq!(
            m.apply_reprice(closed, 0.05),
            Err(MarketError::HitClosed(closed))
        );
    }

    #[test]
    fn unknown_ids() {
        let mut m = Marketplace::new();
        assert_eq!(
            m.accept(HitId(9), "W"),
            Err(MarketError::UnknownHit(HitId(9)))
        );
        assert_eq!(
            m.submit(AssignmentId(9)),
            Err(MarketError::UnknownAssignment(AssignmentId(9)))
        );
        assert!(m.hit(HitId(9)).is_none());
    }
}
