//! Estimator-accuracy harness for the `progress` bench suite (DESIGN.md
//! §15): replays pinned-seed species-arrival schedules from the simulator
//! through the streaming Chao92 estimator and scores `est_total` against
//! the schedule's realized ground truth at fixed true-completeness
//! checkpoints. Because both the schedules and the estimator are
//! deterministic, the resulting numbers are pure functions of the seeds —
//! quick and full bench runs emit identical values, so the CI compare can
//! gate them exactly like a timing median.

use crowdfill_obs::progress::SpeciesEstimator;
use crowdfill_server::{ProgressReport, StoppingPolicy};
use crowdfill_sim::SpeciesSchedule;
use std::collections::HashSet;

/// True-completeness checkpoints (percent of realized richness seen) at
/// which the estimate is scored. The §15 acceptance bar applies from the
/// 50% checkpoint on.
pub const CHECKPOINTS: [u32; 4] = [25, 50, 75, 90];

/// The estimate, frozen at the moment the stream first crossed a
/// true-completeness checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointScore {
    /// The checkpoint, as percent of realized richness.
    pub pct: u32,
    /// Stream position (total observations consumed) when crossed.
    pub observations: u64,
    /// Distinct species actually seen when crossed.
    pub observed: u64,
    /// The estimator's `est_total` at that moment.
    pub est_total: f64,
    /// Realized richness of the full schedule.
    pub truth: u64,
    /// Absolute percentage error of `est_total` vs `truth`.
    pub ape_pct: f64,
}

/// Feeds the schedule's arrivals through a fresh estimator in time order
/// and records the estimate each time true completeness first reaches a
/// checkpoint. Checkpoints must be ascending; every one is crossed by the
/// end of the stream (truth is *realized* richness, so 100% is reached).
pub fn score_schedule(sched: &SpeciesSchedule, checkpoints: &[u32]) -> Vec<CheckpointScore> {
    let truth = sched.true_richness();
    let mut est = SpeciesEstimator::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut scores = Vec::with_capacity(checkpoints.len());
    let mut next = 0usize;
    for a in &sched.arrivals {
        est.observe(a.species, a.worker as u64);
        seen.insert(a.species);
        while next < checkpoints.len()
            && (seen.len() as u64) * 100 >= u64::from(checkpoints[next]) * truth
        {
            let e = est.estimate();
            scores.push(CheckpointScore {
                pct: checkpoints[next],
                observations: est.observations(),
                observed: seen.len() as u64,
                est_total: e.est_total,
                truth,
                ape_pct: (e.est_total - truth as f64).abs() * 100.0 / truth.max(1) as f64,
            });
            next += 1;
        }
    }
    scores
}

/// Outcome of replaying a schedule under the adaptive stopping rule: stop
/// at the first arrival where [`StoppingPolicy::close_at`] fires — the
/// *conservative* completeness (`observed / ci_hi`) reaches `target`.
#[derive(Debug, Clone)]
pub struct AutostopReport {
    /// Arrivals consumed before the rule fired (all of them if it never
    /// did).
    pub consumed: usize,
    /// Total arrivals in the schedule.
    pub total: usize,
    /// Whether the rule fired before the stream ran dry.
    pub stopped: bool,
    /// Distinct species seen at stop, over realized richness: what the
    /// crowd *actually* delivered by the time we stopped paying.
    pub realized_completeness: f64,
    /// Percent of the schedule's arrivals (≈ cost, at uniform per-fill
    /// pricing) the stop avoided.
    pub saved_pct: f64,
}

/// Runs the product's §15 stopping rule over a schedule: after each
/// arrival, [`StoppingPolicy::close_at`] with `min_observations` evaluates
/// a report built from the estimator, each arrival priced at 1 (the
/// uniform per-fill pricing `saved_pct` assumes).
pub fn autostop(sched: &SpeciesSchedule, target: f64, min_observations: u64) -> AutostopReport {
    let truth = sched.true_richness();
    let policy = StoppingPolicy {
        min_observations,
        ..StoppingPolicy::close_at(target)
    };
    let mut est = SpeciesEstimator::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut consumed = sched.arrivals.len();
    let mut stopped = false;
    for (i, a) in sched.arrivals.iter().enumerate() {
        est.observe(a.species, a.worker as u64);
        seen.insert(a.species);
        let report = ProgressReport {
            target,
            overall: est.estimate(),
            columns: Vec::new(),
            spent: est.observations() as f64,
            budget: sched.arrivals.len() as f64,
            cost_per_fill: Some(1.0),
            cost_to_target: None,
            eta_secs_to_target: None,
            fills_per_sec: 0.0,
        };
        if policy.evaluate(&report).is_some() {
            consumed = i + 1;
            stopped = true;
            break;
        }
    }
    let total = sched.arrivals.len();
    AutostopReport {
        consumed,
        total,
        stopped,
        realized_completeness: seen.len() as f64 / truth.max(1) as f64,
        saved_pct: (total - consumed) as f64 * 100.0 / total.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_sim::{species_streakers, species_zipf};

    #[test]
    fn scores_are_deterministic_and_cover_every_checkpoint() {
        let sched = species_zipf(7, 5, 50, 1200, 60_000, 0.8);
        let a = score_schedule(&sched, &CHECKPOINTS);
        let b = score_schedule(&sched, &CHECKPOINTS);
        assert_eq!(a.len(), CHECKPOINTS.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pct, y.pct);
            assert_eq!(x.est_total.to_bits(), y.est_total.to_bits());
            assert_eq!(x.ape_pct.to_bits(), y.ape_pct.to_bits());
        }
        // Checkpoints are crossed in stream order.
        for w in a.windows(2) {
            assert!(w[0].observations <= w[1].observations);
            assert!(w[0].observed <= w[1].observed);
        }
    }

    #[test]
    fn saturated_uniform_pool_stops_early_with_high_realized_completeness() {
        // 30x oversampled uniform pool: duplicates crush f1, the CI
        // tightens, and the conservative rule fires well before the
        // stream runs dry.
        let sched = species_zipf(11, 6, 40, 1200, 60_000, 0.0);
        let r = autostop(&sched, 0.9, 30);
        assert!(r.stopped, "rule never fired on a saturated pool");
        assert!(
            r.realized_completeness >= 0.85,
            "stopped too greedily: realized {:.2}",
            r.realized_completeness
        );
        assert!(r.saved_pct > 0.0);
    }

    #[test]
    fn streaker_stream_stops_later_than_the_saturated_pool() {
        // A crowd that keeps minting brand-new species holds the CI open;
        // the conservative rule must consume a larger share of the stream
        // than it does on the saturated uniform pool.
        let uniform = autostop(&species_zipf(11, 6, 40, 1200, 60_000, 0.0), 0.9, 30);
        let streak = autostop(
            &species_streakers(11, 6, 40, 1200, 60_000, 3, 0.25),
            0.9,
            30,
        );
        let share = |r: &AutostopReport| r.consumed as f64 / r.total as f64;
        assert!(
            share(&streak) > share(&uniform),
            "streakers {:.2} vs uniform {:.2}",
            share(&streak),
            share(&uniform)
        );
    }
}
