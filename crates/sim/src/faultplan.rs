//! Seeded disk-fault schedules for the durability harness (DESIGN.md §14).
//!
//! The sibling of [`crate::openloop`]: where open-loop schedules stage
//! *load* faults, this module stages *storage* faults as pure,
//! deterministic data. A seed fully determines every plan, so a failing
//! crash point or error sweep is a reproducible test case — rerun with
//! the same seed and the same boundary and the same torn prefix comes
//! back. The bench harness (`crowdfill-bench`) executes the plans against
//! the real persistence stack via [`crowdfill_docstore::FaultyDisk`].
//!
//! Two families:
//!
//! * [`crash_matrix`](FaultPlanner::crash_matrix) — one plan per syscall
//!   boundary, each aborting the child process exactly there (the
//!   crash-point matrix: recovery must hold at *every* boundary);
//! * [`error_sweep`](FaultPlanner::error_sweep) — seeded EIO-on-write,
//!   EIO-on-sync, and ENOSPC plans, for the graceful-degradation paths
//!   (a fault is reported or survived, never silently corrupting).

use crowdfill_docstore::FaultPlan;
use crowdfill_obs::splitmix64;

/// Deterministic generator of [`FaultPlan`] schedules.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanner {
    seed: u64,
}

impl FaultPlanner {
    pub fn new(seed: u64) -> FaultPlanner {
        FaultPlanner { seed }
    }

    /// The crash-point matrix: plans that abort the process at boundaries
    /// `1..=boundaries`, one each, with a per-boundary torn-prefix seed
    /// derived from the planner seed. Exhaustive by construction — a
    /// workload that crosses N boundaries is covered by
    /// `crash_matrix(N)`.
    pub fn crash_matrix(&self, boundaries: u64) -> Vec<FaultPlan> {
        (1..=boundaries).map(|b| self.crash_at(b)).collect()
    }

    /// The single matrix entry for boundary `b`.
    pub fn crash_at(&self, b: u64) -> FaultPlan {
        FaultPlan {
            seed: splitmix64(self.seed ^ b),
            crash_at: Some(b),
            ..FaultPlan::default()
        }
    }

    /// A seeded sweep of non-fatal fault plans over a workload known to
    /// cross `boundaries` syscall boundaries and write about
    /// `byte_budget` payload bytes: `n` EIO-on-write plans, `n`
    /// EIO-on-sync plans, and `n` ENOSPC plans with budgets spread below
    /// `byte_budget`.
    pub fn error_sweep(&self, n: u64, boundaries: u64, byte_budget: u64) -> Vec<FaultPlan> {
        let mut plans = Vec::with_capacity(3 * n as usize);
        let pick = |k: u64, span: u64| splitmix64(self.seed.wrapping_add(k)) % span.max(1) + 1;
        for k in 0..n {
            plans.push(FaultPlan {
                seed: splitmix64(self.seed ^ (k + 1)),
                fail_write_at: Some(pick(k, boundaries)),
                ..FaultPlan::default()
            });
        }
        for k in 0..n {
            plans.push(FaultPlan {
                seed: splitmix64(self.seed ^ (k + 101)),
                fail_sync_at: Some(pick(k + 101, boundaries)),
                ..FaultPlan::default()
            });
        }
        for k in 0..n {
            plans.push(FaultPlan {
                seed: splitmix64(self.seed ^ (k + 201)),
                enospc_after_bytes: Some(pick(k + 201, byte_budget)),
                ..FaultPlan::default()
            });
        }
        plans
    }
}

/// The harness seed set: `defaults`, extended via the
/// `CROWDFILL_CRASH_SEEDS` environment variable (comma-separated u64s,
/// mirroring `CROWDFILL_FAULT_SEEDS` in the connection-fault tests) so a
/// found failure can be pinned without editing the test.
pub fn crash_seeds(defaults: &[u64]) -> Vec<u64> {
    let mut seeds = defaults.to_vec();
    if let Ok(extra) = std::env::var("CROWDFILL_CRASH_SEEDS") {
        seeds.extend(
            extra
                .split(',')
                .filter_map(|t| t.trim().parse::<u64>().ok()),
        );
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_boundary_exactly_once() {
        let plans = FaultPlanner::new(7).crash_matrix(20);
        assert_eq!(plans.len(), 20);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.crash_at, Some(i as u64 + 1));
            assert!(p.fail_write_at.is_none());
            assert!(p.fail_sync_at.is_none());
            assert!(p.enospc_after_bytes.is_none());
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlanner::new(42).crash_matrix(8);
        let b = FaultPlanner::new(42).crash_matrix(8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.crash_at, y.crash_at);
        }
        let c = FaultPlanner::new(43).crash_matrix(8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn error_sweep_schedules_in_range() {
        let plans = FaultPlanner::new(9).error_sweep(4, 30, 1 << 16);
        assert_eq!(plans.len(), 12);
        for p in &plans {
            if let Some(b) = p.fail_write_at.or(p.fail_sync_at) {
                assert!((1..=30).contains(&b), "{p:?}");
            }
            if let Some(budget) = p.enospc_after_bytes {
                assert!((1..=(1 << 16)).contains(&budget), "{p:?}");
            }
            assert!(p.crash_at.is_none(), "sweep plans never abort");
        }
    }
}
