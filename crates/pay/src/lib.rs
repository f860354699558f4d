//! # crowdfill-pay
//!
//! CrowdFill's contribution-based compensation scheme (paper §5).
//!
//! Rather than paying a fixed price per action, CrowdFill distributes a
//! user-specified total budget `B` over the actions that *contributed* to
//! the final table, directly or indirectly. The pipeline:
//!
//! 1. [`trace`] — the server's timestamped, worker-attributed message log;
//! 2. [`ledger`] — the one fold of that log settlement reads: per live row
//!    the fills behind its cells, the first fill of each `(column, value)`,
//!    the live votes and the workers' clocks, carried in the checkpoint;
//! 3. [`contrib`] — contribution analysis (§5.2.1): direct/indirect replace
//!    contributions via row lineage, contributing upvotes and downvotes;
//! 4. [`allocate`](mod@allocate) — the three budget-allocation schemes (§5.2.2: uniform,
//!    column-weighted, dual-weighted) and the direct/indirect splitting
//!    factor (§5.2.3);
//! 5. [`estimate`] — the online estimator (§5.3) that prices each action as
//!    it happens, evaluated for accuracy in the paper's Figure 5 and our E3/E4
//!    experiments;
//! 6. [`stats`] — medians, least squares, the dual-weight multiplier, MAPE.

#![forbid(unsafe_code)]

pub mod allocate;
pub mod contrib;
pub mod estimate;
pub mod ledger;
pub mod stats;
pub mod trace;

pub use allocate::{
    allocate, earning_curve, earning_instability, Credit, Payout, Scheme, SplitConfig, Weights,
};
pub use contrib::{CellContribution, CellRef, Contributions};
pub use estimate::{ActionEstimate, Estimator, Visits};
pub use ledger::{FirstFill, Ledger, Unit, Vote};
pub use stats::mape;
pub use trace::{Millis, Trace, TraceEntry, WorkerId};
