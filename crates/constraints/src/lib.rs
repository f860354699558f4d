//! # crowdfill-constraints
//!
//! Constraint maintenance during data collection (paper §4).
//!
//! CrowdFill guides worker actions toward a final table that satisfies the
//! user's constraints without ever restricting what workers may fill in.
//! The mechanism is the **Probable Rows Invariant** (PRI): every template
//! row corresponds to a unique *probable* candidate row subsuming it. The
//! special **Central Client** re-establishes the invariant after every
//! worker action — repairing an incrementally-maintained bipartite matching
//! and inserting template-valued rows only when augmentation fails, which
//! minimizes wasted work.
//!
//! * [`probable`] — the three-way probable-row classification (§4.1), kept
//!   live per key group by [`Classifier`];
//! * [`maintainer`] — the Central Client / [`PriMaintainer`] (§4.2),
//!   including the matching shuffle and template-drop degenerate cases, and
//!   the fulfillment check used as the data-collection stopping condition.

#![forbid(unsafe_code)]

pub mod maintainer;
pub mod probable;

pub use maintainer::{BuildSplit, PriCounts, PriMaintainer, TemplateIdx};
pub use probable::{
    classify, classify_rows, probable_rows, Classification, Classifier, ProbableStatus,
    ProbableView,
};
