//! # crowdfill-sim
//!
//! The crowd simulator: the workspace's substitute for the paper's human
//! volunteer workers (§6). A discrete-event engine drives behavioral worker
//! models — each wrapping the *real* worker-client code — against the real
//! back-end server, so every experiment exercises the same synchronization,
//! constraint-maintenance, and compensation paths a live deployment does.
//!
//! * [`dataset`] — deterministic synthetic ground-truth universes (soccer
//!   players per the paper's setup, plus two extra domains);
//! * [`worker`] — behavioral profiles: speed, knowledge coverage, error
//!   rate, vote propensity, session timing;
//! * [`des`] — the event engine and [`RunReport`];
//! * [`experiment`] — canned setups mirroring the paper's §6 runs;
//! * [`recommend`] — §8's proposed cell recommendation, which the guided
//!   workers follow;
//! * [`marketplace`] — a simulated Mechanical Turk sandbox (§3.1): HITs,
//!   assignments, bonus payments;
//! * [`openloop`] — seeded open-loop plans for the load harnesses (burst,
//!   ramp, stalled-reader, thundering-herd, connection scale);
//! * [`faultplan`] — seeded disk-fault schedules (crash-point matrix,
//!   EIO/ENOSPC sweeps) for the durability harness (DESIGN.md §14).

#![forbid(unsafe_code)]

pub mod dataset;
pub mod des;
pub mod experiment;
pub mod faultplan;
pub mod marketplace;
pub mod openloop;
pub mod recommend;
pub mod worker;

pub use dataset::{cities_universe, movies_universe, soccer_schema, soccer_universe, GroundTruth};
pub use des::{run, RunReport, SimConfig};
pub use experiment::{paper_setup, paper_worker_profiles, uniform_setup};
pub use faultplan::{crash_seeds, FaultPlanner};
pub use marketplace::{
    Assignment, AssignmentId, Hit, HitId, MarketError, Marketplace, RepriceRecommendation,
};
pub use openloop::{
    conn_scale, species_streakers, species_zipf, Arrival, Plan, SessionPlan, SpeciesArrival,
    SpeciesSchedule,
};
pub use recommend::{recommend, Recommendation, RecommendationKind};
pub use worker::{PlannedAction, SimWorker, WorkerProfile};
