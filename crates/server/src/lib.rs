//! # crowdfill-server
//!
//! The CrowdFill system around the formal model (paper §3): the back-end
//! server with its vote policy, Central Client, trace, and estimator; the
//! front-end server persisting task specifications and results; a simulated
//! crowdsourcing marketplace; the programmatic worker client; and the
//! framed-TCP deployment.
//!
//! * [`Backend`] — master table, sessions, §3.4 vote policy, broadcast,
//!   PRI maintenance, estimation, settlement;
//! * [`WorkerClient`] — the data-entry client (§3.4): local replica,
//!   fill/upvote/downvote, auto-upvote on completion, shuffled presentation;
//! * [`Frontend`] — task CRUD + lifecycle + result retrieval over the
//!   document store (§3.2);
//! * [`Marketplace`] — simulated Mechanical Turk (sandbox) integration
//!   (§3.1);
//! * [`TcpService`] / [`RemoteWorker`] — the networked deployment (§3.3):
//!   service in [`tcp_service`] over [`reactor`] (its rules are a sans-IO
//!   core, `shard.rs`), client in [`client`].

#![forbid(unsafe_code)]

pub mod backend;
pub mod batch;
pub mod client;
pub mod client_core;
pub mod config;
pub mod frontend;
pub mod health;
pub mod marketplace;
pub mod overload;
pub mod persist;
pub mod progress;
pub mod reactor;
pub mod recommend;
pub(crate) mod shard;
pub mod tcp_service;
pub mod wire;
pub mod worker_client;

pub use backend::{Backend, BatchJob, BatchOp, BatchOutcome, SubmitError, SubmitReport};
pub use batch::{BatchOptions, BatchPipeline, Settled, Submission};
pub use client::{Dialer, ReconnectPolicy, RemoteAck, RemoteError, RemoteWorker};
pub use client_core::ClientCore;
pub use config::TaskConfig;
pub use frontend::{Frontend, FrontendError, TaskStatus};
pub use health::{
    collect, CollectionHealth, ColumnHealth, DurabilityHealth, HealthReport, SloHealth,
    WorkerHealth,
};
pub use marketplace::{
    Assignment, AssignmentId, Hit, HitId, MarketError, Marketplace, RepriceRecommendation,
};
pub use overload::{OverloadOptions, Priority};
pub use persist::{
    open_or_recover, open_or_recover_on, BackendState, DurabilityOptions, JournalEntry,
    JournalFrame, JournalRecord, SessionState,
};
pub use progress::{
    ColumnProgress, ProgressReport, ProgressTracker, StopAction, StopDecision, StoppingPolicy,
    DEFAULT_TARGET,
};
pub use recommend::{Recommendation, RecommendationKind};
pub use tcp_service::{
    Collection, DurabilitySweepOptions, ServiceOptions, TcpService, DEFAULT_COLLECTION,
};
pub use worker_client::{Outgoing, WorkerClient};
