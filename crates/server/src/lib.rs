//! # crowdfill-server
//!
//! The CrowdFill system around the formal model (paper §3): the back-end
//! server with its vote policy, Central Client, trace, and estimator; the
//! front-end server persisting task specifications and results; the
//! programmatic worker client; and the framed-TCP deployment. What only a
//! simulation runs — the marketplace and §8's cell recommendation — is
//! `crowdfill-sim`'s.
//!
//! * [`Backend`] — master table, sessions, §3.4 vote policy, broadcast,
//!   PRI maintenance, estimation, settlement;
//! * [`WorkerClient`] — the data-entry client (§3.4): local replica,
//!   fill/upvote/downvote, auto-upvote on completion, shuffled presentation;
//! * [`Frontend`] — task CRUD + lifecycle + result retrieval over the
//!   document store (§3.2);
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
pub mod overload;
pub mod persist;
pub mod progress;
pub mod reactor;
pub(crate) mod shard;
pub mod tcp_service;
pub mod wire;
pub mod worker_client;

pub use backend::{
    Backend, BackendCounts, BatchJob, BatchOp, BatchOutcome, SubmitError, SubmitReport,
};
pub use batch::{BatchOptions, BatchPipeline, Settled, Submission};
pub use client::{Dialer, ReconnectPolicy, RemoteAck, RemoteError, RemoteWorker};
pub use client_core::{ClientCore, ClientCounts};
pub use config::TaskConfig;
pub use frontend::{Frontend, FrontendError, TaskStatus};
pub use health::{
    collect, CollectionHealth, ColumnHealth, DurabilityHealth, HealthReport, SloHealth,
    WorkerHealth,
};
pub use overload::OverloadOptions;
pub use persist::{
    open_or_recover, open_or_recover_on, BackendState, DurabilityOptions, JournalEntry,
    JournalFrame, JournalRecord, SessionState,
};
pub use progress::{
    ColumnProgress, ProgressReport, ProgressTracker, StopAction, StopDecision, StoppingPolicy,
    DEFAULT_TARGET,
};
pub use tcp_service::{
    exposition, Collection, DurabilitySweepOptions, ServiceMetrics, ServiceOptions, TcpService,
    DEFAULT_COLLECTION,
};
pub use worker_client::{Outgoing, WorkerClient};
