//! # CrowdFill
//!
//! A full-system Rust reproduction of **CrowdFill: Collecting Structured
//! Data from the Crowd** (Hyunjung Park and Jennifer Widom, SIGMOD 2014).
//!
//! CrowdFill collects structured data by showing one evolving,
//! partially-filled table to every participating worker. Workers fill empty
//! cells and up/downvote rows; a synchronization scheme built on a careful
//! model of primitive operations lets them collaborate in real time without
//! locking; a Central Client keeps the table in a state from which the
//! user's constraints can still be satisfied; and a contribution-based
//! compensation scheme distributes a fixed budget over the actions that
//! actually made it into the final table.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Paper section | Contents |
//! |---|---|---|
//! | [`model`] | §2 | schemas, rows, candidate/final tables, operations, constraints |
//! | [`sync`] | §2.4 | replicas, message processing, convergence machinery |
//! | [`matching`] | §4.2 | incremental bipartite matching + Hopcroft–Karp |
//! | [`constraints`] | §4 | probable rows, PRI maintenance, the Central Client |
//! | [`pay`] | §5 | traces, contribution analysis, allocation schemes, estimation |
//! | [`docstore`] | §3.2 | from-scratch document DB (MongoDB substitute) |
//! | [`net`] | §3.3 | framed TCP / in-process transports (Socket.IO substitute) |
//! | [`server`] | §3 | back-end, front-end, worker client, TCP service |
//! | [`sim`] | §3.1, §6, §8 | crowd simulator, datasets, experiment runner, marketplace, recommendation |
//! | [`obs`] | — | structured logging, metric instruments, span timing |
//!
//! ## Quickstart
//!
//! ```
//! use crowdfill::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Describe the table (paper §2.1's running example).
//! let schema = Arc::new(Schema::new(
//!     "SoccerPlayer",
//!     vec![
//!         Column::new("name", DataType::Text),
//!         Column::new("nationality", DataType::Text),
//!         Column::new("position", DataType::Text),
//!     ],
//!     &["name", "nationality"],
//! ).unwrap());
//!
//! // 2. Launch a task: collect 1 row, majority-of-three voting, $5 budget.
//! let config = TaskConfig::new(
//!     Arc::clone(&schema),
//!     Arc::new(QuorumMajority::of_three()),
//!     Template::cardinality(1),
//!     5.0,
//! );
//! let mut backend = Backend::new(config);
//!
//! // 3. Workers connect and collaborate.
//! let (w1, c1, history) = backend.connect(Millis(0));
//! let mut alice = WorkerClient::new(w1, c1, Arc::clone(&schema), &history);
//! let (w2, c2, history) = backend.connect(Millis(0));
//! let mut bob = WorkerClient::new(w2, c2, Arc::clone(&schema), &history);
//!
//! let mut row = alice.presented_rows()[0];
//! for (col, v) in [(0u16, "Lionel Messi"), (1, "Argentina"), (2, "FW")] {
//!     let out = alice.fill(row, ColumnId(col), Value::text(v)).unwrap();
//!     row = out[0].msg.creates_row().unwrap();
//!     for o in out {
//!         backend.submit(w1, o.msg, Millis(1000), o.auto_upvote).unwrap();
//!     }
//! }
//! for msg in backend.poll(w2) {
//!     bob.absorb(&msg);
//! }
//! let done = bob.presented_rows().into_iter()
//!     .find(|r| bob.replica().table().get(*r).unwrap().value.len() == 3)
//!     .unwrap();
//! let out = bob.upvote(done).unwrap();
//! let report = backend.submit(w2, out.msg, Millis(2000), false).unwrap();
//! assert!(report.fulfilled);
//!
//! // 4. Settle: contribution analysis + budget allocation.
//! let (final_table, _contributions, payout) = backend.settle();
//! assert_eq!(final_table.len(), 1);
//! assert!(payout.worker_total(w1) > payout.worker_total(w2));
//! ```

#![forbid(unsafe_code)]

pub use crowdfill_constraints as constraints;
pub use crowdfill_docstore as docstore;
pub use crowdfill_matching as matching;
pub use crowdfill_model as model;
pub use crowdfill_net as net;
pub use crowdfill_obs as obs;
pub use crowdfill_pay as pay;
pub use crowdfill_server as server;
pub use crowdfill_sim as sim;
pub use crowdfill_sync as sync;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use crowdfill_constraints::{classify_rows, probable_rows, PriMaintainer, ProbableStatus};
    pub use crowdfill_model::{
        derive_final_table, CandidateTable, ClientId, Column, ColumnId, DataType, Date, Difference,
        Entry, FinalTable, Message, Operation, Predicate, QuorumMajority, RowId, RowValue, Schema,
        Scoring, ScoringRef, Template, TemplateRow, Value,
    };
    pub use crowdfill_pay::{
        allocate, earning_curve, earning_instability, mape, Estimator, Ledger, Millis, Payout,
        Scheme, SplitConfig, Trace, WorkerId,
    };
    pub use crowdfill_server::{
        Backend, Frontend, RemoteWorker, TaskConfig, TcpService, WorkerClient,
    };
    pub use crowdfill_sim::{
        paper_setup, paper_worker_profiles, run as run_simulation, soccer_universe, GroundTruth,
        Marketplace, SimConfig, WorkerProfile,
    };
    pub use crowdfill_sync::Replica;
}
