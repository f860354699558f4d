//! # crowdfill-sync
//!
//! CrowdFill's real-time synchronization layer (paper §2.4).
//!
//! Every participant — the back-end server, each worker client, and the
//! Central Client — holds a [`Replica`]: a copy of the candidate table plus
//! the upvote/downvote histories `UH`/`DH`. Operations performed locally
//! generate messages; messages received from the network are processed with
//! the exact semantics of the paper's specification. The design resolves
//! concurrent edits *without locking or transformation*: a `fill` replaces
//! its row under a fresh globally-unique id, so conflicting fills fork the
//! row instead of clobbering each other, and the vote histories make vote
//! application order-insensitive.
//!
//! The paper proves a convergence theorem: starting from identical replicas,
//! after all generated messages are delivered (reliably and in-order per
//! link, but arbitrarily interleaved across links), every replica holds an
//! identical candidate table and vote histories. `tests/convergence.rs`
//! checks exactly that over adversarial and randomized schedules, through a
//! simulated fabric (`tests/support/hub.rs`).

#![forbid(unsafe_code)]

//! Recovery: delivery in the real deployment is only reliable per TCP
//! *connection*, not per worker lifetime. [`AppliedSeqs`] tracks which
//! server-numbered messages a replica has applied so a reconnecting client
//! can ask the server to replay exactly the missed suffix (the
//! `{"type":"resume"}` protocol in `crowdfill-server`), restoring the
//! convergence theorem's delivery assumption across connection failures.

pub mod history;
pub mod replica;
pub mod resume;

pub use history::VoteHistory;
pub use replica::{Replica, ReplicaCounts};
pub use resume::AppliedSeqs;
