//! # crowdfill-docstore
//!
//! A from-scratch document database substrate — the workspace's substitute
//! for the MongoDB instance the CrowdFill paper's front-end server uses
//! (§3.2) to hold task specifications, metadata, and collected results.
//!
//! * [`json`] — a self-contained JSON value model, parser (a tape), and
//!   canonical writer (also the wire format of `crowdfill-net` frames);
//! * [`collection`] — id-keyed document collections, iterated in id
//!   order;
//! * [`disk`] — the injectable I/O layer under the persistence code, with
//!   a seeded fault-injecting implementation (DESIGN.md §14);
//! * [`wal`] — a checksummed append-only log with torn-tail recovery and
//!   compaction;
//! * [`snapshot`] — versioned, CRC-framed checkpoint files written
//!   crash-atomically, with corrupt-latest fallback;
//! * [`store`] — the multi-collection store tying them together.

#![forbid(unsafe_code)]

pub mod collection;
pub mod disk;
pub mod json;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use collection::{Collection, StoreError};
pub use disk::{Disk, DiskFile, FaultPlan, FaultState, FaultyDisk, RealDisk};
pub use json::{
    write_json, ArrayWriter, Json, JsonDoc, JsonError, JsonNode, JsonRef, JsonWriter, ObjectWriter,
    Tape, TapeNode,
};
pub use snapshot::{Snapshot, SnapshotCounts, SnapshotStore};
pub use store::DocStore;
pub use wal::{crc32, FsyncPolicy, Wal, WalCounts};
