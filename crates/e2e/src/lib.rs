//! Worker-latency benchmark for the CrowdFill service: a jittered closed
//! loop over the real wire (`TcpService` on loopback, driven through the
//! product's own `RemoteWorker`), per-action medians over steal-clean
//! blocks, and an outside-in layer ledger. See `README.md` beside this
//! crate for what each metric means and which layer should move it.

pub mod conn;
pub mod driver;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod run;
pub mod script;
pub mod stats;
