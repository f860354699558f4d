//! # crowdfill-net
//!
//! Reliable, in-order, framed message transports — the workspace's
//! substitute for the paper's Node.js + Socket.IO persistent connections
//! (§3.3). The synchronization model (§2.4) assumes exactly two properties
//! of the network: message delivery between server and clients is
//! *reliable* and *in-order per connection*. Both transports guarantee
//! them:
//!
//! * [`LocalConn`] — an in-process duplex channel (crossbeam), which the
//!   client-loop tests dial a `RemoteWorker` onto in place of a socket;
//! * [`TcpConn`]/[`TcpServer`] — length-prefixed frames over TCP
//!   (`std::net`, no async runtime, no thread: a `TcpConn` reads its own
//!   socket on the caller's thread), the blocking client transport of the
//!   live networked server;
//! * [`FaultyConn`] — a fault-injecting wrapper around any transport,
//!   driven by a deterministic seeded [`FaultConfig`] plan (drops, delays,
//!   partial writes, forced disconnects) for the recovery test suite;
//! * [`FrameReader`]/[`FrameWriter`] — the same framing as nonblocking
//!   state machines, and [`Poller`]/[`WakeQueue`] — the epoll readiness
//!   wrapper that tells a connection layer when to run them (Linux only;
//!   the product's one module of foreign calls, see the lint below). The
//!   reactor drives thousands of sockets from one `Poller`; a `TcpConn`
//!   parks its caller on a `Poller` of its own.
//!
//! Frames are opaque byte vectors; the server layers a JSON protocol
//! (`crowdfill-docstore::Json`) on top.
//!
//! Failure semantics: a [`TcpConn`] whose send tears mid-frame is
//! *poisoned* — every later operation returns [`ConnError::Disconnected`]
//! instead of risking desynchronized framing. Recovery happens a layer up,
//! via the server's reconnect-with-resume protocol.

// `deny`, not the `forbid` of every other product crate: `poller` must be
// able to opt out.
#![deny(unsafe_code)]

pub mod conn;
pub mod fault;
pub mod nonblocking;
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub mod poller;
pub mod tcp;

pub use conn::{ConnError, FrameConn, LocalConn, MAX_FRAME_LEN};
pub use fault::{FaultConfig, FaultyConn};
pub use nonblocking::{FrameReader, FrameWriter};
#[cfg(target_os = "linux")]
pub use poller::{Event, Interest, Poller, WakeQueue};
pub use tcp::{TcpConn, TcpServer};
