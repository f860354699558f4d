//! Length-prefixed framing over TCP: the blocking client transport.
//!
//! Wire format: `[len: u32 BE][payload]` per frame. TCP provides reliable
//! in-order bytes; the codec provides message boundaries — together the
//! delivery model the paper assumes.
//!
//! ## Threads: none
//!
//! A [`TcpConn`] reads its own socket. The socket is nonblocking for its
//! whole life and parked in a per-connection [`Poller`]; `recv`,
//! `try_recv` and `recv_timeout` run on the caller's thread, assemble
//! frames with the same [`FrameReader`] the reactor uses, and differ only
//! in how long they will park. The read half and the write half have a
//! lock each, so a `send` interleaves with a blocked `recv`, and
//! [`TcpConn::shutdown`] takes neither. Linux only, like the reactor.
//!
//! ## Back-pressure
//!
//! Nothing is read until the caller asks for a frame, so a consumer that
//! stops calling `recv` holds at most one read budget of undelivered
//! frames plus one partial frame; the rest stays in the kernel's socket
//! buffer, and once that is full TCP flow control pushes back on the peer:
//! the server's bytes wait in its [`FrameWriter`], whose watermark downgrades
//! the session to `lagging` (broadcasts dropped until a `sync` heals it).
//! The connection is never dropped for slowness on this side.

use crate::conn::{ConnError, FrameConn};
use crate::nonblocking::{FrameReader, FrameWriter};
use crate::poller::{Event, Interest, Poller};
use crowdfill_obs::obs_warn;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Most bytes one `recv` moves from the socket into the frame decoder.
const READ_BUDGET: usize = 256 * 1024;

/// What a receive needs exclusively: where it parks and what it has
/// assembled so far (a frame cut short by a `recv_timeout` expiry stays
/// here for the next call).
struct ReadHalf {
    poller: Poller,
    events: Vec<Event>,
    frames: FrameReader,
}

/// A framed TCP connection.
pub struct TcpConn {
    /// Nonblocking. Outside both locks on purpose: `&TcpStream` reads and
    /// writes, and [`TcpConn::shutdown`] must reach the socket while a
    /// receive or a send against a stalled peer holds its lock.
    stream: TcpStream,
    reader: Mutex<ReadHalf>,
    /// Held for the whole of one `send`, which leaves it empty: frames go
    /// out whole and unmixed.
    writer: Mutex<FrameWriter>,
    peer: SocketAddr,
    /// Set on the first failed send. A failed write may leave a partial
    /// frame header or payload on the stream, after which the framing is
    /// desynchronized; every later `send`/`recv` must fail rather than
    /// silently corrupt the byte stream.
    dead: AtomicBool,
}

impl TcpConn {
    /// Connects to a listening [`TcpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpConn, ConnError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        TcpConn::from_stream(stream)
    }

    /// Wraps a connected stream.
    pub fn from_stream(stream: TcpStream) -> Result<TcpConn, ConnError> {
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_nonblocking(true).map_err(io_err)?;
        let peer = stream.peer_addr().map_err(io_err)?;
        let poller = Poller::new().map_err(io_err)?;
        poller
            .register(&stream, 0, Interest::READ)
            .map_err(io_err)?;
        Ok(TcpConn {
            stream,
            reader: Mutex::new(ReadHalf {
                poller,
                events: Vec::new(),
                frames: FrameReader::new(),
            }),
            writer: Mutex::new(FrameWriter::new()),
            peer,
            dead: AtomicBool::new(false),
        })
    }

    /// Forcibly closes the connection from any thread: marks it dead and
    /// shuts the socket down, taking neither lock (a receive, or a send
    /// blocked against a stalled peer, may hold them). The peer sees a
    /// reset/EOF, a parked `recv` wakes, an in-progress `send` fails, and
    /// every later operation returns `Disconnected`.
    pub fn shutdown(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Whether the connection has been poisoned by a failed send.
    pub fn is_poisoned(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Writes out everything `writer` holds, parking whenever the kernel's
    /// send buffer is full. The poller that wait needs is made on the
    /// spot: a frame almost always fits the buffer in one write.
    fn flush(&self, writer: &mut FrameWriter) -> Result<(), ConnError> {
        let mut parked: Option<(Poller, Vec<Event>)> = None;
        loop {
            writer.flush(&mut &self.stream)?;
            if writer.is_empty() {
                return Ok(());
            }
            if parked.is_none() {
                let poller = Poller::new().map_err(io_err)?;
                let write = Interest {
                    read: false,
                    write: true,
                };
                poller.register(&self.stream, 0, write).map_err(io_err)?;
                parked = Some((poller, Vec::new()));
            }
            // A hang-up wakes this too; the next write then fails.
            let (poller, events) = parked.as_mut().expect("set above");
            events.clear();
            poller.wait(events, None).map_err(io_err)?;
        }
    }

    /// The one receive: `park` is how long the caller will wait for a
    /// frame that has not fully arrived (`None`: until the peer is gone).
    fn recv_within(&self, park: Option<Duration>) -> Result<Vec<u8>, ConnError> {
        let deadline = park.map(|p| Instant::now() + p);
        let mut half = self.reader.lock().expect("reader lock");
        let ReadHalf {
            poller,
            events,
            frames,
        } = &mut *half;
        loop {
            if self.dead.load(Ordering::Acquire) {
                return Err(ConnError::Disconnected);
            }
            match frames.pop() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                // A corrupt length prefix: the stream position is lost.
                Err(e) => return Err(self.read_failed(&e)),
            }
            // Level-triggered: bytes already in the socket end the wait at
            // once, so a receive is one wait and one read, and a wait of
            // zero is `try_recv`'s look without blocking.
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            events.clear();
            poller.wait(events, left).map_err(io_err)?;
            if events.is_empty() {
                return Err(ConnError::Empty);
            }
            match frames.fill_from(&mut &self.stream, READ_BUDGET) {
                Ok(0) => return Err(ConnError::Disconnected),
                Ok(_) | Err(ConnError::Empty) => {}
                Err(e) => return Err(self.read_failed(&e)),
            }
        }
    }

    /// A read the framing cannot survive: logged, and the socket closed so
    /// the peer sees it too.
    fn read_failed(&self, e: &ConnError) -> ConnError {
        obs_warn!("net", "frame read error from {}: {e}", self.peer);
        self.shutdown();
        ConnError::Disconnected
    }
}

impl FrameConn for TcpConn {
    fn send(&self, frame: &[u8]) -> Result<(), ConnError> {
        let mut writer = self.writer.lock().expect("writer lock");
        if self.dead.load(Ordering::Acquire) {
            return Err(ConnError::Disconnected);
        }
        writer.enqueue(frame)?;
        if self.flush(&mut writer).is_err() {
            // The stream may hold a torn frame: poison so no later send can
            // interleave bytes into the middle of it.
            if !self.dead.swap(true, Ordering::AcqRel) {
                obs_warn!(
                    "net",
                    "connection to {} poisoned after failed send",
                    self.peer
                );
            }
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            return Err(ConnError::Disconnected);
        }
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, ConnError> {
        self.recv_within(None)
    }

    fn try_recv(&self) -> Result<Vec<u8>, ConnError> {
        self.recv_within(Some(Duration::ZERO))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, ConnError> {
        self.recv_within(Some(timeout))
    }
}

fn io_err(e: std::io::Error) -> ConnError {
    ConnError::Io(e.to_string())
}

/// A TCP acceptor producing framed connections.
pub struct TcpServer {
    listener: TcpListener,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<TcpServer, ConnError> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr).map_err(io_err)?,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> Result<SocketAddr, ConnError> {
        self.listener.local_addr().map_err(io_err)
    }

    /// Accepts the next incoming connection (blocking).
    pub fn accept(&self) -> Result<TcpConn, ConnError> {
        let (stream, _) = self.listener.accept().map_err(io_err)?;
        TcpConn::from_stream(stream)
    }

    /// Accepts the next incoming connection as a raw stream (blocking,
    /// unless [`set_nonblocking`](Self::set_nonblocking) said otherwise).
    /// The readiness-driven connection layer drives many of these from one
    /// [`Poller`] with a [`FrameReader`]/[`FrameWriter`](crate::FrameWriter)
    /// each, where a [`TcpConn`] parks its caller on one.
    pub fn accept_raw(&self) -> Result<TcpStream, ConnError> {
        let (stream, _) = self.listener.accept().map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock => ConnError::Empty,
            _ => io_err(e),
        })?;
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(stream)
    }

    /// Makes the listener one more fd of a [`Poller`] (it is `AsRawFd`):
    /// readable means a connection is waiting, and an `accept_raw` that
    /// finds none returns [`ConnError::Empty`] instead of blocking.
    pub fn set_nonblocking(&self) -> Result<(), ConnError> {
        self.listener.set_nonblocking(true).map_err(io_err)
    }
}

impl AsRawFd for TcpServer {
    fn as_raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let conn = server.accept().unwrap();
            while let Ok(frame) = conn.recv() {
                if frame == b"quit" {
                    return;
                }
                conn.send(&frame).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn echo_roundtrip() {
        let (addr, handle) = echo_server();
        let conn = TcpConn::connect(addr).unwrap();
        conn.send(b"hello").unwrap();
        assert_eq!(conn.recv().unwrap(), b"hello");
        conn.send(b"").unwrap(); // empty frames survive framing
        assert_eq!(conn.recv().unwrap(), b"");
        conn.send(b"quit").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn frames_preserve_order_and_boundaries() {
        let (addr, handle) = echo_server();
        let conn = TcpConn::connect(addr).unwrap();
        for i in 0..200u32 {
            conn.send(format!("msg-{i}").as_bytes()).unwrap();
        }
        for i in 0..200u32 {
            assert_eq!(conn.recv().unwrap(), format!("msg-{i}").as_bytes());
        }
        conn.send(b"quit").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn large_frame_roundtrip() {
        let (addr, handle) = echo_server();
        let conn = TcpConn::connect(addr).unwrap();
        let big = vec![0xABu8; 1 << 20];
        conn.send(&big).unwrap();
        assert_eq!(conn.recv().unwrap(), big);
        conn.send(b"quit").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn disconnect_detected() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let _conn = server.accept().unwrap();
            // Drop immediately.
        });
        let conn = TcpConn::connect(addr).unwrap();
        handle.join().unwrap();
        assert_eq!(conn.recv(), Err(ConnError::Disconnected));
    }

    #[test]
    fn failed_send_poisons_connection() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let conn = TcpConn::connect(addr).unwrap();
        let accepted = server.accept().unwrap();
        drop(accepted); // peer closes; our writes will start failing
        let mut saw_err = false;
        for _ in 0..100_000 {
            if conn.send(&[0u8; 4096]).is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err, "send kept succeeding against a closed peer");
        assert!(conn.is_poisoned());
        // Every later operation fails fast instead of corrupting framing.
        assert_eq!(conn.send(b"x"), Err(ConnError::Disconnected));
        assert_eq!(conn.recv(), Err(ConnError::Disconnected));
        assert_eq!(conn.try_recv(), Err(ConnError::Disconnected));
        assert_eq!(
            conn.recv_timeout(Duration::from_millis(1)),
            Err(ConnError::Disconnected)
        );
    }

    #[test]
    fn shutdown_unblocks_both_sides() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let conn = TcpConn::connect(addr).unwrap();
        let accepted = std::sync::Arc::new(server.accept().unwrap());
        let evictor = std::sync::Arc::clone(&accepted);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            evictor.shutdown();
        });
        // Blocked on a peer that never sends: shutdown must break us out.
        assert_eq!(conn.recv(), Err(ConnError::Disconnected));
        handle.join().unwrap();
        // The shut-down side fails fast on every later operation.
        assert_eq!(accepted.send(b"x"), Err(ConnError::Disconnected));
        assert_eq!(accepted.recv(), Err(ConnError::Disconnected));
    }

    /// The read half keeps what it has assembled: a frame that trickles in
    /// a byte at a time outlives any number of expired waits.
    #[test]
    fn frame_split_across_a_timeout_is_returned_whole() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let conn = TcpConn::connect(server.local_addr().unwrap()).unwrap();
        let mut peer = server.accept_raw().unwrap();
        let mut wire = 11u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"hello world");
        let (head, tail) = wire.split_at(6);
        for byte in head {
            peer.write_all(&[*byte]).unwrap();
        }
        let short = Duration::from_millis(20);
        assert_eq!(conn.recv_timeout(short), Err(ConnError::Empty));
        assert_eq!(conn.try_recv(), Err(ConnError::Empty));
        for byte in tail {
            peer.write_all(&[*byte]).unwrap();
        }
        assert_eq!(conn.recv().unwrap(), b"hello world");
    }

    #[test]
    fn try_recv_on_an_idle_socket_is_empty_and_does_not_block() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let conn = TcpConn::connect(server.local_addr().unwrap()).unwrap();
        let _peer = server.accept_raw().unwrap();
        let start = Instant::now();
        for _ in 0..100 {
            assert_eq!(conn.try_recv(), Err(ConnError::Empty));
        }
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// A nonblocking listener is a fd a poller can wait on: readable once a
    /// connection is waiting, and empty — not parked — once it is taken.
    #[test]
    fn nonblocking_listener_is_readable_when_a_connection_waits() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        server.set_nonblocking().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(&server, 3, Interest::READ).unwrap();
        assert_eq!(server.accept_raw().err(), Some(ConnError::Empty));
        let _client = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events[0].token == 3 && events[0].readable);
        server.accept_raw().expect("the waiting connection");
        assert_eq!(server.accept_raw().err(), Some(ConnError::Empty));
    }

    #[test]
    fn peer_addr_reported() {
        let (addr, handle) = echo_server();
        let conn = TcpConn::connect(addr).unwrap();
        assert_eq!(conn.peer_addr(), addr);
        conn.send(b"quit").unwrap();
        handle.join().unwrap();
    }
}
