//! The client edge of the traced run: a [`FrameConn`] wrapper that counts
//! and timestamps every frame crossing it, handed to
//! `RemoteWorker::connect_with` through the product's own dialer hook.
//!
//! It sees what the client library sees and nothing else: a frame is
//! "sent" when the inner `send` returns and "received" when a `recv` of
//! the driver thread returns it. The socket reader thread inside `TcpConn`
//! is not visible from here, so a broadcast that sat in its queue while
//! the driver was busy is stamped when the driver dequeues it.

use crowdfill_net::{ConnError, FrameConn, TcpConn};
use crowdfill_server::Dialer;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Outbound request (`hello`, `submit`, `sync`, `bye`).
    Sent,
    Ack,
    /// A `msg` or `batch` broadcast.
    Broadcast,
    Welcome,
    /// Anything else inbound (`synced`, `lagging`, …).
    Other,
}

#[derive(Debug, Clone, Copy)]
pub struct FrameEvent {
    pub kind: FrameKind,
    pub at: Instant,
    pub bytes: usize,
}

/// What one traced connection recorded. The driver drains `events` after
/// every operation; the byte and frame totals run for the connection's
/// life. With `capture` set, the payloads themselves are kept for the
/// layer replay.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub events: Vec<FrameEvent>,
    pub dial: Option<(Instant, Instant)>,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub frames_in: u64,
    pub capture: bool,
    pub sent_frames: Vec<Vec<u8>>,
    pub welcome_frame: Option<Vec<u8>>,
}

pub type SharedLog = Arc<Mutex<ConnLog>>;

pub struct TracedConn {
    inner: TcpConn,
    log: SharedLog,
}

/// Server frames are JSON objects with sorted keys, so `"type"` sits in
/// the last few dozen bytes of every frame the client can receive; only
/// the tail is searched (a welcome frame is tens of kilobytes).
fn classify(frame: &[u8]) -> FrameKind {
    let tail = &frame[frame.len().saturating_sub(64)..];
    let has = |needle: &[u8]| tail.windows(needle.len()).any(|w| w == needle);
    if has(b"\"type\":\"ack\"") {
        FrameKind::Ack
    } else if has(b"\"type\":\"msg\"") || has(b"\"type\":\"batch\"") {
        FrameKind::Broadcast
    } else if has(b"\"type\":\"welcome\"") {
        FrameKind::Welcome
    } else {
        FrameKind::Other
    }
}

impl TracedConn {
    fn received(&self, frame: &[u8]) {
        let at = Instant::now();
        let kind = classify(frame);
        let mut log = self.log.lock().expect("conn log lock");
        log.bytes_in += 4 + frame.len() as u64;
        log.frames_in += 1;
        log.events.push(FrameEvent {
            kind,
            at,
            bytes: frame.len(),
        });
        if log.capture && kind == FrameKind::Welcome {
            log.welcome_frame = Some(frame.to_vec());
        }
    }

    fn pass(&self, result: Result<Vec<u8>, ConnError>) -> Result<Vec<u8>, ConnError> {
        if let Ok(frame) = &result {
            self.received(frame);
        }
        result
    }
}

impl FrameConn for TracedConn {
    fn send(&self, frame: &[u8]) -> Result<(), ConnError> {
        self.inner.send(frame)?;
        let at = Instant::now();
        let mut log = self.log.lock().expect("conn log lock");
        log.bytes_out += 4 + frame.len() as u64;
        log.events.push(FrameEvent {
            kind: FrameKind::Sent,
            at,
            bytes: frame.len(),
        });
        if log.capture {
            log.sent_frames.push(frame.to_vec());
        }
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, ConnError> {
        self.pass(self.inner.recv())
    }

    fn try_recv(&self) -> Result<Vec<u8>, ConnError> {
        self.pass(self.inner.try_recv())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, ConnError> {
        self.pass(self.inner.recv_timeout(timeout))
    }
}

/// The dialer of an untraced worker: the plain product transport.
pub fn plain_dialer(addr: SocketAddr) -> Dialer {
    Box::new(move |_attempt| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>))
}

/// The dialer of a traced worker: the same transport behind a
/// [`TracedConn`] writing to `log`.
pub fn traced_dialer(addr: SocketAddr, log: SharedLog) -> Dialer {
    Box::new(move |_attempt| {
        let start = Instant::now();
        let inner = TcpConn::connect(addr)?;
        log.lock().expect("conn log lock").dial = Some((start, Instant::now()));
        Ok(Box::new(TracedConn {
            inner,
            log: Arc::clone(&log),
        }) as Box<dyn FrameConn>)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_classified_by_their_type_field() {
        let ack = br#"{"estimate":0.25,"fulfilled":false,"seqs":[12],"type":"ack"}"#;
        let msg = br#"{"msg":{"kind":"upvote","value":[]},"seq":3,"type":"msg"}"#;
        let batch = br#"{"msgs":[],"type":"batch"}"#;
        let synced = br#"{"history_len":3,"msgs":[],"type":"synced"}"#;
        let mut welcome = br#"{"client":2,"collection":"default","history":["#.to_vec();
        welcome.extend(std::iter::repeat_n(b' ', 4096));
        welcome.extend_from_slice(br#"],"history_len":0,"schema":{},"type":"welcome","worker":2}"#);
        assert_eq!(classify(ack), FrameKind::Ack);
        assert_eq!(classify(msg), FrameKind::Broadcast);
        assert_eq!(classify(batch), FrameKind::Broadcast);
        assert_eq!(classify(synced), FrameKind::Other);
        assert_eq!(classify(&welcome), FrameKind::Welcome);
        assert_eq!(classify(b""), FrameKind::Other);
    }
}
