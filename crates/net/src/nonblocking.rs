//! Nonblocking frame codecs for readiness-driven connection layers.
//!
//! No connection layer here owns a thread per connection: the reactor
//! drives every socket of a shard, and the blocking
//! [`TcpConn`](crate::TcpConn) parks its caller. These two state machines
//! carry the length-prefixed framing (`[len: u32 BE][payload]`, capped at
//! [`MAX_FRAME_LEN`]) over a nonblocking socket that is read and written
//! in bounded slices whenever it is ready ([`Poller`](crate::Poller)):
//!
//! * [`FrameReader`] — feed it whatever `read()` returned; pop complete
//!   frames as they assemble across reads.
//! * [`FrameWriter`] — queue whole frames; `flush()` writes as much as the
//!   socket accepts and remembers the partial-write offset.
//!
//! Neither touches a socket directly, so both are trivially testable and
//! shared by the server reactor, `TcpConn`'s read half and the bench-side
//! connection driver.

use crate::conn::{ConnError, MAX_FRAME_LEN};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Incremental decoder for length-prefixed frames.
///
/// Bytes go in via [`push`](FrameReader::push) (or straight off a socket
/// via [`fill_from`](FrameReader::fill_from)); complete frames come out of
/// [`pop`](FrameReader::pop). Partial headers and partial payloads are
/// carried across calls.
#[derive(Default)]
pub struct FrameReader {
    /// Unconsumed bytes: zero or more complete frames plus a tail fragment.
    buf: Vec<u8>,
    /// Start of the first undecoded frame within `buf`.
    pos: usize,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends raw socket bytes to the decode buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads up to `budget` bytes from `src` into the decoder.
    ///
    /// Returns the number of bytes read (0 = clean EOF), `Err(Empty)` when
    /// the socket has no data right now (`WouldBlock`), or the underlying
    /// I/O error.
    pub fn fill_from(&mut self, src: &mut impl Read, budget: usize) -> Result<usize, ConnError> {
        self.compact();
        let mut chunk = [0u8; 16 * 1024];
        let mut total = 0;
        while total < budget {
            let want = chunk.len().min(budget - total);
            match src.read(&mut chunk[..want]) {
                Ok(0) => {
                    if total == 0 {
                        return Ok(0);
                    }
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if n < want {
                        break; // drained the socket buffer
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if total == 0 {
                        return Err(ConnError::Empty);
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ConnError::Io(e.to_string())),
            }
        }
        Ok(total)
    }

    /// Pops the next complete frame, if one has fully arrived.
    ///
    /// `Err(FrameTooLarge)` marks the connection unrecoverable — the stream
    /// position can no longer be trusted, so the caller must drop it.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, ConnError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let hdr = &self.buf[self.pos..self.pos + 4];
        let len = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ConnError::FrameTooLarge(len));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reclaims consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Outbound frame queue with partial-write tracking.
///
/// Frames are queued whole (header prepended at enqueue time) and flushed
/// in bounded nonblocking writes; a frame interrupted by `WouldBlock`
/// resumes at the recorded offset on the next flush.
#[derive(Default)]
pub struct FrameWriter {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    offset: usize,
    queued_bytes: usize,
}

impl FrameWriter {
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Queues one frame (length prefix added here).
    pub fn enqueue(&mut self, payload: &[u8]) -> Result<(), ConnError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(ConnError::FrameTooLarge(payload.len()));
        }
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        framed.extend_from_slice(payload);
        self.queued_bytes += framed.len();
        self.queue.push_back(framed);
        Ok(())
    }

    /// Writes queued bytes until the socket pushes back or the queue drains.
    ///
    /// Returns the number of bytes written this call. `Err(Disconnected)` /
    /// `Err(Io)` poison the connection (framing can be mid-frame).
    pub fn flush(&mut self, dst: &mut impl Write) -> Result<usize, ConnError> {
        let mut written = 0;
        while let Some(front) = self.queue.front() {
            match dst.write(&front[self.offset..]) {
                Ok(0) => return Err(ConnError::Disconnected),
                Ok(n) => {
                    written += n;
                    self.offset += n;
                    self.queued_bytes -= n;
                    if self.offset == front.len() {
                        self.queue.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::BrokenPipe
                        || e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::ConnectionAborted =>
                {
                    return Err(ConnError::Disconnected);
                }
                Err(e) => return Err(ConnError::Io(e.to_string())),
            }
        }
        Ok(written)
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Frames still queued (a partially written frame counts).
    pub fn queued_frames(&self) -> usize {
        self.queue.len()
    }

    /// Bytes still queued, headers included.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` sink that accepts at most `cap` bytes per call, then
    /// signals `WouldBlock` — the socket-pushback shape the writer must
    /// survive.
    struct Throttle {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.cap == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn reader_reassembles_across_arbitrary_splits() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&frame(b"alpha"));
        wire.extend_from_slice(&frame(b""));
        wire.extend_from_slice(&frame(&vec![7u8; 100_000]));
        wire.extend_from_slice(&frame(b"omega"));

        // Feed one byte at a time — worst-case fragmentation.
        for step in [1usize, 3, 7, 4096] {
            let mut r = FrameReader::new();
            let mut got = Vec::new();
            for chunk in wire.chunks(step) {
                r.push(chunk);
                while let Some(f) = r.pop().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got.len(), 4, "step {step}");
            assert_eq!(got[0], b"alpha");
            assert_eq!(got[1], b"");
            assert_eq!(got[2].len(), 100_000);
            assert_eq!(got[3], b"omega");
            assert_eq!(r.pending_bytes(), 0);
        }
    }

    #[test]
    fn reader_rejects_oversized_header() {
        let mut r = FrameReader::new();
        r.push(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(matches!(r.pop(), Err(ConnError::FrameTooLarge(_))));
    }

    #[test]
    fn writer_survives_pushback_and_resumes_mid_frame() {
        let mut w = FrameWriter::new();
        w.enqueue(b"hello world").unwrap();
        w.enqueue(&vec![9u8; 5000]).unwrap();

        let mut sink = Throttle {
            out: Vec::new(),
            cap: 7,
        };
        let mut total = 0;
        for _ in 0..10_000 {
            total += w.flush(&mut sink).unwrap();
            if w.is_empty() {
                break;
            }
        }
        assert!(w.is_empty());
        assert_eq!(total, sink.out.len());

        // Decode what came out the other side: both frames, intact, in order.
        let mut r = FrameReader::new();
        r.push(&sink.out);
        assert_eq!(r.pop().unwrap().unwrap(), b"hello world");
        assert_eq!(r.pop().unwrap().unwrap(), vec![9u8; 5000]);
        assert_eq!(r.pop().unwrap(), None);
    }

    #[test]
    fn writer_reports_zero_progress_when_blocked() {
        let mut w = FrameWriter::new();
        w.enqueue(b"stuck").unwrap();
        let mut sink = Throttle {
            out: Vec::new(),
            cap: 0,
        };
        assert_eq!(w.flush(&mut sink).unwrap(), 0);
        assert_eq!(w.queued_frames(), 1);
        assert_eq!(w.queued_bytes(), 4 + 5);
    }

    #[test]
    fn fill_from_respects_budget() {
        struct Endless;
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(0);
                Ok(buf.len())
            }
        }
        let mut r = FrameReader::new();
        let n = r.fill_from(&mut Endless, 10_000).unwrap();
        assert_eq!(n, 10_000);
        assert_eq!(r.pending_bytes(), 10_000);
    }
}
