//! Readiness notification for the nonblocking codecs: a thin wrapper over
//! Linux `epoll` plus an `eventfd`-backed cross-thread wake queue.
//!
//! [`Poller`] owns one level-triggered epoll instance. A connection layer
//! registers each socket under a caller-chosen `u64` token, states which
//! directions it currently cares about ([`Interest`]), and blocks in
//! [`Poller::wait`] until a socket is ready or a timeout passes — it never
//! polls an idle socket.
//!
//! [`WakeQueue`] is how *other* threads reach a thread blocked in `wait`:
//! they [`push`](WakeQueue::push) an item and the queue's eventfd,
//! registered in the same epoll set, becomes readable.
//!
//! ## Why a wake is never lost
//!
//! Producer: push the item, then `if !pending.swap(true) { write(eventfd) }`.
//! Consumer ([`WakeQueue::drain`]): read the eventfd, `pending.store(false)`,
//! *then* take the items. An item pushed before the take is taken. An item
//! pushed after the take runs its `swap` after the `store(false)` (the item
//! mutex orders the two critical sections), so it either reads `false` and
//! writes the eventfd itself, or reads a `true` that a later producer set —
//! and that producer wrote. Either way the next `wait` returns. The eventfd
//! is read before the store, so the read can never swallow such a write.
//! Clearing the flag *after* the take would lose the item pushed in between:
//! its producer sees `true`, stays silent, and the consumer blocks on it.
//!
//! The syscalls are declared `extern "C"` here (the workspace vendors no
//! `libc`); this is the only module of the product that contains `unsafe`.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `struct epoll_event`. The kernel ABI packs it on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

// Values from the generic Linux UAPI headers (x86, arm, riscv alike).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// Most events one [`Poller::wait`] returns; with level-triggered epoll
/// whatever did not fit is reported by the next call.
const MAX_EVENTS: usize = 1024;

/// Turns a `-1`-on-error syscall return into an `io::Result`.
fn cvt(rc: c_int) -> io::Result<c_int> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// Which directions of a registered fd produce events. Errors and hang-ups
/// are always reported, even with both directions off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    fn bits(self) -> u32 {
        (if self.read { EPOLLIN } else { 0 }) | (if self.write { EPOLLOUT } else { 0 })
    }
}

/// One ready fd, by the token it was registered under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// The socket is dead in both directions (`EPOLLHUP`) or has an error
    /// pending (`EPOLLERR`): nothing more can be written to it.
    pub hangup: bool,
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: OwnedFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; on success it returns
        // a fresh descriptor nobody else owns, which `OwnedFd` then closes
        // exactly once.
        let epfd = unsafe { OwnedFd::from_raw_fd(cvt(epoll_create1(EPOLL_CLOEXEC))?) };
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live `struct epoll_event` for the duration of
        // the call and the kernel only reads it; both descriptors are plain
        // integers the kernel validates (a stale one yields `EBADF`).
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) }).map(drop)
    }

    /// Starts watching `fd`; its events carry `token`.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), interest.bits(), token)
    }

    /// Replaces the interest (and token) of an already registered fd.
    pub fn rearm(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), interest.bits(), token)
    }

    /// Stops watching `fd`. Call it *before* closing the fd: epoll tracks
    /// the open file, not the descriptor, so closing one of two dups leaves
    /// the registration behind with no descriptor left to remove it by.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout` has
    /// passed (`None`: no timeout), appending what is ready to `out`.
    /// Returns with nothing appended no earlier than the timeout (the
    /// kernel never wakes a timed wait early); an interrupting signal
    /// (`EINTR`) resumes the wait for the time left.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // epoll_wait counts in milliseconds: round up, so a timeout
            // never fires early.
            let ms = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    left.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
                }
            };
            // SAFETY: `buf` is a live allocation of `MAX_EVENTS` events that
            // nothing else borrows, and the kernel writes at most
            // `maxevents` of them.
            let rc = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    ms,
                )
            };
            let n = match cvt(rc) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            out.extend(self.buf[..n].iter().map(|ev| {
                let (events, token) = (ev.events, ev.data);
                Event {
                    token,
                    readable: events & EPOLLIN != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLHUP | EPOLLERR) != 0,
                }
            }));
            return Ok(());
        }
    }
}

/// A multi-producer queue whose consumer blocks in [`Poller::wait`]:
/// register the queue (it is `AsRawFd`) for [`Interest::READ`], and call
/// [`drain`](Self::drain) when its token comes back. Wakes coalesce — any
/// number of pushes between two drains cost one eventfd write — and none is
/// lost (module docs).
pub struct WakeQueue<T> {
    eventfd: File,
    /// Set by the producer that wrote the eventfd; cleared by the consumer
    /// before it takes the items.
    pending: AtomicBool,
    items: Mutex<Vec<T>>,
}

impl<T> WakeQueue<T> {
    pub fn new() -> io::Result<WakeQueue<T>> {
        // SAFETY: `eventfd` takes no pointers; on success it returns a
        // fresh descriptor nobody else owns, which `OwnedFd` (inside the
        // `File`) closes exactly once.
        let fd = unsafe { OwnedFd::from_raw_fd(cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))?) };
        Ok(WakeQueue {
            eventfd: File::from(fd),
            pending: AtomicBool::new(false),
            items: Mutex::new(Vec::new()),
        })
    }

    /// Queues `item` and wakes the consumer.
    pub fn push(&self, item: T) {
        self.items
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(item);
        self.wake();
    }

    /// Wakes the consumer without queuing anything (it re-checks whatever
    /// state the caller changed, e.g. a shutdown flag).
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // An eventfd write fails only when the counter would overflow
            // (2^64 - 2 unread wakes); the flag admits one at a time.
            let _ = (&self.eventfd).write(&1u64.to_ne_bytes());
        }
    }

    /// Consumer side: resets the eventfd and moves every queued item into
    /// `into`. The order of the three steps is the lost-wake argument of
    /// the module docs; do not reorder them.
    pub fn drain(&self, into: &mut Vec<T>) {
        let mut count = [0u8; 8];
        // `WouldBlock` (nothing written since the last drain) is fine.
        let _ = (&self.eventfd).read(&mut count);
        self.pending.store(false, Ordering::SeqCst);
        into.append(&mut self.items.lock().unwrap_or_else(|e| e.into_inner()));
    }
}

impl<T> AsRawFd for WakeQueue<T> {
    fn as_raw_fd(&self) -> RawFd {
        self.eventfd.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::os::unix::thread::JoinHandleExt;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn wait(poller: &mut Poller, timeout: Option<Duration>) -> Vec<Event> {
        let mut out = Vec::new();
        poller.wait(&mut out, timeout).unwrap();
        out
    }

    const SHORT: Option<Duration> = Some(Duration::from_millis(30));

    #[test]
    fn register_rearm_deregister_round_trip() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(&a, 7, Interest::READ).unwrap();
        assert!(wait(&mut poller, SHORT).is_empty(), "nothing to read yet");

        b.write_all(b"x").unwrap();
        let events = wait(&mut poller, None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable && !events[0].writable && !events[0].hangup);
        // Level-triggered: unread data is reported again.
        assert_eq!(wait(&mut poller, None).len(), 1);

        // Re-arm for write only, under a new token: the unread byte no
        // longer counts, the empty send buffer does.
        let write_only = Interest {
            read: false,
            write: true,
        };
        poller.rearm(&a, 8, write_only).unwrap();
        let events = wait(&mut poller, None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 8);
        assert!(events[0].writable && !events[0].readable);

        // No interest at all: silent, until the peer goes away.
        let none = Interest {
            read: false,
            write: false,
        };
        poller.rearm(&a, 9, none).unwrap();
        assert!(wait(&mut poller, SHORT).is_empty());
        drop(b);
        let events = wait(&mut poller, None);
        assert_eq!(events[0].token, 9);
        assert!(events[0].hangup);

        poller.deregister(&a).unwrap();
        assert!(wait(&mut poller, SHORT).is_empty());
        // A second removal is an error, not a silent success.
        assert!(poller.deregister(&a).is_err());
    }

    /// The reactor's teardown order: the outbox keeps a dup of the socket,
    /// so only an explicit `deregister` before the close removes the
    /// registration — after it, neither the pending readable event nor the
    /// hang-up that follows is ever delivered.
    #[test]
    fn deregistered_fd_delivers_no_stale_event() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(&a, 1, Interest::READ).unwrap();
        b.write_all(b"pending").unwrap();
        let dup = a.try_clone().unwrap();
        poller.deregister(&a).unwrap();
        drop(a);
        assert!(wait(&mut poller, SHORT).is_empty());
        drop(b);
        assert!(wait(&mut poller, SHORT).is_empty());
        drop(dup);
    }

    #[test]
    fn timeout_returns_empty_and_not_early() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(&a, 1, Interest::READ).unwrap();
        for micros in [0u64, 300, 1_500, 20_250] {
            let timeout = Duration::from_micros(micros);
            let start = Instant::now();
            assert!(wait(&mut poller, Some(timeout)).is_empty());
            assert!(start.elapsed() >= timeout, "{micros} µs fired early");
        }
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn pthread_kill(thread: std::os::unix::thread::RawPthread, sig: c_int) -> c_int;
    }
    const SIGUSR1: c_int = 10;
    static SIGNALS_HANDLED: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn count_signal(_: c_int) {
        SIGNALS_HANDLED.fetch_add(1, Ordering::SeqCst);
    }

    /// `epoll_wait` returns `EINTR` whenever a signal handler ran, whatever
    /// its `SA_RESTART`; `wait` must resume, not surface it or return early.
    #[test]
    fn eintr_is_retried() {
        // SAFETY: `count_signal` only touches an atomic, which is
        // async-signal-safe, and stays valid for the life of the process.
        unsafe { signal(SIGUSR1, count_signal) };
        let timeout = Duration::from_millis(300);
        let (entered_tx, entered_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let (a, _b) = UnixStream::pair().unwrap();
            let mut poller = Poller::new().unwrap();
            poller.register(&a, 1, Interest::READ).unwrap();
            let mut out = Vec::new();
            let start = Instant::now();
            entered_tx.send(()).unwrap();
            let result = poller.wait(&mut out, Some(timeout));
            (result.is_ok(), out.len(), start.elapsed())
        });
        entered_rx.recv().unwrap();
        while !waiter.is_finished() {
            // SAFETY: the handle is not joined yet, so the pthread id is
            // live; SIGUSR1 has the handler installed above.
            unsafe { pthread_kill(waiter.as_pthread_t(), SIGUSR1) };
            std::thread::sleep(Duration::from_millis(10));
        }
        let (ok, events, elapsed) = waiter.join().unwrap();
        assert!(SIGNALS_HANDLED.load(Ordering::SeqCst) > 0);
        assert!(ok, "EINTR surfaced to the caller");
        assert_eq!(events, 0);
        assert!(elapsed >= timeout, "interrupted wait returned early");
    }

    /// The lost-wake proof. Four producers push 50,000 tokens each at one
    /// consumer that blocks with no timeout, so a token whose wake is lost
    /// is only ever seen if a *later* push happens to wake the consumer.
    /// The producers therefore push in short bursts and hold until the
    /// consumer has seen everyone's burst: the last push of a burst has no
    /// later push to rescue it, and there are 2,000 last pushes. Each token
    /// drags a 4 KiB payload so the consumer holds the item mutex long
    /// enough for producers to park on it; its unlock is then a futex
    /// syscall, which is what makes the gap between the take and whatever
    /// follows it wide enough to hit. With `pending.store(false)` moved
    /// after the take in `drain` this test hung in 26 of 26 runs (2 cores).
    #[test]
    fn hammer_observes_every_token() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 50_000;
        const BURST: u64 = 25;
        let queue = Arc::new(WakeQueue::<(u64, [u64; 512])>::new().unwrap());
        let seen = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();

        let consumer_queue = Arc::clone(&queue);
        let consumer_seen = Arc::clone(&seen);
        std::thread::spawn(move || {
            let mut poller = Poller::new().unwrap();
            poller
                .register(&*consumer_queue, 0, Interest::READ)
                .unwrap();
            let mut next = [0u64; PRODUCERS as usize];
            let (mut events, mut items) = (Vec::new(), Vec::new());
            let mut total = 0;
            while total < PRODUCERS * PER_PRODUCER {
                events.clear();
                poller.wait(&mut events, None).unwrap();
                consumer_queue.drain(&mut items);
                for (token, _) in items.drain(..) {
                    let (producer, n) = (token / PER_PRODUCER, token % PER_PRODUCER);
                    assert_eq!(n, next[producer as usize], "reordered or duplicated");
                    next[producer as usize] += 1;
                    total += 1;
                }
                consumer_seen.store(total as usize, Ordering::SeqCst);
            }
            done_tx.send(next).unwrap();
        });

        for producer in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                for burst in 0..PER_PRODUCER / BURST {
                    for i in 0..BURST {
                        let token = producer * PER_PRODUCER + burst * BURST + i;
                        queue.push((token, [token; 512]));
                    }
                    // Everyone's burst seen: nobody is a burst ahead.
                    let through = ((burst + 1) * BURST * PRODUCERS) as usize;
                    while seen.load(Ordering::SeqCst) < through {
                        std::thread::yield_now();
                    }
                }
            });
        }

        let next = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a wake was lost: the consumer is blocked with tokens still queued");
        assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
    }
}
