//! # The sharded reactor: the I/O half of a shard
//!
//! The service runs a small fixed pool of *shard* threads (by default one
//! per core, at most 4 and at most one per collection), each with one
//! `epoll` instance and one wake queue ([`crowdfill_net::poller`]): server
//! threads are O(pool size), not O(connections) nor O(collections). What a
//! shard decides is its [`ShardCore`] (`shard.rs`), which touches no socket
//! and reads no clock. This file is the driver: it owns the sockets, the
//! epoll set, the listener and its back-off, the wake queues and the
//! threads; it reads the clock once per wake and moves bytes between the
//! sockets and the core, counting them (`crowdfill_net_bytes_in`/`_out`)
//! and the sockets it accepts (`crowdfill_net_accepts`).
//!
//! A shard blocks in `epoll_wait` until a socket of its own is readable,
//! writable while its writer holds bytes, or hung up; the listener is
//! readable (the acceptor only: the lowest-indexed shard that owns a
//! collection); another thread pushed a [`Wake`] (a hand-over,
//! `disconnect_all`, or `stop`'s flag); or the instant the core asked for
//! ([`Effect::Arm`]) or the end of an accept back-off passed. With neither
//! deadline the wait has no timeout, so a default service with nothing to
//! do never wakes. A wake then takes the SLO readings
//! ([`ReadingRing::advance`](crowdfill_obs::timeseries::ReadingRing::advance)),
//! reads each readable socket into the core (at most `READ_BUDGET` bytes;
//! level-triggered epoll reports the rest again), flushes each writable
//! one, accepts (at most `ACCEPTS_PER_WAKE`, each socket read at once, so a
//! `hello` already in is served by the wake that accepted it), takes in the
//! wake queue, and ends with [`Event::Sweep`]. Effects are carried out in
//! order; a flush is answered with [`Event::Flushed`], whose effects join
//! the queue. A failed `accept` takes the listener's read interest away for
//! 10 ms, doubling up to 1 s: a shard never sleeps.

use crate::shard::{Conn, Effect, Event, ShardCore};
use crate::tcp_service::{ServiceShared, ShardCollections};
use crate::wire::Request;
use crowdfill_net::{ConnError, Interest, Poller, TcpServer, WakeQueue};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max bytes read from one socket per wake.
const READ_BUDGET: usize = 64 * 1024;

/// What another thread hands a shard blocked in `epoll_wait`.
pub(crate) enum Wake {
    /// A connection whose handshake — the request — names a collection
    /// this shard owns, read by the shard that accepted the socket.
    HandOver(TcpStream, Box<(Conn, Request)>),
    /// Close every open session (`TcpService::disconnect_all`): a shard
    /// owns its sockets, so an off-shard close is a request, not a
    /// `shutdown`.
    CloseAll,
}

/// One shard's wake queue, shared with everything that can wake it.
pub(crate) type ShardWake = Arc<WakeQueue<Wake>>;

/// The epoll tokens of a shard's own wake queue and of the listener
/// (connection tokens count up from zero and never get there).
const WAKE_TOKEN: u64 = u64::MAX;
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Sockets accepted per wake; epoll is level-triggered, so the rest of a
/// connect storm re-fires the listener and the sessions get served between.
const ACCEPTS_PER_WAKE: usize = 64;

/// How long the listener stays out of the epoll set after a failed
/// `accept` (fd exhaustion, a transient socket error) — a level-triggered
/// listener that cannot accept would otherwise spin its shard: 10 ms,
/// doubling per consecutive failure up to 1 s; a success starts over.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// The back-off after the one that was `wait`.
fn next_backoff(wait: Duration) -> Duration {
    (wait * 2).min(ACCEPT_BACKOFF_MAX)
}

/// What the acceptor holds besides its collections.
struct Acceptor {
    listener: TcpServer,
    /// How long the next failed `accept` backs off.
    backoff: Duration,
    /// The end of the back-off under way, if one is.
    until: Option<Instant>,
}

/// Spawns the shard pool — every thread the service runs — shard `i`
/// owning the collections (and their pipelines) in `owned[i]`, the first
/// that owns any also the listener; returns the join handles and one wake
/// queue per shard (`stop` wakes them all). Each shard costs two
/// descriptors, created here so that running out of them fails the start
/// instead of a thread. A start that fails part-way stops and joins the
/// shards it had spawned before it returns the error.
pub(crate) fn start_shards(
    owned: ShardCollections,
    listener: TcpServer,
    shared: Arc<ServiceShared>,
) -> std::io::Result<(Vec<std::thread::JoinHandle<()>>, Vec<ShardWake>)> {
    let n = owned.len();
    listener.set_nonblocking().map_err(std::io::Error::other)?;
    let mut acceptor = Some(Acceptor {
        listener,
        backoff: ACCEPT_BACKOFF_BASE,
        until: None,
    });
    let mut pollers = Vec::with_capacity(n);
    let mut wakes = Vec::with_capacity(n);
    for _ in 0..n {
        let poller = Poller::new()?;
        let wake: ShardWake = Arc::new(WakeQueue::new()?);
        poller.register(&*wake, WAKE_TOKEN, Interest::READ)?;
        pollers.push(poller);
        wakes.push(wake);
    }
    let mut handles = Vec::with_capacity(n);
    let now = Instant::now();
    for (index, (poller, owned)) in pollers.into_iter().zip(owned).enumerate() {
        let acceptor = acceptor.take_if(|_| !owned.is_empty());
        if let Some(acceptor) = &acceptor {
            poller
                .register(&acceptor.listener, LISTEN_TOKEN, Interest::READ)
                .map_err(|e| stop_spawned(&shared, &wakes, &mut handles, e))?;
        }
        let shard = Shard {
            index,
            core: ShardCore::new(index, owned, Arc::clone(&shared), now),
            poller,
            wakes: wakes.clone(),
            shared: Arc::clone(&shared),
            acceptor,
            sockets: HashMap::new(),
            next_token: 0,
            effects: VecDeque::new(),
            wake_at: None,
            buf: vec![0; READ_BUDGET],
        };
        let handle =
            spawn_shard(shard).map_err(|e| stop_spawned(&shared, &wakes, &mut handles, e))?;
        handles.push(handle);
    }
    crowdfill_obs::obs_info!("server", "reactor started with {n} shards");
    Ok((handles, wakes))
}

/// Starts a shard's thread.
fn spawn_shard(shard: Shard) -> std::io::Result<std::thread::JoinHandle<()>> {
    #[cfg(test)]
    if tests::FAIL_SPAWN.with(|at| at.get() == Some(shard.index)) {
        return Err(std::io::Error::other("shard spawn failed (injected)"));
    }
    std::thread::Builder::new()
        .name(format!("crowdfill-shard-{}", shard.index))
        .spawn(move || shard.run())
}

/// Undoes a start that failed part-way, the way `TcpService::stop` stops
/// a running one: raise the flag, wake the shards already spawned, join
/// them. Returns the error.
fn stop_spawned(
    shared: &ServiceShared,
    wakes: &[ShardWake],
    handles: &mut Vec<std::thread::JoinHandle<()>>,
    e: std::io::Error,
) -> std::io::Error {
    shared.shutdown.store(true, Ordering::SeqCst);
    for wake in wakes {
        wake.wake();
    }
    for handle in handles.drain(..) {
        let _ = handle.join();
    }
    e
}

/// One shard thread: its core and everything of it that is I/O.
struct Shard {
    index: usize,
    core: ShardCore,
    poller: Poller,
    /// Every shard's wake queue, this one's at `index`.
    wakes: Vec<ShardWake>,
    shared: Arc<ServiceShared>,
    /// The listener, on the one shard that accepts.
    acceptor: Option<Acceptor>,
    /// The sockets, by the token the core knows each connection by.
    sockets: HashMap<u64, TcpStream>,
    next_token: u64,
    /// The core's effects not yet carried out, oldest first.
    effects: VecDeque<Effect>,
    /// The instant the core last asked to be woken at.
    wake_at: Option<Instant>,
    /// What a socket read lands in before the core takes it.
    buf: Vec<u8>,
}

impl Shard {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut woken = Vec::new();
        // The first sweep arms what the core has periodic.
        let mut now = Instant::now();
        self.step(now, Event::Sweep);
        loop {
            let backoff = self.acceptor.as_ref().and_then(|a| a.until);
            let until = self.wake_at.into_iter().chain(backoff).min();
            let timeout = until.map(|at| at.saturating_duration_since(now));
            events.clear();
            self.poller
                .wait(&mut events, timeout)
                .expect("epoll_wait on the shard's own epoll fd");
            // The wake's one clock reading.
            now = Instant::now();
            let shared = &self.shared;
            shared.metrics.wakeups.inc();
            // Before anything this wake records: see `ReadingRing::advance`.
            let since_start = now.saturating_duration_since(shared.started);
            shared.telemetry.advance(since_start.as_nanos() as u64);
            // Before anything that was due: a tick that is overdue when
            // `stop` raises the flag does not run, and the listener goes
            // with the shard.
            if shared.shutdown.load(Ordering::SeqCst) {
                return self.step(now, Event::Stop);
            }
            let mut accept = false;
            for event in &events {
                match event.token {
                    WAKE_TOKEN => self.wakes[self.index].drain(&mut woken),
                    LISTEN_TOKEN => accept = true,
                    token => {
                        if event.readable || event.hangup {
                            self.read(now, token);
                        }
                        match event.hangup {
                            true => self.step(now, Event::HungUp(token)),
                            false if event.writable => self.flush(now, token),
                            false => {}
                        }
                    }
                }
            }
            if let Some(acceptor) = self.acceptor.as_mut() {
                if acceptor.until.is_some_and(|until| until <= now) {
                    acceptor.until = None;
                    self.listen(true);
                }
            }
            if accept {
                self.accept(now);
            }
            for wake in woken.drain(..) {
                match wake {
                    Wake::HandOver(stream, handed) => {
                        if let Some(token) = self.adopt(stream) {
                            self.step(now, Event::HandOver(token, handed));
                            self.read(now, token);
                        }
                    }
                    Wake::CloseAll => self.step(now, Event::CloseAll),
                }
            }
            self.step(now, Event::Sweep);
        }
    }

    /// Feeds the core one event and carries out what it asks, in order —
    /// including what the events those effects raise ask in turn.
    fn step(&mut self, now: Instant, event: Event<'_>) {
        self.core.on(now, event, &mut self.effects);
        while let Some(effect) = self.effects.pop_front() {
            match effect {
                Effect::Flush(token) => self.flush(now, token),
                Effect::Interest(token, want) => {
                    let Some(stream) = self.sockets.get(&token) else {
                        continue;
                    };
                    if self.poller.rearm(stream, token, want).is_err() {
                        self.core.on(now, Event::HungUp(token), &mut self.effects);
                    }
                }
                Effect::Close(token) => {
                    // The last descriptor of the socket: dropping it also
                    // takes it out of the epoll set.
                    if let Some(stream) = self.sockets.remove(&token) {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
                Effect::HandOver(token, owner, handed) => {
                    let stream = self.sockets.remove(&token).expect("a handed-over socket");
                    let _ = self.poller.deregister(&stream);
                    self.wakes[owner].push(Wake::HandOver(stream, handed));
                }
                Effect::Arm(at) => self.wake_at = at,
            }
        }
    }

    /// Flushes a connection's writer as far as its socket takes it, and
    /// tells the core.
    fn flush(&mut self, now: Instant, token: u64) {
        let (Some(stream), Some(writer)) = (self.sockets.get_mut(&token), self.core.writer(token))
        else {
            return;
        };
        let event = match writer.flush(stream) {
            Ok(n) => {
                self.shared.metrics.bytes_out.add(n as u64);
                Event::Flushed(token)
            }
            Err(_) => Event::HungUp(token),
        };
        self.core.on(now, event, &mut self.effects);
    }

    /// Reads what a socket has, up to `READ_BUDGET`, into the core.
    fn read(&mut self, now: Instant, token: u64) {
        let Some(stream) = self.sockets.get_mut(&token) else {
            return;
        };
        let event = loop {
            match stream.read(&mut self.buf) {
                Ok(n) => {
                    self.shared.metrics.bytes_in.add(n as u64);
                    break Event::Read(token, &self.buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => break Event::HungUp(token),
            }
        };
        self.core.on(now, event, &mut self.effects);
    }

    /// Accepts what is waiting on the listener, within the wake's bound,
    /// and reads each socket at once. A failed `accept` takes the listener
    /// out of the epoll set until the back-off ends.
    fn accept(&mut self, now: Instant) {
        for _ in 0..ACCEPTS_PER_WAKE {
            let Some(acceptor) = &mut self.acceptor else {
                return;
            };
            match acceptor.listener.accept_raw() {
                Ok(stream) => {
                    self.shared.metrics.accepts.inc();
                    acceptor.backoff = ACCEPT_BACKOFF_BASE;
                    let ready = stream.set_nonblocking(true).is_ok();
                    let _ = stream.set_nodelay(true);
                    if let Some(token) = ready.then(|| self.adopt(stream)).flatten() {
                        self.step(now, Event::Accepted(token));
                        self.read(now, token);
                    }
                }
                Err(ConnError::Empty) => return,
                Err(_) => {
                    self.shared.metrics.accept_errors.inc();
                    acceptor.until = Some(now + acceptor.backoff);
                    acceptor.backoff = next_backoff(acceptor.backoff);
                    return self.listen(false);
                }
            }
        }
    }

    /// Sets whether the listener's readiness wakes the shard.
    fn listen(&mut self, read: bool) {
        if let Some(acceptor) = &self.acceptor {
            let interest = Interest { read, write: false };
            let _ = (self.poller).rearm(&acceptor.listener, LISTEN_TOKEN, interest);
        }
    }

    /// Registers a socket — fresh, or handed over — for reading under a
    /// token of this shard's, which it returns; `None` refuses it (out of
    /// epoll watches).
    fn adopt(&mut self, stream: TcpStream) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        self.poller.register(&stream, token, Interest::READ).ok()?;
        self.sockets.insert(token, stream);
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, ServiceOptions, TaskConfig, TcpService};
    use std::cell::Cell;

    thread_local! {
        /// The shard whose spawn fails, for starts on this thread.
        pub(super) static FAIL_SPAWN: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn shard_threads() -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
        let names = tasks.filter_map(|t| comm(t.ok()?).ok());
        names.filter(|n| n.starts_with("crowdfill-shard")).count()
    }

    /// Stop means stopped, for a start that fails too: the shards spawned
    /// before the one that failed are stopped and joined, not leaked.
    #[test]
    fn a_start_that_fails_part_way_leaves_no_shard_running() {
        if !std::path::Path::new("/proc/self/task").exists() {
            return; // thread accounting needs procfs
        }
        let schema = crowdfill_model::Schema::new(
            "T",
            vec![crowdfill_model::Column::new(
                "a",
                crowdfill_model::DataType::Text,
            )],
            &["a"],
        );
        let scoring = std::sync::Arc::new(crowdfill_model::QuorumMajority::of_three());
        let template = crowdfill_model::Template::cardinality(1);
        let config = TaskConfig::new(std::sync::Arc::new(schema.unwrap()), scoring, template, 1.0);
        let options = ServiceOptions {
            shards: 4,
            ..ServiceOptions::default()
        };
        FAIL_SPAWN.with(|at| at.set(Some(3)));
        let started = TcpService::start_with(Backend::new(config), "127.0.0.1:0", options);
        FAIL_SPAWN.with(|at| at.set(None));
        assert!(
            started.is_err(),
            "the injected spawn failure fails the start"
        );
        // A leaked shard names itself as its first act: give it the beat.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(shard_threads(), 0, "a shard outlived the failed start");
    }

    /// The accept back-off on its own: 10, 20, 40 ms … capped at 1 s; a
    /// success starts over from the base.
    #[test]
    fn accept_backoff_doubles_to_a_cap() {
        let waits = std::iter::successors(Some(ACCEPT_BACKOFF_BASE), |w| Some(next_backoff(*w)));
        let millis: Vec<u128> = waits.take(9).map(|w| w.as_millis()).collect();
        assert_eq!(millis, [10, 20, 40, 80, 160, 320, 640, 1000, 1000]);
    }
}
