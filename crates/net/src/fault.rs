//! Deterministic fault injection for [`FrameConn`] transports.
//!
//! [`FaultyConn`] wraps any frame connection and perturbs it according to a
//! seeded [`FaultConfig`]: frames can be silently dropped, delayed, lost to
//! a simulated mid-frame partial write (which poisons the connection, the
//! same contract as [`TcpConn`](crate::TcpConn)), or cut off entirely by a
//! forced disconnect after a planned number of operations. Every decision is
//! drawn from a splitmix64 stream derived from the seed, so a failing run
//! reproduces exactly from its seed — the property the recovery test suite
//! is built on.
//!
//! The fault model mirrors what the recovery layer must survive in
//! production: lossy links, slow links, torn writes, and flaky peers. It is
//! intentionally *not* a Byzantine model — frames are never corrupted or
//! reordered, because the underlying transports already rule those out
//! (checksummed TCP, in-order channels).

use crate::conn::{ConnError, FrameConn};
use crowdfill_obs::splitmix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fault probabilities are expressed per mille (0–1000) so the plan stays
/// integer-only and bit-for-bit reproducible across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the decision stream. Two conns built from equal configs make
    /// identical decisions.
    pub seed: u64,
    /// P(outbound frame silently dropped) ‰.
    pub drop_per_mille: u16,
    /// P(frame delayed) ‰, applied on both send and receive.
    pub delay_per_mille: u16,
    /// Upper bound of an injected delay (uniform in 1..=max).
    pub max_delay: Duration,
    /// P(send fails mid-frame) ‰ — the frame is lost *and* the connection is
    /// poisoned, exactly like a real torn `write_all`.
    pub partial_write_per_mille: u16,
    /// Force a disconnect after a planned number of operations drawn
    /// uniformly from this range (`None`: never).
    pub disconnect_after: Option<std::ops::Range<u64>>,
}

impl FaultConfig {
    /// A clean plan: no faults. Useful as a base for struct update syntax.
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_per_mille: 0,
            delay_per_mille: 0,
            max_delay: Duration::from_millis(0),
            partial_write_per_mille: 0,
            disconnect_after: None,
        }
    }

    /// Frames vanish with probability `per_mille`/1000.
    pub fn drops(seed: u64, per_mille: u16) -> FaultConfig {
        FaultConfig {
            drop_per_mille: per_mille,
            ..FaultConfig::none(seed)
        }
    }

    /// Frames are delayed up to `max_delay` with probability `per_mille`/1000.
    pub fn delays(seed: u64, per_mille: u16, max_delay: Duration) -> FaultConfig {
        FaultConfig {
            delay_per_mille: per_mille,
            max_delay,
            ..FaultConfig::none(seed)
        }
    }

    /// Sends tear mid-frame (losing the frame and poisoning the connection)
    /// with probability `per_mille`/1000.
    pub fn partial_writes(seed: u64, per_mille: u16) -> FaultConfig {
        FaultConfig {
            partial_write_per_mille: per_mille,
            ..FaultConfig::none(seed)
        }
    }

    /// The connection dies after between `range.start` and `range.end`
    /// send/recv operations.
    pub fn disconnects(seed: u64, range: std::ops::Range<u64>) -> FaultConfig {
        FaultConfig {
            disconnect_after: Some(range),
            ..FaultConfig::none(seed)
        }
    }

    /// Derives a config with a per-attempt seed, so each reconnect attempt
    /// of a dialer sees a fresh (but still deterministic) decision stream.
    pub fn reseeded(&self, salt: u64) -> FaultConfig {
        FaultConfig {
            seed: splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..self.clone()
        }
    }
}

/// The seeded decision stream.
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next() % bound
    }

    fn chance(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.below(1000) < per_mille as u64
    }
}

/// A [`FrameConn`] that injects faults from a deterministic seeded plan.
pub struct FaultyConn<C: FrameConn> {
    inner: C,
    cfg: FaultConfig,
    rng: Mutex<Rng>,
    /// Operation countdown to the planned forced disconnect, if any.
    disconnect_at: Option<u64>,
    ops: AtomicU64,
    dead: AtomicBool,
}

impl<C: FrameConn> FaultyConn<C> {
    /// Wraps `inner` under the fault plan `cfg`.
    pub fn new(inner: C, cfg: FaultConfig) -> FaultyConn<C> {
        let mut rng = Rng(cfg.seed);
        let disconnect_at = cfg.disconnect_after.clone().map(|r| {
            if r.is_empty() {
                r.start
            } else {
                r.start + rng.below(r.end - r.start)
            }
        });
        FaultyConn {
            inner,
            cfg,
            rng: Mutex::new(rng),
            disconnect_at,
            ops: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// The wrapped connection (e.g. to reach transport-specific methods).
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Whether the plan has already killed this connection.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Counts an operation against the planned disconnect; returns `true`
    /// when the connection just (or already) died.
    fn tick(&self) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return true;
        }
        let n = self.ops.fetch_add(1, Ordering::AcqRel);
        if let Some(at) = self.disconnect_at {
            if n >= at {
                self.dead.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    fn maybe_delay(&self) {
        let delay = {
            let mut rng = self.rng.lock().expect("fault rng");
            if rng.chance(self.cfg.delay_per_mille) {
                let max = self.cfg.max_delay.as_millis().max(1) as u64;
                Some(Duration::from_millis(1 + rng.below(max)))
            } else {
                None
            }
        };
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
    }
}

impl<C: FrameConn> FrameConn for FaultyConn<C> {
    fn send(&self, frame: &[u8]) -> Result<(), ConnError> {
        if self.tick() {
            return Err(ConnError::Disconnected);
        }
        self.maybe_delay();
        enum Verdict {
            Drop,
            Tear,
            Pass,
        }
        let verdict = {
            let mut rng = self.rng.lock().expect("fault rng");
            if rng.chance(self.cfg.partial_write_per_mille) {
                Verdict::Tear
            } else if rng.chance(self.cfg.drop_per_mille) {
                Verdict::Drop
            } else {
                Verdict::Pass
            }
        };
        match verdict {
            Verdict::Tear => {
                // A torn write loses the frame and leaves the stream
                // desynced: poison, like TcpConn does for real.
                self.dead.store(true, Ordering::Release);
                Err(ConnError::Disconnected)
            }
            Verdict::Drop => Ok(()), // the frame silently vanishes
            Verdict::Pass => self.inner.send(frame),
        }
    }

    fn recv(&self) -> Result<Vec<u8>, ConnError> {
        if self.tick() {
            return Err(ConnError::Disconnected);
        }
        let frame = self.inner.recv()?;
        self.maybe_delay();
        Ok(frame)
    }

    fn try_recv(&self) -> Result<Vec<u8>, ConnError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(ConnError::Disconnected);
        }
        self.inner.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, ConnError> {
        if self.tick() {
            return Err(ConnError::Disconnected);
        }
        let frame = self.inner.recv_timeout(timeout)?;
        self.maybe_delay();
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::LocalConn;

    #[test]
    fn clean_plan_is_transparent() {
        let (a, b) = LocalConn::pair();
        let a = FaultyConn::new(a, FaultConfig::none(1));
        a.send(b"x").unwrap();
        assert_eq!(b.recv().unwrap(), b"x");
        b.send(b"y").unwrap();
        assert_eq!(a.recv().unwrap(), b"y");
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let observe = |seed: u64| -> Vec<bool> {
            let (a, b) = LocalConn::pair();
            let a = FaultyConn::new(a, FaultConfig::drops(seed, 500));
            let mut arrived = Vec::new();
            for i in 0..64u32 {
                a.send(&i.to_be_bytes()).unwrap();
                arrived.push(b.try_recv().is_ok());
            }
            arrived
        };
        let run1 = observe(42);
        let run2 = observe(42);
        let other = observe(43);
        assert_eq!(run1, run2, "same seed must drop the same frames");
        assert_ne!(run1, other, "different seeds should differ");
        assert!(run1.iter().any(|d| *d) && run1.iter().any(|d| !*d));
    }

    #[test]
    fn partial_write_poisons() {
        let (a, _b) = LocalConn::pair();
        let a = FaultyConn::new(a, FaultConfig::partial_writes(7, 1000));
        assert_eq!(a.send(b"x"), Err(ConnError::Disconnected));
        assert!(a.is_dead());
        assert_eq!(a.send(b"y"), Err(ConnError::Disconnected));
        assert_eq!(a.try_recv(), Err(ConnError::Disconnected));
    }

    #[test]
    fn forced_disconnect_after_planned_ops() {
        let (a, b) = LocalConn::pair();
        let a = FaultyConn::new(a, FaultConfig::disconnects(3, 4..5));
        for i in 0..4u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        assert_eq!(a.send(b"late"), Err(ConnError::Disconnected));
        assert!(a.is_dead());
        // The four earlier frames made it through untouched.
        for i in 0..4u32 {
            assert_eq!(b.recv().unwrap(), i.to_be_bytes());
        }
    }

    #[test]
    fn delays_preserve_content_and_order() {
        let (a, b) = LocalConn::pair();
        let a = FaultyConn::new(a, FaultConfig::delays(9, 1000, Duration::from_millis(2)));
        for i in 0..8u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..8u32 {
            assert_eq!(b.recv().unwrap(), i.to_be_bytes());
        }
    }

    #[test]
    fn reseeded_differs_from_base() {
        let base = FaultConfig::drops(5, 300);
        assert_ne!(base.reseeded(1).seed, base.seed);
        assert_ne!(base.reseeded(1).seed, base.reseeded(2).seed);
        assert_eq!(base.reseeded(1), base.reseeded(1));
    }
}
