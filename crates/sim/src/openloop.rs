//! Seeded open-loop plans for the load harnesses.
//!
//! A closed-loop driver (each worker waits for its ack before the next op)
//! can never overload a server — it self-throttles to whatever the server
//! sustains. Overload needs *open-loop* arrivals: ops land on the wall
//! clock regardless of how the server is doing. This module generates
//! those plans as pure, deterministic data — a seed fully determines every
//! connect and fill time — and one shape, [`Plan`], serves every scenario,
//! so the one driver in `crowdfill-bench` replays identical storms against
//! a real `tcp_service` and asserts bounded queues, bounded ack latency,
//! and zero acked-submission loss (DESIGN.md §9, §13).
//!
//! Four storms, matching the classic failure stories, plus the
//! connection-scale plan:
//!
//! * [`burst`] — the whole offered load arrives in one short window
//!   (a crowd marketplace posting a batch of HITs);
//! * [`ramp`] — arrival rate grows linearly from zero (a task going
//!   viral), so the harness can watch admission kick in mid-run;
//! * [`stalled_reader`] — steady load plus readers that stop draining
//!   their connection, exercising the watermark downgrade/eviction path;
//! * [`thundering_herd`] — steady load with a mass disconnect at a fixed
//!   offset, after which every client reconnects and resumes at once;
//! * [`conn_scale`] — thousands of light sessions over many collections.

use crowdfill_obs::splitmix64;

/// One scheduled fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from harness start.
    pub at_ms: u64,
    /// Whether the op should be marked speculative (admitted only under
    /// slack; the first traffic shed as load rises).
    pub speculative: bool,
}

/// One worker session: which collection it attaches to, when it
/// connects, and when its fills go out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionPlan {
    /// Index of the worker (unique per session).
    pub worker: usize,
    /// Index of the collection this session attaches to, in
    /// `0..collections`.
    pub collection: usize,
    /// Connection offset from harness start.
    pub connect_at_ms: u64,
    /// This session's fills, sorted by `at_ms` (all `>= connect_at_ms`;
    /// ties keep generation order).
    pub fills: Vec<Arrival>,
}

/// A complete open-loop scenario: who connects where and when, what each
/// session submits when, plus the scenario-level events (stalled readers,
/// herd disconnect) the harness stages around the fills.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Scenario family (`burst`, `conn-scale`, ...), for reports.
    pub name: &'static str,
    /// The seed that generated everything below.
    pub seed: u64,
    /// Number of collections multiplexed on the one server port.
    pub collections: usize,
    /// One plan per worker, sorted by `connect_at_ms`.
    pub sessions: Vec<SessionPlan>,
    /// How many additional read-only observers connect and then *stop
    /// reading* their socket, to stage the slow-client path.
    pub stalled_readers: usize,
    /// If set, the harness forcibly drops every connection at this offset
    /// (`TcpService::disconnect_all`), staging a thundering-herd
    /// reconnect-and-resume storm.
    pub herd_disconnect_at_ms: Option<u64>,
}

impl Plan {
    /// Total scheduled fills.
    pub fn total_fills(&self) -> usize {
        self.sessions.iter().map(|s| s.fills.len()).sum()
    }
}

/// Tiny deterministic generator (the workspace's usual splitmix64 walk).
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Prng {
        Prng(splitmix64(seed ^ 0x6A09_E667_F3BC_C908))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A storm's plan: `workers` sessions on one collection, all connecting
/// at the start, each with its `(worker, arrival)` fills in time order.
fn storm(name: &'static str, seed: u64, workers: usize, fills: Vec<(usize, Arrival)>) -> Plan {
    let mut sessions: Vec<SessionPlan> = (0..workers)
        .map(|worker| SessionPlan {
            worker,
            ..SessionPlan::default()
        })
        .collect();
    for (worker, fill) in fills {
        sessions[worker].fills.push(fill);
    }
    for s in &mut sessions {
        s.fills.sort_by_key(|f| f.at_ms);
    }
    Plan {
        name,
        seed,
        collections: 1,
        sessions,
        ..Plan::default()
    }
}

/// Every op lands uniformly inside one short `window_ms`: the whole
/// offered load at once. `spec_per_mille` of arrivals (seeded choice) are
/// marked speculative.
pub fn burst(
    seed: u64,
    workers: usize,
    ops_per_worker: usize,
    window_ms: u64,
    spec_per_mille: u32,
) -> Plan {
    let mut rng = Prng::new(seed);
    let mut fills = Vec::with_capacity(workers * ops_per_worker);
    for worker in 0..workers {
        for _ in 0..ops_per_worker {
            let at_ms = rng.below(window_ms.max(1));
            let speculative = rng.below(1000) < spec_per_mille as u64;
            fills.push((worker, Arrival { at_ms, speculative }));
        }
    }
    storm("burst", seed, workers, fills)
}

/// Arrival rate grows linearly from zero over `duration_ms` (inverse-CDF
/// sampling: `t = duration · √u` puts twice the density at the end of the
/// run as a uniform draw would), so admission control engages mid-run.
pub fn ramp(seed: u64, workers: usize, total_ops: usize, duration_ms: u64) -> Plan {
    let mut rng = Prng::new(seed);
    let mut fills = Vec::with_capacity(total_ops);
    for _ in 0..total_ops {
        let at_ms = ((duration_ms as f64) * rng.next_f64().sqrt()) as u64;
        let worker = rng.below(workers.max(1) as u64) as usize;
        let speculative = false;
        fills.push((worker, Arrival { at_ms, speculative }));
    }
    storm("ramp", seed, workers, fills)
}

/// Steady uniform load from `workers` submitters while `stalled_readers`
/// extra observers connect and never read: broadcast fan-out to them must
/// hit the write-buffer watermark, not server memory.
pub fn stalled_reader(
    seed: u64,
    workers: usize,
    ops_per_worker: usize,
    window_ms: u64,
    stalled_readers: usize,
) -> Plan {
    let mut plan = burst(seed, workers, ops_per_worker, window_ms, 0);
    plan.name = "stalled-reader";
    plan.stalled_readers = stalled_readers;
    plan
}

/// Steady uniform load with every connection forcibly dropped at
/// `disconnect_at_ms`: the herd redials, resumes, and resubmits at once,
/// while admission control keeps the recovery storm bounded.
pub fn thundering_herd(
    seed: u64,
    workers: usize,
    ops_per_worker: usize,
    window_ms: u64,
    disconnect_at_ms: u64,
) -> Plan {
    let mut plan = burst(seed, workers, ops_per_worker, window_ms, 0);
    plan.name = "thundering-herd";
    plan.herd_disconnect_at_ms = Some(disconnect_at_ms);
    plan
}

/// A connection-scale scenario: many concurrent sessions spread across
/// many collections, each submitting a small number of fills. Unlike the
/// storms above, the load here is per-connection light — the stress is
/// the *number of live sockets and collections*, not the op rate, which
/// is what the sharded reactor exists to absorb. `workers` sessions are
/// assigned round-robin to `collections` (so every collection gets
/// within-one-of equal membership) and connect uniformly over
/// `connect_window_ms` (connections ramp in, so the accept path sees a
/// steady stream rather than one instantaneous herd), each submitting
/// `fills_per_worker` fills uniformly over the remainder of
/// `duration_ms`.
pub fn conn_scale(
    seed: u64,
    collections: usize,
    workers: usize,
    fills_per_worker: usize,
    connect_window_ms: u64,
    duration_ms: u64,
) -> Plan {
    let collections = collections.max(1);
    let mut rng = Prng::new(seed ^ 0xC0_11EC_7104);
    let mut sessions = Vec::with_capacity(workers);
    for worker in 0..workers {
        let connect_at_ms = rng.below(connect_window_ms.max(1));
        let span = duration_ms.saturating_sub(connect_at_ms).max(1);
        let mut fills: Vec<Arrival> = (0..fills_per_worker)
            .map(|_| Arrival {
                at_ms: connect_at_ms + rng.below(span),
                speculative: false,
            })
            .collect();
        fills.sort_by_key(|f| f.at_ms);
        sessions.push(SessionPlan {
            worker,
            collection: worker % collections,
            connect_at_ms,
            fills,
        });
    }
    sessions.sort_by_key(|s| s.connect_at_ms);
    Plan {
        name: "conn-scale",
        seed,
        collections,
        sessions,
        ..Plan::default()
    }
}

/// One scheduled species observation: at `at_ms`, `worker` contributes
/// an answer covering `species`. The estimator-accuracy experiments
/// (DESIGN.md §15) replay these through the progress estimator and
/// score it against the schedule's known ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeciesArrival {
    pub at_ms: u64,
    pub worker: usize,
    pub species: u64,
}

/// A seeded species-arrival scenario with known ground truth: the
/// estimator sees the arrivals in order; the harness knows the full
/// realized richness ([`true_richness`](Self::true_richness)) and can
/// score completeness estimates at any prefix.
#[derive(Debug, Clone)]
pub struct SpeciesSchedule {
    pub name: &'static str,
    pub seed: u64,
    pub workers: usize,
    /// Size of the underlying uniform/Zipf pool the crowd draws from
    /// (streaker uniques land *outside* this pool, so realized richness
    /// can exceed it).
    pub pool: u64,
    /// Observations, sorted by `at_ms` (ties keep generation order).
    pub arrivals: Vec<SpeciesArrival>,
}

impl SpeciesSchedule {
    /// Ground truth: distinct species the full schedule realizes.
    pub fn true_richness(&self) -> u64 {
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for a in &self.arrivals {
            seen.insert(a.species);
        }
        seen.len() as u64
    }

    /// The last arrival offset (0 for an empty schedule).
    pub fn horizon_ms(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at_ms)
    }
}

fn finish_species(
    name: &'static str,
    seed: u64,
    workers: usize,
    pool: u64,
    mut arrivals: Vec<SpeciesArrival>,
) -> SpeciesSchedule {
    arrivals.sort_by_key(|a| a.at_ms);
    SpeciesSchedule {
        name,
        seed,
        workers,
        pool,
        arrivals,
    }
}

/// Crowd draws from a `pool` with Zipf-skewed popularity (`skew` 0 =
/// uniform; 1 ≈ classic Zipf): common answers arrive constantly, rare
/// ones straggle in — the frequency skew Chao92's γ² correction exists
/// for. Arrival times are uniform over `duration_ms`; workers are drawn
/// uniformly, so the crowd is homogeneous.
pub fn species_zipf(
    seed: u64,
    workers: usize,
    pool: u64,
    total_obs: usize,
    duration_ms: u64,
    skew: f64,
) -> SpeciesSchedule {
    let pool = pool.max(1);
    let mut rng = Prng::new(seed ^ 0x5bec_1e5a);
    // Cumulative popularity weights w_i = 1/(i+1)^skew.
    let mut cum = Vec::with_capacity(pool as usize);
    let mut total = 0.0f64;
    for i in 0..pool {
        total += 1.0 / ((i + 1) as f64).powf(skew);
        cum.push(total);
    }
    let mut arrivals = Vec::with_capacity(total_obs);
    for _ in 0..total_obs {
        let u = rng.next_f64() * total;
        let species = cum.partition_point(|&c| c < u) as u64;
        arrivals.push(SpeciesArrival {
            at_ms: rng.below(duration_ms.max(1)),
            worker: rng.below(workers.max(1) as u64) as usize,
            species: species.min(pool - 1),
        });
    }
    finish_species("species-zipf", seed, workers, pool, arrivals)
}

/// A homogeneous crowd drawing uniformly from `pool`, plus `streakers`
/// extra workers who only ever contribute brand-new species (ids outside
/// the pool) at `streaker_share` of the total stream: the non-uniform
/// arrival process from "Getting It All from the Crowd" that breaks
/// plain Chao92 and motivates the streaker-corrected `f1′`.
pub fn species_streakers(
    seed: u64,
    workers: usize,
    pool: u64,
    total_obs: usize,
    duration_ms: u64,
    streakers: usize,
    streaker_share: f64,
) -> SpeciesSchedule {
    let pool = pool.max(1);
    let mut rng = Prng::new(seed ^ 0x57ea_ce55);
    let mut arrivals = Vec::with_capacity(total_obs);
    let mut next_unique = pool;
    for _ in 0..total_obs {
        let at_ms = rng.below(duration_ms.max(1));
        if streakers > 0 && rng.next_f64() < streaker_share {
            // A streaker's answer: always novel, never seen again.
            arrivals.push(SpeciesArrival {
                at_ms,
                worker: workers + rng.below(streakers as u64) as usize,
                species: next_unique,
            });
            next_unique += 1;
        } else {
            arrivals.push(SpeciesArrival {
                at_ms,
                worker: rng.below(workers.max(1) as u64) as usize,
                species: rng.below(pool),
            });
        }
    }
    finish_species("species-streakers", seed, workers, pool, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The last scheduled event (connect or fill).
    fn horizon_ms(plan: &Plan) -> u64 {
        let last = |s: &SessionPlan| s.fills.last().map_or(s.connect_at_ms, |f| f.at_ms);
        plan.sessions.iter().map(last).max().unwrap_or(0)
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = burst(42, 8, 10, 100, 250);
        let b = burst(42, 8, 10, 100, 250);
        assert_eq!(a.sessions, b.sessions);
        let c = burst(43, 8, 10, 100, 250);
        assert_ne!(a.sessions, c.sessions, "different seed, different storm");
    }

    #[test]
    fn burst_shape() {
        let s = burst(7, 16, 5, 50, 500);
        assert_eq!(s.total_fills(), 80);
        assert!(horizon_ms(&s) < 50);
        let fills = s.sessions.iter().flat_map(|s| &s.fills);
        let spec = fills.filter(|a| a.speculative).count();
        assert!(spec > 10 && spec < 70, "~half speculative, got {spec}");
        assert_eq!(s.sessions.len(), 16);
        for w in &s.sessions {
            assert_eq!((w.collection, w.connect_at_ms, w.fills.len()), (0, 0, 5));
            assert!(w.fills.windows(2).all(|f| f[0].at_ms <= f[1].at_ms));
        }
    }

    #[test]
    fn ramp_back_half_denser_than_front_half() {
        let s = ramp(11, 8, 1000, 1000);
        let mid = 500;
        let fills = s.sessions.iter().flat_map(|s| &s.fills);
        let front = fills.filter(|a| a.at_ms < mid).count();
        let back = s.total_fills() - front;
        assert!(
            back > front + front / 2,
            "ramp must lean late: front={front} back={back}"
        );
    }

    #[test]
    fn conn_scale_is_deterministic_and_balanced() {
        let a = conn_scale(9, 16, 1000, 3, 200, 2000);
        let b = conn_scale(9, 16, 1000, 3, 200, 2000);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.sessions.len(), 1000);
        assert_eq!(a.total_fills(), 3000);
        assert!(horizon_ms(&a) < 2000);
        // Round-robin assignment: every collection within one of equal.
        for c in 0..16 {
            let n = a.sessions.iter().filter(|s| s.collection == c).count();
            assert!((62..=63).contains(&n), "collection {c} got {n} sessions");
        }
        // Fills never precede their session's connect.
        for s in &a.sessions {
            assert!(s.fills.iter().all(|f| f.at_ms >= s.connect_at_ms));
            assert!(s.fills.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        }
        // Connections ramp in rather than landing at once.
        assert!(a
            .sessions
            .windows(2)
            .all(|w| w[0].connect_at_ms <= w[1].connect_at_ms));
        let c = conn_scale(10, 16, 1000, 3, 200, 2000);
        assert_ne!(a.sessions, c.sessions, "different seed, different plan");
    }

    #[test]
    fn species_schedules_are_deterministic_with_known_truth() {
        let a = species_zipf(5, 6, 50, 400, 1000, 1.0);
        let b = species_zipf(5, 6, 50, 400, 1000, 1.0);
        assert_eq!(a.arrivals, b.arrivals);
        assert_ne!(a.arrivals, species_zipf(6, 6, 50, 400, 1000, 1.0).arrivals);
        assert!(a.arrivals.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // 400 Zipf draws from 50: most of the pool realized, none beyond.
        assert!(a.true_richness() <= 50);
        assert!(a.true_richness() > 25, "{}", a.true_richness());
        // Skew concentrates: the most common species beats uniform share.
        let mut counts = std::collections::HashMap::new();
        for x in &a.arrivals {
            *counts.entry(x.species).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 400 / 50 * 3, "zipf head too flat: {max}");
    }

    #[test]
    fn streaker_schedule_adds_uniques_beyond_the_pool() {
        let s = species_streakers(8, 5, 40, 500, 1000, 2, 0.2);
        let uniques = s.arrivals.iter().filter(|a| a.species >= 40).count();
        // ~20% of 500 arrivals are streaker uniques.
        assert!((60..=140).contains(&uniques), "{uniques}");
        // Streaker workers index beyond the crowd.
        assert!(s
            .arrivals
            .iter()
            .filter(|a| a.species >= 40)
            .all(|a| a.worker >= 5));
        // Every streaker species appears exactly once.
        let mut counts = std::collections::HashMap::new();
        for a in s.arrivals.iter().filter(|a| a.species >= 40) {
            *counts.entry(a.species).or_insert(0u64) += 1;
        }
        assert!(counts.values().all(|&c| c == 1));
        assert_eq!(s.true_richness(), 40 + uniques as u64);
        assert_eq!(
            s.arrivals,
            species_streakers(8, 5, 40, 500, 1000, 2, 0.2).arrivals
        );
    }

    #[test]
    fn scenario_events_carried() {
        let s = stalled_reader(3, 4, 2, 20, 3);
        assert_eq!(s.stalled_readers, 3);
        assert_eq!(s.name, "stalled-reader");
        let h = thundering_herd(3, 4, 2, 200, 80);
        assert_eq!(s.total_fills(), h.total_fills());
        assert_eq!(h.herd_disconnect_at_ms, Some(80));
        assert_eq!(h.name, "thundering-herd");
    }
}
