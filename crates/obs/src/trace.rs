//! Causal op tracing with a bounded in-memory flight recorder.
//!
//! Every submission can carry a [`TraceId`] from the moment the client
//! creates it to the moment remote replicas absorb its broadcast. Each
//! pipeline stage stamps a fixed-size [`TraceEvent`] (stage tag, span id,
//! parent span, start offset, duration) into the process-global
//! [`FlightRecorder`] — a bounded ring of the most recent events behind
//! one lock. A stamp is in the ring when the call returns, so the ring
//! can be dumped at any time (tests, the `{"type":"trace_dump"}` wire
//! request, or a failing harness seed) as JSON lines and fed to
//! `trace-report` for per-stage latency attribution.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled is free-ish.** Every recording call site first checks
//!    [`enabled`] — one relaxed atomic load — and does nothing else when
//!    tracing is off (`OBS_TRACE=off`, the default).
//! 2. **A record is exact.** A write takes the ring's lock once and
//!    pushes its events under consecutive claim numbers; a dump copies
//!    the ring under the same lock, so it returns every retained event,
//!    whole, in claim order.
//! 3. **Bounded memory.** The ring holds [`DEFAULT_CAPACITY`] events;
//!    the oldest are evicted (a flight recorder keeps the recent window,
//!    which is exactly what a failing run needs).
//! 4. **Deterministic ids.** [`TraceId::derive`] and [`SpanId`]
//!    derivation are pure splitmix64 walks of a seed and a counter, so
//!    a seeded sim/harness run produces the same ids every time, and the
//!    client and server derive the *same* root span for a trace without
//!    shipping span ids over the wire.
//!
//! Sampling: `OBS_TRACE=off | sampled:<N> | all` ([`init_from_env`]).
//! Under `sampled:<N>` a trace records iff `id % N == 0`; the decision is
//! a pure function of the id, so every process that sees the id agrees.

use crate::metrics::HistogramSnapshot;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Identifies one end-to-end operation (0 = untraced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one stage-scoped span within a trace (0 = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The workspace's usual splitmix64 mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn nonzero(x: u64) -> u64 {
    if x == 0 {
        1
    } else {
        x
    }
}

impl TraceId {
    pub const NONE: TraceId = TraceId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Deterministically derives the `n`-th trace id of a seeded stream.
    /// Same `(seed, n)` → same id, in every process.
    pub fn derive(seed: u64, n: u64) -> TraceId {
        TraceId(nonzero(splitmix64(seed ^ splitmix64(n.wrapping_add(1)))))
    }

    /// [`derive`](Self::derive) gated by the current mode: returns
    /// [`TraceId::NONE`] unless tracing is enabled *and* the derived id
    /// passes the deterministic sampling filter. This is what clients
    /// call per submission.
    pub fn generate(seed: u64, n: u64) -> TraceId {
        let every = MODE.load(Ordering::Relaxed);
        if every == 0 {
            return TraceId::NONE;
        }
        let id = TraceId::derive(seed, n);
        if id.0.is_multiple_of(every) {
            id
        } else {
            TraceId::NONE
        }
    }

    /// Lower-case hex form used on the wire and in dumps.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() > 16 || s.is_empty() {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

const ROOT_SALT: u64 = 0x0BB6_77AE_8584_CAA7;
const SPAN_SALT: u64 = 0x3C6E_F372_FE94_F82B;

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The root span of a trace. Purely a function of the trace id, so
    /// client and server agree on it without shipping it over the wire.
    pub fn root(trace: TraceId) -> SpanId {
        SpanId(nonzero(splitmix64(trace.0 ^ ROOT_SALT)))
    }

    /// A deterministic child span id for `(trace, stage, salt)`. Stages
    /// that occur more than once per trace (broadcast fan-out, absorbs)
    /// disambiguate with `salt` (e.g. the seq or receiving worker).
    pub fn derive(trace: TraceId, stage: Stage, salt: u64) -> SpanId {
        let mix = ((stage as u64) << 56) ^ salt ^ SPAN_SALT;
        SpanId(nonzero(splitmix64(trace.0 ^ splitmix64(mix))))
    }
}

/// Lifecycle stage of a traced op. The numeric values are part of the
/// dump format; only append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client-side: submit issued → ack/err received (the whole op).
    ClientSubmit = 0,
    /// Server: op entered the batch pipeline queue.
    Enqueue = 1,
    /// Server: op admitted past admission control.
    Admit = 2,
    /// Server: op shed at batch formation, past its queue-wait budget.
    Shed = 3,
    /// Server: op rejected (admission or policy).
    Reject = 4,
    /// Server: batch formed; dur = the op's queue wait.
    BatchForm = 5,
    /// Server: backend apply (master table + CC reaction).
    Apply = 6,
    /// Server: WAL frame append covering this op.
    WalAppend = 7,
    /// Server: broadcast frame handed to one receiver's seat.
    Broadcast = 8,
    /// Client-side (receiver): broadcast entry absorbed into a replica.
    ClientAbsorb = 9,
    /// Server: ack/result frame written back to the submitter.
    Ack = 10,
}

pub const STAGES: [Stage; 11] = [
    Stage::ClientSubmit,
    Stage::Enqueue,
    Stage::Admit,
    Stage::Shed,
    Stage::Reject,
    Stage::BatchForm,
    Stage::Apply,
    Stage::WalAppend,
    Stage::Broadcast,
    Stage::ClientAbsorb,
    Stage::Ack,
];

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::ClientSubmit => "client_submit",
            Stage::Enqueue => "enqueue",
            Stage::Admit => "admit",
            Stage::Shed => "shed",
            Stage::Reject => "reject",
            Stage::BatchForm => "batch_form",
            Stage::Apply => "apply",
            Stage::WalAppend => "wal_append",
            Stage::Broadcast => "broadcast",
            Stage::ClientAbsorb => "client_absorb",
            Stage::Ack => "ack",
        }
    }

    pub fn parse(s: &str) -> Option<Stage> {
        STAGES.iter().copied().find(|st| st.as_str() == s)
    }
}

/// One recorded stage of one traced op. Fixed-size and `Copy`, so the
/// ring holds events by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub trace: TraceId,
    pub span: SpanId,
    /// Parent span ([`SpanId::NONE`] for the root).
    pub parent: SpanId,
    pub stage: Stage,
    /// Nanoseconds since this process's trace epoch (monotonic within a
    /// process; *not* comparable across processes).
    pub at_ns: u64,
    /// Stage duration; 0 for instantaneous stamps.
    pub dur_ns: u64,
    /// Stage-specific argument: seq for apply/absorb/ack, queue depth for
    /// enqueue/admit, batch size for batch_form, msg count for
    /// wal_append, receiving worker for broadcast, retry hint for reject.
    pub arg: u64,
}

impl TraceEvent {
    /// One dump line: a flat JSON object, ids in hex.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"stage\":\"{}\",\"at_ns\":{},\"dur_ns\":{},\"arg\":{}}}",
            self.trace.to_hex(),
            self.span.to_hex_span(),
            self.parent.to_hex_span(),
            self.stage.as_str(),
            self.at_ns,
            self.dur_ns,
            self.arg,
        )
    }

    /// Parses a line written by [`to_json_line`]. Returns `None` for
    /// anything malformed (missing key, bad hex, unknown stage).
    pub fn parse_json_line(line: &str) -> Option<TraceEvent> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        Some(TraceEvent {
            trace: TraceId::from_hex(json_str_field(line, "trace")?)?,
            span: SpanId(TraceId::from_hex(json_str_field(line, "span")?)?.0),
            parent: SpanId(TraceId::from_hex(json_str_field(line, "parent")?)?.0),
            stage: Stage::parse(json_str_field(line, "stage")?)?,
            at_ns: json_u64_field(line, "at_ns")?,
            dur_ns: json_u64_field(line, "dur_ns")?,
            arg: json_u64_field(line, "arg")?,
        })
    }
}

impl SpanId {
    fn to_hex_span(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Extracts `"key":"..."` from a flat one-line JSON object (the dump
/// format emits no escapes inside these values).
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts `"key":123` from a flat one-line JSON object.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Mode / sampling
// ---------------------------------------------------------------------------

/// Tracing mode. Encoded in one atomic word: 0 = off, 1 = all,
/// `n >= 2` = sampled one-in-`n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    Off,
    /// Record one in `N` traces (`N >= 2`; deterministic per id).
    Sampled(u32),
    All,
}

static MODE: AtomicU64 = AtomicU64::new(0);

impl TraceMode {
    /// Parses the `OBS_TRACE` syntax: `off | all | sampled:<N>`.
    pub fn parse(s: &str) -> Option<TraceMode> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("off") {
            return Some(TraceMode::Off);
        }
        if s.eq_ignore_ascii_case("all") {
            return Some(TraceMode::All);
        }
        let n = s
            .strip_prefix("sampled:")
            .or_else(|| s.strip_prefix("SAMPLED:"))?;
        let n: u32 = n.trim().parse().ok()?;
        Some(match n {
            0 => TraceMode::Off,
            1 => TraceMode::All,
            n => TraceMode::Sampled(n),
        })
    }

    fn encode(self) -> u64 {
        match self {
            TraceMode::Off => 0,
            TraceMode::All => 1,
            TraceMode::Sampled(n) => n.max(2) as u64,
        }
    }
}

/// Sets the process-wide tracing mode.
pub fn set_mode(mode: TraceMode) {
    MODE.store(mode.encode(), Ordering::Relaxed);
}

/// The current mode.
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::All,
        n => TraceMode::Sampled(n as u32),
    }
}

/// Whether any tracing is on. **This is the hot-path gate**: one relaxed
/// atomic load; when it returns `false` every instrumentation site
/// returns immediately.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// Configures tracing from `OBS_TRACE` (`off | sampled:<N> | all`,
/// default `off`). Called by [`crate::init_from_env`]; safe to call
/// repeatedly.
pub fn init_from_env() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if let Ok(v) = std::env::var("OBS_TRACE") {
            match TraceMode::parse(&v) {
                Some(m) => set_mode(m),
                None => {
                    eprintln!("obs: ignoring unknown OBS_TRACE={v:?} (want off|sampled:<N>|all)")
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------------

/// Default ring capacity (events). ~3.7 MB resident once full.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What the recorder's lock guards.
struct Ring {
    /// The retained events, oldest first; grows on demand up to
    /// [`FlightRecorder::capacity`].
    events: VecDeque<TraceEvent>,
    /// Claim counter: total events ever recorded. The event at index `i`
    /// holds claim `recorded - events.len() + i`.
    recorded: u64,
}

/// A bounded ring of the most recent [`TraceEvent`]s behind one lock.
///
/// A write locks once and pushes its events under consecutive claims,
/// evicting the oldest when the ring is full; a dump copies the ring
/// under the same lock. A stamping thread waits out a concurrent dump —
/// at most a copy of [`DEFAULT_CAPACITY`] events, and only when tracing
/// is on.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder that keeps the latest `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                recorded: 0,
            }),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (≥ what a dump can return).
    pub fn cursor(&self) -> u64 {
        self.ring.lock().recorded
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one event, evicting the oldest when the ring is full.
    pub fn record(&self, event: TraceEvent) {
        self.record_block(&[event]);
    }

    /// Records a batch under consecutive claims (one lock).
    pub fn record_block(&self, events: &[TraceEvent]) {
        let mut ring = self.ring.lock();
        for &event in events {
            if ring.events.len() == self.capacity {
                ring.events.pop_front();
            }
            ring.events.push_back(event);
        }
        ring.recorded += events.len() as u64;
    }

    /// Snapshot of the retained events as `(claim, event)` in claim
    /// order (claims are the global record order, and contiguous).
    pub fn dump_entries(&self) -> Vec<(u64, TraceEvent)> {
        let ring = self.ring.lock();
        let first = ring.recorded - ring.events.len() as u64;
        (first..).zip(ring.events.iter().copied()).collect()
    }

    /// The retained events in record order.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.dump_entries().into_iter().map(|(_, e)| e).collect()
    }

    /// The retained events recorded at or after `cursor` (a prior
    /// [`cursor`](Self::cursor) reading), for scoping a dump to one run.
    pub fn dump_since(&self, cursor: u64) -> Vec<TraceEvent> {
        self.dump_entries()
            .into_iter()
            .filter(|(claim, _)| *claim >= cursor)
            .map(|(_, e)| e)
            .collect()
    }

    /// The whole ring as JSON lines (the `trace_dump` wire payload).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.dump() {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Writes the ring to `<flight_dir>/flight-<label>.jsonl` and returns
    /// the path. `label` is sanitized to `[A-Za-z0-9._-]`.
    pub fn dump_to_file(&self, label: &str) -> std::io::Result<PathBuf> {
        let dir = flight_dir();
        std::fs::create_dir_all(&dir)?;
        let label: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        let path = dir.join(format!("flight-{label}.jsonl"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.dump_jsonl().as_bytes())?;
        f.sync_all()?;
        Ok(path)
    }
}

/// Where flight-record dumps land: `$CROWDFILL_FLIGHT_DIR`, else
/// `target/flight`.
pub fn flight_dir() -> PathBuf {
    match std::env::var("CROWDFILL_FLIGHT_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("flight"),
    }
}

/// The process-global recorder (allocated on first use).
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

// ---------------------------------------------------------------------------
// Stamping API
// ---------------------------------------------------------------------------

/// Records an instantaneous event (duration 0) for `trace`. No-op when
/// `trace` is [`TraceId::NONE`].
pub fn stamp(trace: TraceId, stage: Stage, parent: SpanId, salt: u64, arg: u64) {
    stamp_dur(trace, stage, parent, salt, arg, 0);
}

/// Records an event with an externally measured duration (e.g. a WAL
/// append shared by every op of a batch). No-op when `trace` is
/// [`TraceId::NONE`].
pub fn stamp_dur(trace: TraceId, stage: Stage, parent: SpanId, salt: u64, arg: u64, dur_ns: u64) {
    if trace.is_none() {
        return;
    }
    let recorder = recorder();
    recorder.record(TraceEvent {
        trace,
        span: SpanId::derive(trace, stage, salt),
        parent,
        stage,
        at_ns: recorder.now_ns().saturating_sub(dur_ns),
        dur_ns,
        arg,
    });
}

/// An open span: measures from construction to [`finish`](Self::finish)
/// (or drop) and records one event. Inert when the trace is
/// [`TraceId::NONE`] — constructing and dropping it costs a branch.
pub struct ActiveSpan {
    trace: TraceId,
    span: SpanId,
    parent: SpanId,
    stage: Stage,
    arg: u64,
    /// Recorder time the span opened at.
    at_ns: u64,
}

impl ActiveSpan {
    /// Opens a span. `salt` disambiguates repeated same-stage spans
    /// within one trace (use 0 for once-per-trace stages). When `trace`
    /// is none the guard is fully inert — no clock read.
    pub fn start(trace: TraceId, stage: Stage, parent: SpanId, salt: u64, arg: u64) -> ActiveSpan {
        let (span, at_ns) = if trace.is_none() {
            (SpanId::NONE, 0)
        } else {
            (SpanId::derive(trace, stage, salt), recorder().now_ns())
        };
        ActiveSpan {
            trace,
            span,
            parent,
            stage,
            arg,
            at_ns,
        }
    }

    /// Opens a *root* span (the op's whole lifetime; parent none, span id
    /// [`SpanId::root`]).
    pub fn root(trace: TraceId, stage: Stage) -> ActiveSpan {
        let mut s = ActiveSpan::start(trace, stage, SpanId::NONE, 0, 0);
        if !trace.is_none() {
            s.span = SpanId::root(trace);
        }
        s
    }

    /// This span's id, for parenting children.
    pub fn id(&self) -> SpanId {
        self.span
    }

    /// Ends the span now, recording it with `arg`.
    pub fn finish(mut self, arg: u64) {
        self.arg = arg;
        // Drop records.
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if self.trace.is_none() {
            return; // inert guard
        }
        let recorder = recorder();
        recorder.record(TraceEvent {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            stage: self.stage,
            at_ns: self.at_ns,
            dur_ns: recorder.now_ns().saturating_sub(self.at_ns),
            arg: self.arg,
        });
    }
}

// ---------------------------------------------------------------------------
// Dump analysis: span trees and per-stage summaries
// ---------------------------------------------------------------------------

/// Groups events by trace id (untraced events are skipped), preserving
/// input order within each trace.
pub fn by_trace(events: &[TraceEvent]) -> BTreeMap<TraceId, Vec<TraceEvent>> {
    let mut map: BTreeMap<TraceId, Vec<TraceEvent>> = BTreeMap::new();
    for ev in events {
        if !ev.trace.is_none() {
            map.entry(ev.trace).or_default().push(*ev);
        }
    }
    map
}

/// Validates that one trace's events form a single rooted span tree:
/// exactly one root span (parent none), every other span's parent
/// present, everything reachable from the root, and no span claimed by
/// two different parents. Events may repeat a span id (retries re-stamp
/// the same deterministic span); they count as one node.
pub fn validate_span_tree(events: &[TraceEvent]) -> Result<(), String> {
    if events.is_empty() {
        return Err("no events".into());
    }
    let trace = events[0].trace;
    let mut parents: BTreeMap<SpanId, SpanId> = BTreeMap::new();
    for ev in events {
        if ev.trace != trace {
            return Err(format!(
                "mixed traces: {} and {}",
                trace.to_hex(),
                ev.trace.to_hex()
            ));
        }
        match parents.get(&ev.span) {
            None => {
                parents.insert(ev.span, ev.parent);
            }
            Some(&p) if p == ev.parent => {}
            Some(&p) => {
                return Err(format!(
                    "span {} claimed by two parents ({} and {})",
                    ev.span.to_hex_span(),
                    p.to_hex_span(),
                    ev.parent.to_hex_span()
                ));
            }
        }
    }
    let roots: Vec<SpanId> = parents
        .iter()
        .filter(|(_, p)| p.is_none())
        .map(|(s, _)| *s)
        .collect();
    if roots.len() != 1 {
        return Err(format!("{} roots (want exactly 1)", roots.len()));
    }
    // Walk up from every span; must reach the root without a missing
    // link (the map is finite and acyclic iff every walk terminates).
    let root = roots[0];
    for (&span, _) in parents.iter() {
        let mut cur = span;
        let mut hops = 0;
        while cur != root {
            let Some(&p) = parents.get(&cur) else {
                return Err(format!(
                    "span {} has missing parent {}",
                    span.to_hex_span(),
                    cur.to_hex_span()
                ));
            };
            cur = p;
            hops += 1;
            if hops > parents.len() {
                return Err(format!("cycle reaching {}", span.to_hex_span()));
            }
        }
    }
    Ok(())
}

/// Per-stage duration distributions over a set of events, built on the
/// same [`HistogramSnapshot`] log-bucket + interpolation machinery the
/// Prometheus text export uses — so `trace-report` quantiles and metrics
/// quantiles agree by construction.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    /// Stage → duration snapshot (only stages that occurred).
    pub stages: BTreeMap<Stage, HistogramSnapshot>,
    pub events: u64,
    pub traces: u64,
}

impl TraceSummary {
    pub fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut stages: BTreeMap<Stage, HistogramSnapshot> = BTreeMap::new();
        let mut traces = BTreeSet::new();
        for ev in events {
            let snap = stages.entry(ev.stage).or_default();
            let i = crate::metrics::bucket_index(ev.dur_ns);
            snap.buckets[i] += 1;
            snap.count += 1;
            snap.sum = snap.sum.saturating_add(ev.dur_ns);
            snap.max = snap.max.max(ev.dur_ns);
            traces.insert(ev.trace);
        }
        TraceSummary {
            stages,
            events: events.len() as u64,
            traces: traces.len() as u64,
        }
    }

    /// Deterministic plain-text rendering (stages in enum order).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary: {} events, {} traces",
            self.events, self.traces
        );
        for (stage, snap) in self.stages.iter() {
            let p50 = snap.quantile(0.5).unwrap_or(0);
            let p99 = snap.quantile(0.99).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<14} count={:<8} p50={}ns p99={}ns max={}ns",
                stage.as_str(),
                snap.count,
                p50,
                p99,
                snap.max
            );
        }
        out
    }
}

/// Dumps the global flight recorder to `<flight_dir>/flight-<label>.jsonl`.
/// Returns `None` when the ring is empty (nothing was traced) or the
/// write failed — callers use this to attach evidence to a failure
/// without masking it.
pub fn dump_flight_record(label: &str) -> Option<PathBuf> {
    if recorder().cursor() == 0 {
        return None;
    }
    recorder().dump_to_file(label).ok()
}

/// Runs `f`; if it panics, dumps the global flight recorder to
/// `<flight_dir>/flight-<label>.jsonl` and re-panics with the dump path
/// appended to the original message. Harness entry points wrap their
/// assertion blocks in this so a failing seed ships its evidence.
pub fn dump_on_panic<R>(label: &str, f: impl FnOnce() -> R) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            match recorder().dump_to_file(label) {
                Ok(path) => panic!("{msg}\nflight record dumped to {}", path.display()),
                Err(e) => panic!("{msg}\n(flight record dump failed: {e})"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("ALL"), Some(TraceMode::All));
        assert_eq!(TraceMode::parse("sampled:8"), Some(TraceMode::Sampled(8)));
        assert_eq!(TraceMode::parse("sampled:1"), Some(TraceMode::All));
        assert_eq!(TraceMode::parse("sampled:0"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("bogus"), None);
        assert_eq!(TraceMode::parse("sampled:x"), None);
    }

    #[test]
    fn ids_are_deterministic_and_distinct() {
        assert_eq!(TraceId::derive(7, 0), TraceId::derive(7, 0));
        assert_ne!(TraceId::derive(7, 0), TraceId::derive(7, 1));
        assert_ne!(TraceId::derive(7, 0), TraceId::derive(8, 0));
        assert!(!TraceId::derive(0, 0).is_none());
        let t = TraceId::derive(7, 3);
        assert_eq!(SpanId::root(t), SpanId::root(t));
        assert_ne!(SpanId::root(t), SpanId::derive(t, Stage::Apply, 0));
        assert_ne!(
            SpanId::derive(t, Stage::Apply, 0),
            SpanId::derive(t, Stage::Apply, 1)
        );
    }

    #[test]
    fn hex_roundtrip() {
        let t = TraceId(0x0123_4567_89ab_cdef);
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        assert_eq!(TraceId::from_hex("zz"), None);
        assert_eq!(TraceId::from_hex(""), None);
    }

    #[test]
    fn stage_names_roundtrip() {
        for stage in STAGES {
            assert_eq!(Stage::parse(stage.as_str()), Some(stage));
        }
        assert_eq!(Stage::parse("nope"), None);
    }

    #[test]
    fn json_line_roundtrip() {
        let ev = TraceEvent {
            trace: TraceId(42),
            span: SpanId(7),
            parent: SpanId(0),
            stage: Stage::WalAppend,
            at_ns: 123_456,
            dur_ns: 789,
            arg: 3,
        };
        let line = ev.to_json_line();
        assert_eq!(TraceEvent::parse_json_line(&line), Some(ev));
        assert_eq!(TraceEvent::parse_json_line("not json"), None);
        assert_eq!(TraceEvent::parse_json_line("{\"trace\":\"1\"}"), None);
    }

    #[test]
    fn ring_records_and_wraps() {
        let r = FlightRecorder::with_capacity(8);
        assert_eq!(r.capacity(), 8);
        let ev = |n: u64| TraceEvent {
            trace: TraceId(1),
            span: SpanId(n + 1),
            parent: SpanId::NONE,
            stage: Stage::Apply,
            at_ns: n,
            dur_ns: 0,
            arg: n,
        };
        for n in 0..20 {
            r.record(ev(n));
        }
        let entries = r.dump_entries();
        assert_eq!(entries.len(), 8, "ring keeps exactly its capacity");
        // The retained window is the most recent 8 claims, in order.
        let claims: Vec<u64> = entries.iter().map(|(c, _)| *c).collect();
        assert_eq!(claims, (12..20).collect::<Vec<_>>());
        for (claim, event) in entries {
            assert_eq!(event.arg, claim);
        }
        assert_eq!(r.dump_since(18).len(), 2);
        assert_eq!(r.cursor(), 20);
    }

    #[test]
    fn a_stamp_inside_an_open_span_is_in_the_ring_when_it_returns() {
        let t = TraceId::derive(0x0B5E_7EAC_E000_0042, 0);
        let mine = |stage: Stage| {
            recorder()
                .dump()
                .iter()
                .any(|e| e.trace == t && e.stage == stage)
        };
        let root = ActiveSpan::root(t, Stage::ClientSubmit);
        stamp(t, Stage::Apply, root.id(), 0, 7);
        assert!(
            mine(Stage::Apply),
            "a stamp under an open span must not wait for it"
        );
        assert!(
            !mine(Stage::ClientSubmit),
            "an open span records when it closes"
        );
        drop(root);
        assert!(mine(Stage::ClientSubmit));
    }

    #[test]
    fn span_tree_validation() {
        let t = TraceId::derive(9, 9);
        let root = SpanId::root(t);
        let mk = |span: SpanId, parent: SpanId, stage: Stage| TraceEvent {
            trace: t,
            span,
            parent,
            stage,
            at_ns: 0,
            dur_ns: 0,
            arg: 0,
        };
        let apply = SpanId::derive(t, Stage::Apply, 0);
        let good = vec![
            mk(root, SpanId::NONE, Stage::ClientSubmit),
            mk(apply, root, Stage::Apply),
            mk(
                SpanId::derive(t, Stage::WalAppend, 0),
                root,
                Stage::WalAppend,
            ),
            // Repeated span id (retry) is one node, not a conflict.
            mk(apply, root, Stage::Apply),
        ];
        assert!(validate_span_tree(&good).is_ok());

        let orphan = vec![
            mk(root, SpanId::NONE, Stage::ClientSubmit),
            mk(apply, SpanId(12345), Stage::Apply),
        ];
        assert!(validate_span_tree(&orphan).is_err());

        let two_roots = vec![
            mk(root, SpanId::NONE, Stage::ClientSubmit),
            mk(apply, SpanId::NONE, Stage::Apply),
        ];
        assert!(validate_span_tree(&two_roots).is_err());
        assert!(validate_span_tree(&[]).is_err());
    }

    #[test]
    fn summary_renders_deterministically() {
        let t = TraceId::derive(1, 1);
        let events: Vec<TraceEvent> = (0..10)
            .map(|i| TraceEvent {
                trace: t,
                span: SpanId::derive(t, Stage::Apply, i),
                parent: SpanId::root(t),
                stage: Stage::Apply,
                at_ns: i,
                dur_ns: 100 * (i + 1),
                arg: i,
            })
            .collect();
        let a = TraceSummary::from_events(&events).render();
        let b = TraceSummary::from_events(&events).render();
        assert_eq!(a, b);
        assert!(a.contains("apply"));
        assert!(a.contains("10 events, 1 traces"));
    }

    #[test]
    fn generate_respects_sampling() {
        // Serialize against other tests poking the global mode.
        let _guard = crate::log::TEST_GLOBAL_LOCK.lock();
        let old = mode();
        set_mode(TraceMode::Off);
        assert!(TraceId::generate(1, 1).is_none());
        set_mode(TraceMode::All);
        assert!(!TraceId::generate(1, 1).is_none());
        set_mode(TraceMode::Sampled(4));
        let picked: Vec<u64> = (0..64)
            .filter(|&n| !TraceId::generate(1, n).is_none())
            .collect();
        assert!(!picked.is_empty() && picked.len() < 64, "1-in-4 sampling");
        for n in &picked {
            // Deterministic: the same (seed, n) samples the same way.
            assert!(!TraceId::generate(1, *n).is_none());
        }
        set_mode(old);
    }
}
