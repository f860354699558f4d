//! The batched op pipeline: a collection's admission queue and the batches
//! formed from it. It owns no thread — whoever drives it ([`admit`], then
//! [`apply`] once [`due`] says so) does the work on its own: the reactor
//! shard that owns the collection, inside the sweep that read the frames
//! (`reactor.rs`), or a lone caller through [`submit`], which is those
//! steps in a row.
//!
//! A batch is whatever queued since the last one, up to
//! [`BatchOptions::max_batch`]: one backend lock acquisition (the
//! caller's), one journal frame + fsync, per-op semantics identical to
//! singleton submits. On a shard that is what one wake read off its ready
//! sockets; under light load batches degenerate to singletons.
//! [`BatchOptions::max_wait`] trades latency for fuller batches: [`due`]
//! then names a deadline instead of "now", which the shard keeps in its
//! timer heap. The window's jobs wait in the queue, so they count against
//! `max_queue`.
//!
//! The queue is the server's admission point (DESIGN.md §9): it is
//! bounded at [`OverloadOptions::max_queue`] jobs, speculative traffic is
//! turned away once depth reaches [`OverloadOptions::spec_queue`], and a
//! job taken after more than [`OverloadOptions::shed_after`] (+ the fill
//! window) of queue wait is shed — answered [`SubmitError::Overloaded`]
//! without ever touching the backend. Shedding therefore always happens
//! *before* the ack: an op that was acked was applied and journaled, so
//! overload can never lose acked work. Every decision takes its clock
//! reading as an argument; the tests pass the `Instant`s they mean.
//!
//! It counts nothing itself: a refusal is the [`admit`] error, and each
//! [`Settled`] carries its queue wait and, unless it was shed, its
//! latency — what the driving shard records into its service's
//! instruments.
//!
//! [`admit`]: BatchPipeline::admit
//! [`apply`]: BatchPipeline::apply
//! [`due`]: BatchPipeline::due
//! [`submit`]: BatchPipeline::submit

use crate::backend::{Backend, BatchJob, BatchOp, SubmitError, SubmitReport};
use crate::overload::{OverloadOptions, Priority};
use crowdfill_obs::trace::{self as obstrace, SpanId, Stage, TraceId};
use crowdfill_pay::{Millis, WorkerId};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Most ops applied per batch (bounds broadcast frame size and the
    /// time the backend lock is held).
    pub max_batch: usize,
    /// After the first op of a batch arrives, wait up to this long for more
    /// before applying. Zero (the default) means drain-only: apply whatever
    /// has already queued, never delay an op.
    pub max_wait: std::time::Duration,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            max_batch: 64,
            max_wait: std::time::Duration::ZERO,
        }
    }
}

/// One op offered to [`BatchPipeline::admit`].
#[derive(Debug)]
pub struct Submission {
    /// The caller's name for the op, handed back in its [`Settled`] (a
    /// shard passes the connection's token). `u64::MAX` is
    /// [`BatchPipeline::submit`]'s.
    pub ticket: u64,
    pub worker: WorkerId,
    pub op: BatchOp,
    pub priority: Priority,
    /// Stamps `enqueue` + `admit` (or `reject`), `batch_form` (or `shed`)
    /// under the op's root span; [`TraceId::NONE`] stamps nothing.
    pub trace: TraceId,
}

/// The answer to one admitted op: an ack or a reject from the backend, or
/// [`SubmitError::Overloaded`] if it was shed.
#[derive(Debug)]
pub struct Settled {
    pub ticket: u64,
    pub trace: TraceId,
    /// Its queue wait up to the batch that took it, in nanoseconds.
    pub waited_ns: u64,
    /// Admission to the backend's answer, in nanoseconds; `None`: it was
    /// shed, never applied.
    pub latency_ns: Option<u64>,
    /// A modify bundle, not a plain message.
    pub modify: bool,
    pub result: Result<SubmitReport, SubmitError>,
}

/// The ticket of [`BatchPipeline::submit`]'s own op.
const DIRECT: u64 = u64::MAX;

/// One collection's admission queue in front of a shared [`Backend`].
///
/// A plain struct: it is driven from one thread at a time (it is `Send`,
/// not `Sync`), and the only lock it ever takes is the backend's, in
/// [`submit`](Self::submit).
pub struct BatchPipeline {
    backend: Arc<Mutex<Backend>>,
    clock: Box<dyn Fn() -> Millis + Send>,
    after_batch: Box<dyn Fn() + Send>,
    max_batch: usize,
    max_wait: Duration,
    overload: OverloadOptions,
    /// Admitted, not yet taken; oldest first.
    queue: RefCell<VecDeque<(Submission, Instant)>>,
}

impl BatchPipeline {
    /// Spawns nothing. `clock` supplies the server timestamp for each
    /// batch; `after_batch` runs after every batch [`submit`](Self::submit)
    /// applied, the backend lock released (the TCP service delivers inside
    /// its own sweep and passes a no-op).
    pub fn start(
        backend: Arc<Mutex<Backend>>,
        clock: Box<dyn Fn() -> Millis + Send>,
        after_batch: Box<dyn Fn() + Send>,
        options: BatchOptions,
        overload: OverloadOptions,
    ) -> BatchPipeline {
        BatchPipeline {
            backend,
            clock,
            after_batch,
            max_batch: options.max_batch.max(1),
            max_wait: options.max_wait,
            overload,
            queue: RefCell::new(VecDeque::new()),
        }
    }

    /// Jobs currently queued (admitted, not yet taken into a batch).
    pub fn queue_depth(&self) -> usize {
        self.queue.borrow().len()
    }

    /// One op, start to finish, on the caller's thread: admitted and
    /// applied at once (a lone caller has nobody to wait
    /// `max_wait` for), returning exactly what a direct
    /// `submit`/`submit_modify` would have. Whatever else was queued rides
    /// along and its answers are dropped: do not mix with
    /// [`admit`](Self::admit).
    pub fn submit(&self, worker: WorkerId, op: BatchOp) -> Result<SubmitReport, SubmitError> {
        let now = Instant::now();
        let job = Submission {
            ticket: DIRECT,
            worker,
            op,
            priority: Priority::Normal,
            trace: TraceId::NONE,
        };
        self.admit(job, now)?;
        // Every batch removes at least one job, and the op sits in the
        // queue until one removes it.
        loop {
            let settled = self.apply(now, &mut self.backend.lock());
            (self.after_batch)();
            if let Some(own) = settled.into_iter().rfind(|s| s.ticket == DIRECT) {
                return own.result;
            }
        }
    }

    /// The admission decision, at clock reading `at`.
    ///
    /// Speculative jobs are admitted only while queue depth is below
    /// [`OverloadOptions::spec_queue`]; every class is rejected once the
    /// queue holds [`OverloadOptions::max_queue`]. A rejection never
    /// reaches the backend: the op was not applied, not journaled, and not
    /// acked.
    pub fn admit(&self, job: Submission, at: Instant) -> Result<(), SubmitError> {
        let (trace, root) = (job.trace, SpanId::root(job.trace));
        let mut queue = self.queue.borrow_mut();
        let depth = queue.len();
        obstrace::stamp(trace, Stage::Enqueue, root, 0, depth as u64);
        let full = depth >= self.overload.max_queue.max(1);
        let gated = job.priority == Priority::Speculative && depth >= self.overload.spec_queue;
        if full || gated {
            let retry_after_ms = self.overload.retry_after_ms(depth);
            obstrace::stamp(trace, Stage::Reject, root, 0, retry_after_ms);
            return Err(SubmitError::Overloaded { retry_after_ms });
        }
        queue.push_back((job, at));
        obstrace::stamp(trace, Stage::Admit, root, 0, depth as u64 + 1);
        Ok(())
    }

    /// When the next batch wants applying: `None` with nothing queued, the
    /// oldest job's admission (that is: now) once it need not wait for
    /// company — no fill window, or a full batch — and the end of its
    /// window otherwise.
    pub fn due(&self) -> Option<Instant> {
        let queue = self.queue.borrow();
        let (_, oldest) = queue.front()?;
        let full = queue.len() >= self.max_batch;
        Some(*oldest + if full { Duration::ZERO } else { self.max_wait })
    }

    /// Forms a batch at clock reading `now` — up to `max_batch` jobs off the
    /// queue's head — and applies it under the caller's backend lock: one
    /// [`Backend::submit_batch`], so one journal frame. Answers everything
    /// it removed, in queue order. A job that waited past the budget is
    /// shed instead of applied; the fill window is excluded from its bill
    /// (holding jobs back to fatten batches is the server's choice, not
    /// queue pressure).
    pub fn apply(&self, now: Instant, backend: &mut Backend) -> Vec<Settled> {
        let shed_budget = self.overload.shed_after + self.max_wait;
        let mut queue = self.queue.borrow_mut();
        let (mut settled, mut jobs, mut applied) = (Vec::new(), Vec::new(), Vec::new());
        while jobs.len() < self.max_batch {
            let Some((job, admitted)) = queue.pop_front() else {
                break;
            };
            let waited = now.saturating_duration_since(admitted);
            let waited_ns = waited.as_nanos() as u64;
            let (trace, root) = (job.trace, SpanId::root(job.trace));
            let modify = matches!(job.op, BatchOp::Modify { .. });
            let result = if waited > shed_budget {
                // Shed: the op was never applied, so the reject is safe —
                // the client retries or gives up, but no acked state is
                // involved.
                obstrace::stamp_dur(trace, Stage::Shed, root, 0, 0, waited_ns);
                let retry_after_ms = self.overload.retry_after_ms(queue.len());
                SubmitError::Overloaded { retry_after_ms }
            } else {
                // `batch_form`: the op made it into a batch; its duration
                // is the queue wait it paid to get there.
                let size = jobs.len() as u64 + 1;
                obstrace::stamp_dur(trace, Stage::BatchForm, root, 0, size, waited_ns);
                applied.push((settled.len(), job.worker, admitted));
                let (worker, op) = (job.worker, job.op);
                jobs.push(BatchJob { worker, op, trace });
                SubmitError::CollectionClosed // until the batch's outcome replaces it
            };
            settled.push(Settled {
                ticket: job.ticket,
                trace,
                waited_ns,
                latency_ns: None,
                modify,
                result: Err(result),
            });
        }
        drop(queue);
        if jobs.is_empty() {
            return settled; // nothing queued, or all of it shed
        }
        let outcome = backend.submit_batch(jobs, (self.clock)());
        for ((i, worker, admitted), result) in applied.into_iter().zip(outcome.results) {
            let latency = admitted.elapsed().as_nanos() as u64;
            settled[i].latency_ns = Some(latency);
            // The worker's own ack latency (its health row), submits only.
            if !settled[i].modify {
                backend.record_ack(worker, latency);
            }
            settled[i].result = result;
        }
        settled
    }
}
