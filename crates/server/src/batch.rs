//! The batched op pipeline: a single apply thread that drains queued
//! submissions into [`Backend::submit_batch`] calls.
//!
//! Submitters don't touch the backend on the submit hot path; they enqueue
//! a [`BatchOp`] with a reply callback (the blocking calls wait on a
//! one-shot channel, a reactor shard has the result pushed onto its wake
//! queue). The apply thread drains whatever has queued (up to
//! [`BatchOptions::max_batch`]), applies it as one batch — one backend lock
//! acquisition, one journal frame + fsync, per-op semantics identical to
//! singleton submits — answers every submitter, and then triggers one
//! broadcast flush for the batch's whole seq range.
//!
//! Batches form from natural queuing: while a batch is being applied,
//! concurrent submitters pile up in the channel and become the next batch.
//! Under light load batches degenerate to singletons and the pipeline
//! behaves exactly like the direct path (plus one thread hop);
//! [`BatchOptions::max_wait`] can trade latency for fuller batches.
//!
//! The queue is the server's admission point (DESIGN.md §9): it is
//! bounded at [`OverloadOptions::max_queue`] jobs, speculative traffic is
//! turned away once depth reaches [`OverloadOptions::spec_queue`], and a
//! job the apply thread picks up after more than
//! [`OverloadOptions::shed_after`] (+ the fill window) of queue wait is
//! shed — answered [`SubmitError::Overloaded`] without ever touching the
//! backend. Shedding therefore always happens *before* the ack: an op
//! that was acked was applied and journaled, so overload can never lose
//! acked work.
//!
//! The pipeline owns its thread: dropping the [`BatchPipeline`] closes
//! the queue, lets the apply thread answer what is still in it, and joins
//! it — so a stopped service holds no backend (DESIGN.md §13.1, *stop
//! means stopped*).

use crate::backend::{Backend, BatchJob, BatchOp, SubmitError, SubmitReport};
use crate::overload::{OverloadOptions, Priority};
use crossbeam::channel::{self, TrySendError};
use crowdfill_obs::metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};
use crowdfill_obs::trace::{self as obstrace, SpanId, Stage, TraceId};
use crowdfill_pay::{Millis, WorkerId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Batching knobs for the apply thread.
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

fn m_queue_depth() -> &'static Arc<Gauge> {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| gauge("crowdfill_server_queue_depth"))
}
fn m_overload_rejects() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| counter("crowdfill_server_overload_rejects"))
}
fn m_sheds() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| counter("crowdfill_server_sheds"))
}
fn m_queue_wait() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| histogram("crowdfill_server_queue_wait_ns"))
}
fn m_ack_latency() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| histogram("crowdfill_server_ack_latency_ns"))
}

/// How an admitted job's ack/reject travels back: called exactly once,
/// on the apply thread.
type ReplyFn = Box<dyn FnOnce(Result<SubmitReport, SubmitError>) + Send>;

/// A job's reply callback. A job dropped unanswered (the apply thread
/// died with it queued) answers [`SubmitError::CollectionClosed`], so no
/// submitter waits forever.
struct ReplyTo(Option<ReplyFn>);

impl ReplyTo {
    fn send(mut self, result: Result<SubmitReport, SubmitError>) {
        if let Some(reply) = self.0.take() {
            reply(result);
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(reply) = self.0.take() {
            reply(Err(SubmitError::CollectionClosed));
        }
    }
}

/// One queued submission: the op, its submitter, the callback its
/// ack/reject travels back on, and when it entered the queue (for
/// shedding and latency accounting).
struct PipelineJob {
    worker: WorkerId,
    op: BatchOp,
    reply: ReplyTo,
    enqueued: Instant,
    trace: TraceId,
}

/// A running batch pipeline around a shared [`Backend`].
///
/// Dropping the pipeline closes the job channel — the apply thread applies
/// and answers what is still queued, then returns — and joins the thread:
/// once the drop returns, the pipeline's handle on the backend is gone.
pub struct BatchPipeline {
    /// `None` only inside `drop`.
    tx: Option<channel::Sender<PipelineJob>>,
    apply: Option<std::thread::JoinHandle<()>>,
    /// Jobs enqueued but not yet picked up by the apply thread. Kept
    /// alongside the channel (rather than using `Receiver::len`) so the
    /// submit path can make admission decisions without the receiver.
    depth: Arc<AtomicUsize>,
    overload: OverloadOptions,
}

impl BatchPipeline {
    /// Spawns the apply thread. `clock` supplies the server timestamp for
    /// each batch; `after_batch` runs after every applied batch (the TCP
    /// service flushes broadcast outboxes there; tests can pass a no-op and
    /// poll the backend directly).
    pub fn start(
        backend: Arc<Mutex<Backend>>,
        clock: Box<dyn Fn() -> Millis + Send>,
        after_batch: Box<dyn Fn() + Send>,
        options: BatchOptions,
        overload: OverloadOptions,
    ) -> BatchPipeline {
        let (tx, rx) = channel::bounded::<PipelineJob>(overload.max_queue.max(1));
        let depth = Arc::new(AtomicUsize::new(0));
        let max_batch = options.max_batch.max(1);
        // A job is shed if it waited past the budget. The fill window is
        // excluded from the job's bill: with a long `max_wait` the apply
        // thread itself holds jobs back to fatten batches, and that delay
        // is the server's choice, not queue pressure.
        let shed_budget = overload.shed_after + options.max_wait;
        let retry = overload.clone();
        let thread_depth = Arc::clone(&depth);
        let apply = std::thread::Builder::new()
            .name("crowdfill-batch-apply".into())
            .spawn(move || {
                let take = |job: PipelineJob, jobs: &mut Vec<PipelineJob>| {
                    thread_depth.fetch_sub(1, Ordering::Relaxed);
                    m_queue_depth().add(-1);
                    let waited = job.enqueued.elapsed();
                    m_queue_wait().record(waited.as_nanos() as u64);
                    if waited > shed_budget {
                        // Shed: the op was never applied, so the reject is
                        // safe — the client retries or gives up, but no
                        // acked state is involved.
                        m_sheds().inc();
                        obstrace::stamp_dur(
                            job.trace,
                            Stage::Shed,
                            SpanId::root(job.trace),
                            0,
                            0,
                            waited.as_nanos() as u64,
                        );
                        let hint = retry.retry_after_ms(thread_depth.load(Ordering::Relaxed));
                        job.reply.send(Err(SubmitError::Overloaded {
                            retry_after_ms: hint,
                        }));
                    } else {
                        // `batch_form`: the op made it into a batch; its
                        // duration is the queue wait it paid to get there.
                        obstrace::stamp_dur(
                            job.trace,
                            Stage::BatchForm,
                            SpanId::root(job.trace),
                            0,
                            jobs.len() as u64 + 1,
                            waited.as_nanos() as u64,
                        );
                        jobs.push(job);
                    }
                };
                loop {
                    let first = match rx.recv() {
                        Ok(job) => job,
                        Err(_) => return,
                    };
                    let mut jobs = Vec::new();
                    take(first, &mut jobs);
                    while jobs.len() < max_batch {
                        match rx.try_recv() {
                            Ok(job) => take(job, &mut jobs),
                            Err(_) => break,
                        }
                    }
                    if !jobs.is_empty() && jobs.len() < max_batch && !options.max_wait.is_zero() {
                        let deadline = Instant::now() + options.max_wait;
                        while jobs.len() < max_batch {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            match rx.recv_timeout(deadline - now) {
                                Ok(job) => take(job, &mut jobs),
                                Err(_) => break,
                            }
                        }
                    }
                    if jobs.is_empty() {
                        // Everything drained this round was shed.
                        continue;
                    }
                    let enqueued_at: Vec<Instant> = jobs.iter().map(|j| j.enqueued).collect();
                    let (batch, replies): (Vec<BatchJob>, Vec<_>) = jobs
                        .into_iter()
                        .map(|j| {
                            (
                                BatchJob {
                                    worker: j.worker,
                                    op: j.op,
                                    trace: j.trace,
                                },
                                j.reply,
                            )
                        })
                        .unzip();
                    let outcome = backend.lock().submit_batch(batch, clock());
                    for ((reply, result), enqueued) in
                        replies.into_iter().zip(outcome.results).zip(enqueued_at)
                    {
                        m_ack_latency().record(enqueued.elapsed().as_nanos() as u64);
                        reply.send(result);
                    }
                    after_batch();
                }
            })
            // A failed spawn dropped the receiver with the closure: every
            // submit then answers `CollectionClosed`.
            .ok();
        BatchPipeline {
            tx: Some(tx),
            apply,
            depth,
            overload,
        }
    }

    /// Jobs currently queued (enqueued, not yet picked up for apply).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Enqueues one op and blocks until its batch has been applied,
    /// returning exactly what a direct `submit`/`submit_modify` would have.
    pub fn submit(&self, worker: WorkerId, op: BatchOp) -> Result<SubmitReport, SubmitError> {
        self.submit_classified(worker, op, Priority::Normal)
    }

    /// [`submit`](BatchPipeline::submit) with an explicit admission class.
    ///
    /// Speculative jobs are admitted only while queue depth is below
    /// [`OverloadOptions::spec_queue`]; every class is rejected once the
    /// queue is full. A rejection never reaches the backend: the op was
    /// not applied, not journaled, and not acked.
    pub fn submit_classified(
        &self,
        worker: WorkerId,
        op: BatchOp,
        priority: Priority,
    ) -> Result<SubmitReport, SubmitError> {
        let (reply_tx, reply_rx) = channel::bounded(1);
        let reply = move |result| {
            let _ = reply_tx.send(result);
        };
        match self.submit_async(worker, op, priority, TraceId::NONE, reply) {
            AsyncSubmit::Done(result) => result,
            AsyncSubmit::Pending => reply_rx
                .recv()
                .unwrap_or(Err(SubmitError::CollectionClosed)),
        }
    }

    /// Nonblocking enqueue for reactor threads: admission control runs
    /// inline (so overload rejects are still immediate — `reply` is then
    /// dropped uncalled), but an admitted job's ack is delivered by calling
    /// `reply` on the apply thread once its batch has been applied. A
    /// reactor shard passes a closure that pushes the result onto its wake
    /// queue and parks the connection until it arrives. `trace` stamps
    /// `enqueue` + `admit` (or `reject`) under the op's root span; with
    /// [`TraceId::NONE`] the stamps are single-branch no-ops.
    pub fn submit_async(
        &self,
        worker: WorkerId,
        op: BatchOp,
        priority: Priority,
        trace: TraceId,
        reply: impl FnOnce(Result<SubmitReport, SubmitError>) + Send + 'static,
    ) -> AsyncSubmit {
        let root = if trace.is_none() {
            SpanId::NONE
        } else {
            SpanId::root(trace)
        };
        let depth = self.depth.load(Ordering::Relaxed);
        obstrace::stamp(trace, Stage::Enqueue, root, 0, depth as u64);
        if priority == Priority::Speculative && depth >= self.overload.spec_queue {
            m_overload_rejects().inc();
            let retry_after_ms = self.overload.retry_after_ms(depth);
            obstrace::stamp(trace, Stage::Reject, root, 0, retry_after_ms);
            return AsyncSubmit::Done(Err(SubmitError::Overloaded { retry_after_ms }));
        }
        // Count the job before it is visible to the apply thread so the
        // admission check above never undercounts.
        self.depth.fetch_add(1, Ordering::Relaxed);
        let tx = self.tx.as_ref().expect("the sender lives until drop");
        match tx.try_send(PipelineJob {
            worker,
            op,
            reply: ReplyTo(Some(Box::new(reply))),
            enqueued: Instant::now(),
            trace,
        }) {
            Ok(()) => {
                m_queue_depth().add(1);
                obstrace::stamp(trace, Stage::Admit, root, 0, depth as u64 + 1);
            }
            Err(TrySendError::Full(mut job)) => {
                job.reply.0 = None; // answered by the return value instead
                self.depth.fetch_sub(1, Ordering::Relaxed);
                m_overload_rejects().inc();
                let retry_after_ms = self.overload.retry_after_ms(self.overload.max_queue);
                obstrace::stamp(trace, Stage::Reject, root, 0, retry_after_ms);
                return AsyncSubmit::Done(Err(SubmitError::Overloaded { retry_after_ms }));
            }
            Err(TrySendError::Disconnected(mut job)) => {
                job.reply.0 = None;
                self.depth.fetch_sub(1, Ordering::Relaxed);
                // The apply thread is gone; the service is shutting down.
                return AsyncSubmit::Done(Err(SubmitError::CollectionClosed));
            }
        }
        AsyncSubmit::Pending
    }
}

impl Drop for BatchPipeline {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(apply) = self.apply.take() {
            let _ = apply.join();
        }
    }
}

/// Outcome of a nonblocking [`BatchPipeline::submit_async`].
pub enum AsyncSubmit {
    /// Admission decided the job without involving the apply thread
    /// (overload reject, speculative gate, or shutdown).
    Done(Result<SubmitReport, SubmitError>),
    /// The job was admitted; its reply callback fires when its batch has
    /// been applied (with [`SubmitError::CollectionClosed`] if the
    /// pipeline dies first).
    Pending,
}
