//! The asynchronous planning front-end: a [`PlanService`] worker pool whose
//! [`PlanService::submit`] returns a [`PlanTicket`] immediately.
//!
//! The service is runtime-free: submission enqueues a job on the pool's
//! channel and hands back a ticket backed by a `Mutex` + `Condvar` cell that
//! the executing worker fills in. Tickets support blocking
//! ([`PlanTicket::wait`]), non-blocking ([`PlanTicket::try_poll`]), and
//! best-effort cancellation ([`PlanTicket::cancel`]); the synchronous
//! [`PlanService::plan_batch`] is just submit-all-then-wait over the same
//! machinery.
//!
//! # Drop safety
//!
//! * Dropping a **ticket** abandons the result: the worker fills the shared
//!   cell, nobody reads it, the `Arc` frees it. Never blocks.
//! * Dropping the **service** closes the job channel and joins the workers.
//!   Jobs already queued are drained first (the channel buffers them), so
//!   tickets held elsewhere still complete; nothing deadlocks or leaks.
//! * **Cancelling** a queued ticket flips its state before a worker claims
//!   it; the worker skips the job entirely. Cancellation of a running or
//!   finished job returns `false` and changes nothing — plans are short, so
//!   there is no mid-plan abort.

use revmax_algorithms::{plan_residual, GreedyOutcome, PlannerConfig};
use revmax_core::{Instance, ResidualDelta, Strategy};
use std::num::NonZeroUsize;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One planned instance: the submit-order index plus the planner outcome.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Position of the instance in its batch (`0` for single submissions).
    pub index: usize,
    /// The planner outcome (strategy, revenue, trace, evaluation counts).
    pub outcome: GreedyOutcome,
}

/// Observable lifecycle of a ticket (see [`PlanTicket::try_poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketStatus {
    /// Submitted, not yet claimed by a worker.
    Queued,
    /// A worker is planning the instance right now.
    Running,
    /// The plan is finished and waiting to be collected.
    Done,
    /// The ticket was cancelled before a worker claimed it.
    Cancelled,
}

/// What a bounded wait observed (see [`PlanTicket::wait_timeout`]).
#[derive(Debug)]
pub enum WaitOutcome {
    /// The plan finished within the timeout; the report is handed over
    /// (a report is collectable exactly once).
    Done(PlanReport),
    /// The ticket was cancelled before a worker claimed it.
    Cancelled,
    /// The timeout elapsed with the plan still queued or running. The
    /// ticket is untouched: wait again, poll, or cancel.
    TimedOut,
}

enum TicketState {
    Queued,
    Running,
    Done(Option<PlanReport>),
    Cancelled,
}

struct TicketShared {
    state: Mutex<TicketState>,
    cond: Condvar,
}

/// A claim on an asynchronously running plan, returned by
/// [`PlanService::submit`].
///
/// The ticket is the only handle to the result: [`PlanTicket::wait`] blocks
/// until the plan finishes (returning `None` if it was cancelled first),
/// [`PlanTicket::try_poll`] peeks without blocking, and
/// [`PlanTicket::cancel`] withdraws a still-queued job. Dropping the ticket
/// abandons the result without blocking the worker.
#[must_use = "a dropped ticket abandons its plan; call wait() or try_poll()"]
pub struct PlanTicket {
    shared: Arc<TicketShared>,
}

impl PlanTicket {
    /// Blocks until the plan completes and returns it; `None` if the ticket
    /// was cancelled before a worker picked it up.
    pub fn wait(self) -> Option<PlanReport> {
        let mut state = self.shared.state.lock().expect("ticket state poisoned");
        loop {
            match &mut *state {
                TicketState::Done(report) => {
                    return Some(report.take().expect("a ticket is waited on at most once"))
                }
                TicketState::Cancelled => return None,
                TicketState::Queued | TicketState::Running => {
                    state = self.shared.cond.wait(state).expect("ticket state poisoned");
                }
            }
        }
    }

    /// Blocks for at most `timeout`, then reports what it saw. Unlike
    /// [`PlanTicket::wait`] this does not consume the ticket, so a timed-out
    /// wait can be retried, polled, or cancelled; a plan that completes
    /// *after* a timeout stays collectable by the next wait. The report is
    /// handed over at most once — a [`WaitOutcome::Done`] here makes a later
    /// `wait()` a contract violation (it panics), exactly like waiting
    /// twice would be.
    pub fn wait_timeout(&self, timeout: Duration) -> WaitOutcome {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("ticket state poisoned");
        loop {
            match &mut *state {
                TicketState::Done(report) => {
                    return WaitOutcome::Done(
                        report.take().expect("a ticket's report is collected once"),
                    )
                }
                TicketState::Cancelled => return WaitOutcome::Cancelled,
                TicketState::Queued | TicketState::Running => {
                    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                        return WaitOutcome::TimedOut;
                    };
                    let (guard, _timed_out) = self
                        .shared
                        .cond
                        .wait_timeout(state, remaining)
                        .expect("ticket state poisoned");
                    state = guard;
                }
            }
        }
    }

    /// The ticket's current lifecycle state, without blocking. A `Done`
    /// result stays collectable via [`PlanTicket::wait`] (which then returns
    /// immediately).
    pub fn try_poll(&self) -> TicketStatus {
        match *self.shared.state.lock().expect("ticket state poisoned") {
            TicketState::Queued => TicketStatus::Queued,
            TicketState::Running => TicketStatus::Running,
            TicketState::Done(_) => TicketStatus::Done,
            TicketState::Cancelled => TicketStatus::Cancelled,
        }
    }

    /// Cancels the job if no worker has claimed it yet. Returns `true` when
    /// the cancellation took effect (the plan will never run and
    /// [`PlanTicket::wait`] returns `None`); `false` when the job is already
    /// running or finished, which leaves the ticket untouched.
    pub fn cancel(&self) -> bool {
        let mut state = self.shared.state.lock().expect("ticket state poisoned");
        if matches!(*state, TicketState::Queued) {
            *state = TicketState::Cancelled;
            self.shared.cond.notify_all();
            true
        } else {
            false
        }
    }
}

struct Job {
    inst: Arc<Instance>,
    index: usize,
    config: PlannerConfig,
    /// Warm-start handle of a session replan (`None` for one-shot plans).
    delta: Option<ResidualDelta>,
    ticket: Arc<TicketShared>,
}

/// An asynchronous planning service over a persistent pool of workers.
///
/// Workers are spawned once and block on a shared job queue;
/// [`PlanService::submit`] enqueues one instance and returns a
/// [`PlanTicket`] immediately, and the batch entry points
/// ([`PlanService::plan_batch`] / [`PlanService::plan_batch_reports`]) are
/// submit-all-then-wait over the same queue. Dropping the service closes the
/// queue, drains the already-submitted jobs, and joins the workers.
pub struct PlanService {
    job_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl PlanService {
    /// Spawns a pool with `workers` threads (`0` = one per unit of available
    /// hardware parallelism).
    pub fn new(workers: usize) -> Self {
        let n = if workers == 0 {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            workers
        };
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..n)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                std::thread::spawn(move || worker_loop(&job_rx))
            })
            .collect();
        PlanService {
            job_tx: Some(job_tx),
            workers,
        }
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one instance for planning and returns immediately.
    ///
    /// When `config.parallel` is unset, the service forces the per-plan
    /// fill/scan parallelism **off**: the pool already multiplexes instances
    /// over its workers, so per-plan threads would oversubscribe. Pass
    /// `Some(true)` explicitly to override (the plan itself is identical
    /// either way).
    pub fn submit(&self, inst: Instance, config: PlannerConfig) -> PlanTicket {
        self.submit_indexed(Arc::new(inst), 0, config, None)
    }

    /// Enqueues a **session replan**: like [`PlanService::submit`], on a
    /// shared instance and with an optional [`ResidualDelta`] so a
    /// warm-start-enabled configuration recycles the session's engine state
    /// on the worker. This is the ticketed path `PlanSession::attach` routes
    /// its replans through.
    pub fn submit_replan(
        &self,
        inst: Arc<Instance>,
        config: PlannerConfig,
        delta: Option<ResidualDelta>,
    ) -> PlanTicket {
        self.submit_indexed(inst, 0, config, delta)
    }

    fn submit_indexed(
        &self,
        inst: Arc<Instance>,
        index: usize,
        mut config: PlannerConfig,
        delta: Option<ResidualDelta>,
    ) -> PlanTicket {
        if config.parallel.is_none() {
            config.parallel = Some(false);
        }
        let shared = Arc::new(TicketShared {
            state: Mutex::new(TicketState::Queued),
            cond: Condvar::new(),
        });
        self.job_tx
            .as_ref()
            .expect("pool is alive until drop")
            .send(Job {
                inst,
                index,
                config,
                delta,
                ticket: Arc::clone(&shared),
            })
            .expect("workers outlive the service");
        PlanTicket { shared }
    }

    /// Plans every instance of the batch and returns full reports in batch
    /// order — submit-all-then-wait over the async front-end.
    pub fn plan_batch_reports(
        &self,
        instances: Vec<Instance>,
        config: PlannerConfig,
    ) -> Vec<PlanReport> {
        let tickets: Vec<PlanTicket> = instances
            .into_iter()
            .enumerate()
            .map(|(index, inst)| self.submit_indexed(Arc::new(inst), index, config, None))
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("batch tickets are never cancelled"))
            .collect()
    }

    /// Plans every instance of the batch and returns the strategies in batch
    /// order (the `plan_batch(Vec<Instance>, config) -> Vec<Strategy>`
    /// serving API).
    pub fn plan_batch(&self, instances: Vec<Instance>, config: PlannerConfig) -> Vec<Strategy> {
        self.plan_batch_reports(instances, config)
            .into_iter()
            .map(|r| r.outcome.strategy)
            .collect()
    }
}

fn worker_loop(job_rx: &Mutex<Receiver<Job>>) {
    loop {
        // Take the next job while holding the lock only for the dequeue,
        // then plan without blocking the queue.
        let job = {
            let guard = job_rx.lock().expect("job queue poisoned");
            guard.recv()
        };
        let Ok(job) = job else {
            break; // queue closed and drained: the service was dropped
        };
        {
            let mut state = job.ticket.state.lock().expect("ticket state poisoned");
            match *state {
                TicketState::Cancelled => continue, // withdrawn before we got it
                _ => *state = TicketState::Running,
            }
        }
        let outcome = plan_residual(&job.inst, &job.config, job.delta.as_ref());
        let mut state = job.ticket.state.lock().expect("ticket state poisoned");
        *state = TicketState::Done(Some(PlanReport {
            index: job.index,
            outcome,
        }));
        job.ticket.cond.notify_all();
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        drop(self.job_tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One-shot convenience: plans a batch over a transient pool sized to the
/// available hardware parallelism.
pub fn plan_batch(instances: Vec<Instance>, config: PlannerConfig) -> Vec<Strategy> {
    PlanService::new(0).plan_batch(instances, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_algorithms::{global_greedy, plan_with, PlanAlgorithm};
    use revmax_core::InstanceBuilder;
    use revmax_oracle::HashIncrementalRevenue;
    use std::time::Duration;

    fn instance(seed: u32) -> Instance {
        let mut b = InstanceBuilder::new(3, 3, 3);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .beta(0, 0.4)
            .beta(1, 0.7)
            .beta(2, 0.9)
            .capacity(0, 1)
            .capacity(1, 2)
            .capacity(2, 2)
            .prices(0, &[30.0, 24.0, 27.0])
            .prices(1, &[10.0, 12.0, 9.0])
            .prices(2, &[15.0, 15.0, 14.0]);
        for u in 0..3 {
            let base = 0.2 + 0.1 * ((u + seed) % 3) as f64;
            b.candidate(u, 0, &[base, base + 0.2, base + 0.1], 4.0);
            b.candidate(u, 1, &[base + 0.3, base, base + 0.25], 3.5);
            b.candidate(u, 2, &[base + 0.1, base + 0.1, base + 0.15], 4.2);
        }
        b.build().unwrap()
    }

    /// A larger instance so an in-flight plan keeps a single worker busy for
    /// a macroscopic amount of time (used by the cancellation tests).
    fn chunky_instance() -> Instance {
        let users = 60u32;
        let items = 30u32;
        let mut b = InstanceBuilder::new(users, items, 5);
        b.display_limit(2);
        for i in 0..items {
            b.item_class(i, i % 6)
                .beta(i, 0.3 + 0.02 * (i % 10) as f64)
                .capacity(i, 20)
                .constant_price(i, 5.0 + i as f64);
        }
        for u in 0..users {
            for i in 0..items {
                if (u + i) % 3 == 0 {
                    let p = 0.1 + 0.01 * ((u + i) % 50) as f64;
                    b.candidate(u, i, &[p, p, p, p, p], 3.0);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn submit_returns_immediately_and_wait_delivers() {
        let service = PlanService::new(2);
        let inst = instance(0);
        let direct = global_greedy(&inst);
        let ticket = service.submit(inst.clone(), PlannerConfig::default());
        let report = ticket.wait().expect("never cancelled");
        assert!((report.outcome.revenue - direct.revenue).abs() < 1e-9);
        assert!(report.outcome.strategy.validate(&inst).is_ok());
        assert_eq!(report.index, 0);
    }

    #[test]
    fn try_poll_reaches_done_without_blocking() {
        let service = PlanService::new(1);
        let ticket = service.submit(instance(1), PlannerConfig::default());
        // Spin (bounded) until the worker finishes; every observed state must
        // be a legal lifecycle state.
        let mut polls = 0u32;
        loop {
            match ticket.try_poll() {
                TicketStatus::Done => break,
                TicketStatus::Cancelled => panic!("never cancelled"),
                TicketStatus::Queued | TicketStatus::Running => {
                    polls += 1;
                    assert!(polls < 1_000_000, "plan never completed");
                    std::thread::yield_now();
                }
            }
        }
        assert!(ticket.wait().is_some());
    }

    #[test]
    fn batch_plans_match_direct_runs_at_every_shard_count() {
        let batch: Vec<Instance> = (0..4).map(instance).collect();
        let direct: Vec<f64> = batch.iter().map(|i| global_greedy(i).revenue).collect();
        for shards in [1u32, 2, 3] {
            let service = PlanService::new(2);
            let cfg = PlannerConfig::default()
                .with_shards(shards)
                .with_shard_threads(2);
            let reports = service.plan_batch_reports(batch.clone(), cfg);
            assert_eq!(reports.len(), batch.len());
            for (i, report) in reports.iter().enumerate() {
                assert_eq!(report.index, i);
                assert!(
                    (report.outcome.revenue - direct[i]).abs() < 1e-9,
                    "instance {i} at {shards} shards: {} vs {}",
                    report.outcome.revenue,
                    direct[i]
                );
                assert!(report.outcome.strategy.validate(&batch[i]).is_ok());
            }
        }
    }

    #[test]
    fn pool_survives_multiple_batches() {
        let service = PlanService::new(1);
        for round in 0..3 {
            let strategies = service.plan_batch(
                vec![instance(round), instance(round + 1)],
                PlannerConfig::default(),
            );
            assert_eq!(strategies.len(), 2);
            assert!(strategies.iter().all(|s| !s.is_empty()));
        }
        assert_eq!(service.worker_count(), 1);
    }

    #[test]
    fn local_greedy_batches_work_too() {
        let batch = vec![instance(0), instance(1)];
        let strategies = plan_batch(
            batch.clone(),
            PlannerConfig::default()
                .with_algorithm(PlanAlgorithm::SequentialLocalGreedy)
                .with_shards(2),
        );
        for (s, inst) in strategies.iter().zip(&batch) {
            assert!(s.validate(inst).is_ok());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(plan_batch(Vec::new(), PlannerConfig::default()).is_empty());
    }

    #[test]
    fn cancel_before_execution_skips_the_plan() {
        // One worker, one long-running job in front: the tail submissions sit
        // in the queue long enough to cancel deterministically.
        let service = PlanService::new(1);
        let blocker = service.submit(chunky_instance(), PlannerConfig::default());
        let doomed = service.submit(instance(0), PlannerConfig::default());
        let kept = service.submit(instance(1), PlannerConfig::default());
        assert!(doomed.cancel(), "queued ticket must cancel");
        assert!(!doomed.cancel(), "second cancel is a no-op");
        assert_eq!(doomed.try_poll(), TicketStatus::Cancelled);
        assert!(doomed.wait().is_none(), "cancelled wait returns None");
        // The service keeps serving around the hole.
        assert!(blocker.wait().is_some());
        assert!(kept.wait().is_some());
    }

    /// A ticket no worker will ever claim — its state is driven by the test
    /// alone, so the timed-wait lifecycle is exercised deterministically
    /// (a real queued job could be claimed at any time on a loaded host).
    fn orphan_ticket() -> (PlanTicket, Arc<TicketShared>) {
        let shared = Arc::new(TicketShared {
            state: Mutex::new(TicketState::Queued),
            cond: Condvar::new(),
        });
        (
            PlanTicket {
                shared: Arc::clone(&shared),
            },
            shared,
        )
    }

    #[test]
    fn wait_timeout_times_out_then_completes() {
        let (ticket, shared) = orphan_ticket();
        // Unclaimed: a bounded wait must time out and leave the ticket
        // collectable.
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(5)),
            WaitOutcome::TimedOut
        ));
        assert_eq!(ticket.try_poll(), TicketStatus::Queued);
        // Completion arrives while the next bounded wait is blocking.
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut state = shared.state.lock().unwrap();
            *state = TicketState::Done(Some(PlanReport {
                index: 7,
                outcome: revmax_algorithms::plan(&instance(0), &PlannerConfig::default()),
            }));
            shared.cond.notify_all();
        });
        match ticket.wait_timeout(Duration::from_secs(60)) {
            WaitOutcome::Done(report) => {
                assert_eq!(report.index, 7);
                assert!(!report.outcome.strategy.is_empty());
            }
            other => panic!("expected Done once the worker filled the cell, got {other:?}"),
        }
        filler.join().unwrap();
    }

    #[test]
    fn wait_timeout_observes_cancellation() {
        let (ticket, _shared) = orphan_ticket();
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(5)),
            WaitOutcome::TimedOut
        ));
        assert!(ticket.cancel(), "still queued: cancel must take effect");
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(5)),
            WaitOutcome::Cancelled
        ));
        assert!(ticket.wait().is_none(), "cancelled wait returns None");
    }

    #[test]
    fn cancel_after_completion_is_refused() {
        let service = PlanService::new(1);
        let ticket = service.submit(instance(0), PlannerConfig::default());
        while ticket.try_poll() != TicketStatus::Done {
            std::thread::yield_now();
        }
        assert!(!ticket.cancel(), "done tickets cannot be cancelled");
        assert!(ticket.wait().is_some());
    }

    #[test]
    fn cancelled_and_resubmitted_plans_match_across_engines() {
        // Satellite check: a cancel + re-submit cycle must not perturb the
        // plan, and the re-submitted ticket must agree to 1e-9 with the hash
        // reference engine.
        let service = PlanService::new(1);
        let inst = instance(2);
        let reference = global_greedy(&inst);
        let hash = plan_with::<HashIncrementalRevenue<'_>>(&inst, &PlannerConfig::default(), None);
        let blocker = service.submit(chunky_instance(), PlannerConfig::default());
        let first = service.submit(inst.clone(), PlannerConfig::default());
        first.cancel();
        let resubmitted = service.submit(inst.clone(), PlannerConfig::default());
        let report = resubmitted.wait().expect("resubmission completes");
        for (label, expected) in [("flat", &reference), ("hash", &hash)] {
            assert!(
                (report.outcome.revenue - expected.revenue).abs() < 1e-9,
                "after cancel/resubmit: {} vs {label} {}",
                report.outcome.revenue,
                expected.revenue
            );
            assert_eq!(
                report.outcome.strategy.as_slice(),
                expected.strategy.as_slice(),
                "the re-submitted ticket diverged from the {label} plan"
            );
        }
        let _ = blocker.wait();
    }

    #[test]
    fn dropping_tickets_mid_batch_does_not_wedge_the_pool() {
        let service = PlanService::new(2);
        for round in 0..3 {
            // Submit and immediately drop: the workers still execute (or the
            // results are abandoned) and the pool stays usable.
            let _ = service.submit(instance(round), PlannerConfig::default());
        }
        let follow_up = service.submit(instance(9), PlannerConfig::default());
        let report = follow_up
            .wait()
            .expect("pool keeps serving after dropped tickets");
        assert!(!report.outcome.strategy.is_empty());
    }

    #[test]
    fn dropping_the_service_drains_queued_tickets() {
        let service = PlanService::new(1);
        let blocker = service.submit(chunky_instance(), PlannerConfig::default());
        let queued = service.submit(instance(0), PlannerConfig::default());
        // Wait on the tickets from another thread while the service drops:
        // drop closes the queue but buffered jobs are drained first.
        let waiter = std::thread::spawn(move || {
            let a = blocker.wait().is_some();
            let b = queued.wait().is_some();
            (a, b)
        });
        drop(service);
        let (a, b) = waiter.join().expect("waiter thread");
        assert!(a && b, "queued tickets must complete across service drop");
    }

    #[test]
    fn dropping_the_service_with_unwaited_tickets_terminates() {
        let service = PlanService::new(2);
        let tickets: Vec<PlanTicket> = (0..4)
            .map(|i| service.submit(instance(i), PlannerConfig::default()))
            .collect();
        drop(service); // joins workers; tickets never waited on
        drop(tickets);
        // Reaching this line at all is the assertion (no deadlock, no leak);
        // give the allocator a beat so the test is not trivially reordered.
        std::thread::sleep(Duration::from_millis(1));
    }
}
