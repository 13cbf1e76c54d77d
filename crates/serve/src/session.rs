//! Adoption-driven replan sessions: a [`PlanSession`] owns the planning
//! state for **one** instance over its whole horizon and re-optimises the
//! remaining plan as [`AdoptionEvent`]s arrive.
//!
//! The session's contract mirrors how a storefront consumes a plan:
//!
//! 1. [`PlanSession::new`] plans the full horizon up front;
//! 2. each day the storefront shows the planned recommendations
//!    ([`PlanSession::upcoming`]) and reports what happened as a batch of
//!    events ([`PlanSession::advance`] / [`PlanSession::advance_to`]);
//! 3. the session fixes the realized prefix, conditions the instance on it
//!    ([`revmax_core::residual_instance`] — adopted classes close, rejected
//!    displays keep only their saturation memory, consumed capacity is
//!    pre-charged), replans **only the remaining horizon** through the
//!    planner, and shifts the result back onto the original timeline.
//!
//! The replanned suffix is exactly a from-scratch plan of the residual
//! instance — the session tests assert this to 1e-9 at shard counts 1 and
//! 2, against the flat engine and the hash reference engine — so every
//! shard/warm-start knob of [`PlannerConfig`] remains a pure performance
//! knob during a session too.
//!
//! # Incremental residuals and warm starts
//!
//! Every advance builds the residual instance **incrementally** from the
//! previous one — the original instance on the first advance —
//! ([`revmax_core::residual_advance`]: untouched candidate rows are a pure
//! shift, only the (user, class) groups with new events are rebuilt), and
//! validates only the new batch: history and batch events can share no
//! display or slot, since the batch lies after the fixed frontier. With
//! [`PlannerConfig::warm_start`] set, the engines also recycle the previous
//! replan's saturation tables and arena buffers through the session's
//! [`EngineSnapshot`] pool. Warm and cold replans produce identical plans.
//!
//! # Sessions over a service
//!
//! [`PlanSession::attach`] routes replans through a shared [`PlanService`]:
//! `advance` then validates and applies the events, submits the replan as a
//! ticketed job, and returns immediately with [`ReplanReport::pending`]
//! set; many concurrent sessions multiplex one worker pool this way. A
//! newer event batch **cancels** the stale in-flight replan (via
//! [`crate::PlanTicket::cancel`]; a replan already running is simply
//! abandoned) before submitting its own. Collect with
//! [`PlanSession::sync`] (blocking) or [`PlanSession::try_sync`]
//! (non-blocking); until then the suffix accessors report the last
//! *collected* plan.

use crate::service::{PlanService, PlanTicket, TicketStatus};
use revmax_algorithms::{plan, plan_residual, PlannerConfig};
use revmax_core::{
    realized_revenue, residual_advance, shift_strategy, validate_events, AdoptionEvent,
    EngineSnapshot, EventError, Instance, ResidualDelta, Strategy, Triple,
};
use std::fmt;
use std::sync::Arc;

/// Why a session advance was rejected (the session state is unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The underlying event batch was invalid for the instance.
    Event(EventError),
    /// `advance_to` targeted a time at or before the current frontier.
    NotMonotone {
        /// The session's current frontier.
        now: u32,
        /// The requested frontier.
        requested: u32,
    },
    /// `advance_to` targeted a time past the horizon.
    BeyondHorizon {
        /// The instance horizon `T`.
        horizon: u32,
        /// The requested frontier.
        requested: u32,
    },
    /// An event in the batch lies at or before the already-fixed frontier.
    StaleEvent {
        /// The offending event's display triple.
        event: Triple,
        /// The session's current frontier.
        now: u32,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Event(e) => write!(f, "invalid event batch: {e}"),
            SessionError::NotMonotone { now, requested } => {
                write!(
                    f,
                    "cannot advance to t = {requested}: frontier is already t = {now}"
                )
            }
            SessionError::BeyondHorizon { horizon, requested } => {
                write!(
                    f,
                    "cannot advance to t = {requested}: horizon is T = {horizon}"
                )
            }
            SessionError::StaleEvent { event, now } => {
                write!(
                    f,
                    "event {event} lies at or before the fixed frontier t = {now}"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EventError> for SessionError {
    fn from(e: EventError) -> Self {
        SessionError::Event(e)
    }
}

/// What one session advance did.
#[derive(Debug, Clone)]
pub struct ReplanReport {
    /// The new realization frontier.
    pub now: u32,
    /// Number of events applied by this advance.
    pub events_applied: usize,
    /// Size of the replanned suffix (0 once the horizon is exhausted).
    pub suffix_len: usize,
    /// Expected revenue of the replanned suffix under the residual model.
    pub expected_remaining_revenue: f64,
    /// Revenue realized so far across all applied adoption events.
    pub realized_revenue: f64,
    /// Whether the replan is still in flight on an attached
    /// [`PlanService`]. When set, `suffix_len` and
    /// `expected_remaining_revenue` are zero placeholders — collect the
    /// real values with [`PlanSession::sync`] / [`PlanSession::try_sync`].
    pub pending: bool,
}

/// A replan submitted to an attached service and not yet collected.
struct PendingReplan {
    ticket: PlanTicket,
    /// The frontier the replan was submitted for.
    now: u32,
    /// Events applied by the advance that submitted it (for the report).
    events_applied: usize,
}

/// A dynamic replanning session for one instance (see the module docs).
pub struct PlanSession {
    inst: Instance,
    config: PlannerConfig,
    now: u32,
    events: Vec<AdoptionEvent>,
    residual: Option<Arc<Instance>>,
    suffix: Strategy,
    expected_remaining: f64,
    realized: f64,
    replans: u32,
    /// Warm-start pool shared across this session's replans.
    snapshot: EngineSnapshot,
    /// The service ticketed replans are routed through, when attached.
    service: Option<Arc<PlanService>>,
    /// The newest submitted-but-uncollected replan (attached mode only).
    pending: Option<PendingReplan>,
}

impl PlanSession {
    /// Opens a session: plans the full horizon with `config` and fixes
    /// nothing yet (`now() == 0`).
    pub fn new(inst: Instance, config: PlannerConfig) -> Self {
        let snapshot = EngineSnapshot::new();
        let outcome = if config.warm_start {
            // Seed the warm-start pool: the full-horizon tables stay valid
            // for every residual (their horizons only shrink).
            plan_residual(
                &inst,
                &config,
                Some(&ResidualDelta::initial(snapshot.clone())),
            )
        } else {
            plan(&inst, &config)
        };
        PlanSession {
            suffix: outcome.strategy,
            expected_remaining: outcome.revenue,
            residual: None,
            now: 0,
            events: Vec::new(),
            realized: 0.0,
            replans: 0,
            inst,
            config,
            snapshot,
            service: None,
            pending: None,
        }
    }

    /// Routes every future replan through `service` as a ticketed job:
    /// [`PlanSession::advance`] then submits and returns immediately
    /// (`ReplanReport::pending`), many sessions multiplex the service's
    /// worker pool, and a newer event batch cancels the stale in-flight
    /// replan. Collect results with [`PlanSession::sync`] /
    /// [`PlanSession::try_sync`]. Any replan still pending on a previous
    /// service is collected first.
    pub fn attach(&mut self, service: &Arc<PlanService>) {
        let _ = self.sync();
        self.service = Some(Arc::clone(service));
    }

    /// Detaches the session from its service (collecting any pending
    /// replan); future advances replan inline again.
    pub fn detach(&mut self) {
        let _ = self.sync();
        self.service = None;
    }

    /// Whether replans are routed through an attached [`PlanService`].
    pub fn is_attached(&self) -> bool {
        self.service.is_some()
    }

    /// Whether a submitted replan has not been collected yet.
    pub fn replan_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The session's warm-start pool (saturation tables + recycled engine
    /// buffers). Stays empty unless [`PlannerConfig::warm_start`] is set;
    /// tests use it to verify warm starts actually engage.
    pub fn warm_snapshot(&self) -> &EngineSnapshot {
        &self.snapshot
    }

    /// Blocks until the pending replan (if any) completes and applies it,
    /// returning the finalized report. `None` when nothing was pending —
    /// including the pathological case of a replan cancelled externally.
    pub fn sync(&mut self) -> Option<ReplanReport> {
        let pending = self.pending.take()?;
        let report = pending.ticket.wait()?;
        Some(self.apply_replan(pending.now, pending.events_applied, report.outcome))
    }

    /// Applies the pending replan if it already finished; `None` when
    /// nothing is pending or the worker is still planning.
    pub fn try_sync(&mut self) -> Option<ReplanReport> {
        match self.pending.as_ref()?.ticket.try_poll() {
            TicketStatus::Done | TicketStatus::Cancelled => self.sync(),
            TicketStatus::Queued | TicketStatus::Running => None,
        }
    }

    fn apply_replan(
        &mut self,
        now: u32,
        events_applied: usize,
        outcome: revmax_algorithms::GreedyOutcome,
    ) -> ReplanReport {
        debug_assert_eq!(now, self.now, "a stale replan must never be applied");
        self.suffix = shift_strategy(&outcome.strategy, now);
        self.expected_remaining = outcome.revenue;
        self.replans += 1;
        ReplanReport {
            now,
            events_applied,
            suffix_len: self.suffix.len(),
            expected_remaining_revenue: self.expected_remaining,
            realized_revenue: self.realized,
            pending: false,
        }
    }

    /// The instance the session plans for.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The planner configuration every (re)plan uses.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// The realization frontier: every time step `≤ now` is fixed.
    pub fn now(&self) -> u32 {
        self.now
    }

    /// Whether the whole horizon has been realized.
    pub fn is_exhausted(&self) -> bool {
        self.now >= self.inst.horizon()
    }

    /// Number of replans performed (one per successful advance before the
    /// horizon was exhausted).
    pub fn replans(&self) -> u32 {
        self.replans
    }

    /// The planned suffix, on the **original** timeline (every triple has
    /// `t > now()`). Empty once the horizon is exhausted.
    pub fn planned_suffix(&self) -> &Strategy {
        &self.suffix
    }

    /// The planned recommendations for the next time step (`now() + 1`),
    /// sorted — what the storefront should display next.
    pub fn upcoming(&self) -> Vec<Triple> {
        let next = self.now + 1;
        let mut triples: Vec<Triple> = self.suffix.iter().filter(|z| z.t.value() == next).collect();
        triples.sort();
        triples
    }

    /// Every event applied so far, in application order.
    pub fn events(&self) -> &[AdoptionEvent] {
        &self.events
    }

    /// Revenue realized from the adopted events so far.
    pub fn realized_revenue(&self) -> f64 {
        self.realized
    }

    /// Expected revenue of the replanned suffix under the residual model.
    ///
    /// While a replan is pending on an attached session
    /// ([`PlanSession::replan_pending`]) this still reflects the last
    /// *collected* plan — whose suffix includes the just-realized step —
    /// so collect with [`PlanSession::sync`] / [`PlanSession::try_sync`]
    /// before reading it.
    pub fn expected_remaining_revenue(&self) -> f64 {
        self.expected_remaining
    }

    /// Realized + expected remaining revenue — the session's running
    /// estimate of the horizon's total take.
    ///
    /// While a replan is pending on an attached session the two terms
    /// briefly overlap (the realized side already counts the latest step,
    /// the expected side still plans it), so the sum transiently
    /// over-counts; it is exact again after [`PlanSession::sync`] /
    /// [`PlanSession::try_sync`] collect the pending replan.
    pub fn expected_total_revenue(&self) -> f64 {
        self.realized + self.expected_remaining
    }

    /// The residual instance the current suffix was planned against: `None`
    /// before the first advance (the suffix is the full-horizon plan) and
    /// after the horizon is exhausted.
    pub fn residual(&self) -> Option<&Instance> {
        self.residual.as_deref()
    }

    /// Advances the frontier by one time step, applying that step's events.
    pub fn advance(&mut self, events: &[AdoptionEvent]) -> Result<ReplanReport, SessionError> {
        self.advance_to(self.now + 1, events)
    }

    /// Fixes the realization through `now` (applying `events`, all of which
    /// must lie in `(self.now(), now]`) and replans the remaining horizon.
    ///
    /// On error the session is left unchanged. Displayed-but-unreported
    /// triples are simply *not realized* — the session only knows what it is
    /// told, so an unreported display contributes neither memory nor revenue.
    pub fn advance_to(
        &mut self,
        now: u32,
        events: &[AdoptionEvent],
    ) -> Result<ReplanReport, SessionError> {
        if now <= self.now {
            return Err(SessionError::NotMonotone {
                now: self.now,
                requested: now,
            });
        }
        if now > self.inst.horizon() {
            return Err(SessionError::BeyondHorizon {
                horizon: self.inst.horizon(),
                requested: now,
            });
        }
        for e in events {
            if e.t.value() <= self.now {
                return Err(SessionError::StaleEvent {
                    event: e.triple(),
                    now: self.now,
                });
            }
        }
        // Validate before mutating anything. The batch alone suffices: the
        // history lies at t <= self.now and the batch after it, so the two
        // share no display triple and no (user, t) slot, and the batch's
        // first error is the one the cumulative history would report.
        validate_events(&self.inst, events, now)?;

        // This advance supersedes any replan still in flight: cancel it (a
        // queued job never runs; a running one finishes and is abandoned).
        if let Some(stale) = self.pending.take() {
            stale.ticket.cancel();
        }

        let prev_now = self.now;
        self.realized += realized_revenue(&self.inst, events);
        self.events.extend_from_slice(events);
        self.now = now;
        if now >= self.inst.horizon() {
            self.residual = None;
            self.suffix = Strategy::new();
            self.expected_remaining = 0.0;
            return Ok(ReplanReport {
                now,
                events_applied: events.len(),
                suffix_len: 0,
                expected_remaining_revenue: 0.0,
                realized_revenue: self.realized,
                pending: false,
            });
        }

        // The residual advances from the previous one (the original
        // instance before the first advance); the planner sees the delta
        // only when it recycles engine state.
        let delta = ResidualDelta::new(prev_now, now, events, self.snapshot.clone());
        let prev = self.residual.as_deref().unwrap_or(&self.inst);
        let residual = Arc::new(residual_advance(&self.inst, prev, &self.events, &delta));
        self.residual = Some(Arc::clone(&residual));
        let delta = self.config.warm_start.then_some(delta);

        if let Some(service) = &self.service {
            // Session-over-service: submit the ticketed replan and return
            // immediately; sync()/try_sync() collect it.
            let ticket = service.submit_replan(residual, self.config, delta);
            self.pending = Some(PendingReplan {
                ticket,
                now,
                events_applied: events.len(),
            });
            Ok(ReplanReport {
                now,
                events_applied: events.len(),
                suffix_len: 0,
                expected_remaining_revenue: 0.0,
                realized_revenue: self.realized,
                pending: true,
            })
        } else {
            let outcome = plan_residual(&residual, &self.config, delta.as_ref());
            Ok(self.apply_replan(now, events.len(), outcome))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_algorithms::{plan_with, GreedyOutcome, PlanAlgorithm};
    use revmax_core::{residual_instance, revenue, AdoptionOutcome, InstanceBuilder, TimeStep};
    use revmax_oracle::{residual_by_builder, HashIncrementalRevenue, ResidualMode};

    fn storefront_instance(seed: u32) -> Instance {
        let mut b = InstanceBuilder::new(4, 5, 4);
        b.display_limit(1)
            .item_class(0, 0)
            .item_class(1, 0)
            .item_class(2, 1)
            .item_class(3, 1)
            .item_class(4, 2);
        for i in 0..5u32 {
            b.beta(i, 0.2 + 0.15 * i as f64)
                .capacity(i, 2 + (i + seed) % 3)
                .prices(
                    i,
                    &[
                        20.0 + i as f64,
                        18.0 + i as f64,
                        22.0 - i as f64,
                        16.0 + 2.0 * i as f64,
                    ],
                );
        }
        for u in 0..4u32 {
            for i in 0..5u32 {
                if (u + i + seed).is_multiple_of(2) {
                    let base = 0.15 + 0.08 * ((u + i) % 4) as f64;
                    b.candidate(
                        u,
                        i,
                        &[base, base + 0.1, base + 0.05, base + 0.15],
                        3.0 + i as f64 * 0.3,
                    );
                }
            }
        }
        b.build().unwrap()
    }

    /// Deterministic event stream: realize the planned next-day displays,
    /// adopting every third one.
    fn realize_upcoming(session: &PlanSession) -> Vec<AdoptionEvent> {
        session
            .upcoming()
            .into_iter()
            .enumerate()
            .map(|(i, z)| AdoptionEvent {
                user: z.user,
                item: z.item,
                t: z.t,
                outcome: if i % 3 == 0 {
                    AdoptionOutcome::Adopted
                } else {
                    AdoptionOutcome::Rejected
                },
            })
            .collect()
    }

    /// Asserts that a session's replanned suffix is `reference`, a plan of
    /// its residual instance, shifted onto the session's clock, with the
    /// same expected revenue to 1e-9.
    fn assert_suffix_is(session: &PlanSession, reference: &GreedyOutcome, label: &str) {
        assert!(
            (session.expected_remaining_revenue() - reference.revenue).abs() < 1e-9,
            "{label}: session {} vs reference {}",
            session.expected_remaining_revenue(),
            reference.revenue
        );
        assert_eq!(
            session.planned_suffix().as_slice(),
            shift_strategy(&reference.strategy, session.now()).as_slice(),
            "{label}: suffix diverged"
        );
    }

    /// The acceptance criterion of the replanning pipeline: after `k`
    /// adoption events the session's replanned suffix equals a from-scratch
    /// plan of the residual instance to 1e-9 — on the flat engine and on
    /// the hash reference engine, for 1 shard and for 2 shards on 2 worker
    /// threads, and warm-started as well as cold replans — and all four
    /// session configurations plan the same triple set.
    #[test]
    fn session_replan_matches_from_scratch_residual_plan() {
        for seed in 0..3u32 {
            let inst = storefront_instance(seed);
            let mut suffixes: Vec<Vec<Triple>> = Vec::new();
            for shards in [1u32, 2] {
                for warm in [false, true] {
                    let cfg = PlannerConfig::default()
                        .with_shards(shards)
                        .with_shard_threads(2)
                        .with_warm_start(warm);
                    let mut session = PlanSession::new(inst.clone(), cfg);
                    let mut all_events = Vec::new();
                    for _day in 0..2 {
                        let events = realize_upcoming(&session);
                        all_events.extend(events.iter().copied());
                        let report = session.advance(&events).expect("advance");
                        assert_eq!(report.now, session.now());

                        // From-scratch references: residual instance built
                        // independently, planned with the same config on
                        // the flat engine and on the hash engine.
                        let residual = residual_by_builder(
                            &inst,
                            &all_events,
                            session.now(),
                            ResidualMode::Exempt,
                        );
                        let reference = plan(&residual, &cfg);
                        let label = format!("seed {seed} {shards} shards warm {warm}");
                        assert_suffix_is(&session, &reference, &format!("{label} flat"));
                        let hash = plan_with::<HashIncrementalRevenue<'_>>(&residual, &cfg, None);
                        assert_suffix_is(&session, &hash, &format!("{label} hash"));
                        // And the reported expectation is a real evaluation of
                        // the suffix under the residual model.
                        assert!(
                            (revenue(&residual, &reference.strategy)
                                - session.expected_remaining_revenue())
                            .abs()
                                < 1e-9
                        );
                    }
                    if warm {
                        // Warm starts must actually engage: the pool holds
                        // tables and recycled buffers.
                        assert!(session.warm_snapshot().has_tables());
                        assert!(session.warm_snapshot().pooled_buffers() > 0);
                    }
                    // The executor lists its strategy in shard order:
                    // compare configurations as triple sets.
                    let mut suffix: Vec<Triple> = session.planned_suffix().iter().collect();
                    suffix.sort_unstable();
                    suffixes.push(suffix);
                }
            }
            // Shard/warm parity of the session path itself.
            for s in &suffixes[1..] {
                assert_eq!(
                    suffixes[0], *s,
                    "seed {seed}: shard/warm configurations diverged"
                );
            }
        }
    }

    /// Warm replans equal cold ones at shard counts 2 and 4 on 1 and 2
    /// worker threads — one thread plans one shard, two run the concurrent
    /// executor — and a hash-engine plan of the same residual; and the
    /// shard-keyed buffer pool actually recycles: after a replan round the
    /// flat engine has returned one buffer set per planning shard.
    #[test]
    fn warm_sharded_replans_match_cold_across_thread_counts() {
        for seed in 0..2u32 {
            let inst = storefront_instance(seed);
            for shards in [2u32, 4] {
                for threads in [1u32, 2] {
                    let base = PlannerConfig::default()
                        .with_shards(shards)
                        .with_shard_threads(threads);
                    let mut cold = PlanSession::new(inst.clone(), base);
                    let mut warm = PlanSession::new(inst.clone(), base.with_warm_start(true));
                    let mut pooled_after_first_day = 0;
                    for day in 0..2 {
                        let events = realize_upcoming(&cold);
                        cold.advance(&events).expect("cold advance");
                        warm.advance(&events).expect("warm advance");
                        let label = format!("seed {seed} {shards} shards {threads} threads");
                        assert!(
                            (cold.expected_remaining_revenue() - warm.expected_remaining_revenue())
                                .abs()
                                < 1e-9,
                            "{label}: warm revenue diverged from cold"
                        );
                        assert_eq!(
                            cold.planned_suffix().as_slice(),
                            warm.planned_suffix().as_slice(),
                            "{label}: warm suffix diverged from cold"
                        );
                        let residual = warm.residual().expect("mid-horizon residual");
                        let hash = plan_with::<HashIncrementalRevenue<'_>>(residual, &base, None);
                        assert_suffix_is(&warm, &hash, &format!("{label} hash"));
                        if day == 0 {
                            pooled_after_first_day = warm.warm_snapshot().pooled_buffers();
                        }
                    }
                    assert!(warm.warm_snapshot().has_tables());
                    // Steady-state recycling: every buffer set taken by a
                    // shard comes back under its key, so the pool neither
                    // grows nor drains across replans.
                    assert!(pooled_after_first_day > 0);
                    assert_eq!(
                        warm.warm_snapshot().pooled_buffers(),
                        pooled_after_first_day,
                        "the keyed pool must settle to one set per planning shard"
                    );
                }
            }
        }
    }

    #[test]
    fn full_session_walk_exhausts_the_horizon() {
        let inst = storefront_instance(1);
        let mut session = PlanSession::new(inst.clone(), PlannerConfig::default());
        assert_eq!(session.now(), 0);
        assert!(session.residual().is_none());
        let full_plan_revenue = session.expected_total_revenue();
        assert!(full_plan_revenue > 0.0);

        let mut adopted_value = 0.0;
        while !session.is_exhausted() {
            let events = realize_upcoming(&session);
            for e in &events {
                if e.is_adoption() {
                    adopted_value += inst.price(e.item, e.t);
                }
            }
            let report = session.advance(&events).expect("advance");
            assert!((report.realized_revenue - adopted_value).abs() < 1e-12);
            // The suffix never plans into the fixed prefix.
            assert!(session
                .planned_suffix()
                .iter()
                .all(|z| z.t.value() > session.now()));
        }
        assert_eq!(session.now(), inst.horizon());
        assert!(session.planned_suffix().is_empty());
        assert_eq!(session.expected_remaining_revenue(), 0.0);
        assert_eq!(session.replans(), inst.horizon() - 1);
        assert!((session.expected_total_revenue() - session.realized_revenue()).abs() < 1e-12);
    }

    #[test]
    fn adoption_events_change_the_replanned_suffix() {
        // Adopting a class must strip that user's same-class follow-ups from
        // the replanned suffix.
        let inst = storefront_instance(0);
        let cfg = PlannerConfig::default();
        let mut session = PlanSession::new(inst.clone(), cfg);
        let upcoming = session.upcoming();
        assert!(!upcoming.is_empty());
        let z = upcoming[0];
        let class = inst.class_of(z.item);
        let events = vec![AdoptionEvent {
            user: z.user,
            item: z.item,
            t: z.t,
            outcome: AdoptionOutcome::Adopted,
        }];
        session.advance(&events).unwrap();
        for s in session.planned_suffix().iter() {
            assert!(
                !(s.user == z.user && inst.class_of(s.item) == class),
                "suffix still recommends the closed class: {s}"
            );
        }
        assert!((session.realized_revenue() - inst.price(z.item, z.t)).abs() < 1e-12);
    }

    /// Errors leave the session unchanged, and the session's batch-only
    /// validation reports exactly what validating the cumulative history
    /// reports: over random invalid batches — duplicates, overfull slots,
    /// out-of-range, after-frontier and stale events, anywhere in the batch
    /// — `advance_to` returns the cumulative check's first error, or
    /// `StaleEvent` for the first stale event.
    #[test]
    fn errors_leave_the_session_unchanged() {
        let inst = storefront_instance(2);
        let (users, items, horizon) = (inst.num_users(), inst.num_items(), inst.horizon());
        let mut session = PlanSession::new(inst.clone(), PlannerConfig::default());
        let state = |s: &PlanSession| {
            let residual = s.residual().map(|r| r as *const Instance);
            let suffix = s.planned_suffix().as_slice().to_vec();
            let revenue = (s.realized_revenue(), s.expected_remaining_revenue());
            (
                s.now(),
                s.events().to_vec(),
                suffix,
                residual,
                revenue,
                s.replans(),
            )
        };
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(bound.max(1))) as u32
        };
        let mut seen = [0u32; 5];
        for _day in 0..2 {
            let now = session.now();
            let before = state(&session);
            let got = [
                session.advance_to(now, &[]),
                session.advance_to(horizon + 1, &[]),
            ];
            assert!(matches!(got[0], Err(SessionError::NotMonotone { .. })));
            assert!(matches!(got[1], Err(SessionError::BeyondHorizon { .. })));
            for trial in 0..200 {
                // A valid batch (one display per slot), then one or two
                // faults, each at a random position.
                let target = now + 1 + draw(horizon - now);
                let mut batch: Vec<AdoptionEvent> = (now + 1..=target)
                    .flat_map(|t| (0..users).map(move |user| (user, t)))
                    .filter_map(|(user, t)| {
                        let item = draw(2 * items);
                        (item < items).then(|| AdoptionEvent::rejected(user, item, t))
                    })
                    .collect();
                for _ in 0..1 + draw(2) {
                    let pick = batch.get(draw(batch.len() as u32) as usize).copied();
                    let fault = match (draw(5), pick) {
                        (0, Some(e)) => AdoptionEvent::adopted(e.user.0, e.item.0, e.t.0),
                        (1, Some(e)) => {
                            let other = (e.item.0 + 1 + draw(items - 1)) % items;
                            AdoptionEvent::rejected(e.user.0, other, e.t.0)
                        }
                        (2, _) => AdoptionEvent::rejected(users + draw(2), draw(items), target),
                        (3, _) if target < horizon => {
                            AdoptionEvent::rejected(draw(users), draw(items), target + 1)
                        }
                        (4, _) if now > 0 => {
                            AdoptionEvent::rejected(draw(users), draw(items), 1 + draw(now))
                        }
                        _ => AdoptionEvent::rejected(draw(users), items + draw(2), target),
                    };
                    batch.insert(draw(batch.len() as u32 + 1) as usize, fault);
                }
                let got = session.advance_to(target, &batch).err();
                let expected = match batch.iter().find(|e| e.t.value() <= now) {
                    Some(e) => SessionError::StaleEvent {
                        event: e.triple(),
                        now,
                    },
                    None => {
                        let all = [session.events(), &batch[..]].concat();
                        let e = validate_events(&inst, &all, target).expect_err("a fault");
                        SessionError::Event(e)
                    }
                };
                assert_eq!(got, Some(expected), "trial {trial}: {batch:?}");
                assert_eq!(
                    state(&session),
                    before,
                    "trial {trial}: the session changed"
                );
                seen[match expected {
                    SessionError::Event(EventError::DuplicateDisplay { .. }) => 0,
                    SessionError::Event(EventError::DisplayLimitExceeded { .. }) => 1,
                    SessionError::Event(EventError::OutOfRange { .. }) => 2,
                    SessionError::Event(EventError::AfterFrontier { .. }) => 3,
                    SessionError::StaleEvent { .. } => 4,
                    other => panic!("trial {trial}: unexpected {other:?}"),
                }] += 1;
            }
            session
                .advance(&realize_upcoming(&session))
                .expect("a valid day");
        }
        assert!(seen.iter().all(|&n| n >= 20), "unreached kinds: {seen:?}");
    }

    #[test]
    fn advancing_multiple_steps_at_once_works() {
        let inst = storefront_instance(0);
        let mut session = PlanSession::new(inst.clone(), PlannerConfig::default());
        // Realize nothing for two days (the storefront went down, say).
        let report = session.advance_to(2, &[]).unwrap();
        assert_eq!(report.now, 2);
        assert_eq!(report.events_applied, 0);
        assert!(session.planned_suffix().iter().all(|z| z.t.value() > 2));
        // The empty-prefix residual is the original tail: its plan revenue
        // is what the session reports.
        let residual = residual_instance(&inst, &[], 2).unwrap();
        let reference = plan(&residual, session.config());
        assert!((session.expected_remaining_revenue() - reference.revenue).abs() < 1e-9);
    }

    #[test]
    fn off_plan_displays_are_accepted() {
        // The storefront displayed something the plan never asked for; the
        // session still conditions on it.
        let inst = storefront_instance(0);
        let mut session = PlanSession::new(inst.clone(), PlannerConfig::default());
        let event = AdoptionEvent {
            user: revmax_core::UserId(0),
            item: revmax_core::ItemId(4),
            t: TimeStep(1),
            outcome: AdoptionOutcome::Adopted,
        };
        session.advance(&[event]).unwrap();
        // Class 2 (item 4) is closed for user 0 in the suffix.
        for s in session.planned_suffix().iter() {
            assert!(!(s.user.0 == 0 && inst.class_of(s.item).0 == 2));
        }
    }

    #[test]
    fn attached_sessions_match_inline_sessions() {
        // Several concurrent sessions multiplexed over one service must
        // produce exactly the plans their inline twins produce.
        let service = Arc::new(crate::PlanService::new(2));
        for warm in [false, true] {
            let mut attached: Vec<PlanSession> = Vec::new();
            let mut inline: Vec<PlanSession> = Vec::new();
            for seed in 0..3u32 {
                let cfg = PlannerConfig::default().with_warm_start(warm);
                let mut s = PlanSession::new(storefront_instance(seed), cfg);
                s.attach(&service);
                assert!(s.is_attached());
                attached.push(s);
                inline.push(PlanSession::new(storefront_instance(seed), cfg));
            }
            for _day in 0..2 {
                // Submit every session's replan before collecting any: this
                // is the multiplexing the service exists for.
                let batches: Vec<Vec<AdoptionEvent>> =
                    inline.iter().map(realize_upcoming).collect();
                for (s, events) in attached.iter_mut().zip(&batches) {
                    let report = s.advance(events).expect("advance");
                    assert!(report.pending);
                    assert!(s.replan_pending());
                }
                for (s, events) in inline.iter_mut().zip(&batches) {
                    s.advance(events).expect("advance");
                }
                for (a, i) in attached.iter_mut().zip(&inline) {
                    let report = a.sync().expect("a replan was pending");
                    assert!(!report.pending);
                    assert!(!a.replan_pending());
                    assert_eq!(
                        a.planned_suffix().as_slice(),
                        i.planned_suffix().as_slice(),
                        "attached and inline suffixes diverged (warm = {warm})"
                    );
                    assert!(
                        (a.expected_remaining_revenue() - i.expected_remaining_revenue()).abs()
                            < 1e-9
                    );
                    assert_eq!(a.replans(), i.replans());
                }
            }
        }
    }

    #[test]
    fn newer_event_batch_cancels_the_stale_inflight_replan() {
        // A 1-worker service kept busy by a chunky job: the session's first
        // replan sits queued, so the second advance must cancel it and the
        // session must end up with exactly the second replan applied.
        let service = Arc::new(crate::PlanService::new(1));
        let blocker = {
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
            service.submit(b.build().unwrap(), PlannerConfig::default())
        };

        let inst = storefront_instance(1);
        let mut session = PlanSession::new(inst.clone(), PlannerConfig::default());
        session.attach(&service);
        let first = session.advance(&[]).expect("advance to day 1");
        assert!(first.pending);
        // Day 2 arrives before the day-1 replan was collected: supersede it.
        let second = session.advance(&[]).expect("advance to day 2");
        assert!(second.pending);
        let report = session.sync().expect("the superseding replan completes");
        assert_eq!(report.now, 2);
        assert_eq!(session.replans(), 1, "the cancelled replan never applied");

        // The surviving suffix is the from-scratch day-2 residual plan.
        let residual = residual_instance(&inst, &[], 2).unwrap();
        let reference = plan(&residual, session.config());
        assert_eq!(
            session.planned_suffix().as_slice(),
            shift_strategy(&reference.strategy, 2).as_slice()
        );
        assert!(blocker.wait().is_some());
    }

    #[test]
    fn detach_collects_and_returns_to_inline_replanning() {
        let service = Arc::new(crate::PlanService::new(1));
        let mut session = PlanSession::new(storefront_instance(0), PlannerConfig::default());
        session.attach(&service);
        assert!(session.advance(&[]).expect("advance").pending);
        session.detach();
        assert!(!session.is_attached());
        assert!(
            !session.replan_pending(),
            "detach collects the pending replan"
        );
        assert!(session.replans() >= 1);
        // Inline again: the report is final immediately.
        let report = session.advance(&[]).expect("advance");
        assert!(!report.pending);
        assert!(report.suffix_len == session.planned_suffix().len());
    }

    #[test]
    fn try_sync_is_nonblocking_and_eventually_applies() {
        let service = Arc::new(crate::PlanService::new(1));
        let mut session = PlanSession::new(storefront_instance(2), PlannerConfig::default());
        session.attach(&service);
        assert!(session.try_sync().is_none(), "nothing pending yet");
        session.advance(&[]).expect("advance");
        let mut spins = 0u32;
        let report = loop {
            if let Some(report) = session.try_sync() {
                break report;
            }
            spins += 1;
            assert!(spins < 10_000_000, "replan never completed");
            std::thread::yield_now();
        };
        assert_eq!(report.now, 1);
        assert!(!session.replan_pending());
    }

    #[test]
    fn sessions_work_with_every_algorithm() {
        let inst = storefront_instance(1);
        for algorithm in [
            PlanAlgorithm::GlobalGreedy,
            PlanAlgorithm::SequentialLocalGreedy,
            PlanAlgorithm::RandomizedLocalGreedy { permutations: 3 },
        ] {
            let cfg = PlannerConfig::default()
                .with_algorithm(algorithm)
                .with_seed(5);
            let mut session = PlanSession::new(inst.clone(), cfg);
            let events = realize_upcoming(&session);
            let report = session.advance(&events).expect("advance");
            assert!(report.expected_remaining_revenue >= 0.0);
            assert!(session
                .planned_suffix()
                .iter()
                .all(|z| z.t.value() > session.now()));
        }
    }
}
