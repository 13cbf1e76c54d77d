//! `replan`: the storefront's steady state. Warm sessions on three seeds of
//! `amazon_like().scaled(0.02)` advance a day at a time through
//! `POST /sessions/{id}/events`, each followed by a `GET` suffix read.
//!
//! The event batches come from an in-process `PlanSession` twin per
//! instance that adopts every third displayed triple, so they are known
//! ahead and go out open-loop; every reply is checked against the twin. A session's requests
//! stay on one connection, in order, and each connection walks its sessions
//! diagonally (session `s` posts day `d` in wave `s + d`), so every stretch
//! of the run mixes early, expensive days with late, cheap ones.
//!
//! The nominal step measures `replan_p50_ms`, `replan_p90_ms` and
//! `suffix_read_p50_ms`. Above it, a ladder of rates 10% apart, each run on
//! fresh sessions, finds `replan_max_rps`: the highest rate at which the
//! replan p90 stays within 100 ms and the backlog does not grow.

use crate::client::{self, call, raw_request, Reply};
use crate::openloop::{backlog_at, Planned, Sent};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{bad_status, derive_seed, drive, host, repeat_setup, Args, LEAD_IN};
use revmax_algorithms::{plan_residual, PlannerConfig};
use revmax_core::{
    json, residual_advance, residual_of_validated, shift_strategy, validate_events, wire,
    AdoptionEvent, AdoptionOutcome, EngineSnapshot, IncrementalRevenue, Instance, ResidualDelta,
};
use revmax_data::{generate, DatasetConfig};
use revmax_http::request::{read_request, ReadOutcome};
use revmax_http::{Api, HttpConfig, Limits, Server};
use revmax_serve::{PlanService, PlanSession, Registry, RegistryConfig};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replans per second at the nominal step: about 40% of what a 2-CPU host
/// sustains, so queueing stays light and the step's latency is steady.
const NOMINAL_RPS: f64 = 15.0;
/// Each ladder rung raises the rate by this factor.
const LADDER_FACTOR: f64 = 1.1;
/// Rungs above the nominal one: the top rung is 4.2 times the nominal rate.
const LADDER_RUNGS: usize = 15;
/// Replans per ladder step: a p90 needs 100 samples.
const STEP_REPLANS: usize = 100;
/// The latency limit on the replan p90.
const LIMIT_P90_MS: f64 = 100.0;
/// The nominal step lasts this share of `--seconds`; the ladder takes about
/// half as long again.
const NOMINAL_SHARE: f64 = 0.6;
/// Instances per run, each a distinct seed of the same shape; sessions are
/// spread over them so that one instance's cost does not set a run's figures.
const TENANTS: usize = 3;
/// Full session walks replayed in-process per instance in the traced run.
const REPLAY_CHAINS: usize = 2;

/// One day of the twin's walk: the batch to post and the reply it must get.
struct Day {
    now: u32,
    body: String,
    realized: f64,
    remaining: f64,
    suffix_len: usize,
}

/// One instance with its twin's walk.
struct Tenant {
    inst: Instance,
    days: Vec<Day>,
}

#[derive(Debug, Clone, Copy)]
struct Session {
    id: u64,
    tenant: usize,
}

struct Setup {
    tenants: Vec<Tenant>,
    config: PlannerConfig,
    server: Server,
    /// Sessions for the first step, opened as part of set-up.
    first: Vec<Session>,
    generate_ms: f64,
}

impl Setup {
    /// Days in a session's walk (every tenant has the same horizon).
    fn days(&self) -> usize {
        self.tenants[0].days.len()
    }
}

fn config() -> PlannerConfig {
    PlannerConfig::default().with_warm_start(true)
}

/// The twin's walk through every day, `1..=T`. The last day replans
/// nothing; with it the walk has an odd number of days, so the median
/// latency falls inside one day's cost rather than between two.
fn twin_days(inst: &Instance, config: PlannerConfig) -> Vec<Day> {
    let mut twin = PlanSession::new(inst.clone(), config);
    (1..=inst.horizon())
        .map(|now| {
            let events: Vec<AdoptionEvent> = twin
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
                .collect();
            let report = twin
                .advance_to(now, &events)
                .expect("the twin's own plan is valid");
            let body = format!(
                "{{\"now\":{now},\"events\":{}}}",
                wire::events_to_json(&events)
            );
            Day {
                now,
                body,
                realized: report.realized_revenue,
                remaining: report.expected_remaining_revenue,
                suffix_len: report.suffix_len,
            }
        })
        .collect()
}

/// Opens `count` sessions in-process. One thread opens them all: with
/// several, the allocator's per-thread arenas make the peak resident set
/// differ from run to run.
fn open_sessions(
    registry: &Registry,
    tenants: &[Tenant],
    config: PlannerConfig,
    count: usize,
) -> Vec<Session> {
    (0..count)
        .map(|i| {
            let tenant = i % tenants.len();
            let (id, _) = registry
                .open_session(tenants[tenant].inst.clone(), config)
                .expect("opening never reports backlog");
            Session { id, tenant }
        })
        .collect()
}

/// Sessions a step of `replans` needs on `conns` connections.
fn sessions_for(replans: usize, conns: usize, days: usize) -> usize {
    replans.div_ceil(conns).div_ceil(days) * conns
}

fn setup(seed: u64, nproc: usize, first_replans: usize) -> Setup {
    let config = config();
    let mut generate_ms = 0.0;
    let tenants: Vec<Tenant> = (0..TENANTS as u64)
        .map(|k| {
            let started = Instant::now();
            let mut dataset = DatasetConfig::amazon_like().scaled(0.02);
            dataset.seed = derive_seed(seed, 1 + k);
            let inst = generate(&dataset).instance;
            generate_ms += started.elapsed().as_secs_f64() * 1e3;
            let days = twin_days(&inst, config);
            Tenant { inst, days }
        })
        .collect();
    let registry = Arc::new(Registry::new(
        Arc::new(PlanService::new(nproc)),
        RegistryConfig::default(),
    ));
    let http = HttpConfig {
        workers: nproc,
        ..HttpConfig::default()
    };
    let server = Server::start(Arc::clone(&registry), http).expect("bind a loopback port");
    let days = tenants[0].days.len();
    let first = open_sessions(
        &registry,
        &tenants,
        config,
        sessions_for(first_replans, nproc, days),
    );
    Setup {
        tenants,
        config,
        server,
        first,
        generate_ms,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Advance,
    Read,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    session: Session,
    /// Index into the twin's days.
    day: usize,
}

/// The diagonal walk over `sessions` x `days`: wave `w` posts day `d` of
/// session `w - d`, so each session's days stay in order.
fn diagonal(sessions: &[Session], days: usize) -> Vec<(Session, usize)> {
    let mut visits = Vec::with_capacity(sessions.len() * days);
    for wave in 0..sessions.len() + days - 1 {
        for day in 0..days.min(wave + 1) {
            if let Some(&s) = sessions.get(wave - day) {
                visits.push((s, day));
            }
        }
    }
    visits
}

struct Step {
    /// The instant the step's schedule is timed from.
    origin: Instant,
    rate: f64,
    replan_ms: Vec<f64>,
    read_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    backlog: usize,
    /// Every sent request: kind, day, outcome.
    sent: Vec<(Req, Sent<io::Result<Reply>>)>,
    problems: Vec<Option<String>>,
}

impl Step {
    /// Prints the step's rate, replan p90, and end backlog.
    fn describe(&self, label: &str, conns: usize) {
        let p90 = percentile(&self.replan_ms, 0.9)
            .map_or("refused".to_string(), |q| format!("{:.1} ms", q.value));
        println!(
            "step {label} at {:.2} replans/s: p90 {p90} (n={}), backlog {} at the end; {}",
            self.rate,
            self.replan_ms.len(),
            self.backlog,
            if self.holds(conns) { "holds" } else { "fails" }
        );
    }

    fn holds(&self, conns: usize) -> bool {
        let p90 = percentile(&self.replan_ms, 0.9);
        p90.is_some_and(|q| q.value <= LIMIT_P90_MS)
            && self.backlog <= 2 * conns
            && self.problems.iter().all(Option::is_none)
    }
}

/// Checks a session reply against the twin's state after `day`.
fn check(reply: &io::Result<Reply>, day: &Day) -> Option<String> {
    if let Some(p) = bad_status("session reply", reply, 200) {
        return Some(p);
    }
    let body = &reply.as_ref().expect("checked above").body;
    let now = client::number(body, "now");
    let realized = client::number(body, "realized_revenue");
    let remaining = client::number(body, "expected_remaining_revenue");
    let len = client::suffix_len(body);
    if now != Some(f64::from(day.now))
        || !realized.is_some_and(|r| client::close(r, day.realized))
        || !remaining.is_some_and(|r| client::close(r, day.remaining))
        || len != Some(day.suffix_len)
    {
        return Some(format!(
            "day {}: now {now:?}, realized {realized:?}, remaining {remaining:?}, suffix {len:?}; twin: realized {}, remaining {}, suffix {}",
            day.now, day.realized, day.remaining, day.suffix_len
        ));
    }
    None
}

/// Runs one open-loop step of `replans` replans at `rate` on `sessions`.
fn run_step(s: &Setup, sessions: &[Session], rate: f64, replans: usize, conns: usize) -> Step {
    let days = s.days();
    let per_conn = sessions.len() / conns;
    let walks: Vec<Vec<(Session, usize)>> = (0..conns)
        .map(|c| diagonal(&sessions[c * per_conn..(c + 1) * per_conn], days))
        .collect();
    let mut schedules: Vec<Vec<Planned<Req>>> = vec![Vec::new(); conns];
    for j in 0..replans {
        let (c, m) = (j % conns, j / conns);
        let (session, day) = walks[c][m];
        for (kind, offset) in [(Kind::Advance, 0.0), (Kind::Read, 0.5)] {
            schedules[c].push(Planned {
                due: LEAD_IN + Duration::from_secs_f64((j as f64 + offset) / rate),
                req: Req { kind, session, day },
            });
        }
    }
    let last_due = schedules
        .iter()
        .filter_map(|s| s.last())
        .map(|p| p.due)
        .max()
        .unwrap_or(LEAD_IN);
    let (origin, outcomes) = drive(
        s.server.addr(),
        &schedules,
        last_due + Duration::from_secs(30),
        |client, req| match req.kind {
            Kind::Advance => call(
                client,
                "POST",
                &format!("/sessions/{}/events", req.session.id),
                &s.tenants[req.session.tenant].days[req.day].body,
            ),
            Kind::Read => call(
                client,
                "GET",
                &format!("/sessions/{}/suffix", req.session.id),
                "",
            ),
        },
    );

    let backlog = outcomes
        .iter()
        .zip(&schedules)
        .map(|(outs, schedule)| {
            let dues: Vec<Duration> = schedule.iter().map(|p| p.due).collect();
            backlog_at(outs, &dues, last_due)
        })
        .sum();
    let mut step = Step {
        origin,
        rate,
        replan_ms: Vec::new(),
        read_ms: Vec::new(),
        lateness_ms: Vec::new(),
        backlog,
        sent: Vec::new(),
        problems: Vec::new(),
    };
    for (schedule, outs) in schedules.into_iter().zip(outcomes) {
        for (planned, out) in schedule.into_iter().zip(outs) {
            let req = planned.req;
            let Some(sent) = out else {
                step.problems
                    .push(Some(format!("{req:?} was not sent before the deadline")));
                continue;
            };
            let day = &s.tenants[req.session.tenant].days[req.day];
            step.problems
                .push(check(&sent.reply, day).map(|p| format!("{req:?}: {p}")));
            let ms = sent.latency().as_secs_f64() * 1e3;
            match req.kind {
                Kind::Advance => step.replan_ms.push(ms),
                Kind::Read => step.read_ms.push(ms),
            }
            step.lateness_ms.push(sent.lateness.as_secs_f64() * 1e3);
            step.sent.push((req, sent));
        }
    }
    step
}

fn close_all(registry: &Registry, sessions: &[Session]) {
    for session in sessions {
        let _ = registry.close_session(session.id);
    }
}

fn count(report: &mut Report, step: &mut Step) {
    for p in step.problems.drain(..) {
        report.attempt(p);
    }
}

pub fn run(args: &Args) -> (Report, Option<Tracer>) {
    let mut report = Report::new("replan", args.seed, args.trace);
    let nproc = host::nproc();
    let nominal_replans =
        ((NOMINAL_SHARE * args.seconds * NOMINAL_RPS).round() as usize).max(STEP_REPLANS);
    let (s, setup_s) = repeat_setup(|| setup(args.seed, nproc, nominal_replans));
    let registry = Arc::clone(s.server.registry());
    eprintln!(
        "replan: {TENANTS} instances of {} candidates, {} days, nominal {NOMINAL_RPS} replans/s x {nominal_replans}",
        s.tenants[0].inst.num_candidates(),
        s.days()
    );

    let closed_before = registry.stats().sessions_evicted;
    let mut nominal = run_step(&s, &s.first, NOMINAL_RPS, nominal_replans, nproc);
    // The registry counts explicit closes as evictions; none happen during
    // the step, so any increase is an LRU or TTL eviction.
    let evicted = registry.stats().sessions_evicted - closed_before;
    close_all(&registry, &s.first);
    nominal.describe("nominal", nproc);

    if args.trace {
        return traced(&s, nominal, evicted, report);
    }

    let nominal_holds = nominal.holds(nproc);
    for (name, p) in [("replan_p50_ms", 0.5), ("replan_p90_ms", 0.9)] {
        if let Some(q) = percentile(&nominal.replan_ms, p) {
            report.set_quantile(name, q);
            report.gate(if p < 0.6 { "p50_ms" } else { "p90_ms" }, q.value);
        }
    }
    if let Some(q) = percentile(&nominal.read_ms, 0.5) {
        report.set_quantile("suffix_read_p50_ms", q);
    }
    count(&mut report, &mut nominal);

    // The ladder: rung k runs at NOMINAL_RPS * 1.1^k on fresh sessions, and
    // rung 0 is the nominal step. A rung needs 100 replans for an honest
    // p90, so rather than climbing rung by rung the run bisects for the
    // highest rung that holds, taking every rung above a failing one to
    // fail as well.
    let rung = |k: usize| NOMINAL_RPS * LADDER_FACTOR.powi(k as i32);
    let (mut held, mut failed) = (0, LADDER_RUNGS + 1);
    while nominal_holds && failed - held > 1 {
        let mid = (held + failed) / 2;
        let sessions = open_sessions(
            &registry,
            &s.tenants,
            s.config,
            sessions_for(STEP_REPLANS, nproc, s.days()),
        );
        let mut step = run_step(&s, &sessions, rung(mid), STEP_REPLANS, nproc);
        close_all(&registry, &sessions);
        step.describe(&format!("rung {mid}"), nproc);
        if step.holds(nproc) {
            held = mid;
        } else {
            failed = mid;
        }
        count(&mut report, &mut step);
    }
    let max_rps = if nominal_holds { rung(held) } else { 0.0 };
    if held == LADDER_RUNGS {
        eprintln!("replan: the top rung held; replan_max_rps is a lower bound");
    }
    report.set("replan_max_rps", max_rps, None);
    report.set("setup_s", setup_s, Some(crate::SETUP_REPS));
    report.set("peak_rss_mb", host::peak_rss_mb(), None);
    (report, None)
}

/// The traced run: the nominal step's round trips, then the in-process
/// replay.
fn traced(s: &Setup, mut step: Step, evicted: u64, mut report: Report) -> (Report, Option<Tracer>) {
    let stats = s.server.registry().stats();
    count(&mut report, &mut step);

    let mut tr = Tracer::new();
    // Client-side round trips of the traced step, from due to done.
    let origin = step.origin;
    for (i, (req, sent)) in step.sent.iter().enumerate() {
        let name = match req.kind {
            Kind::Advance => "http.round_trip_advance",
            Kind::Read => "http.round_trip_read",
        };
        tr.record(name, i as u64, origin + sent.due, origin + sent.done);
    }
    let handles = replay(s, &mut tr, &mut report);
    let transport: Vec<f64> = step
        .sent
        .iter()
        .filter_map(|(req, sent)| {
            let handle = median(handles.get(&(req.kind, req.session.tenant, req.day))?)?;
            Some(sent.latency().as_secs_f64() * 1e3 - handle)
        })
        .collect();
    report.set_median("http.transport_ms", &transport);
    let bytes = |f: fn(&Reply) -> usize| -> Vec<f64> {
        step.sent
            .iter()
            .filter_map(|(_, sent)| sent.reply.as_ref().ok().map(|r| f(r) as f64))
            .collect()
    };
    let request_bytes = bytes(|r| r.request_bytes);
    let response_bytes = bytes(|r| r.response_bytes);
    report.set_median("http.request_bytes", &request_bytes);
    report.set_median("http.response_bytes", &response_bytes);
    match percentile(&step.lateness_ms, 0.9) {
        Some(q) => report.set_quantile("gen.lateness_p90_ms", q),
        None => report.set(
            "gen.lateness_p90_ms",
            f64::NAN,
            Some(step.lateness_ms.len()),
        ),
    }
    report.set("gen.backlog_end", step.backlog as f64, None);
    report.set("registry.sessions_evicted", evicted as f64, None);
    report.set(
        "registry.pooled_snapshots",
        stats.pooled_snapshots as f64,
        None,
    );
    report.set("trace.overhead_pct", tr.overhead_pct(), None);
    report.set("data.generate_ms", s.generate_ms, None);
    (report, Some(tr))
}

/// Medians of the replayed layer spans go straight into the report;
/// derived layers are computed per replayed request.
struct Derived {
    registry_advance: Vec<f64>,
    handoff: Vec<f64>,
    touched: Vec<f64>,
    evals: Vec<f64>,
    per_selection: Vec<f64>,
}

/// Replays [`REPLAY_CHAINS`] full session walks per instance in-process.
/// Each request runs once as the server runs it (`http.read`, `Api::handle`
/// on a twin registry, `http.write`) and once layer by layer on a twin the
/// benchmark holds itself. Returns the `Api::handle` times per (kind,
/// instance, day).
fn replay(
    s: &Setup,
    tr: &mut Tracer,
    report: &mut Report,
) -> HashMap<(Kind, usize, usize), Vec<f64>> {
    let limits = Limits {
        head_bytes: 16 * 1024,
        body_bytes: HttpConfig::default().body_limit,
    };
    // The service forces per-plan parallelism off; the inline plan must
    // match it for the handoff difference to mean anything.
    let inline = s.config.with_parallel(Some(false));
    let mut handles: HashMap<(Kind, usize, usize), Vec<f64>> = HashMap::new();
    let mut d = Derived {
        registry_advance: Vec::new(),
        handoff: Vec::new(),
        touched: Vec::new(),
        evals: Vec::new(),
        per_selection: Vec::new(),
    };
    let last_ms =
        |tr: &Tracer, name: &str| tr.durations_ms(name).last().copied().unwrap_or(f64::NAN);

    for chain in 0..REPLAY_CHAINS * s.tenants.len() {
        let t = chain % s.tenants.len();
        let Tenant { inst, days } = &s.tenants[t];
        let registry = Arc::new(Registry::new(
            Arc::new(PlanService::new(1)),
            RegistryConfig::default(),
        ));
        let api = Api::new(Arc::clone(&registry));
        let (sid, _) = registry
            .open_session(inst.clone(), s.config)
            .expect("opens");
        let snapshot = EngineSnapshot::new();
        plan_residual(
            inst,
            &s.config,
            Some(&ResidualDelta::initial(snapshot.clone())),
        );
        let mut history: Vec<AdoptionEvent> = Vec::new();
        let mut previous: Option<Arc<Instance>> = None;
        let mut prev_now = 0;

        for (index, day) in days.iter().enumerate() {
            let request = (chain * 1000 + index) as u64;
            // As the server runs it.
            for (kind, method, target, body) in [
                (
                    Kind::Advance,
                    "POST",
                    format!("/sessions/{sid}/events"),
                    day.body.as_bytes(),
                ),
                (
                    Kind::Read,
                    "GET",
                    format!("/sessions/{sid}/suffix"),
                    &b""[..],
                ),
            ] {
                let raw = raw_request(method, &target, body);
                let root = tr.begin("replay.request", None, request);
                let mut buf = Vec::new();
                let read = tr.time("http.read", Some(root), request, || {
                    read_request(&mut io::Cursor::new(&raw), &mut buf, &limits, None)
                });
                let ReadOutcome::Request(req) = read else {
                    report.attempt(Some(format!("replay {request}: the request did not parse")));
                    tr.end(root);
                    continue;
                };
                let response = tr.time("api.handle", Some(root), request, || api.handle(&req));
                handles
                    .entry((kind, t, index))
                    .or_default()
                    .push(last_ms(tr, "api.handle"));
                tr.time("http.write", Some(root), request, || {
                    let mut out = Vec::with_capacity(response.body.len() + 256);
                    response.write_to(&mut out, false).expect("write to memory");
                });
                tr.end(root);
                let reply = Ok(Reply {
                    status: response.status,
                    body: response.body,
                    request_bytes: raw.len(),
                    response_bytes: 0,
                });
                report.attempt(check(&reply, day).map(|p| format!("replay {request}: {p}")));
            }
            let handled = handles[&(Kind::Advance, t, index)]
                .last()
                .copied()
                .unwrap_or(f64::NAN);
            if day.now == inst.horizon() {
                // The last day closes the session without a replan.
                continue;
            }

            // Layer by layer, on the benchmark's own twin.
            let root = tr.begin("replay.layers", None, request);
            let value = tr
                .time("json.parse", Some(root), request, || json::parse(&day.body))
                .expect("twin body parses");
            let field = value.get("events").expect("twin body has events").clone();
            let events = tr
                .time("wire.events_decode", Some(root), request, || {
                    wire::events_from_value(&field)
                })
                .expect("twin events decode");
            let mut all = history.clone();
            all.extend_from_slice(&events);
            tr.time("events.validate", Some(root), request, || {
                validate_events(inst, &all, day.now)
            })
            .expect("twin events are valid");
            let delta = ResidualDelta::new(prev_now, day.now, &events, snapshot.clone());
            d.touched
                .push(delta.touched_users().len() as f64 / f64::from(inst.num_users()));
            let residual = tr.time("events.residual", Some(root), request, || match &previous {
                Some(prev) => residual_advance(inst, prev, &all, &delta),
                None => residual_of_validated(inst, &all, day.now),
            });
            let residual = Arc::new(residual);
            let service = registry.service();
            let ticketed = tr.time("service.submit_wait", Some(root), request, || {
                service
                    .submit_replan(Arc::clone(&residual), s.config, Some(delta.clone()))
                    .wait()
            });
            let outcome = tr.time("greedy.plan", Some(root), request, || {
                plan_residual(&residual, &inline, Some(&delta))
            });
            tr.time("revenue.engine_build", Some(root), request, || {
                drop(IncrementalRevenue::with_options(&residual, false))
            });
            let suffix = shift_strategy(&outcome.strategy, day.now);
            tr.time("wire.strategy_encode", Some(root), request, || {
                wire::strategy_to_value(&suffix).to_string().len()
            });
            tr.end(root);
            let ticketed_ok =
                ticketed.is_some_and(|r| client::close(r.outcome.revenue, outcome.revenue));
            let problem = (!client::close(outcome.revenue, day.remaining)
                || outcome.strategy.len() != day.suffix_len
                || !ticketed_ok)
                .then(|| {
                    format!("replay {request}: the layer twin's replan differs from the twin")
                });
            report.attempt(problem);

            let layers: f64 = [
                "json.parse",
                "wire.events_decode",
                "events.validate",
                "events.residual",
                "service.submit_wait",
                "wire.strategy_encode",
            ]
            .iter()
            .map(|name| last_ms(tr, name))
            .sum();
            d.registry_advance.push(handled - layers);
            d.handoff
                .push(last_ms(tr, "service.submit_wait") - last_ms(tr, "greedy.plan"));
            d.evals.push(outcome.marginal_evaluations as f64);
            d.per_selection
                .push(outcome.marginal_evaluations as f64 / outcome.strategy.len().max(1) as f64);

            let root = tr.begin("replay.read_layers", None, request);
            let view = tr.time("registry.view", Some(root), request, || {
                registry.session_view(sid)
            });
            if let Ok(view) = view {
                tr.time("wire.strategy_encode", Some(root), request, || {
                    wire::strategy_to_value(&view.suffix).to_string().len()
                });
            }
            tr.end(root);

            history = all;
            previous = Some(residual);
            prev_now = day.now;
        }
    }

    for (metric, span) in [
        ("json.parse_ms", "json.parse"),
        ("wire.events_decode_ms", "wire.events_decode"),
        ("wire.strategy_encode_ms", "wire.strategy_encode"),
        ("registry.view_ms", "registry.view"),
        ("events.validate_ms", "events.validate"),
        ("events.residual_ms", "events.residual"),
        ("revenue.engine_build_ms", "revenue.engine_build"),
        ("greedy.plan_ms", "greedy.plan"),
    ] {
        report.set_median(metric, &tr.self_ms(span));
    }
    report.set_median("registry.advance_ms", &d.registry_advance);
    report.set_median("service.handoff_ms", &d.handoff);
    report.set_median("events.touched_user_share", &d.touched);
    report.set_median("greedy.marginal_evaluations", &d.evals);
    report.set_median("greedy.evals_per_selection", &d.per_selection);
    handles
}
