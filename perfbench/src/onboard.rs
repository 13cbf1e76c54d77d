//! `onboard`: tenants arriving. Each arrival posts a full
//! `amazon_like().scaled(0.02)` instance to `POST /sessions` and then
//! deletes the session. The `K` instances are distinct seeds of one shape,
//! encoded during set-up, and consecutive arrivals use different ones.
//! Arrivals are open-loop at one fixed rate.

use crate::client::{self, call, raw_request, Reply};
use crate::openloop::{backlog_at, Planned};
use crate::plan_scale::same_plan;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{bad_status, derive_seed, drive, host, repeat_setup, Args, LEAD_IN};
use revmax_algorithms::{plan, GreedyOutcome, PlannerConfig};
use revmax_core::{json, wire, IncrementalRevenue};
use revmax_data::{generate, DatasetConfig};
use revmax_http::testkit::Client;
use revmax_http::{request::read_request, Api, HttpConfig, Limits, Server};
use revmax_serve::{PlanService, Registry, RegistryConfig};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct instances posted in rotation. Their costs differ, so the count
/// is odd: the median latency then falls inside one instance's cost rather
/// than between two.
const INSTANCES: usize = 7;

/// Arrivals per second: about half of what a 2-CPU host sustains.
pub const RATE: f64 = 7.0;

/// Requests replayed in-process layer by layer in the traced run.
const REPLAYED: usize = 14;

/// The first arrivals fill the allocator and caches; they are checked but
/// not timed.
const WARM_UP: usize = INSTANCES;

struct Tenant {
    body: String,
    reference: GreedyOutcome,
}

struct Setup {
    tenants: Vec<Tenant>,
    server: Server,
    generate_ms: f64,
}

fn server(nproc: usize) -> Server {
    let registry = Arc::new(Registry::new(
        Arc::new(PlanService::new(nproc)),
        RegistryConfig::default(),
    ));
    let http = HttpConfig {
        workers: nproc,
        ..HttpConfig::default()
    };
    Server::start(registry, http).expect("bind a loopback port")
}

fn setup(seed: u64, nproc: usize) -> Setup {
    let mut generate_ms = 0.0;
    let tenants = (0..INSTANCES as u64)
        .map(|k| {
            let mut config = DatasetConfig::amazon_like().scaled(0.02);
            config.seed = derive_seed(seed, 10 + k);
            let started = std::time::Instant::now();
            let inst = generate(&config).instance;
            generate_ms += started.elapsed().as_secs_f64() * 1e3;
            let body = format!("{{\"instance\":{}}}", wire::instance_to_json(&inst));
            let reference = plan(&inst, &PlannerConfig::default());
            Tenant { body, reference }
        })
        .collect();
    Setup {
        tenants,
        server: server(nproc),
        generate_ms,
    }
}

/// What one arrival observed: the open reply, the delete reply, and how
/// long the delete took (an onboard's latency ends when the open returns).
struct Arrival {
    open: io::Result<Reply>,
    close: Option<io::Result<Reply>>,
    close_time: Duration,
}

fn onboard(client: &mut Client, body: &str) -> Arrival {
    let open = call(client, "POST", "/sessions", body);
    let id = open
        .as_ref()
        .ok()
        .filter(|r| r.status == 201)
        .and_then(|r| client::number(&r.body, "session_id"));
    let started = Instant::now();
    let close = id.map(|id| call(client, "DELETE", &format!("/sessions/{id}"), ""));
    Arrival {
        open,
        close,
        close_time: started.elapsed(),
    }
}

/// Checks an open reply against the in-process plan of the same instance.
fn check(arrival: &Arrival, tenant: &Tenant) -> Option<String> {
    if let Some(p) = bad_status("POST /sessions", &arrival.open, 201) {
        return Some(p);
    }
    let body = &arrival.open.as_ref().expect("checked above").body;
    let revenue = client::number(body, "expected_remaining_revenue");
    if !revenue.is_some_and(|r| client::close(r, tenant.reference.revenue)) {
        return Some(format!(
            "open revenue {revenue:?}, in-process plan {}",
            tenant.reference.revenue
        ));
    }
    let len = client::suffix_len(body);
    if len != Some(tenant.reference.strategy.len()) {
        return Some(format!(
            "open suffix of {len:?} triples, in-process plan {}",
            tenant.reference.strategy.len()
        ));
    }
    match &arrival.close {
        Some(close) => bad_status("DELETE /sessions/{id}", close, 200),
        None => Some("no session id to delete".into()),
    }
}

pub fn run(args: &Args) -> (Report, Option<Tracer>) {
    let mut report = Report::new("onboard", args.seed, args.trace);
    let nproc = host::nproc();
    let (s, setup_s) = repeat_setup(|| setup(args.seed, nproc));
    let addr = s.server.addr();

    // Arrival j is due at j / RATE on connection j mod nproc and posts
    // instance j mod K.
    let arrivals = (args.seconds * RATE).floor().max(1.0) as usize;
    let mut schedules: Vec<Vec<Planned<usize>>> = vec![Vec::new(); nproc];
    for j in 0..arrivals {
        schedules[j % nproc].push(Planned {
            due: LEAD_IN + Duration::from_secs_f64(j as f64 / RATE),
            req: j,
        });
    }
    let end = LEAD_IN + Duration::from_secs_f64(arrivals as f64 / RATE);
    let (origin, outcomes) = drive(
        addr,
        &schedules,
        end + Duration::from_secs(30),
        |client, &j| onboard(client, &s.tenants[j % INSTANCES].body),
    );

    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut request_bytes = Vec::new();
    let mut response_bytes = Vec::new();
    let mut round_trips = Vec::new();
    for (schedule, outs) in schedules.iter().zip(&outcomes) {
        for (planned, out) in schedule.iter().zip(outs) {
            let j = planned.req;
            let Some(sent) = out else {
                report.attempt(Some(format!(
                    "arrival {j} was not sent before the deadline"
                )));
                continue;
            };
            report.attempt(
                check(&sent.reply, &s.tenants[j % INSTANCES]).map(|p| format!("arrival {j}: {p}")),
            );
            let open_done = sent.done - sent.reply.close_time;
            let ms = (open_done - sent.due).as_secs_f64() * 1e3;
            if j < WARM_UP {
                continue;
            }
            latencies.push(ms);
            round_trips.push((j, sent.due, open_done));
            lateness.push(sent.lateness.as_secs_f64() * 1e3);
            if let Ok(r) = &sent.reply.open {
                request_bytes.push(r.request_bytes as f64);
                response_bytes.push(r.response_bytes as f64);
            }
        }
    }
    let dues: Vec<Vec<Duration>> = schedules
        .iter()
        .map(|s| s.iter().map(|p| p.due).collect())
        .collect();
    let last_due = end - Duration::from_secs_f64(1.0 / RATE);
    let backlog: usize = outcomes
        .iter()
        .zip(&dues)
        .map(|(outs, dues)| backlog_at(outs, dues, last_due))
        .sum();
    let stats = s.server.registry().stats();

    if !args.trace {
        for (name, gate, p) in [
            ("onboard_p50_ms", "p50_ms", 0.5),
            ("onboard_p90_ms", "p90_ms", 0.9),
        ] {
            if let Some(q) = percentile(&latencies, p) {
                report.set_quantile(name, q);
                report.gate(gate, q.value);
            }
        }
        report.set("setup_s", setup_s, Some(crate::SETUP_REPS));
        report.set("peak_rss_mb", host::peak_rss_mb(), None);
        return (report, None);
    }

    let mut tr = Tracer::new();
    for &(j, due, done) in &round_trips {
        tr.record("http.round_trip", j as u64, origin + due, origin + done);
    }
    let handles = replay(&s, &mut tr, &mut report);
    // Transport: each traced round trip minus the in-process handling of
    // the same request body.
    let transport: Vec<f64> = round_trips
        .iter()
        .filter_map(|&(j, due, done)| {
            let handle = median(&handles[j % INSTANCES])?;
            Some((done - due).as_secs_f64() * 1e3 - handle)
        })
        .collect();
    report.set_median("http.transport_ms", &transport);
    report.set_median("http.request_bytes", &request_bytes);
    report.set_median("http.response_bytes", &response_bytes);
    for (metric, span) in [
        ("json.parse_ms", "json.parse"),
        ("wire.instance_decode_ms", "wire.instance_decode"),
        ("wire.strategy_encode_ms", "wire.strategy_encode"),
        ("revenue.engine_build_ms", "revenue.engine_build"),
        ("greedy.plan_ms", "greedy.plan"),
    ] {
        report.set_median(metric, &tr.self_ms(span));
    }
    // The registry's own share of an open: the open minus the plan of the
    // same instance it runs inside.
    let opens = tr.durations_ms("registry.open_session");
    let plans = tr.durations_ms("greedy.plan");
    let own: Vec<f64> = opens.iter().zip(&plans).map(|(o, p)| o - p).collect();
    report.set_median("registry.open_ms", &own);
    let evals: Vec<f64> = s
        .tenants
        .iter()
        .map(|t| t.reference.marginal_evaluations as f64)
        .collect();
    report.set_median("greedy.marginal_evaluations", &evals);
    let per_selection: Vec<f64> = s
        .tenants
        .iter()
        .map(|t| t.reference.marginal_evaluations as f64 / t.reference.strategy.len().max(1) as f64)
        .collect();
    report.set_median("greedy.evals_per_selection", &per_selection);
    match percentile(&lateness, 0.9) {
        Some(q) => report.set_quantile("gen.lateness_p90_ms", q),
        None => report.set("gen.lateness_p90_ms", f64::NAN, Some(lateness.len())),
    }
    report.set("gen.backlog_end", backlog as f64, None);
    report.set(
        "registry.pooled_snapshots",
        stats.pooled_snapshots as f64,
        None,
    );
    // The registry counts explicit closes as evictions; report the rest.
    let deleted = outcomes
        .iter()
        .flatten()
        .flatten()
        .filter(|sent| matches!(&sent.reply.close, Some(Ok(r)) if r.status == 200))
        .count();
    report.set(
        "registry.sessions_evicted",
        stats.sessions_evicted as f64 - deleted as f64,
        None,
    );
    report.set("trace.overhead_pct", tr.overhead_pct(), None);
    report.set("data.generate_ms", s.generate_ms, None);
    (report, Some(tr))
}

/// Replays [`REPLAYED`] arrivals in-process: first as the server handles
/// them (`http.read`, `api.handle`, `http.write` on a twin registry), then
/// layer by layer. Returns the `api.handle` times per instance.
fn replay(s: &Setup, tr: &mut Tracer, report: &mut Report) -> Vec<Vec<f64>> {
    let registry = Arc::new(Registry::new(
        Arc::new(PlanService::new(1)),
        RegistryConfig::default(),
    ));
    let api = Api::new(Arc::clone(&registry));
    let limits = Limits {
        head_bytes: 16 * 1024,
        body_bytes: HttpConfig::default().body_limit,
    };
    let config = PlannerConfig::default();
    let mut handles = vec![Vec::new(); INSTANCES];
    for j in 0..REPLAYED {
        let k = j % INSTANCES;
        let request = 1_000_000 + j as u64;
        let tenant = &s.tenants[k];
        let raw = raw_request("POST", "/sessions", tenant.body.as_bytes());

        let root = tr.begin("replay.open", None, request);
        let mut buf = Vec::new();
        let read = tr.time("http.read", Some(root), request, || {
            read_request(&mut io::Cursor::new(&raw), &mut buf, &limits, None)
        });
        let revmax_http::request::ReadOutcome::Request(req) = read else {
            report.attempt(Some(format!("replay {j}: the request did not parse")));
            tr.end(root);
            continue;
        };
        let handle = tr.begin("api.handle", Some(root), request);
        let response = api.handle(&req);
        tr.end(handle);
        handles[k].push(
            tr.durations_ms("api.handle")
                .last()
                .copied()
                .unwrap_or(f64::NAN),
        );
        tr.time("http.write", Some(root), request, || {
            let mut out = Vec::with_capacity(response.body.len() + 256);
            response.write_to(&mut out, false).expect("write to memory");
        });
        tr.end(root);
        if let Some(id) = client::number(&response.body, "session_id") {
            let _ = registry.close_session(id as u64);
        }

        let root = tr.begin("replay.layers", None, request);
        let value = tr.time("json.parse", Some(root), request, || {
            json::parse(&tenant.body)
        });
        let instance = value.ok().and_then(|v| v.get("instance").cloned());
        let Some(inst) = instance.and_then(|v| {
            tr.time("wire.instance_decode", Some(root), request, || {
                wire::instance_from_value(&v)
            })
            .ok()
        }) else {
            report.attempt(Some(format!("replay {j}: the body did not decode")));
            tr.end(root);
            continue;
        };
        tr.time("revenue.engine_build", Some(root), request, || {
            drop(IncrementalRevenue::with_options(&inst, false))
        });
        let outcome = tr.time("greedy.plan", Some(root), request, || plan(&inst, &config));
        let copy = inst.clone();
        let opened = tr.time("registry.open_session", Some(root), request, || {
            registry.open_session(copy, config)
        });
        if let Ok((id, _)) = opened {
            let _ = registry.close_session(id);
        }
        tr.time("wire.strategy_encode", Some(root), request, || {
            wire::strategy_to_value(&outcome.strategy).to_string().len()
        });
        tr.end(root);
        report.attempt(
            same_plan(&outcome, &tenant.reference)
                .map(|p| format!("replay {j}: in-process plan differs: {p}")),
        );
    }
    handles
}
