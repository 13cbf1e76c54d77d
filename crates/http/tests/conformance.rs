//! Protocol conformance: a table of golden request → status cases over a
//! real loopback socket, plus the end-to-end acceptance walk — an
//! Amazon-shaped instance planned and replanned over the wire must match
//! the in-process `PlanSession` to 1e-9 on both engines.

use revmax_algorithms::{EngineKind, PlannerConfig};
use revmax_core::{json, wire, AdoptionEvent, Instance, InstanceBuilder};
use revmax_data::{generate, DatasetConfig};
use revmax_http::{testkit, HttpConfig, Server};
use revmax_serve::{PlanService, PlanSession, Registry, RegistryConfig};
use std::sync::Arc;
use std::time::Duration;

fn tiny_instance() -> Instance {
    let mut b = InstanceBuilder::new(3, 2, 3);
    b.display_limit(1)
        .beta(0, 0.4)
        .beta(1, 0.6)
        .prices(0, &[8.0, 7.0, 6.0])
        .prices(1, &[3.0, 3.5, 4.0]);
    for u in 0..3 {
        let base = 0.15 + 0.1 * f64::from(u);
        b.candidate(u, 0, &[base, 0.2, 0.25], 4.0);
        b.candidate(u, 1, &[0.2, base, 0.1], 3.0);
    }
    b.build().expect("tiny instance is valid")
}

fn start_server(config: HttpConfig) -> Server {
    let registry = Arc::new(Registry::new(
        Arc::new(PlanService::new(2)),
        config.registry,
    ));
    Server::start(registry, config).expect("bind loopback")
}

fn submission_body(inst: &Instance, config_json: &str) -> String {
    format!(
        "{{\"instance\":{},\"config\":{config_json}}}",
        wire::instance_to_json(inst)
    )
}

/// Polls `GET /plans/{id}` until it answers 200 (or times out).
fn wait_plan(client: &mut testkit::Client, id: u64) -> json::JsonValue {
    for _ in 0..2000 {
        let (status, body) = client
            .request("GET", &format!("/plans/{id}"), None)
            .expect("poll plan");
        match status {
            200 => return json::parse(&body).expect("plan JSON parses"),
            202 => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("unexpected status {other} polling plan {id}: {body}"),
        }
    }
    panic!("plan {id} did not finish");
}

#[test]
fn golden_request_table() {
    let server = start_server(HttpConfig::default());
    let addr = server.addr();
    let inst = tiny_instance();
    let valid = submission_body(&inst, "{}");
    // Build-invalid: probability above 1 parses and passes the schema but
    // fails `InstanceBuilder::build` (422, distinct from the 400s).
    let build_invalid = valid.replacen("0.15", "1.5", 1);
    assert_ne!(build_invalid, valid, "replacement must hit a probability");
    // Unknown config keys are rejected even next to a valid instance;
    // `heap` is a retired key and answers like any other unknown one.
    let unknown_config_key = submission_body(&inst, "{\"warm\":true}");
    let retired_heap_key = submission_body(&inst, "{\"heap\":\"lazy\"}");

    // (name, method, target, body, expected status)
    let table: &[(&str, &str, &str, Option<&str>, u16)] = &[
        ("health", "GET", "/healthz", None, 200),
        ("stats", "GET", "/statsz", None, 200),
        ("unknown endpoint", "GET", "/nope", None, 404),
        ("unknown plan", "GET", "/plans/999999", None, 404),
        (
            "unknown session read",
            "GET",
            "/sessions/999999/suffix",
            None,
            404,
        ),
        (
            "wrong method on health",
            "POST",
            "/healthz",
            Some("{}"),
            405,
        ),
        ("wrong method on instances", "GET", "/instances", None, 405),
        (
            "wrong method on session",
            "PUT",
            "/sessions/0",
            Some("{}"),
            405,
        ),
        ("malformed JSON", "POST", "/instances", Some("{oops"), 400),
        ("non-object body", "POST", "/instances", Some("[1,2]"), 400),
        ("missing instance", "POST", "/instances", Some("{}"), 400),
        (
            "unknown submission key",
            "POST",
            "/instances",
            Some("{\"instnace\":{}}"),
            400,
        ),
        (
            "schema violation",
            "POST",
            "/instances",
            Some("{\"instance\":{\"users\":1}}"),
            400,
        ),
        // A ~100-byte body claiming u32::MAX-sized dimensions must be a
        // fast 400 (wire caps), not a multi-GiB allocation in the builder.
        (
            "oversized dimensions",
            "POST",
            "/instances",
            Some(
                "{\"instance\":{\"users\":4294967295,\"items\":4294967295,\
                 \"horizon\":4294967295,\"prices\":[],\"candidates\":[]}}",
            ),
            400,
        ),
        (
            "build violation",
            "POST",
            "/instances",
            Some(&build_invalid),
            422,
        ),
        (
            "unknown config key",
            "POST",
            "/sessions",
            Some(&unknown_config_key),
            400,
        ),
        (
            "unknown config key (retired heap)",
            "POST",
            "/sessions",
            Some(&retired_heap_key),
            400,
        ),
    ];
    for (name, method, target, body, expected) in table {
        let (status, reply) =
            testkit::request(addr, method, target, *body).expect("request completes");
        assert_eq!(status, *expected, "case {name:?}: {reply}");
        if *expected >= 400 {
            let value = json::parse(&reply).expect("error bodies are JSON");
            assert!(
                value.get("error").is_some(),
                "case {name:?} has no error key"
            );
        }
    }

    // Health body is pinned exactly.
    let (_, health) = testkit::request(addr, "GET", "/healthz", None).expect("health");
    assert_eq!(health, "{\"status\":\"ok\"}");
    assert!(server.shutdown());
}

#[test]
fn malformed_wire_bytes_get_structured_rejections() {
    let server = start_server(HttpConfig {
        body_limit: 256,
        ..HttpConfig::default()
    });
    let addr = server.addr();

    // (name, raw bytes, expected status)
    let mut huge_head = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..300 {
        huge_head.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    huge_head.extend_from_slice(b"\r\n");
    let oversized_body = format!(
        "POST /instances HTTP/1.1\r\nContent-Length: 1000\r\n\r\n{}",
        "x".repeat(1000)
    );
    let table: &[(&str, &[u8], u16)] = &[
        ("garbage", b"\x00\x01\x02\x03\r\n\r\n", 400),
        ("missing version", b"GET /\r\n\r\n", 400),
        ("http2", b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (
            "chunked upload",
            b"POST /instances HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            501,
        ),
        ("oversized body", oversized_body.as_bytes(), 413),
        ("oversized head", &huge_head, 431),
        (
            "conflicting content-length",
            b"GET /healthz HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            400,
        ),
    ];
    for (name, bytes, expected) in table {
        let (status, reply) = testkit::send_raw(addr, bytes).expect("response before close");
        assert_eq!(status, *expected, "case {name:?}: {reply}");
    }
    assert!(server.shutdown());
}

/// Workers must not be pinnable: a connection that sends nothing is closed
/// after the idle deadline, and one that stalls mid-request is answered
/// `408` — and the pool keeps serving afterwards.
#[test]
fn idle_and_trickling_connections_are_reaped() {
    use std::io::{Read, Write};

    let server = start_server(HttpConfig {
        idle_timeout: Duration::from_millis(300),
        ..HttpConfig::default()
    });
    let addr = server.addr();

    // Silent connection: closed (EOF) without a response.
    let mut idle = std::net::TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    assert_eq!(
        idle.read(&mut byte).expect("server closes the idle conn"),
        0,
        "idle connection should be closed, not answered"
    );

    // Stalled partial request: answered 408, then closed.
    let mut trickle = std::net::TcpStream::connect(addr).expect("connect");
    trickle
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    trickle.write_all(b"GET /healthz HT").expect("partial head");
    let mut reply = String::new();
    trickle.read_to_string(&mut reply).expect("read 408");
    assert!(
        reply.starts_with("HTTP/1.1 408 "),
        "stalled request should get 408, got {reply:?}"
    );

    // The worker pool is intact: fresh requests still answer.
    let (status, _) = testkit::request(addr, "GET", "/healthz", None).expect("health");
    assert_eq!(status, 200);
    assert!(server.shutdown());
}

#[test]
fn plan_fetch_matches_in_process_planning_exactly() {
    let server = start_server(HttpConfig::default());
    let addr = server.addr();
    let inst = tiny_instance();
    let mut client = testkit::Client::connect(addr).expect("connect");

    let (status, body) = client
        .request("POST", "/instances", Some(&submission_body(&inst, "{}")))
        .expect("submit");
    assert_eq!(status, 202, "{body}");
    let ticket = json::parse(&body).expect("ticket JSON");
    assert_eq!(
        ticket.get("status").and_then(|v| v.as_str()),
        Some("queued")
    );
    let id = ticket
        .get("plan_id")
        .and_then(|v| v.as_u64())
        .expect("plan id");

    let plan = wait_plan(&mut client, id);
    let wire_revenue = plan
        .get("revenue")
        .and_then(|v| v.as_f64())
        .expect("revenue");
    let wire_strategy =
        wire::strategy_from_value(plan.get("strategy").expect("strategy")).expect("strategy");

    let reference = revmax_algorithms::plan(&inst, &PlannerConfig::default());
    // Shortest-round-trip f64 formatting makes the fetch bit-exact.
    assert_eq!(wire_revenue.to_bits(), reference.revenue.to_bits());
    assert_eq!(wire_strategy.as_slice(), reference.strategy.as_slice());

    // The report remains fetchable (poll/fetch, not fetch-once).
    let again = wait_plan(&mut client, id);
    assert_eq!(again, plan);
    assert!(server.shutdown());
}

#[test]
fn session_conflicts_closures_and_evictions_answer_correctly() {
    // max_sessions: 1 forces LRU eviction on the second open.
    let server = start_server(HttpConfig {
        registry: RegistryConfig {
            max_sessions: 1,
            ..RegistryConfig::default()
        },
        ..HttpConfig::default()
    });
    let addr = server.addr();
    let inst = tiny_instance();
    let mut client = testkit::Client::connect(addr).expect("connect");
    let open = submission_body(&inst, "{}");

    let (status, body) = client
        .request("POST", "/sessions", Some(&open))
        .expect("open");
    assert_eq!(status, 201, "{body}");
    let first = json::parse(&body).expect("session JSON");
    let sid = first
        .get("session_id")
        .and_then(|v| v.as_u64())
        .expect("sid");
    let suffix =
        wire::strategy_from_value(first.get("suffix").expect("suffix")).expect("suffix parses");
    assert!(!suffix.is_empty());

    // Advance to day 1 adopting one displayed triple.
    let day1 = suffix
        .as_slice()
        .iter()
        .find(|z| z.t.value() == 1)
        .expect("day-1 display");
    let event = format!(
        "{{\"user\":{},\"item\":{},\"t\":1,\"outcome\":\"adopted\"}}",
        day1.user.0, day1.item.0
    );
    let advance = format!("{{\"now\":1,\"events\":[{event}]}}");
    let (status, body) = client
        .request("POST", &format!("/sessions/{sid}/events"), Some(&advance))
        .expect("advance");
    assert_eq!(status, 200, "{body}");
    let view = json::parse(&body).expect("view JSON");
    assert_eq!(view.get("now").and_then(|v| v.as_u32()), Some(1));
    assert_eq!(view.get("events_applied").and_then(|v| v.as_u32()), Some(1));

    // Double submission of the same batch: `now` is no longer monotone → 409.
    let (status, body) = client
        .request("POST", &format!("/sessions/{sid}/events"), Some(&advance))
        .expect("re-advance");
    assert_eq!(status, 409, "{body}");
    // Same event against a later frontier: stale → 409, state unchanged.
    let stale = format!("{{\"now\":2,\"events\":[{event}]}}");
    let (status, body) = client
        .request("POST", &format!("/sessions/{sid}/events"), Some(&stale))
        .expect("stale advance");
    assert_eq!(status, 409, "{body}");
    let (status, body) = client
        .request("GET", &format!("/sessions/{sid}/suffix"), None)
        .expect("read");
    assert_eq!(status, 200);
    assert_eq!(
        json::parse(&body)
            .expect("view")
            .get("now")
            .and_then(|v| v.as_u32()),
        Some(1),
        "conflicting advances must not move the frontier"
    );

    // Malformed event submissions.
    let bad: &[(&str, &str, u16)] = &[
        ("unknown key", "{\"events\":[],\"nope\":1}", 400),
        ("missing events", "{\"now\":2}", 400),
        ("non-integer now", "{\"events\":[],\"now\":1.5}", 400),
        (
            "event for unknown user",
            "{\"now\":2,\"events\":[{\"user\":999,\"item\":0,\"t\":2,\"outcome\":\"adopted\"}]}",
            422,
        ),
    ];
    for (name, body, expected) in bad {
        let (status, reply) = client
            .request("POST", &format!("/sessions/{sid}/events"), Some(body))
            .expect("request completes");
        assert_eq!(status, *expected, "case {name:?}: {reply}");
    }

    // Eviction race: opening a second session evicts the first (limit 1);
    // the evicted id answers 410 immediately — it must not hang.
    let (status, body) = client
        .request("POST", "/sessions", Some(&open))
        .expect("open 2nd");
    assert_eq!(status, 201, "{body}");
    let (status, _) = client
        .request("GET", &format!("/sessions/{sid}/suffix"), None)
        .expect("evicted read");
    assert_eq!(status, 410);
    let (status, _) = client
        .request("DELETE", &format!("/sessions/{sid}"), None)
        .expect("evicted delete");
    assert_eq!(status, 410);

    // Explicit close → 410 afterwards.
    let second = json::parse(&body).expect("session JSON");
    let sid2 = second
        .get("session_id")
        .and_then(|v| v.as_u64())
        .expect("sid");
    let (status, _) = client
        .request("DELETE", &format!("/sessions/{sid2}"), None)
        .expect("close");
    assert_eq!(status, 200);
    let (status, _) = client
        .request("GET", &format!("/sessions/{sid2}/suffix"), None)
        .expect("closed read");
    assert_eq!(status, 410);
    assert!(server.shutdown());
}

/// The acceptance walk: an Amazon-shaped instance served over a real
/// socket, ≥ 5 adoption events streamed day by day, and the wire session's
/// suffix + revenue must track an in-process twin to 1e-9 — on both
/// engines, with the engine selected through the wire config.
#[test]
fn amazon_shaped_session_over_the_wire_matches_in_process_to_1e9() {
    let ds = generate(&DatasetConfig::amazon_like().scaled(0.01));
    let inst = &ds.instance;
    let server = start_server(HttpConfig::default());
    let addr = server.addr();

    for (engine_name, engine) in [("flat", EngineKind::Flat), ("hash", EngineKind::Hash)] {
        let mut client = testkit::Client::connect(addr).expect("connect");
        let config_json = format!("{{\"engine\":\"{engine_name}\",\"warm_start\":true}}");
        let twin_config = PlannerConfig::default()
            .with_engine(engine)
            .with_warm_start(true);
        let mut twin = PlanSession::new(inst.clone(), twin_config);

        let (status, body) = client
            .request(
                "POST",
                "/sessions",
                Some(&submission_body(inst, &config_json)),
            )
            .expect("open");
        assert_eq!(status, 201, "[{engine_name}] {body}");
        let view = json::parse(&body).expect("session JSON");
        let sid = view
            .get("session_id")
            .and_then(|v| v.as_u64())
            .expect("sid");
        let horizon = view
            .get("horizon")
            .and_then(|v| v.as_u32())
            .expect("horizon");
        assert_eq!(horizon, inst.horizon());
        let opening_suffix =
            wire::strategy_from_value(view.get("suffix").expect("suffix")).expect("suffix");
        assert_eq!(
            opening_suffix.as_slice(),
            twin.planned_suffix().as_slice(),
            "[{engine_name}] opening plans diverge"
        );

        let mut total_events = 0usize;
        let days = horizon.min(6);
        for day in 1..=days {
            // Shopper rule: adopt every second triple the twin displays
            // today (the wire session is asserted identical, so both see
            // the same display set).
            let events: Vec<AdoptionEvent> = twin
                .upcoming()
                .into_iter()
                .enumerate()
                .map(|(idx, z)| {
                    if idx % 2 == 0 {
                        AdoptionEvent::adopted(z.user.0, z.item.0, z.t.value())
                    } else {
                        AdoptionEvent::rejected(z.user.0, z.item.0, z.t.value())
                    }
                })
                .collect();
            total_events += events.len();
            let body = format!(
                "{{\"now\":{day},\"events\":{}}}",
                wire::events_to_json(&events)
            );
            let (status, reply) = client
                .request("POST", &format!("/sessions/{sid}/events"), Some(&body))
                .expect("advance");
            assert_eq!(status, 200, "[{engine_name}] day {day}: {reply}");
            let twin_report = twin.advance_to(day, &events).expect("twin advances");
            assert!(!twin_report.pending);

            let view = json::parse(&reply).expect("view JSON");
            let suffix =
                wire::strategy_from_value(view.get("suffix").expect("suffix")).expect("suffix");
            assert_eq!(
                suffix.as_slice(),
                twin.planned_suffix().as_slice(),
                "[{engine_name}] day {day}: replanned suffixes diverge"
            );
            let expected = view
                .get("expected_remaining_revenue")
                .and_then(|v| v.as_f64())
                .expect("expected revenue");
            let realized = view
                .get("realized_revenue")
                .and_then(|v| v.as_f64())
                .expect("realized revenue");
            assert!(
                (expected - twin_report.expected_remaining_revenue).abs()
                    <= 1e-9 * expected.abs().max(1.0),
                "[{engine_name}] day {day}: expected revenue {expected} vs {}",
                twin_report.expected_remaining_revenue
            );
            assert!(
                (realized - twin_report.realized_revenue).abs() <= 1e-9 * realized.abs().max(1.0),
                "[{engine_name}] day {day}: realized revenue {realized} vs {}",
                twin_report.realized_revenue
            );
        }
        assert!(
            total_events >= 5,
            "[{engine_name}] acceptance requires ≥ 5 adoption events, got {total_events}"
        );
        let (status, _) = client
            .request("DELETE", &format!("/sessions/{sid}"), None)
            .expect("close");
        assert_eq!(status, 200);
    }
    assert!(server.shutdown());
}
