//! The protocol handlers: a pure mapping from parsed [`Request`]s to
//! [`Response`]s over a [`Registry`] — no sockets, so the conformance suite
//! can exercise every status path in-process and over loopback identically.
//!
//! Request bodies are decoded straight from their bytes by the streaming
//! wire decoders ([`wire::read_instance`], [`wire::read_events`]) on one
//! [`Reader`]; session and plan bodies are written directly into a
//! `String`. Only the small `config` object goes through a [`JsonValue`].

use crate::request::Request;
use crate::response::Response;
use crate::router::{route, Route, RouteError};
use revmax_algorithms::{PlanAlgorithm, PlannerConfig};
use revmax_core::json::{self, JsonError, JsonValue, Kind, Reader};
use revmax_core::{wire, AdoptionEvent, WireError};
use revmax_serve::{
    PlanView, Registry, RegistryError, RegistryStats, SessionError, SessionView, TicketStatus,
};
use std::sync::Arc;

/// The request handler shared by every connection worker.
pub struct Api {
    registry: Arc<Registry>,
}

impl Api {
    /// A handler over `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        Api { registry }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Answers one request. Total: every input maps to a response with a
    /// definite status (this function never panics on untrusted input).
    pub fn handle(&self, req: &Request) -> Response {
        let route = match route(&req.head.method, &req.head.target) {
            Ok(r) => r,
            Err(RouteError::NotFound) => return Response::error(404, "no such endpoint"),
            Err(RouteError::MethodNotAllowed) => {
                return Response::error(405, "method not allowed on this endpoint")
            }
        };
        match route {
            Route::Health => Response::json(
                200,
                json::object(vec![("status", JsonValue::String("ok".into()))]),
            ),
            Route::Stats => self.stats(),
            Route::SubmitPlan => self.submit_plan(&req.body),
            Route::PlanStatus(id) => self.plan_status(id),
            Route::OpenSession => self.open_session(&req.body),
            Route::SessionEvents(id) => self.session_events(id, &req.body),
            Route::SessionSuffix(id) => match self.registry.session_view(id) {
                Ok(view) => Response {
                    status: 200,
                    body: session_body(&view),
                },
                Err(e) => registry_error(&e),
            },
            Route::CloseSession(id) => match self.registry.close_session(id) {
                Ok(()) => Response::json(
                    200,
                    json::object(vec![
                        ("session_id", id_json(id)),
                        ("closed", JsonValue::Bool(true)),
                    ]),
                ),
                Err(e) => registry_error(&e),
            },
        }
    }

    fn stats(&self) -> Response {
        let RegistryStats {
            queued_plans,
            stored_plans,
            active_sessions,
            pooled_snapshots,
            plans_evicted,
            sessions_evicted,
        } = self.registry.stats();
        Response::json(
            200,
            json::object(vec![
                ("queued_plans", count_json(queued_plans)),
                ("stored_plans", count_json(stored_plans)),
                ("active_sessions", count_json(active_sessions)),
                ("pooled_snapshots", count_json(pooled_snapshots)),
                ("plans_evicted", id_json(plans_evicted)),
                ("sessions_evicted", id_json(sessions_evicted)),
            ]),
        )
    }

    fn submit_plan(&self, body: &[u8]) -> Response {
        let (inst, config) = match parse_submission(body) {
            Ok(parts) => parts,
            Err(resp) => return *resp,
        };
        match self.registry.submit_plan(inst, config) {
            Ok(id) => Response::json(
                202,
                json::object(vec![
                    ("plan_id", id_json(id)),
                    ("status", JsonValue::String("queued".into())),
                ]),
            ),
            Err(e) => registry_error(&e),
        }
    }

    fn plan_status(&self, id: u64) -> Response {
        match self.registry.plan_status(id) {
            Ok(view) => Response {
                status: if matches!(view, PlanView::Done(_)) {
                    200
                } else {
                    202
                },
                body: plan_body(id, &view),
            },
            Err(e) => registry_error(&e),
        }
    }

    fn open_session(&self, body: &[u8]) -> Response {
        let (inst, config) = match parse_submission(body) {
            Ok(parts) => parts,
            Err(resp) => return *resp,
        };
        match self.registry.open_session(inst, config) {
            Ok((_, view)) => Response {
                status: 201,
                body: session_body(&view),
            },
            Err(e) => registry_error(&e),
        }
    }

    fn session_events(&self, id: u64, body: &[u8]) -> Response {
        let (events, now) = match parse_events(body) {
            Ok(parts) => parts,
            Err(resp) => return *resp,
        };
        match self.registry.advance_session(id, now, &events) {
            Ok(view) => Response {
                status: 200,
                body: session_body(&view),
            },
            Err(e) => registry_error(&e),
        }
    }
}

/// A body rejected before it reached the registry.
type Rejection = Box<Response>;

fn bad_request(message: &str) -> Rejection {
    Box::new(Response::error(400, message))
}

fn json_error(e: JsonError) -> Rejection {
    bad_request(&e.to_string())
}

/// Opens the top-level object of a request body.
fn begin_body(r: &mut Reader<'_>) -> Result<(), Rejection> {
    if r.peek().map_err(json_error)? != Kind::Object {
        return Err(bad_request("request body must be a JSON object"));
    }
    r.begin_object().map_err(json_error)
}

/// `{"instance": ..., "config"?: ...}` → a built instance + planner config,
/// decoded straight from the body bytes.
///
/// Keys are handled in document order and the first failing key decides
/// the answer, except that a malformed document is always a `400`: an
/// instance that fails to build (`422`) is reported only once the rest of
/// the body has been read and found to be valid JSON.
fn parse_submission(body: &[u8]) -> Result<(revmax_core::Instance, PlannerConfig), Rejection> {
    let mut r = Reader::new(body);
    begin_body(&mut r)?;
    let mut instance = None;
    let mut config = PlannerConfig::default();
    let mut unbuildable = None;
    while let Some(key) = r.next_key().map_err(json_error)? {
        if unbuildable.is_some() {
            r.skip().map_err(json_error)?;
            continue;
        }
        match &*key {
            "instance" => match wire::read_instance(&mut r) {
                Ok(inst) => instance = Some(inst),
                Err(e @ WireError::Build(_)) => unbuildable = Some(e),
                Err(e) => return Err(Box::new(wire_error(&e))),
            },
            "config" => {
                let value = r.value().map_err(json_error)?;
                config = planner_config_from(&value).map_err(|m| bad_request(&m))?;
            }
            _ => return Err(bad_request("unknown key in plan submission")),
        }
    }
    r.finish().map_err(json_error)?;
    if let Some(e) = unbuildable {
        return Err(Box::new(wire_error(&e)));
    }
    let instance = instance.ok_or_else(|| bad_request("missing \"instance\" object"))?;
    Ok((instance, config))
}

/// `{"events": [...], "now"?: t}` → the event batch and the optional
/// explicit frontier, decoded straight from the body bytes.
fn parse_events(body: &[u8]) -> Result<(Vec<AdoptionEvent>, Option<u32>), Rejection> {
    let mut r = Reader::new(body);
    begin_body(&mut r)?;
    let mut events = None;
    let mut now = None;
    while let Some(key) = r.next_key().map_err(json_error)? {
        match &*key {
            "events" => {
                let batch = wire::read_events(&mut r).map_err(|e| Box::new(wire_error(&e)))?;
                events = Some(batch);
            }
            "now" => {
                let value = r.value().map_err(json_error)?;
                let t = value
                    .as_u32()
                    .ok_or_else(|| bad_request("\"now\" must be an integer time step"))?;
                now = Some(t);
            }
            _ => return Err(bad_request("unknown key in event submission")),
        }
    }
    r.finish().map_err(json_error)?;
    let events = events.ok_or_else(|| bad_request("missing \"events\" array"))?;
    Ok((events, now))
}

/// The wire subset of [`PlannerConfig`]: the algorithm selector plus the
/// knobs a remote client can meaningfully set. The shard count is not
/// among them: it takes effect only with two or more shard threads, which
/// the wire does not set. Unknown keys are rejected so typos fail loudly
/// instead of silently defaulting.
fn planner_config_from(value: &JsonValue) -> Result<PlannerConfig, String> {
    let Some(obj) = value.as_object() else {
        return Err("\"config\" must be a JSON object".into());
    };
    let mut cfg = PlannerConfig::default();
    for (key, field) in obj {
        match key.as_str() {
            "algorithm" => {
                let name = field.as_str().ok_or("\"algorithm\" must be a string")?;
                cfg = cfg.with_algorithm(match name {
                    "gg" => PlanAlgorithm::GlobalGreedy,
                    "gg-no" => PlanAlgorithm::GlobalNoSaturation,
                    "slg" => PlanAlgorithm::SequentialLocalGreedy,
                    "rlg" => PlanAlgorithm::RandomizedLocalGreedy { permutations: 20 },
                    other => return Err(format!("unknown algorithm {other:?}")),
                });
            }
            "seed" => {
                let n = field
                    .as_u64()
                    .ok_or("\"seed\" must be a non-negative integer")?;
                cfg = cfg.with_seed(n);
            }
            "warm_start" => {
                let b = field.as_bool().ok_or("\"warm_start\" must be a boolean")?;
                cfg = cfg.with_warm_start(b);
            }
            "parallel" => {
                let b = field.as_bool().ok_or("\"parallel\" must be a boolean")?;
                cfg = cfg.with_parallel(Some(b));
            }
            other => return Err(format!("unknown config key {other:?}")),
        }
    }
    Ok(cfg)
}

/// The JSON document for a session view (shared by open/advance/read),
/// written directly: `session_id`, `now`, `horizon`, `exhausted`,
/// `events_applied`, `replans`, `expected_remaining_revenue`,
/// `realized_revenue`, `suffix`.
fn session_body(view: &SessionView) -> String {
    let mut out = String::with_capacity(200 + 16 * view.suffix.len());
    out.push_str("{\"session_id\":");
    json::write_f64(&mut out, view.id as f64);
    out.push_str(",\"now\":");
    json::write_u32(&mut out, view.now);
    out.push_str(",\"horizon\":");
    json::write_u32(&mut out, view.horizon);
    out.push_str(if view.exhausted {
        ",\"exhausted\":true"
    } else {
        ",\"exhausted\":false"
    });
    out.push_str(",\"events_applied\":");
    json::write_f64(&mut out, view.events_applied as f64);
    out.push_str(",\"replans\":");
    json::write_u32(&mut out, view.replans);
    out.push_str(",\"expected_remaining_revenue\":");
    json::write_f64(&mut out, view.expected_remaining_revenue);
    out.push_str(",\"realized_revenue\":");
    json::write_f64(&mut out, view.realized_revenue);
    out.push_str(",\"suffix\":");
    wire::write_strategy(&mut out, &view.suffix);
    out.push('}');
    out
}

/// The JSON document for `GET /plans/{id}`, written directly: `plan_id`
/// and `status` while pending, plus `revenue` and `strategy` once done.
fn plan_body(id: u64, view: &PlanView) -> String {
    let mut out = String::from("{\"plan_id\":");
    json::write_f64(&mut out, id as f64);
    match view {
        PlanView::Pending(TicketStatus::Queued) => out.push_str(",\"status\":\"queued\""),
        PlanView::Pending(_) => out.push_str(",\"status\":\"running\""),
        PlanView::Done(report) => {
            out.reserve(64 + 16 * report.outcome.strategy.len());
            out.push_str(",\"status\":\"done\",\"revenue\":");
            json::write_f64(&mut out, report.outcome.revenue);
            out.push_str(",\"strategy\":");
            wire::write_strategy(&mut out, &report.outcome.strategy);
        }
    }
    out.push('}');
    out
}

/// Registry ids are sequential and far below 2^53, so `f64` is lossless.
fn id_json(id: u64) -> JsonValue {
    JsonValue::Number(id as f64)
}

fn count_json(n: usize) -> JsonValue {
    JsonValue::Number(n as f64)
}

/// Maps a registry refusal to its protocol status:
/// 404 (never issued), 410 (evicted/closed), 429 (backlog),
/// 409 (event conflicts with the session frontier), 422 (event invalid
/// against the instance).
fn registry_error(e: &RegistryError) -> Response {
    match e {
        RegistryError::NotFound => Response::error(404, "unknown id"),
        RegistryError::Gone => Response::error(410, "evicted or closed"),
        RegistryError::PlanBacklog { limit } => {
            Response::error(429, &format!("plan backlog full (limit {limit})"))
        }
        RegistryError::Session(se) => match se {
            SessionError::Event(_) => Response::error(422, &se.to_string()),
            SessionError::NotMonotone { .. }
            | SessionError::BeyondHorizon { .. }
            | SessionError::StaleEvent { .. } => Response::error(409, &se.to_string()),
        },
    }
}

/// Maps a wire decoding failure: 400 for malformed JSON or schema
/// violations, 422 for documents that parse but build an invalid instance.
fn wire_error(e: &WireError) -> Response {
    match e {
        WireError::Json(_) | WireError::Schema { .. } => Response::error(400, &e.to_string()),
        WireError::Build(_) => Response::error(422, &e.to_string()),
    }
}
