//! What the benchmark measures and why: workloads, the end-to-end metrics
//! the final JSON line carries, the named metrics each workload prints, and
//! the per-layer metrics with the end-to-end metric each should move.
//! Every run prints this record; `BENCHMARK.json` lists the same metrics.

use revmax_core::json::{self, JsonValue};

pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "replan",
        "Storefront steady state: warm sessions replan on event batches sent open-loop with suffix reads; events, service, warm greedy, strategy encode and http queueing work.",
    ),
    (
        "onboard",
        "Tenants arriving: distinct 6.4 MB instances are opened over HTTP and deleted at a fixed open-loop rate; json and wire decode, cold engine build and the full plan work.",
    ),
    (
        "plan_scale",
        "The paper's section 6 scalability setting in-process: synthetic plans at 1 and nproc shards plus a contended amazon plan; only greedy, sharded and revenue work.",
    ),
];

/// A metric of the final JSON line.
pub struct Gated {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// End-to-end metrics, on every workload (`--trace 0`).
pub const END_TO_END: [Gated; 4] = [
    Gated {
        name: "p50_ms",
        unit: "ms",
        better: "lower",
    },
    Gated {
        name: "p90_ms",
        unit: "ms",
        better: "lower",
    },
    Gated {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    Gated {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// What `p50_ms` and `p90_ms` time on each workload.
pub const HEADLINE: [(&str, &str); 3] = [
    (
        "replan",
        "POST /sessions/{id}/events round trip at the nominal rate (replan_p50_ms, replan_p90_ms)",
    ),
    (
        "onboard",
        "POST /sessions round trip (onboard_p50_ms, onboard_p90_ms)",
    ),
    (
        "plan_scale",
        "in-process plan of the synthetic instance on one shard (plan_ms)",
    ),
];

/// Per-layer metrics present on every workload (`--trace 1`).
pub const PER_LAYER: [Gated; 6] = [
    Gated {
        name: "revenue.engine_build_ms",
        unit: "ms",
        better: "lower",
    },
    Gated {
        name: "greedy.plan_ms",
        unit: "ms",
        better: "lower",
    },
    Gated {
        name: "greedy.marginal_evaluations",
        unit: "count",
        better: "lower",
    },
    Gated {
        name: "greedy.evals_per_selection",
        unit: "evals/sel",
        better: "lower",
    },
    Gated {
        name: "trace.overhead_pct",
        unit: "%",
        better: "lower",
    },
    Gated {
        name: "data.generate_ms",
        unit: "ms",
        better: "lower",
    },
];

/// A metric printed by name: end-to-end on its workloads (untraced run) or
/// per layer (traced run).
pub struct Named {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub workloads: &'static [&'static str],
    /// The end-to-end metrics a change to this metric should move.
    pub moves: &'static str,
    /// Why the metric does not exist on the workloads that lack it.
    pub absent: &'static str,
}

const ALL: &[&str] = &["replan", "onboard", "plan_scale"];
const HTTP: &[&str] = &["replan", "onboard"];
const REPLAN: &[&str] = &["replan"];
const ONBOARD: &[&str] = &["onboard"];
const PLAN_SCALE: &[&str] = &["plan_scale"];
const NO_HTTP: &str = "plan_scale runs in-process, without http, json, wire, registry or service";
const NO_EVENTS: &str = "only replan posts event batches; sessions elsewhere are opened and closed";
const ONE_SHARD: &str = "the serving configuration plans on one shard";

macro_rules! named {
    ($name:expr, $unit:expr, $better:expr, $layer:expr, $workloads:expr, $moves:expr, $absent:expr) => {
        Named {
            name: $name,
            unit: $unit,
            better: $better,
            layer: $layer,
            workloads: $workloads,
            moves: $moves,
            absent: $absent,
        }
    };
}

/// The end-to-end metrics printed by name on their workloads.
pub const NAMED_END_TO_END: &[Named] = &[
    named!("replan_p50_ms", "ms", "lower", "end_to_end", REPLAN, "", ""),
    named!("replan_p90_ms", "ms", "lower", "end_to_end", REPLAN, "", ""),
    named!(
        "suffix_read_p50_ms",
        "ms",
        "lower",
        "end_to_end",
        REPLAN,
        "",
        ""
    ),
    named!(
        "replan_max_rps",
        "1/s",
        "higher",
        "end_to_end",
        REPLAN,
        "",
        ""
    ),
    named!(
        "onboard_p50_ms",
        "ms",
        "lower",
        "end_to_end",
        ONBOARD,
        "",
        ""
    ),
    named!(
        "onboard_p90_ms",
        "ms",
        "lower",
        "end_to_end",
        ONBOARD,
        "",
        ""
    ),
    named!("plan_ms", "ms", "lower", "end_to_end", PLAN_SCALE, "", ""),
    named!(
        "plan_sharded_ms",
        "ms",
        "lower",
        "end_to_end",
        PLAN_SCALE,
        "",
        ""
    ),
    named!(
        "plan_contended_ms",
        "ms",
        "lower",
        "end_to_end",
        PLAN_SCALE,
        "",
        ""
    ),
    named!("setup_s", "s", "lower", "end_to_end", ALL, "", ""),
    named!("peak_rss_mb", "MB", "lower", "end_to_end", ALL, "", ""),
    named!("failed_share", "share", "lower", "end_to_end", ALL, "", ""),
];

/// The per-layer metrics, with the end-to-end metric each should move.
pub const NAMED_PER_LAYER: &[Named] = &[
    named!(
        "http.transport_ms",
        "ms",
        "lower",
        "http",
        HTTP,
        "replan_p90_ms and replan_max_rps under load; onboard_p50_ms through the 6.4 MB body",
        NO_HTTP
    ),
    named!(
        "http.request_bytes",
        "bytes",
        "lower",
        "http",
        HTTP,
        "http.transport_ms",
        NO_HTTP
    ),
    named!(
        "http.response_bytes",
        "bytes",
        "lower",
        "http",
        HTTP,
        "http.transport_ms",
        NO_HTTP
    ),
    named!(
        "json.parse_ms",
        "ms",
        "lower",
        "json",
        HTTP,
        "onboard_p50_ms; no change predicted on replan (small event bodies)",
        NO_HTTP
    ),
    named!(
        "wire.instance_decode_ms",
        "ms",
        "lower",
        "wire",
        ONBOARD,
        "onboard_p50_ms",
        "only onboard sends instances over the wire"
    ),
    named!(
        "wire.events_decode_ms",
        "ms",
        "lower",
        "wire",
        REPLAN,
        "replan_p50_ms, a little",
        NO_EVENTS
    ),
    named!(
        "wire.strategy_encode_ms",
        "ms",
        "lower",
        "wire",
        HTTP,
        "suffix_read_p50_ms most, then replan_p50_ms and onboard_p50_ms",
        NO_HTTP
    ),
    named!(
        "registry.advance_ms",
        "ms",
        "lower",
        "registry",
        REPLAN,
        "replan_p50_ms",
        NO_EVENTS
    ),
    named!(
        "registry.view_ms",
        "ms",
        "lower",
        "registry",
        REPLAN,
        "suffix_read_p50_ms",
        "only replan reads suffixes"
    ),
    named!(
        "registry.open_ms",
        "ms",
        "lower",
        "registry",
        ONBOARD,
        "onboard_p50_ms",
        "replan opens its sessions in set-up; plan_scale has no registry"
    ),
    named!(
        "service.handoff_ms",
        "ms",
        "lower",
        "service",
        REPLAN,
        "replan_p90_ms and replan_max_rps",
        "onboard plans on the HTTP worker and plan_scale in-process; only replans use tickets"
    ),
    named!(
        "events.validate_ms",
        "ms",
        "lower",
        "events",
        REPLAN,
        "replan_p50_ms",
        NO_EVENTS
    ),
    named!(
        "events.residual_ms",
        "ms",
        "lower",
        "events",
        REPLAN,
        "replan_p50_ms",
        NO_EVENTS
    ),
    named!(
        "events.touched_user_share",
        "share",
        "lower",
        "events",
        REPLAN,
        "replan_p50_ms",
        NO_EVENTS
    ),
    named!(
        "revenue.engine_build_ms",
        "ms",
        "lower",
        "revenue",
        ALL,
        "plan_ms and onboard_p50_ms",
        ""
    ),
    named!(
        "greedy.plan_ms",
        "ms",
        "lower",
        "greedy",
        ALL,
        "plan_ms, onboard_p50_ms and replan_p50_ms",
        ""
    ),
    named!(
        "greedy.marginal_evaluations",
        "count",
        "lower",
        "greedy",
        ALL,
        "plan_ms, onboard_p50_ms and replan_p50_ms",
        ""
    ),
    named!(
        "greedy.evals_per_selection",
        "evals/sel",
        "lower",
        "greedy",
        ALL,
        "plan_ms, onboard_p50_ms and replan_p50_ms",
        ""
    ),
    named!(
        "sharded.plan_ms",
        "ms",
        "lower",
        "sharded",
        PLAN_SCALE,
        "plan_contended_ms",
        ONE_SHARD
    ),
    named!(
        "sharded.arbitrated_share",
        "share",
        "lower",
        "sharded",
        PLAN_SCALE,
        "plan_contended_ms; not plan_sharded_ms, where arbitration is idle",
        ONE_SHARD
    ),
    named!(
        "sharded.rejected_moves",
        "count",
        "lower",
        "sharded",
        PLAN_SCALE,
        "plan_contended_ms",
        ONE_SHARD
    ),
    named!(
        "sharded.marginal_evaluations",
        "count",
        "lower",
        "sharded",
        PLAN_SCALE,
        "plan_contended_ms",
        ONE_SHARD
    ),
    named!(
        "gen.lateness_p90_ms",
        "ms",
        "lower",
        "gen",
        HTTP,
        "none: checks that the open loop held",
        "plan_scale sends no requests"
    ),
    named!(
        "gen.backlog_end",
        "count",
        "lower",
        "gen",
        HTTP,
        "none: checks that the open loop held",
        "plan_scale sends no requests"
    ),
    named!(
        "registry.pooled_snapshots",
        "count",
        "lower",
        "registry",
        HTTP,
        "none: end-of-run leak count",
        NO_HTTP
    ),
    named!(
        "registry.sessions_evicted",
        "count",
        "lower",
        "registry",
        HTTP,
        "none: eviction count during the measured phase",
        NO_HTTP
    ),
    named!(
        "trace.overhead_pct",
        "%",
        "lower",
        "trace",
        ALL,
        "none: the tracer's own cost against the work it timed",
        ""
    ),
    named!(
        "data.generate_ms",
        "ms",
        "lower",
        "data",
        ALL,
        "setup_s",
        ""
    ),
];

pub fn why(workload: &str) -> Option<&'static str> {
    WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, why)| *why)
}

pub fn named(name: &str) -> &'static Named {
    NAMED_END_TO_END
        .iter()
        .chain(NAMED_PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the catalogue"))
}

fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

fn named_json(m: &Named) -> JsonValue {
    json::object(vec![
        ("name", string(m.name)),
        ("unit", string(m.unit)),
        ("better", string(m.better)),
        ("layer", string(m.layer)),
        (
            "workloads",
            JsonValue::Array(m.workloads.iter().map(|w| string(w)).collect()),
        ),
        ("moves", string(m.moves)),
        ("absent_because", string(m.absent)),
    ])
}

/// The whole catalogue as one JSON document.
pub fn record() -> JsonValue {
    let gated = |list: &[Gated]| {
        JsonValue::Array(
            list.iter()
                .map(|g| {
                    json::object(vec![
                        ("name", string(g.name)),
                        ("unit", string(g.unit)),
                        ("better", string(g.better)),
                    ])
                })
                .collect(),
        )
    };
    json::object(vec![
        (
            "workloads",
            JsonValue::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        json::object(vec![("name", string(name)), ("why", string(why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", gated(&END_TO_END)),
        (
            "headline",
            json::object(
                HEADLINE
                    .iter()
                    .map(|(w, what)| (*w, string(what)))
                    .collect(),
            ),
        ),
        ("per_layer", gated(&PER_LAYER)),
        (
            "named_end_to_end",
            JsonValue::Array(NAMED_END_TO_END.iter().map(named_json).collect()),
        ),
        (
            "named_per_layer",
            JsonValue::Array(NAMED_PER_LAYER.iter().map(named_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this catalogue must list the same workloads and
    /// metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let expect = |list: &[Gated]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|g| (g.name.to_string(), g.unit.to_string(), g.better.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |f: &str| {
                    w.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn every_named_metric_says_why_it_is_absent() {
        for m in NAMED_PER_LAYER {
            if m.workloads.len() < WORKLOADS.len() {
                assert!(!m.absent.is_empty(), "{} lacks an absence reason", m.name);
            }
            assert!(!m.moves.is_empty(), "{} names no end-to-end metric", m.name);
        }
        for g in PER_LAYER {
            assert_eq!(named(g.name).workloads.len(), WORKLOADS.len(), "{}", g.name);
        }
        assert_eq!(NAMED_END_TO_END.len(), 12);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }
}
