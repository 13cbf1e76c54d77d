//! Dynamic-replanning latency emitter: drives `PlanSession`s through a
//! deterministic adoption stream and times **every per-event replan** in
//! four modes — warm-started vs cold engines, inline vs attached to a
//! `PlanService` — then writes a machine-readable `BENCH_session.json`.
//!
//! Usage:
//! ```text
//! cargo run --release -p revmax-serve --bin bench_session [-- out.json]
//! ```
//! Environment (parsed through the shared `revmax_core::env` module):
//! * `REVMAX_SESSION_SCALE`   — dataset scale factor (default 0.02);
//! * `REVMAX_SESSION_SAMPLES` — timed full-horizon session walks per mode
//!   (default 3).
//!
//! Every mode must realize the identical event stream and produce identical
//! per-day replanned suffixes (warm starts and service routing are
//! performance knobs, never behaviour knobs) — the emitter asserts per-day
//! revenue agreement to a relative 1e-9 against the cold inline reference.
//!
//! Reading the numbers: `warm_vs_cold_speedup` compares median per-event
//! replan latency inline; the warm path skips the saturation-table rebuild
//! (one `powf` per item per time distance) and recycles the engine's arena
//! buffers. Every mode, cold ones included, builds each residual instance
//! incrementally (`residual_advance` shifts untouched candidate rows
//! instead of recomputing them). `attached_overhead_pct` is the submit →
//! sync round trip of the ticketed session-over-service path against
//! replanning on the calling thread; with several concurrent sessions the
//! pool amortises it.

use revmax_core::{env, AdoptionEvent, AdoptionOutcome};
use revmax_data::{generate, DatasetConfig};
use revmax_serve::{PlanService, PlanSession, PlannerConfig};
use std::sync::Arc;
use std::time::Instant;

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Deterministic shopper model: realize the planned next-day displays,
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

struct ModeRow {
    mode: &'static str,
    warm: bool,
    attached: bool,
    replan_ns: Vec<u128>,
    /// Expected remaining revenue after each day (parity check).
    day_revenue: Vec<f64>,
}

fn run_mode(
    inst: &revmax_core::Instance,
    warm: bool,
    attached: bool,
    samples: usize,
    service: &Arc<PlanService>,
) -> ModeRow {
    let mode = match (warm, attached) {
        (false, false) => "cold_inline",
        (true, false) => "warm_inline",
        (false, true) => "cold_attached",
        (true, true) => "warm_attached",
    };
    let config = PlannerConfig::default().with_warm_start(warm);
    let mut replan_ns = Vec::new();
    let mut day_revenue = Vec::new();
    for sample in 0..samples {
        let mut session = PlanSession::new(inst.clone(), config);
        if attached {
            session.attach(service);
        }
        let mut day_revs = Vec::new();
        while !session.is_exhausted() {
            let events = realize_upcoming(&session);
            let t0 = Instant::now();
            session.advance(&events).expect("valid event batch");
            if attached {
                session.sync();
            }
            replan_ns.push(t0.elapsed().as_nanos());
            day_revs.push(session.expected_remaining_revenue());
        }
        if sample == 0 {
            day_revenue = day_revs;
        } else {
            assert_eq!(day_revenue, day_revs, "a mode diverged across samples");
        }
        if warm {
            assert!(
                session.warm_snapshot().has_tables(),
                "warm mode never engaged the snapshot pool"
            );
        }
    }
    ModeRow {
        mode,
        warm,
        attached,
        replan_ns,
        day_revenue,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_session.json".to_string());
    let scale: f64 = env::var_or("REVMAX_SESSION_SCALE", 0.02);
    let samples: usize = env::var_or("REVMAX_SESSION_SAMPLES", 3).max(1);

    eprintln!("generating amazon_like().scaled({scale}) ...");
    let config = DatasetConfig::amazon_like().scaled(scale);
    let ds = generate(&config);
    let inst = &ds.instance;
    eprintln!(
        "dataset: {} users, {} items, T = {}, {} candidate pairs",
        inst.num_users(),
        inst.num_items(),
        inst.horizon(),
        inst.num_candidates()
    );

    // One worker: per-event replan latency, not cross-session throughput —
    // the attached rows then isolate the ticketed round trip.
    let service = Arc::new(PlanService::new(1));
    let modes = [(false, false), (true, false), (false, true), (true, true)];
    let rows: Vec<ModeRow> = modes
        .iter()
        .map(|&(warm, attached)| run_mode(inst, warm, attached, samples, &service))
        .collect();

    // Parity: every mode's per-day expected remaining revenue must match
    // the cold inline reference to a relative 1e-9.
    let reference = &rows[0].day_revenue;
    for row in &rows[1..] {
        assert_eq!(reference.len(), row.day_revenue.len());
        for (day, (a, b)) in reference.iter().zip(&row.day_revenue).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{} day {day}: {b} vs cold inline {a}",
                row.mode
            );
        }
    }

    // One median + min per row, computed once and reused everywhere below.
    let medians: Vec<u128> = rows.iter().map(|r| median(r.replan_ns.clone())).collect();
    let mins: Vec<u128> = rows
        .iter()
        .map(|r| *r.replan_ns.iter().min().expect("replans > 0"))
        .collect();
    for (idx, row) in rows.iter().enumerate() {
        eprintln!(
            "{:>14}: median {:>12} ns/replan  min {:>12} ns  ({} replans)",
            row.mode,
            medians[idx],
            mins[idx],
            row.replan_ns.len()
        );
    }
    let median_of = |mode: &str| {
        let idx = rows.iter().position(|r| r.mode == mode).expect("mode row");
        medians[idx]
    };
    let warm_speedup = median_of("cold_inline") as f64 / median_of("warm_inline") as f64;
    let attached_overhead_pct = 100.0
        * (median_of("cold_attached") as f64 - median_of("cold_inline") as f64)
        / median_of("cold_inline") as f64;
    eprintln!("warm vs cold (inline): {warm_speedup:.3}x per-event replan");
    eprintln!("attached vs inline (cold): {attached_overhead_pct:+.2}% round-trip overhead");
    if warm_speedup <= 1.0 {
        eprintln!("WARNING: warm-start replans were not faster than cold on this host");
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"dataset\": \"amazon_like.scaled({scale})\",\n"
    ));
    json.push_str(&format!(
        "  \"num_users\": {}, \"num_items\": {}, \"horizon\": {}, \"num_candidates\": {},\n",
        inst.num_users(),
        inst.num_items(),
        inst.horizon(),
        inst.num_candidates()
    ));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(
        "  \"notes\": \"per-event replan latency of a PlanSession driven through a deterministic \
         adoption stream; warm rows recycle saturation tables + engine buffers, every row \
         builds residuals incrementally (residual_advance), attached rows pay the ticketed \
         submit -> sync round trip through a 1-worker PlanService; all four modes produce \
         identical per-day plans (asserted, relative 1e-9)\",\n",
    );
    json.push_str("  \"measurements\": [\n");
    for (idx, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"warm\": {}, \"attached\": {}, \"replans\": {}, \
             \"median_ns_per_replan\": {}, \"min_ns_per_replan\": {}}}{}\n",
            row.mode,
            row.warm,
            row.attached,
            row.replan_ns.len(),
            medians[idx],
            mins[idx],
            if idx + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"warm_vs_cold_inline_speedup\": {warm_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"attached_vs_inline_overhead_pct\": {attached_overhead_pct:.3}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_session.json");
    eprintln!("wrote {out_path}");
}
