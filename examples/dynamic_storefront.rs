//! Dynamic storefronts over one plan service: several concurrent
//! [`PlanSession`]s — one per regional storefront — multiplex a shared
//! [`PlanService`] worker pool and react to adoption events day by day,
//! with warm-started replans. The paper's *dynamic* premise, end to end.
//!
//! Each storefront plans a 5-day campaign, then lives through it: every
//! morning it displays the planned recommendations, every evening it
//! reports which users adopted and which ignored them. The session fixes
//! the realized prefix, conditions the instance on it (adopted classes
//! close, rejected displays keep their saturation memory, consumed capacity
//! stays consumed — with the displayed pairs exempt, so re-displays are
//! never double-charged), submits the replan of the remaining days as a
//! ticketed job, and the storefront collects it with `sync()`.
//!
//! Run with: `cargo run --release --example dynamic_storefront`
//!
//! Planner configuration comes from `PlannerConfig::from_env()`
//! (`REVMAX_ENGINE`, `REVMAX_SHARDS`, `REVMAX_WARM_START`, …) with
//! warm-started replans enabled by default; none of the knobs may change
//! any (re)plan, which the example asserts by cross-checking every
//! replanned suffix against a from-scratch plan of the residual instance
//! on the *other* engine.

use revmax::prelude::*;
use std::sync::Arc;

/// One regional storefront's instance: 6 shoppers, 6 items in 3 classes
/// (tablets, headphones, chargers), 5 days; the flagship tablet goes on
/// sale on day 4. The `region` seed shifts shopper tastes so the three
/// storefronts genuinely plan different campaigns.
fn storefront(region: u32) -> Instance {
    let mut b = InstanceBuilder::new(6, 6, 5);
    b.display_limit(1)
        .item_class(0, 0)
        .item_class(1, 0)
        .item_class(2, 1)
        .item_class(3, 1)
        .item_class(4, 2)
        .item_class(5, 2)
        .beta(0, 0.35)
        .beta(1, 0.35)
        .beta(2, 0.6)
        .beta(3, 0.6)
        .beta(4, 0.8)
        .beta(5, 0.8)
        .capacity(0, 3)
        .capacity(1, 4)
        .capacity(2, 4)
        .capacity(3, 3)
        .capacity(4, 5)
        .capacity(5, 5)
        .prices(0, &[499.0, 499.0, 499.0, 399.0, 399.0]) // sale on day 4
        .prices(1, &[349.0, 349.0, 349.0, 349.0, 329.0])
        .prices(2, &[129.0, 119.0, 129.0, 129.0, 109.0])
        .prices(3, &[89.0, 89.0, 79.0, 89.0, 89.0])
        .prices(4, &[39.0, 39.0, 39.0, 35.0, 39.0])
        .prices(5, &[25.0, 25.0, 22.0, 25.0, 25.0]);
    for u in 0..6u32 {
        for i in 0..6u32 {
            if (u + i + region).is_multiple_of(2) || i.is_multiple_of(3) {
                let base = 0.10 + 0.05 * ((u + 2 * i + region) % 5) as f64;
                let probs: Vec<f64> = (0..5)
                    .map(|t| {
                        // Adoption jumps on discounted days.
                        let discount_kick = if (i == 0 && t == 3) || (i == 2 && t == 4) {
                            0.25
                        } else {
                            0.0
                        };
                        (base + 0.02 * t as f64 + discount_kick).min(0.95)
                    })
                    .collect();
                b.candidate(u, i, &probs, 3.0 + ((u + i) % 3) as f64 * 0.6);
            }
        }
    }
    b.build().expect("valid instance")
}

fn main() {
    // Warm-started replans by default; every REVMAX_* knob still applies on
    // top (and none may change a plan).
    let config = PlannerConfig::default().with_warm_start(true).env_overlay();
    let regions = ["north", "south", "harbor"];

    // One shared service: every storefront's replans are ticketed jobs on
    // the same worker pool.
    let service = Arc::new(PlanService::new(2));
    let mut sessions: Vec<(&str, Instance, PlanSession)> = regions
        .iter()
        .enumerate()
        .map(|(region, &name)| {
            let instance = storefront(region as u32);
            let mut session = PlanSession::new(instance.clone(), config);
            session.attach(&service);
            (name, instance, session)
        })
        .collect();
    for (name, _, session) in &sessions {
        println!(
            "{name:>7}: campaign plan {} slots, expected revenue {:.2}",
            session.planned_suffix().len(),
            session.expected_remaining_revenue()
        );
    }
    println!();

    for day in 1..=5u32 {
        // Morning: every storefront displays its plan and observes the
        // shoppers. A user adopts a display when its primitive adoption
        // probability is high enough for the day.
        let batches: Vec<Vec<AdoptionEvent>> = sessions
            .iter()
            .map(|(_, instance, session)| {
                session
                    .upcoming()
                    .iter()
                    .map(|z| AdoptionEvent {
                        user: z.user,
                        item: z.item,
                        t: z.t,
                        outcome: if instance.prob_of(*z) >= 0.22 {
                            AdoptionOutcome::Adopted
                        } else {
                            AdoptionOutcome::Rejected
                        },
                    })
                    .collect()
            })
            .collect();

        // Evening: submit every storefront's replan before collecting any —
        // the sessions multiplex the shared pool instead of replanning one
        // after another on this thread.
        let mut submitted: Vec<ReplanReport> = Vec::new();
        for ((_, _, session), events) in sessions.iter_mut().zip(&batches) {
            let report = session.advance(events).expect("valid event batch");
            assert!(report.pending == (day < 5), "day 5 exhausts the horizon");
            submitted.push(report);
        }
        for (((name, _, session), events), submitted_report) in
            sessions.iter_mut().zip(&batches).zip(submitted)
        {
            // sync() collects the ticketed replan; on day 5 the horizon is
            // exhausted, nothing was submitted, and the advance report was
            // already final.
            let report = session.sync().unwrap_or(submitted_report);
            let adopted = events.iter().filter(|e| e.is_adoption()).count();
            println!(
                "day {day} {name:>7}: displayed {:>2}, adopted {adopted:>2} | realized \
                 ${:>8.2} | replanned {:>2} future slots worth ${:>8.2}",
                events.len(),
                report.realized_revenue,
                report.suffix_len,
                report.expected_remaining_revenue,
            );

            // Engine cross-check: the replanned suffix must equal a
            // from-scratch plan of the residual instance under the *other*
            // engine to 1e-9 — warm starts, the service route, and the
            // engine are all pure performance knobs.
            if let Some(residual) = session.residual() {
                let other = match config.engine {
                    EngineKind::Flat => EngineKind::Hash,
                    EngineKind::Hash => EngineKind::Flat,
                };
                let reference = plan(residual, &config.with_engine(other));
                assert!(
                    (reference.revenue - session.expected_remaining_revenue()).abs() < 1e-9,
                    "engines disagreed on the replanned suffix: {} vs {}",
                    reference.revenue,
                    session.expected_remaining_revenue()
                );
                let shifted = shift_strategy(&reference.strategy, session.now());
                assert_eq!(
                    shifted.as_slice(),
                    session.planned_suffix().as_slice(),
                    "engines disagreed on the replanned suffix triples"
                );
            }
        }
        println!();
    }

    let mut grand_total = 0.0;
    for (name, _, session) in &sessions {
        assert!(session.is_exhausted());
        let adopted = session.events().iter().filter(|e| e.is_adoption()).count();
        grand_total += session.realized_revenue();
        println!(
            "{name:>7}: campaign over — realized ${:.2} across {} events \
             ({} adoptions, {} {} replans)",
            session.realized_revenue(),
            session.events().len(),
            adopted,
            session.replans(),
            if config.warm_start { "warm" } else { "cold" },
        );
        // The snapshot pool only fills for the flat engine (the hash engine
        // has nothing worth recycling) and only when the knob is on — and
        // `REVMAX_WARM_START=0` / `REVMAX_ENGINE=hash` may have overridden
        // the defaults above.
        if config.warm_start && config.engine == EngineKind::Flat {
            assert!(
                session.warm_snapshot().has_tables(),
                "warm-started sessions must engage the snapshot pool"
            );
        }
    }
    println!(
        "\nall storefronts: ${grand_total:.2} realized over one shared PlanService \
         ({} workers).",
        service.worker_count()
    );
}
