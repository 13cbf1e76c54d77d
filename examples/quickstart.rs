//! Quickstart: build a tiny REVMAX instance by hand, run the Global Greedy
//! algorithm, and inspect the resulting recommendation plan.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Planner configuration comes from the environment through the unified
//! `PlannerConfig::from_env()` (`REVMAX_ALGORITHM`, `REVMAX_SHARDS=n`,
//! `REVMAX_SEED`, …). The example asserts that the planner's reported
//! revenue is the from-scratch revenue of the plan it returns.

use revmax::prelude::*;

fn main() {
    // A seller with 3 users, 3 items (two of which compete in the same class),
    // and a 3-day horizon. Item 0 goes on sale on day 3.
    let mut builder = InstanceBuilder::new(3, 3, 3);
    builder
        .display_limit(1)
        .item_class(0, 0) // "tablet A"
        .item_class(1, 0) // "tablet B" — competes with tablet A
        .item_class(2, 1) // "headphones"
        .beta(0, 0.4)
        .beta(1, 0.4)
        .beta(2, 0.8)
        .capacity(0, 2)
        .capacity(1, 3)
        .capacity(2, 3)
        .prices(0, &[499.0, 499.0, 399.0]) // sale on day 3
        .prices(1, &[349.0, 349.0, 349.0])
        .prices(2, &[89.0, 79.0, 89.0]);

    // Primitive adoption probabilities q(u, i, t): higher when the price is
    // lower than the user's willingness to pay.
    builder
        .candidate(0, 0, &[0.15, 0.15, 0.45], 4.7)
        .candidate(0, 1, &[0.35, 0.35, 0.35], 4.1)
        .candidate(0, 2, &[0.50, 0.60, 0.50], 3.8)
        .candidate(1, 0, &[0.40, 0.40, 0.70], 4.9)
        .candidate(1, 2, &[0.30, 0.40, 0.30], 3.5)
        .candidate(2, 1, &[0.55, 0.55, 0.55], 4.2)
        .candidate(2, 2, &[0.25, 0.35, 0.25], 3.9);
    let instance = builder.build().expect("valid instance");

    // Revenue-maximizing plan, with algorithm/shards/shard threads picked
    // from the environment (defaults: G-Greedy, 1 shard; shards take effect
    // only with two or more shard threads).
    let config = PlannerConfig::from_env();
    let outcome = plan(&instance, &config);

    // The incremental engine's running total must equal the revenue model
    // evaluated from scratch on the returned plan.
    let from_scratch = revenue(&instance, &outcome.strategy);
    assert!(
        (outcome.revenue - from_scratch).abs() < 1e-9,
        "planner and from-scratch revenue must agree to 1e-9: {} vs {from_scratch}",
        outcome.revenue
    );

    println!("expected revenue: {:.2}", outcome.revenue);
    println!("recommendation plan ({} slots):", outcome.strategy.len());
    let mut triples: Vec<Triple> = outcome.strategy.iter().collect();
    triples.sort();
    for z in triples {
        println!(
            "  day {}: show item {} to user {} (price {:.0}, q = {:.2})",
            z.t.value(),
            z.item.0,
            z.user.0,
            instance.price(z.item, z.t),
            instance.prob_of(z),
        );
    }

    // Compare against the classical rating-driven recommender.
    let rating_based = top_rating(&instance);
    println!(
        "\nrating-driven baseline revenue: {:.2} ({:.0}% of the revenue-aware plan)",
        rating_based.revenue,
        100.0 * rating_based.revenue / outcome.revenue
    );
}
