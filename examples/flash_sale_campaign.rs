//! Flash-sale campaign: the motivating scenario of the paper's introduction.
//!
//! A smartphone is scheduled to go on sale mid-week. High-valuation users
//! (willing to pay full price) should see the recommendation *before* the
//! price drops; low-valuation users should see it *on* the sale day, when
//! their adoption probability jumps. This example builds that scenario
//! explicitly and shows that Global Greedy times the recommendations exactly
//! that way, while a static top-rating recommender cannot.
//!
//! Run with: `cargo run --release --example flash_sale_campaign`

use revmax::prelude::*;
use revmax::pricing::adoption_series;

fn main() {
    let horizon = 5u32;
    let sale_day = 4usize; // day 4 of 5 (1-based)
    let full_price = 699.0;
    let sale_price = 499.0;
    let mut prices = vec![full_price; horizon as usize];
    prices[sale_day - 1] = sale_price;

    // 10 users: half value the phone above full price, half only above the
    // sale price.
    let num_users = 10u32;
    let mut builder = InstanceBuilder::new(num_users, 1, horizon);
    builder
        .display_limit(1)
        .beta(0, 0.3)
        .capacity(0, num_users)
        .prices(0, &prices);

    let rating = 4.6;
    let max_rating = 5.0;
    for u in 0..num_users {
        let valuation = if u % 2 == 0 {
            // High-valuation users: mean willingness to pay above full price.
            GaussianValuation {
                mean: 780.0,
                std: 60.0,
            }
        } else {
            // Low-valuation users: only comfortable at the sale price.
            GaussianValuation {
                mean: 560.0,
                std: 60.0,
            }
        };
        let probs = adoption_series(&valuation, rating, max_rating, &prices);
        builder.candidate(u, 0, &probs, rating);
    }
    let instance = builder.build().expect("valid instance");

    // Shard selection from the environment (REVMAX_SHARDS, …); the plan is
    // identical for every choice.
    let plan = plan(&instance, &PlannerConfig::from_env());
    println!("expected campaign revenue: {:.2}\n", plan.revenue);
    println!("{:<10} {:>12} {:>14}", "user", "segment", "first shown on");
    let mut first_day = vec![None::<u32>; num_users as usize];
    for z in plan.strategy.iter() {
        let slot = &mut first_day[z.user.index()];
        *slot = Some(slot.map_or(z.t.value(), |d: u32| d.min(z.t.value())));
    }
    let mut before_sale_high = 0;
    let mut on_sale_low = 0;
    for u in 0..num_users {
        let segment = if u % 2 == 0 {
            "high-value"
        } else {
            "low-value"
        };
        let day = first_day[u as usize].map_or("never".to_string(), |d| format!("day {d}"));
        println!("{:<10} {:>12} {:>14}", format!("user {u}"), segment, day);
        match (u % 2 == 0, first_day[u as usize]) {
            (true, Some(d)) if (d as usize) < sale_day => before_sale_high += 1,
            (false, Some(d)) if d as usize == sale_day => on_sale_low += 1,
            _ => {}
        }
    }
    println!(
        "\n{before_sale_high}/5 high-valuation users are targeted before the sale, \
         {on_sale_low}/5 low-valuation users exactly on the sale day."
    );

    let myopic = top_rating(&instance);
    println!(
        "\nstatic rating-based rollout earns {:.2} ({:.0}% of the strategic plan)",
        myopic.revenue,
        100.0 * myopic.revenue / plan.revenue
    );
}
