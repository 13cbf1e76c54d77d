//! Perf-trajectory baseline emitter: times the greedy algorithms on the
//! scaled Amazon-like dataset against BOTH incremental revenue engines (the
//! pre-refactor hash engine and the flat-arena engine) and writes a
//! machine-readable `BENCH_greedy.json` so future perf PRs have a baseline.
//!
//! Usage:
//! ```text
//! cargo run --release -p revmax-bench --bin bench_greedy [-- out.json]
//! ```
//! Environment (parsed through the shared `revmax_core::env` module):
//! * `REVMAX_BENCH_SCALE`   — dataset scale factor (default 0.02);
//! * `REVMAX_BENCH_SAMPLES` — timed samples per configuration (default 7).
//!
//! The emitter also asserts that both engines report revenues equal to 1e-9
//! on every algorithm, so a perf regression hunt can never silently change
//! results.
//!
//! Every row runs the same drivers through `plan_with`; only the engine type
//! differs (`hash_new_driver` is `revmax_oracle::HashIncrementalRevenue`,
//! `flat_arena` the planner's `IncrementalRevenue`).

use revmax_algorithms::{plan_with, PlanAlgorithm, PlannerConfig};
use revmax_bench::seed_global_greedy;
use revmax_core::{env, IncrementalRevenue, Instance, RevenueEngine};
use revmax_data::{generate, DatasetConfig};
use revmax_oracle::HashIncrementalRevenue;
use std::time::Instant;

struct Row {
    algorithm: &'static str,
    engine: &'static str,
    median_ns: u128,
    min_ns: u128,
    revenue: f64,
    strategy_len: usize,
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn time_runs<F: FnMut() -> (f64, usize)>(samples: usize, mut f: F) -> (u128, u128, f64, usize) {
    let mut times = Vec::with_capacity(samples);
    let (mut revenue, mut len) = (0.0, 0);
    for _ in 0..samples {
        let t0 = Instant::now();
        let (r, l) = f();
        times.push(t0.elapsed().as_nanos());
        revenue = r;
        len = l;
    }
    (
        median(times.clone()),
        *times.iter().min().expect("samples > 0"),
        revenue,
        len,
    )
}

/// The two timed algorithms and their configurations.
fn algorithms() -> [(&'static str, PlannerConfig); 2] {
    [
        ("GG", PlannerConfig::default()),
        (
            "SLG",
            PlannerConfig::default().with_algorithm(PlanAlgorithm::SequentialLocalGreedy),
        ),
    ]
}

/// Times GG and SLG on engine `E`.
fn bench_engine<'a, E: RevenueEngine<'a>>(
    inst: &'a Instance,
    engine_name: &'static str,
    samples: usize,
    rows: &mut Vec<Row>,
) {
    for (algorithm, cfg) in algorithms() {
        let (median_ns, min_ns, revenue, strategy_len) = time_runs(samples, || {
            let out = plan_with::<E>(inst, &cfg, None);
            (out.revenue, out.strategy.len())
        });
        rows.push(Row {
            algorithm,
            engine: engine_name,
            median_ns,
            min_ns,
            revenue,
            strategy_len,
        });
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_greedy.json".to_string());
    let scale: f64 = env::var_or("REVMAX_BENCH_SCALE", 0.02);
    let samples: usize = env::var_or("REVMAX_BENCH_SAMPLES", 7).max(1);

    eprintln!("generating amazon_like().scaled({scale}) ...");
    let config = DatasetConfig::amazon_like().scaled(scale);
    let ds = generate(&config);
    let inst = &ds.instance;
    eprintln!(
        "dataset: {} users, {} items, T = {}, {} candidate pairs, {} candidate triples",
        inst.num_users(),
        inst.num_items(),
        inst.horizon(),
        inst.num_candidates(),
        inst.num_candidate_triples()
    );

    let mut rows = Vec::new();
    // The true pre-refactor baseline: the seed's driver + hash engine, frozen
    // verbatim in `revmax_bench::legacy`.
    let (median_ns, min_ns, revenue, strategy_len) = time_runs(samples, || {
        let out = seed_global_greedy(inst);
        (out.revenue, out.strategy.len())
    });
    rows.push(Row {
        algorithm: "GG",
        engine: "seed_baseline",
        median_ns,
        min_ns,
        revenue,
        strategy_len,
    });
    bench_engine::<HashIncrementalRevenue<'_>>(inst, "hash_new_driver", samples, &mut rows);
    bench_engine::<IncrementalRevenue<'_>>(inst, "flat_arena", samples, &mut rows);

    // Results must be identical across engines — speed is the only difference.
    for alg in ["GG", "SLG"] {
        let of = |engine: &str| {
            rows.iter()
                .find(|r| r.algorithm == alg && r.engine == engine)
                .expect("both engines benched")
        };
        let (hash, flat) = (of("hash_new_driver"), of("flat_arena"));
        assert!(
            (hash.revenue - flat.revenue).abs() <= 1e-9 * flat.revenue.abs().max(1.0),
            "{alg}: engines disagree: hash {} vs flat {}",
            hash.revenue,
            flat.revenue
        );
        assert_eq!(
            hash.strategy_len, flat.strategy_len,
            "{alg}: strategy sizes diverged"
        );
        let speedup = hash.median_ns as f64 / flat.median_ns as f64;
        eprintln!(
            "{alg}: hash {:>12} ns  flat {:>12} ns  speedup {speedup:.2}x  (revenue {:.4}, |S| = {})",
            hash.median_ns, flat.median_ns, flat.revenue, flat.strategy_len
        );
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
    json.push_str("  \"measurements\": [\n");
    for (idx, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"engine\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"revenue\": {:.6}, \"strategy_len\": {}}}{}\n",
            r.algorithm,
            r.engine,
            r.median_ns,
            r.min_ns,
            r.revenue,
            r.strategy_len,
            if idx + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let gg_seed = rows
        .iter()
        .find(|r| r.algorithm == "GG" && r.engine == "seed_baseline")
        .unwrap();
    let gg_hash = rows
        .iter()
        .find(|r| r.algorithm == "GG" && r.engine == "hash_new_driver")
        .unwrap();
    let gg_flat = rows
        .iter()
        .find(|r| r.algorithm == "GG" && r.engine == "flat_arena")
        .unwrap();
    // Relative tolerance: both engines accumulate ~|S| incremental updates,
    // so agreement is to relative 1e-9, not absolute.
    assert!(
        (gg_seed.revenue - gg_flat.revenue).abs() <= 1e-9 * gg_flat.revenue.abs().max(1.0),
        "seed baseline disagrees with flat engine: {} vs {}",
        gg_seed.revenue,
        gg_flat.revenue
    );
    let speedup_vs_seed = gg_seed.median_ns as f64 / gg_flat.median_ns as f64;
    eprintln!("GG speedup vs pre-refactor seed baseline: {speedup_vs_seed:.2}x");
    json.push_str(&format!(
        "  \"gg_speedup_flat_over_seed\": {:.3},\n  \"gg_speedup_flat_over_hash_new_driver\": {:.3}\n}}\n",
        speedup_vs_seed,
        gg_hash.median_ns as f64 / gg_flat.median_ns as f64
    ));
    std::fs::write(&out_path, json).expect("write BENCH_greedy.json");
    eprintln!("wrote {out_path}");
}
