//! `plan_scale`: the paper's section 6 scalability setting, in-process.
//!
//! Each round plans a synthetic scalability instance (no MF) at one shard
//! and at `nproc` shards/threads, where capacity is abundant and
//! arbitration idles, and `amazon_like().scaled(0.02)` at `nproc`
//! shards/threads, where about half the moves are arbitrated. Every sharded
//! plan must equal the one-shard plan of its instance. `p50_ms` and
//! `p90_ms` time the one-shard synthetic plan, the paper's own measurement.

use crate::report::Report;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{derive_seed, host, repeat_setup, Args};
use revmax_algorithms::{plan, GreedyOutcome, PlannerConfig};
use revmax_core::{IncrementalRevenue, Instance, Triple};
use revmax_data::{generate, generate_scalability, DatasetConfig};
use std::time::Instant;

/// Users of the synthetic instance: about 150k candidate pairs.
const SYNTH_USERS: u32 = 1_500;

/// A run keeps planning past `--seconds` until it has this many one-shard
/// plans, so their p90 has at least ten samples beyond it.
const MIN_PLANS: usize = 110;

struct Setup {
    synthetic: Instance,
    amazon: Instance,
    /// The one-shard plan of `amazon`, which every contended plan must equal.
    amazon_reference: GreedyOutcome,
    generate_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let started = Instant::now();
    let mut synthetic = DatasetConfig::synthetic_scalability(SYNTH_USERS);
    synthetic.seed = derive_seed(seed, 1);
    let synthetic = generate_scalability(&synthetic).instance;
    let mut amazon = DatasetConfig::amazon_like().scaled(0.02);
    amazon.seed = derive_seed(seed, 2);
    let amazon = generate(&amazon).instance;
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let amazon_reference = plan(&amazon, &PlannerConfig::default());
    Setup {
        synthetic,
        amazon,
        amazon_reference,
        generate_ms,
    }
}

/// The same plan: equal revenue to 1e-9 and the same set of triples.
pub fn same_plan(a: &GreedyOutcome, b: &GreedyOutcome) -> Option<String> {
    let sorted = |o: &GreedyOutcome| {
        let mut t: Vec<Triple> = o.strategy.iter().collect();
        t.sort_unstable();
        t
    };
    if !crate::client::close(a.revenue, b.revenue) {
        return Some(format!("revenue {} vs {}", a.revenue, b.revenue));
    }
    if sorted(a) != sorted(b) {
        return Some(format!(
            "strategies differ ({} vs {} triples)",
            a.strategy.len(),
            b.strategy.len()
        ));
    }
    None
}

struct Round {
    one_ms: [f64; 2],
    sharded_ms: f64,
    contended_ms: f64,
    one_evals: f64,
    one_selections: f64,
    contended_share: f64,
    contended_rejected: f64,
    contended_evals: f64,
}

fn timed(inst: &Instance, config: &PlannerConfig) -> (GreedyOutcome, f64) {
    let started = Instant::now();
    let outcome = plan(inst, config);
    (outcome, started.elapsed().as_secs_f64() * 1e3)
}

pub fn run(args: &Args) -> (Report, Option<Tracer>) {
    let mut report = Report::new("plan_scale", args.seed, args.trace);
    let (s, setup_s) = repeat_setup(|| setup(args.seed));
    let nproc = host::nproc();
    let one = PlannerConfig::default();
    // On a one-CPU host two shards still exercise the sharded planner.
    let many = PlannerConfig::default()
        .with_shards(nproc.max(2) as u32)
        .with_shard_threads(nproc as u32);
    eprintln!(
        "plan_scale: synthetic {} users / {} candidates, amazon {} candidates, {} shards",
        s.synthetic.num_users(),
        s.synthetic.num_candidates(),
        s.amazon.num_candidates(),
        many.shards
    );

    let mut tracer = args.trace.then(Tracer::new);
    let mut first_one: Option<GreedyOutcome> = None;
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    let mut index = 0u64;
    while started.elapsed().as_secs_f64() < args.seconds || 2 * rounds.len() < MIN_PLANS {
        // The one-shard plan, the headline, runs twice per round.
        let root = tracer.as_mut().map(|tr| tr.begin("round", None, index));
        let mut run =
            |name: &'static str, inst: &Instance, config: &PlannerConfig| match tracer.as_mut() {
                Some(tr) => tr.time(name, root, index, || timed(inst, config)),
                None => timed(inst, config),
            };
        let (one_out, first_ms) = run("greedy.plan", &s.synthetic, &one);
        let (many_out, sharded_ms) = run("sharded.plan_synthetic", &s.synthetic, &many);
        let (again, second_ms) = run("greedy.plan", &s.synthetic, &one);
        let (contended, contended_ms) = run("sharded.plan", &s.amazon, &many);
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            tr.end(root);
        }

        let reference = first_one.get_or_insert_with(|| one_out.clone());
        for out in [&one_out, &again] {
            report.attempt(
                same_plan(out, reference)
                    .map(|p| format!("round {index}: 1-shard plan moved: {p}")),
            );
        }
        report.attempt(
            same_plan(&many_out, &one_out)
                .map(|p| format!("round {index}: sharded synthetic plan: {p}")),
        );
        report.attempt(
            same_plan(&contended, &s.amazon_reference)
                .map(|p| format!("round {index}: contended plan: {p}")),
        );
        rounds.push(Round {
            one_ms: [first_ms, second_ms],
            sharded_ms,
            contended_ms,
            one_evals: one_out.marginal_evaluations as f64,
            one_selections: one_out.strategy.len().max(1) as f64,
            contended_share: contended.concurrency.scarce_occupancy(),
            contended_rejected: contended.concurrency.rejected_moves as f64,
            contended_evals: contended.marginal_evaluations as f64,
        });
        index += 1;
    }
    eprintln!("plan_scale: {} rounds", rounds.len());

    let column = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    if let Some(mut tr) = tracer {
        for _ in 0..rounds.len().min(50) {
            tr.time("revenue.engine_build", None, 0, || {
                drop(IncrementalRevenue::with_options(&s.synthetic, false))
            });
        }
        let build = tr.durations_ms("revenue.engine_build");
        report.set_median("revenue.engine_build_ms", &build);
        let plans = tr.self_ms("greedy.plan");
        report.set_median("greedy.plan_ms", &plans);
        let evals = column(|r| r.one_evals);
        report.set_median("greedy.marginal_evaluations", &evals);
        let per_selection = column(|r| r.one_evals / r.one_selections);
        report.set_median("greedy.evals_per_selection", &per_selection);
        let sharded = tr.self_ms("sharded.plan");
        report.set_median("sharded.plan_ms", &sharded);
        let share = column(|r| r.contended_share);
        report.set_median("sharded.arbitrated_share", &share);
        let rejected = column(|r| r.contended_rejected);
        report.set_median("sharded.rejected_moves", &rejected);
        let sharded_evals = column(|r| r.contended_evals);
        report.set_median("sharded.marginal_evaluations", &sharded_evals);
        report.set("trace.overhead_pct", tr.overhead_pct(), None);
        report.set("data.generate_ms", s.generate_ms, None);
        return (report, Some(tr));
    }

    let one: Vec<f64> = rounds.iter().flat_map(|r| r.one_ms).collect();
    let sharded = column(|r| r.sharded_ms);
    let contended = column(|r| r.contended_ms);
    report.set_median("plan_ms", &one);
    report.set_median("plan_sharded_ms", &sharded);
    report.set_median("plan_contended_ms", &contended);
    for (gate, p) in [("p50_ms", 0.5), ("p90_ms", 0.9)] {
        if let Some(q) = percentile(&one, p) {
            report.gate(gate, q.value);
        }
    }
    report.set("setup_s", setup_s, Some(crate::SETUP_REPS));
    report.set("peak_rss_mb", host::peak_rss_mb(), None);
    (report, None)
}
