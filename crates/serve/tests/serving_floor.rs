//! The serving floor: planning a batch through [`PlanService`] must not be
//! slower than planning the same batch inline.
//!
//! Each round times two paths on one `amazon_like().scaled(0.01)` instance:
//!
//! * inline — 4 plans in a row on one scoped thread, with per-plan
//!   parallelism off (the service's default for jobs, so both paths run the
//!   same planner code);
//! * service — `plan_batch_reports` of 4 clones at the default config on a
//!   pool of `available_parallelism` workers.
//!
//! Rounds are interleaved so host noise hits both paths alike, and the gate
//! compares minimums over 3 rounds: (min inline time) / (min service time)
//! must be at least 0.98.
//!
//! What the ratio compares: despite its old name, the "1-shard, 1-worker"
//! serving row, this is not a 1-worker comparison. The pool has
//! `available_parallelism` workers, so on a multi-core host the service
//! plans the batch in parallel and the ratio reads well above 1 (1.724 on
//! 2 CPUs at scale 0.02; 1.82–1.94 at scale 0.01). The constants are the
//! ones CI armed before, neither tightened nor loosened. A true 1-worker
//! floor needs measurements first: at scale 0.02 on the same 2-CPU host, a
//! single instance on a 1-worker service took 42.1 ms (minimum) against
//! 28.2 ms inline.
//!
//! Every report must match a reference `plan` to 1e-9 relative with the same
//! strategy length. The test is a timing gate, so it is ignored by default:
//! debug builds and tests running in parallel would decide the ratio, not
//! the service. Run it alone in release with
//!
//! ```text
//! cargo test -q -p revmax-serve --release --test serving_floor -- --ignored
//! ```

use revmax_algorithms::{plan, PlannerConfig};
use revmax_core::Instance;
use revmax_data::{generate, DatasetConfig};
use revmax_serve::PlanService;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.01;
const BATCH: usize = 4;
const ROUNDS: usize = 3;
const FLOOR: f64 = 0.98;

#[test]
#[ignore = "timing gate, armed in release by the CI multicore leg"]
fn service_batches_keep_pace_with_inline_planning() {
    let inst = generate(&DatasetConfig::amazon_like().scaled(SCALE)).instance;
    let reference = plan(&inst, &PlannerConfig::default());
    let inline_config = PlannerConfig::default().with_parallel(Some(false));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let service = PlanService::new(workers);

    let mut inline_min = Duration::MAX;
    let mut service_min = Duration::MAX;
    for round in 0..ROUNDS {
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..BATCH {
                    std::hint::black_box(plan(&inst, &inline_config));
                }
            });
        });
        inline_min = inline_min.min(started.elapsed());

        let batch: Vec<Instance> = (0..BATCH).map(|_| inst.clone()).collect();
        let started = Instant::now();
        let reports = service.plan_batch_reports(batch, PlannerConfig::default());
        service_min = service_min.min(started.elapsed());

        for report in &reports {
            let revenue = report.outcome.revenue;
            assert!(
                (revenue - reference.revenue).abs() <= 1e-9 * reference.revenue.abs().max(1.0),
                "round {round}, instance {}: {revenue} vs reference {}",
                report.index,
                reference.revenue
            );
            assert_eq!(
                report.outcome.strategy.len(),
                reference.strategy.len(),
                "round {round}, instance {}: strategy size diverged",
                report.index
            );
        }
    }

    let ratio = inline_min.as_secs_f64() / service_min.as_secs_f64();
    eprintln!(
        "serving floor: inline {inline_min:?}, service {service_min:?} on {workers} workers, \
         ratio {ratio:.3}"
    );
    assert!(
        ratio >= FLOOR,
        "service batch fell below the {FLOOR} floor: {ratio:.3}× inline \
         ({inline_min:?} inline, {service_min:?} service on {workers} workers)"
    );
}
