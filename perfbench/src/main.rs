//! The REVMAX planning-service benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replan|onboard|plan_scale --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the traced
//! run, which replays the workload in-process layer by layer and reports
//! the per-layer metrics. The last line of standard output is the JSON
//! result; see `perfbench/README.md` for the metrics and workloads.

mod catalogue;
mod client;
mod host;
mod onboard;
mod openloop;
mod plan_scale;
mod replan;
mod report;
mod stats;
mod trace;

use client::Reply;
use openloop::{run_connection, Planned, Sent, WallClock};
use revmax_http::testkit::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Schedules start this long after the clock, so every connection is open
/// before its first request is due.
const LEAD_IN: Duration = Duration::from_millis(50);

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    catalogue::WORKLOADS
                        .iter()
                        .map(|(name, _)| *name)
                        .find(|name| *name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A dataset seed for stream `stream` of the run seed (splitmix64), so
/// nearby run seeds give unrelated inputs.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before the next
/// run, and returns the last result with the median time in seconds.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut last = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up");
    (last.expect("at least one set-up"), median)
}

/// Drives one schedule per connection from its own thread, all against one
/// clock, and returns each connection's outcomes with the clock's origin.
pub fn drive<R: Sync, T: Send>(
    addr: SocketAddr,
    schedules: &[Vec<Planned<R>>],
    give_up: Duration,
    send: impl Fn(&mut Client, &R) -> T + Sync,
) -> (Instant, Vec<Vec<Option<Sent<T>>>>) {
    let clock = WallClock::starting_now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                let (clock, send) = (&clock, &send);
                scope.spawn(move || match Client::connect(addr) {
                    Ok(mut conn) => {
                        run_connection(clock, schedule, give_up, |req| send(&mut conn, req))
                    }
                    Err(e) => {
                        eprintln!("perfbench: cannot connect to {addr}: {e}");
                        schedule.iter().map(|_| None).collect()
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (clock.origin(), outcomes)
}

/// Describes a reply that is not the expected success, or `None`.
pub fn bad_status(what: &str, reply: &std::io::Result<Reply>, want: u16) -> Option<String> {
    match reply {
        Ok(r) if r.status == want => None,
        Ok(r) => Some(format!(
            "{what}: status {} ({})",
            r.status,
            truncate(&r.body)
        )),
        Err(e) => Some(format!("{what}: {e}")),
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(120)]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (report, tracer) = match args.workload {
        "replan" => replan::run(&args),
        "onboard" => onboard::run(&args),
        _ => plan_scale::run(&args),
    };
    std::process::exit(report.emit(tracer.as_ref()));
}
