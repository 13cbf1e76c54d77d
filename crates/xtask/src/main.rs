//! `cargo xtask` — the REVMAX analysis toolchain.
//!
//! Dependency-free (per the vendor policy) workspace tooling, wired as a
//! cargo alias in `.cargo/config.toml`:
//!
//! * `cargo xtask lint` — repo-invariant linter: a source-model pass over
//!   every workspace `.rs` file enforcing atomics confinement, the
//!   memory-ordering contract doc, no deprecated surface, panic-free
//!   library code, and the `REVMAX_*` env-knob registry (see
//!   `docs/env.md`).
//! * `cargo xtask check-ledger` — ledger model checker: exhaustive DFS
//!   schedule exploration of the shared capacity ledger's
//!   claim/charge/release protocol under an acquire/release-aware memory
//!   model, detector-sanity scenarios, a `Relaxed`-demotion mutant
//!   sensitivity gate, and seeded random-schedule fuzzing.
//! * `cargo xtask fuzz-http` — seeded fuzzing of the HTTP front end's
//!   untrusted-input surfaces (`revmax_http::request`, the shared JSON
//!   reader, and the streaming wire decoders against their tree-walking
//!   oracle); `--seed <n>` replays one seed, `--iterations <n>` scales the
//!   per-seed input count.
//!
//! Both commands exit non-zero on failure and run as gating CI jobs; see
//! ARCHITECTURE.md § "Analysis toolchain".

mod cell;
mod lex;
mod lint;
mod model;
mod scenarios;

use std::process::ExitCode;

/// Seed for the random-schedule fuzz stage; override with
/// `--fuzz-seed <n>` to reproduce a CI failure locally.
const DEFAULT_FUZZ_SEED: u64 = 0x5EED_1E46_E4C0_FFEE;

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask <command>");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  lint                     repo-invariant linter (atomics confinement,");
    eprintln!("                           ordering contract, no deprecated surface,");
    eprintln!("                           panic-free library code, env-knob registry)");
    eprintln!("  check-ledger             ledger model checker (exhaustive 2-3 thread");
    eprintln!("                           schedules, mutant sensitivity, seeded fuzz)");
    eprintln!("    --fuzz-seed <n>        override the random-schedule fuzz seed");
    eprintln!("  fuzz-http                seeded fuzzing of the HTTP head parser, the");
    eprintln!("                           JSON reader and the wire decoders (differential)");
    eprintln!("    --seed <n>             fuzz a single seed (default: a fixed trio)");
    eprintln!("    --iterations <n>       inputs per target per seed");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(),
        Some("check-ledger") => {
            let mut seed = DEFAULT_FUZZ_SEED;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--fuzz-seed" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(v) => seed = v,
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            check_ledger(seed)
        }
        Some("fuzz-http") => {
            let mut seed = None;
            let mut iterations = revmax_http::fuzz::DEFAULT_ITERATIONS;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--seed" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(v) => seed = Some(v),
                        None => return usage(),
                    },
                    "--iterations" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(v) => iterations = v,
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            fuzz_http(seed, iterations)
        }
        _ => usage(),
    }
}

/// Default seed trio for `fuzz-http` when `--seed` is not given — fixed so
/// CI runs are reproducible.
const FUZZ_HTTP_SEEDS: [u64; 3] = [1, 2, 0xC0FFEE];

/// Runs the seeded parser fuzz gate: every mutated input must parse or be
/// rejected with a structured error; a panic aborts the process (non-zero
/// exit), which is exactly the failure CI should see.
fn fuzz_http(seed: Option<u64>, iterations: usize) -> ExitCode {
    let seeds: Vec<u64> = match seed {
        Some(s) => vec![s],
        None => FUZZ_HTTP_SEEDS.to_vec(),
    };
    println!("fuzz-http: {iterations} inputs per target per seed");
    for seed in seeds {
        let http = revmax_http::fuzz::fuzz_http_parser(seed, iterations);
        println!(
            "  ok   http head parser   seed {seed:#x}: {} accepted / {} rejected",
            http.accepted, http.rejected
        );
        let json = revmax_http::fuzz::fuzz_json_codec(seed, iterations);
        println!(
            "  ok   json reader        seed {seed:#x}: {} accepted / {} rejected",
            json.accepted, json.rejected
        );
        let instances = revmax_http::fuzz::fuzz_instance_decoder(seed, iterations);
        println!(
            "  ok   instance decoder   seed {seed:#x}: {} accepted / {} rejected ({} as 422), oracle agrees",
            instances.accepted, instances.rejected, instances.unprocessable
        );
        let events = revmax_http::fuzz::fuzz_event_decoder(seed, iterations);
        println!(
            "  ok   event decoder      seed {seed:#x}: {} accepted / {} rejected, oracle agrees",
            events.accepted, events.rejected
        );
    }
    println!("fuzz-http: all inputs parsed or rejected cleanly; decoders agree with the oracle");
    ExitCode::SUCCESS
}

/// Runs the full check-ledger gate: DFS suite (pass, detector-sanity, and
/// mutant scenarios), then the seeded random fuzz.
fn check_ledger(fuzz_seed: u64) -> ExitCode {
    println!("check-ledger: exploring shared-ledger schedules");
    // Worker panics are expected in detector-sanity scenarios (the ledger's
    // own debug assertions fire under exploration); they are caught and
    // flagged as violations, so the default hook's backtrace is pure noise.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failed = false;
    for scenario in scenarios::dfs_suite() {
        match scenarios::run_scenario(&scenario) {
            Ok(exploration) => {
                println!(
                    "  ok   {:<40} {} schedules{}{}",
                    scenario.name,
                    exploration.executions,
                    if exploration.exhaustive {
                        " (exhaustive)"
                    } else {
                        ""
                    },
                    match scenario.expect {
                        scenarios::Expect::Violation => ", defect flagged as required",
                        scenarios::Expect::Pass => "",
                    },
                );
            }
            Err(report) => {
                failed = true;
                println!("  FAIL {report}");
            }
        }
    }
    match scenarios::run_fuzz(fuzz_seed) {
        Ok(executions) => println!(
            "  ok   {:<40} {executions} schedules (seed {fuzz_seed:#x})",
            "fuzz_mixed (random)"
        ),
        Err(report) => {
            failed = true;
            println!("  FAIL fuzz_mixed (seed {fuzz_seed:#x}): {report}");
        }
    }
    std::panic::set_hook(default_hook);
    if failed {
        println!("check-ledger: FAILED");
        ExitCode::FAILURE
    } else {
        println!("check-ledger: all scenarios passed");
        ExitCode::SUCCESS
    }
}
