//! Collects a run's metrics and correctness findings and prints them: the
//! host and catalogue record, one line per named metric, and last the JSON
//! result line. A copy (and the traced run's spans) goes to `perfbench/out/`.

use crate::catalogue::{self, Gated, END_TO_END, PER_LAYER};
use crate::host;
use crate::stats::{median, Quantile};
use crate::trace::Tracer;
use revmax_core::json::{self, JsonValue};
use std::collections::BTreeMap;

/// Mismatches printed in full; the rest are only counted.
const PRINTED_PROBLEMS: usize = 20;

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Named metric → value and, for quantiles and medians, sample count.
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Final-line metric → value.
    gated: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Self {
        Report {
            workload,
            seed,
            trace,
            values: BTreeMap::new(),
            gated: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// A named metric (see [`catalogue::NAMED_END_TO_END`] and
    /// [`catalogue::NAMED_PER_LAYER`]); it also goes on the final line when
    /// the mode's list there names it.
    pub fn set(&mut self, name: &'static str, value: f64, n: Option<usize>) {
        catalogue::named(name);
        self.values.insert(name, (value, n));
        if self.final_metrics().iter().any(|g| g.name == name) {
            self.gated.insert(name, value);
        }
    }

    /// A named metric that is the median of `samples`.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let value = median(samples).unwrap_or(f64::NAN);
        self.set(name, value, Some(samples.len()));
    }

    pub fn set_quantile(&mut self, name: &'static str, q: Quantile) {
        self.set(name, q.value, Some(q.n));
    }

    /// A final-line metric that stands for a named one of this workload
    /// (`p50_ms` for `replan_p50_ms`, ...).
    pub fn gate(&mut self, name: &'static str, value: f64) {
        self.gated.insert(name, value);
    }

    fn final_metrics(&self) -> &'static [Gated] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Counts one attempted operation, failed when `problem` is set.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Prints everything; returns the process exit code.
    pub fn emit(mut self, tracer: Option<&Tracer>) -> i32 {
        if !self.trace {
            let share = if self.attempted == 0 {
                1.0
            } else {
                self.failed as f64 / self.attempted as f64
            };
            self.set("failed_share", share, Some(self.attempted as usize));
        }
        let host = host::record(self.seed);
        println!(
            "# record {}",
            json::object(vec![
                ("workload", JsonValue::String(self.workload.into())),
                (
                    "why",
                    JsonValue::String(catalogue::why(self.workload).unwrap_or("").into())
                ),
                ("trace", JsonValue::Bool(self.trace)),
                ("host", host.clone()),
                ("catalogue", catalogue::record()),
            ])
        );
        let named = if self.trace {
            catalogue::NAMED_PER_LAYER
        } else {
            catalogue::NAMED_END_TO_END
        };
        let mut absent = Vec::new();
        for m in named {
            if !m.workloads.contains(&self.workload) {
                println!("absent {}: {}", m.name, m.absent);
                absent.push((m.name, JsonValue::String(m.absent.into())));
                continue;
            }
            match self.values.get(m.name) {
                Some(&(value, n)) => {
                    let count = n.map_or(String::new(), |n| format!(" (n={n})"));
                    println!(
                        "metric {} = {value} {}{count}, {} is better",
                        m.name, m.unit, m.better
                    );
                }
                None => {
                    println!("missing {}", m.name);
                }
            }
        }
        for p in self.problems.iter().take(PRINTED_PROBLEMS) {
            println!("mismatch {p}");
        }
        if self.problems.len() > PRINTED_PROBLEMS {
            println!(
                "mismatch ... and {} more",
                self.problems.len() - PRINTED_PROBLEMS
            );
        }

        let mut metrics = Vec::new();
        for g in self.final_metrics() {
            match self.gated.get(g.name) {
                Some(&value) if value.is_finite() => metrics.push((
                    g.name,
                    json::object(vec![
                        ("value", JsonValue::Number(value)),
                        ("unit", JsonValue::String(g.unit.into())),
                    ]),
                )),
                _ => {
                    eprintln!("perfbench: no value for {}; refusing to report", g.name);
                    return 2;
                }
            }
        }
        let correct = self.failed == 0 && self.attempted > 0;
        self.write_copy(host, absent, tracer);
        println!(
            "{}",
            json::object(vec![
                ("correct", JsonValue::Bool(correct)),
                ("attempted", JsonValue::Number(self.attempted as f64)),
                ("failed", JsonValue::Number(self.failed as f64)),
                ("metrics", json::object(metrics)),
            ])
        );
        0
    }

    /// Writes the run's record and, when traced, its spans under
    /// `perfbench/out/`; a failure to write is reported but not fatal.
    fn write_copy(&self, host: JsonValue, absent: Vec<(&str, JsonValue)>, tracer: Option<&Tracer>) {
        let dir = std::path::Path::new("perfbench/out");
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        let values = self
            .values
            .iter()
            .map(|(&name, &(value, n))| {
                let mut fields = vec![
                    ("value", JsonValue::Number(value)),
                    (
                        "unit",
                        JsonValue::String(catalogue::named(name).unit.into()),
                    ),
                ];
                if let Some(n) = n {
                    fields.push(("n", JsonValue::Number(n as f64)));
                }
                (name, json::object(fields))
            })
            .collect();
        let doc = json::object(vec![
            ("workload", JsonValue::String(self.workload.into())),
            ("host", host),
            ("metrics", json::object(values)),
            ("absent", json::object(absent)),
            (
                "problems",
                JsonValue::Array(
                    self.problems
                        .iter()
                        .map(|p| JsonValue::String(p.clone()))
                        .collect(),
                ),
            ),
        ]);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), doc.to_string()))
            .and_then(|()| match tracer {
                Some(tr) => tr.write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", dir.display());
        }
    }
}
