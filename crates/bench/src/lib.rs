//! # revmax-bench
//!
//! The perf trajectory of the REVMAX reproduction. The library holds
//! [`legacy`]: a frozen copy of the seed's pre-refactor G-Greedy used as the
//! measured baseline (`BENCH_greedy.json`, emitted by the `bench_greedy`
//! binary). The paper's Table 2 and Figure 6 analogues are the
//! `revmax-experiments` binaries `table2` and `fig6`.

#![warn(missing_docs)]

pub mod legacy;

pub use legacy::seed_global_greedy;
