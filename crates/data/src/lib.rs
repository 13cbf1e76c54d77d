//! # revmax-data
//!
//! Synthetic dataset generators standing in for the crawled Amazon and
//! Epinions datasets of the REVMAX paper, plus the large synthetic datasets of
//! the scalability study.
//!
//! The crawls themselves cannot be redistributed; what the evaluation actually
//! consumes is (a) predicted ratings from a recommender, (b) per-day prices,
//! (c) item classes, and (d) valuation distributions. The generators here
//! produce all four with the same statistical shape as Table 1 of the paper
//! (user/item/rating counts, class-size skew) and run them through exactly the
//! preparation pipeline of §6.1: matrix factorization → top-N items per user →
//! `q(u,i,t) = Pr[val ≥ p(i,t)] · r̂ / r_max`.
//!
//! Entry points:
//!
//! * [`DatasetConfig`] — presets [`DatasetConfig::amazon_like`],
//!   [`DatasetConfig::epinions_like`], [`DatasetConfig::synthetic_scalability`],
//!   [`DatasetConfig::tiny`], and [`DatasetConfig::scaled`] for laptop-scale runs;
//! * [`generate`] — the full (MF + valuation) pipeline;
//! * [`generate_scalability`] — the direct-sampling pipeline of Figure 6;
//! * [`Table1Stats`] — Table-1 style statistics of a generated dataset.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classes;
pub mod config;
pub mod pipeline;
pub mod prices;
pub mod ratings_gen;
pub mod stats;

pub use classes::{assign_classes, class_size_summary, class_sizes};
pub use config::{BetaSetting, CapacityDistribution, DatasetConfig};
pub use pipeline::{generate, generate_scalability, GeneratedDataset};
pub use prices::{
    amazon_style_series, base_price, epinions_style_series, reported_price_samples,
    synthetic_series,
};
pub use ratings_gen::{generate_ratings, GroundTruthPreferences};
pub use stats::Table1Stats;
