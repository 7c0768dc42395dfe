//! # frappe-bench — the experiment harness
//!
//! One function per table and figure of the paper (see DESIGN.md's
//! experiment index), all operating on a [`Lab`]: a fully-run scenario
//! world plus its D-* dataset bundle and derived indices.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run -p frappe-bench --release --bin repro -- table5
//! cargo run -p frappe-bench --release --bin repro -- all
//! ```
//!
//! Each experiment returns an [`experiments::ExpResult`] with
//! paper-comparable text lines and a JSON value; `repro all` writes the
//! collected results into `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gauntletbench;
pub mod lab;
pub mod lifebench;
pub mod render;
pub mod scoringbench;
pub mod shardbench;
pub mod trainbench;

pub use experiments::{registry, ExpResult};
pub use gauntletbench::GauntletBenchReport;
pub use lab::Lab;
pub use lifebench::LifecycleBenchReport;
pub use scoringbench::ScoringBenchReport;
pub use shardbench::ShardBenchReport;
pub use trainbench::TrainingBenchReport;
