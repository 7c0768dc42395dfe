//! # frappe-benchmark — the repository's benchmark
//!
//! FRAppE as "a service to which one can query any app ID" (§8), measured
//! end to end and layer by layer under four workloads. `main.rs` is the
//! command line; see `README.md` for the metric and workload tables.

pub mod client;
pub mod compare;
pub(crate) mod deploy;
pub(crate) mod inputs;
pub(crate) mod layers;
pub mod metrics;
pub mod report;
pub mod schedule;
pub mod stats;
pub(crate) mod sys;
pub mod workloads;
