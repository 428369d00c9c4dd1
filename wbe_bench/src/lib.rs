//! `wbe_bench`: the repository's single benchmark.
//!
//! Five named workloads, one protocol, one versioned schema. Every
//! layer is measured from outside, by timing calls into its public
//! functions; nothing in the measured crates changes. See `README.md`
//! beside this crate for why each workload exists, the metric tables,
//! and which end-to-end metric each per-layer metric is expected to
//! move.

pub mod compare;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
