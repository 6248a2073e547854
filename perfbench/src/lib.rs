//! # coserve-perfbench
//!
//! The repository's host wall-clock benchmark: four workloads
//! (`engine_stream`, `paper_sweep`, `cluster_failover`, `wire_closed`),
//! end-to-end metrics from untraced runs, per-layer metrics from a
//! separate traced run, output checks and a digest of the simulated
//! results. See `README.md` beside this crate for the metric table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod common;
pub mod digest;
pub mod harness;
pub mod layers;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
