//! The four workloads.

pub mod cluster_failover;
pub mod engine_stream;
pub mod paper_sweep;
pub mod wire_closed;

use crate::harness::{self, Config, Outcome};

/// Runs the workload named `name`; `None` for an unknown name.
#[must_use]
pub fn run(name: &str, cfg: &Config) -> Option<Outcome> {
    Some(match name {
        "engine_stream" => harness::run(&engine_stream::EngineStream, cfg),
        "paper_sweep" => harness::run(&paper_sweep::PaperSweep, cfg),
        "cluster_failover" => harness::run(&cluster_failover::ClusterFailover, cfg),
        "wire_closed" => harness::run(&wire_closed::WireClosed, cfg),
        _ => return None,
    })
}
