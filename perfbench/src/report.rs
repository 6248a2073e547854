//! Printing a run: metrics by name with units, checks, the simulation
//! digest with its model counters, host facts, and the final JSON line.

use std::fmt::Write as _;

use crate::harness::Outcome;
use crate::spec::{self, MetricDef};

/// Host facts recorded with every output.
#[must_use]
pub fn host_facts() -> Vec<(&'static str, String)> {
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", env!("PERFBENCH_COMMIT").to_string()),
    ]
}

fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    }
}

/// The human-readable report (every line starts with `#` except the
/// metric lines `name = value unit`).
#[must_use]
pub fn human(o: &Outcome, trace: bool, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# workload {} seed {seed} {}",
        o.workload,
        if trace { "traced" } else { "untraced" }
    );
    let facts: Vec<String> = host_facts()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let _ = writeln!(out, "# host {}", facts.join(" "));
    for m in table(trace) {
        let v = o.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        let origin = if !trace || o.native.contains(m.name) {
            ""
        } else {
            "  (replay)"
        };
        let _ = writeln!(out, "{} = {v:.4} {}{origin}", m.name, m.unit);
    }
    for note in &o.notes {
        let _ = writeln!(out, "# {note}");
    }
    for c in &o.checks {
        let _ = writeln!(
            out,
            "# check {}: {} ({})",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    let _ = writeln!(out, "# simulation digest {:#018x}", o.digest);
    for (name, v) in &o.counters {
        let _ = writeln!(out, "# model counter {name} = {v}");
    }
    out
}

/// The final JSON line.
#[must_use]
pub fn json(o: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = table(trace)
        .iter()
        .map(|m| {
            let v = o
                .metrics
                .get(m.name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}
