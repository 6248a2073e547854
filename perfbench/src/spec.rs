//! The benchmark's metric and workload registry, and the
//! `BENCHMARK.json` it is described by.
//!
//! Every metric the benchmark prints is declared here once, with its
//! unit and direction; [`spec_json`] renders the repository's
//! `BENCHMARK.json` from this table, and a test pins the committed file
//! to it.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("requests_per_s", "1/s", Higher, 0.2),
    e2e("latency_p50_us", "us", Lower, 0.24),
    e2e("latency_p95_us", "us", Lower, 0.24),
    e2e("stats_p50_us", "us", Lower, 0.2),
    e2e("peak_rss_mib", "MiB", Lower, 0.2),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("stream.generate_ms", "ms", Lower),
    layer("engine.submit_ns", "ns", Lower),
    layer("engine.pump_ns_per_event", "ns", Lower),
    layer("engine.drain_ns_per_completion", "ns", Lower),
    layer("engine.events_per_request", "count", Lower),
    layer("engine.pending_events_max", "count", Lower),
    layer("engine.snapshot_us", "us", Lower),
    layer("engine.new_us", "us", Lower),
    layer("engine.run_ns_per_request.coserve", "ns", Lower),
    layer("engine.run_ns_per_request.samba", "ns", Lower),
    layer("pool.switches_per_request", "count", Lower),
    layer("pool.hit_ratio", "ratio", Higher),
    layer("evict.evictions_per_request", "count", Lower),
    layer("events.op_ns", "ns", Lower),
    layer("queue.insert_grouped_ns", "ns", Lower),
    layer("queue.pop_group_ns", "ns", Lower),
    layer("evict.select_ns", "ns", Lower),
    layer("profiler.profile_ms", "ms", Lower),
    layer("autotune.window_search_ms", "ms", Lower),
    layer("placement.plan_ms", "ms", Lower),
    layer("dispatch.route_ns", "ns", Lower),
    layer("runtime.tick_us", "us", Lower),
    layer("runtime.hops_per_request", "count", Lower),
    layer("runtime.sim_drop_share", "ratio", Lower),
    layer("runtime.recovery_ms", "sim_ms", Lower),
    layer("protocol.encode_ns", "ns", Lower),
    layer("protocol.decode_ns", "ns", Lower),
    layer("server.frame_rtt_us", "us", Lower),
    layer("service.submit_us", "us", Lower),
    layer("service.pump_us", "us", Lower),
    layer("service.poll_us", "us", Lower),
    layer("service.stats_us", "us", Lower),
    layer("server.overhead_us", "us", Lower),
    layer("server.protocol_errors", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
}

/// The workloads `BENCHMARK.json` lists, in the order `--workload all`
/// runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "engine_stream",
        why: "one EngineSession streams Poisson requests below capacity in 4096-job chunks: the steady calendar/queue/assign loop, few switches, no server or cluster",
    },
    WorkloadDef {
        name: "paper_sweep",
        why: "both devices x four tasks, each cell profiled, window-searched and run cold as CoServe, three Samba-CoE variants and the ablation ladder: setup- and eviction-heavy",
    },
    WorkloadDef {
        name: "cluster_failover",
        why: "8-node serve_runtime near capacity at 100 ms ticks with a node killed and revived: the only path through placement, dispatch and the runtime tick loop",
    },
];

/// Workloads that run (`--workload <name>`, `--workload all`, the smoke
/// tests) but are left out of `BENCHMARK.json`: on the 2-vCPU reference
/// host their run-to-run spread is wider than any bound the benchmark
/// may set. Their layers are still measured in every traced run.
pub const UNLISTED_WORKLOADS: &[WorkloadDef] = &[WorkloadDef {
    name: "wire_closed",
    why: "loopback coserve-server, 2 workers, 2 closed-loop clients doing Submit/Pump/Poll with Stats reads: codec, sockets and the ServiceCore mutex dominate",
}];

/// Seconds one benchmark run measures (`BENCHMARK.json`'s
/// `run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories holding the benchmark.
pub const PATHS: &[&str] = &["perfbench"];

/// Looks a metric up by name in either table.
#[must_use]
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `s` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn quoted(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The repository's `BENCHMARK.json`, rendered from the registry.
#[must_use]
pub fn spec_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n",
        quoted(COMMAND),
        quoted(PATHS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in WORKLOADS.iter().chain(UNLISTED_WORKLOADS) {
            assert!(valid_name(w.name));
            assert!(!w.why.contains('\n') && w.why.len() <= 200, "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("engine.run_ns_per_request.coserve"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = metric("setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert!(b <= setup.bound.unwrap(), "setup_s has the largest bound");
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            spec_json(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --spec > BENCHMARK.json`"
        );
    }
}
