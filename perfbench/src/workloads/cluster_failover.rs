//! `cluster_failover`: eight homogeneous NUMA nodes run
//! `serve_runtime` on board A. Poisson traffic near fleet capacity
//! (40 rps per node) is dispatched at 100 ms control ticks; node 1 is
//! killed at 30 % of the horizon and revived at 60 %, with
//! re-replication on failure, corrected feedback and online admission
//! (queue 16). It is the only workload through placement, dispatch and
//! the runtime tick loop, including the per-tick node engines.
//!
//! One operation is one failover episode: a `serve_runtime` call over
//! the whole stream.

use std::time::Instant;

use coserve_cluster::dispatch::FeedbackMode;
use coserve_cluster::runtime::{FailureSchedule, ReplacementPolicy, RuntimeOptions};
use coserve_cluster::{ClusterOptions, ClusterSystem};
use coserve_core::config::AdmissionControl;
use coserve_core::presets;
use coserve_metrics::cluster::ClusterReport;
use coserve_model::devices;
use coserve_sim::network::LinkProfile;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_workload::stream::RequestStream;
use coserve_workload::task::TaskSpec;

use crate::common::{mix_seed, poisson_stream, scaled, sim_secs};
use crate::digest::Digest;
use crate::harness::{check, Config, Iteration, Metrics, Workload};
use crate::layers::ProbeInput;
use crate::spans::Spans;

/// Fleet size.
pub const NODES: usize = 8;
/// Offered load per node, requests per simulated second.
pub const RATE_PER_NODE: f64 = 40.0;
/// Requests per episode at scale 1.
pub const REQUESTS: usize = 6_000;

/// The control tick.
#[must_use]
pub fn tick() -> SimSpan {
    SimSpan::from_millis(100)
}

/// The runtime options of a failover episode over `stream`: node 1
/// dies at 30 % of the arrival horizon and comes back at 60 %.
#[must_use]
pub fn options(stream: &RequestStream) -> RuntimeOptions {
    let horizon = stream.last_arrival().saturating_since(SimTime::ZERO);
    let at =
        |pct: f64| SimTime::ZERO + SimSpan::from_millis_f64(horizon.as_millis_f64() * pct / 100.0);
    RuntimeOptions::default()
        .tick(tick())
        .failures(FailureSchedule::new().kill(1, at(30.0)).revive(1, at(60.0)))
        .replacement(ReplacementPolicy::OnFailure)
        .feedback(FeedbackMode::Corrected)
        .online(
            AdmissionControl::with_queue_capacity(16),
            presets::ONLINE_MAX_OVERTAKE,
        )
}

/// Simulated model counters of an episode. They explain results and
/// move no end-to-end metric.
#[must_use]
pub fn model_counters(report: &ClusterReport) -> Vec<(&'static str, f64)> {
    let submitted = report.submitted.max(1) as f64;
    vec![
        ("runtime.hops_per_request", report.hops_per_request()),
        ("runtime.sim_drop_share", report.dropped as f64 / submitted),
        (
            "runtime.recovery_ms",
            report
                .recovery_time()
                .map_or(f64::NAN, |s| s.as_millis_f64()),
        ),
        ("sim.throughput_rps", report.throughput_ips()),
        ("sim.makespan_s", report.makespan.as_secs_f64()),
        (
            "sim.switches_per_request",
            report.expert_switches() as f64 / submitted,
        ),
        ("runtime.ticks", report.dynamics.ticks.len() as f64),
    ]
}

/// The workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterFailover;

/// Set-up output.
#[derive(Debug)]
pub struct Ctx {
    cluster: ClusterSystem,
    stream: RequestStream,
    options: RuntimeOptions,
    seed: u64,
    scale: f64,
}

impl Workload for ClusterFailover {
    type Ctx = Ctx;

    fn name(&self) -> &'static str {
        "cluster_failover"
    }

    fn setup(&self, cfg: &Config, spans: &mut Spans) -> Ctx {
        let task = TaskSpec::a1();
        let model = task.build_model().expect("built-in boards validate");
        let device = devices::numa_rtx3080ti();
        let config = presets::coserve(&device);
        let stream = poisson_stream(
            task.board(),
            &model,
            scaled(REQUESTS, cfg.scale, 400),
            RATE_PER_NODE * NODES as f64,
            mix_seed(cfg.seed, 0xC7),
            spans,
        );
        let cluster = ClusterSystem::homogeneous(
            NODES,
            &device,
            &config,
            &model,
            LinkProfile::ethernet_10g(),
            ClusterOptions::default(),
        )
        .expect("preset fleets are valid");
        let options = options(&stream);
        Ctx {
            cluster,
            stream,
            options,
            seed: cfg.seed,
            scale: cfg.scale,
        }
    }

    fn iterate(&self, ctx: &Ctx, spans: &mut Spans) -> Iteration {
        let mut it = Iteration::default();
        let token = spans.begin("runtime.serve");
        let t = Instant::now();
        let report = ctx.cluster.serve_runtime(&ctx.stream, &ctx.options);
        it.wall = t.elapsed();
        spans.end(token, report.dynamics.ticks.len() as u64);
        it.ops_us.push(it.wall.as_secs_f64() * 1e6);

        let t = Instant::now();
        let snap = report.snapshot();
        it.stats_us.push(t.elapsed().as_secs_f64() * 1e6);

        let n = ctx.stream.len();
        it.requests = report.completed as u64;
        let node_submitted: usize = report.nodes.iter().map(|r| r.submitted).sum();
        it.checks.push(check(
            "cluster conservation",
            report.submitted == n
                && report.completed + report.failed + report.dropped == n
                && snap.completed == report.completed
                && node_submitted + report.dynamics.routing_dropped <= n,
            format!(
                "submitted {} of {n}: completed {}, failed {}, dropped {} (routing {}), node submissions {node_submitted}",
                report.submitted,
                report.completed,
                report.failed,
                report.dropped,
                report.dynamics.routing_dropped
            ),
        ));
        let recovery = report.recovery_time();
        it.checks.push(check(
            "finite recovery",
            !report.has_unrecovered_failure() && recovery.is_some(),
            format!(
                "recovery {:?} ms, unrecovered {}",
                recovery.map(|s| s.as_millis_f64()),
                report.has_unrecovered_failure()
            ),
        ));
        let makespan = report.makespan.as_secs_f64();
        let last_arrival = sim_secs(ctx.stream.last_arrival());
        it.checks.push(check(
            "no growing backlog",
            makespan <= 1.02 * last_arrival + 10.0,
            format!("makespan {makespan:.1} s for arrivals until {last_arrival:.1} s"),
        ));

        it.digest = Digest::default().str(&report.to_json()).value();
        it.counters = model_counters(&report);
        it
    }

    fn probe_input<'a>(&self, ctx: &'a Ctx) -> ProbeInput<'a> {
        let node = &ctx.cluster.nodes()[0];
        ProbeInput {
            device: node.device(),
            model: node.model(),
            perf: node.perf(),
            config: node.config(),
            jobs: ctx.stream.jobs(),
            seed: ctx.seed,
            scale: ctx.scale,
        }
    }

    fn native_layers(&self, _ctx: &Ctx, spans: &Spans, traced: &[Iteration], out: &mut Metrics) {
        out.insert(
            "runtime.tick_us",
            spans.per_call_ns("runtime.serve").unwrap_or(f64::NAN) / 1e3,
        );
        for name in [
            "runtime.hops_per_request",
            "runtime.sim_drop_share",
            "runtime.recovery_ms",
        ] {
            out.insert(name, traced[0].counter(name));
        }
    }
}
