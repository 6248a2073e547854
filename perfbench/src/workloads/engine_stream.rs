//! `engine_stream`: one `EngineSession` on the CoServe preset (NUMA
//! device, board A) streams Poisson requests at about 60 rps — below
//! the modelled capacity of about 110 — in 4096-job chunks through
//! `submit` / `pump_until` / `drain_completions`, the fig23 single-node
//! path. It exercises the steady calendar/queue/assign loop with few
//! switches and bypasses the server, the cluster and the profiler.

use std::cell::OnceCell;
use std::time::Instant;

use coserve_core::engine::CompletionStatus;
use coserve_core::presets;
use coserve_core::system::ServingSystem;
use coserve_model::devices;
use coserve_sim::time::SimSpan;
use coserve_workload::stream::RequestStream;
use coserve_workload::task::TaskSpec;

use crate::common::{feed_chunked, mix_seed, poisson_stream, scaled, sim_secs, CHUNK};
use crate::digest::Digest;
use crate::harness::{check, Config, Iteration, Metrics, Workload};
use crate::layers::ProbeInput;
use crate::spans::Spans;

/// Requests per pass at scale 1.
pub const REQUESTS: usize = 250_000;
/// Offered load, requests per simulated second.
pub const RATE: f64 = 60.0;

/// The workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStream;

/// Set-up output.
#[derive(Debug)]
pub struct Ctx {
    system: ServingSystem,
    stream: RequestStream,
    seed: u64,
    scale: f64,
    /// Sorted job latencies of `ServingSystem::serve` on the stream,
    /// computed on first use outside the timed region.
    oracle: OnceCell<Vec<SimSpan>>,
}

impl Workload for EngineStream {
    type Ctx = Ctx;

    fn name(&self) -> &'static str {
        "engine_stream"
    }

    fn setup(&self, cfg: &Config, spans: &mut Spans) -> Ctx {
        let task = TaskSpec::a1();
        let model = task.build_model().expect("built-in boards validate");
        let device = devices::numa_rtx3080ti();
        let config = presets::coserve(&device);
        let stream = poisson_stream(
            task.board(),
            &model,
            scaled(REQUESTS, cfg.scale, 8 * CHUNK),
            RATE,
            mix_seed(cfg.seed, 0xE5),
            spans,
        );
        let system = ServingSystem::new(device, model, config).expect("preset is valid");
        Ctx {
            system,
            stream,
            seed: cfg.seed,
            scale: cfg.scale,
            oracle: OnceCell::new(),
        }
    }

    fn iterate(&self, ctx: &Ctx, spans: &mut Spans) -> Iteration {
        let jobs = ctx.stream.jobs();
        let mut it = Iteration::default();
        let mut session = ctx.system.session("engine_stream");
        let t = Instant::now();
        let pass = feed_chunked(&mut session, jobs, spans, &mut it.ops_us);
        it.wall = t.elapsed();

        let token = spans.begin("engine.snapshot");
        let t = Instant::now();
        let snap = session.snapshot();
        it.stats_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.end(token, 1);

        let n = jobs.len();
        it.requests = snap.completed as u64;
        it.checks.push(check(
            "request conservation",
            snap.submitted == n
                && snap.completed + snap.failed + snap.dropped == n
                && snap.completed == n,
            format!(
                "submitted {} of {n}, completed {}, failed {}, dropped {}",
                snap.submitted, snap.completed, snap.failed, snap.dropped
            ),
        ));
        it.checks.push(check(
            "zero pending events",
            session.pending_events() == 0 && snap.completions_pending == 0,
            format!(
                "{} events, {} completions pending",
                session.pending_events(),
                snap.completions_pending
            ),
        ));
        let mut streamed: Vec<SimSpan> = pass
            .completions
            .iter()
            .filter(|c| c.status == CompletionStatus::Completed)
            .map(|c| c.latency)
            .collect();
        streamed.sort_unstable();
        let oracle = ctx.oracle.get_or_init(|| {
            let mut l = ctx.system.serve(&ctx.stream).job_latencies;
            l.sort_unstable();
            l
        });
        it.checks.push(check(
            "streamed latencies equal ServingSystem::serve",
            &streamed == oracle,
            format!(
                "{} streamed vs {} batch latencies",
                streamed.len(),
                oracle.len()
            ),
        ));
        let makespan = snap.makespan.as_secs_f64();
        let last_arrival = sim_secs(ctx.stream.last_arrival());
        let max_latency = pass
            .completions
            .iter()
            .map(|c| c.latency)
            .max()
            .unwrap_or(SimSpan::ZERO)
            .as_secs_f64();
        // The model holds a large but stationary backlog at this load
        // (thousands of jobs; CoServe's unbounded grouping also starves
        // requests for rare experts until the arrivals stop), so the
        // guard looks for growth: a load above capacity keeps raising
        // the in-system count, making the second half's peak about twice
        // the first's, and pushes the makespan far past the last arrival.
        let half = pass.backlog.len() / 2;
        let early = pass.backlog[..half].iter().copied().max().unwrap_or(0);
        let late = pass.backlog[half..].iter().copied().max().unwrap_or(0);
        it.checks.push(check(
            "no growing backlog",
            late as f64 <= 1.5 * early as f64 + 256.0
                && pass.pending_max <= 2 * CHUNK
                && makespan <= 1.1 * last_arrival + 300.0,
            format!(
                "in-system jobs at chunk boundaries: max {early} in the first half, {late} in the second; pending events max {} (bound {}); makespan {makespan:.1} s for arrivals until {last_arrival:.1} s; longest job {max_latency:.1} s",
                pass.pending_max,
                2 * CHUNK
            ),
        ));

        let mut d = Digest::default();
        for c in &pass.completions {
            d.u64(u64::from(c.job))
                .u64(c.status as u64)
                .u64(c.finished_at.nanos())
                .u64(c.latency.nanos());
        }
        d.u64(snap.expert_switches)
            .u64(snap.stages_executed as u64)
            .u64(snap.makespan.nanos())
            .u64(pass.events);
        it.digest = d.value();
        it.counters = vec![
            (
                "sim.throughput_rps",
                snap.completed as f64 / makespan.max(1e-9),
            ),
            ("sim.makespan_s", makespan),
            ("sim.last_arrival_s", last_arrival),
            (
                "sim.switches_per_request",
                snap.expert_switches as f64 / n as f64,
            ),
            (
                "sim.stages_per_request",
                snap.stages_executed as f64 / n as f64,
            ),
            ("engine.events_per_request", pass.events as f64 / n as f64),
            ("engine.pending_events_max", pass.pending_max as f64),
            ("engine.backlog_max", early.max(late) as f64),
            ("sim.longest_job_s", max_latency),
        ];
        it
    }

    fn probe_input<'a>(&self, ctx: &'a Ctx) -> ProbeInput<'a> {
        ProbeInput {
            device: ctx.system.device(),
            model: ctx.system.model(),
            perf: ctx.system.perf(),
            config: ctx.system.config(),
            jobs: ctx.stream.jobs(),
            seed: ctx.seed,
            scale: ctx.scale,
        }
    }

    fn native_layers(&self, _ctx: &Ctx, spans: &Spans, traced: &[Iteration], out: &mut Metrics) {
        for (span, metric, div) in [
            ("engine.submit", "engine.submit_ns", 1.0),
            ("engine.pump", "engine.pump_ns_per_event", 1.0),
            ("engine.drain", "engine.drain_ns_per_completion", 1.0),
            ("engine.snapshot", "engine.snapshot_us", 1e3),
        ] {
            out.insert(metric, spans.per_call_ns(span).unwrap_or(f64::NAN) / div);
        }
        let first = &traced[0];
        out.insert(
            "engine.events_per_request",
            first.counter("engine.events_per_request"),
        );
        out.insert(
            "engine.pending_events_max",
            first.counter("engine.pending_events_max"),
        );
        let switches = first.counter("sim.switches_per_request");
        out.insert("pool.switches_per_request", switches);
        out.insert(
            "pool.hit_ratio",
            1.0 - switches / first.counter("sim.stages_per_request"),
        );
    }
}
