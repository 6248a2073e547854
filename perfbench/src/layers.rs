//! Per-layer measurements: each layer's public functions fed from
//! outside with a workload's inputs (its model, device, configuration
//! and recorded expert sequences).
//!
//! A traced run reports every per-layer metric. Layers the workload
//! drives itself are timed on its own calls (see each workload's
//! `native_layers`); the others come from the replays here, on the same
//! workload's inputs, so every traced output carries the whole table.

use std::collections::BTreeSet;

use coserve_baselines::samba::samba_coe;
use coserve_cluster::dispatch::{Dispatcher, FeedbackMode, NodeLoadModel, RoutePolicy};
use coserve_cluster::placement::{plan_placement, PlacementStrategy};
use coserve_cluster::{ClusterOptions, ClusterSystem};
use coserve_core::autotune::{window_search, WindowSearchOptions};
use coserve_core::config::SystemConfig;
use coserve_core::engine::{CompletionStatus, Engine};
use coserve_core::evict::{select_victims_into, EvictionContext, EvictionPolicy, EvictionScratch};
use coserve_core::perf::PerfMatrix;
use coserve_core::pool::ModelPool;
use coserve_core::presets;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_core::queue::{ExecutorQueue, PendingRequest};
use coserve_core::system::ServingSystem;
use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    WireCompletion,
};
use coserve_server::service::ServiceCore;
use coserve_sim::device::DeviceProfile;
use coserve_sim::events::Calendar;
use coserve_sim::memory::Bytes;
use coserve_sim::network::{Fabric, LinkProfile};
use coserve_sim::time::{SimSpan, SimTime};
use coserve_workload::stream::{Job, JobId};

use crate::common::{feed_chunked, mix_seed, prefix_stream, retimed, scaled, EvictionCounter};
use crate::harness::Metrics;
use crate::spans::Spans;
use crate::workloads::{cluster_failover, wire_closed};

/// What the replays are fed with.
#[derive(Debug, Clone, Copy)]
pub struct ProbeInput<'a> {
    /// The device the workload serves on.
    pub device: &'a DeviceProfile,
    /// The workload's model.
    pub model: &'a CoeModel,
    /// The model's offline measurements on `device`.
    pub perf: &'a PerfMatrix,
    /// The serving configuration.
    pub config: &'a SystemConfig,
    /// The workload's requests, in order.
    pub jobs: &'a [Job],
    /// Benchmark seed.
    pub seed: u64,
    /// Input-size factor.
    pub scale: f64,
}

impl ProbeInput<'_> {
    fn take(&self, base: usize) -> &[Job] {
        &self.jobs[..scaled(base, self.scale, 1).min(self.jobs.len())]
    }

    fn expert_sequence(&self, base: usize) -> Vec<(ExpertId, SimTime)> {
        let n = scaled(base, self.scale, 1);
        self.jobs
            .iter()
            .flat_map(|j| j.stages.iter().map(move |&e| (e, j.arrival)))
            .take(n)
            .collect()
    }
}

fn put(m: &mut Metrics, name: &'static str, v: Option<f64>) {
    m.insert(name, v.unwrap_or(f64::NAN));
}

/// Runs every replay on `input` and returns the per-layer table
/// (without `stream.generate_ms` and `trace.overhead_pct`, which every
/// workload measures itself).
pub fn probe(input: &ProbeInput<'_>, spans: &mut Spans) -> Metrics {
    let mut m = Metrics::new();
    let pending_max = engine_stream(input, spans, &mut m);
    engine_runs(input, spans, &mut m);
    calendar(input, pending_max, spans, &mut m);
    queue(input, pending_max, spans, &mut m);
    eviction(input, spans, &mut m);
    offline(input, spans, &mut m);
    cluster(input, spans, &mut m);
    wire(input, spans, &mut m);
    derive(&mut m);
    m
}

/// Fills the metrics computed from others: `server.overhead_us` is
/// the frame round trip minus the mean service time per frame and the
/// codec time per frame — the socket and thread hand-off share.
pub fn derive(m: &mut Metrics) {
    let get = |m: &Metrics, k: &str| m.get(k).copied().unwrap_or(f64::NAN);
    let service =
        (get(m, "service.submit_us") + get(m, "service.pump_us") + get(m, "service.poll_us")) / 3.0;
    let codec = (get(m, "protocol.encode_ns") + get(m, "protocol.decode_ns")) / 1e3;
    let rtt = get(m, "server.frame_rtt_us");
    m.insert("server.overhead_us", rtt - service - codec);
}

/// The chunked streaming path on a prefix of the jobs; returns the
/// pending-event peak (the calendar's operating population).
fn engine_stream(input: &ProbeInput<'_>, spans: &mut Spans, m: &mut Metrics) -> usize {
    let jobs = input.take(100_000);
    let engine = Engine::new(input.device, input.model, input.perf, input.config)
        .expect("workload configurations are valid");
    let mut session = engine.session("probe");
    let mut chunk_us = Vec::new();
    let pass = feed_chunked(&mut session, jobs, spans, &mut chunk_us);
    for _ in 0..3 {
        let _ = spans.time("engine.snapshot", 1, || session.snapshot());
    }
    let snap = session.snapshot();
    let requests = jobs.len() as f64;
    put(m, "engine.submit_ns", spans.per_call_ns("engine.submit"));
    put(
        m,
        "engine.pump_ns_per_event",
        spans.per_call_ns("engine.pump"),
    );
    put(
        m,
        "engine.drain_ns_per_completion",
        spans.per_call_ns("engine.drain"),
    );
    put(
        m,
        "engine.snapshot_us",
        spans.per_call_ns("engine.snapshot").map(|ns| ns / 1e3),
    );
    m.insert("engine.events_per_request", pass.events as f64 / requests);
    m.insert("engine.pending_events_max", pass.pending_max as f64);
    m.insert(
        "pool.switches_per_request",
        snap.expert_switches as f64 / requests,
    );
    m.insert(
        "pool.hit_ratio",
        1.0 - snap.expert_switches as f64 / snap.stages_executed.max(1) as f64,
    );

    let counter = EvictionCounter::default();
    let mut counted = engine.session("probe-evictions");
    let _ = counted.set_tracer(Box::new(counter.clone()));
    for job in jobs {
        counted
            .submit(job.arrival, &job.stages)
            .expect("stream jobs reference experts of the session's model");
    }
    counted.pump();
    m.insert(
        "evict.evictions_per_request",
        counter.get() as f64 / requests,
    );
    pass.pending_max
}

/// Engine construction and cold one-shot runs (the paper-sweep path).
fn engine_runs(input: &ProbeInput<'_>, spans: &mut Spans, m: &mut Metrics) {
    for _ in 0..16 {
        let engine = spans.time("engine.new", 1, || {
            Engine::new(input.device, input.model, input.perf, input.config)
        });
        drop(engine);
    }
    put(
        m,
        "engine.new_us",
        spans.per_call_ns("engine.new").map(|ns| ns / 1e3),
    );
    let stream = prefix_stream(input.take(3_000));
    for (name, config, metric) in [
        (
            "engine.run.coserve",
            presets::coserve(input.device),
            "engine.run_ns_per_request.coserve",
        ),
        (
            "engine.run.samba",
            samba_coe(input.device),
            "engine.run_ns_per_request.samba",
        ),
    ] {
        let engine = Engine::new(input.device, input.model, input.perf, &config)
            .expect("preset configurations are valid");
        let _ = spans.time(name, stream.len() as u64, || engine.run(&stream));
        put(m, metric, spans.per_call_ns(name));
    }
}

/// `Calendar::push_lane` + `pop` churn at the workload's pending-event
/// population: each popped event is rescheduled on the lane of the next
/// recorded expert.
fn calendar(input: &ProbeInput<'_>, population: usize, spans: &mut Spans, m: &mut Metrics) {
    const LANES: usize = 8;
    let seq = input.expert_sequence(200_000);
    let ops = scaled(400_000, input.scale, 1_000);
    let lane_of = |i: usize| seq[i % seq.len()].0.index() % LANES;
    let delay = |lane: usize| SimSpan::from_micros(100 * (lane as u64 + 1));
    let mut cal: Calendar<u32> = Calendar::new(LANES);
    for i in 0..population.max(64) {
        let lane = lane_of(i);
        cal.push_lane(lane, SimTime::ZERO + delay(lane), i as u32);
    }
    let token = spans.begin("events.op");
    for i in 0..ops {
        let ev = cal.pop().expect("population is kept constant");
        let lane = lane_of(i);
        cal.push_lane(lane, ev.at + delay(lane), ev.payload);
    }
    spans.end(token, ops as u64);
    put(m, "events.op_ns", spans.per_call_ns("events.op"));
}

/// `ExecutorQueue` grouped insertion and batch pops at the per-executor
/// share of the pending population.
fn queue(input: &ProbeInput<'_>, pending: usize, spans: &mut Spans, m: &mut Metrics) {
    let seq = input.expert_sequence(200_000);
    let executors = input.config.executors.len().max(1);
    let population = (pending / executors).clamp(16, 4096);
    let rounds = scaled(400_000, input.scale, 1_000) / (population / 2);
    let mut q = ExecutorQueue::new();
    let mut batch = Vec::new();
    let mut next = 0usize;
    let mut request = || {
        let (expert, ready_at) = seq[next % seq.len()];
        next += 1;
        PendingRequest {
            job: JobId(next as u32),
            stage: 0,
            expert,
            ready_at,
        }
    };
    for _ in 0..population {
        q.insert_grouped(request());
    }
    for _ in 0..rounds.max(1) {
        let k = population / 2;
        let token = spans.begin("queue.insert_grouped");
        for _ in 0..k {
            q.insert_grouped(request());
        }
        spans.end(token, k as u64);
        let token = spans.begin("queue.pop_group");
        let mut pops = 0u64;
        while q.len() > population {
            q.pop_front_group_into(8, &mut batch);
            pops += 1;
        }
        spans.end(token, pops);
    }
    put(
        m,
        "queue.insert_grouped_ns",
        spans.per_call_ns("queue.insert_grouped"),
    );
    put(
        m,
        "queue.pop_group_ns",
        spans.per_call_ns("queue.pop_group"),
    );
}

/// `select_victims_into` on a pool the size of the first executor's,
/// replaying the recorded expert sequence under CoServe's policy and
/// the two Samba-CoE policies.
fn eviction(input: &ProbeInput<'_>, spans: &mut Spans, m: &mut Metrics) {
    let engine = Engine::new(input.device, input.model, input.perf, input.config)
        .expect("workload configurations are valid");
    let capacity = engine.memory_layout().executors[0].pool_capacity;
    let seq = input.expert_sequence(60_000);
    let (model, perf) = (input.model, input.perf);
    for policy in [
        EvictionPolicy::DependencyAware,
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
    ] {
        let mut pool = ModelPool::new(capacity);
        for &e in perf.experts_by_usage() {
            let bytes = model.weight_bytes(e);
            if pool.fits(bytes) {
                let _ = pool.insert(e, bytes, SimTime::ZERO);
            }
        }
        let mut scratch = EvictionScratch::new();
        let mut protected = BTreeSet::new();
        for (t, &(e, _)) in seq.iter().enumerate() {
            let now = SimTime::from_nanos(t as u64 * 1_000);
            if pool.contains(e) {
                pool.touch(e, now);
                continue;
            }
            let bytes = model.weight_bytes(e);
            if bytes > capacity {
                continue;
            }
            if !pool.fits(bytes) {
                protected.clear();
                protected.insert(e);
                let ctx = EvictionContext {
                    model,
                    perf,
                    protected: &protected,
                };
                let need = bytes.saturating_sub(pool.available());
                let token = spans.begin("evict.select");
                let picked = select_victims_into(
                    policy,
                    &pool,
                    need,
                    &ctx,
                    perf.experts_by_usage_asc(),
                    &mut scratch,
                );
                spans.end(token, 1);
                if picked.is_err() {
                    continue;
                }
                for &v in scratch.victims() {
                    pool.remove(v);
                }
            }
            if pool.insert(e, bytes, now).is_ok() {
                pool.touch(e, now);
            }
        }
    }
    put(m, "evict.select_ns", spans.per_call_ns("evict.select"));
}

/// The offline phase: profiling and the CoServe window search.
fn offline(input: &ProbeInput<'_>, spans: &mut Spans, m: &mut Metrics) {
    for _ in 0..3 {
        let _ = spans.time("profiler.profile", 1, || {
            Profiler::with_defaults().profile(input.device, input.model, UsageSource::Declared)
        });
    }
    put(
        m,
        "profiler.profile_ms",
        spans.per_call_ns("profiler.profile").map(|ns| ns / 1e6),
    );
    let sample = prefix_stream(input.take(1_500));
    let base = presets::coserve(input.device);
    let _ = spans.time("autotune.window_search", 1, || {
        window_search(
            input.device,
            input.model,
            input.perf,
            &base,
            &sample,
            WindowSearchOptions::default(),
        )
    });
    put(
        m,
        "autotune.window_search_ms",
        spans
            .per_call_ns("autotune.window_search")
            .map(|ns| ns / 1e6),
    );
}

/// Placement, the dispatcher, and one short failover episode of the
/// cluster runtime.
fn cluster(input: &ProbeInput<'_>, spans: &mut Spans, m: &mut Metrics) {
    let nodes = cluster_failover::NODES;
    for _ in 0..5 {
        let _ = spans.time("placement.plan", 1, || {
            plan_placement(
                input.model,
                input.perf,
                nodes,
                PlacementStrategy::UsageAware,
                7,
            )
        });
    }
    put(
        m,
        "placement.plan_ms",
        spans.per_call_ns("placement.plan").map(|ns| ns / 1e6),
    );

    let stream = retimed(
        input.take(60_000),
        cluster_failover::RATE_PER_NODE * nodes as f64,
        mix_seed(input.seed, 0xC1),
    );
    let plan = plan_placement(
        input.model,
        input.perf,
        nodes,
        PlacementStrategy::UsageAware,
        7,
    );
    let fabric = Fabric::fully_connected(nodes, LinkProfile::ethernet_10g());
    let load = NodeLoadModel {
        perf: input.perf,
        executors: input.config.executors.len(),
        has_gpu: input.config.gpu_executor_count() > 0,
    };
    let loads = vec![load; nodes];
    let alive = vec![true; nodes];
    let mut dispatcher = Dispatcher::new(
        nodes,
        RoutePolicy::ResidencyFirst,
        Bytes::mib(8),
        FeedbackMode::Corrected,
        true,
    );
    let tick = cluster_failover::tick();
    let mut next_tick = SimTime::ZERO + tick;
    let token = spans.begin("dispatch.route");
    for job in stream.jobs() {
        while job.arrival >= next_tick {
            dispatcher.begin_tick();
            next_tick += tick;
        }
        let _ = dispatcher.route_job(job, input.model, &plan, &fabric, &loads, &alive);
    }
    spans.end(token, stream.len() as u64);
    put(m, "dispatch.route_ns", spans.per_call_ns("dispatch.route"));

    let episode = retimed(
        input.take(3_000),
        cluster_failover::RATE_PER_NODE * nodes as f64,
        mix_seed(input.seed, 0xC2),
    );
    let fleet = ClusterSystem::homogeneous(
        nodes,
        input.device,
        input.config,
        input.model,
        LinkProfile::ethernet_10g(),
        ClusterOptions::default(),
    )
    .expect("workload configurations are valid");
    let options = cluster_failover::options(&episode);
    let token = spans.begin("runtime.serve");
    let report = fleet.serve_runtime(&episode, &options);
    spans.end(token, report.dynamics.ticks.len() as u64);
    put(
        m,
        "runtime.tick_us",
        spans.per_call_ns("runtime.serve").map(|ns| ns / 1e3),
    );
    for (name, v) in cluster_failover::model_counters(&report) {
        if name.starts_with("runtime.") {
            m.insert(name, v);
        }
    }
}

/// The frame codec, `ServiceCore::handle` without sockets, and a short
/// loopback session.
fn wire(input: &ProbeInput<'_>, spans: &mut Spans, m: &mut Metrics) {
    let jobs = input.take(10_000);
    let frames = 3 * jobs.len() as u64;
    let requests: Vec<Request> = jobs
        .iter()
        .flat_map(|j| {
            [
                Request::Submit {
                    arrival: j.arrival,
                    stages: j.stages.clone(),
                },
                Request::Pump { limit: None },
                Request::Poll,
            ]
        })
        .collect();
    let responses: Vec<Response> = jobs
        .iter()
        .enumerate()
        .flat_map(|(i, j)| {
            let latency = SimSpan::from_millis(10);
            [
                Response::Submit { job: i as u32 },
                Response::Pump {
                    processed: 3 * j.stages.len() as u64,
                    now: j.arrival,
                    pending: 0,
                },
                Response::Poll {
                    completions: vec![WireCompletion {
                        job: i as u32,
                        status: CompletionStatus::Completed,
                        finished_at: j.arrival + latency,
                        latency,
                    }],
                },
            ]
        })
        .collect();
    let token = spans.begin("protocol.encode");
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = requests
        .iter()
        .zip(&responses)
        .map(|(q, r)| (encode_request(q), encode_response(r)))
        .collect();
    spans.end(token, frames);
    let token = spans.begin("protocol.decode");
    let decoded = encoded
        .iter()
        .filter(|(q, r)| decode_request(q).is_ok() && decode_response(r).is_ok())
        .count();
    spans.end(token, frames);
    debug_assert_eq!(decoded as u64, frames);
    put(
        m,
        "protocol.encode_ns",
        spans.per_call_ns("protocol.encode"),
    );
    put(
        m,
        "protocol.decode_ns",
        spans.per_call_ns("protocol.decode"),
    );

    let engine = Engine::new(input.device, input.model, input.perf, input.config)
        .expect("workload configurations are valid");
    let core = ServiceCore::new(engine.session("probe-service"), input.model.num_experts());
    let mut conns = [None, None];
    for conn in &mut conns {
        let _ = core.handle(conn, Request::Hello);
    }
    for (i, job) in jobs.iter().enumerate() {
        let conn = &mut conns[i % 2];
        let submit = Request::Submit {
            arrival: SimTime::ZERO,
            stages: job.stages.clone(),
        };
        let _ = spans.time("service.submit", 1, || core.handle(conn, submit));
        let _ = spans.time("service.pump", 1, || {
            core.handle(conn, Request::Pump { limit: None })
        });
        let _ = spans.time("service.poll", 1, || core.handle(conn, Request::Poll));
        if i % 2 == 0 && (i / 2 + 1) % wire_closed::STATS_EVERY == 0 {
            let _ = spans.time("service.stats", 1, || core.handle(conn, Request::Stats));
        }
    }
    let _ = spans.time("service.stats", 1, || {
        core.handle(&mut conns[0], Request::Stats)
    });
    for (name, metric) in [
        ("service.submit", "service.submit_us"),
        ("service.pump", "service.pump_us"),
        ("service.poll", "service.poll_us"),
        ("service.stats", "service.stats_us"),
    ] {
        put(m, metric, spans.per_call_ns(name).map(|ns| ns / 1e3));
    }

    let system = ServingSystem::with_matrix(
        input.device.clone(),
        input.model.clone(),
        input.perf.clone(),
        input.config.clone(),
    )
    .expect("workload configurations are valid");
    let submits = wire_closed::submits(input.take(2_000));
    match wire_closed::run_session(&system, &submits, spans) {
        Ok(run) => {
            put(
                m,
                "server.frame_rtt_us",
                spans.per_call_ns("server.frame_rtt").map(|ns| ns / 1e3),
            );
            m.insert("server.protocol_errors", run.protocol_errors as f64);
        }
        Err(e) => {
            eprintln!("loopback replay failed: {e}");
            m.insert("server.frame_rtt_us", f64::NAN);
            m.insert("server.protocol_errors", f64::NAN);
        }
    }
}
