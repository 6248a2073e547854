//! `wire_closed`: the `coserve-server` library bound on loopback with
//! two workers, driven by two closed-loop client threads with one
//! connection each. Every request is Submit, Pump (drain), Poll; one
//! frame in about a hundred on the first connection is a `Stats` read.
//! Engine work per request is tiny, so the codec, the sockets and the
//! `ServiceCore` mutex dominate.
//!
//! One operation is one request, timed from sending Submit until Poll
//! returns its completion. Each iteration serves a fresh session (so a
//! `Stats` read always sees the same number of completions at the
//! same point), and its set-up — session, bind, connect and handshake —
//! is part of `setup_s`.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use coserve_core::engine::CompletionStatus;
use coserve_core::presets;
use coserve_core::system::ServingSystem;
use coserve_metrics::report::RunReport;
use coserve_model::devices;
use coserve_server::protocol::{Request, Response};
use coserve_server::server::{Client, Server, ServerConfig};
use coserve_server::service::ServiceCore;
use coserve_sim::time::{SimSpan, SimTime};
use coserve_workload::stream::{Job, RequestStream};
use coserve_workload::task::TaskSpec;

use crate::common::{mix_seed, poisson_stream, scaled};
use crate::digest::Digest;
use crate::harness::{check, Config, Iteration, Metrics, Workload};
use crate::layers::ProbeInput;
use crate::spans::Spans;

/// Closed-loop clients (one connection each) and server workers.
pub const CLIENTS: usize = 2;
/// Requests per iteration at scale 1 (split between the clients).
pub const REQUESTS: usize = 8_000;
/// The first client reads `Stats` after every this many requests (one
/// frame in about a hundred: each request is three frames).
pub const STATS_EVERY: usize = 33;

/// The Submit frames for `jobs`. Arrivals are zero: the server floors
/// them to its current simulated time, as a closed loop would.
#[must_use]
pub fn submits(jobs: &[Job]) -> Vec<Request> {
    jobs.iter()
        .map(|j| Request::Submit {
            arrival: SimTime::ZERO,
            stages: j.stages.clone(),
        })
        .collect()
}

/// What one served session produced.
#[derive(Debug)]
pub struct WireRun {
    /// Session, bind, connect and handshake.
    pub setup: Duration,
    /// From the clients' start to the last client's finish.
    pub wall: Duration,
    /// Per-request wall latency, microseconds.
    pub latencies_us: Vec<f64>,
    /// Per-`Stats`-frame wall latency, microseconds.
    pub stats_us: Vec<f64>,
    /// Simulated latency of every completion the clients polled.
    pub wire_latencies: Vec<SimSpan>,
    /// Submits answered with a job id.
    pub submitted: u64,
    /// Replies of the wrong kind, or polls without exactly the
    /// request's own completion.
    pub bad_replies: u64,
    /// The server's protocol-error counter.
    pub protocol_errors: u64,
    /// The session's final report.
    pub report: RunReport,
}

#[derive(Debug, Default)]
struct ClientRun {
    latencies_us: Vec<f64>,
    stats_us: Vec<f64>,
    wire_latencies: Vec<SimSpan>,
    submitted: u64,
    bad_replies: u64,
}

fn call(client: &mut Client, request: &Request, spans: &mut Spans) -> io::Result<Response> {
    let token = spans.begin("server.frame_rtt");
    let response = client.call(request);
    spans.end(token, 1);
    response
}

fn client_loop(
    index: usize,
    mut client: Client,
    submits: &[Request],
    core: &ServiceCore<'_>,
    spans: &mut Spans,
) -> io::Result<ClientRun> {
    let mut run = ClientRun::default();
    let pump = Request::Pump { limit: None };
    for (k, submit) in submits.iter().skip(index).step_by(CLIENTS).enumerate() {
        let t = Instant::now();
        let Response::Submit { job } = call(&mut client, submit, spans)? else {
            run.bad_replies += 1;
            continue;
        };
        run.submitted += 1;
        if !matches!(call(&mut client, &pump, spans)?, Response::Pump { .. }) {
            run.bad_replies += 1;
        }
        match call(&mut client, &Request::Poll, spans)? {
            Response::Poll { completions }
                if completions.len() == 1
                    && completions[0].job == job
                    && completions[0].status == CompletionStatus::Completed =>
            {
                run.wire_latencies.push(completions[0].latency);
            }
            _ => run.bad_replies += 1,
        }
        run.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        if index == 0 && (k + 1) % STATS_EVERY == 0 {
            let t = Instant::now();
            let token = spans.begin("server.stats_rtt");
            let reply = client.call(&Request::Stats)?;
            spans.end(token, 1);
            run.stats_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !matches!(reply, Response::Stats { .. }) {
                run.bad_replies += 1;
            }
            if spans.enabled() {
                let _ = spans.time("engine.snapshot", 1, || core.snapshot());
            }
        }
    }
    if !matches!(client.call(&Request::Finish)?, Response::Finish { .. }) {
        run.bad_replies += 1;
    }
    Ok(run)
}

fn drive(
    addr: SocketAddr,
    submits: &[Request],
    core: &ServiceCore<'_>,
    spans: &mut Spans,
    started: Instant,
) -> io::Result<(Duration, Duration, Vec<ClientRun>)> {
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let mut client = Client::connect(addr)?;
        match client.call(&Request::Hello)? {
            Response::Hello { .. } => clients.push(client),
            other => return Err(io::Error::other(format!("handshake answered {other:?}"))),
        }
    }
    let setup = started.elapsed();
    let t = Instant::now();
    let forks: Vec<Spans> = (0..CLIENTS).map(|i| spans.fork(i as u32 + 1)).collect();
    let joined: Vec<(io::Result<ClientRun>, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(forks)
            .enumerate()
            .map(|(i, (client, mut sp))| {
                scope.spawn(move || (client_loop(i, client, submits, core, &mut sp), sp))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = t.elapsed();
    let mut runs = Vec::with_capacity(CLIENTS);
    for (run, sp) in joined {
        spans.absorb(sp);
        runs.push(run?);
    }
    Ok((setup, wall, runs))
}

/// Serves `submits` over loopback from a fresh session of `system`,
/// with [`CLIENTS`] closed-loop clients, and stops the server.
///
/// # Errors
///
/// Socket failures (bind, connect, or a call).
pub fn run_session(
    system: &ServingSystem,
    submits: &[Request],
    spans: &mut Spans,
) -> io::Result<WireRun> {
    let started = Instant::now();
    let core = ServiceCore::new(system.session("wire_closed"), system.model().num_experts());
    let server = Server::bind(&ServerConfig {
        workers: CLIENTS,
        ..ServerConfig::default()
    })?;
    let addr = server.data_addr()?;
    let (driven, served) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&core));
        let driven = drive(addr, submits, &core, spans, started);
        server.shutdown();
        (
            driven,
            serving.join().expect("the server thread does not panic"),
        )
    });
    let (setup, wall, runs) = driven?;
    served?;
    let protocol_errors = server.counters().protocol_errors.load(Ordering::Relaxed);
    let mut out = WireRun {
        setup,
        wall,
        latencies_us: Vec::new(),
        stats_us: Vec::new(),
        wire_latencies: Vec::new(),
        submitted: 0,
        bad_replies: 0,
        protocol_errors,
        report: core.into_report(),
    };
    for run in runs {
        out.latencies_us.extend(run.latencies_us);
        out.stats_us.extend(run.stats_us);
        out.wire_latencies.extend(run.wire_latencies);
        out.submitted += run.submitted;
        out.bad_replies += run.bad_replies;
    }
    Ok(out)
}

/// The workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireClosed;

/// Set-up output.
#[derive(Debug)]
pub struct Ctx {
    system: ServingSystem,
    stream: RequestStream,
    submits: Vec<Request>,
    seed: u64,
    scale: f64,
}

impl Workload for WireClosed {
    type Ctx = Ctx;

    fn name(&self) -> &'static str {
        "wire_closed"
    }

    fn threads(&self) -> usize {
        CLIENTS
    }

    fn setup(&self, cfg: &Config, spans: &mut Spans) -> Ctx {
        let task = TaskSpec::a1();
        let model = task.build_model().expect("built-in boards validate");
        let device = devices::numa_rtx3080ti();
        let config = presets::coserve(&device);
        // The arrivals are only used by the layer replays; the wire
        // clients submit as soon as their previous request completes.
        let stream = poisson_stream(
            task.board(),
            &model,
            scaled(REQUESTS, cfg.scale, 4 * STATS_EVERY),
            60.0,
            mix_seed(cfg.seed, 0x31),
            spans,
        );
        let submits = submits(stream.jobs());
        let system = ServingSystem::new(device, model, config).expect("preset is valid");
        Ctx {
            system,
            stream,
            submits,
            seed: cfg.seed,
            scale: cfg.scale,
        }
    }

    fn iterate(&self, ctx: &Ctx, spans: &mut Spans) -> Iteration {
        let mut it = Iteration::default();
        let n = ctx.submits.len() as u64;
        let run = match run_session(&ctx.system, &ctx.submits, spans) {
            Ok(run) => run,
            Err(e) => {
                it.checks
                    .push(check("loopback session ran", false, e.to_string()));
                it.ops_us = vec![0.0; ctx.submits.len()];
                return it;
            }
        };
        it.setup = Some(run.setup);
        it.wall = run.wall;
        it.requests = run.report.completed as u64;
        it.checks.push(check(
            "every Submit gets exactly one completion",
            run.bad_replies == 0 && run.submitted == n && run.wire_latencies.len() as u64 == n,
            format!(
                "{} submitted of {n}, {} completions polled, {} bad replies",
                run.submitted,
                run.wire_latencies.len(),
                run.bad_replies
            ),
        ));
        it.checks.push(check(
            "zero protocol errors",
            run.protocol_errors == 0,
            format!("{} protocol errors", run.protocol_errors),
        ));
        let mut wire = run.wire_latencies.clone();
        wire.sort_unstable();
        let mut reported = run.report.job_latencies.clone();
        reported.sort_unstable();
        it.checks.push(check(
            "wire latencies equal the final RunReport",
            wire == reported && run.report.completed as u64 == n,
            format!(
                "{} wire vs {} reported latencies, {} completed",
                wire.len(),
                reported.len(),
                run.report.completed
            ),
        ));
        // Two clients interleave their submissions in whatever order
        // the scheduler gives them, so per-job simulated latencies vary
        // from run to run; the digest covers what does not.
        it.digest = Digest::default()
            .u64(n)
            .u64(run.report.submitted as u64)
            .u64(run.report.completed as u64)
            .u64(run.report.failed as u64)
            .u64(run.report.dropped as u64)
            .u64(run.report.stages_executed as u64)
            .value();
        it.counters = vec![
            ("wire.requests", n as f64),
            ("wire.stats_frames", run.stats_us.len() as f64),
            (
                "sim.stages_per_request",
                run.report.stages_executed as f64 / n as f64,
            ),
            ("server.protocol_errors", run.protocol_errors as f64),
        ];
        it.ops_us = run.latencies_us;
        it.stats_us = run.stats_us;
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
        out.insert(
            "server.frame_rtt_us",
            spans.per_call_ns("server.frame_rtt").unwrap_or(f64::NAN) / 1e3,
        );
        out.insert(
            "engine.snapshot_us",
            spans.per_call_ns("engine.snapshot").unwrap_or(f64::NAN) / 1e3,
        );
        out.insert(
            "server.protocol_errors",
            traced
                .iter()
                .map(|it| it.counter("server.protocol_errors"))
                .sum(),
        );
    }
}
