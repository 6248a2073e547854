//! `paper_sweep`: both paper devices × the four paper tasks. Each cell
//! is prepared (model build, offline profiling, evaluation stream and
//! tuning sample — the set-up part of the iteration), then runs the
//! CoServe window search and serves its stream cold, each as a fresh
//! `Engine`: CoServe with the searched window, the three Samba-CoE
//! variants and the four-step ablation ladder. Cells fan out over two
//! threads.
//!
//! Hundreds of short cold runs make this setup-heavy (`Engine::new`,
//! memory planning, preload), and Samba-CoE's LRU/FIFO eviction makes
//! it eviction-heavy. It is the only workload that reaches the profiler
//! and the autotuner. One operation is one engine construction plus
//! run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

use coserve_baselines::samba::all_baselines;
use coserve_core::autotune::{window_search, WindowSearchOptions};
use coserve_core::config::SystemConfig;
use coserve_core::engine::Engine;
use coserve_core::perf::PerfMatrix;
use coserve_core::presets;
use coserve_core::profiler::{Profiler, UsageSource};
use coserve_metrics::report::RunReport;
use coserve_model::coe::CoeModel;
use coserve_model::devices;
use coserve_sim::device::DeviceProfile;
use coserve_workload::stream::{RequestStream, StreamOrder};
use coserve_workload::task::TaskSpec;

use crate::common::{mix_seed, scaled, EvictionCounter};
use crate::digest::Digest;
use crate::harness::{check, Config, Iteration, Metrics, Workload};
use crate::layers::ProbeInput;
use crate::spans::Spans;

/// Sweep threads.
pub const WIDTH: usize = 2;
/// Tuning-sample requests at scale 1 (the figure harness's size).
pub const SAMPLE: usize = 1_500;

/// Which system a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    CoServe,
    Samba,
    Ladder,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::CoServe => "engine.run.coserve",
            Kind::Samba => "engine.run.samba",
            Kind::Ladder => "engine.run.ablation",
        }
    }
}

/// One prepared (device, task) cell.
#[derive(Debug)]
pub struct Prepared {
    device: DeviceProfile,
    model: CoeModel,
    perf: PerfMatrix,
    stream: RequestStream,
    sample: RequestStream,
    coserve: SystemConfig,
}

fn prepare(device: &DeviceProfile, task: &TaskSpec, sample: usize, spans: &mut Spans) -> Prepared {
    let model = spans.time("model.build", 1, || {
        task.build_model().expect("built-in boards validate")
    });
    let perf = spans.time("profiler.profile", 1, || {
        Profiler::with_defaults().profile(device, &model, UsageSource::Declared)
    });
    let stream = spans.time("stream.generate", 1, || task.stream(&model));
    let sample = spans.time("stream.generate", 1, || task.sample(sample).stream(&model));
    Prepared {
        device: device.clone(),
        coserve: presets::coserve(device),
        model,
        perf,
        stream,
        sample,
    }
}

/// The systems one cell serves, CoServe first: CoServe with the
/// searched GPU-resident window, the Samba-CoE variants, the ablation
/// ladder.
fn systems(p: &Prepared, chosen: usize) -> Vec<(Kind, SystemConfig)> {
    let (gpus, cpus) = presets::casual_executors(&p.device);
    let mut out = vec![(
        Kind::CoServe,
        presets::coserve_with(&p.device, "CoServe", gpus, cpus, Some(chosen)),
    )];
    out.extend(
        all_baselines(&p.device)
            .into_iter()
            .map(|c| (Kind::Samba, c)),
    );
    out.extend(
        presets::ablation_ladder(&p.device)
            .into_iter()
            .map(|c| (Kind::Ladder, c)),
    );
    out
}

#[derive(Debug)]
struct CellRun {
    reports: Vec<(Kind, RunReport)>,
    chosen: usize,
    trial_requests: u64,
    ops_us: Vec<f64>,
    stats_us: Vec<f64>,
}

fn run_cell(p: &Prepared, spans: &mut Spans) -> CellRun {
    let search = spans.time("autotune.window_search", 1, || {
        window_search(
            &p.device,
            &p.model,
            &p.perf,
            &p.coserve,
            &p.sample,
            WindowSearchOptions::default(),
        )
    });
    let mut run = CellRun {
        reports: Vec::new(),
        chosen: search.chosen,
        trial_requests: (search.trials.len() * p.sample.len()) as u64,
        ops_us: Vec::new(),
        stats_us: Vec::new(),
    };
    for (kind, config) in systems(p, search.chosen) {
        let t = Instant::now();
        let engine = spans.time("engine.new", 1, || {
            Engine::new(&p.device, &p.model, &p.perf, &config)
                .expect("harness configurations are valid")
        });
        let report = spans.time(kind.span(), p.stream.len() as u64, || engine.run(&p.stream));
        run.ops_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let _ = report.snapshot();
        run.stats_us.push(t.elapsed().as_secs_f64() * 1e6);
        run.reports.push((kind, report));
    }
    run
}

/// Runs `f` over `items` on [`WIDTH`] threads, results in item order;
/// each thread records into its own fork of `spans`.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    spans: &mut Spans,
    f: impl Fn(&T, &mut Spans) -> R + Sync,
) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let forks: Vec<Spans> = (0..WIDTH).map(|w| spans.fork(100 + w as u32)).collect();
    let (f, cursor, slots_ref) = (&f, &cursor, &slots);
    let done: Vec<Spans> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .map(|mut sp| {
                scope.spawn(move || {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let r = f(item, &mut sp);
                        *slots_ref[i].lock().expect("slot lock") = Some(r);
                    }
                    sp
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep workers do not panic"))
            .collect()
    });
    for sp in done {
        spans.absorb(sp);
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every cell ran"))
        .collect()
}

/// The workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperSweep;

/// Set-up output.
#[derive(Debug)]
pub struct Ctx {
    cells: Vec<(DeviceProfile, TaskSpec)>,
    sample: usize,
    seed: u64,
    scale: f64,
    /// The first cell, prepared on demand for the layer replays.
    probe: OnceLock<Prepared>,
}

impl Workload for PaperSweep {
    type Ctx = Ctx;

    fn name(&self) -> &'static str {
        "paper_sweep"
    }

    fn threads(&self) -> usize {
        WIDTH
    }

    fn setup(&self, cfg: &Config, _spans: &mut Spans) -> Ctx {
        let mut cells = Vec::new();
        for device in devices::paper_devices() {
            for (i, task) in TaskSpec::paper_tasks().into_iter().enumerate() {
                let spec = TaskSpec::new(
                    task.name(),
                    task.board().clone(),
                    scaled(task.num_requests(), cfg.scale, 50),
                    task.interval(),
                    StreamOrder::BoardOrder,
                    mix_seed(cfg.seed, 0x90 + i as u64),
                );
                cells.push((device.clone(), spec));
            }
        }
        Ctx {
            cells,
            sample: scaled(SAMPLE, cfg.scale, 40),
            seed: cfg.seed,
            scale: cfg.scale,
            probe: OnceLock::new(),
        }
    }

    fn iterate(&self, ctx: &Ctx, spans: &mut Spans) -> Iteration {
        let mut it = Iteration::default();
        let t = Instant::now();
        let prepared = fan_out(&ctx.cells, spans, |(device, task), sp| {
            prepare(device, task, ctx.sample, sp)
        });
        it.setup = Some(t.elapsed());
        let t = Instant::now();
        let cells = fan_out(&prepared, spans, run_cell);
        it.wall = t.elapsed();

        let mut d = Digest::default();
        let (mut conserved, mut ordered) = (Vec::new(), Vec::new());
        let (mut min_thr_ratio, mut max_sw_ratio) = (f64::INFINITY, 0.0f64);
        let (mut switches, mut stages, mut submitted) = ([0u64; 2], [0u64; 2], [0u64; 2]);
        for ((_, task), (p, cell)) in ctx.cells.iter().zip(prepared.iter().zip(&cells)) {
            let label = format!("{}/{}", p.device.name(), task.name());
            d.str(&label).u64(cell.chosen as u64);
            let n = p.stream.len();
            for (kind, r) in &cell.reports {
                d.str(&r.to_json());
                if r.submitted != n || r.completed + r.failed + r.dropped != n || r.completed != n {
                    conserved.push(format!(
                        "{label} {}: {} of {n} submitted, {} completed",
                        r.system, r.submitted, r.completed
                    ));
                }
                let side = usize::from(*kind != Kind::CoServe);
                if *kind != Kind::Ladder {
                    switches[side] += r.expert_switches();
                    stages[side] += r.stages_executed as u64;
                    submitted[side] += r.submitted as u64;
                }
                it.requests += r.completed as u64;
            }
            let coserve = &cell.reports[0].1;
            for (_, samba) in cell.reports.iter().filter(|(k, _)| *k == Kind::Samba) {
                let thr = coserve.throughput_ips() / samba.throughput_ips();
                let sw = coserve.expert_switches() as f64 / samba.expert_switches().max(1) as f64;
                min_thr_ratio = min_thr_ratio.min(thr);
                max_sw_ratio = max_sw_ratio.max(sw);
                if thr <= 1.0 || sw >= 1.0 {
                    ordered.push(format!(
                        "{label}: CoServe {:.1} img/s, {} switches vs {} {:.1} img/s, {} switches",
                        coserve.throughput_ips(),
                        coserve.expert_switches(),
                        samba.system,
                        samba.throughput_ips(),
                        samba.expert_switches()
                    ));
                }
            }
            it.requests += cell.trial_requests;
            it.ops_us.extend(&cell.ops_us);
            it.stats_us.extend(&cell.stats_us);
        }
        it.checks.push(check(
            "conservation in every cell",
            conserved.is_empty(),
            if conserved.is_empty() {
                format!("{} cells", cells.len())
            } else {
                conserved.join("; ")
            },
        ));
        it.checks.push(check(
            "CoServe beats every Samba-CoE variant on throughput and switches",
            ordered.is_empty(),
            if ordered.is_empty() {
                format!(
                    "min throughput ratio {min_thr_ratio:.2}, max switch ratio {max_sw_ratio:.2}"
                )
            } else {
                ordered.join("; ")
            },
        ));
        it.digest = d.value();
        let per = |v: [u64; 2], side: usize| v[side] as f64 / submitted[side].max(1) as f64;
        it.counters = vec![
            ("paper.min_coserve_over_samba_throughput", min_thr_ratio),
            ("paper.max_coserve_over_samba_switches", max_sw_ratio),
            ("sim.switches_per_request.coserve", per(switches, 0)),
            ("sim.switches_per_request.samba", per(switches, 1)),
            (
                "sim.switches_per_request",
                (switches[0] + switches[1]) as f64 / (submitted[0] + submitted[1]).max(1) as f64,
            ),
            (
                "sim.stages_per_request",
                (stages[0] + stages[1]) as f64 / (submitted[0] + submitted[1]).max(1) as f64,
            ),
        ];
        it
    }

    fn probe_input<'a>(&self, ctx: &'a Ctx) -> ProbeInput<'a> {
        let p = ctx.probe.get_or_init(|| {
            let (device, task) = &ctx.cells[0];
            prepare(device, task, ctx.sample, &mut Spans::new(false))
        });
        ProbeInput {
            device: &p.device,
            model: &p.model,
            perf: &p.perf,
            config: &p.coserve,
            jobs: p.stream.jobs(),
            seed: ctx.seed,
            scale: ctx.scale,
        }
    }

    fn native_layers(&self, ctx: &Ctx, spans: &Spans, traced: &[Iteration], out: &mut Metrics) {
        for (span, metric, div) in [
            ("engine.new", "engine.new_us", 1e3),
            (
                "engine.run.coserve",
                "engine.run_ns_per_request.coserve",
                1.0,
            ),
            ("engine.run.samba", "engine.run_ns_per_request.samba", 1.0),
            ("profiler.profile", "profiler.profile_ms", 1e6),
            ("autotune.window_search", "autotune.window_search_ms", 1e6),
        ] {
            out.insert(metric, spans.per_call_ns(span).unwrap_or(f64::NAN) / div);
        }
        let first = &traced[0];
        let switches = first.counter("sim.switches_per_request");
        out.insert("pool.switches_per_request", switches);
        out.insert(
            "pool.hit_ratio",
            1.0 - switches / first.counter("sim.stages_per_request"),
        );
        out.insert("evict.evictions_per_request", evictions_per_request(ctx));
    }
}

/// Evictions per request over the CoServe and Samba-CoE runs of every
/// cell, counted from the engine's `Evicted` trace events (an untimed
/// pass: tracing changes the engine's host cost, not its results).
fn evictions_per_request(ctx: &Ctx) -> f64 {
    let (mut evicted, mut requests) = (0u64, 0u64);
    for (device, task) in &ctx.cells {
        let p = prepare(device, task, ctx.sample, &mut Spans::new(false));
        let search = window_search(
            &p.device,
            &p.model,
            &p.perf,
            &p.coserve,
            &p.sample,
            WindowSearchOptions::default(),
        );
        for (kind, config) in systems(&p, search.chosen) {
            if kind == Kind::Ladder {
                continue;
            }
            let engine = Engine::new(&p.device, &p.model, &p.perf, &config)
                .expect("harness configurations are valid");
            let counter = EvictionCounter::default();
            let mut session = engine.session(p.stream.name());
            let _ = session.set_tracer(Box::new(counter.clone()));
            for job in p.stream.jobs() {
                session
                    .submit(job.arrival, &job.stages)
                    .expect("stream jobs reference experts of the engine's model");
            }
            session.pump();
            evicted += counter.get();
            requests += p.stream.len() as u64;
        }
    }
    evicted as f64 / requests.max(1) as f64
}
