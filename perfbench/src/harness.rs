//! The measurement loop every workload shares: repeated set-up, timed
//! iterations, output checks, the simulation digest, and — in a traced
//! run — the per-layer table.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use crate::calibrate::Pace;
use crate::layers::{self, ProbeInput};
use crate::spans::Spans;
use crate::spec;
use crate::stats::{median, Distribution, Reservoir};

/// Per-name metric values.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How one benchmark run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement (split evenly between the untraced and
    /// the traced half in a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input-size factor (1 for the benchmark; the smoke tests shrink
    /// it).
    pub scale: f64,
    /// How many times set-up is repeated (its median is reported).
    pub setups: usize,
}

/// Iterations measured at the least, so the digest is compared between
/// two runs of the same inputs even when the time is up after one.
pub const MIN_ITERATIONS: usize = 2;

/// Cheap set-ups are repeated until they have taken this many seconds
/// (at most [`MAX_SETUPS`] times), so their median rests on enough
/// samples.
pub const SETUP_SECONDS: f64 = 0.25;
/// Upper limit on set-up repetitions.
pub const MAX_SETUPS: usize = 25;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

/// Builds a [`Check`].
#[must_use]
pub fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// What one timed iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Simulated requests completed.
    pub requests: u64,
    /// Wall time of the measured work (iteration set-up excluded).
    pub wall: Duration,
    /// Set-up the iteration repeats before its measured work, if any.
    pub setup: Option<Duration>,
    /// Wall time of each user-visible operation, in microseconds
    /// (moved into the run's sample once the iteration is scaled).
    pub ops_us: Vec<f64>,
    /// Operations the iteration performed.
    pub ops: u64,
    /// Wall time of each statistics read, in microseconds.
    pub stats_us: Vec<f64>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Simulated model counters (deterministic).
    pub counters: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The factor that scaled this iteration's host times to nominal
    /// host speed (see [`crate::calibrate`]).
    pub speed: f64,
}

impl Iteration {
    /// A simulated model counter by name (`NaN` when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn rate(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Everything set-up produces.
    type Ctx;

    /// The workload's name.
    fn name(&self) -> &'static str;

    /// Builds the inputs and the system under test (timed; repeated).
    fn setup(&self, cfg: &Config, spans: &mut Spans) -> Self::Ctx;

    /// One timed iteration with its output checks.
    fn iterate(&self, ctx: &Self::Ctx, spans: &mut Spans) -> Iteration;

    /// The inputs the layer replays are fed with.
    fn probe_input<'a>(&self, ctx: &'a Self::Ctx) -> ProbeInput<'a>;

    /// Threads the workload keeps busy (the calibration runs on as
    /// many).
    fn threads(&self) -> usize {
        1
    }

    /// Per-layer metrics measured on the workload's own calls; these
    /// replace the replayed values.
    fn native_layers(
        &self,
        ctx: &Self::Ctx,
        spans: &Spans,
        traced: &[Iteration],
        out: &mut Metrics,
    );
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Reported metrics (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Per-layer metrics measured on the workload's own calls (the rest
    /// come from replays on its inputs).
    pub native: BTreeSet<&'static str>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations in iterations whose checks failed.
    pub failed: u64,
    /// Every check, aggregated by name.
    pub checks: Vec<Check>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Simulated model counters of the first iteration.
    pub counters: Vec<(&'static str, f64)>,
    /// Human-readable notes (sample counts, percentiles).
    pub notes: Vec<String>,
    /// Every span recorded (traced runs).
    pub spans: Spans,
}

impl Outcome {
    /// Whether every check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// What a measurement loop produced.
struct Measured {
    its: Vec<Iteration>,
    /// Raw wall-clock request rate of each iteration.
    raw_rates: Vec<f64>,
    /// Scaled operation latencies, microseconds.
    ops: Reservoir,
    /// Scaled statistics-read latencies, microseconds.
    stats: Reservoir,
    /// Peak RSS after set-up and the first iteration: the footprint of
    /// the workload's work, before later iterations' thread and
    /// allocator churn (each iteration starts new threads on the
    /// two-thread workloads, and which malloc arenas they land on moved
    /// the end-of-run peak by about 10 %) and before any aggregation.
    peak_rss_mib: f64,
}

/// Runs iterations for `seconds` (at least [`MIN_ITERATIONS`]), each
/// bracketed by calibration loops and scaled to nominal host speed.
fn measure<W: Workload>(w: &W, ctx: &W::Ctx, seconds: f64, spans: &mut Spans) -> Measured {
    let start = Instant::now();
    let mut pace = Pace::new(w.threads());
    let mut m = Measured {
        its: Vec::new(),
        raw_rates: Vec::new(),
        ops: Reservoir::new(),
        stats: Reservoir::new(),
        peak_rss_mib: 0.0,
    };
    while m.its.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let mut it = w.iterate(ctx, spans);
        m.raw_rates.push(it.rate());
        let f = pace.factor();
        it.speed = f;
        it.wall = it.wall.mul_f64(f);
        it.setup = it.setup.map(|d| d.mul_f64(f));
        it.ops = it.ops_us.len() as u64;
        for v in std::mem::take(&mut it.ops_us) {
            m.ops.push(v * f);
        }
        for v in std::mem::take(&mut it.stats_us) {
            m.stats.push(v * f);
        }
        m.its.push(it);
        if m.its.len() == 1 {
            m.peak_rss_mib = peak_rss_mib();
        }
    }
    m
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Folds the checks of `its` into one per name, plus the digest
/// comparison; returns the failed-operation count.
fn fold_checks(its: &[Iteration], reference: u64, label: &str, out: &mut Vec<Check>) -> u64 {
    let mut failed = 0;
    for it in its {
        let same = it.digest == reference;
        if !it.ok() || !same {
            failed += it.ops.max(1);
        }
        for c in &it.checks {
            match out.iter_mut().find(|o| o.name == c.name) {
                Some(o) if o.ok && !c.ok => *o = c.clone(),
                Some(_) => {}
                None => out.push(c.clone()),
            }
        }
    }
    let digests: BTreeSet<u64> = its.iter().map(|it| it.digest).collect();
    out.push(check(
        "digest identical across iterations",
        digests.len() == 1 && digests.contains(&reference),
        format!(
            "{label}: {} iterations, {} distinct digests",
            its.len(),
            digests.len()
        ),
    ));
    failed
}

fn attempted(its: &[Iteration]) -> u64 {
    its.iter().map(|it| it.ops.max(1)).sum()
}

fn end_to_end(setup_s: &[f64], run: &Measured, notes: &mut Vec<String>) -> Metrics {
    let its = &run.its;
    let mut m = Metrics::new();
    let iteration_setup: Vec<f64> = its
        .iter()
        .filter_map(|it| it.setup.map(|d| d.as_secs_f64()))
        .collect();
    let setup = median(setup_s)
        + if iteration_setup.is_empty() {
            0.0
        } else {
            median(&iteration_setup)
        };
    m.insert("setup_s", setup);
    let rates: Vec<f64> = its.iter().map(Iteration::rate).collect();
    m.insert("requests_per_s", median(&rates));
    if let Some(d) = Distribution::of(run.ops.sample()) {
        m.insert("latency_p50_us", d.p50);
        m.insert("latency_p95_us", d.p95);
        notes.push(format!(
            "latency: {} operations, percentiles over a uniform sample of {}; p50 {:.1} us, p95 {:.1} us{}; highest percentile with 10 samples beyond: p{} = {:.1} us",
            run.ops.seen(),
            d.n,
            d.p50,
            d.p95,
            if d.p95_resolved() { "" } else { " (fewer than 10 samples beyond p95)" },
            d.tail_pct,
            d.tail
        ));
    }
    m.insert("stats_p50_us", median(run.stats.sample()));
    m.insert("peak_rss_mib", run.peak_rss_mib);
    notes.push(format!(
        "{} iterations; set-up medians over {} set-ups{}; {} statistics reads",
        its.len(),
        setup_s.len(),
        if iteration_setup.is_empty() {
            String::new()
        } else {
            format!(" plus {} per-iteration set-ups", iteration_setup.len())
        },
        run.stats.seen()
    ));
    notes.push(format!(
        "host times are scaled to nominal host speed: median speed factor {:.3}; raw wall-clock requests_per_s {:.1}",
        median(&its.iter().map(|it| it.speed).collect::<Vec<_>>()),
        median(&run.raw_rates)
    ));
    m
}

/// Runs one workload under `cfg`.
pub fn run<W: Workload>(w: &W, cfg: &Config) -> Outcome {
    let mut spans = Spans::new(cfg.trace);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut ctx = None;
    let mut pace = Pace::new(w.threads());
    while setup_s.len() < cfg.setups.max(1)
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        drop(ctx.take());
        let t = Instant::now();
        let c = w.setup(cfg, &mut spans);
        let elapsed = t.elapsed().as_secs_f64();
        setup_s.push(elapsed * pace.factor());
        ctx = Some(c);
    }
    let ctx = ctx.expect("at least one set-up");
    let mut checks = Vec::new();
    let mut notes = Vec::new();
    let mut native = BTreeSet::new();

    let (metrics, its, attempted_ops, failed) = if cfg.trace {
        let half = cfg.seconds / 2.0;
        let untraced = measure(w, &ctx, half, &mut Spans::new(false)).its;
        let traced = measure(w, &ctx, half, &mut spans).its;
        let reference = untraced[0].digest;
        let mut failed = fold_checks(&untraced, reference, "untraced", &mut checks);
        failed += fold_checks(&traced, reference, "traced", &mut checks);
        checks.push(check(
            "digest identical untraced vs traced",
            traced[0].digest == reference,
            format!("{reference:#018x} vs {:#018x}", traced[0].digest),
        ));

        let mut probe_spans = spans.fork(1000);
        let mut metrics = layers::probe(&w.probe_input(&ctx), &mut probe_spans);
        let mut own = Metrics::new();
        w.native_layers(&ctx, &spans, &traced, &mut own);
        if let Some(ns) = spans.per_call_ns("stream.generate") {
            own.insert("stream.generate_ms", ns / 1e6);
        }
        let rate = |its: &[Iteration]| median(&its.iter().map(Iteration::rate).collect::<Vec<_>>());
        own.insert(
            "trace.overhead_pct",
            (rate(&untraced) / rate(&traced) - 1.0) * 100.0,
        );
        native.extend(own.keys().copied());
        if native.contains("server.frame_rtt_us") {
            native.insert("server.overhead_us");
        }
        metrics.extend(own);
        layers::derive(&mut metrics);
        spans.absorb(probe_spans);
        let attempted_ops = attempted(&untraced) + attempted(&traced);
        notes.push(format!(
            "traced run: {} untraced and {} traced iterations (overhead from their speed-scaled rates); per-layer times are raw wall clock; values marked (replay) come from replays on this workload's inputs",
            untraced.len(),
            traced.len()
        ));
        (metrics, untraced, attempted_ops, failed)
    } else {
        let run = measure(w, &ctx, cfg.seconds, &mut spans);
        let failed = fold_checks(&run.its, run.its[0].digest, "untraced", &mut checks);
        let metrics = end_to_end(&setup_s, &run, &mut notes);
        let attempted_ops = attempted(&run.its);
        (metrics, run.its, attempted_ops, failed)
    };

    let mut metrics = metrics;
    let table = if cfg.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    for m in table {
        metrics.entry(m.name).or_insert(f64::NAN);
    }
    let mut failed = failed;
    for (name, v) in &metrics {
        if !v.is_finite() {
            failed = failed.max(1);
            checks.push(check("metric is finite", false, format!("{name} = {v}")));
        }
    }
    Outcome {
        workload: w.name(),
        metrics,
        native,
        attempted: attempted_ops,
        failed,
        checks,
        digest: its[0].digest,
        counters: its[0].counters.clone(),
        notes,
        spans,
    }
}
