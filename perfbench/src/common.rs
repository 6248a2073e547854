//! Inputs and call sequences shared by the workloads and the layer
//! replays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use coserve_core::engine::{Completion, EngineSession};
use coserve_model::coe::CoeModel;
use coserve_sim::rng::SimRng;
use coserve_sim::time::SimTime;
use coserve_trace::{TraceEvent, TraceKind, Tracer};
use coserve_workload::arrivals::ArrivalProcess;
use coserve_workload::board::BoardSpec;
use coserve_workload::stream::{Job, JobId, RequestStream, StreamOrder};

use crate::spans::Spans;

/// Jobs submitted between two `pump_until` calls on the streaming path
/// (the fig23 chunk size).
pub const CHUNK: usize = 4096;

/// Derives an independent seed for one input from the benchmark seed
/// (SplitMix64 finalizer over `seed ^ salt`).
#[must_use]
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `base` scaled by `scale`, at least `floor`.
#[must_use]
pub fn scaled(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(floor)
}

/// Generates a Poisson, independently-drawn request stream (timed as
/// `stream.generate`).
#[must_use]
pub fn poisson_stream(
    board: &BoardSpec,
    model: &CoeModel,
    requests: usize,
    rate_per_sec: f64,
    seed: u64,
    spans: &mut Spans,
) -> RequestStream {
    spans.time("stream.generate", 1, || {
        RequestStream::generate_open_loop(
            format!("poisson {rate_per_sec}/s"),
            board,
            model,
            requests,
            ArrivalProcess::poisson(rate_per_sec),
            StreamOrder::Iid,
            seed,
        )
    })
}

/// The expert sequences of `jobs` as a fresh stream with dense ids and
/// new Poisson arrivals at `rate_per_sec`.
#[must_use]
pub fn retimed(jobs: &[Job], rate_per_sec: f64, seed: u64) -> RequestStream {
    let arrivals = ArrivalProcess::poisson(rate_per_sec)
        .sample_arrivals(jobs.len(), &mut SimRng::seed_from(seed));
    let jobs = jobs
        .iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, (job, arrival))| Job {
            id: JobId(i as u32),
            class: job.class,
            arrival,
            stages: job.stages.clone(),
        })
        .collect();
    RequestStream::from_jobs("retimed", jobs)
}

/// A prefix of `jobs` as a stream with dense ids and its own arrivals.
#[must_use]
pub fn prefix_stream(jobs: &[Job]) -> RequestStream {
    let jobs = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| Job {
            id: JobId(i as u32),
            ..job.clone()
        })
        .collect();
    RequestStream::from_jobs("prefix", jobs)
}

/// What one chunked pass over a stream produced.
#[derive(Debug, Default)]
pub struct ChunkedPass {
    /// Events the session processed.
    pub events: u64,
    /// Most events pending right after a chunk's submissions.
    pub pending_max: usize,
    /// Jobs in the system (arrived, not finished) at each chunk
    /// boundary before the final drain.
    pub backlog: Vec<usize>,
    /// Every terminal job record, in completion order.
    pub completions: Vec<Completion>,
}

/// Streams `jobs` through `session` the fig23 way: submit a chunk of
/// [`CHUNK`] jobs, pump strictly before the next chunk's first arrival,
/// drain completions; pump dry after the last chunk. Each chunk's wall
/// time in microseconds is appended to `chunk_us`; the three calls are
/// spans `engine.submit` (per job), `engine.pump` (per event) and
/// `engine.drain` (per completion).
///
/// # Panics
///
/// Panics when a job names an expert outside the session's model.
pub fn feed_chunked(
    session: &mut EngineSession<'_>,
    jobs: &[Job],
    spans: &mut Spans,
    chunk_us: &mut Vec<f64>,
) -> ChunkedPass {
    let mut pass = ChunkedPass {
        completions: Vec::with_capacity(jobs.len()),
        ..ChunkedPass::default()
    };
    for (start, chunk) in (0..jobs.len()).step_by(CHUNK).zip(jobs.chunks(CHUNK)) {
        let t = Instant::now();
        let token = spans.begin("engine.submit");
        for job in chunk {
            session
                .submit(job.arrival, &job.stages)
                .expect("stream jobs reference experts of the session's model");
        }
        spans.end(token, chunk.len() as u64);
        pass.pending_max = pass.pending_max.max(session.pending_events());
        let token = spans.begin("engine.pump");
        let events = match jobs.get(start + CHUNK) {
            Some(next) => session.pump_until(next.arrival),
            None => session.pump(),
        };
        spans.end(token, events as u64);
        pass.events += events as u64;
        let token = spans.begin("engine.drain");
        let done = session.drain_completions();
        spans.end(token, done.len() as u64);
        pass.completions.extend(done);
        chunk_us.push(t.elapsed().as_secs_f64() * 1e6);
        if start + CHUNK < jobs.len() {
            pass.backlog
                .push(start + chunk.len() - pass.completions.len());
        }
    }
    pass
}

/// A tracer that counts `Evicted` events and keeps nothing else: the
/// eviction counter the engine's reports do not carry.
#[derive(Debug, Clone, Default)]
pub struct EvictionCounter(Arc<AtomicU64>);

impl EvictionCounter {
    /// Evictions counted so far.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Tracer for EvictionCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        if matches!(event.kind, TraceKind::Evicted { .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    fn len(&self) -> usize {
        0
    }

    fn recorded(&self) -> u64 {
        self.get()
    }

    fn dropped(&self) -> u64 {
        0
    }
}

/// Simulated seconds from time zero.
#[must_use]
pub fn sim_secs(t: SimTime) -> f64 {
    t.saturating_since(SimTime::ZERO).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_mix_apart() {
        assert_ne!(mix_seed(1, 1), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 1), mix_seed(2, 1));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }

    #[test]
    fn scaling_has_a_floor() {
        assert_eq!(scaled(1000, 0.5, 1), 500);
        assert_eq!(scaled(1000, 0.0001, 40), 40);
    }
}
