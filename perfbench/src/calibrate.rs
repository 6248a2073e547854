//! Host-speed calibration.
//!
//! Shared cloud hosts change speed by tens of percent over seconds to
//! minutes (a single-threaded CPU loop on the 2-vCPU reference VM read
//! 23–35 ms per call across one 40 s window). The drift is global: one
//! run of 90 s of identical `cluster_failover` episodes varied ±9 % in
//! wall time while their ratio to this module's fixed loop, run between
//! episodes, held within ±2 %. At times the host also withdraws most of
//! a vCPU: a `wire_closed` run then serves half its usual request rate
//! at an unchanged median request latency, because its two clients no
//! longer overlap.
//!
//! So every timed iteration and set-up is bracketed by the fixed loop,
//! run on as many threads at once as the workload keeps busy (the
//! slowest thread counts), and its host times are scaled by
//! `NOMINAL_US / (mean of the two loop times)`: they read as wall time
//! at the reference host's nominal speed. The loop is the benchmark's
//! own code, so no change to the program under test can move it. Raw
//! wall-clock figures and the median speed factor are printed beside
//! the scaled ones.

use std::time::Instant;

/// Duration of [`calibrate`] at the reference host's nominal speed
/// (2-vCPU VM, 2.1 GHz), in microseconds.
pub const NOMINAL_US: f64 = 1800.0;

/// Runs the fixed calibration loop (xorshift fill and sort of 64 Ki
/// words, 512 KiB, in `buf`) and returns its wall time in microseconds.
pub fn calibrate(buf: &mut Vec<u64>) -> f64 {
    buf.clear();
    buf.reserve(1 << 16);
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..(1 << 16) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf.push(x);
    }
    buf.sort_unstable();
    std::hint::black_box(&*buf);
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs [`calibrate`] on one thread per buffer at the same time and
/// returns the slowest thread's time.
fn calibrate_on(bufs: &mut [Vec<u64>]) -> f64 {
    let Some((first, rest)) = bufs.split_first_mut() else {
        return f64::NAN;
    };
    let barrier = std::sync::Barrier::new(rest.len() + 1);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = rest
            .iter_mut()
            .map(|buf| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    calibrate(buf)
                })
            })
            .collect();
        barrier.wait();
        let own = calibrate(first);
        helpers
            .into_iter()
            .map(|h| h.join().expect("calibration threads do not panic"))
            .fold(own, f64::max)
    })
}

/// Brackets timed work with calibration loops.
#[derive(Debug)]
pub struct Pace {
    last: f64,
    bufs: Vec<Vec<u64>>,
}

impl Pace {
    /// Calibrates on `threads` threads (at least one) and keeps the
    /// result as the opening bracket.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let mut bufs = vec![Vec::new(); threads.max(1)];
        calibrate_on(&mut bufs);
        Pace {
            last: calibrate_on(&mut bufs),
            bufs,
        }
    }

    /// Call right after the timed work: calibrates again and returns
    /// the factor that scales its host times to nominal speed.
    pub fn factor(&mut self) -> f64 {
        let now = calibrate_on(&mut self.bufs);
        let factor = NOMINAL_US / ((self.last + now) / 2.0);
        self.last = now;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        for threads in [1, 2] {
            let mut pace = Pace::new(threads);
            let f = pace.factor();
            assert!(f.is_finite() && f > 0.0, "{threads} threads: {f}");
        }
    }
}
