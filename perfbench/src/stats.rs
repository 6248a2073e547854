//! Order statistics for host-time samples.
//!
//! Every timing the benchmark reports is a median or a nearest-rank
//! percentile over many samples, and the sample count travels with it:
//! a tail percentile is only meaningful when at least ten samples lie
//! beyond it.

/// The median (mean of the middle pair for an even count); `NaN` when
/// there are no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products like 0.999 * 10_000 from rounding up a
    // whole rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile of an ascending, non-empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Tail percentiles tried from the highest down.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it among `n` samples (the median when none qualifies).
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Distribution {
    /// Summarizes `samples`; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len());
        Some(Distribution {
            n: v.len(),
            p50: median(&v),
            p95: percentile_sorted(&v, 95.0),
            tail_pct,
            tail: percentile_sorted(&v, tail_pct),
        })
    }

    /// Whether the 95th percentile has at least ten samples beyond it.
    #[must_use]
    pub fn p95_resolved(&self) -> bool {
        beyond(self.n, 95.0) >= 10
    }
}

/// A fixed-size uniform sample of a stream of values (reservoir
/// sampling with a fixed-seed generator), so the benchmark's own sample
/// storage stops growing — and stops moving the process's peak memory —
/// once it is full.
#[derive(Debug, Clone)]
pub struct Reservoir {
    kept: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// Values kept at most.
    pub const CAPACITY: usize = 1 << 16;

    /// An empty reservoir.
    #[must_use]
    pub fn new() -> Self {
        Reservoir {
            kept: Vec::with_capacity(Self::CAPACITY),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.kept.len() < Self::CAPACITY {
            self.kept.push(v);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if let Some(slot) = self.kept.get_mut(j as usize) {
            *slot = v;
        }
    }

    /// Values offered so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    #[must_use]
    pub fn sample(&self) -> &[f64] {
        &self.kept
    }
}

impl Default for Reservoir {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_uniform_sample() {
        let mut r = Reservoir::new();
        for i in 0..1_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.sample().len(), 1_000);
        for i in 1_000..(4 * Reservoir::CAPACITY as u32) {
            r.push(f64::from(i));
        }
        assert_eq!(r.seen(), 4 * Reservoir::CAPACITY as u64);
        assert_eq!(r.sample().len(), Reservoir::CAPACITY);
        // A uniform sample of 0..4C has its median near 2C.
        let m = median(r.sample()) / (2 * Reservoir::CAPACITY) as f64;
        assert!((m - 1.0).abs() < 0.02, "{m}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(200, 95.0), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
        for n in [1, 5, 40, 100, 200, 999, 1_000, 10_000] {
            let p = tail_percentile(n);
            assert!(p == 50.0 || beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn distribution_states_its_sample_count() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let d = Distribution::of(&v).unwrap();
        assert_eq!(d.n, 1_000);
        assert_eq!(d.p50, 500.5);
        assert_eq!(d.p95, 950.0);
        assert_eq!(d.tail_pct, 99.0);
        assert_eq!(d.tail, 990.0);
        assert!(d.p95_resolved());
        assert!(!Distribution::of(&v[..150]).unwrap().p95_resolved());
        assert!(Distribution::of(&[]).is_none());
    }
}
