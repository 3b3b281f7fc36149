//! Percentiles as the benchmark reports them: a median, and the highest
//! percentile that still has at least ten samples beyond it.

/// Percentiles the tail is chosen from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `q` of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples (the
/// small slack keeps `0.99 * 1000` from rounding up to rank 991).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// A latency distribution reduced to what the benchmark prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// The percentile `tail` sits at (e.g. 0.99), chosen by [`summarize`].
    pub tail_q: f64,
    pub tail: f64,
}

/// Median and the highest percentile of [`TAIL_CANDIDATES`] with
/// at least [`TAIL_MIN_BEYOND`] samples beyond it (the median when no
/// candidate qualifies).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_q =
        TAIL_CANDIDATES.into_iter().find(|&q| n - rank(q, n) >= TAIL_MIN_BEYOND).unwrap_or(0.5);
    Summary { samples: n, p50: percentile(&sorted, 0.5), tail_q, tail: percentile(&sorted, tail_q) }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Samples tagged with when in the run they were taken. A statistic is
/// the median of its values over [`SLICES`] equal slices of the run, so a
/// host stall during one slice moves it little.
#[derive(Debug, Default)]
pub struct Timeline {
    samples: Vec<(f64, f64)>,
}

/// Slices a run is cut into.
pub const SLICES: usize = 5;

impl Timeline {
    /// Records `value`, taken `at_s` seconds into the run.
    pub fn push(&mut self, at_s: f64, value: f64) {
        self.samples.push((at_s, value));
    }

    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// The values of each slice of a `window_s`-second run.
    pub fn slices(&self, window_s: f64) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); SLICES];
        for &(at, v) in &self.samples {
            let k = ((at / window_s * SLICES as f64) as usize).min(SLICES - 1);
            out[k].push(v);
        }
        out
    }

    /// Median over the non-empty slices of `stat` of each slice.
    pub fn sliced_median(&self, window_s: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let per_slice: Vec<f64> =
            self.slices(window_s).iter().filter(|s| !s.is_empty()).map(|s| stat(s)).collect();
        median(&per_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p99 leaves 1 beyond, p95 leaves 5, p90 leaves 10.
        let s = summarize(&ramp(100));
        assert_eq!((s.tail_q, s.tail), (0.9, 90.0));
        // 1000 samples: p99 leaves exactly 10 beyond.
        let s = summarize(&ramp(1000));
        assert_eq!((s.tail_q, s.tail), (0.99, 990.0));
        // 10_000 samples: p99.9 leaves 10 beyond.
        let s = summarize(&ramp(10_000));
        assert_eq!((s.tail_q, s.tail), (0.999, 9990.0));
        // 999 samples: p99 would leave 9, so p95.
        assert_eq!(summarize(&ramp(999)).tail_q, 0.95);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let s = summarize(&ramp(12));
        assert_eq!(s.tail_q, 0.5);
        assert_eq!(s.p50, 6.0);
        assert_eq!(s.samples, 12);
    }

    #[test]
    fn a_stall_in_one_slice_barely_moves_the_sliced_median() {
        let mut t = Timeline::default();
        for i in 0..1000 {
            let at = i as f64 / 100.0;
            // Slice 2 of 5 runs 10x slower.
            let v = if (4.0..6.0).contains(&at) { 1000.0 } else { 100.0 + (i % 7) as f64 };
            t.push(at, v);
        }
        assert_eq!(t.slices(10.0).iter().map(Vec::len).sum::<usize>(), 1000);
        let p50 = t.sliced_median(10.0, median);
        assert!((100.0..=106.0).contains(&p50), "{p50}");
        let mean = t.values().iter().sum::<f64>() / 1000.0;
        assert!(mean > 250.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = ramp(4);
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.51), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
