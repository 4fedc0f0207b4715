//! Exact order statistics over raw samples.
//!
//! Percentiles are nearest-rank over the sorted samples (no histogram
//! buckets), and a tail percentile is only reported where at least
//! [`MIN_BEYOND`] samples lie beyond it, so a p99 always rests on data.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Sorts `samples` in place (NaN-free input assumed).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Percentile `p` of `sorted`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (beyond(sorted.len(), p) >= MIN_BEYOND)
        .then(|| nearest_rank(sorted, p))
        .flatten()
}

/// The median of a handful of repeated measurements (set-ups, windows,
/// trials), whatever their number; NaN if there are none.
pub fn median_of(mut xs: Vec<f64>) -> f64 {
    sort(&mut xs);
    nearest_rank(&xs, 50.0).unwrap_or(f64::NAN)
}

/// A percentile taken per time window and summarised by its median
/// across the windows.
#[derive(Clone, Debug, PartialEq)]
pub struct Windowed {
    /// Median over the windows of each window's percentile.
    pub value: f64,
    /// Windows.
    pub windows: usize,
    /// Samples in the smallest window.
    pub min_count: usize,
    /// Samples in all windows.
    pub count: usize,
    /// Each window's percentile, in window order.
    pub per_window: Vec<f64>,
}

/// Percentile `p` of every full window of `window_ns` (samples are
/// `(time_ns, value)`, windows start at 0 and must end by `span_ns`), and
/// the median of those per-window percentiles. `None` if there is no full
/// window or any window has fewer than [`MIN_BEYOND`] samples beyond `p`.
pub fn windowed(samples: &[(u64, f64)], window_ns: u64, span_ns: u64, p: f64) -> Option<Windowed> {
    let n = (span_ns / window_ns) as usize;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, v) in samples {
        if let Some(w) = per.get_mut((t / window_ns) as usize) {
            w.push(v);
        }
    }
    let mut per_window = Vec::with_capacity(n);
    for w in &mut per {
        sort(w);
        per_window.push(percentile(w, p)?);
    }
    Some(Windowed {
        value: median_of(per_window.clone()),
        per_window,
        windows: n,
        min_count: per.iter().map(Vec::len).min()?,
        count: per.iter().map(Vec::len).sum(),
    })
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact() {
        let xs = ramp(100);
        assert_eq!(nearest_rank(&xs, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&xs, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond → p99 is reported.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: only 9 beyond the p99 rank.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(999), 90.0), Some(900.0));
        // The median needs 20 samples.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn median_of_sorts_first() {
        assert_eq!(median_of(vec![3.0, 1.0, 2.0, 5.0, 4.0]), 3.0);
        assert!(median_of(Vec::new()).is_nan());
    }

    #[test]
    fn windowed_takes_the_median_of_window_percentiles() {
        // Three 1 s windows of 1000 samples each; the middle one has a
        // stall that lifts its p99 but not the median across windows.
        let mut xs = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                let v = if w == 1 && i >= 900 {
                    50.0
                } else {
                    (i % 10) as f64
                };
                xs.push((w * 1_000_000_000 + i * 1_000_000, v));
            }
        }
        let r = windowed(&xs, 1_000_000_000, 3_000_000_000, 99.0).unwrap();
        assert_eq!(
            (r.value, r.windows, r.min_count, r.count),
            (9.0, 3, 1000, 3000)
        );
        assert_eq!(r.per_window, vec![9.0, 50.0, 9.0]);
        // A partial trailing window is left out.
        let r = windowed(&xs, 1_000_000_000, 2_500_000_000, 50.0).unwrap();
        assert_eq!(r.windows, 2);
        // Too few samples in a window for p99.
        assert_eq!(
            windowed(&xs[..1500], 1_000_000_000, 2_000_000_000, 99.0),
            None
        );
    }
}
