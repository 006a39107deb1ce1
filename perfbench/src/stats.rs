//! Order statistics for the reported timings.
//!
//! A tail percentile is only reported where at least [`MIN_BEYOND`] samples
//! lie beyond it; otherwise the next lower rung of [`LADDER`] is used, so a
//! short run never reports a "p99" that is really its single slowest sample.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, by [`tail`].
pub const LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of sorted samples: the value at rank
/// `ceil(p/100 * n)`, plus how many samples lie beyond that rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The highest percentile of [`LADDER`] at or below `want` that has at least
/// [`MIN_BEYOND`] samples beyond it, as `(percentile, value)`.  `None` when
/// even the lowest rung lacks them.
pub fn tail(samples: &[f64], want: f64) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    LADDER
        .iter()
        .filter(|&&p| p <= want)
        .find_map(|&p| match nearest_rank(&sorted, p) {
            Some((value, beyond)) if beyond >= MIN_BEYOND => Some((p, value)),
            _ => None,
        })
}

/// The tail of a run cut into time windows: the highest percentile of
/// [`LADDER`] at or below `want` that has [`MIN_BEYOND`] samples beyond it
/// in every window, and the median over the windows of that percentile.  A
/// stall of the shared host inflates the tail of the windows it hits, not
/// the median over them.
pub fn windowed_tail(windows: &[Vec<f64>], want: f64) -> Option<(f64, f64)> {
    let windows: Vec<Vec<f64>> = windows.iter().map(|w| sorted(w)).collect();
    let percentile = LADDER.iter().copied().filter(|&p| p <= want).find(|&p| {
        windows
            .iter()
            .all(|w| nearest_rank(w, p).is_some_and(|(_, beyond)| beyond >= MIN_BEYOND))
    })?;
    let values: Vec<f64> = windows
        .iter()
        .filter_map(|w| nearest_rank(w, percentile).map(|(value, _)| value))
        .collect();
    Some((percentile, median(&values)))
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones computed over repeated runs.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (sorted[0], sorted[0], sorted[0]),
        n => {
            let at = |q: f64| {
                let m = (n + 1) as f64 * q;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
            };
            (at(0.25), at(0.5), at(0.75))
        }
    }
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(tail(&ramp(1000), 99.0), Some((99.0, 990.0)));
        // 999 samples: rank 990 leaves 9 beyond, so p95 is reported.
        assert_eq!(tail(&ramp(999), 99.0), Some((95.0, 950.0)));
    }

    #[test]
    fn short_runs_fall_down_the_ladder() {
        // 200 samples: p95 has exactly 10 beyond.
        assert_eq!(tail(&ramp(200), 99.0), Some((95.0, 190.0)));
        // 50 samples: p90 leaves 5, p75 leaves 12.
        assert_eq!(tail(&ramp(50), 99.0), Some((75.0, 38.0)));
        // 20 samples: p50 leaves exactly 10.
        assert_eq!(tail(&ramp(20), 99.0), Some((50.0, 10.0)));
        // 19 samples: nothing qualifies.
        assert_eq!(tail(&ramp(19), 99.0), None);
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond() {
        for n in 1..2_000 {
            let samples = ramp(n);
            if let Some((_, value)) = tail(&samples, 99.0) {
                let beyond = samples.iter().filter(|&&v| v > value).count();
                assert!(beyond >= MIN_BEYOND, "n = {n}: only {beyond} beyond");
            }
        }
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let mut samples = ramp(400);
        samples.reverse();
        assert_eq!(tail(&samples, 99.0), Some((95.0, 380.0)));
    }

    #[test]
    fn windowed_tails_use_a_percentile_every_window_supports() {
        // Windows of 1000 and 500 samples: p99 leaves only 5 beyond in the
        // second, so p95 is used in both.
        let windows = vec![ramp(1000), ramp(500)];
        assert_eq!(
            windowed_tail(&windows, 99.0),
            Some((95.0, (950.0 + 475.0) / 2.0))
        );
        // One stalled window does not move the median over three.
        let stalled: Vec<f64> = ramp(1000).iter().map(|v| v * 10.0).collect();
        let windows = vec![ramp(1000), stalled, ramp(1000)];
        assert_eq!(windowed_tail(&windows, 99.0), Some((99.0, 990.0)));
        assert_eq!(windowed_tail(&[ramp(1000), ramp(15)], 99.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((relative_spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }
}
