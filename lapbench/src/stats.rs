//! Order statistics shared by the load generator, the traced replay and
//! `lapbench compare`.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be ascending; empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Run-to-run spread as the benchmark contract defines it: the distance
/// between the first and third quartile as a share of the median, with the
/// quartiles computed like Python's `statistics.quantiles(values, n=4)`
/// (exclusive method). Fewer than two values, or a zero median, read 0.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let mid = percentile(&v, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    ((exclusive_quantile(&v, 0.75) - exclusive_quantile(&v, 0.25)) / mid).abs()
}

/// `statistics.quantiles(..., method="exclusive")` for one cut point `q`.
fn exclusive_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = q * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
}

/// The period of every workload's stream: requests `i` and `i + BLOCK` are
/// of the same kind (same pair, same fault seed, same template family).
pub const BLOCK: u64 = 16;

/// A typical per-request value over `(stream index, value)` samples: the
/// median at each position of the stream period, averaged over the
/// positions. The mean across positions keeps the workload's mix, so that
/// layers add up to the request; the median within a position keeps one
/// descheduled request from moving a layer.
pub fn typical(samples: impl Iterator<Item = (u64, f64)>) -> f64 {
    let mut by_position: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (i, value) in samples {
        by_position.entry(i % BLOCK).or_default().push(value);
    }
    let medians: Vec<f64> = by_position.values().map(|v| median(v)).collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn typical_is_the_mean_over_positions_of_the_median_within_each() {
        // Position 0 reads 10 with one outlier, position 1 reads 2.
        let samples = [
            (0, 10.0),
            (1, 2.0),
            (16, 10.0),
            (17, 2.0),
            (32, 500.0),
            (33, 2.0),
        ];
        assert_eq!(typical(samples.into_iter()), 6.0);
        assert_eq!(typical(std::iter::empty()), 0.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert!((spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
