//! Order statistics over timing samples.

/// Sorted copy of `values` (total order, so NaN cannot reorder it).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for even counts, 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match a
/// reader who recomputes them in Python. One sample gives `(x, x)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Signed: clamping `j` can push it past `i * m / 4`, and
                // Python then extrapolates with a negative weight.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// (Q3 − Q1) / median: the run-to-run spread as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. For 1000 samples, p99 leaves exactly 10
/// samples beyond it.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_1000_samples_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = nearest_rank(&samples, 99.0);
        assert_eq!(p99, 990.0);
        assert_eq!(samples.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(nearest_rank(&samples, 50.0), 500.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_and_quartiles_with_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0]), 3.0);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2, 3, 4, 5, 6], n=4) == [1.75, 3.5, 5.25]
        assert_eq!(quartiles(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]), (1.75, 5.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(spread(&[4.0, 2.0, 1.0, 3.0]), 2.5 / 2.5);
    }

    #[test]
    fn odd_counts_and_degenerate_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
