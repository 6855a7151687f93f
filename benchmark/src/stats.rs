//! Order statistics: how every timed quantity is summarised.

/// A sample summarised the way every metric is reported: median,
/// quartiles and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN: both mean the harness lost a
    /// measurement, which must not be reported as a number.
    pub fn of(values: &[f64]) -> Stat {
        assert!(!values.is_empty(), "no samples to summarise");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
        let (q1, q3) = quartiles(&sorted);
        Stat {
            median: median(&sorted),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// A quantity known exactly (a count, or a single measurement).
    pub fn exact(value: f64) -> Stat {
        Stat {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

/// Median of an ascending sample: the middle value, or the mean of the
/// two middle values.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of an ascending sample, by the rule of
/// Python's `statistics.quantiles(values, n=4)` — the one the driver
/// judges spreads with, so the spreads printed here are the ones it sees.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "no samples to take a percentile of");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the reported percentiles that still has at least ten
/// samples beyond it in a sample of `n`; `None` when even the median has
/// fewer. Higher percentiles of so small a sample are one or two outliers,
/// not a distribution.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // In basis points, so "ten beyond" is an exact integer comparison.
    [9_999usize, 9_990, 9_900, 9_000, 5_000]
        .into_iter()
        .find(|bp| n * (10_000 - bp) >= 10 * 10_000)
        .map(|bp| bp as f64 / 10_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_selects_the_middle_and_averages_an_even_sample() {
        assert_eq!(Stat::of(&[5.0, 1.0, 3.0]).median, 3.0);
        assert_eq!(Stat::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Stat::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stat::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Stat::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (1.0, 4.0));
        // A single sample has no spread.
        let s = Stat::of(&[3.0]);
        assert_eq!((s.q1, s.q3, s.n), (3.0, 3.0, 1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[42], 0.5), 42);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(9_999), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(100_000), Some(0.9999));
    }
}
