//! Order statistics for timings: the median and the tail rule.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail timing: the highest nearest-rank percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 * (n - TAIL_BEYOND) / n`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples taken.
    pub samples: usize,
    /// Samples beyond the percentile (always [`TAIL_BEYOND`]).
    pub beyond: usize,
}

/// The tail of `samples`, or `None` when there are too few samples for
/// any percentile to have [`TAIL_BEYOND`] samples beyond it.
///
/// With nearest ranks, percentile `p` sits at rank `ceil(p n / 100)` and
/// has `n - rank` samples beyond it, so the highest percentile with at
/// least `TAIL_BEYOND` beyond is the one at rank `n - TAIL_BEYOND`.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_the_count() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let tail = tail(&samples).expect("100 samples have a tail");
        assert_eq!(tail.percentile, 90.0);
        assert_eq!(tail.value, 90.0);
        assert_eq!(tail.samples, 100);
        assert_eq!(tail.beyond, 10);
        let beyond = samples.iter().filter(|&&s| s > tail.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let tail = tail(&eleven).expect("11 samples have a tail");
        assert_eq!(tail.value, 0.0);
        assert_eq!(tail.beyond, 10);
        assert!((tail.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_beyond() {
        // 60 samples: rank 50 is p83.3; rank 51 would leave only 9 beyond.
        let samples: Vec<f64> = (0..60).map(f64::from).collect();
        let tail = tail(&samples).expect("60 samples have a tail");
        assert_eq!(tail.value, 49.0);
        assert!((tail.percentile - 500.0 / 6.0).abs() < 1e-12);
    }
}
