//! Fixed-capacity, tick-indexed ring-buffer time series.
//!
//! A [`Series`] stores the most recent `capacity` samples of one
//! per-tick quantity. Samples are indexed by *simulation tick*, never by
//! wall clock, so an instrumented run records exactly the same values at
//! any thread count and stays bit-identical to an uninstrumented run —
//! the series only observes state the tick already computed.
//!
//! Pushing is a short mutex-guarded append (series are written once per
//! tick per quantity, not per job, so lock-free machinery would buy
//! nothing); reading clones the window out as a [`SeriesSnapshot`],
//! which offers windowed min/mean/max downsampling for dashboards and
//! scrape endpoints.

use std::sync::{Arc, Mutex};

/// A fixed-capacity ring of per-tick samples.
///
/// Cloning the handle is cheap (`Arc`); all clones share the same ring.
/// Capacity is clamped to at least 2 at construction.
///
/// # Examples
///
/// ```
/// use vmt_telemetry::Series;
///
/// let s = Series::with_capacity(3);
/// for tick in 1..=5 {
///     s.push(tick, tick as f64);
/// }
/// let snap = s.snapshot();
/// assert_eq!(snap.last_tick, 5);
/// assert_eq!(snap.values, vec![3.0, 4.0, 5.0]); // oldest two evicted
/// ```
#[derive(Debug)]
pub struct Series {
    inner: Mutex<SeriesInner>,
}

#[derive(Debug)]
struct SeriesInner {
    /// Ring storage; grows up to `capacity`, then wraps.
    values: Vec<f64>,
    /// Index of the *oldest* sample once the ring is full.
    head: usize,
    /// Maximum retained samples.
    capacity: usize,
    /// Tick of the newest sample (0 when empty).
    last_tick: u64,
}

impl Series {
    /// Creates an empty series retaining at most `capacity` samples
    /// (clamped to at least 2). Nothing is reserved up front: the ring
    /// grows as samples arrive, so a capacity beyond the run's length
    /// costs no memory.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Series {
            inner: Mutex::new(SeriesInner {
                values: Vec::new(),
                head: 0,
                capacity,
                last_tick: 0,
            }),
        }
    }

    /// Appends one sample for `tick`, evicting the oldest sample when
    /// the ring is full. Ticks are expected to be monotonically
    /// increasing (the engine pushes once per tick); the newest tick is
    /// retained so readers can anchor the window on the time axis.
    pub fn push(&self, tick: u64, value: f64) {
        let mut inner = self.inner.lock().expect("series poisoned");
        let len = inner.values.len();
        if len < inner.capacity {
            if len == inner.values.capacity() {
                // Double, as `Vec` would, but never past the capacity.
                let grow = len.max(8).min(inner.capacity - len);
                inner.values.reserve_exact(grow);
            }
            inner.values.push(value);
        } else {
            let head = inner.head;
            inner.values[head] = value;
            inner.head = (head + 1) % inner.capacity;
        }
        inner.last_tick = tick;
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("series poisoned").values.len()
    }

    /// True when no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the window out, oldest sample first.
    pub fn snapshot(&self) -> SeriesSnapshot {
        let inner = self.inner.lock().expect("series poisoned");
        let mut values = Vec::with_capacity(inner.values.len());
        values.extend_from_slice(&inner.values[inner.head..]);
        values.extend_from_slice(&inner.values[..inner.head]);
        SeriesSnapshot {
            last_tick: inner.last_tick,
            capacity: inner.capacity,
            values,
        }
    }
}

/// A point-in-time copy of a [`Series`] window, oldest sample first.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SeriesSnapshot {
    /// Tick of the newest sample (0 when the series is empty). Sample
    /// `values[i]` belongs to tick `last_tick - (values.len() - 1 - i)`.
    pub last_tick: u64,
    /// Ring capacity the series was built with.
    pub capacity: usize,
    /// Retained samples, oldest first.
    pub values: Vec<f64>,
}

/// One downsampled window of a series: `count` consecutive samples
/// folded to their min / mean / max.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SeriesBucket {
    /// Tick of the first sample in the window.
    pub start_tick: u64,
    /// Tick of the last sample in the window.
    pub end_tick: u64,
    /// Samples folded into this bucket.
    pub count: usize,
    /// Smallest sample in the window.
    pub min: f64,
    /// Arithmetic mean of the window.
    pub mean: f64,
    /// Largest sample in the window.
    pub max: f64,
}

impl SeriesSnapshot {
    /// Tick of the oldest retained sample.
    pub fn first_tick(&self) -> u64 {
        self.last_tick
            .saturating_sub(self.values.len().saturating_sub(1) as u64)
    }

    /// Newest sample, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Folds the window into buckets of `window` consecutive samples
    /// (min / mean / max each), oldest bucket first. Buckets are aligned
    /// from the oldest sample; the final bucket may be short. `window`
    /// is clamped to at least 1. Returns an empty vector for an empty
    /// series.
    pub fn downsample(&self, window: usize) -> Vec<SeriesBucket> {
        let window = window.max(1);
        let first = self.first_tick();
        self.values
            .chunks(window)
            .enumerate()
            .map(|(i, chunk)| {
                let start = first + (i * window) as u64;
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                let mut sum = 0.0;
                for &v in chunk {
                    min = min.min(v);
                    max = max.max(v);
                    sum += v;
                }
                SeriesBucket {
                    start_tick: start,
                    end_tick: start + (chunk.len() - 1) as u64,
                    count: chunk.len(),
                    min,
                    mean: sum / chunk.len() as f64,
                    max,
                }
            })
            .collect()
    }

    /// Downsamples so the result has at most `buckets` entries — the
    /// shape a fixed-width sparkline wants. Returns one bucket per
    /// sample when the window already fits.
    pub fn downsample_to(&self, buckets: usize) -> Vec<SeriesBucket> {
        let buckets = buckets.max(1);
        let window = self.values.len().div_ceil(buckets);
        self.downsample(window)
    }
}

/// Shared handle to a registered series (see
/// [`MetricsRegistry::series`](crate::MetricsRegistry::series)).
pub type SharedSeries = Arc<Series>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_oldest_first() {
        let s = Series::with_capacity(4);
        assert!(s.is_empty());
        for tick in 1..=6 {
            s.push(tick, tick as f64 * 10.0);
        }
        let snap = s.snapshot();
        assert_eq!(snap.values, vec![30.0, 40.0, 50.0, 60.0]);
        assert_eq!(snap.last_tick, 6);
        assert_eq!(snap.first_tick(), 3);
        assert_eq!(snap.last_value(), Some(60.0));
    }

    #[test]
    fn ring_grows_on_push_never_past_capacity() {
        let huge = Series::with_capacity(100_000_000_000);
        huge.push(1, 1.0);
        assert!(huge.inner.lock().unwrap().values.capacity() < 100);
        let s = Series::with_capacity(20);
        for tick in 1..=50 {
            s.push(tick, tick as f64);
            assert!(s.inner.lock().unwrap().values.capacity() <= 20);
        }
        let want: Vec<f64> = (31..=50).map(|t| t as f64).collect();
        assert_eq!(s.snapshot().values, want);
    }

    #[test]
    fn capacity_clamped_to_two() {
        let s = Series::with_capacity(0);
        s.push(1, 1.0);
        s.push(2, 2.0);
        s.push(3, 3.0);
        assert_eq!(s.snapshot().values, vec![2.0, 3.0]);
    }

    #[test]
    fn downsample_folds_min_mean_max() {
        let s = Series::with_capacity(8);
        for (i, v) in [1.0, 3.0, 2.0, 8.0, 4.0].iter().enumerate() {
            s.push(i as u64 + 1, *v);
        }
        let buckets = s.snapshot().downsample(2);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].start_tick, 1);
        assert_eq!(buckets[0].end_tick, 2);
        assert_eq!((buckets[0].min, buckets[0].max), (1.0, 3.0));
        assert!((buckets[0].mean - 2.0).abs() < 1e-12);
        assert_eq!(buckets[1].count, 2);
        assert_eq!((buckets[1].min, buckets[1].max), (2.0, 8.0));
        // Short tail bucket.
        assert_eq!(buckets[2].count, 1);
        assert_eq!(buckets[2].start_tick, 5);
        assert_eq!(
            (buckets[2].min, buckets[2].mean, buckets[2].max),
            (4.0, 4.0, 4.0)
        );
    }

    #[test]
    fn downsample_to_bounds_bucket_count() {
        let s = Series::with_capacity(100);
        for tick in 0..100u64 {
            s.push(tick + 1, tick as f64);
        }
        let snap = s.snapshot();
        assert_eq!(snap.downsample_to(10).len(), 10);
        assert!(snap.downsample_to(7).len() <= 7);
        assert_eq!(snap.downsample_to(1000).len(), 100);
        assert!(snap.downsample(1_000_000).len() == 1);
    }

    #[test]
    fn empty_series_downsamples_to_nothing() {
        let s = Series::with_capacity(4);
        let snap = s.snapshot();
        assert!(snap.downsample(5).is_empty());
        assert_eq!(snap.last_value(), None);
        assert_eq!(snap.first_tick(), 0);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let s = Series::with_capacity(3);
        for tick in 1..=5 {
            s.push(tick, tick as f64 / 2.0);
        }
        let snap = s.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: SeriesSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
