//! Sizing a run's preallocations before any of them is made.
//!
//! A run's largest buffers are sized by numbers that come from outside:
//! the server count, the horizon, ring capacities. [`plan_memory`] adds
//! them up with checked arithmetic, so an input that would ask the
//! allocator for terabytes is a typed [`TooLarge`] instead of an abort.

use crate::config::ClusterConfig;
use std::mem::size_of;
use vmt_telemetry::{SpanRecord, TelemetryConfig, TraceRecord};

/// The most a run may preallocate: 16 GiB. The documented 1M-server,
/// 48 h run plans ~9.3 GB, nearly all of it its two heatmaps.
pub const MEMORY_CEILING: u64 = 16 << 30;

/// Bytes of per-server state a simulation holds for its whole life: the
/// farm's six `f64` lanes and three `u32` job-chain lanes. The cluster
/// index beside it is a fixed handful of counts.
const BYTES_PER_SERVER: u64 = 6 * 8 + 3 * 4;

/// Bytes each tick appends to the result series: cooling and electrical
/// load, mean and hot-group temperature, hot-group size, stored energy.
const BYTES_PER_TICK: u64 = 6 * 8;

/// A run whose preallocations would exceed [`MEMORY_CEILING`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooLarge {
    /// What would be allocated: one buffer, or `"run"` for a total of
    /// buffers that each fit.
    pub what: &'static str,
    /// Bytes it would take (`u64::MAX` when the count overflows).
    pub bytes: u64,
    /// The ceiling, [`MEMORY_CEILING`].
    pub limit: u64,
}

impl std::fmt::Display for TooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the {} would take {} bytes, more than the {}-byte memory ceiling",
            self.what, self.bytes, self.limit
        )
    }
}

impl std::error::Error for TooLarge {}

/// Bytes a run of `ticks` ticks on `config` preallocates, telemetry
/// included: per-server farm state, the per-tick result series, both
/// heatmaps, and the flight, series and trace rings `telemetry` arms.
/// It allocates nothing itself.
///
/// # Errors
///
/// [`TooLarge`] naming the first buffer above [`MEMORY_CEILING`], or
/// `"run"` when the buffers fit one by one but not together.
///
/// # Examples
///
/// ```
/// use vmt_dcsim::{plan_memory, ClusterConfig, MEMORY_CEILING};
///
/// let config = ClusterConfig::paper_default(1_000_000);
/// let bytes = plan_memory(&config, 48 * 60, None).unwrap();
/// assert!(bytes > 9_000_000_000 && bytes < MEMORY_CEILING);
/// let err = plan_memory(&ClusterConfig::paper_default(10), 600_000_000, None).unwrap_err();
/// assert_eq!(err.what, "result series");
/// ```
pub fn plan_memory(
    config: &ClusterConfig,
    ticks: u64,
    telemetry: Option<&TelemetryConfig>,
) -> Result<u64, TooLarge> {
    let servers = config.num_servers as u64;
    let times = |count: usize, size: usize| (count as u64).saturating_mul(size as u64);
    let rows = ticks.div_ceil(config.heatmap_stride.max(1) as u64);
    let row =
        times(config.num_servers, size_of::<f64>()).saturating_add(size_of::<Vec<f64>>() as u64);
    let flight = telemetry.and_then(|t| t.flight.as_ref());
    let trace = telemetry.and_then(|t| t.trace.as_ref());
    // Five cluster series, plus one per zone and the zone maximum; each
    // ring grows one sample a tick up to its capacity.
    let series = telemetry
        .and_then(|t| t.series_capacity)
        .map_or(0, |capacity| {
            let zones = config.topology.as_ref().map_or(0, |spec| {
                config.num_servers.div_ceil(spec.servers_per_zone().max(1)) + 1
            });
            let samples = ticks.min(capacity.max(2) as u64);
            (5 + zones as u64).saturating_mul(samples).saturating_mul(8)
        });
    // A fixed table, so planning allocates nothing.
    let buffers = [
        ("farm state", servers.saturating_mul(BYTES_PER_SERVER)),
        ("result series", ticks.saturating_mul(BYTES_PER_TICK)),
        ("heatmaps", rows.saturating_mul(row).saturating_mul(2)),
        (
            "flight ring",
            flight.map_or(0, |f| times(f.capacity.max(16), size_of::<TraceRecord>())),
        ),
        ("series rings", series),
        (
            "trace ring",
            trace.map_or(0, |t| times(t.capacity.max(16), size_of::<SpanRecord>())),
        ),
    ];
    let too_large = |what, bytes| TooLarge {
        what,
        bytes,
        limit: MEMORY_CEILING,
    };
    if let Some(&(what, bytes)) = buffers.iter().find(|&&(_, bytes)| bytes > MEMORY_CEILING) {
        return Err(too_large(what, bytes));
    }
    let total = buffers
        .iter()
        .fold(0u64, |total, &(_, bytes)| total.saturating_add(bytes));
    if total > MEMORY_CEILING {
        return Err(too_large("run", total));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmt_telemetry::{FlightConfig, TraceSpec};

    #[test]
    fn names_the_buffer_past_the_ceiling() {
        let small = ClusterConfig::paper_default(10);
        assert!(plan_memory(&small, 60, None).unwrap() < 1 << 20);
        let flight = |capacity| {
            TelemetryConfig::new().with_flight(FlightConfig {
                capacity,
                ..FlightConfig::default()
            })
        };
        assert!(plan_memory(&small, 60, Some(&flight(65_536))).is_ok());
        let err = plan_memory(&small, 6, Some(&flight(100_000_000_000))).unwrap_err();
        assert_eq!(err.what, "flight ring");
        assert_eq!(err.limit, MEMORY_CEILING);
        let err = plan_memory(&small, 6, Some(&flight(usize::MAX))).unwrap_err();
        assert_eq!(err.bytes, u64::MAX);
        let trace = TelemetryConfig::new().with_trace(TraceSpec {
            capacity: usize::MAX / 2,
            ..TraceSpec::default()
        });
        assert_eq!(
            plan_memory(&small, 6, Some(&trace)).unwrap_err().what,
            "trace ring"
        );
        // Series rings grow with the run, so a huge capacity costs the
        // ticks it records.
        let series = TelemetryConfig::new().with_series(usize::MAX);
        assert!(plan_memory(&small, 60, Some(&series)).unwrap() < 1 << 20);
        let huge = ClusterConfig::paper_default(100_000_000_000);
        assert_eq!(plan_memory(&huge, 1, None).unwrap_err().what, "farm state");
    }

    #[test]
    fn buffers_that_fit_alone_can_overflow_together() {
        // Each heatmap row of 10M servers is 80 MB: 107 rows of both
        // maps are 17.1 GB, under the ceiling alone, over it with the
        // farm's 0.6 GB.
        let config = ClusterConfig::paper_default(10_000_000);
        let ticks = 107 * config.heatmap_stride as u64;
        let err = plan_memory(&config, ticks, None).unwrap_err();
        assert_eq!(err.what, "run");
        assert!(err.bytes > MEMORY_CEILING);
    }
}
