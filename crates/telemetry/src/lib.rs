//! Zero-cost-when-disabled observability for the VMT simulator stack.
//!
//! The simulator's hot loop places millions of jobs per simulated day;
//! an observability layer must therefore cost *nothing* when it is off
//! and stay off the allocator and out of locks when it is on. This crate
//! provides four pieces, each usable on its own:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms. Handles are `Arc`-backed atomics: recording is a single
//!   relaxed atomic op (lock-free), registration (cold path) takes a
//!   mutex once. The registry is cloneable; every clone shares the same
//!   metrics, so a bench harness can keep a handle and read what the
//!   engine recorded after a run.
//! * [`PhaseProfiler`] — wall-clock attribution of each simulation tick
//!   to its phases (departures, scheduler refresh, placement, physics
//!   sweep, shard fold, metric recording). Accumulates plain `u64`
//!   nanoseconds owned by the engine thread — no atomics, no allocation —
//!   and folds into a serializable [`PhaseBreakdown`].
//! * [`Event`] + [`EventSink`] — a structured JSONL event stream (run
//!   config, periodic snapshots, melt and hot-group transitions, final
//!   summary) behind a buffered, shareable writer.
//! * [`ProgressMeter`] + [`render_report`] — live progress on stderr
//!   (ticks/s, ETA, jobs in flight, % wax melted) and a human-readable
//!   end-of-run report.
//!
//! The engine holds the whole stack as an `Option<TelemetryConfig>`:
//! when `None` (the default), not a single `Instant::now()` is taken and
//! the simulation loop is byte-for-byte the uninstrumented one, which is
//! what keeps the differential tests bit-identical and the disabled-path
//! overhead at zero.
//!
//! Three further pieces serve incident forensics:
//!
//! * [`FlightRecorder`] — a fixed-capacity ring of compact binary
//!   [`TraceRecord`]s (placements, departures, melt crossings, resizes,
//!   spills) written on the engine thread with no allocation after
//!   construction, dumped to JSONL on demand or when a watchdog fires.
//! * [`WatchdogSet`] — declarative anomaly detectors (thermal red-line,
//!   wax stall, QoS spill storm, hot-group thrash) evaluated from state
//!   the tick already computes; each firing emits an [`AnomalyEvent`].
//! * [`replay`] — the placement-trace schema and state digests behind
//!   the record/replay harness: a recorded decision stream re-drives the
//!   simulation bit-identically, and per-tick digests bisect divergence.
//!
//! And four pieces form the live observability layer:
//!
//! * [`Series`] — fixed-capacity, tick-indexed ring-buffer time series
//!   with windowed min/mean/max downsampling, registered through the
//!   [`MetricsRegistry`] like any other metric. Tick-indexed, never
//!   wall-clock, so enabled runs stay bit-identical to disabled runs.
//! * [`render_openmetrics`] / [`parse_openmetrics`] — the OpenMetrics
//!   text-exposition writer over a [`MetricsSnapshot`] and the strict
//!   parser that tests and `check-metrics` feed scraped text back
//!   through.
//! * [`MetricsPublisher`] + [`MetricsServer`] — a dependency-free
//!   `GET /metrics` scrape endpoint: the engine swaps freshly rendered
//!   expositions into the publisher; a `std::net::TcpListener` thread
//!   serves them without ever touching the tick loop.
//! * [`Dashboard`] — a live ANSI terminal dashboard (sparklines over
//!   series windows) that degrades to plain progress lines on dumb
//!   terminals.
//!
//! Finally, deterministic span tracing:
//!
//! * [`Tracer`] — a ring of [`SpanRecord`]s (per-tick and per-phase
//!   spans, per-zone CRAC spans, sampled placement/decision instants,
//!   anomaly instants) identified by `(tick, seq)` — never wall clock
//!   — so an enabled trace is bit-identical across thread counts and
//!   under record/replay, modulo the wall-clock duration fields.
//! * [`write_trace`] / [`render_trace`] / [`parse_trace`] /
//!   [`validate_trace`] — the streaming Chrome trace-event JSON
//!   exporter (Perfetto / `chrome://tracing` loadable) and the strict
//!   single-pass reader and validator behind `check-trace` and
//!   `explain`.

mod config;
mod dashboard;
mod events;
mod histogram;
mod openmetrics;
mod phases;
mod progress;
mod recorder;
mod registry;
pub mod replay;
mod report;
mod series;
mod server;
mod sink;
mod traceevent;
mod tracer;
mod watchdog;

pub use config::{FlightConfig, SummaryHandle, TelemetryConfig};
pub use dashboard::{
    clamp_spark_width, render_dashboard, render_dashboard_width, sparkline, Dashboard,
    DashboardMode, DashboardRow, SPARK_WIDTH,
};
pub use events::{
    Event, HotGroupEvent, HotGroupTransition, MeltEvent, MeltTransition, RunConfigEvent,
    SchedulerCounters, SnapshotEvent, SummaryEvent, SCHEMA_VERSION,
};
pub use histogram::{Histogram, HistogramSnapshot};
pub use openmetrics::{
    parse_openmetrics, render_openmetrics, Exposition, MetricFamily, MetricKind, Sample,
};
pub use phases::{PhaseBreakdown, PhaseProfiler, TickPhase};
pub use progress::{ProgressFrame, ProgressMeter};
pub use recorder::{
    validate_dump, DumpHeader, DumpSummary, FlightRecorder, TraceRecord, DUMP_SCHEMA_VERSION,
};
pub use registry::{Counter, Gauge, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use report::render_report;
pub use series::{Series, SeriesBucket, SeriesSnapshot, SharedSeries};
pub use server::{MetricsPublication, MetricsPublisher, MetricsServer, METRICS_CONTENT_TYPE};
pub use sink::{validate_stream, EventSink, SharedBuffer, StreamSummary};
pub use traceevent::{
    parse_trace, parse_trace_filtered, render_trace, validate_trace, write_trace, ChromeEvent,
    ChromeTrace, TraceError, TraceStats, LANE_ANOMALIES, LANE_PLACEMENT, LANE_TICK, LANE_ZONES,
};
pub use tracer::{
    SpanCandidate, SpanRecord, TraceBuffer, TraceSpec, Tracer, TracerHandle, DECISION_TOP_K,
    DEFAULT_TRACE_CAPACITY,
};
pub use watchdog::{AnomalyEvent, TickState, WatchdogKind, WatchdogSet, WatchdogSpec};
