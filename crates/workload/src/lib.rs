//! Datacenter workload catalog, diurnal trace generation, and colocation
//! QoS models.
//!
//! The VMT paper evaluates a Google-style suite of five user-facing
//! workloads (its Table I) driven by a two-day production load trace. This
//! crate is that substrate:
//!
//! * [`WorkloadKind`] — the five workloads with their measured per-CPU
//!   power draws and VMT hot/cold classes.
//! * [`ThermalClassifier`] — how those classes are *derived*: a workload is
//!   "hot" when a server filled with only that workload would melt wax at
//!   peak.
//! * [`WorkloadMix`] — how cluster load is split across the workloads
//!   (the paper's ≈60/40 hot/cold split).
//! * [`DiurnalTrace`] — a parametric two-day diurnal load curve standing in
//!   for the paper's Google trace (see `DESIGN.md` §4 for the
//!   substitution rationale): double peak (hours ≈20 and ≈44), deep
//!   overnight troughs, 95% peak utilization, deterministic seeded noise.
//! * [`LoadTrace`] / [`RecordedTrace`] — the trace-source abstraction and
//!   a CSV-backed replayed trace for deployments with measured data.
//! * [`ArrivalPlanner`] / [`Job`] — converts a target per-workload core
//!   occupancy into concrete job arrivals with jittered durations.
//! * [`qos`] — the colocation latency model behind the paper's Figure 6
//!   (can search and caching share a box at all?).
//!
//! # Examples
//!
//! ```
//! use vmt_workload::{DiurnalTrace, TraceConfig, WorkloadKind, WorkloadMix};
//! use vmt_units::Hours;
//!
//! let trace = DiurnalTrace::new(TraceConfig::paper_default());
//! let peak = trace.total_utilization(Hours::new(20.0));
//! let trough = trace.total_utilization(Hours::new(5.0));
//! assert!(peak.get() > 0.85);
//! assert!(trough.get() < 0.45);
//!
//! // The default mix is ≈60% hot jobs by core-load.
//! let mix = WorkloadMix::paper_default();
//! assert!((mix.hot_fraction() - 0.6).abs() < 1e-9);
//! ```

mod arrivals;
mod catalog;
mod classify;
mod job;
mod mix;
pub mod qos;
mod recorded;
mod source;
mod trace;

pub use arrivals::{ArrivalPlanner, DurationModel};
pub use catalog::{QosClass, VmtClass, WorkloadKind};
pub use classify::ThermalClassifier;
pub use job::{Job, JobId};
pub use mix::{MixError, WorkloadMix};
pub use recorded::{ParseTraceError, RecordedTrace};
pub use source::{LoadTrace, TraceDescriptor};
pub use trace::{DiurnalTrace, SecondPeak, TraceConfig};
