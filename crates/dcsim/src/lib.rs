//! Event-driven datacenter cluster simulator with per-server wax and
//! thermal state.
//!
//! This crate is the reproduction's equivalent of the DCsim simulator the
//! VMT paper evaluates on (its reference \[14\]): an event-driven cluster
//! simulator whose per-server wax model parameters were distilled from a
//! CFD study. A simulation couples four substrates:
//!
//! * job lifecycle — arrivals planned from a [`DiurnalTrace`]
//!   (`vmt-workload`), departures from a time-ordered event queue;
//! * power — the linear per-core model (`vmt-power`);
//! * thermals — per-server air-at-wax temperature (`vmt-thermal`);
//! * wax — per-server [`WaxPack`] + [`HeatExchanger`] plus the
//!   sensor-driven estimator reported to the scheduler (`vmt-pcm`).
//!
//! Placement policy is pluggable through the [`Scheduler`] trait; the
//! `vmt-core` crate provides the paper's four policies (round robin,
//! coolest first, VMT-TA, VMT-WA).
//!
//! The main loop ticks once per simulated minute — the cadence at which
//! the paper's servers update and report their wax state — processing
//! departures, planning arrivals, asking the scheduler to place each job,
//! then stepping every server's physics and recording cluster metrics.
//!
//! # Examples
//!
//! Run two simulated days of a small wax-equipped cluster under a trivial
//! first-fit scheduler:
//!
//! ```
//! use vmt_dcsim::{ClusterConfig, FirstFit, Simulation};
//! use vmt_workload::{DiurnalTrace, TraceConfig};
//!
//! let config = ClusterConfig::paper_default(10);
//! let trace = DiurnalTrace::new(TraceConfig::paper_default());
//! let result = Simulation::new(config, trace, Box::new(FirstFit::new())).run();
//! assert_eq!(result.cooling.len(), 48 * 60);
//! assert!(result.dropped_jobs == 0);
//! ```
//!
//! [`DiurnalTrace`]: vmt_workload::DiurnalTrace
//! [`WaxPack`]: vmt_pcm::WaxPack
//! [`HeatExchanger`]: vmt_pcm::HeatExchanger

mod config;
mod engine;
mod farm;
mod index;
mod metrics;
mod pool;
mod radix;
mod replay;
mod scheduler;
mod server;
mod snapshot;
mod telemetry;
mod topology;

pub use config::{ClusterConfig, WaxSpec};
pub use engine::{HorizonTooLong, Simulation};
pub use farm::{
    default_tick_threads, prefetch, tick_fan_out, FarmState, FarmTickTotals, GroupView, ServerFarm,
    SweepTiming, SHARD,
};
pub use index::ClusterIndex;
pub use metrics::{Heatmap, SimulationResult};
pub use pool::TickPool;
pub use replay::{
    digest_final_state, digest_index, RecordingScheduler, ReplayHandle, ReplayScheduler,
    TraceHandle,
};
pub use scheduler::{DecisionCandidate, DecisionDetail, FirstFit, PlacementProbe, Scheduler};
pub use server::{Server, ServerId};
pub use snapshot::{
    Departures, JobIds, SavedState, Snapshot, SnapshotError, SnapshotState, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use topology::{
    PlacementMap, RackId, RackLayout, RackPowerStats, ZoneCooling, ZoneLayout, ZoneSpec,
};
/// Re-exported so downstream crates can attach telemetry without a
/// direct `vmt-telemetry` dependency.
pub use vmt_telemetry::{FlightConfig, SummaryHandle, TelemetryConfig, TraceSpec, TracerHandle};
