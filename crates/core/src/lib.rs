//! Virtual Melting Temperature (VMT): thermal-aware and wax-aware job
//! placement for PCM-enabled datacenters.
//!
//! This crate implements the contribution of *"Virtual Melting
//! Temperature: Managing Server Load to Minimize Cooling Overhead with
//! Phase Change Materials"* (Skach et al., ISCA 2018). A datacenter whose
//! servers carry paraffin wax can only benefit from Thermal Time Shifting
//! if server temperatures cross the wax's physical melting temperature
//! (PMT); many workload mixes never get there. VMT deliberately
//! *unbalances* placement — concentrating thermally hot jobs on a subset
//! of servers (the **hot group**) — so that subset exceeds the PMT and
//! melts wax even though the cluster average cannot, emulating a wax with
//! a lower, *virtual* melting temperature.
//!
//! Four [`Scheduler`] policies are provided:
//!
//! * [`RoundRobin`] — the baseline used by prior TTS work.
//! * [`CoolestFirst`] — a thermal-aware load *balancer* (tight temperature
//!   distribution, still no melting).
//! * [`VmtTa`] — VMT with thermal-aware placement: static hot/cold groups
//!   sized by the [`GroupingValue`] (Equation 1), hot jobs to the hot
//!   group.
//! * [`VmtWa`] — VMT with wax-aware placement: additionally watches each
//!   server's reported melt state and grows the hot group when wax
//!   saturates, keeping melted servers warm while steering new heat to
//!   unmelted wax.
//!
//! # Examples
//!
//! Reproduce the paper's headline configuration on a small cluster:
//!
//! ```
//! use vmt_core::{GroupingValue, VmtConfig, VmtTa};
//! use vmt_dcsim::{ClusterConfig, Simulation};
//! use vmt_workload::{DiurnalTrace, TraceConfig};
//!
//! let cluster = ClusterConfig::paper_default(20);
//! let vmt = VmtConfig::new(GroupingValue::new(22.0), &cluster);
//! let sim = Simulation::new(
//!     cluster,
//!     DiurnalTrace::new(TraceConfig::paper_default()),
//!     Box::new(VmtTa::new(vmt)),
//! );
//! let result = sim.run();
//! assert!(result.max_melt_fraction() > 0.0);
//! ```
//!
//! [`Scheduler`]: vmt_dcsim::Scheduler

mod adaptive;
mod balance;
mod coolest_first;
mod grouping;
mod policy;
mod reference;
mod round_robin;
mod snapshot;
mod streams;
mod vmt_preserve;
mod vmt_ta;
mod vmt_wa;

pub use adaptive::AdaptiveGv;
pub use balance::ThermalBalancer;
pub use coolest_first::CoolestFirst;
pub use grouping::{GroupingValue, VmtConfig};
pub use policy::PolicyKind;
pub use reference::{NaiveBalancer, NaiveCoolestFirst, NaiveVmtTa, NaiveVmtWa};
pub use round_robin::RoundRobin;
pub use snapshot::{restore_simulation, scheduler_from_saved};
pub use vmt_preserve::VmtPreserve;
pub use vmt_ta::VmtTa;
pub use vmt_wa::{VmtWa, WaTuning};
