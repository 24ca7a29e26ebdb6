//! VMT-Preserve: *raising* the virtual melting temperature.
//!
//! The paper notes (§III) that VMT "can also raise the melting
//! temperature by locating hot jobs in a subset of servers with already
//! melted wax, preserving wax in anticipation of a very hot peak",
//! though its evaluation focuses on lowering. This policy implements the
//! raising direction for the scenario that motivates it: a secondary
//! load bump (say a late-morning batch window) arrives *before* the
//! day's real peak, and melting wax on the bump would leave the battery
//! half-empty when it matters.
//!
//! Until the operator-supplied `engage_at` hour, the policy preserves:
//!
//! * hot jobs go first to servers whose wax is **already melted**
//!   (sacrificed — heating them further wastes nothing);
//! * any remainder is spread across the *whole* cluster like a
//!   coolest-first balancer, which keeps every unmelted server below the
//!   melt line — the wax behaves as if its melting point were higher.
//!
//! From `engage_at` on, the policy is exactly [`VmtTa`].
//!
//! Preserving pays off only when the anticipated peak is the tallest
//! load of the day: the shoulder the policy declines to shave runs at
//! its unshaved cooling level, so a shoulder taller than the shaved
//! evening peak would itself become the binding peak. Operators should
//! engage preservation only against forecasts that clear that bar.

use crate::balance::ThermalBalancer;
use crate::grouping::VmtConfig;
use crate::vmt_ta::VmtTaState;
use crate::VmtTa;
use vmt_dcsim::{SavedState, Scheduler, ServerFarm, ServerId, SnapshotError, SnapshotState};
use vmt_units::{Hours, Seconds};
use vmt_workload::{Job, VmtClass};

/// Reported melt fraction above which a server counts as sacrificed
/// (already molten; more heat there preserves wax elsewhere).
const SACRIFICED_MELT: f64 = 0.5;

/// A time-gated VMT that preserves wax until an anticipated peak.
///
/// # Examples
///
/// ```
/// use vmt_core::{GroupingValue, VmtConfig, VmtPreserve};
/// use vmt_dcsim::{ClusterConfig, Scheduler};
/// use vmt_units::Hours;
///
/// let cluster = ClusterConfig::paper_default(100);
/// let policy = VmtPreserve::new(
///     VmtConfig::new(GroupingValue::new(22.0), &cluster),
///     Hours::new(14.0),
/// );
/// assert_eq!(policy.name(), "vmt-preserve");
/// ```
#[derive(Debug, Clone)]
pub struct VmtPreserve {
    inner: VmtTa,
    engage_at: Hours,
    /// Balancer over sacrificed (already-melted) servers.
    sacrificed: ThermalBalancer,
    /// Balancer over the whole cluster for the preserving spread.
    spread: ThermalBalancer,
    preserving: bool,
    initialized: bool,
}

impl VmtPreserve {
    /// Creates the policy; it preserves until `engage_at` (hour-of-day,
    /// applied daily) and runs VMT-TA afterwards.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ engage_at < 24`.
    pub fn new(config: VmtConfig, engage_at: Hours) -> Self {
        assert!(
            (0.0..24.0).contains(&engage_at.get()),
            "engage hour must be within a day, got {engage_at}"
        );
        Self {
            inner: VmtTa::new(config),
            engage_at,
            sacrificed: ThermalBalancer::new(),
            spread: ThermalBalancer::new(),
            preserving: true,
            initialized: false,
        }
    }

    /// Whether the policy is currently in its preserving phase.
    pub fn is_preserving(&self) -> bool {
        self.preserving
    }

    fn refresh(&mut self, farm: &ServerFarm, now: Seconds) {
        let hour_of_day = (now.get() / 3600.0).rem_euclid(24.0);
        self.preserving = hour_of_day < self.engage_at.get();
        if self.preserving {
            let sacrificed: Vec<usize> = (0..farm.len())
                .filter(|&i| farm.reported_melt_fraction(i).get() >= SACRIFICED_MELT)
                .collect();
            self.sacrificed.rebuild(sacrificed, farm);
            self.spread.rebuild(0..farm.len(), farm);
        }
        self.initialized = true;
    }
}

/// Cross-tick state of [`VmtPreserve`]: the wrapped [`VmtTa`]'s state
/// and the engage hour. `preserving` is recomputed from the hour of day
/// at every refresh, and the balancers are rebuilt from the farm, so
/// neither travels.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct VmtPreserveState {
    inner: VmtTaState,
    engage_at: Hours,
}

impl SnapshotState for VmtPreserve {
    fn state_kind(&self) -> Option<&'static str> {
        Some("vmt-preserve")
    }

    fn save_state(&self) -> Result<SavedState, SnapshotError> {
        Ok(SavedState::new(
            "vmt-preserve",
            &VmtPreserveState {
                inner: self.inner.to_state(),
                engage_at: self.engage_at,
            },
        ))
    }

    fn restore_state(&mut self, saved: &SavedState) -> Result<(), SnapshotError> {
        let state: VmtPreserveState = saved.decode("vmt-preserve")?;
        // `VmtPreserve::new` panics on a bad engage hour; a snapshot is
        // external input, so report corruption instead.
        if !(0.0..24.0).contains(&state.engage_at.get()) {
            return Err(SnapshotError::Corrupt(format!(
                "vmt-preserve engage hour {} outside a day",
                state.engage_at
            )));
        }
        *self = Self {
            inner: VmtTa::from_state(&state.inner)?,
            engage_at: state.engage_at,
            sacrificed: ThermalBalancer::new(),
            spread: ThermalBalancer::new(),
            preserving: true,
            initialized: false,
        };
        Ok(())
    }
}

impl Scheduler for VmtPreserve {
    fn name(&self) -> &str {
        "vmt-preserve"
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }

    fn on_tick(&mut self, farm: &ServerFarm, now: Seconds) {
        self.refresh(farm, now);
        self.inner.on_tick(farm, now);
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        if !self.initialized {
            self.refresh(farm, Seconds::ZERO);
        }
        if !self.preserving {
            return self.inner.place(job, farm);
        }
        let power = job.core_power().get();
        match job.kind().vmt_class() {
            // Hot heat goes to already-molten servers first, then spreads
            // so thin that nothing new melts.
            VmtClass::Hot => self
                .sacrificed
                .place(farm, power)
                .or_else(|| self.spread.place(farm, power))
                .map(ServerId),
            VmtClass::Cold => self.spread.place(farm, power).map(ServerId),
        }
    }

    fn hot_group_size(&self) -> Option<usize> {
        self.inner.hot_group_size()
    }

    fn counters(&self) -> Option<vmt_telemetry::SchedulerCounters> {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupingValue, PolicyKind};
    use vmt_dcsim::{ClusterConfig, Simulation};
    use vmt_workload::{DiurnalTrace, SecondPeak, TraceConfig};

    /// The motivating trace: a late-morning bump before the evening
    /// peak.
    fn bumped_trace() -> DiurnalTrace {
        let mut config = TraceConfig::paper_default();
        // A hot afternoon shoulder running straight into the evening
        // peak: plain VMT melts through the shoulder and exhausts its
        // wax before the plateau ends.
        config.second_peak = Some(SecondPeak {
            hour: 14.5,
            utilization: 0.95,
            width_hours: 3.5,
        });
        DiurnalTrace::new(config)
    }

    fn run(policy: Box<dyn Scheduler>, servers: usize) -> vmt_dcsim::SimulationResult {
        Simulation::new(
            ClusterConfig::paper_default(servers),
            bumped_trace(),
            policy,
        )
        .run()
    }

    #[test]
    fn preserving_avoids_the_morning_melt() {
        let cluster = ClusterConfig::paper_default(50);
        let config = VmtConfig::new(GroupingValue::new(22.0), &cluster);
        let preserve = run(Box::new(VmtPreserve::new(config, Hours::new(16.0))), 50);
        let plain = run(PolicyKind::VmtTa { gv: 22.0 }.build(&cluster), 50);
        // Mid-bump, plain VMT has melted wax; preserve has not.
        let noon = (15 * 60 + 30) / 5; // heatmap rows every 5 ticks
        let melted = |r: &vmt_dcsim::SimulationResult| -> f64 {
            r.melt_heatmap.rows[noon].iter().sum::<f64>()
        };
        assert!(
            melted(&plain) > 1.0,
            "plain VMT should melt on the bump: {}",
            melted(&plain)
        );
        assert!(
            melted(&preserve) < melted(&plain) * 0.2,
            "preserve melted {} vs plain {}",
            melted(&preserve),
            melted(&plain)
        );
    }

    /// The preserved battery outlasts plain VMT's through the evening
    /// plateau: at its final hours plain VMT has exhausted the wax it
    /// spent on the shoulder and its cooling load rebounds, while
    /// preserve holds the cap.
    #[test]
    fn preserving_outlasts_the_evening_plateau() {
        let cluster = ClusterConfig::paper_default(50);
        let plain = run(PolicyKind::VmtTa { gv: 22.0 }.build(&cluster), 50);
        let config = VmtConfig::new(GroupingValue::new(22.0), &cluster);
        let preserve = run(Box::new(VmtPreserve::new(config, Hours::new(16.0))), 50);
        // Mean cooling over the plateau's final stretch (20.5–21.5 h).
        let late = |r: &vmt_dcsim::SimulationResult| -> f64 {
            let from = (20.5 * 60.0) as usize;
            let to = (21.5 * 60.0) as usize;
            r.cooling.samples()[from..to]
                .iter()
                .map(|w| w.get())
                .sum::<f64>()
                / (to - from) as f64
        };
        let plain_late = late(&plain);
        let preserve_late = late(&preserve);
        assert!(
            preserve_late < plain_late * 0.96,
            "preserve late-plateau {preserve_late:.0} W should undercut plain {plain_late:.0} W"
        );
        // And preserve enters the evening with a fuller battery.
        let evening = (17 * 60) / 5;
        let melted_at = |r: &vmt_dcsim::SimulationResult| -> f64 {
            r.melt_heatmap.rows[evening].iter().sum::<f64>()
        };
        assert!(melted_at(&preserve) < melted_at(&plain) * 0.3);
    }

    #[test]
    fn engages_as_plain_vmt_after_the_gate() {
        // Without a morning bump, preserve-then-engage matches VMT-TA's
        // peak result (both melt only at the real peak).
        let cluster = ClusterConfig::paper_default(50);
        let trace = DiurnalTrace::new(TraceConfig::paper_default());
        let config = VmtConfig::new(GroupingValue::new(22.0), &cluster);
        let preserve = Simulation::new(
            cluster.clone(),
            trace.clone(),
            Box::new(VmtPreserve::new(config, Hours::new(14.0))),
        )
        .run();
        let plain = Simulation::new(
            cluster.clone(),
            trace,
            PolicyKind::VmtTa { gv: 22.0 }.build(&cluster),
        )
        .run();
        let d = (preserve.peak_cooling().get() - plain.peak_cooling().get()).abs();
        assert!(
            d < 0.02 * plain.peak_cooling().get(),
            "peaks should match: Δ={d:.0} W"
        );
    }

    #[test]
    #[should_panic(expected = "engage hour")]
    fn engage_hour_validated() {
        let cluster = ClusterConfig::paper_default(10);
        VmtPreserve::new(
            VmtConfig::new(GroupingValue::new(22.0), &cluster),
            Hours::new(24.0),
        );
    }
}
