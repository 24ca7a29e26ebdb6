//! Day-over-day grouping-value adaptation.
//!
//! The paper's §V-C observes that "in a scenario where the operators can
//! predict load accurately day to day, they can actually change the GV to
//! the optimal value each day". [`AdaptiveGv`] automates that operator:
//! it runs VMT-WA, watches how each day's peak went, and nudges the
//! grouping value for the next day:
//!
//! * the hot group **saturated and had to grow** → the group was too
//!   small and hot for the day's load → raise the GV;
//! * a **substantial share of the wax never melted** → the group was too
//!   large and cool → lower the GV;
//! * otherwise hold.
//!
//! Because a GV change re-partitions the cluster, the switch happens at
//! the dead of night (minimum utilization), when the wax is refrozen and
//! groups are thermally indistinguishable.

use crate::vmt_wa::VmtWaState;
use crate::{GroupingValue, VmtConfig, VmtWa};
use vmt_dcsim::{SavedState, Scheduler, ServerFarm, ServerId, SnapshotError, SnapshotState};
use vmt_units::Seconds;
use vmt_workload::Job;

/// GV adjustment applied per day, in GV units.
const GV_STEP: f64 = 1.0;
/// Peak-window mean melt below which the group counts as under-used.
/// Deliberately low: the controller corrects gross mis-tuning and holds
/// when roughly right — day-to-day load variation must not shake it off
/// the optimum.
const UNDERUSED_MELT: f64 = 0.5;
/// Consecutive days a signal must persist before the GV moves.
const SIGNAL_STREAK_DAYS: u32 = 2;
/// Peak-window mean melt above which the group counts as exhausted
/// early (the whole group's wax full while the peak is still on).
const EXHAUSTED_MELT: f64 = 0.93;
/// Cluster utilization above which the day's "peak window" is measured.
const PEAK_WINDOW_UTILIZATION: f64 = 0.82;
/// Hour of day at which the GV may be switched.
const SWITCH_HOUR: f64 = 5.0;

/// A self-tuning wrapper around [`VmtWa`].
///
/// # Examples
///
/// ```
/// use vmt_core::{AdaptiveGv, GroupingValue, VmtConfig};
/// use vmt_dcsim::{ClusterConfig, Scheduler};
///
/// let cluster = ClusterConfig::paper_default(100);
/// let policy = AdaptiveGv::new(
///     VmtConfig::new(GroupingValue::new(18.0), &cluster),
///     (14.0, 30.0),
/// );
/// assert_eq!(policy.name(), "adaptive-gv");
/// assert_eq!(policy.gv(), 18.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveGv {
    inner: VmtWa,
    config: VmtConfig,
    gv: f64,
    bounds: (f64, f64),
    /// Whether the peak window saw the group's wax exhausted early.
    saturated_today: bool,
    /// Highest peak-window mean reported melt observed today.
    peak_mean_melt: f64,
    /// Whether any peak-window sample was observed today.
    saw_peak_today: bool,
    /// Day index of the last switch decision.
    last_switch_day: i64,
    /// Consecutive days the current signal direction persisted
    /// (+ = exhausted, − = under-used).
    signal_streak: i32,
    /// History of `(day, gv)` decisions, for inspection.
    history: Vec<(i64, f64)>,
}

impl AdaptiveGv {
    /// Creates the policy starting from `config.gv`, clamping future
    /// adjustments to `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inverted or do not contain the starting
    /// GV.
    pub fn new(config: VmtConfig, bounds: (f64, f64)) -> Self {
        let gv = config.gv.get();
        assert!(
            bounds.0 < bounds.1 && (bounds.0..=bounds.1).contains(&gv),
            "bounds {bounds:?} must contain the starting GV {gv}"
        );
        Self {
            inner: VmtWa::new(config),
            config,
            gv,
            bounds,
            saturated_today: false,
            peak_mean_melt: 0.0,
            saw_peak_today: false,
            last_switch_day: -1,
            signal_streak: 0,
            history: vec![(0, gv)],
        }
    }

    /// The currently active grouping value.
    pub fn gv(&self) -> f64 {
        self.gv
    }

    /// The `(day, gv)` decision history.
    pub fn history(&self) -> &[(i64, f64)] {
        &self.history
    }

    /// Observes the cluster each tick and applies the daily adjustment.
    fn observe(&mut self, farm: &ServerFarm, now: Seconds) {
        let n = farm.len();
        let used: u32 = (0..n).map(|i| farm.used_cores(i)).sum();
        let total: u32 = (0..n).map(|_| farm.cores()).sum();
        let utilization = f64::from(used) / f64::from(total);

        if utilization >= PEAK_WINDOW_UTILIZATION {
            // Judge the *base* (Equation-1) group: organic growth adds
            // unmelted servers that would mask the exhaustion signal.
            let hot = self.config.hot_group_size(n).clamp(1, n);
            let mean_melt = (0..hot)
                .map(|i| farm.reported_melt_fraction(i).get())
                .sum::<f64>()
                / hot as f64;
            self.peak_mean_melt = self.peak_mean_melt.max(mean_melt);
            self.saw_peak_today = true;
            if mean_melt >= EXHAUSTED_MELT {
                // The whole group filled while the peak was still on.
                self.saturated_today = true;
            }
        }

        // Switch at the nightly low point, once per day, after at least
        // one observed peak.
        let hours = now.get() / 3600.0;
        let day = (hours / 24.0).floor() as i64;
        let hour_of_day = hours.rem_euclid(24.0);
        let in_switch_window = (SWITCH_HOUR..SWITCH_HOUR + 0.1).contains(&hour_of_day);
        if in_switch_window && day > self.last_switch_day && self.saw_peak_today {
            // Damping: a signal must persist for consecutive days before
            // the GV moves, so one unusual day cannot shake the
            // controller off a good setting.
            self.signal_streak = if self.saturated_today {
                (self.signal_streak.max(0)) + 1
            } else if self.peak_mean_melt < UNDERUSED_MELT {
                (self.signal_streak.min(0)) - 1
            } else {
                0
            };
            let next_gv = if self.signal_streak >= SIGNAL_STREAK_DAYS as i32 {
                (self.gv + GV_STEP).min(self.bounds.1)
            } else if self.signal_streak <= -(SIGNAL_STREAK_DAYS as i32) {
                (self.gv - GV_STEP).max(self.bounds.0)
            } else {
                self.gv
            };
            if next_gv != self.gv {
                self.signal_streak = 0;
                self.gv = next_gv;
                let mut config = self.config;
                config.gv = GroupingValue::new(next_gv);
                self.config = config;
                let prior = self.inner.counters().unwrap_or_default();
                self.inner = VmtWa::new(config);
                self.inner.adopt_counters(prior);
            }
            self.history.push((day, self.gv));
            self.last_switch_day = day;
            self.saturated_today = false;
            self.peak_mean_melt = 0.0;
            self.saw_peak_today = false;
        }
    }
}

/// Cross-tick state of [`AdaptiveGv`]: the wrapped [`VmtWa`]'s state
/// plus the controller's own day-over-day bookkeeping.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct AdaptiveGvState {
    inner: VmtWaState,
    config: VmtConfig,
    gv: f64,
    bounds: (f64, f64),
    saturated_today: bool,
    peak_mean_melt: f64,
    saw_peak_today: bool,
    last_switch_day: i64,
    signal_streak: i32,
    history: Vec<(i64, f64)>,
}

impl SnapshotState for AdaptiveGv {
    fn state_kind(&self) -> Option<&'static str> {
        Some("adaptive-gv")
    }

    fn save_state(&self) -> Result<SavedState, SnapshotError> {
        Ok(SavedState::new(
            "adaptive-gv",
            &AdaptiveGvState {
                inner: self.inner.to_state(),
                config: self.config,
                gv: self.gv,
                bounds: self.bounds,
                saturated_today: self.saturated_today,
                peak_mean_melt: self.peak_mean_melt,
                saw_peak_today: self.saw_peak_today,
                last_switch_day: self.last_switch_day,
                signal_streak: self.signal_streak,
                history: self.history.clone(),
            },
        ))
    }

    fn restore_state(&mut self, saved: &SavedState) -> Result<(), SnapshotError> {
        let state: AdaptiveGvState = saved.decode("adaptive-gv")?;
        // `AdaptiveGv::new` panics on bad bounds; a snapshot is external
        // input, so report corruption instead.
        let (lo, hi) = state.bounds;
        if !(lo < hi && (lo..=hi).contains(&state.gv)) {
            return Err(SnapshotError::Corrupt(format!(
                "adaptive-gv bounds ({lo}, {hi}) do not contain GV {}",
                state.gv
            )));
        }
        state.config.check()?;
        *self = Self {
            inner: VmtWa::from_state(&state.inner)?,
            config: state.config,
            gv: state.gv,
            bounds: state.bounds,
            saturated_today: state.saturated_today,
            peak_mean_melt: state.peak_mean_melt,
            saw_peak_today: state.saw_peak_today,
            last_switch_day: state.last_switch_day,
            signal_streak: state.signal_streak,
            history: state.history,
        };
        Ok(())
    }
}

impl Scheduler for AdaptiveGv {
    fn name(&self) -> &str {
        "adaptive-gv"
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }

    fn on_tick(&mut self, farm: &ServerFarm, now: Seconds) {
        self.observe(farm, now);
        self.inner.on_tick(farm, now);
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        self.inner.place(job, farm)
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
    use vmt_dcsim::{ClusterConfig, Simulation};
    use vmt_units::Hours;
    use vmt_workload::{DiurnalTrace, TraceConfig};

    fn four_day_trace() -> DiurnalTrace {
        let mut config = TraceConfig::paper_default();
        config.horizon = Hours::new(96.0);
        config.day_scale = vec![1.0, 0.99, 1.0, 0.99];
        DiurnalTrace::new(config)
    }

    fn run_adaptive(
        start_gv: f64,
        servers: usize,
    ) -> (vmt_dcsim::SimulationResult, Vec<(i64, f64)>) {
        // The history lives inside the scheduler, which the simulation
        // consumes; track it through a probe wrapper.
        #[derive(Debug)]
        struct Probe {
            inner: AdaptiveGv,
            sink: std::sync::Arc<std::sync::Mutex<Vec<(i64, f64)>>>,
        }
        // Test-only wrapper; never checkpointed.
        impl SnapshotState for Probe {}
        impl Scheduler for Probe {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn on_tick(&mut self, farm: &ServerFarm, now: Seconds) {
                self.inner.on_tick(farm, now);
                *self.sink.lock().expect("probe lock") = self.inner.history().to_vec();
            }
            fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
                self.inner.place(job, farm)
            }
            fn hot_group_size(&self) -> Option<usize> {
                self.inner.hot_group_size()
            }
        }
        let cluster = ClusterConfig::paper_default(servers);
        let sink = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let probe = Probe {
            inner: AdaptiveGv::new(
                VmtConfig::new(GroupingValue::new(start_gv), &cluster),
                (14.0, 30.0),
            ),
            sink: sink.clone(),
        };
        let result = Simulation::new(cluster, four_day_trace(), Box::new(probe)).run();
        let history = sink.lock().expect("probe lock").clone();
        (result, history)
    }

    #[test]
    fn walks_up_from_an_undersized_group() {
        // GV=19 melts out daily; the controller should raise the GV over
        // the four days.
        let (_, history) = run_adaptive(19.0, 50);
        let final_gv = history.last().expect("history non-empty").1;
        assert!(final_gv > 19.0, "GV should rise, history {history:?}");
    }

    #[test]
    fn walks_down_from_an_oversized_group() {
        // GV=28's group is too cool to melt much; the controller should
        // lower it.
        let (_, history) = run_adaptive(28.0, 50);
        let final_gv = history.last().expect("history non-empty").1;
        assert!(final_gv < 28.0, "GV should fall, history {history:?}");
    }

    #[test]
    fn holds_near_the_optimum() {
        let (_, history) = run_adaptive(22.0, 50);
        let final_gv = history.last().expect("history non-empty").1;
        assert!(
            (20.0..=24.0).contains(&final_gv),
            "GV should stay near 22, history {history:?}"
        );
    }

    #[test]
    fn adaptation_beats_a_bad_fixed_gv() {
        let (adaptive, _) = run_adaptive(19.0, 50);
        let cluster = ClusterConfig::paper_default(50);
        let fixed = Simulation::new(
            cluster.clone(),
            four_day_trace(),
            crate::PolicyKind::vmt_wa(19.0).build(&cluster),
        )
        .run();
        let baseline = Simulation::new(
            cluster.clone(),
            four_day_trace(),
            crate::PolicyKind::RoundRobin.build(&cluster),
        )
        .run();
        let adaptive_red = adaptive.compare_peak(&baseline).reduction_percent();
        let fixed_red = fixed.compare_peak(&baseline).reduction_percent();
        // Peak reduction is measured on the worst day, which for the
        // mis-tuned start is day one for both; but adaptation must not
        // be worse, and its *later* days improve.
        assert!(
            adaptive_red >= fixed_red - 0.5,
            "adaptive {adaptive_red:.1}% vs fixed {fixed_red:.1}%"
        );
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn bounds_must_contain_start() {
        let cluster = ClusterConfig::paper_default(10);
        AdaptiveGv::new(
            VmtConfig::new(GroupingValue::new(22.0), &cluster),
            (24.0, 30.0),
        );
    }
}
