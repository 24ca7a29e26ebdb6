//! Per-phase tick profiling.

use std::time::Duration;

/// The phases of one simulation tick, in execution order.
///
/// `PhysicsFold`, `PoolBusy`, and `PoolIdle` are *sub-phases*: their
/// time is contained inside top-level phases (the fold inside
/// `Physics`; the pool attributions inside whichever phases ran on the
/// persistent worker pool), so they are reported separately but
/// excluded from coverage sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TickPhase {
    /// Time-varying inlet refresh.
    Inlet,
    /// Retiring the jobs due this tick.
    Departures,
    /// The scheduler's per-tick refresh (`on_tick_indexed`).
    SchedulerTick,
    /// Arrival planning and per-job placement.
    Placement,
    /// The sharded physics sweep (includes the fold).
    Physics,
    /// Shard-order fold of the sweep's partial sums (inside `Physics`).
    PhysicsFold,
    /// Cluster metric recording (series pushes, heatmap rows).
    Record,
    /// Summed busy time of the persistent pool's participants across
    /// the tick's pooled sections (sub-phase; zero on the inline
    /// single-thread path).
    PoolBusy,
    /// Summed idle time of the pool's participants within the pooled
    /// sections' wall-clock spans (sub-phase).
    PoolIdle,
}

impl TickPhase {
    /// Top-level phases, in execution order (excludes sub-phases).
    pub const TOP_LEVEL: [TickPhase; 6] = [
        TickPhase::Inlet,
        TickPhase::Departures,
        TickPhase::SchedulerTick,
        TickPhase::Placement,
        TickPhase::Physics,
        TickPhase::Record,
    ];

    /// Stable display name (used as the span name in trace exports).
    pub fn name(self) -> &'static str {
        match self {
            TickPhase::Inlet => "Inlet",
            TickPhase::Departures => "Departures",
            TickPhase::SchedulerTick => "SchedulerTick",
            TickPhase::Placement => "Placement",
            TickPhase::Physics => "Physics",
            TickPhase::PhysicsFold => "PhysicsFold",
            TickPhase::Record => "Record",
            TickPhase::PoolBusy => "PoolBusy",
            TickPhase::PoolIdle => "PoolIdle",
        }
    }

    fn slot(self) -> usize {
        match self {
            TickPhase::Inlet => 0,
            TickPhase::Departures => 1,
            TickPhase::SchedulerTick => 2,
            TickPhase::Placement => 3,
            TickPhase::Physics => 4,
            TickPhase::PhysicsFold => 5,
            TickPhase::Record => 6,
            TickPhase::PoolBusy => 7,
            TickPhase::PoolIdle => 8,
        }
    }
}

const SLOTS: usize = 9;

/// Accumulates wall-clock time per [`TickPhase`].
///
/// Owned and written by the engine thread only: plain `u64` nanosecond
/// totals, no atomics, no allocation after construction. The engine
/// times each phase with `std::time::Instant` *only when telemetry is
/// enabled*, so a disabled simulation takes zero timestamps.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    totals_ns: [u64; SLOTS],
    /// Whole-tick-body time, measured around all phases; the coverage
    /// denominator.
    tick_total_ns: u64,
    ticks: u64,
}

/// Wall-clock attribution of a run's tick time, in seconds.
///
/// `coverage` is the fraction of the measured whole-tick time the
/// top-level phases account for; the remainder is loop scaffolding
/// between the phase timestamps. `fold_s` is a sub-phase of
/// `physics_s`, reported separately and excluded from the sum.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct PhaseBreakdown {
    /// Time-varying inlet refresh.
    pub inlet_s: f64,
    /// Retiring the jobs due each tick.
    pub departures_s: f64,
    /// Scheduler per-tick refresh.
    pub scheduler_tick_s: f64,
    /// Arrival planning + placement.
    pub placement_s: f64,
    /// Sharded physics sweep (includes the fold).
    pub physics_s: f64,
    /// Shard-order fold inside the physics sweep.
    pub fold_s: f64,
    /// Metric recording.
    pub record_s: f64,
    /// Summed participant busy time across the pooled sections
    /// (sub-phase; absent in pre-pool streams, hence the default).
    #[serde(default)]
    pub pool_busy_s: f64,
    /// Summed participant idle time within the pooled sections'
    /// wall-clock spans (sub-phase).
    #[serde(default)]
    pub pool_idle_s: f64,
    /// Whole-tick-body time (coverage denominator).
    pub total_s: f64,
    /// Ticks profiled.
    pub ticks: u64,
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `elapsed` to `phase`.
    #[inline]
    pub fn add(&mut self, phase: TickPhase, elapsed: Duration) {
        self.totals_ns[phase.slot()] += elapsed.as_nanos() as u64;
    }

    /// Adds raw nanoseconds to `phase` (for timings measured elsewhere,
    /// e.g. the farm's in-sweep fold timer).
    #[inline]
    pub fn add_ns(&mut self, phase: TickPhase, ns: u64) {
        self.totals_ns[phase.slot()] += ns;
    }

    /// Records one whole-tick-body duration (the coverage denominator).
    #[inline]
    pub fn add_tick(&mut self, elapsed: Duration) {
        self.tick_total_ns += elapsed.as_nanos() as u64;
        self.ticks += 1;
    }

    /// Accumulated time in `phase`.
    pub fn total(&self, phase: TickPhase) -> Duration {
        Duration::from_nanos(self.totals_ns[phase.slot()])
    }

    /// Ticks profiled so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Folds the totals into a serializable breakdown.
    pub fn breakdown(&self) -> PhaseBreakdown {
        let s = |p: TickPhase| self.totals_ns[p.slot()] as f64 / 1e9;
        PhaseBreakdown {
            inlet_s: s(TickPhase::Inlet),
            departures_s: s(TickPhase::Departures),
            scheduler_tick_s: s(TickPhase::SchedulerTick),
            placement_s: s(TickPhase::Placement),
            physics_s: s(TickPhase::Physics),
            fold_s: s(TickPhase::PhysicsFold),
            record_s: s(TickPhase::Record),
            pool_busy_s: s(TickPhase::PoolBusy),
            pool_idle_s: s(TickPhase::PoolIdle),
            total_s: self.tick_total_ns as f64 / 1e9,
            ticks: self.ticks,
        }
    }
}

impl PhaseBreakdown {
    /// Fraction of the pooled sections' aggregate participant time
    /// spent busy — the pool's efficiency. `None` when the pool never
    /// engaged (single-thread runs).
    pub fn pool_efficiency(&self) -> Option<f64> {
        let total = self.pool_busy_s + self.pool_idle_s;
        (total > 0.0).then(|| self.pool_busy_s / total)
    }

    /// Sum of the top-level phase times (excludes the fold sub-phase).
    pub fn phases_sum_s(&self) -> f64 {
        self.inlet_s
            + self.departures_s
            + self.scheduler_tick_s
            + self.placement_s
            + self.physics_s
            + self.record_s
    }

    /// Fraction of the measured tick time the phases account for
    /// (1.0 when no ticks were profiled, so an empty profile does not
    /// read as a coverage failure).
    pub fn coverage(&self) -> f64 {
        if self.total_s <= 0.0 {
            1.0
        } else {
            self.phases_sum_s() / self.total_s
        }
    }

    /// `(label, seconds)` rows for the top-level phases, in execution
    /// order — shared by the human report and the bench printout.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("inlet", self.inlet_s),
            ("departures", self.departures_s),
            ("scheduler_tick", self.scheduler_tick_s),
            ("placement", self.placement_s),
            ("physics", self.physics_s),
            ("record", self.record_s),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase() {
        let mut p = PhaseProfiler::new();
        p.add(TickPhase::Physics, Duration::from_millis(3));
        p.add(TickPhase::Physics, Duration::from_millis(2));
        p.add_ns(TickPhase::PhysicsFold, 1_000_000);
        p.add_tick(Duration::from_millis(6));
        let b = p.breakdown();
        assert!((b.physics_s - 0.005).abs() < 1e-9);
        assert!((b.fold_s - 0.001).abs() < 1e-9);
        assert_eq!(b.ticks, 1);
        // Fold is inside physics: excluded from the top-level sum.
        assert!((b.phases_sum_s() - 0.005).abs() < 1e-9);
        assert!((b.coverage() - 0.005 / 0.006).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_has_full_coverage() {
        assert_eq!(PhaseProfiler::new().breakdown().coverage(), 1.0);
    }

    #[test]
    fn rows_cover_all_top_level_phases() {
        let b = PhaseBreakdown {
            inlet_s: 1.0,
            departures_s: 2.0,
            scheduler_tick_s: 3.0,
            placement_s: 4.0,
            physics_s: 5.0,
            fold_s: 0.5,
            record_s: 6.0,
            pool_busy_s: 0.3,
            pool_idle_s: 0.1,
            total_s: 21.0,
            ticks: 10,
        };
        let sum: f64 = b.rows().iter().map(|(_, s)| s).sum();
        assert_eq!(sum, b.phases_sum_s());
        assert_eq!(b.rows().len(), TickPhase::TOP_LEVEL.len());
    }
}
