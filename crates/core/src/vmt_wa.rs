//! VMT with wax-aware job placement (VMT-WA, paper §III-B).

use crate::balance::ThermalBalancer;
use crate::grouping::VmtConfig;
use crate::streams::{self, KeepWarm, Lanes, Rungs, TwoGroups};
use vmt_dcsim::{
    ClusterIndex, PlacementProbe, SavedState, Scheduler, ServerFarm, ServerId, SnapshotError,
    SnapshotState,
};
use vmt_telemetry::SchedulerCounters;
use vmt_units::{Celsius, Seconds};
use vmt_workload::{Job, VmtClass};

/// Margin above the melting temperature at which a melted server counts
/// as "warm enough": keep-warm placement tops a melted server up only
/// until its projected steady-state temperature clears this line, so it
/// receives "just enough load to keep the wax melted" and no more.
pub(crate) const KEEP_WARM_MARGIN_K: f64 = 0.5;

/// Reported melt fraction below which a trailing hot-group server counts
/// as refrozen and may be returned to the cold group (off-peak shrink).
pub(crate) const REFREEZE_FRACTION: f64 = 0.05;

/// Cluster utilization above which the wax-aware machinery (keep-warm,
/// saturation penalties, hot-group growth) engages. Measured at the
/// start of a tick, after departures and before arrivals, so the
/// threshold sits ≈12% below the plateau's nominal occupancy. The paper's VMT-WA
/// acts only "if all of the wax melts before the end of the load peak" —
/// there is peak left to shave. When wax saturates on the peak's falling
/// edge instead, the correct reaction is none: behave exactly like
/// VMT-TA and let thermal time shifting release the heat into the
/// growing cooling headroom.
pub(crate) const KEEP_WARM_MIN_UTILIZATION: f64 = 0.82;

/// Cluster utilization below which the hot group may shrink back toward
/// its Equation-1 base. Deliberately below the keep-warm threshold so a
/// dusk-time utilization wobble cannot dump dozens of still-warm servers
/// back into the cold group while the load is still high.
pub(crate) const SHRINK_MAX_UTILIZATION: f64 = 0.60;

/// Optional aggressiveness knobs for [`VmtWa`]'s saturation reaction.
///
/// The default tuning reacts to saturation with two mechanisms that can
/// only help: the keep-warm safety net (top up a cooling melted server
/// before it releases stored heat) and growth when the hot group runs
/// out of cores. Two further mechanisms redirect load away from
/// saturated servers *proactively*; on clusters running near their
/// computational capacity they can displace more load than the cold
/// group has room for and end up releasing stored heat into the peak,
/// so they default off. The `ablations` experiment quantifies each.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WaTuning {
    /// Top up melted servers that are about to dip below the melt line.
    pub keep_warm: bool,
    /// Balancer key penalty (kelvin) on saturated servers: bleeds load
    /// toward unmelted servers gradually. 0 disables.
    pub melted_penalty_k: f64,
    /// Servers added to the hot group per tick from the paper's
    /// "base + melted count" rule. 0 disables (growth then happens only
    /// when the group is computationally full).
    pub count_growth_per_tick: usize,
}

impl Default for WaTuning {
    fn default() -> Self {
        Self {
            keep_warm: true,
            melted_penalty_k: 0.0,
            count_growth_per_tick: 0,
        }
    }
}

/// VMT-WA: VMT-TA plus wax-state feedback.
///
/// Starts from the same Equation-1 hot group as [`crate::VmtTa`] but
/// watches every server's *reported* melt state (the on-server estimator,
/// not ground truth) and adapts:
///
/// * **Keep-warm first.** A fully melted server whose projected
///   steady-state temperature has fallen below the melt line is topped up
///   with hot jobs before anything else — cooling a melted server would
///   release its stored heat back into the peak. Topping up stops as soon
///   as the server's projected temperature clears the melt line plus a
///   small margin, so melted servers hold "just enough load to keep the
///   wax melted".
/// * **Melt new wax second.** Remaining hot jobs round-robin across the
///   hot group's unmelted servers.
/// * **Grow on saturation.** When no hot-group server qualifies (all
///   melted and warm), the hot group grows into the cold group one server
///   at a time; the excess load concentrates on each newly added server
///   in turn, melting its wax at full rate — the paper's "moves the
///   additional load to the newly added server".
/// * **Never shrink during the peak.** Servers leave the hot group only
///   after their wax has refrozen (trailing servers, off-peak); pulling a
///   molten server into the cold group would dump its stored energy into
///   the cooling load.
///
/// Cold jobs go to the cold group; when it is full they prefer hot-group
/// servers that are already melted *and* above the melting temperature
/// (minimal thermal impact), then any remaining server. The paper notes
/// this ladder "will only fail to schedule a job in the case where a
/// thermally unconstrained datacenter would also run out of computational
/// space".
#[derive(Debug, Clone)]
pub struct VmtWa {
    config: VmtConfig,
    tuning: WaTuning,
    base_hot: usize,
    hot_size: usize,
    /// Melted hot-group servers currently below the keep-warm line, in
    /// need of topping up (rebuilt per tick, consumed during placement).
    keep_warm: Vec<usize>,
    /// Temperature balancer over the hot group (saturated members carry
    /// a key penalty; grown servers are appended).
    hot: ThermalBalancer,
    /// Temperature balancer over the cold group.
    cold: ThermalBalancer,
    /// The hot-group size both balancers were last rebuilt at; growth
    /// moves `hot_size` past it until the next refresh.
    split: usize,
    /// Per-server "reported melt ≥ threshold" flags, refreshed per tick.
    melted: Vec<bool>,
    /// The previous tick's `melted` flags (swapped in during refresh) —
    /// the diff is the wax-crossing count the telemetry summary reports.
    prev_melted: Vec<bool>,
    /// Cumulative decision counters (always on; deterministic).
    counters: SchedulerCounters,
    /// Per-server "air below melt temperature" flags, refreshed per tick.
    below_melt: Vec<bool>,
    /// Scratch for the hot balancer's `(member, bias)` list, recycled
    /// across ticks so refresh allocates nothing in steady state.
    members: Vec<(usize, f64)>,
    /// Resume points for the fallback scans in `place_hot_explained` /
    /// `place_cold_explained`, reset each tick. Within a tick free cores
    /// only shrink and the wax flags are frozen (the [`Scheduler`]
    /// contract: `on_tick` runs after departures and before placements),
    /// so once an index fails a fallback predicate it fails it for the
    /// rest of the tick — each scan can resume where the previous one
    /// stopped instead of rescanning `0..hot_size` per job.
    cursor_hot_unmelted: usize,
    cursor_hot_any: usize,
    cursor_cold_melted_warm: usize,
    cursor_cold_any: usize,
}

impl VmtWa {
    /// Creates the policy.
    pub fn new(config: VmtConfig) -> Self {
        Self::with_tuning(config, WaTuning::default())
    }

    /// Creates the policy with explicit saturation-reaction tuning.
    pub fn with_tuning(config: VmtConfig, tuning: WaTuning) -> Self {
        Self {
            config,
            tuning,
            base_hot: 0,
            hot_size: 0,
            keep_warm: Vec::new(),
            hot: ThermalBalancer::new(),
            cold: ThermalBalancer::new(),
            split: 0,
            melted: Vec::new(),
            prev_melted: Vec::new(),
            counters: SchedulerCounters::default(),
            below_melt: Vec::new(),
            members: Vec::new(),
            cursor_hot_unmelted: 0,
            cursor_hot_any: 0,
            cursor_cold_melted_warm: 0,
            cursor_cold_any: 0,
        }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &VmtConfig {
        &self.config
    }

    /// Seeds the decision counters from a predecessor instance so that
    /// wrappers which rebuild their inner policy mid-run (adaptive GV
    /// retuning) report run-cumulative counts.
    pub(crate) fn adopt_counters(&mut self, counters: SchedulerCounters) {
        self.counters = counters;
    }

    /// The temperature a melted server must project to count as warm.
    fn warm_line(&self) -> Celsius {
        self.config.pmt + vmt_units::DegC::new(KEEP_WARM_MARGIN_K)
    }

    /// [`VmtWa::refresh_at`] at the cluster utilization summed over the
    /// farm's servers.
    fn refresh(&mut self, farm: &ServerFarm) {
        let used: u64 = (0..farm.len()).map(|i| u64::from(farm.used_cores(i))).sum();
        let utilization = match farm.len() as u64 * u64::from(farm.cores()) {
            0 => 0.0,
            total => used as f64 / total as f64,
        };
        self.refresh_at(farm, utilization);
    }

    /// Refreshes per-tick state at cluster utilization `utilization`:
    /// wax flags, group shrink and growth, the keep-warm list, both
    /// balancers and the fallback cursors. Every per-server value is
    /// read from the farm.
    ///
    /// The engine's tick passes the index's O(1) total
    /// ([`Scheduler::on_tick_indexed`]): summing the used-core lane there
    /// instead read 8–11% slower on `core.on_tick_s` (perfbench
    /// `place-100k`, traced, slower in 8 of 8 alternating pairs, 2-vCPU
    /// Xeon).
    fn refresh_at(&mut self, farm: &ServerFarm, utilization: f64) {
        let n = farm.len();
        std::mem::swap(&mut self.prev_melted, &mut self.melted);
        self.melted.clear();
        self.below_melt.clear();
        for i in 0..n {
            let reported = farm.reported_melt_fraction(i).get();
            self.melted.push(reported >= self.config.wax_threshold);
            self.below_melt.push(farm.air_at_wax(i) < self.config.pmt);
        }
        if self.base_hot == 0 {
            self.base_hot = self.config.hot_group_size(n);
            self.hot_size = self.base_hot;
        }
        // Wax-crossing census: how many servers' reported melt state
        // flipped (either direction) since the previous refresh.
        if self.prev_melted.len() == self.melted.len() {
            self.counters.wax_crossings += self
                .prev_melted
                .iter()
                .zip(&self.melted)
                .filter(|(was, is)| was != is)
                .count() as u64;
        }
        // Keep-warm (and the no-shrink rule) only make sense near the
        // peak: off-peak the wax is supposed to refreeze and release its
        // heat into the cooling system's idle headroom.
        let near_peak = utilization >= KEEP_WARM_MIN_UTILIZATION;
        // Off-peak shrink: release trailing servers whose wax refroze.
        // Never during the peak — "we do not transition servers from the
        // hot group to the cold group during the peak".
        while utilization < SHRINK_MAX_UTILIZATION && self.hot_size > self.base_hot {
            let idx = self.hot_size - 1;
            let refrozen =
                farm.reported_melt_fraction(idx).get() < REFREEZE_FRACTION && self.below_melt[idx];
            if refrozen {
                self.hot_size -= 1;
                self.counters.hot_group_shrink += 1;
            } else {
                break;
            }
        }
        // Grow by the saturated count ("the scheduler restarts from the
        // minimum hot group size and adds servers in order"). Growth is
        // gentle because grown servers merely become the coolest members
        // of the balancer and attract the churned load over minutes.
        if near_peak && self.tuning.count_growth_per_tick > 0 {
            let melted_count = self.melted[..self.hot_size].iter().filter(|&&m| m).count();
            let target = (self.base_hot + melted_count).clamp(self.hot_size, n);
            let before = self.hot_size;
            self.hot_size = target.min(self.hot_size + self.tuning.count_growth_per_tick);
            self.counters.hot_group_growth += (self.hot_size - before) as u64;
        }
        let warm_line = self.warm_line();
        self.keep_warm.clear();
        self.members.clear();
        self.members.reserve(self.hot_size);
        #[allow(clippy::needless_range_loop)] // indices double as balancer keys
        for idx in 0..self.hot_size {
            if near_peak && self.melted[idx] {
                // Safety net: a saturated server about to dip below the
                // melt line gets topped up with priority.
                if self.tuning.keep_warm && farm.projected_temp(idx) < warm_line {
                    self.keep_warm.push(idx);
                }
                self.members.push((idx, self.tuning.melted_penalty_k));
            } else {
                // Off-peak, melted servers take hot jobs like anyone else
                // (VMT-TA behavior); the trough load is too light to keep
                // them above the melt line, so the wax refreezes anyway.
                self.members.push((idx, 0.0));
            }
        }
        self.hot.rebuild_biased(self.members.iter().copied(), farm);
        self.cold.rebuild(self.hot_size..n, farm);
        self.split = self.hot_size;
        self.cursor_hot_unmelted = 0;
        self.cursor_hot_any = 0;
        self.cursor_cold_melted_warm = 0;
        self.cursor_cold_any = 0;
    }

    /// The hot-job ladder. Returns the decision and the static label of
    /// the rung that made it (the labels the trace `explain` workflow
    /// surfaces).
    fn place_hot_explained(
        &mut self,
        farm: &ServerFarm,
        core_power_w: f64,
    ) -> (Option<ServerId>, &'static str) {
        let n = farm.len();
        // 1. Keep-warm: top up melted servers that are about to dip below
        //    the melt line. Placing here both prevents heat release and
        //    frees the rest of the load for unmelted wax.
        // 2. Then temperature-balanced placement across the hot group
        //    (saturated members carry a key penalty, so new wax melts
        //    preferentially without abandoning molten servers).
        let (mut hot, _) = self.rungs();
        let placed = hot.place(farm, core_power_w);
        let kept_warm = hot.kept_warm;
        self.counters.keep_warm += kept_warm;
        if let Some((idx, rung)) = placed {
            return (Some(ServerId(idx)), rung);
        }
        // 3. The whole group is out of cores: grow one server at a time;
        //    the next cold-group server has unmelted wax by construction.
        while self.hot_size < n {
            let idx = self.hot_size;
            self.hot_size += 1;
            self.counters.hot_group_growth += 1;
            self.hot.add_member(idx, farm);
            if let Some(found) = self.hot.place(farm, core_power_w) {
                return (Some(ServerId(found)), "hot-grow");
            }
        }
        // 4. Corner case: the whole cluster is the hot group. Any server
        //    below the melted threshold, then any server at all. The
        //    scans resume from per-tick cursors: a cursor only skips
        //    indices that already failed the predicate this tick, and
        //    both failure causes (melted flag set, no free cores) are
        //    permanent until the next refresh.
        let mut cursor = self.cursor_hot_unmelted;
        while cursor < n && (self.melted[cursor] || farm.free_cores(cursor) == 0) {
            cursor += 1;
        }
        self.cursor_hot_unmelted = cursor;
        if cursor < n {
            return (Some(ServerId(cursor)), "hot-fallback-unmelted");
        }
        let mut cursor = self.cursor_hot_any;
        while cursor < n && farm.free_cores(cursor) == 0 {
            cursor += 1;
        }
        self.cursor_hot_any = cursor;
        match cursor < n {
            true => (Some(ServerId(cursor)), "hot-fallback-any"),
            false => (None, "hot-exhausted"),
        }
    }

    /// The cold-job ladder; see [`VmtWa::place_hot_explained`] for the
    /// cursor argument and the rung labels.
    fn place_cold_explained(
        &mut self,
        farm: &ServerFarm,
        core_power_w: f64,
    ) -> (Option<ServerId>, &'static str) {
        // 1. The cold group, temperature balanced.
        let (_, mut cold) = self.rungs();
        if let Some((idx, rung)) = cold.place(farm, core_power_w) {
            return (Some(ServerId(idx)), rung);
        }
        // 2. A hot-group server already melted and above the melting
        //    temperature — placing a cold job there has minimal thermal
        //    impact. Cursor-resumed.
        let mut cursor = self.cursor_cold_melted_warm;
        while cursor < self.hot_size
            && !(self.melted[cursor] && !self.below_melt[cursor] && farm.free_cores(cursor) > 0)
        {
            cursor += 1;
        }
        self.cursor_cold_melted_warm = cursor;
        if cursor < self.hot_size {
            return (Some(ServerId(cursor)), "cold-spill-melted-warm");
        }
        // 3. Any remaining hot-group server.
        let mut cursor = self.cursor_cold_any;
        while cursor < self.hot_size && farm.free_cores(cursor) == 0 {
            cursor += 1;
        }
        self.cursor_cold_any = cursor;
        match cursor < self.hot_size {
            true => (Some(ServerId(cursor)), "cold-spill-any"),
            false => (None, "cold-exhausted"),
        }
    }

    /// The cross-tick state image (also nested in
    /// [`AdaptiveGv`](crate::AdaptiveGv)'s own state).
    ///
    /// Only genuinely cross-tick fields are captured. The `melted` flags
    /// travel because the next refresh swaps them into `prev_melted` for
    /// the wax-crossing census; everything else (keep-warm list,
    /// balancers, `below_melt`, fallback cursors) is rebuilt by that
    /// refresh before any placement, so a restored instance behaves
    /// bit-identically to the continuous run from the next tick on.
    pub(crate) fn to_state(&self) -> VmtWaState {
        VmtWaState {
            config: self.config,
            tuning: self.tuning,
            base_hot: self.base_hot,
            hot_size: self.hot_size,
            melted: self.melted.clone(),
            counters: self.counters,
        }
    }

    /// Rebuilds an instance from a state image; see
    /// [`VmtWa::to_state`] for what is re-derived instead of restored.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the config breaks
    /// [`VmtConfig::check`].
    pub(crate) fn from_state(state: &VmtWaState) -> Result<Self, SnapshotError> {
        state.config.check()?;
        let mut wa = Self::with_tuning(state.config, state.tuning);
        wa.base_hot = state.base_hot;
        wa.hot_size = state.hot_size;
        wa.melted = state.melted.clone();
        wa.counters = state.counters;
        Ok(wa)
    }

    /// Replaces the keep-warm list (tests of the placement driver, which
    /// need keep-warm entries without simulating a melt).
    #[cfg(test)]
    pub(crate) fn force_keep_warm(&mut self, servers: Vec<usize>) {
        self.keep_warm = servers;
    }

    /// Books a successful placement: group routing plus cold-job spills
    /// into the hot group. Hot jobs cannot spill — the group grows to
    /// absorb them — so a placement below `hot_size` is "hot routed".
    fn count_placement(&mut self, class: VmtClass, placed: Option<ServerId>) {
        let Some(sid) = placed else { return };
        self.counters.placements += 1;
        if sid.0 < self.hot_size {
            self.counters.hot_placements += 1;
            if class == VmtClass::Cold {
                self.counters.spills += 1;
            }
        } else {
            self.counters.cold_placements += 1;
        }
    }
}

/// Cross-tick state of [`VmtWa`]: configuration, tuning, the resolved
/// group sizes, the per-server melt flags, and the cumulative counters.
/// Balancers, keep-warm list, and fallback cursors are per-tick derived
/// state and deliberately absent.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub(crate) struct VmtWaState {
    pub(crate) config: VmtConfig,
    pub(crate) tuning: WaTuning,
    pub(crate) base_hot: usize,
    pub(crate) hot_size: usize,
    pub(crate) melted: Vec<bool>,
    pub(crate) counters: SchedulerCounters,
}

impl SnapshotState for VmtWa {
    fn state_kind(&self) -> Option<&'static str> {
        Some("vmt-wa")
    }

    fn save_state(&self) -> Result<SavedState, SnapshotError> {
        Ok(SavedState::new("vmt-wa", &self.to_state()))
    }

    fn restore_state(&mut self, saved: &SavedState) -> Result<(), SnapshotError> {
        let state: VmtWaState = saved.decode("vmt-wa")?;
        *self = Self::from_state(&state)?;
        Ok(())
    }
}

impl TwoGroups for VmtWa {
    fn hot_size(&self) -> usize {
        self.hot_size
    }

    fn split_at_edge(&self) -> bool {
        self.hot_size == self.split
    }

    fn rungs(&mut self) -> (Rungs<'_>, Rungs<'_>) {
        let line = self.warm_line();
        (
            Rungs {
                balancer: &mut self.hot,
                keep_warm: Some(KeepWarm {
                    list: &mut self.keep_warm,
                    line,
                }),
                label: "hot-balancer",
                kept_warm: 0,
            },
            Rungs {
                balancer: &mut self.cold,
                keep_warm: None,
                label: "cold-balancer",
                kept_warm: 0,
            },
        )
    }

    fn book_streams(&mut self, hot: u64, cold: u64, kept_warm: u64) {
        self.counters.placements += hot + cold;
        self.counters.hot_placements += hot;
        self.counters.cold_placements += cold;
        self.counters.keep_warm += kept_warm;
    }

    fn place_serial(&mut self, job: &Job, farm: &ServerFarm) -> (Option<ServerId>, &'static str) {
        let class = job.kind().vmt_class();
        let (placed, rung) = match class {
            VmtClass::Hot => self.place_hot_explained(farm, job.core_power().get()),
            VmtClass::Cold => self.place_cold_explained(farm, job.core_power().get()),
        };
        self.count_placement(class, placed);
        (placed, rung)
    }

    fn home_balancer(&self, class: VmtClass) -> &ThermalBalancer {
        match class {
            VmtClass::Hot => &self.hot,
            VmtClass::Cold => &self.cold,
        }
    }
}

impl Scheduler for VmtWa {
    fn name(&self) -> &str {
        "vmt-wa"
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }

    fn on_tick(&mut self, farm: &ServerFarm, _now: Seconds) {
        self.refresh(farm);
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        if self.melted.len() != farm.len() {
            self.refresh(farm);
        }
        self.place_serial(job, farm).0
    }

    fn on_tick_indexed(&mut self, farm: &ServerFarm, index: &ClusterIndex, _now: Seconds) {
        self.refresh_at(farm, index.utilization());
    }

    /// Two streams, one per group, up to the stop point, then the
    /// ladder; see [`crate::streams`]. The decision sequence is exactly
    /// `place` per job.
    fn place_batch(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        _index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
    ) {
        if self.melted.len() != farm.len() {
            self.refresh(farm);
        }
        streams::place_batch(self, jobs, farm, out, None);
    }

    /// [`VmtWa::place_batch`] with per-job decision detail for sampled
    /// jobs: the rung, and the candidate list snapshotted from the
    /// class's balancer *before* the placement mutates it (so it shows
    /// the tournament the job actually entered). Everything the probe
    /// receives is read-only, so the decisions are `place_batch`'s.
    fn place_batch_traced(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        _index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
        probe: &mut dyn PlacementProbe,
    ) {
        if self.melted.len() != farm.len() {
            self.refresh(farm);
        }
        streams::place_batch(self, jobs, farm, out, Some(probe));
    }

    fn hot_group_size(&self) -> Option<usize> {
        Some(self.hot_size.max(self.base_hot).max(1))
    }

    fn counters(&self) -> Option<SchedulerCounters> {
        Some(self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupingValue;
    use vmt_dcsim::ClusterConfig;
    use vmt_workload::{JobId, WorkloadKind};

    fn setup(n: usize, gv: f64) -> (ServerFarm, VmtWa) {
        let config = ClusterConfig::paper_default(n);
        let farm = ServerFarm::from_config(&config);
        let mut wa = VmtWa::new(VmtConfig::new(GroupingValue::new(gv), &config));
        wa.refresh(&farm);
        (farm, wa)
    }

    fn setup_with_threshold(n: usize, gv: f64, threshold: f64) -> (ServerFarm, VmtWa) {
        let config = ClusterConfig::paper_default(n);
        let farm = ServerFarm::from_config(&config);
        let mut wa = VmtWa::new(
            VmtConfig::new(GroupingValue::new(gv), &config).with_wax_threshold(threshold),
        );
        wa.refresh(&farm);
        (farm, wa)
    }

    fn job(id: u64, kind: WorkloadKind) -> Job {
        Job::new(JobId(id), kind, Seconds::new(300.0))
    }

    /// Saturates the first `count` servers with hot load and ticks until
    /// their wax (and estimators) report fully melted.
    fn melt_servers(farm: &mut ServerFarm, count: usize) {
        for s in 0..count {
            for c in 0..32 {
                farm.start_job(s, &job((s * 100 + c) as u64, WorkloadKind::VideoEncoding));
            }
        }
        for _ in 0..(24 * 60) {
            farm.tick_physics(Seconds::new(60.0));
        }
    }

    #[test]
    fn starts_at_equation_one_size() {
        let (_, wa) = setup(100, 22.0);
        assert_eq!(wa.hot_group_size(), Some(62));
    }

    #[test]
    fn behaves_like_ta_while_unmelted() {
        let (mut farm, mut wa) = setup(10, 22.0);
        let hot = wa.hot_group_size().unwrap();
        for i in 0..12 {
            let sid = wa.place(&job(i, WorkloadKind::Clustering), &farm).unwrap();
            assert!(sid.0 < hot);
            farm.start_job(sid.0, &job(1000 + i, WorkloadKind::Clustering));
        }
        for i in 0..12 {
            let sid = wa
                .place(&job(100 + i, WorkloadKind::DataCaching), &farm)
                .unwrap();
            assert!(sid.0 >= hot);
            farm.start_job(sid.0, &job(2000 + i, WorkloadKind::DataCaching));
        }
    }

    #[test]
    fn grows_hot_group_when_wax_saturates() {
        let (mut farm, mut wa) = setup(6, 22.0);
        let base = wa.hot_group_size().unwrap();
        assert_eq!(base, 4);
        melt_servers(&mut farm, base);
        wa.refresh(&farm);
        // Melted servers are still fully loaded (above the warm line), so
        // an arriving hot job saturates the group and grows it.
        let sid = wa
            .place(&job(9000, WorkloadKind::WebSearch), &farm)
            .unwrap();
        assert!(
            sid.0 >= base,
            "expected placement on an added server, got {sid}"
        );
        assert!(wa.hot_group_size().unwrap() > base);
    }

    /// Fills the cold group with enough cold jobs that the cluster is
    /// "near peak" (≥75% utilized), activating keep-warm.
    fn load_cold_group(farm: &mut ServerFarm, fills: &[(usize, u64)]) {
        for &(s, cores) in fills {
            for c in 0..cores {
                farm.start_job(
                    s,
                    &job(90_000 + s as u64 * 100 + c, WorkloadKind::DataCaching),
                );
            }
        }
    }

    /// Shared scenario for the keep-warm tests: an 8-server cluster
    /// (hot group = 5) where servers 0–3 are fully melted and loaded,
    /// server 4 is unmelted with headroom, server 0 has been partially
    /// drained and cooled below the melt line, and the cold group is
    /// loaded enough that the cluster is near peak (≥88% utilized).
    fn keep_warm_scenario() -> (ServerFarm, VmtWa) {
        let (mut farm, mut wa) = setup_with_threshold(8, 22.0, 0.85);
        assert_eq!(wa.hot_group_size(), Some(5));
        // Servers 0-3: full hot load, melted.
        for s in 0..4 {
            for c in 0..32 {
                farm.start_job(s, &job((s * 100 + c) as u64, WorkloadKind::VideoEncoding));
            }
        }
        // Server 4: light mixed load — stays below the melt line.
        for c in 0..12 {
            farm.start_job(4, &job((400 + c) as u64, WorkloadKind::VideoEncoding));
        }
        for c in 12..24 {
            farm.start_job(4, &job((400 + c) as u64, WorkloadKind::DataCaching));
        }
        for _ in 0..(24 * 60) {
            farm.tick_physics(Seconds::new(60.0));
        }
        // Drain server 0 to 12 jobs and let it cool below the melt line.
        for c in 0..20 {
            farm.end_job(0, JobId(c));
        }
        for _ in 0..20 {
            farm.tick_physics(Seconds::new(60.0));
        }
        // Cold group load brings the cluster near peak.
        load_cold_group(&mut farm, &[(5, 32), (6, 32), (7, 32)]);
        wa.refresh(&farm);
        assert!(farm.air_at_wax(0) < Celsius::new(35.7));
        assert!(farm.reported_melt_fraction(0).get() >= 0.85);
        (farm, wa)
    }

    #[test]
    fn keep_warm_takes_priority_when_melted_servers_cool() {
        let (farm, mut wa) = keep_warm_scenario();
        // The next hot job must go to server 0 to keep its wax molten.
        let sid = wa
            .place(&job(9000, WorkloadKind::WebSearch), &farm)
            .unwrap();
        assert_eq!(sid, ServerId(0));
    }

    #[test]
    fn keep_warm_stops_at_just_enough_load() {
        let (mut farm, mut wa) = keep_warm_scenario();
        // Feed hot jobs; count how many go to server 0 before the policy
        // decides it is warm enough and routes the rest to the unmelted
        // server 4.
        let mut to_zero = 0;
        for i in 0..16 {
            let sid = wa
                .place(&job(9000 + i, WorkloadKind::Clustering), &farm)
                .unwrap();
            farm.start_job(sid.0, &job(9000 + i, WorkloadKind::Clustering));
            if sid.0 == 0 {
                to_zero += 1;
            }
        }
        // Holding 35.7+0.5 °C steady state needs ≈(36.2−22)×17.5 ≈ 249 W
        // → ≈8 more clustering cores on top of the 12 it kept.
        assert!(to_zero >= 4, "server 0 got only {to_zero} jobs");
        assert!(
            to_zero <= 12,
            "server 0 got {to_zero} jobs — keep-warm did not stop"
        );
    }

    #[test]
    fn never_shrinks_during_the_peak() {
        let (mut farm, mut wa) = setup(6, 22.0);
        let base = wa.hot_group_size().unwrap();
        melt_servers(&mut farm, base);
        load_cold_group(&mut farm, &[(5, 32)]);
        wa.refresh(&farm);
        // Force growth: the melted group is warm and full, so a hot job
        // extends the group onto server 4.
        let sid = wa.place(&job(1, WorkloadKind::WebSearch), &farm).unwrap();
        farm.start_job(sid.0, &job(1, WorkloadKind::WebSearch));
        let grown = wa.hot_group_size().unwrap();
        assert!(grown > base);
        // Near peak → refresh must not shrink, even though the grown
        // server's wax is unmelted.
        wa.refresh(&farm);
        assert_eq!(wa.hot_group_size().unwrap(), grown);
    }

    #[test]
    fn shrinks_after_offpeak_refreeze() {
        let (mut farm, mut wa) = setup(6, 22.0);
        let base = wa.hot_group_size().unwrap();
        melt_servers(&mut farm, base);
        load_cold_group(&mut farm, &[(5, 32)]);
        wa.refresh(&farm);
        let sid = wa.place(&job(1, WorkloadKind::WebSearch), &farm).unwrap();
        farm.start_job(sid.0, &job(1, WorkloadKind::WebSearch));
        assert!(wa.hot_group_size().unwrap() > base);
        // Drain everything and cool until the wax refreezes; off-peak
        // the group returns to its Equation-1 base.
        for s in 0..base {
            for c in 0..32 {
                farm.end_job(s, JobId((s * 100 + c) as u64));
            }
        }
        farm.end_job(sid.0, JobId(1));
        for c in 0..32 {
            farm.end_job(5, JobId(90_000 + 500 + c));
        }
        for _ in 0..(48 * 60) {
            farm.tick_physics(Seconds::new(60.0));
        }
        wa.refresh(&farm);
        assert_eq!(wa.hot_group_size().unwrap(), base);
    }

    #[test]
    fn cold_jobs_prefer_cold_group() {
        let (mut farm, mut wa) = setup(10, 22.0);
        let hot = wa.hot_group_size().unwrap();
        let sid = wa.place(&job(0, WorkloadKind::VirusScan), &farm).unwrap();
        assert!(sid.0 >= hot);
        farm.start_job(sid.0, &job(0, WorkloadKind::VirusScan));
    }

    #[test]
    fn none_only_when_cluster_full() {
        let (mut farm, mut wa) = setup(2, 22.0);
        for s in 0..2 {
            for c in 0..32 {
                farm.start_job(s, &job((s * 100 + c) as u64, WorkloadKind::VirusScan));
            }
        }
        wa.refresh(&farm);
        assert_eq!(wa.place(&job(999, WorkloadKind::WebSearch), &farm), None);
        assert_eq!(wa.place(&job(998, WorkloadKind::VirusScan), &farm), None);
    }
}
