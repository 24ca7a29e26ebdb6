//! Naive-scan reference schedulers for differential testing.
//!
//! The production policies ([`crate::CoolestFirst`], [`crate::VmtTa`],
//! [`crate::VmtWa`]) run on two fast paths: a [`ThermalBalancer`] heap
//! that picks the coolest member in O(log n), and per-tick scan cursors
//! over the farm's lanes. This module
//! retains the *specification* those optimizations must honor: the same
//! policies written the obvious way — a full linear argmin over the
//! member set for every placement, every flag and core count read
//! straight from the server structs.
//!
//! The references share the key arithmetic ([`balance::fresh_key`],
//! [`balance::bump`]) with the optimized balancer, so they compute
//! byte-identical placement keys; the argmin tie-break (lowest server id
//! among equal keys) also matches the heap's `(key, idx)` ordering.
//! `tests/differential.rs` runs full simulations under both and asserts
//! the entire [`SimulationResult`]s — every cooling sample, heatmap cell,
//! and placement count — are equal. Each reference reports the *same*
//! [`Scheduler::name`] as its optimized twin because the name is part of
//! the result being compared.
//!
//! [`ThermalBalancer`]: crate::ThermalBalancer
//! [`SimulationResult`]: vmt_dcsim::SimulationResult

use crate::balance;
use crate::grouping::VmtConfig;
use crate::vmt_wa::{
    WaTuning, KEEP_WARM_MARGIN_K, KEEP_WARM_MIN_UTILIZATION, REFREEZE_FRACTION,
    SHRINK_MAX_UTILIZATION,
};
use vmt_dcsim::{Scheduler, ServerFarm, ServerId};
use vmt_units::Celsius;
use vmt_workload::{Job, VmtClass};

/// [`crate::ThermalBalancer`] re-specified as a linear scan: every
/// placement walks the whole member set and picks the minimum
/// `(key, server id)` among members with a free core.
#[derive(Debug, Clone, Default)]
pub struct NaiveBalancer {
    /// `member[idx]` — whether server `idx` currently belongs to the set.
    member: Vec<bool>,
    /// Balancing key per server id; meaningful only for members.
    projected: Vec<f64>,
    kelvin_per_watt: f64,
}

impl NaiveBalancer {
    /// Creates an empty balancer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the balancer over `members` (server ids).
    pub fn rebuild(&mut self, members: impl IntoIterator<Item = usize>, farm: &ServerFarm) {
        self.rebuild_biased(members.into_iter().map(|idx| (idx, 0.0)), farm);
    }

    /// Rebuilds over `(member, extra_bias_kelvin)` pairs.
    pub fn rebuild_biased(
        &mut self,
        members: impl IntoIterator<Item = (usize, f64)>,
        farm: &ServerFarm,
    ) {
        self.member.clear();
        self.member.resize(farm.len(), false);
        self.projected.resize(farm.len(), 0.0);
        self.kelvin_per_watt = balance::kelvin_per_watt(farm);
        for (idx, extra) in members {
            self.member[idx] = true;
            self.projected[idx] = balance::fresh_key(idx, extra, self.kelvin_per_watt, farm);
        }
    }

    /// Adds a member mid-tick.
    pub fn add_member(&mut self, idx: usize, farm: &ServerFarm) {
        self.member[idx] = true;
        self.projected[idx] = balance::fresh_key(idx, 0.0, self.kelvin_per_watt, farm);
    }

    /// Full-scan placement: O(members) per job.
    // The index-based loop is the point: this is the seed's scan kept
    // verbatim as the executable specification.
    #[allow(clippy::needless_range_loop)]
    pub fn place(&mut self, farm: &ServerFarm, core_power_w: f64) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for idx in 0..self.member.len() {
            if !self.member[idx] || farm.free_cores(idx) == 0 {
                continue;
            }
            let key = balance::order_bits(self.projected[idx]);
            // Strict `<` on (key, idx): ascending scan keeps the lowest
            // id among equal keys, matching the heap's pop order.
            if best.is_none_or(|b| (key, idx) < b) {
                best = Some((key, idx));
            }
        }
        let (_, idx) = best?;
        self.projected[idx] += balance::bump(core_power_w, self.kelvin_per_watt);
        Some(idx)
    }

    /// Accounts for a placement made outside the balancer.
    pub fn account_external(&mut self, idx: usize, core_power_w: f64, _farm: &ServerFarm) {
        if idx >= self.projected.len() {
            return;
        }
        self.projected[idx] += balance::bump(core_power_w, self.kelvin_per_watt);
    }
}

/// [`crate::CoolestFirst`] with a full argmin scan per placement.
#[derive(Debug, Clone, Default)]
pub struct NaiveCoolestFirst {
    balancer: NaiveBalancer,
    initialized: bool,
}

impl NaiveCoolestFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

// The references are differential-test twins, never checkpointed: the
// default `SnapshotState` reports them as not snapshottable.
impl vmt_dcsim::SnapshotState for NaiveCoolestFirst {}

impl Scheduler for NaiveCoolestFirst {
    fn name(&self) -> &str {
        "coolest-first"
    }

    fn on_tick(&mut self, farm: &ServerFarm, _now: vmt_units::Seconds) {
        self.balancer.rebuild(0..farm.len(), farm);
        self.initialized = true;
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        if !self.initialized {
            self.balancer.rebuild(0..farm.len(), farm);
            self.initialized = true;
        }
        self.balancer
            .place(farm, job.core_power().get())
            .map(ServerId)
    }
}

/// [`crate::VmtTa`] with full argmin scans per placement.
#[derive(Debug, Clone)]
pub struct NaiveVmtTa {
    config: VmtConfig,
    hot_size: usize,
    hot: NaiveBalancer,
    cold: NaiveBalancer,
    initialized: bool,
}

impl NaiveVmtTa {
    /// Creates the policy.
    pub fn new(config: VmtConfig) -> Self {
        Self {
            config,
            hot_size: 0,
            hot: NaiveBalancer::new(),
            cold: NaiveBalancer::new(),
            initialized: false,
        }
    }

    fn refresh(&mut self, farm: &ServerFarm) {
        if self.hot_size == 0 {
            self.hot_size = self.config.hot_group_size(farm.len());
        }
        self.hot.rebuild(0..self.hot_size, farm);
        self.cold.rebuild(self.hot_size..farm.len(), farm);
        self.initialized = true;
    }
}

impl vmt_dcsim::SnapshotState for NaiveVmtTa {}

impl Scheduler for NaiveVmtTa {
    fn name(&self) -> &str {
        "vmt-ta"
    }

    fn on_tick(&mut self, farm: &ServerFarm, _now: vmt_units::Seconds) {
        self.refresh(farm);
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        if !self.initialized {
            self.refresh(farm);
        }
        let power = job.core_power().get();
        let idx = match job.kind().vmt_class() {
            VmtClass::Hot => self
                .hot
                .place(farm, power)
                .or_else(|| self.cold.place(farm, power)),
            VmtClass::Cold => self
                .cold
                .place(farm, power)
                .or_else(|| self.hot.place(farm, power)),
        };
        idx.map(ServerId)
    }

    fn hot_group_size(&self) -> Option<usize> {
        Some(self.hot_size.max(1))
    }
}

/// [`crate::VmtWa`] with full rescans everywhere: flags and utilization
/// recomputed from the server structs each tick, every fallback a fresh
/// `0..hot_size` scan, every balanced placement a full argmin.
#[derive(Debug, Clone)]
pub struct NaiveVmtWa {
    config: VmtConfig,
    tuning: WaTuning,
    base_hot: usize,
    hot_size: usize,
    keep_warm: Vec<usize>,
    hot: NaiveBalancer,
    cold: NaiveBalancer,
    melted: Vec<bool>,
    below_melt: Vec<bool>,
}

impl NaiveVmtWa {
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
            hot: NaiveBalancer::new(),
            cold: NaiveBalancer::new(),
            melted: Vec::new(),
            below_melt: Vec::new(),
        }
    }

    fn projected_temp(farm: &ServerFarm, idx: usize) -> Celsius {
        farm.inlet(idx)
            + vmt_units::DegC::new(farm.power(idx).get() / farm.air().capacity_rate().get())
    }

    fn warm_line(&self) -> Celsius {
        self.config.pmt + vmt_units::DegC::new(KEEP_WARM_MARGIN_K)
    }

    fn refresh(&mut self, farm: &ServerFarm) {
        let n = farm.len();
        if self.base_hot == 0 {
            self.base_hot = self.config.hot_group_size(n);
            self.hot_size = self.base_hot;
        }
        self.melted.clear();
        self.below_melt.clear();
        for i in 0..n {
            self.melted
                .push(farm.reported_melt_fraction(i).get() >= self.config.wax_threshold);
            self.below_melt.push(farm.air_at_wax(i) < self.config.pmt);
        }
        let used: u32 = (0..n).map(|i| farm.used_cores(i)).sum();
        let total: u32 = (0..n).map(|_| farm.cores()).sum();
        let utilization = f64::from(used) / f64::from(total);
        let near_peak = utilization >= KEEP_WARM_MIN_UTILIZATION;
        while utilization < SHRINK_MAX_UTILIZATION && self.hot_size > self.base_hot {
            let idx = self.hot_size - 1;
            let refrozen =
                farm.reported_melt_fraction(idx).get() < REFREEZE_FRACTION && self.below_melt[idx];
            if refrozen {
                self.hot_size -= 1;
            } else {
                break;
            }
        }
        if near_peak && self.tuning.count_growth_per_tick > 0 {
            let melted_count = self.melted[..self.hot_size].iter().filter(|&&m| m).count();
            let target = (self.base_hot + melted_count).clamp(self.hot_size, n);
            self.hot_size = target.min(self.hot_size + self.tuning.count_growth_per_tick);
        }
        let warm_line = self.warm_line();
        self.keep_warm.clear();
        let mut members = Vec::with_capacity(self.hot_size);
        #[allow(clippy::needless_range_loop)] // indices double as balancer keys
        for idx in 0..self.hot_size {
            if near_peak && self.melted[idx] {
                if self.tuning.keep_warm && Self::projected_temp(farm, idx) < warm_line {
                    self.keep_warm.push(idx);
                }
                members.push((idx, self.tuning.melted_penalty_k));
            } else {
                members.push((idx, 0.0));
            }
        }
        self.hot.rebuild_biased(members, farm);
        self.cold.rebuild(self.hot_size..n, farm);
    }

    fn place_hot(&mut self, farm: &ServerFarm, core_power_w: f64) -> Option<ServerId> {
        let n = farm.len();
        while let Some(&idx) = self.keep_warm.last() {
            if farm.free_cores(idx) > 0 && Self::projected_temp(farm, idx) < self.warm_line() {
                self.hot.account_external(idx, core_power_w, farm);
                return Some(ServerId(idx));
            }
            self.keep_warm.pop();
        }
        if let Some(idx) = self.hot.place(farm, core_power_w) {
            return Some(ServerId(idx));
        }
        while self.hot_size < n {
            let idx = self.hot_size;
            self.hot_size += 1;
            self.hot.add_member(idx, farm);
            if let Some(found) = self.hot.place(farm, core_power_w) {
                return Some(ServerId(found));
            }
        }
        (0..n)
            .find(|&i| !self.melted[i] && farm.free_cores(i) > 0)
            .or_else(|| (0..n).find(|&i| farm.free_cores(i) > 0))
            .map(ServerId)
    }

    fn place_cold(&mut self, farm: &ServerFarm, core_power_w: f64) -> Option<ServerId> {
        if let Some(idx) = self.cold.place(farm, core_power_w) {
            return Some(ServerId(idx));
        }
        (0..self.hot_size)
            .find(|&i| self.melted[i] && !self.below_melt[i] && farm.free_cores(i) > 0)
            .or_else(|| (0..self.hot_size).find(|&i| farm.free_cores(i) > 0))
            .map(ServerId)
    }
}

impl vmt_dcsim::SnapshotState for NaiveVmtWa {}

impl Scheduler for NaiveVmtWa {
    fn name(&self) -> &str {
        "vmt-wa"
    }

    fn on_tick(&mut self, farm: &ServerFarm, _now: vmt_units::Seconds) {
        self.refresh(farm);
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        if self.melted.len() != farm.len() {
            self.refresh(farm);
        }
        match job.kind().vmt_class() {
            VmtClass::Hot => self.place_hot(farm, job.core_power().get()),
            VmtClass::Cold => self.place_cold(farm, job.core_power().get()),
        }
    }

    fn hot_group_size(&self) -> Option<usize> {
        Some(self.hot_size.max(self.base_hot).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupingValue;
    use vmt_dcsim::ClusterConfig;
    use vmt_units::Seconds;
    use vmt_workload::{JobId, WorkloadKind};

    fn farm(n: usize) -> ServerFarm {
        ServerFarm::from_config(&ClusterConfig::paper_default(n))
    }

    fn job(id: u64, kind: WorkloadKind) -> Job {
        Job::new(JobId(id), kind, Seconds::new(300.0))
    }

    #[test]
    fn naive_balancer_matches_heap_balancer_placement_for_placement() {
        // Same members, same placement stream → identical choices.
        let list = farm(8);
        let mut naive = NaiveBalancer::new();
        let mut fast = crate::ThermalBalancer::new();
        naive.rebuild(0..8, &list);
        fast.rebuild(0..8, &list);
        for _ in 0..200 {
            assert_eq!(naive.place(&list, 7.6), fast.place(&list, 7.6));
        }
    }

    #[test]
    fn naive_policies_report_twin_names() {
        let cluster = ClusterConfig::paper_default(10);
        let vmt = VmtConfig::new(GroupingValue::new(22.0), &cluster);
        assert_eq!(NaiveCoolestFirst::new().name(), "coolest-first");
        assert_eq!(NaiveVmtTa::new(vmt).name(), "vmt-ta");
        assert_eq!(NaiveVmtWa::new(vmt).name(), "vmt-wa");
    }

    #[test]
    fn naive_coolest_first_places_on_the_cooler_server() {
        let mut list = farm(2);
        for i in 0..16 {
            list.start_job(0, &job(100 + i, WorkloadKind::Clustering));
        }
        let mut cf = NaiveCoolestFirst::new();
        cf.on_tick(&list, Seconds::ZERO);
        assert_eq!(
            cf.place(&job(0, WorkloadKind::WebSearch), &list),
            Some(ServerId(1))
        );
    }
}
