//! VMT with thermal-aware job placement (VMT-TA, paper §III-A).

use crate::balance::ThermalBalancer;
use crate::grouping::VmtConfig;
use crate::streams::{self, Rungs, TwoGroups};
use vmt_dcsim::{
    ClusterIndex, PlacementProbe, SavedState, Scheduler, ServerFarm, ServerId, SnapshotError,
    SnapshotState,
};
use vmt_telemetry::SchedulerCounters;
use vmt_workload::{Job, VmtClass};

/// VMT-TA: static hot/cold groups, hot jobs concentrated in the hot
/// group.
///
/// The cluster is split by Equation 1 into a hot group (server ids
/// `0..hot_size`) and a cold group (the rest). Hot-classified jobs
/// (Table I) go to the hot group, cold jobs to the cold group; within
/// each group jobs are "distributed evenly among the servers", realized
/// as temperature balancing ([`ThermalBalancer`]) so that uneven inlet
/// temperatures are compensated rather than amplified. If a job's home
/// group is full it spills into the other group — the paper's overflow
/// rule — so VMT-TA only fails to place a job when the whole cluster is
/// out of cores.
///
/// # Examples
///
/// ```
/// use vmt_core::{GroupingValue, VmtConfig, VmtTa};
/// use vmt_dcsim::{ClusterConfig, Scheduler};
///
/// let cluster = ClusterConfig::paper_default(1000);
/// let ta = VmtTa::new(VmtConfig::new(GroupingValue::new(22.0), &cluster));
/// assert_eq!(ta.name(), "vmt-ta");
/// ```
#[derive(Debug, Clone)]
pub struct VmtTa {
    config: VmtConfig,
    /// Hot-group size; resolved from the cluster on the first tick.
    hot_size: usize,
    hot: ThermalBalancer,
    cold: ThermalBalancer,
    initialized: bool,
    counters: SchedulerCounters,
}

impl VmtTa {
    /// Creates the policy.
    pub fn new(config: VmtConfig) -> Self {
        Self {
            config,
            hot_size: 0,
            hot: ThermalBalancer::new(),
            cold: ThermalBalancer::new(),
            initialized: false,
            counters: SchedulerCounters::default(),
        }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &VmtConfig {
        &self.config
    }

    /// Books a placement ladder's outcome: which group the job landed
    /// in, and whether it spilled out of its home group.
    fn count_placement(&mut self, home_is_hot: bool, in_hot: Option<bool>) {
        let Some(in_hot) = in_hot else { return };
        self.counters.placements += 1;
        if in_hot {
            self.counters.hot_placements += 1;
        } else {
            self.counters.cold_placements += 1;
        }
        if in_hot != home_is_hot {
            self.counters.spills += 1;
        }
    }

    /// The placement ladder: the home group's balancer, then a spill
    /// into the other group's. Returns the decision and its rung label.
    fn ladder(&mut self, job: &Job, farm: &ServerFarm) -> (Option<ServerId>, &'static str) {
        let power = job.core_power().get();
        let home_is_hot = job.kind().vmt_class() == VmtClass::Hot;
        let (mut hot, mut cold) = self.rungs();
        let (home, other) = match home_is_hot {
            true => (&mut hot, &mut cold),
            false => (&mut cold, &mut hot),
        };
        let (spill, exhausted) = match home_is_hot {
            true => ("hot-spill", "hot-exhausted"),
            false => ("cold-spill", "cold-exhausted"),
        };
        let (placed, rung) = match home.place(farm, power) {
            Some((idx, rung)) => (Some((idx, home_is_hot)), rung),
            None => match other.place(farm, power) {
                Some((idx, _)) => (Some((idx, !home_is_hot)), spill),
                None => (None, exhausted),
            },
        };
        self.count_placement(home_is_hot, placed.map(|(_, in_hot)| in_hot));
        (placed.map(|(idx, _)| ServerId(idx)), rung)
    }

    fn refresh(&mut self, farm: &ServerFarm) {
        if self.hot_size == 0 {
            self.hot_size = self.config.hot_group_size(farm.len());
        }
        self.hot.rebuild(0..self.hot_size, farm);
        self.cold.rebuild(self.hot_size..farm.len(), farm);
        self.initialized = true;
    }

    /// The cross-tick state image (also nested in
    /// [`VmtPreserve`](crate::VmtPreserve)'s own state).
    pub(crate) fn to_state(&self) -> VmtTaState {
        VmtTaState {
            config: self.config,
            hot_size: self.hot_size,
            counters: self.counters,
        }
    }

    /// Rebuilds an instance from a state image. Balancers start empty
    /// and are re-derived from the farm in the next tick refresh, before
    /// any placement.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the config breaks
    /// [`VmtConfig::check`].
    pub(crate) fn from_state(state: &VmtTaState) -> Result<Self, SnapshotError> {
        state.config.check()?;
        let mut ta = Self::new(state.config);
        ta.hot_size = state.hot_size;
        ta.counters = state.counters;
        Ok(ta)
    }
}

/// Cross-tick state of [`VmtTa`]: the configuration, the resolved
/// hot-group size, and the cumulative counters. Balancer heaps are
/// per-tick derived state and deliberately absent.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub(crate) struct VmtTaState {
    pub(crate) config: VmtConfig,
    pub(crate) hot_size: usize,
    pub(crate) counters: SchedulerCounters,
}

impl SnapshotState for VmtTa {
    fn state_kind(&self) -> Option<&'static str> {
        Some("vmt-ta")
    }

    fn save_state(&self) -> Result<SavedState, SnapshotError> {
        Ok(SavedState::new("vmt-ta", &self.to_state()))
    }

    fn restore_state(&mut self, saved: &SavedState) -> Result<(), SnapshotError> {
        let state: VmtTaState = saved.decode("vmt-ta")?;
        *self = Self::from_state(&state)?;
        Ok(())
    }
}

impl TwoGroups for VmtTa {
    fn hot_size(&self) -> usize {
        self.hot_size
    }

    /// VMT-TA spills instead of growing: its edge never moves mid-tick.
    fn split_at_edge(&self) -> bool {
        true
    }

    fn rungs(&mut self) -> (Rungs<'_>, Rungs<'_>) {
        let rungs = |balancer, label| Rungs {
            balancer,
            keep_warm: None,
            label,
            kept_warm: 0,
        };
        (
            rungs(&mut self.hot, "hot-balancer"),
            rungs(&mut self.cold, "cold-balancer"),
        )
    }

    fn book_streams(&mut self, hot: u64, cold: u64, _kept_warm: u64) {
        self.counters.placements += hot + cold;
        self.counters.hot_placements += hot;
        self.counters.cold_placements += cold;
    }

    fn place_serial(&mut self, job: &Job, farm: &ServerFarm) -> (Option<ServerId>, &'static str) {
        self.ladder(job, farm)
    }

    fn home_balancer(&self, class: VmtClass) -> &ThermalBalancer {
        match class {
            VmtClass::Hot => &self.hot,
            VmtClass::Cold => &self.cold,
        }
    }
}

impl Scheduler for VmtTa {
    fn name(&self) -> &str {
        "vmt-ta"
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }

    fn on_tick(&mut self, farm: &ServerFarm, _now: vmt_units::Seconds) {
        self.refresh(farm);
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        if !self.initialized {
            self.refresh(farm);
        }
        self.ladder(job, farm).0
    }

    /// Two streams, one per group, up to the stop point, then the
    /// ladder; see [`crate::streams`].
    fn place_batch(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        _index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
    ) {
        if !self.initialized {
            self.refresh(farm);
        }
        streams::place_batch(self, jobs, farm, out, None);
    }

    /// [`VmtTa::place_batch`] reporting sampled jobs' rung, candidates
    /// and winning key; the decisions are the same.
    fn place_batch_traced(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        _index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
        probe: &mut dyn PlacementProbe,
    ) {
        if !self.initialized {
            self.refresh(farm);
        }
        streams::place_batch(self, jobs, farm, out, Some(probe));
    }

    fn hot_group_size(&self) -> Option<usize> {
        Some(self.hot_size.max(1))
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
    use vmt_units::Seconds;
    use vmt_workload::{JobId, WorkloadKind};

    fn setup(n: usize, gv: f64) -> (ServerFarm, VmtTa) {
        let config = ClusterConfig::paper_default(n);
        let farm = ServerFarm::from_config(&config);
        let mut ta = VmtTa::new(VmtConfig::new(GroupingValue::new(gv), &config));
        ta.refresh(&farm);
        (farm, ta)
    }

    fn job(id: u64, kind: WorkloadKind) -> Job {
        Job::new(JobId(id), kind, Seconds::new(300.0))
    }

    #[test]
    fn group_sizing_matches_equation_one() {
        let (_, ta) = setup(100, 22.0);
        assert_eq!(ta.hot_group_size(), Some(62));
    }

    #[test]
    fn hot_jobs_go_to_hot_group_cold_to_cold() {
        let (mut farm, mut ta) = setup(10, 22.0);
        let hot = ta.hot_group_size().unwrap();
        for i in 0..20 {
            let sid = ta.place(&job(i, WorkloadKind::Clustering), &farm).unwrap();
            assert!(sid.0 < hot, "hot job landed on {sid}");
            farm.start_job(sid.0, &job(1000 + i, WorkloadKind::Clustering));
        }
        for i in 0..20 {
            let sid = ta
                .place(&job(100 + i, WorkloadKind::DataCaching), &farm)
                .unwrap();
            assert!(sid.0 >= hot, "cold job landed on {sid}");
            farm.start_job(sid.0, &job(2000 + i, WorkloadKind::DataCaching));
        }
    }

    #[test]
    fn distributes_evenly_within_group() {
        let (mut farm, mut ta) = setup(10, 22.0);
        let hot = ta.hot_group_size().unwrap();
        let mut counts = vec![0usize; 10];
        for i in 0..(hot as u64 * 3) {
            let sid = ta.place(&job(i, WorkloadKind::WebSearch), &farm).unwrap();
            counts[sid.0] += 1;
            farm.start_job(sid.0, &job(5000 + i, WorkloadKind::WebSearch));
        }
        let total: usize = counts[..hot].iter().sum();
        assert_eq!(total, hot * 3);
        for idx in 0..hot {
            // The static anti-synchronization bias allows a ±1 skew.
            assert!((2..=4).contains(&counts[idx]), "server {idx}: {counts:?}");
        }
    }

    #[test]
    fn spills_when_home_group_full() {
        let (mut farm, mut ta) = setup(4, 22.0);
        let hot = ta.hot_group_size().unwrap();
        assert_eq!(hot, 2);
        for s in 0..hot {
            for c in 0..32 {
                farm.start_job(s, &job((s * 100 + c) as u64, WorkloadKind::WebSearch));
            }
        }
        // Rebuild so the balancer sees the filled hot group.
        ta.refresh(&farm);
        let sid = ta
            .place(&job(9999, WorkloadKind::WebSearch), &farm)
            .unwrap();
        assert!(
            sid.0 >= hot,
            "expected spill into the cold group, got {sid}"
        );
    }

    #[test]
    fn none_when_cluster_full() {
        let (mut farm, mut ta) = setup(2, 22.0);
        for s in 0..2 {
            for c in 0..32 {
                farm.start_job(s, &job((s * 100 + c) as u64, WorkloadKind::VirusScan));
            }
        }
        ta.refresh(&farm);
        assert_eq!(ta.place(&job(9999, WorkloadKind::WebSearch), &farm), None);
    }

    #[test]
    fn compensates_uneven_inlets_within_group() {
        // With a 2 °C inlet spread, the warmest hot-group server gets
        // the least load.
        let mut config = ClusterConfig::paper_default(6);
        config.inlet = vmt_thermal::InletModel::normal(
            vmt_units::Celsius::new(22.0),
            vmt_units::DegC::new(2.0),
            9,
        );
        let mut farm = ServerFarm::from_config(&config);
        let mut ta = VmtTa::new(VmtConfig::new(GroupingValue::new(22.0), &config));
        ta.refresh(&farm);
        let hot = ta.hot_group_size().unwrap();
        let mut counts = vec![0usize; 6];
        for i in 0..((hot * 8) as u64) {
            let sid = ta.place(&job(i, WorkloadKind::WebSearch), &farm).unwrap();
            counts[sid.0] += 1;
            farm.start_job(sid.0, &job(5000 + i, WorkloadKind::WebSearch));
        }
        let warmest = (0..hot)
            .max_by(|&a, &b| farm.inlet(a).partial_cmp(&farm.inlet(b)).unwrap())
            .unwrap();
        let coolest = (0..hot)
            .min_by(|&a, &b| farm.inlet(a).partial_cmp(&farm.inlet(b)).unwrap())
            .unwrap();
        assert!(
            counts[warmest] < counts[coolest],
            "warmest {warmest} got {counts:?}"
        );
    }
}
