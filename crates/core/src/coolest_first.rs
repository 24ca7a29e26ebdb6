//! The coolest-first baseline: a thermal-aware load *balancer*.

use crate::balance::ThermalBalancer;
use vmt_dcsim::{
    ClusterIndex, SavedState, Scheduler, ServerFarm, ServerId, SnapshotError, SnapshotState,
};
use vmt_telemetry::SchedulerCounters;
use vmt_units::Seconds;
use vmt_workload::Job;

/// Coolest-first placement: each job goes to the server with the most
/// thermal headroom.
///
/// Implemented with a [`ThermalBalancer`] over the whole cluster:
/// projections start from each server's steady-state temperature and are
/// bumped per placement, which is what a production coolest-first
/// balancer with a power model does. The result is the tight temperature
/// distribution of the paper's Figure 10 — and, like round robin, no
/// melted wax, because equalized temperatures sit at the cluster average
/// and the average never crosses the melt line.
#[derive(Debug, Clone, Default)]
pub struct CoolestFirst {
    balancer: ThermalBalancer,
    initialized: bool,
    counters: SchedulerCounters,
}

impl CoolestFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Cross-tick state of [`CoolestFirst`]: just the counters — the
/// balancer heap is rebuilt from the farm in every tick refresh, so a
/// restored instance re-derives it before its first placement.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct CoolestFirstState {
    counters: SchedulerCounters,
}

impl SnapshotState for CoolestFirst {
    fn state_kind(&self) -> Option<&'static str> {
        Some("coolest-first")
    }

    fn save_state(&self) -> Result<SavedState, SnapshotError> {
        Ok(SavedState::new(
            "coolest-first",
            &CoolestFirstState {
                counters: self.counters,
            },
        ))
    }

    fn restore_state(&mut self, saved: &SavedState) -> Result<(), SnapshotError> {
        let state: CoolestFirstState = saved.decode("coolest-first")?;
        self.balancer = ThermalBalancer::new();
        self.initialized = false;
        self.counters = state.counters;
        Ok(())
    }
}

impl Scheduler for CoolestFirst {
    fn name(&self) -> &str {
        "coolest-first"
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }

    fn on_tick(&mut self, farm: &ServerFarm, _now: Seconds) {
        self.balancer.rebuild(0..farm.len(), farm);
        self.initialized = true;
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        if !self.initialized {
            self.balancer.rebuild(0..farm.len(), farm);
            self.initialized = true;
        }
        let placed = self.balancer.place(farm, job.core_power().get());
        self.counters.placements += u64::from(placed.is_some());
        placed.map(ServerId)
    }

    fn place_batch(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        _index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
    ) {
        if !self.initialized {
            self.balancer.rebuild(0..farm.len(), farm);
            self.initialized = true;
        }
        // Software-pipelined batch placement: while this job's
        // bookkeeping commits, the *predicted* next winner's farm lanes
        // and balancer path are already being pulled in —
        // the balancer's root winner only changes when a placement
        // lands, so the prediction is almost always right and a miss
        // costs one wasted cache fill. Prime the first iteration's
        // winner before the loop.
        if let Some(first) = self.balancer.peek() {
            farm.prefetch_server(first);
            self.balancer.prefetch_member(first);
        }
        for job in jobs {
            let placed = self.balancer.place(farm, job.core_power().get());
            self.counters.placements += u64::from(placed.is_some());
            if let Some(idx) = placed {
                farm.start_job(idx, job);
            }
            out.push(placed.map(ServerId));
            if let Some(next) = self.balancer.peek() {
                farm.prefetch_server(next);
                self.balancer.prefetch_member(next);
            }
        }
    }

    fn counters(&self) -> Option<SchedulerCounters> {
        Some(self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmt_dcsim::ClusterConfig;
    use vmt_workload::{JobId, WorkloadKind};

    fn farm(n: usize) -> ServerFarm {
        ServerFarm::from_config(&ClusterConfig::paper_default(n))
    }

    fn job(id: u64, kind: WorkloadKind) -> Job {
        Job::new(JobId(id), kind, Seconds::new(300.0))
    }

    #[test]
    fn picks_the_cooler_server() {
        let mut farm = farm(2);
        // Load server 0; its projected steady temperature rises.
        for i in 0..16 {
            farm.start_job(0, &job(100 + i, WorkloadKind::Clustering));
        }
        let mut cf = CoolestFirst::new();
        cf.on_tick(&farm, Seconds::ZERO);
        assert_eq!(
            cf.place(&job(0, WorkloadKind::WebSearch), &farm),
            Some(ServerId(1))
        );
    }

    #[test]
    fn spreads_burst_across_equally_cool_servers() {
        let farm = farm(4);
        let mut cf = CoolestFirst::new();
        cf.on_tick(&farm, Seconds::ZERO);
        let mut counts = [0usize; 4];
        for i in 0..40 {
            let sid = cf
                .place(&job(i, WorkloadKind::VideoEncoding), &farm)
                .unwrap();
            counts[sid.0] += 1;
        }
        // The static anti-synchronization bias allows a ±1 skew.
        assert_eq!(counts.iter().sum::<usize>(), 40);
        assert!(counts.iter().all(|&c| (9..=11).contains(&c)), "{counts:?}");
    }

    #[test]
    fn none_when_cluster_full() {
        let mut farm = farm(1);
        for i in 0..32 {
            farm.start_job(0, &job(i, WorkloadKind::VirusScan));
        }
        let mut cf = CoolestFirst::new();
        cf.on_tick(&farm, Seconds::ZERO);
        assert_eq!(cf.place(&job(99, WorkloadKind::WebSearch), &farm), None);
        assert!(cf.hot_group_size().is_none());
    }
}
