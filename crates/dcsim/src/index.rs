//! The cluster's occupancy, which the engine keeps beside the farm.

use crate::farm::ServerFarm;
use vmt_workload::WorkloadKind;

/// The cluster's one count of busy cores: the cores each workload
/// occupies, and the cluster's core count.
///
/// The farm holds every server's state (air temperature, core counts,
/// power, wax and its reported melt,
/// [`ServerFarm::reported_melt_fraction`]), and the index copies none
/// of its lanes. The per-kind counts are what the arrival planner tops
/// up to each workload's target and what a snapshot carries; their sum
/// makes utilization O(1). The engine is the only writer: the departure
/// sweep subtracts the jobs it ends, and the placement loop adds each
/// job a [`Scheduler::place_batch`] call started, after the call
/// returns ([`ClusterIndex::record_start`]).
///
/// Between the engine's tick phases the total equals the sum of
/// [`ServerFarm::used_cores`]; the engine asserts it in builds with
/// debug assertions.
///
/// [`Scheduler::place_batch`]: crate::Scheduler::place_batch
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    /// Occupied cores per workload, indexed by [`WorkloadKind::index`].
    occupancy: [u64; 5],
    /// Cluster-wide core count (fixed).
    total_cores: u64,
}

impl ClusterIndex {
    /// Counts the farm's running jobs by workload. Servers without jobs
    /// are skipped, so indexing a fresh farm walks no job chain.
    pub fn new(farm: &ServerFarm) -> Self {
        let mut occupancy = [0; 5];
        for i in (0..farm.len()).filter(|&i| farm.used_cores(i) > 0) {
            for (slot, count) in occupancy.iter_mut().zip(farm.kind_counts(i)) {
                *slot += u64::from(count);
            }
        }
        Self {
            occupancy,
            total_cores: farm.len() as u64 * u64::from(farm.cores()),
        }
    }

    /// Occupied cores per workload, indexed by [`WorkloadKind::index`].
    pub fn occupancy(&self) -> [u64; 5] {
        self.occupancy
    }

    /// Cluster-wide occupied cores.
    pub fn used_cores_total(&self) -> u64 {
        self.occupancy.iter().sum()
    }

    /// Cluster-wide core count.
    pub fn total_cores(&self) -> u64 {
        self.total_cores
    }

    /// Fraction of the cluster's cores occupied, in O(1).
    pub fn utilization(&self) -> f64 {
        if self.total_cores == 0 {
            return 0.0;
        }
        self.used_cores_total() as f64 / self.total_cores as f64
    }

    /// Records a job of `kind` started: the engine calls this for each
    /// job a [`Scheduler::place_batch`] call placed, and so must a
    /// harness that drives `place_batch` itself.
    ///
    /// [`Scheduler::place_batch`]: crate::Scheduler::place_batch
    pub fn record_start(&mut self, kind: WorkloadKind) {
        self.occupancy[kind.index()] += 1;
    }

    /// Records `ended[k]` departures of workload `k`.
    pub(crate) fn record_departures(&mut self, ended: &[u32; 5]) {
        for (slot, &count) in self.occupancy.iter_mut().zip(ended) {
            *slot -= u64::from(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use vmt_units::Seconds;
    use vmt_workload::{Job, JobId};

    fn farm(n: usize) -> ServerFarm {
        ServerFarm::from_config(&ClusterConfig::paper_default(n))
    }

    #[test]
    fn counts_the_farm_occupancy() {
        let mut farm = farm(3);
        let index = ClusterIndex::new(&farm);
        assert_eq!(index.total_cores(), 96);
        assert_eq!(index.occupancy(), [0; 5]);
        assert_eq!(index.utilization(), 0.0);
        let kinds = [
            WorkloadKind::WebSearch,
            WorkloadKind::VirusScan,
            WorkloadKind::VirusScan,
        ];
        for (id, kind) in kinds.into_iter().enumerate() {
            farm.start_job(id, &Job::new(JobId(id as u64), kind, Seconds::new(60.0)));
        }
        let index = ClusterIndex::new(&farm);
        assert_eq!(index.occupancy(), [1, 0, 0, 2, 0]);
        assert_eq!(index.used_cores_total(), 3);
        assert_eq!(index.utilization(), 3.0 / 96.0);
    }

    #[test]
    fn tracks_job_lifecycle() {
        let mut farm = farm(2);
        let mut index = ClusterIndex::new(&farm);
        let mut job = Job::new(JobId(1), WorkloadKind::WebSearch, Seconds::new(300.0));
        job.set_due_tick(5);
        farm.start_job(0, &job);
        index.record_start(job.kind());
        assert_eq!(index.used_cores_total(), 1);
        assert_eq!(index.utilization(), 1.0 / 64.0);
        assert_eq!(farm.end_due_jobs(4, 0, &mut index, None, None), 0);
        assert_eq!(farm.end_due_jobs(5, 0, &mut index, None, None), 1);
        assert_eq!(index.occupancy(), [0; 5]);
        assert_eq!(farm.free_cores(0), 32);
    }
}
