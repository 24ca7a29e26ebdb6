//! The cluster state the engine keeps beside the farm.

use crate::farm::ServerFarm;

/// What the engine keeps beside the [`ServerFarm`]: every server's
/// reported wax state as one lane and the cluster's occupancy totals.
///
/// The farm holds every server's physical state (air temperature, core
/// counts, power, wax), and the index copies none of its lanes. It
/// holds:
///
/// * the *reported* melt fraction per server — the on-server
///   estimator's report (or, under the `oracle_wax_state` ablation, the
///   physical fraction), written by the physics sweep once a tick — as
///   one contiguous lane telemetry, watchdogs and digests scan;
/// * the used and total core counts of the whole cluster, so
///   utilization is O(1). The engine is the only writer of the used
///   total: the departure sweep subtracts the jobs it ends, and the
///   placement loop adds the jobs each [`Scheduler::place_batch`] call
///   started, after the call returns.
///
/// Between the engine's tick phases each report equals
/// [`ServerFarm::reported_melt_fraction`] and the used total equals the
/// sum of [`ServerFarm::used_cores`], bit for bit; the engine asserts
/// both in builds with debug assertions.
///
/// [`Scheduler::place_batch`]: crate::Scheduler::place_batch
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    /// Reported melt fraction per server; equals
    /// [`ServerFarm::reported_melt_fraction`] as of the last physics
    /// tick.
    reported_melt: Vec<f64>,
    /// Cluster-wide occupied cores.
    used_total: u64,
    /// Cluster-wide core count (fixed).
    total_cores: u64,
}

impl ClusterIndex {
    /// Builds the index from the farm's current state.
    pub fn new(farm: &ServerFarm) -> Self {
        let n = farm.len();
        Self {
            reported_melt: (0..n)
                .map(|i| farm.reported_melt_fraction(i).get())
                .collect(),
            used_total: (0..n).map(|i| u64::from(farm.used_cores(i))).sum(),
            total_cores: n as u64 * u64::from(farm.cores()),
        }
    }

    /// Number of indexed servers.
    pub fn len(&self) -> usize {
        self.reported_melt.len()
    }

    /// True when the index covers no servers.
    pub fn is_empty(&self) -> bool {
        self.reported_melt.is_empty()
    }

    /// Per-server reported melt fraction.
    pub fn reported_melt(&self) -> &[f64] {
        &self.reported_melt
    }

    /// Cluster-wide occupied cores.
    pub fn used_cores_total(&self) -> u64 {
        self.used_total
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
        self.used_total as f64 / self.total_cores as f64
    }

    /// The reported-melt lane, written in bulk by the farm's sharded
    /// physics sweep.
    pub(crate) fn reported_melt_mut(&mut self) -> &mut [f64] {
        &mut self.reported_melt
    }

    /// Records `count` job starts: the engine calls this once per
    /// [`Scheduler::place_batch`] call with the number of jobs the call
    /// placed, and so must a harness that drives `place_batch` itself.
    ///
    /// [`Scheduler::place_batch`]: crate::Scheduler::place_batch
    pub fn record_starts(&mut self, count: u64) {
        self.used_total += count;
    }

    /// Records `count` job ends.
    pub(crate) fn record_ends(&mut self, count: u64) {
        self.used_total -= count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use vmt_units::Seconds;
    use vmt_workload::{Job, JobId, WorkloadKind};

    fn farm(n: usize) -> ServerFarm {
        ServerFarm::from_config(&ClusterConfig::paper_default(n))
    }

    #[test]
    fn mirrors_initial_server_state() {
        let farm = farm(3);
        let index = ClusterIndex::new(&farm);
        assert_eq!(index.len(), 3);
        assert_eq!(index.total_cores(), 96);
        assert_eq!(index.used_cores_total(), 0);
        assert_eq!(index.utilization(), 0.0);
        for i in 0..farm.len() {
            assert_eq!(
                index.reported_melt()[i],
                farm.reported_melt_fraction(i).get()
            );
        }
    }

    #[test]
    fn tracks_job_lifecycle() {
        let mut farm = farm(2);
        let mut index = ClusterIndex::new(&farm);
        let mut job = Job::new(JobId(1), WorkloadKind::WebSearch, Seconds::new(300.0));
        job.set_due_tick(5);
        farm.start_job(0, &job);
        index.record_starts(1);
        assert_eq!(index.used_cores_total(), 1);
        assert_eq!(index.utilization(), 1.0 / 64.0);
        let mut occupancy = [1; 5];
        assert_eq!(
            farm.end_due_jobs(4, 0, &mut index, &mut occupancy, None, None),
            0
        );
        assert_eq!(
            farm.end_due_jobs(5, 0, &mut index, &mut occupancy, None, None),
            1
        );
        assert_eq!(occupancy[WorkloadKind::WebSearch.index()], 0);
        assert_eq!(farm.free_cores(0), 32);
        assert_eq!(index.used_cores_total(), 0);
    }

    #[test]
    fn tracks_physics_state() {
        let mut farm = farm(1);
        let mut index = ClusterIndex::new(&farm);
        for i in 0..32 {
            farm.start_job(
                0,
                &Job::new(JobId(i), WorkloadKind::VideoEncoding, Seconds::new(3600.0)),
            );
        }
        index.record_starts(32);
        for _ in 0..240 {
            farm.tick_physics_recorded(Seconds::new(60.0), 0, &mut index, None, None, None);
        }
        assert!(farm.air_at_wax(0).get() > 22.0);
        assert!(index.reported_melt()[0] > 0.0);
        assert_eq!(
            index.reported_melt()[0],
            farm.reported_melt_fraction(0).get()
        );
    }
}
