//! Incrementally maintained cluster state for schedulers.

use crate::farm::ServerFarm;

/// Flat per-server state the engine keeps current so schedulers can
/// query the cluster without rescanning the farm.
///
/// The engine updates the index at the moments the underlying state
/// changes — thermal fields during the physics pass, core counts on
/// every job start/end — so at the points where schedulers run
/// ([`Scheduler::on_tick_indexed`] and [`Scheduler::place_indexed`])
/// each field is exactly the value the corresponding [`ServerFarm`]
/// accessor would return. That makes the index a pure read-path
/// optimization: policies written against it are observationally
/// identical to policies that walk the farm, just without the per-job
/// O(n) scans.
///
/// [`Scheduler::on_tick_indexed`]: crate::Scheduler::on_tick_indexed
/// [`Scheduler::place_indexed`]: crate::Scheduler::place_indexed
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    /// Air temperature at the wax exchanger per server (°C); equals
    /// [`Server::air_at_wax`] as of the last physics tick.
    air_c: Vec<f64>,
    /// Estimator-reported melt fraction per server; equals
    /// [`Server::reported_melt_fraction`] as of the last physics tick.
    reported_melt: Vec<f64>,
    /// Free cores per server, updated on every job start/end.
    free_cores: Vec<u32>,
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
            air_c: (0..n).map(|i| farm.air_at_wax(i).get()).collect(),
            reported_melt: (0..n)
                .map(|i| farm.reported_melt_fraction(i).get())
                .collect(),
            free_cores: (0..n).map(|i| farm.free_cores(i)).collect(),
            used_total: (0..n).map(|i| u64::from(farm.used_cores(i))).sum(),
            total_cores: (0..n).map(|_| u64::from(farm.cores())).sum(),
        }
    }

    /// Number of indexed servers.
    pub fn len(&self) -> usize {
        self.air_c.len()
    }

    /// True when the index covers no servers.
    pub fn is_empty(&self) -> bool {
        self.air_c.is_empty()
    }

    /// Per-server air temperature at the wax exchanger (°C).
    pub fn air_c(&self) -> &[f64] {
        &self.air_c
    }

    /// Per-server estimator-reported melt fraction.
    pub fn reported_melt(&self) -> &[f64] {
        &self.reported_melt
    }

    /// Per-server free cores.
    pub fn free_cores(&self) -> &[u32] {
        &self.free_cores
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

    /// Records the post-physics thermal state of server `idx`.
    #[cfg(test)]
    pub(crate) fn record_physics(&mut self, idx: usize, air_c: f64, reported_melt: f64) {
        self.air_c[idx] = air_c;
        self.reported_melt[idx] = reported_melt;
    }

    /// Mutable views of the thermal columns, written in bulk by the
    /// farm's sharded physics sweep.
    pub(crate) fn physics_slices_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.air_c, &mut self.reported_melt)
    }

    /// Records a job start on server `idx`. Public because a
    /// [`Scheduler::place_batch`] override starts jobs itself and must
    /// keep the index in lockstep with the farm, exactly as the default
    /// batch body does.
    ///
    /// [`Scheduler::place_batch`]: crate::Scheduler::place_batch
    #[inline]
    pub fn record_start(&mut self, idx: usize) {
        self.free_cores[idx] -= 1;
        self.used_total += 1;
    }

    /// Mutable view of the free-core column, written shard-locally by
    /// the farm's departure sweep and group views.
    pub(crate) fn free_cores_mut(&mut self) -> &mut [u32] {
        &mut self.free_cores
    }

    /// Hints the CPU to pull server `idx`'s free-core entry toward L1.
    /// Architecturally a no-op; see [`ServerFarm::prefetch_server`]
    /// (same predicted-winner pattern, same soundness argument).
    ///
    /// [`ServerFarm::prefetch_server`]: crate::ServerFarm::prefetch_server
    #[inline]
    pub fn prefetch_server(&self, idx: usize) {
        #[cfg(target_arch = "x86_64")]
        if idx < self.free_cores.len() {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: `idx` is in bounds (checked above); prefetch never
            // faults architecturally.
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(self.free_cores.as_ptr().add(idx).cast());
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }

    /// Records `count` job starts whose per-server free-core decrements
    /// were already applied through [`ClusterIndex::free_cores_mut`].
    pub(crate) fn record_bulk_starts(&mut self, count: u64) {
        self.used_total += count;
    }

    /// Records `count` job ends whose per-server free-core increments
    /// were already applied through [`ClusterIndex::free_cores_mut`].
    pub(crate) fn record_bulk_ends(&mut self, count: u64) {
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
            assert_eq!(index.air_c()[i], farm.air_at_wax(i).get());
            assert_eq!(
                index.reported_melt()[i],
                farm.reported_melt_fraction(i).get()
            );
            assert_eq!(index.free_cores()[i], farm.free_cores(i));
        }
    }

    #[test]
    fn tracks_job_lifecycle() {
        let mut farm = farm(2);
        let mut index = ClusterIndex::new(&farm);
        let mut job = Job::new(JobId(1), WorkloadKind::WebSearch, Seconds::new(300.0));
        job.set_due_tick(5);
        farm.start_job(0, &job);
        index.record_start(0);
        assert_eq!(index.free_cores()[0], farm.free_cores(0));
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
        assert_eq!(index.free_cores()[0], farm.free_cores(0));
        assert_eq!(index.used_cores_total(), 0);
    }

    #[test]
    fn tracks_physics_state() {
        let mut farm = farm(1);
        let mut index = ClusterIndex::new(&farm);
        for i in 0..8 {
            farm.start_job(
                0,
                &Job::new(JobId(i), WorkloadKind::VideoEncoding, Seconds::new(3600.0)),
            );
            index.record_start(0);
        }
        for _ in 0..60 {
            farm.tick_physics(Seconds::new(60.0));
        }
        index.record_physics(
            0,
            farm.air_at_wax(0).get(),
            farm.reported_melt_fraction(0).get(),
        );
        assert_eq!(index.air_c()[0], farm.air_at_wax(0).get());
        assert!(index.air_c()[0] > 22.0);
    }
}
