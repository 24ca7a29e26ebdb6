//! A scheduler wrapper that forwards every call and times the per-tick
//! ones, so a traced run sees the policy layer without instrumenting it.

use crate::spans::{span, Spans};
use vmt_dcsim::{
    ClusterIndex, PlacementProbe, SavedState, Scheduler, ServerFarm, ServerId, SnapshotError,
    SnapshotState,
};
use vmt_units::Seconds;
use vmt_workload::Job;

/// Forwards to `inner`; `on_tick*` and `place_batch*` run inside spans.
pub struct Probe {
    inner: Box<dyn Scheduler>,
    spans: Spans,
}

impl Probe {
    /// Wraps `inner`, recording into `spans`.
    pub fn wrap(inner: Box<dyn Scheduler>, spans: &Spans) -> Box<dyn Scheduler> {
        Box::new(Probe {
            inner,
            spans: spans.clone(),
        })
    }
}

impl SnapshotState for Probe {
    fn state_kind(&self) -> Option<&'static str> {
        self.inner.state_kind()
    }

    fn save_state(&self) -> Result<SavedState, SnapshotError> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, saved: &SavedState) -> Result<(), SnapshotError> {
        self.inner.restore_state(saved)
    }
}

impl Scheduler for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_tick(&mut self, farm: &ServerFarm, now: Seconds) {
        span(Some(&self.spans), "core.on_tick", || {
            self.inner.on_tick(farm, now);
        });
    }

    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        self.inner.place(job, farm)
    }

    fn on_tick_indexed(&mut self, farm: &ServerFarm, index: &ClusterIndex, now: Seconds) {
        span(Some(&self.spans), "core.on_tick", || {
            self.inner.on_tick_indexed(farm, index, now);
        });
    }

    fn place_indexed(
        &mut self,
        job: &Job,
        farm: &ServerFarm,
        index: &ClusterIndex,
    ) -> Option<ServerId> {
        self.inner.place_indexed(job, farm, index)
    }

    fn place_batch(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
    ) {
        span(Some(&self.spans), "core.place_batch", || {
            self.inner.place_batch(jobs, farm, index, out);
        });
    }

    fn place_batch_traced(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
        probe: &mut dyn PlacementProbe,
    ) {
        span(Some(&self.spans), "core.place_batch", || {
            self.inner.place_batch_traced(jobs, farm, index, out, probe);
        });
    }

    fn observe_zones(&mut self, zone_temps: &[f64]) {
        self.inner.observe_zones(zone_temps);
    }

    fn hot_group_size(&self) -> Option<usize> {
        self.inner.hot_group_size()
    }

    fn counters(&self) -> Option<vmt_telemetry::SchedulerCounters> {
        self.inner.counters()
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        let inner = self.inner.clone_box()?;
        Some(Probe::wrap(inner, &self.spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanLog;
    use vmt_core::PolicyKind;
    use vmt_dcsim::{ClusterConfig, Simulation};
    use vmt_workload::{DiurnalTrace, TraceConfig};

    fn short_run(wrap: Option<&Spans>) -> (u64, u64) {
        let cluster = ClusterConfig::paper_default(40);
        let mut trace = TraceConfig::paper_default();
        trace.horizon = vmt_units::Hours::new(2.0);
        let mut policy = PolicyKind::vmt_wa(22.0).build(&cluster);
        if let Some(spans) = wrap {
            policy = Probe::wrap(policy, spans);
        }
        let mut sim = Simulation::new(cluster, DiurnalTrace::new(trace), policy).with_threads(1);
        sim.run_until(60);
        // A wrapped policy checkpoints and forks like the policy itself.
        let snapshot = sim.snapshot().expect("the wrapper forwards save_state");
        let fork = sim.fork().expect("the wrapper forwards clone_box");
        let digest = sim.state_digest();
        assert_eq!(fork.state_digest(), digest);
        assert_eq!(snapshot.scheduler.kind, "vmt-wa");
        let (result, _) = sim.finish();
        (digest, result.placements)
    }

    #[test]
    fn wrapped_policy_runs_bit_identically_and_records_spans() {
        let spans = SpanLog::shared();
        assert_eq!(short_run(None), short_run(Some(&spans)));
        let log = spans.borrow();
        assert_eq!(log.durations_s("core.on_tick").len(), 60);
        assert_eq!(log.durations_s("core.place_batch").len(), 60);
    }
}
