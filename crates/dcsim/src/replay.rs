//! Scheduler wrappers that record and replay placement-decision traces.
//!
//! The trace data model (header/tick/footer lines, [`StateHasher`])
//! lives in [`vmt_telemetry::replay`]; this module supplies the two
//! [`Scheduler`] implementations that produce and consume traces plus
//! the digest functions tying them to engine state:
//!
//! * [`RecordingScheduler`] wraps any policy, delegates every call, and
//!   logs the tick-boundary state digest, the policy's hot-group size,
//!   and every placement decision into a shared [`TraceHandle`].
//! * [`ReplayScheduler`] drives a simulation *from* a trace: decisions
//!   come straight off the recorded stream (the policy is bypassed
//!   entirely) while every tick's recomputed digest is compared against
//!   the recorded one. Bit-identical digests prove the trace captured
//!   everything that influenced the run; the first mismatch localizes a
//!   divergence for bisection.
//!
//! Both wrappers share their results through `Arc<Mutex<_>>` handles
//! because [`Simulation::run`](crate::Simulation::run) consumes its
//! boxed scheduler — the caller keeps a handle clone and reads it back
//! after the run.

use crate::farm::ServerFarm;
use crate::index::ClusterIndex;
use crate::metrics::SimulationResult;
use crate::scheduler::Scheduler;
use crate::server::ServerId;
use std::sync::{Arc, Mutex};
use vmt_telemetry::replay::{
    PlacementTrace, ReplayVerdict, StateHasher, TickTrace, TraceFooter, TraceHeader,
};
use vmt_units::Seconds;
use vmt_workload::Job;

/// Digest of the scheduler-visible cluster state at the tick boundary
/// (after departures, before placements) — exactly the state a policy's
/// decisions depend on: the server count, every server's air at the
/// wax, reported melt and free cores (from the farm), and the used-core
/// total (from the index), in that order.
///
/// Zone-cooling temperatures are deliberately *excluded*: they are
/// derived, observational state (a deterministic function of the power
/// lane's history that never feeds back into placement), so including
/// them would change every recorded digest without adding discriminating
/// power — and would break replay of traces recorded before zones
/// existed. Zone state is pinned separately by the snapshot round-trip
/// tests.
pub fn digest_index(farm: &ServerFarm, index: &ClusterIndex) -> u64 {
    let mut h = StateHasher::new();
    h.write_u64(farm.len() as u64);
    for &v in farm.air_at_wax_lane() {
        h.write_f64(v);
    }
    for i in 0..farm.len() {
        h.write_f64(farm.reported_melt_fraction(i).get());
    }
    for &used in farm.used_cores_lane() {
        h.write_u64(u64::from(farm.cores() - used));
    }
    h.write_u64(index.used_cores_total());
    h.finish()
}

/// Digest of a finished run: the result's full series plus every
/// server's final occupancy and thermal state, read from the farm in
/// server order. Two runs with equal final digests produced
/// bit-identical trajectories.
pub fn digest_final_state(result: &SimulationResult, farm: &ServerFarm) -> u64 {
    let mut h = StateHasher::new();
    h.write_u64(result.placements);
    h.write_u64(result.dropped_jobs);
    for w in result.cooling.samples() {
        h.write_f64(w.get());
    }
    for w in result.electrical.samples() {
        h.write_f64(w.get());
    }
    for c in &result.avg_temp {
        h.write_f64(c.get());
    }
    for c in &result.hot_group_temp {
        h.write_f64(c.get());
    }
    for &s in &result.hot_group_sizes {
        h.write_u64(s as u64);
    }
    for j in &result.stored_energy {
        h.write_f64(j.get());
    }
    for i in 0..farm.len() {
        h.write_u64(u64::from(farm.used_cores(i)));
        h.write_f64(farm.air_at_wax(i).get());
        h.write_f64(farm.reported_melt_fraction(i).get());
    }
    h.finish()
}

/// The in-flight tick log a [`RecordingScheduler`] appends to.
#[derive(Debug, Default)]
struct TraceLog {
    ticks: Vec<TickTrace>,
}

/// Caller-side handle to a recording in progress.
///
/// Keep a clone before boxing the [`RecordingScheduler`]; after the run
/// finishes, [`TraceHandle::into_trace`] assembles the complete
/// [`PlacementTrace`] (footer digest included).
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Arc<Mutex<TraceLog>>);

impl TraceHandle {
    /// Creates an empty handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles the finished trace from the recorded ticks and the
    /// run's end state.
    pub fn into_trace(
        &self,
        header: TraceHeader,
        result: &SimulationResult,
        farm: &ServerFarm,
    ) -> PlacementTrace {
        let log = self.0.lock().expect("trace handle poisoned");
        PlacementTrace {
            header,
            ticks: log.ticks.clone(),
            footer: TraceFooter {
                placements: result.placements,
                dropped_jobs: result.dropped_jobs,
                final_digest: digest_final_state(result, farm),
                ticks_run: log.ticks.len() as u64,
            },
        }
    }
}

/// Wraps a policy and records its full decision stream.
///
/// Observationally transparent: every trait call is delegated, so a
/// recorded run is bit-identical to a bare one under the same policy.
pub struct RecordingScheduler {
    inner: Box<dyn Scheduler>,
    log: TraceHandle,
    tick: u64,
}

impl RecordingScheduler {
    /// Wraps `inner`, appending the recording into `log`.
    pub fn new(inner: Box<dyn Scheduler>, log: TraceHandle) -> Self {
        Self {
            inner,
            log,
            tick: 0,
        }
    }
}

// Recording wraps a live trace handle; it exists only inside one
// process, so the default "not checkpointable" SnapshotState applies.
impl crate::snapshot::SnapshotState for RecordingScheduler {}

impl Scheduler for RecordingScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&mut self, _job: &Job, _farm: &ServerFarm) -> Option<ServerId> {
        unreachable!("engine drives place_indexed");
    }

    fn on_tick_indexed(&mut self, farm: &ServerFarm, index: &ClusterIndex, now: Seconds) {
        let digest = digest_index(farm, index);
        self.log
            .0
            .lock()
            .expect("trace handle poisoned")
            .ticks
            .push(TickTrace {
                t: self.tick,
                digest,
                hot: None,
                decisions: Vec::new(),
            });
        self.tick += 1;
        self.inner.on_tick_indexed(farm, index, now);
    }

    fn place_indexed(
        &mut self,
        job: &Job,
        farm: &ServerFarm,
        index: &ClusterIndex,
    ) -> Option<ServerId> {
        let decision = self.inner.place_indexed(job, farm, index);
        let encoded = decision.map(|sid| sid.0 as i32).unwrap_or(-1);
        self.log
            .0
            .lock()
            .expect("trace handle poisoned")
            .ticks
            .last_mut()
            .expect("place before first tick")
            .decisions
            .push(encoded);
        decision
    }

    fn hot_group_size(&self) -> Option<usize> {
        let hot = self.inner.hot_group_size();
        // The engine samples the hot-group size once per tick, after
        // placements; recording it here captures exactly the value the
        // physics sweep will act on.
        if let Some(tick) = self
            .log
            .0
            .lock()
            .expect("trace handle poisoned")
            .ticks
            .last_mut()
        {
            tick.hot = hot.map(|s| s as u32);
        }
        hot
    }

    fn counters(&self) -> Option<vmt_telemetry::SchedulerCounters> {
        self.inner.counters()
    }
}

/// What a replay found, accumulated tick by tick.
#[derive(Debug, Default)]
struct ReplayLog {
    ticks_compared: u64,
    first_divergence: Option<(u64, u64, u64)>,
    /// Jobs that arrived with no recorded decision left (a workload
    /// divergence — should never happen for a complete trace).
    missing_decisions: u64,
}

/// Caller-side handle to a replay's verdict.
#[derive(Debug, Clone, Default)]
pub struct ReplayHandle(Arc<Mutex<ReplayLog>>);

impl ReplayHandle {
    /// Creates an empty handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-tick digest verdict. Call after the replay run finishes.
    pub fn verdict(&self) -> ReplayVerdict {
        let log = self.0.lock().expect("replay handle poisoned");
        match log.first_divergence {
            Some((first_tick, expected, actual)) => ReplayVerdict::Diverged {
                first_tick,
                expected,
                actual,
            },
            None => ReplayVerdict::BitIdentical {
                ticks_compared: log.ticks_compared,
            },
        }
    }

    /// Jobs that arrived during replay with no recorded decision left.
    pub fn missing_decisions(&self) -> u64 {
        self.0
            .lock()
            .expect("replay handle poisoned")
            .missing_decisions
    }
}

/// Re-drives a simulation from a recorded trace, bypassing the policy.
///
/// Placement decisions come straight off the trace in arrival order;
/// each tick's recomputed state digest is compared against the recorded
/// one and the first mismatch is reported through the [`ReplayHandle`].
pub struct ReplayScheduler {
    trace: PlacementTrace,
    /// Current tick (0-based); `None` until the first `on_tick_indexed`.
    current: Option<usize>,
    /// Next decision within the current tick.
    cursor: usize,
    report: ReplayHandle,
}

impl ReplayScheduler {
    /// Builds a replayer over `trace`, reporting into `report`.
    pub fn new(trace: PlacementTrace, report: ReplayHandle) -> Self {
        Self {
            trace,
            current: None,
            cursor: 0,
            report,
        }
    }
}

// Replaying mid-trace state is the flight recorder's own format; a
// snapshot of a replay run is out of scope, so the default applies.
impl crate::snapshot::SnapshotState for ReplayScheduler {}

impl Scheduler for ReplayScheduler {
    fn name(&self) -> &str {
        // The recorded policy's label, so a replayed run's result is
        // field-for-field comparable with the original.
        &self.trace.header.policy
    }

    fn place(&mut self, _job: &Job, _farm: &ServerFarm) -> Option<ServerId> {
        unreachable!("engine drives place_indexed");
    }

    fn on_tick_indexed(&mut self, farm: &ServerFarm, index: &ClusterIndex, _now: Seconds) {
        let t = self.current.map(|c| c + 1).unwrap_or(0);
        self.current = Some(t);
        self.cursor = 0;
        let digest = digest_index(farm, index);
        let mut log = self.report.0.lock().expect("replay handle poisoned");
        if let Some(recorded) = self.trace.ticks.get(t) {
            log.ticks_compared += 1;
            if recorded.digest != digest && log.first_divergence.is_none() {
                log.first_divergence = Some((t as u64, recorded.digest, digest));
            }
        }
    }

    fn place_indexed(
        &mut self,
        _job: &Job,
        farm: &ServerFarm,
        _index: &ClusterIndex,
    ) -> Option<ServerId> {
        let decision = self
            .current
            .and_then(|t| self.trace.ticks.get(t))
            .and_then(|tick| tick.decisions.get(self.cursor).copied());
        self.cursor += 1;
        match decision {
            // An infeasible decision (out-of-range server, or a full
            // one) means the trace is corrupt or incomplete; drop the
            // job and let the digest comparison surface the divergence
            // rather than panic the engine.
            Some(d) if d >= 0 && (d as usize) < farm.len() && farm.free_cores(d as usize) > 0 => {
                Some(ServerId(d as usize))
            }
            Some(d) if d >= 0 => {
                self.report
                    .0
                    .lock()
                    .expect("replay handle poisoned")
                    .missing_decisions += 1;
                None
            }
            Some(_) => None,
            None => {
                // More arrivals than the trace recorded: count it and
                // drop the job rather than guess a server.
                self.report
                    .0
                    .lock()
                    .expect("replay handle poisoned")
                    .missing_decisions += 1;
                None
            }
        }
    }

    fn hot_group_size(&self) -> Option<usize> {
        self.current
            .and_then(|t| self.trace.ticks.get(t))
            .and_then(|tick| tick.hot)
            .map(|s| s as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::engine::Simulation;
    use crate::scheduler::FirstFit;
    use vmt_telemetry::replay::TRACE_SCHEMA_VERSION;
    use vmt_units::Hours;
    use vmt_workload::{DiurnalTrace, TraceConfig};

    fn record_run(servers: usize, hours: f64) -> (PlacementTrace, SimulationResult, ServerFarm) {
        let cluster = ClusterConfig::paper_default(servers);
        let mut trace_cfg = TraceConfig::paper_default();
        trace_cfg.horizon = Hours::new(hours);
        let handle = TraceHandle::new();
        let recorder = RecordingScheduler::new(Box::new(FirstFit::new()), handle.clone());
        let header = TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
            policy: "first-fit".into(),
            servers: servers as u64,
            hours,
            cluster_seed: cluster.seed,
            trace_seed: trace_cfg.seed,
            tick_seconds: cluster.tick.get(),
            ticks: 0,
        };
        let (result, end_farm) =
            Simulation::new(cluster, DiurnalTrace::new(trace_cfg), Box::new(recorder))
                .run_returning_farm();
        let mut trace = handle.into_trace(header, &result, &end_farm);
        trace.header.ticks = trace.footer.ticks_run;
        (trace, result, end_farm)
    }

    fn replay_run(trace: &PlacementTrace) -> (ReplayVerdict, SimulationResult, ServerFarm) {
        let mut cluster = ClusterConfig::paper_default(trace.header.servers as usize);
        cluster.seed = trace.header.cluster_seed;
        let mut trace_cfg = TraceConfig::paper_default();
        trace_cfg.horizon = Hours::new(trace.header.hours);
        trace_cfg.seed = trace.header.trace_seed;
        let report = ReplayHandle::new();
        let replayer = ReplayScheduler::new(trace.clone(), report.clone());
        let (result, farm) =
            Simulation::new(cluster, DiurnalTrace::new(trace_cfg), Box::new(replayer))
                .run_returning_farm();
        (report.verdict(), result, farm)
    }

    #[test]
    fn recording_is_transparent() {
        let cluster = ClusterConfig::paper_default(3);
        let mut trace_cfg = TraceConfig::paper_default();
        trace_cfg.horizon = Hours::new(4.0);
        let bare = Simulation::new(
            cluster,
            DiurnalTrace::new(trace_cfg),
            Box::new(FirstFit::new()),
        )
        .run();
        let (_, recorded, _) = record_run(3, 4.0);
        assert_eq!(bare.cooling, recorded.cooling);
        assert_eq!(bare.placements, recorded.placements);
        assert_eq!(bare.dropped_jobs, recorded.dropped_jobs);
    }

    #[test]
    fn replay_reproduces_the_run_bit_identically() {
        let (trace, original, original_farm) = record_run(4, 6.0);
        assert!(trace.decision_count() > 0, "trace recorded decisions");
        let (verdict, replayed, replayed_farm) = replay_run(&trace);
        assert!(
            verdict.is_identical(),
            "per-tick digests diverged: {verdict:?}"
        );
        assert_eq!(
            verdict,
            ReplayVerdict::BitIdentical {
                ticks_compared: trace.footer.ticks_run
            }
        );
        assert_eq!(original.cooling, replayed.cooling);
        assert_eq!(original.avg_temp, replayed.avg_temp);
        assert_eq!(original.placements, replayed.placements);
        assert_eq!(original.dropped_jobs, replayed.dropped_jobs);
        assert_eq!(
            digest_final_state(&replayed, &replayed_farm),
            trace.footer.final_digest
        );
        assert_eq!(
            digest_final_state(&original, &original_farm),
            trace.footer.final_digest
        );
    }

    #[test]
    fn tampered_decision_is_caught_as_divergence() {
        let (mut trace, ..) = record_run(4, 4.0);
        // Reroute one mid-run placement to a different server; the state
        // digest must diverge on the following tick at the latest.
        let victim = trace
            .ticks
            .iter()
            .position(|t| t.t > 10 && t.decisions.iter().any(|&d| d >= 0))
            .expect("a tick with a placement");
        let slot = trace.ticks[victim]
            .decisions
            .iter()
            .position(|&d| d >= 0)
            .unwrap();
        let old = trace.ticks[victim].decisions[slot];
        trace.ticks[victim].decisions[slot] = (old + 1) % trace.header.servers as i32;
        let (verdict, ..) = replay_run(&trace);
        match verdict {
            ReplayVerdict::Diverged { first_tick, .. } => {
                assert!(
                    first_tick > trace.ticks[victim].t,
                    "divergence at {first_tick} must follow the tampered tick {}",
                    trace.ticks[victim].t
                );
            }
            ReplayVerdict::BitIdentical { .. } => panic!("tampered trace replayed identically"),
        }
    }

    #[test]
    fn truncated_replay_compares_a_prefix() {
        // `replay --until T` runs a shortened horizon over the same
        // trace; digests must match tick-for-tick over the prefix.
        let (trace, ..) = record_run(3, 6.0);
        let mut cluster = ClusterConfig::paper_default(3);
        cluster.seed = trace.header.cluster_seed;
        let mut trace_cfg = TraceConfig::paper_default();
        trace_cfg.horizon = Hours::new(2.0);
        trace_cfg.seed = trace.header.trace_seed;
        let report = ReplayHandle::new();
        let replayer = ReplayScheduler::new(trace.clone(), report.clone());
        Simulation::new(cluster, DiurnalTrace::new(trace_cfg), Box::new(replayer)).run();
        assert_eq!(
            report.verdict(),
            ReplayVerdict::BitIdentical {
                ticks_compared: 120
            }
        );
        assert_eq!(report.missing_decisions(), 0);
    }
}
