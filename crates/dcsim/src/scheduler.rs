//! The placement-policy interface.

use crate::farm::ServerFarm;
use crate::index::ClusterIndex;
use crate::server::ServerId;
use crate::snapshot::SnapshotState;
use vmt_units::Seconds;
use vmt_workload::Job;

/// One tournament candidate inside a [`DecisionDetail`]: a server and
/// its balancer key at the moment of the decision.
///
/// This *is* the tracer's candidate type — the alias lets a policy's
/// candidate snapshot travel by move from the balancer through the
/// probe into the trace ring, instead of being copied element-by-
/// element at each crate boundary (it rides the placement hot path on
/// traced runs).
pub type DecisionCandidate = vmt_telemetry::SpanCandidate;

/// A policy's explanation of one placement decision, reported through
/// a [`PlacementProbe`].
///
/// Everything here is derived from the policy's deterministic state
/// *before* the placement mutated it, so the detail stream is
/// bit-identical across thread counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionDetail {
    /// Which rung of the policy's placement ladder produced the
    /// decision (e.g. `"hot-balancer"`, `"keep-warm"`, `"cold-any"`).
    pub rung: &'static str,
    /// The chosen server, `None` when every rung failed.
    pub chosen: Option<u32>,
    /// The chosen server's tournament key when a balancer rung won;
    /// `None` on priority/cursor rungs.
    pub winning_key: Option<f64>,
    /// Top tournament candidates (winner first) the balancer was
    /// offering when the decision was made; empty for policies or
    /// rungs without a tournament.
    pub candidates: Vec<DecisionCandidate>,
}

/// Receives per-job decision detail from a policy's
/// [`Scheduler::place_batch_traced`].
///
/// The engine implements this to feed its span tracer. [`wants`]
/// gates the (comparatively expensive) detail assembly to sampled
/// jobs; `decision` is called at most once per wanted job, in arrival
/// order (a policy that places parts of a batch at the same time
/// buffers the detail and reports it in order afterwards).
///
/// [`wants`]: PlacementProbe::wants
pub trait PlacementProbe {
    /// Whether detail for `job` should be assembled and reported.
    fn wants(&self, job: &Job) -> bool;

    /// Fills `out` with the strictly increasing indices of the wanted
    /// jobs in `jobs` — equivalent to filtering every index through
    /// [`wants`](PlacementProbe::wants), which is what the default
    /// does. Batch loops should prefer this over a per-job `wants`
    /// call: it lets the engine's probe answer arithmetically for a
    /// whole batch of consecutive job ids, keeping the unsampled
    /// fast path free of per-job sampling checks (at cluster scale a
    /// tick places tens of thousands of jobs).
    fn sampled_indices(&self, jobs: &[Job], out: &mut Vec<usize>) {
        out.clear();
        for (i, job) in jobs.iter().enumerate() {
            if self.wants(job) {
                out.push(i);
            }
        }
    }

    /// Reports the decision detail for a wanted job.
    fn decision(&mut self, job: &Job, detail: DecisionDetail);
}

/// A cluster-level job placement policy.
///
/// The engine calls [`Scheduler::on_tick`] once per simulated minute
/// (after departures, before arrivals) so policies can refresh any
/// derived state — sorted orders, group sizes, wax scans — and then calls
/// [`Scheduler::place`] once per arriving job. Policies should do their
/// per-tick work in `on_tick` and keep `place` amortized O(1); at cluster
/// scale the engine performs millions of placements per simulated day.
///
/// Schedulers observe servers only through the [`ServerFarm`]'s public
/// accessors; in particular the wax state they can see is the
/// *estimator's report* ([`ServerFarm::reported_melt_fraction`]),
/// matching the paper's deployment where each server runs a lightweight
/// wax model and reports once per minute.
///
/// The [`SnapshotState`] supertrait is how a policy participates in
/// engine checkpoints: it saves its cross-tick state under its policy
/// name and restores from a matching [`SavedState`]. The default
/// implementation marks a policy as not checkpointable, which is fine
/// for harness wrappers and test probes — [`Simulation::snapshot`] then
/// returns a typed error instead of a lossy checkpoint.
///
/// [`SavedState`]: crate::SavedState
/// [`Simulation::snapshot`]: crate::Simulation::snapshot
pub trait Scheduler: SnapshotState {
    /// Human-readable policy name (used in reports and plots).
    fn name(&self) -> &str;

    /// Called at the start of every tick, before any placements.
    fn on_tick(&mut self, farm: &ServerFarm, now: Seconds) {
        let _ = (farm, now);
    }

    /// Chooses a server for `job`, or `None` if the cluster cannot hold
    /// it (the job is dropped and counted).
    fn place(&mut self, job: &Job, farm: &ServerFarm) -> Option<ServerId>;

    /// Index-aware variant of [`Scheduler::on_tick`].
    ///
    /// The engine keeps a [`ClusterIndex`] beside the farm — the
    /// cluster's busy cores per workload and its core count — and calls
    /// this instead of `on_tick`. Every per-server value, the reported
    /// melt included, stays in the farm. The default ignores the index
    /// and delegates. VMT-WA overrides it to take the cluster
    /// utilization from the index in O(1) rather than summing the farm;
    /// the record and replay wrappers, to digest the state each tick
    /// starts from.
    fn on_tick_indexed(&mut self, farm: &ServerFarm, index: &ClusterIndex, now: Seconds) {
        let _ = index;
        self.on_tick(farm, now);
    }

    /// Index-aware variant of [`Scheduler::place`]; see
    /// [`Scheduler::on_tick_indexed`]. The default delegates to `place`,
    /// and the built-in policies keep it: everything they read per
    /// placement (free cores, power, inlet) lives in the farm. The
    /// record and replay wrappers override it to log and to replay
    /// decisions.
    fn place_indexed(
        &mut self,
        job: &Job,
        farm: &ServerFarm,
        index: &ClusterIndex,
    ) -> Option<ServerId> {
        let _ = index;
        self.place(job, farm)
    }

    /// Places a batch of arrivals in order: every placed job is
    /// started on the farm before the next decision, and each job's
    /// outcome is pushed onto `out`. The index is not written here: the
    /// engine adds each placed job to its workload's occupancy after the
    /// call returns ([`ClusterIndex::record_start`]).
    ///
    /// The default runs exactly the per-job sequence the engine used
    /// to run inline (the VMT policies override it to place their two
    /// groups as two streams, `CoolestFirst` to add prefetching), so
    /// the policy observes identical farm state before every decision
    /// and the outcomes (hence results, counters, and replay digests)
    /// are bit-identical to per-job placement. Batching exists to
    /// devirtualize the hot loop: the engine pays one dynamic dispatch
    /// per call instead of one per job, and each policy's monomorphized
    /// body can inline its own `place`.
    ///
    /// The engine may split one tick's arrivals across several calls
    /// (it places them in bounded chunks), so an override must keep the
    /// per-job sequence across calls too: placing a batch as several
    /// consecutive calls must equal placing it in one.
    fn place_batch(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
    ) {
        for job in jobs {
            let placed = self.place_indexed(job, farm, index);
            if let Some(sid) = placed {
                farm.start_job(sid.0, job);
            }
            out.push(placed);
        }
    }

    /// [`Scheduler::place_batch`] with a decision probe attached: the
    /// engine calls this instead of `place_batch` when span tracing is
    /// armed.
    ///
    /// The default ignores the probe and delegates, so the placements
    /// — and therefore results, counters, and replay digests — are
    /// bit-identical to an untraced run for every policy. Policies
    /// that can explain their decisions (the VMT-TA and VMT-WA
    /// placement ladders) override this to report a [`DecisionDetail`]
    /// per sampled job;
    /// the override must keep the decision sequence identical to
    /// `place_batch`, reporting detail without perturbing it. The
    /// record/replay harness wrappers deliberately do *not* override
    /// this: a recorded run and its replay both fall through to the
    /// detail-free default, which keeps their traces bit-identical to
    /// each other.
    fn place_batch_traced(
        &mut self,
        jobs: &[Job],
        farm: &mut ServerFarm,
        index: &mut ClusterIndex,
        out: &mut Vec<Option<ServerId>>,
        probe: &mut dyn PlacementProbe,
    ) {
        let _ = probe;
        self.place_batch(jobs, farm, index, out);
    }

    /// Observes the per-zone CRAC supply-air temperatures, indexed by
    /// zone ([`ZoneCooling::temperatures`]). Called once per tick after
    /// physics when the cluster carries a
    /// [`topology`](crate::ClusterConfig::topology); never called
    /// otherwise. Purely informational: the built-in policies ignore it
    /// (the default is a no-op), and a policy that reads it must not let
    /// it perturb placement unless it intends to diverge from the
    /// zoneless baseline.
    ///
    /// [`ZoneCooling::temperatures`]: crate::ZoneCooling::temperatures
    fn observe_zones(&mut self, zone_temps: &[f64]) {
        let _ = zone_temps;
    }

    /// Size of the policy's current hot group, if it maintains one.
    ///
    /// By convention a policy's hot group is the servers with ids
    /// `0..size` — the paper notes hot/cold servers need not be physically
    /// adjacent, so using index order costs no generality and makes the
    /// heatmap figures directly comparable to the paper's.
    fn hot_group_size(&self) -> Option<usize> {
        None
    }

    /// The policy's cumulative decision counters, if it keeps any.
    ///
    /// Policies that participate in telemetry maintain these as plain
    /// integer fields incremented unconditionally on their decision
    /// paths — deterministic and cheap enough to leave always-on — and
    /// the engine reads them once at the end of a run for the summary
    /// event. The default reports nothing.
    fn counters(&self) -> Option<vmt_telemetry::SchedulerCounters> {
        None
    }

    /// Boxed deep copy of the policy, for forking a running simulation.
    ///
    /// The default reports the policy as not cloneable (`None`), which
    /// makes [`Simulation::fork`] fail with a typed error rather than
    /// silently sharing or resetting state. Concrete policies override
    /// this as `Some(Box::new(self.clone()))`.
    ///
    /// [`Simulation::fork`]: crate::Simulation::fork
    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        None
    }
}

/// Trivial first-fit policy: the lowest-indexed server with a free core.
///
/// Not part of the paper's evaluation — useful as a smoke-test policy and
/// as the simplest possible [`Scheduler`] example.
#[derive(Debug, Clone, Default)]
pub struct FirstFit {
    _private: (),
}

impl FirstFit {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnapshotState for FirstFit {
    // Stateless: the kind tag alone (with a null state) fully describes
    // the policy, so the defaulted save/restore bodies suffice.
    fn state_kind(&self) -> Option<&'static str> {
        Some("first-fit")
    }
}

impl Scheduler for FirstFit {
    fn name(&self) -> &str {
        "first-fit"
    }

    fn place(&mut self, _job: &Job, farm: &ServerFarm) -> Option<ServerId> {
        (0..farm.len())
            .find(|&i| farm.free_cores(i) > 0)
            .map(ServerId)
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use vmt_units::Seconds;
    use vmt_workload::{JobId, WorkloadKind};

    #[test]
    fn first_fit_picks_lowest_free_server() {
        let config = ClusterConfig::paper_default(3);
        let mut farm = ServerFarm::from_config(&config);
        let mut policy = FirstFit::new();
        let job = Job::new(JobId(0), WorkloadKind::WebSearch, Seconds::new(60.0));
        assert_eq!(policy.place(&job, &farm), Some(ServerId(0)));
        // Fill server 0 completely; placement moves to server 1.
        for i in 0..32 {
            farm.start_job(
                0,
                &Job::new(JobId(100 + i), WorkloadKind::VirusScan, Seconds::new(60.0)),
            );
        }
        assert_eq!(policy.place(&job, &farm), Some(ServerId(1)));
    }

    #[test]
    fn first_fit_returns_none_when_full() {
        let config = ClusterConfig::paper_default(1);
        let mut farm = ServerFarm::from_config(&config);
        for i in 0..32 {
            farm.start_job(
                0,
                &Job::new(JobId(i), WorkloadKind::VirusScan, Seconds::new(60.0)),
            );
        }
        let mut policy = FirstFit::new();
        let job = Job::new(JobId(99), WorkloadKind::WebSearch, Seconds::new(60.0));
        assert_eq!(policy.place(&job, &farm), None);
        assert!(policy.hot_group_size().is_none());
    }
}
