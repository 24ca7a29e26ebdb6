//! The simulation main loop.

use crate::config::ClusterConfig;
use crate::farm::{ServerFarm, SweepTiming};
use crate::index::ClusterIndex;
use crate::metrics::{Heatmap, SimulationResult};
use crate::plan::plan_memory;
use crate::radix::sort_by_high_word;
use crate::scheduler::{DecisionDetail, PlacementProbe, Scheduler};
use crate::server::ServerId;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::telemetry::{EngineTelemetry, PhaseClock};
use crate::topology::ZoneCooling;
use rand::{Rng, SeedableRng};
use vmt_telemetry::{TelemetryConfig, TickPhase, Tracer};
use vmt_thermal::CoolingLoadSeries;
use vmt_units::{Celsius, Hours, Joules, Seconds, Watts};
use vmt_workload::{ArrivalPlanner, Job, JobId, LoadTrace, WorkloadKind};

/// A configured simulation, ready to run.
///
/// Couples a cluster ([`ClusterConfig`]), a load trace
/// ([`LoadTrace`]), and a placement policy ([`Scheduler`]). The run is
/// fully deterministic: all randomness flows from the seeds in the
/// configuration and trace.
///
/// Each placed job departs at the tick its duration rounds to, and that
/// due tick lives beside the job in the farm's table as a `u32`. A
/// horizon therefore spans at most [`Simulation::MAX_TICKS`] ticks
/// (8,166 years of the paper's 60-second tick);
/// [`Simulation::check_horizon`] tells a caller up front, and running a
/// longer one panics.
///
/// # Examples
///
/// ```
/// use vmt_dcsim::{ClusterConfig, FirstFit, Simulation};
/// use vmt_workload::{DiurnalTrace, TraceConfig};
///
/// let result = Simulation::new(
///     ClusterConfig::paper_default(5),
///     DiurnalTrace::new(TraceConfig::paper_default()),
///     Box::new(FirstFit::new()),
/// )
/// .run();
/// assert!(result.peak_cooling().get() > 0.0);
/// ```
pub struct Simulation {
    config: ClusterConfig,
    trace: Box<dyn LoadTrace>,
    scheduler: Box<dyn Scheduler>,
    farm: ServerFarm,
    planner: ArrivalPlanner,
    next_job_id: u64,
    /// Shuffles each tick's arrival order (seeded; deterministic).
    arrival_rng: rand::rngs::SmallRng,
    /// The cluster's occupancy per workload, handed to the scheduler.
    index: ClusterIndex,
    /// The tick's planned arrivals in arrival order, as parallel
    /// duration and kind columns reused across ticks (9 bytes an
    /// arrival).
    durations: Vec<Seconds>,
    kinds: Vec<WorkloadKind>,
    /// One chunk of materialized jobs ([`PLACE_CHUNK`] at most),
    /// reused across chunks and ticks.
    batch: Vec<Job>,
    /// The chunk's placement outcomes, reused across chunks and ticks.
    outcomes: Vec<Option<ServerId>>,
    /// Sampled jobs' placement instants, held until the tick's last
    /// chunk is placed; empty between ticks.
    sampled: Vec<SampledPlacement>,
    /// The tick's departures as `(id − id base) << 32 | server` words,
    /// and the radix sort's scratch: filled only while a flight
    /// recorder is armed, empty between ticks.
    departed: Vec<u64>,
    departed_scratch: Vec<u64>,
    /// Per-zone CRAC integrators when the config carries a topology.
    /// Observational: stepped after physics from the farm's power lane,
    /// never fed back into inlets, so results stay bit-identical to a
    /// zoneless run.
    zones: Option<ZoneCooling>,
    /// Telemetry wiring; `None` (the default) is the zero-cost path —
    /// the run loop takes no timestamps and emits nothing.
    telemetry: Option<TelemetryConfig>,
    /// In-flight run accumulators, `Some` from the first [`Simulation::step`]
    /// until [`Simulation::finish`]. Keeping them on the simulation (rather
    /// than as `run()` locals) is what lets a run pause at any tick
    /// boundary for [`Simulation::snapshot`] and [`Simulation::fork`].
    run: Option<RunState>,
}

/// Everything the run loop accumulates across ticks: result series,
/// heatmaps, counters, and the live telemetry handle.
struct RunState {
    /// Total ticks in the trace horizon.
    ticks: usize,
    /// Next tick to execute (0-based).
    next_tick: usize,
    cooling: CoolingLoadSeries,
    electrical: CoolingLoadSeries,
    avg_temp: Vec<Celsius>,
    hot_group_temp: Vec<Celsius>,
    hot_group_sizes: Vec<usize>,
    stored_energy: Vec<Joules>,
    temp_heatmap: Heatmap,
    melt_heatmap: Heatmap,
    dropped_jobs: u64,
    placements: u64,
    /// Live instrumentation; observational only, so it never travels
    /// through a snapshot or fork.
    telemetry: Option<EngineTelemetry>,
}

impl RunState {
    /// Deep copy of the accumulators without the (non-cloneable)
    /// telemetry handle — what a forked simulation starts from.
    fn clone_without_telemetry(&self) -> Self {
        Self {
            ticks: self.ticks,
            next_tick: self.next_tick,
            cooling: self.cooling.clone(),
            electrical: self.electrical.clone(),
            avg_temp: self.avg_temp.clone(),
            hot_group_temp: self.hot_group_temp.clone(),
            hot_group_sizes: self.hot_group_sizes.clone(),
            stored_energy: self.stored_energy.clone(),
            temp_heatmap: self.temp_heatmap.clone(),
            melt_heatmap: self.melt_heatmap.clone(),
            dropped_jobs: self.dropped_jobs,
            placements: self.placements,
            telemetry: None,
        }
    }
}

/// The engine's [`PlacementProbe`]: forwards sampled decision detail
/// from a policy's `place_batch_traced` into the span tracer.
struct TraceProbe<'a> {
    tracer: &'a mut Tracer,
}

impl PlacementProbe for TraceProbe<'_> {
    fn wants(&self, job: &Job) -> bool {
        self.tracer.wants_job(job.id().0)
    }

    fn sampled_indices(&self, jobs: &[Job], out: &mut Vec<usize>) {
        out.clear();
        let (Some(first), Some(last)) = (jobs.first(), jobs.last()) else {
            return;
        };
        // The engine assigns batch ids serially, so the sampled
        // offsets come out of one arithmetic pass instead of a
        // per-job modulo scan over the whole batch.
        if last.id().0.wrapping_sub(first.id().0) == jobs.len() as u64 - 1 {
            *out = self.tracer.sampled_offsets(first.id().0, jobs.len());
            debug_assert!(out.iter().all(|&i| self.wants(&jobs[i])));
        } else {
            for (i, job) in jobs.iter().enumerate() {
                if self.wants(job) {
                    out.push(i);
                }
            }
        }
    }

    fn decision(&mut self, job: &Job, detail: DecisionDetail) {
        // `DecisionCandidate` is an alias of `SpanCandidate`, so the
        // policy's snapshot moves into the ring without a copy.
        self.tracer.decision(
            job.id().0,
            detail.rung,
            detail.chosen,
            detail.winning_key,
            detail.candidates,
        );
    }
}

impl Simulation {
    /// Builds a simulation from any [`LoadTrace`] source (the synthetic
    /// [`DiurnalTrace`](vmt_workload::DiurnalTrace) and the replayed
    /// [`RecordedTrace`](vmt_workload::RecordedTrace) convert
    /// implicitly).
    pub fn new(
        config: ClusterConfig,
        trace: impl Into<Box<dyn LoadTrace>>,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        let trace = trace.into();
        let farm = ServerFarm::from_config(&config);
        let planner = ArrivalPlanner::with_model(config.seed, config.duration_model);
        let arrival_rng = rand::rngs::SmallRng::seed_from_u64(config.seed ^ 0xA11C_E5ED);
        let index = ClusterIndex::new(&farm);
        let zones = config
            .topology
            .as_ref()
            .map(|spec| ZoneCooling::new(farm.len(), spec));
        Self {
            config,
            trace,
            scheduler,
            farm,
            planner,
            next_job_id: 0,
            arrival_rng,
            index,
            durations: Vec::new(),
            kinds: Vec::new(),
            batch: Vec::new(),
            outcomes: Vec::new(),
            sampled: Vec::new(),
            departed: Vec::new(),
            departed_scratch: Vec::new(),
            zones,
            telemetry: None,
            run: None,
        }
    }

    /// Attaches telemetry: per-phase tick profiling, engine metrics, and
    /// (when the config carries a sink) a structured JSONL event stream.
    ///
    /// Telemetry is purely observational — an instrumented run returns a
    /// [`SimulationResult`] bit-identical to an uninstrumented one. Keep
    /// a clone of [`TelemetryConfig::summary`] (and of the registry, for
    /// live reads) before handing the config over; `run()` deposits the
    /// final [`SummaryEvent`](vmt_telemetry::SummaryEvent) there.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Read access to the cluster state (e.g. for custom probes between
    /// manual steps).
    pub fn farm(&self) -> &ServerFarm {
        &self.farm
    }

    /// The per-zone CRAC cooling state, when the config carries a
    /// [`topology`](ClusterConfig::topology).
    pub fn zones(&self) -> Option<&ZoneCooling> {
        self.zones.as_ref()
    }

    /// Sets the worker-thread count of the parallel physics tick.
    /// Results are bit-identical at any setting; this only changes
    /// wall-clock time. Defaults to [`crate::default_tick_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.farm.set_threads(threads);
        self
    }

    /// The policy driving placement.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// Runs the simulation over the trace's full horizon.
    pub fn run(self) -> SimulationResult {
        self.run_returning_farm().0
    }

    /// Runs the simulation and also returns the farm in its final
    /// state — for post-mortem inspection (rack power balance, wax
    /// state) at the exact moment the trace ends.
    /// [`ServerFarm::to_servers`] turns it into per-object servers.
    pub fn run_returning_farm(mut self) -> (SimulationResult, ServerFarm) {
        self.start_run();
        while self.step() {}
        self.finish()
    }

    /// Total ticks in the trace horizon.
    pub fn total_ticks(&self) -> u64 {
        self.config.ticks_for(self.trace.horizon()) as u64
    }

    /// The longest horizon a simulation runs, in ticks: every tick of
    /// it must be a due tick a job can name, and due ticks are `u32`s
    /// with [`Job::NEVER_DUE`] as the last one.
    pub const MAX_TICKS: u64 = Job::NEVER_DUE as u64;

    /// The ticks `horizon` spans under `config`, or [`HorizonTooLong`]
    /// when that is more than [`Simulation::MAX_TICKS`]. Running such a
    /// horizon panics, so callers taking a horizon from outside check
    /// it here first.
    ///
    /// # Examples
    ///
    /// ```
    /// use vmt_dcsim::{ClusterConfig, Simulation};
    /// use vmt_units::Hours;
    ///
    /// let config = ClusterConfig::paper_default(10);
    /// assert_eq!(Simulation::check_horizon(&config, Hours::new(48.0)), Ok(2880));
    /// assert!(Simulation::check_horizon(&config, Hours::new(1e12)).is_err());
    /// ```
    pub fn check_horizon(config: &ClusterConfig, horizon: Hours) -> Result<u64, HorizonTooLong> {
        let ticks = config.ticks_for(horizon) as u64;
        if ticks > Self::MAX_TICKS {
            return Err(HorizonTooLong { ticks });
        }
        Ok(ticks)
    }

    /// The next tick the run will execute (0 before anything has run;
    /// equals [`Simulation::total_ticks`] once the horizon is done).
    pub fn current_tick(&self) -> u64 {
        self.run.as_ref().map_or(0, |run| run.next_tick as u64)
    }

    /// Order-independent FNV-1a digest of the live cluster state (air
    /// temperatures, reported melt, free cores) — the same digest the
    /// flight-recorder replay checks, so a restored run can be compared
    /// tick-for-tick against the original.
    pub fn state_digest(&self) -> u64 {
        crate::replay::digest_index(&self.farm, &self.index)
    }

    /// Lazily initializes the run accumulators. Idempotent: a second
    /// call (or a call on a restored simulation, which arrives with its
    /// accumulators rebuilt) is a no-op — which also means telemetry
    /// must be attached before the run starts to take effect.
    fn start_run(&mut self) {
        if self.run.is_some() {
            return;
        }
        let ticks = match Self::check_horizon(&self.config, self.trace.horizon()) {
            Ok(ticks) => ticks,
            Err(err) => panic!("{err}"),
        };
        if let Err(err) = plan_memory(&self.config, ticks, self.telemetry.as_ref()) {
            panic!("{err}");
        }
        let ticks = ticks as usize;
        let dt = self.config.tick;
        let num_servers = self.farm.len();
        let heatmap_rows = ticks.div_ceil(self.config.heatmap_stride.max(1));
        // Both heatmaps are preallocated in full and their rows written
        // in place on sample ticks — no per-tick row allocations.
        let row_interval = dt.get() * self.config.heatmap_stride as f64;
        let telemetry = self.telemetry.take().map(|config| {
            let tel = EngineTelemetry::new(config, num_servers, ticks as u64, self.zones.as_ref());
            tel.emit_run_config(
                self.scheduler.name(),
                &self.config,
                &self.farm,
                ticks as u64,
            );
            tel
        });
        self.run = Some(RunState {
            ticks,
            next_tick: 0,
            cooling: CoolingLoadSeries::new(dt),
            electrical: CoolingLoadSeries::new(dt),
            avg_temp: Vec::with_capacity(ticks),
            hot_group_temp: Vec::with_capacity(ticks),
            hot_group_sizes: Vec::with_capacity(ticks),
            stored_energy: Vec::with_capacity(ticks),
            temp_heatmap: Heatmap {
                row_interval,
                rows: vec![vec![0.0; num_servers]; heatmap_rows],
            },
            melt_heatmap: Heatmap {
                row_interval,
                rows: vec![vec![0.0; num_servers]; heatmap_rows],
            },
            dropped_jobs: 0,
            placements: 0,
            telemetry,
        });
    }

    /// Executes one tick. Returns `false` (without running anything)
    /// once the horizon is exhausted. The sequence `while sim.step() {}`
    /// is bit-identical to the former monolithic run loop.
    ///
    /// # Panics
    ///
    /// Panics if the horizon spans more than [`Simulation::MAX_TICKS`]
    /// ticks ([`Simulation::check_horizon`]), or if the run would
    /// preallocate more than [`MEMORY_CEILING`](crate::MEMORY_CEILING)
    /// ([`plan_memory`]).
    pub fn step(&mut self) -> bool {
        self.start_run();
        let mut run = self.run.take().expect("start_run just installed the run");
        let stepped = if run.next_tick < run.ticks {
            self.execute_tick(&mut run);
            run.next_tick += 1;
            true
        } else {
            false
        };
        self.run = Some(run);
        stepped
    }

    /// Steps until the run reaches tick `tick` (exclusive next-tick
    /// bound) or the horizon, whichever comes first.
    pub fn run_until(&mut self, tick: u64) {
        while self.current_tick() < tick {
            if !self.step() {
                break;
            }
        }
    }

    /// Ends the run, returning the result recorded so far and the farm
    /// in its final state (moved out, not copied). Called mid-horizon
    /// this yields a partial result: series hold one sample per
    /// executed tick and unreached heatmap rows stay zero.
    pub fn finish(mut self) -> (SimulationResult, ServerFarm) {
        self.start_run();
        let run = self.run.take().expect("start_run just installed the run");
        let result = SimulationResult {
            scheduler_name: self.scheduler.name().to_owned(),
            cooling: run.cooling,
            electrical: run.electrical,
            avg_temp: run.avg_temp,
            hot_group_temp: run.hot_group_temp,
            hot_group_sizes: run.hot_group_sizes,
            stored_energy: run.stored_energy,
            temp_heatmap: run.temp_heatmap,
            melt_heatmap: run.melt_heatmap,
            dropped_jobs: run.dropped_jobs,
            placements: run.placements,
            tick: self.config.tick,
        };
        if let Some(tel) = run.telemetry {
            tel.finish(
                &result.scheduler_name,
                self.scheduler.counters(),
                result.placements,
                result.dropped_jobs,
                result.cooling.peak().get(),
                result.electrical.peak().get(),
            );
        }
        (result, self.farm)
    }

    /// The body of one tick, operating on accumulators taken out of
    /// `self.run` (so the engine's own fields stay freely borrowable).
    fn execute_tick(&mut self, run: &mut RunState) {
        let t = run.next_tick;
        let dt = self.config.tick;
        let num_servers = self.farm.len();
        let heatmap_stride = self.config.heatmap_stride.max(1);
        let now = dt * t as f64;
        let now_hours = Hours::new(now.get() / 3600.0);

        // Phase laps are taken only when telemetry is attached; the
        // disabled path reads no clocks at all. The span tracer reuses
        // each lap's nanoseconds — phase spans add no timestamps on top
        // of the profiler's.
        let mut clock = run.telemetry.as_ref().map(|_| PhaseClock::start());
        if let Some(tr) = run.telemetry.as_mut().and_then(|tel| tel.tracer.as_mut()) {
            tr.begin_tick(t as u64);
        }
        macro_rules! lap {
            ($phase:ident) => {
                if let (Some(tel), Some(clock)) = (run.telemetry.as_mut(), clock.as_mut()) {
                    let ns = clock.lap();
                    tel.profiler.add_ns(TickPhase::$phase, ns);
                    if let Some(tr) = tel.tracer.as_mut() {
                        tr.phase(TickPhase::$phase, ns);
                    }
                }
            };
        }

        if self.config.inlet.is_time_varying() {
            for i in 0..num_servers {
                self.farm
                    .set_inlet(i, self.config.inlet.inlet_at(i, now_hours.get()));
            }
        }
        lap!(Inlet);
        // One SweepTiming covers both pool-driven sections of the
        // tick (departure drain and physics sweep); created only
        // when telemetry is attached.
        let mut sweep_timing = run.telemetry.as_ref().map(|_| SweepTiming::default());
        self.process_departures(t as u64, run.telemetry.as_mut(), sweep_timing.as_mut());
        self.debug_check_ledger();
        lap!(Departures);
        self.scheduler.on_tick_indexed(&self.farm, &self.index, now);
        lap!(SchedulerTick);
        let placed_before = run.placements;
        let dropped_before = run.dropped_jobs;
        self.plan_and_place(
            t as u64,
            now_hours,
            &mut run.placements,
            &mut run.dropped_jobs,
            run.telemetry.as_mut(),
        );
        self.debug_check_ledger();
        lap!(Placement);

        // Physics tick and metric accumulation in one sharded sweep
        // over the farm's arrays: per-shard partial sums (electrical,
        // heat into wax, temperature sums, stored energy) are folded
        // in shard order, and the optional heatmap rows are written in
        // place. The sweep is deterministic at any thread count — see
        // `farm`.
        let hot_size = self.hot_size();
        let sample_heatmaps = t.is_multiple_of(heatmap_stride);
        let (temp_row, melt_row) = if sample_heatmaps {
            let row = t / heatmap_stride;
            (
                Some(run.temp_heatmap.rows[row].as_mut_slice()),
                Some(run.melt_heatmap.rows[row].as_mut_slice()),
            )
        } else {
            (None, None)
        };
        let totals = self.farm.tick_physics_recorded(
            dt,
            hot_size.unwrap_or(0),
            temp_row,
            melt_row,
            sweep_timing.as_mut(),
        );
        lap!(Physics);
        if let (Some(tel), Some(timing)) = (run.telemetry.as_mut(), sweep_timing) {
            tel.profiler.add_ns(TickPhase::PhysicsFold, timing.fold_ns);
            tel.profiler
                .add_ns(TickPhase::PoolBusy, timing.pool_busy_ns);
            tel.profiler
                .add_ns(TickPhase::PoolIdle, timing.pool_idle_ns);
        }
        // Zone CRAC integrators (observational): a serial server-order
        // pass over the power lane, then one plant step per zone. The
        // scheduler may observe the temperatures but built-in policies
        // keep placement independent of them.
        if let Some(zones) = self.zones.as_mut() {
            match run.telemetry.as_mut().and_then(|tel| tel.tracer.as_mut()) {
                Some(tr) => zones.step_traced(
                    self.farm.active_power_lane(),
                    self.farm.idle_w(),
                    dt.get(),
                    |z, ns, temp_c, duty| tr.zone(z as u32, ns, temp_c, duty),
                ),
                None => zones.step(self.farm.active_power_lane(), self.farm.idle_w(), dt.get()),
            }
            self.scheduler.observe_zones(zones.temperatures());
        }
        let mean_air_c = totals.temp_sum_c / num_servers as f64;
        run.cooling
            .push(Watts::new(totals.electrical_w - totals.into_wax_w));
        run.electrical.push(Watts::new(totals.electrical_w));
        run.avg_temp.push(Celsius::new(mean_air_c));
        run.stored_energy.push(Joules::new(totals.stored_energy_j));
        if let Some(size) = hot_size {
            run.hot_group_temp
                .push(Celsius::new(totals.hot_sum_c / size as f64));
            run.hot_group_sizes.push(size);
        }
        if let Some(tel) = run.telemetry.as_mut() {
            let tick_1based = t as u64 + 1;
            tel.record_tick(
                tick_1based,
                tick_1based as f64 * dt.get() / 3600.0,
                &self.farm,
                &self.index,
                mean_air_c,
                hot_size,
                run.placements - placed_before,
                run.dropped_jobs - dropped_before,
                self.scheduler.counters(),
                totals.electrical_w - totals.into_wax_w,
                self.zones.as_ref(),
            );
        }
        lap!(Record);
        if let (Some(tel), Some(clock)) = (run.telemetry.as_mut(), clock.as_ref()) {
            let total = clock.total();
            tel.profiler.add_tick(total);
            if let Some(tr) = tel.tracer.as_mut() {
                tr.end_tick(total.as_nanos() as u64);
            }
        }
    }

    /// Captures the complete engine state at the current tick boundary.
    ///
    /// The snapshot is self-describing: together with
    /// [`Simulation::restore_with`] (or the policy-aware
    /// `vmt_core::restore_simulation`) it rebuilds a simulation whose
    /// remaining ticks are bit-identical to this one's, at any thread
    /// count. Telemetry is observational and does not travel with the
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotSnapshottable`] when the trace has no
    /// [`TraceDescriptor`](vmt_workload::TraceDescriptor) or the
    /// scheduler has no [`SnapshotState`](crate::SnapshotState) kind
    /// (recording/replay wrappers, ad-hoc test policies).
    pub fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        let scheduler = self.scheduler.save_state()?;
        let trace = self
            .trace
            .descriptor()
            .ok_or(SnapshotError::NotSnapshottable("trace"))?;
        Ok(Snapshot {
            config: self.config.clone(),
            trace,
            scheduler,
            tick: self.current_tick(),
            farm: self.farm.state_within(self.total_ticks()),
            occupancy: self.index.occupancy(),
            next_job_id: self.next_job_id,
            arrival_rng: self.arrival_rng.state(),
            planner_rng: self.planner.rng_state(),
            partial: self.partial_result(),
            zone_temps: self.zones.as_ref().map(|z| z.temperatures().to_vec()),
        })
    }

    /// The result accumulated so far, with heatmaps truncated to the
    /// rows actually written (so a snapshot carries no trailing zero
    /// rows whose count depends on the horizon).
    fn partial_result(&self) -> SimulationResult {
        let dt = self.config.tick;
        let scheduler_name = self.scheduler.name().to_owned();
        match &self.run {
            Some(run) => {
                let stride = self.config.heatmap_stride.max(1);
                let rows_written = run.next_tick.div_ceil(stride);
                let truncate = |map: &Heatmap| Heatmap {
                    row_interval: map.row_interval,
                    rows: map.rows[..rows_written.min(map.rows.len())].to_vec(),
                };
                SimulationResult {
                    scheduler_name,
                    cooling: run.cooling.clone(),
                    electrical: run.electrical.clone(),
                    avg_temp: run.avg_temp.clone(),
                    hot_group_temp: run.hot_group_temp.clone(),
                    hot_group_sizes: run.hot_group_sizes.clone(),
                    stored_energy: run.stored_energy.clone(),
                    temp_heatmap: truncate(&run.temp_heatmap),
                    melt_heatmap: truncate(&run.melt_heatmap),
                    dropped_jobs: run.dropped_jobs,
                    placements: run.placements,
                    tick: dt,
                }
            }
            None => SimulationResult {
                scheduler_name,
                cooling: CoolingLoadSeries::new(dt),
                electrical: CoolingLoadSeries::new(dt),
                avg_temp: Vec::new(),
                hot_group_temp: Vec::new(),
                hot_group_sizes: Vec::new(),
                stored_energy: Vec::new(),
                temp_heatmap: Heatmap::default(),
                melt_heatmap: Heatmap::default(),
                dropped_jobs: 0,
                placements: 0,
                tick: dt,
            },
        }
    }

    /// Rebuilds a simulation from a snapshot and a scheduler instance of
    /// the saved kind (any state; it is overwritten from the snapshot).
    ///
    /// This crate cannot name the concrete policies living in
    /// `vmt-core`, so the caller supplies the instance —
    /// `vmt_core::restore_simulation` wraps this with kind-tag dispatch.
    /// The restored run continues at [`Snapshot::tick`] and is
    /// bit-identical to the original from there on. It carries no
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Any error from the scheduler's
    /// [`restore_state`](crate::SnapshotState::restore_state), or
    /// [`SnapshotError::Corrupt`] when the snapshot's arrays disagree
    /// with its own config (shape mismatches, out-of-range ticks,
    /// occupancy that does not match the farm, a hot group larger than
    /// the farm, a job due before the snapshot tick or past the horizon
    /// without being due never), [`SnapshotError::Horizon`] when the
    /// trace horizon is longer than [`Simulation::MAX_TICKS`], or
    /// [`SnapshotError::TooLarge`] when the run would preallocate more
    /// than [`MEMORY_CEILING`](crate::MEMORY_CEILING) — checked before
    /// anything sized by the run is allocated.
    pub fn restore_with(
        snapshot: &Snapshot,
        mut scheduler: Box<dyn Scheduler>,
    ) -> Result<Self, SnapshotError> {
        snapshot.check_columns()?;
        scheduler.restore_state(&snapshot.scheduler)?;
        // A hot group is servers `0..size`; the policy never sees the
        // farm size on restore, and a group past the farm's end would
        // index out of it at the first refresh.
        let servers = snapshot.config.num_servers;
        if let Some(size) = scheduler.hot_group_size().filter(|&size| size > servers) {
            return Err(SnapshotError::Corrupt(format!(
                "the scheduler's hot group has {size} servers, the farm {servers}"
            )));
        }
        if let Some(spec) = &snapshot.config.topology {
            if !spec.is_valid() {
                return Err(SnapshotError::Corrupt(
                    "topology spec has zero counts or non-finite CRAC parameters".to_owned(),
                ));
            }
        }
        let trace = snapshot.trace.build();
        let ticks = Self::check_horizon(&snapshot.config, trace.horizon())
            .map_err(SnapshotError::Horizon)?;
        plan_memory(&snapshot.config, ticks, None).map_err(SnapshotError::TooLarge)?;
        let ticks = ticks as usize;
        let mut sim = Simulation::new(snapshot.config.clone(), trace, scheduler);
        // A snapshot with no saved zone temperatures is either a
        // zoneless run or one written before zones existed — fresh
        // integrators at the setpoint are the defined meaning of both.
        if let Some(temps) = &snapshot.zone_temps {
            let applied = match sim.zones.as_mut() {
                Some(zones) => zones.apply_temperatures(temps),
                None => {
                    return Err(SnapshotError::Corrupt(
                        "snapshot carries zone temperatures but the config has no topology"
                            .to_owned(),
                    ));
                }
            };
            if !applied {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot carries {} zone temperatures, the topology has {}",
                    temps.len(),
                    sim.zones.as_ref().map_or(0, |z| z.temperatures().len())
                )));
            }
        }
        if snapshot.tick > ticks as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot taken at tick {} but the trace horizon is {ticks} ticks",
                snapshot.tick
            )));
        }
        // A job due before the snapshot tick should have departed, and
        // one due at or past the horizon is written due never.
        let reachable = snapshot.tick..ticks as u64;
        if let Some(&due) = snapshot
            .farm
            .job_due
            .iter()
            .find(|&&due| due != Job::NEVER_DUE && !reachable.contains(&u64::from(due)))
        {
            return Err(SnapshotError::Corrupt(if u64::from(due) < snapshot.tick {
                format!(
                    "a job due at tick {due} precedes the snapshot tick {}",
                    snapshot.tick
                )
            } else {
                format!("a job due at tick {due} is beyond the {ticks}-tick horizon")
            }));
        }
        sim.farm.apply_state(&snapshot.farm)?;
        sim.index = ClusterIndex::new(&sim.farm);
        let tick = snapshot.tick as usize;
        // Each departure decrements its kind's occupancy, so every kind
        // must count exactly the running jobs of that kind.
        if sim.index.occupancy() != snapshot.occupancy {
            return Err(SnapshotError::Corrupt(format!(
                "occupancy {:?} disagrees with the farm's running jobs {:?}",
                snapshot.occupancy,
                sim.index.occupancy()
            )));
        }
        sim.next_job_id = snapshot.next_job_id;
        sim.arrival_rng = rand::rngs::SmallRng::from_state(snapshot.arrival_rng);
        sim.planner.set_rng_state(snapshot.planner_rng);

        let partial = &snapshot.partial;
        if partial.cooling.len() != tick
            || partial.electrical.len() != tick
            || partial.avg_temp.len() != tick
            || partial.stored_energy.len() != tick
        {
            return Err(SnapshotError::Corrupt(format!(
                "series lengths disagree with snapshot tick {tick}"
            )));
        }
        if partial.hot_group_temp.len() != partial.hot_group_sizes.len()
            || partial.hot_group_temp.len() > tick
        {
            return Err(SnapshotError::Corrupt(
                "hot-group series disagree with snapshot tick".to_owned(),
            ));
        }
        let stride = sim.config.heatmap_stride.max(1);
        let heatmap_rows = ticks.div_ceil(stride);
        let rows_written = tick.div_ceil(stride);
        let row_interval = sim.config.tick.get() * sim.config.heatmap_stride as f64;
        let expand = |map: &Heatmap| -> Result<Heatmap, SnapshotError> {
            if map.rows.len() != rows_written {
                return Err(SnapshotError::Corrupt(format!(
                    "heatmap shape disagrees with snapshot tick {tick}"
                )));
            }
            let mut rows = map.rows.clone();
            rows.resize_with(heatmap_rows, || vec![0.0; servers]);
            Ok(Heatmap { row_interval, rows })
        };
        sim.run = Some(RunState {
            ticks,
            next_tick: tick,
            cooling: partial.cooling.clone(),
            electrical: partial.electrical.clone(),
            avg_temp: partial.avg_temp.clone(),
            hot_group_temp: partial.hot_group_temp.clone(),
            hot_group_sizes: partial.hot_group_sizes.clone(),
            stored_energy: partial.stored_energy.clone(),
            temp_heatmap: expand(&partial.temp_heatmap)?,
            melt_heatmap: expand(&partial.melt_heatmap)?,
            dropped_jobs: partial.dropped_jobs,
            placements: partial.placements,
            telemetry: None,
        });
        Ok(sim)
    }

    /// Cheap in-memory copy of the running simulation: the fork and the
    /// original step on independently from the same state, bit-identical
    /// to each other (and to a snapshot/restore round trip) from this
    /// tick on. No serialization is involved. The fork starts without
    /// telemetry and with its own lazily created worker pool.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotSnapshottable`] when the scheduler does not
    /// implement [`Scheduler::clone_box`] or the trace has no
    /// descriptor.
    pub fn fork(&self) -> Result<Self, SnapshotError> {
        let scheduler = self
            .scheduler
            .clone_box()
            .ok_or(SnapshotError::NotSnapshottable("scheduler"))?;
        let trace = self
            .trace
            .descriptor()
            .ok_or(SnapshotError::NotSnapshottable("trace"))?
            .build();
        Ok(Self {
            config: self.config.clone(),
            trace,
            scheduler,
            farm: self.farm.clone(),
            planner: self.planner.clone(),
            next_job_id: self.next_job_id,
            arrival_rng: self.arrival_rng.clone(),
            index: self.index.clone(),
            // Scratch buffers are semantically empty between ticks; the
            // fork warms up its own.
            durations: Vec::new(),
            kinds: Vec::new(),
            batch: Vec::new(),
            outcomes: Vec::new(),
            sampled: Vec::new(),
            departed: Vec::new(),
            departed_scratch: Vec::new(),
            zones: self.zones.clone(),
            telemetry: None,
            run: self.run.as_ref().map(RunState::clone_without_telemetry),
        })
    }

    /// The occupancy ledger, checked in builds with debug assertions
    /// after departures and after placement: the index's occupancy
    /// counts the jobs the farm's per-server used cores do.
    fn debug_check_ledger(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let used: u64 = self
            .farm
            .used_cores_lane()
            .iter()
            .map(|&c| u64::from(c))
            .sum();
        assert_eq!(
            self.index.used_cores_total(),
            used,
            "index occupancy vs farm"
        );
    }

    /// The policy's hot-group size clamped to the farm. The physics
    /// sweep bounds its hot-group totals by it, and both pooled tick
    /// sections (departure drain and sweep) split their shard ranges at
    /// it; without a hot group they split mid-farm.
    fn hot_size(&self) -> Option<usize> {
        let n = self.farm.len();
        self.scheduler.hot_group_size().map(|size| size.clamp(1, n))
    }

    /// Ends every job due at `tick`: one sweep of the job table
    /// ([`ServerFarm::end_due_jobs`]) on the farm's pool when
    /// [`crate::tick_fan_out`] allows more workers.
    ///
    /// An armed flight recorder gets one record per departure in
    /// ascending job-id order within the tick, the order its dumps
    /// document. The sweep logs them by server instead, so a radix sort
    /// on the id restores that order without comparing departures.
    fn process_departures(
        &mut self,
        tick: u64,
        telemetry: Option<&mut EngineTelemetry>,
        timing: Option<&mut SweepTiming>,
    ) {
        let flight = telemetry.filter(|tel| tel.flight_armed());
        // `check_horizon` holds every executed tick below `u32::MAX`.
        let tick_u32 = tick as u32;
        self.farm.end_due_jobs(
            tick_u32,
            self.hot_size().unwrap_or(0),
            &mut self.index,
            flight.is_some().then_some(&mut self.departed),
            timing,
        );
        if let Some(tel) = flight {
            sort_by_high_word(&mut self.departed, &mut self.departed_scratch);
            let base = self.farm.id_base();
            for &word in &self.departed {
                tel.record_departure(tick, base + (word >> 32), word as u32);
            }
            self.departed.clear();
        }
    }

    /// Plans this tick's arrivals from the trace and places each job.
    ///
    /// The planner writes every workload's arrivals straight into their
    /// interleaved slots of `durations` and `kinds`, which one shuffle
    /// then permutes in lockstep. Jobs are materialized front to back,
    /// id- and due-stamped and placed one [`PLACE_CHUNK`] at a time, so
    /// the job and outcome buffers stay one chunk long whatever the
    /// tick's fill. `place_batch` promises the per-job decision
    /// sequence, so the chunks place exactly what one call over the
    /// whole tick would.
    fn plan_and_place(
        &mut self,
        tick: u64,
        now_hours: Hours,
        placements: &mut u64,
        dropped: &mut u64,
        telemetry: Option<&mut EngineTelemetry>,
    ) {
        let total_cores = self.config.total_cores();
        // Plan all workloads first, interleaved, so that placement sees
        // a realistic arrival mix — a long run of one kind would let
        // composition clump on whichever servers happen to be preferred
        // this tick. Both columns live on the simulation and are
        // recycled, so the steady-state hot loop performs no per-tick
        // allocations here.
        let targets =
            WorkloadKind::ALL.map(|kind| self.trace.target_cores(kind, now_hours, total_cores));
        self.planner.plan_tick(
            targets,
            self.index.occupancy().map(|used| used as usize),
            &mut self.durations,
            &mut self.kinds,
        );
        let arrivals = self.durations.len();
        // A strict cyclic interleave aliases with count-based policies
        // (e.g. round robin over a server count divisible by the number
        // of workloads would stripe kinds across servers); a seeded
        // shuffle models the real, unordered arrival stream. The RNG
        // draw sequence depends only on the length, so shuffling the
        // two columns in lockstep draws exactly what shuffling the jobs
        // would.
        shuffle_in_lockstep(&mut self.arrival_rng, &mut self.durations, &mut self.kinds);

        // A tick without arrivals still makes one (empty) call, so every
        // tick reaches the policy's batch hook at least once.
        let mut telemetry = telemetry;
        for start in (0..arrivals.max(1)).step_by(PLACE_CHUNK) {
            let end = (start + PLACE_CHUNK).min(arrivals);
            self.place_chunk(
                tick,
                start..end,
                placements,
                dropped,
                telemetry.as_deref_mut(),
            );
        }

        // Placement instants for sampled jobs: outcome, zone, and
        // departure horizon, emitted after the tick's last chunk so
        // every instant follows the tick's decision records and
        // reflects the final engine-visible decision.
        if let Some(tr) = telemetry.and_then(|tel| tel.tracer.as_mut()) {
            for s in self.sampled.drain(..) {
                tr.placement(s.job, s.kind, s.server, s.zone, s.duration_ticks);
            }
        }
    }

    /// Materializes the arrivals at `positions` of the tick's arrival
    /// order, stamps their ids and due ticks, places them in one
    /// `place_batch` call and books the outcomes.
    fn place_chunk(
        &mut self,
        tick: u64,
        positions: std::ops::Range<usize>,
        placements: &mut u64,
        dropped: &mut u64,
        telemetry: Option<&mut EngineTelemetry>,
    ) {
        // Ids are stamped in arrival order, so they are sequential in
        // the shuffled order, exactly as the whole tick's batch would
        // number them.
        let tick_s = self.config.tick.get();
        let durations = &self.durations[positions.clone()];
        let kinds = &self.kinds[positions];
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        reserve_chunk(&mut batch, durations.len());
        for (&duration, &kind) in durations.iter().zip(kinds) {
            let mut job = Job::new(JobId(self.next_job_id), kind, duration);
            self.next_job_id += 1;
            let due = tick.saturating_add(duration_ticks(&job, tick_s));
            job.set_due_tick(due.min(u64::from(Job::NEVER_DUE)) as u32);
            batch.push(job);
        }

        // Hand the chunk to the scheduler in one call: `place_batch`'s
        // default body runs the identical per-job decision sequence,
        // but monomorphized per policy, so the placement loop costs one
        // dynamic dispatch per chunk. With the span tracer armed the
        // traced variant runs instead, feeding sampled decision detail
        // through a probe — the decision sequence itself is identical
        // either way.
        let mut telemetry = telemetry;
        let mut outcomes = std::mem::take(&mut self.outcomes);
        outcomes.clear();
        reserve_chunk(&mut outcomes, batch.len());
        match telemetry.as_deref_mut().and_then(|tel| tel.tracer.as_mut()) {
            Some(tracer) => {
                let mut probe = TraceProbe { tracer };
                self.scheduler.place_batch_traced(
                    &batch,
                    &mut self.farm,
                    &mut self.index,
                    &mut outcomes,
                    &mut probe,
                );
                // Batch ids are consecutive (assigned above), so the
                // sampled offsets come from one arithmetic pass — no
                // per-job sampling check over tens of thousands of jobs.
                let layout = self.zones.as_ref().map(|z| z.layout());
                let first_id = batch.first().map_or(0, |job| job.id().0);
                for i in probe.tracer.sampled_offsets(first_id, batch.len()) {
                    let (job, placed) = (&batch[i], outcomes[i]);
                    self.sampled.push(SampledPlacement {
                        job: job.id().0,
                        kind: job.kind().index() as u8,
                        server: placed.map(|sid| sid.0 as u32),
                        zone: placed.and_then(|sid| layout.map(|l| l.zone_of(sid.0) as u32)),
                        duration_ticks: (job.duration().get() / tick_s).round().max(1.0) as u32,
                    });
                }
            }
            None => {
                self.scheduler
                    .place_batch(&batch, &mut self.farm, &mut self.index, &mut outcomes);
            }
        }
        debug_assert_eq!(outcomes.len(), batch.len());

        // Engine bookkeeping over the outcomes, in batch order. The
        // flight-record calls are compiled into a separate loop body so
        // the common unrecorded run carries no per-job telemetry branch.
        // Departures need nothing here: each placed job's due tick went
        // into the job table with it. The engine is the index's only
        // writer of starts: each placed job joins its workload's
        // occupancy here, whatever the policy's batch body.
        let flight = telemetry.filter(|tel| tel.flight_armed());
        if let Some(tel) = flight {
            for (job, placed) in batch.iter().zip(&outcomes) {
                match placed {
                    Some(sid) => {
                        self.index.record_start(job.kind());
                        *placements += 1;
                        tel.record_placement(
                            tick,
                            job.id().0,
                            sid.0 as u32,
                            job.kind().index() as u8,
                            duration_ticks(job, tick_s) as u32,
                        );
                    }
                    None => {
                        *dropped += 1;
                        tel.record_drop(tick, job.id().0, job.kind().index() as u8);
                    }
                }
            }
        } else {
            for (job, placed) in batch.iter().zip(&outcomes) {
                match placed {
                    Some(_) => {
                        self.index.record_start(job.kind());
                        *placements += 1;
                    }
                    None => *dropped += 1,
                }
            }
        }
        self.batch = batch;
        self.outcomes = outcomes;
    }
}

/// Arrivals materialized and placed per `place_batch` call: the job
/// and outcome buffers never grow past it, whatever a tick's fill.
const PLACE_CHUNK: usize = 65_536;

/// A sampled job's placement instant, as the span tracer records it.
struct SampledPlacement {
    job: u64,
    kind: u8,
    server: Option<u32>,
    zone: Option<u32>,
    duration_ticks: u32,
}

/// Grows an emptied chunk buffer to hold `len` items, doubling as a
/// `Vec` does but never past [`PLACE_CHUNK`].
fn reserve_chunk<T>(buffer: &mut Vec<T>, len: usize) {
    debug_assert!(buffer.is_empty() && len <= PLACE_CHUNK);
    if buffer.capacity() < len {
        buffer.reserve_exact((2 * buffer.capacity()).clamp(len, PLACE_CHUNK));
    }
}

/// Fisher–Yates over two parallel columns: the draws
/// `SliceRandom::shuffle` makes on a slice of their length, each swap
/// applied to both, so the columns end in the order that shuffle would
/// leave one column of pairs in.
fn shuffle_in_lockstep<A, B>(rng: &mut rand::rngs::SmallRng, a: &mut [A], b: &mut [B]) {
    assert_eq!(a.len(), b.len(), "parallel columns differ in length");
    for i in (1..a.len()).rev() {
        let j = rng.gen_range(0..=i);
        a.swap(i, j);
        b.swap(i, j);
    }
}

/// A job's duration in whole ticks of `tick_s` seconds, at least one —
/// what its due tick is its placement tick plus.
#[inline]
fn duration_ticks(job: &Job, tick_s: f64) -> u64 {
    (job.duration().get() / tick_s).round().max(1.0) as u64
}

/// A trace horizon longer than [`Simulation::MAX_TICKS`] ticks: no job
/// could name a due tick past that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HorizonTooLong {
    /// Ticks the horizon spans.
    pub ticks: u64,
}

impl std::fmt::Display for HorizonTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the horizon spans {} ticks, more than the {} a job's due tick can name",
            self.ticks,
            Simulation::MAX_TICKS
        )
    }
}

impl std::error::Error for HorizonTooLong {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FirstFit;
    use vmt_workload::{DiurnalTrace, TraceConfig};

    fn small_run(servers: usize) -> SimulationResult {
        let mut trace_cfg = TraceConfig::paper_default();
        trace_cfg.horizon = Hours::new(6.0);
        Simulation::new(
            ClusterConfig::paper_default(servers),
            DiurnalTrace::new(trace_cfg),
            Box::new(FirstFit::new()),
        )
        .run()
    }

    #[test]
    fn runs_expected_tick_count() {
        let r = small_run(4);
        assert_eq!(r.cooling.len(), 6 * 60);
        assert_eq!(r.avg_temp.len(), 6 * 60);
        assert_eq!(r.temp_heatmap.len(), 6 * 60 / 5);
    }

    #[test]
    fn no_drops_at_paper_load_levels() {
        let r = small_run(4);
        assert_eq!(r.dropped_jobs, 0);
        assert!(r.placements > 0);
    }

    #[test]
    fn cooling_load_tracks_electrical_scale() {
        let r = small_run(4);
        // Rejected heat never exceeds electrical + max possible wax
        // release; sanity-band the peak between idle and nameplate.
        let peak = r.peak_cooling().get();
        assert!(peak > 4.0 * 100.0, "peak {peak}");
        assert!(peak < 4.0 * 520.0, "peak {peak}");
    }

    #[test]
    fn deterministic_runs() {
        let a = small_run(3);
        let b = small_run(3);
        assert_eq!(a.cooling, b.cooling);
        assert_eq!(a.placements, b.placements);
    }

    /// First fit from a cursor that only moves forward within a tick:
    /// one pass over the farm per tick, so a first tick of 10,000
    /// servers places in milliseconds.
    struct CursorFit {
        next: usize,
    }

    impl crate::SnapshotState for CursorFit {}

    impl Scheduler for CursorFit {
        fn name(&self) -> &str {
            "cursor-fit"
        }

        fn on_tick(&mut self, _farm: &ServerFarm, _now: vmt_units::Seconds) {
            self.next = 0;
        }

        fn place(&mut self, _job: &Job, farm: &ServerFarm) -> Option<ServerId> {
            while self.next < farm.len() && farm.free_cores(self.next) == 0 {
                self.next += 1;
            }
            (self.next < farm.len()).then_some(ServerId(self.next))
        }
    }

    #[test]
    fn chunk_buffers_stay_one_chunk_after_a_large_first_tick() {
        let servers = 10_000;
        let mut sim = Simulation::new(
            ClusterConfig::paper_default(servers),
            DiurnalTrace::new(TraceConfig::paper_default()),
            Box::new(CursorFit { next: 0 }),
        );
        assert!(sim.step());
        let placed: u64 = (0..servers)
            .map(|i| u64::from(sim.farm().used_cores(i)))
            .sum();
        assert!(
            placed > 2 * PLACE_CHUNK as u64,
            "the first tick placed {placed} jobs, not more than two chunks"
        );
        assert_eq!(sim.durations.len() as u64, placed);
        assert_eq!(sim.kinds.len(), sim.durations.len());
        assert!(
            sim.batch.capacity() <= PLACE_CHUNK,
            "{}",
            sim.batch.capacity()
        );
        assert!(
            sim.outcomes.capacity() <= PLACE_CHUNK,
            "{}",
            sim.outcomes.capacity()
        );
        assert!(sim.sampled.is_empty());
    }

    /// The lockstep shuffle leaves both columns in the permutation
    /// `SliceRandom::shuffle` gives an index vector from the same seed,
    /// and the RNG where that shuffle leaves it: at lengths 0, 1, 2,
    /// either side of a placement chunk, and drawn lengths.
    #[test]
    fn lockstep_shuffle_permutes_as_slice_shuffle() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::RngCore;
        let mut lengths = vec![0, 1, 2, PLACE_CHUNK - 1, PLACE_CHUNK, PLACE_CHUNK + 1];
        let mut draw = SmallRng::seed_from_u64(5);
        lengths.extend((0..16).map(|_| draw.gen_range(3..300_000usize)));
        for (seed, n) in lengths.into_iter().enumerate() {
            let mut index_rng = SmallRng::seed_from_u64(seed as u64 ^ 0xA11C_E5ED);
            let mut lockstep_rng = index_rng.clone();
            let mut index: Vec<u32> = (0..n as u32).collect();
            index.shuffle(&mut index_rng);
            let mut a: Vec<u32> = (0..n as u32).collect();
            let mut b: Vec<WorkloadKind> =
                (0..n).map(|i| WorkloadKind::from_index(i % 5)).collect();
            shuffle_in_lockstep(&mut lockstep_rng, &mut a, &mut b);
            assert_eq!(a, index, "length {n}");
            for (&at, &kind) in a.iter().zip(&b) {
                assert_eq!(
                    kind,
                    WorkloadKind::from_index(at as usize % 5),
                    "length {n}"
                );
            }
            assert_eq!(index_rng.next_u64(), lockstep_rng.next_u64(), "length {n}");
        }
    }

    #[test]
    fn time_varying_inlet_is_applied() {
        let mut config = ClusterConfig::paper_default(3);
        config.inlet = vmt_thermal::InletModel::diurnal_ambient(
            vmt_units::Celsius::new(21.0),
            vmt_units::DegC::new(2.0),
            15.0,
        );
        let mut trace_cfg = TraceConfig::paper_default();
        trace_cfg.horizon = Hours::new(16.0);
        let (_, farm) = Simulation::new(
            config,
            DiurnalTrace::new(trace_cfg),
            Box::new(FirstFit::new()),
        )
        .run_returning_farm();
        // At the end of the run (hour 16, one tick past the 15:00
        // ambient peak) every server's inlet sits near the top of the
        // swing.
        for i in 0..farm.len() {
            assert!(
                (farm.inlet(i).get() - 22.93).abs() < 0.05,
                "inlet {} should track ambient",
                farm.inlet(i)
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// Engine bookkeeping invariant: across any short run, every
            /// placement is eventually matched by a departure or still
            /// running at the end, and the occupancy implied by the
            /// final electrical power is consistent with that.
            #[test]
            fn placements_balance_departures(
                servers in 2usize..8,
                horizon_h in 2.0f64..12.0,
                seed in 0u64..1000,
            ) {
                let mut config = ClusterConfig::paper_default(servers);
                config.seed = seed;
                let mut trace_cfg = TraceConfig::paper_default();
                trace_cfg.horizon = Hours::new(horizon_h);
                let (result, farm) = Simulation::new(
                    config,
                    DiurnalTrace::new(trace_cfg),
                    Box::new(FirstFit::new()),
                )
                .run_returning_farm();
                prop_assert_eq!(result.dropped_jobs, 0);
                let running: u32 = (0..farm.len()).map(|i| farm.used_cores(i)).sum();
                prop_assert!(u64::from(running) <= result.placements);
                // Electrical floor: idle power of every server.
                let idle_floor = servers as f64 * 100.0;
                for w in result.electrical.samples() {
                    prop_assert!(w.get() >= idle_floor - 1e-6);
                    prop_assert!(w.get() <= servers as f64 * 500.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn occupancy_is_conserved() {
        // Over a short run, placements = departures + still-running jobs;
        // indirectly validated by zero drops plus the engine not
        // panicking on end_job bookkeeping; spot-check electrical power
        // returns near idle at the trough.
        let mut trace_cfg = TraceConfig::paper_default();
        trace_cfg.horizon = Hours::new(10.0); // covers the hour-8 trough
        let r = Simulation::new(
            ClusterConfig::paper_default(4),
            DiurnalTrace::new(trace_cfg),
            Box::new(FirstFit::new()),
        )
        .run();
        // At the trough (hour 8) utilization ≈35%: electrical well below
        // the peak.
        let trough_tick = 8 * 60;
        let peak_tick = r.electrical.len() - 1; // hour 10 on the rise
        let _ = peak_tick;
        let trough = r.electrical.samples()[trough_tick].get();
        let peak = r.electrical.peak().get();
        assert!(trough < peak, "trough {trough} peak {peak}");
    }
}
