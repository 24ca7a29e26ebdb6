//! Engine-side telemetry wiring.
//!
//! A [`Simulation`](crate::Simulation) built with
//! [`with_telemetry`](crate::Simulation::with_telemetry) carries an
//! [`EngineTelemetry`] for the duration of the run; without one the
//! engine takes **zero** timestamps and performs no telemetry work at
//! all, so the disabled path stays bit-identical and allocation-free.
//!
//! All observation here is read-only: counters, gauges, and events are
//! derived from state the engine already computes (the farm, the
//! cluster index, the sweep totals), never fed back into placement or
//! physics, so an instrumented run produces the same
//! [`SimulationResult`] (crate::SimulationResult) as a bare one.

use crate::config::ClusterConfig;
use crate::farm::ServerFarm;
use crate::index::ClusterIndex;
use crate::topology::ZoneCooling;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vmt_pcm::{MeltDirection, MELT_EVENT_THRESHOLD};
use vmt_telemetry::{
    render_openmetrics, AnomalyEvent, Counter, Dashboard, DashboardRow, Event, FlightConfig,
    FlightRecorder, Gauge, Histogram, HotGroupEvent, HotGroupTransition, MeltEvent, MeltTransition,
    PhaseProfiler, ProgressMeter, RunConfigEvent, SchedulerCounters, SharedSeries, SnapshotEvent,
    SummaryEvent, TelemetryConfig, TickState, TraceRecord, Tracer, WatchdogSet, SCHEMA_VERSION,
    SPARK_WIDTH,
};

/// Bucket bounds for the arrivals-per-tick histogram: powers of two up
/// to 4096 jobs in one tick (a 10k-server cluster peaks well below
/// that).
const ARRIVAL_BUCKETS: [f64; 14] = [
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// `# HELP` text for the `/metrics` exposition, keyed by OpenMetrics
/// family name (dots already folded to underscores).
const METRIC_HELP: &[(&str, &str)] = &[
    ("engine_ticks", "Simulation ticks executed."),
    ("engine_placements", "Jobs placed onto servers."),
    ("engine_dropped_jobs", "Jobs dropped at admission."),
    (
        "engine_melt_events",
        "Per-server wax melt threshold crossings.",
    ),
    ("engine_hot_group_events", "Hot-group resize events."),
    ("engine_anomaly_events", "Watchdog anomalies raised."),
    ("engine_tick_arrivals", "Jobs arriving per tick."),
    ("cluster_utilization", "Fraction of cluster cores busy."),
    (
        "cluster_mean_air_c",
        "Mean server air temperature (Celsius).",
    ),
    (
        "cluster_max_air_c",
        "Max server air temperature (Celsius), sampled at snapshot cadence.",
    ),
    (
        "cluster_melted_fraction",
        "Fraction of servers reporting melted wax.",
    ),
    ("cluster_cooling_w", "Cooling load this tick (Watts)."),
    ("scheduler_spills_per_tick", "QoS spills this tick."),
    ("zone_temp_c", "CRAC zone supply-air temperature (Celsius)."),
    (
        "zone_crac_duty",
        "Zone CRAC duty: heat removed over plant capacity, 0 to 1.",
    ),
    (
        "zone_headroom_c",
        "Setpoint minus zone temperature (Celsius); negative when over setpoint.",
    ),
    (
        "zone_melt_fraction",
        "Mean reported wax melt fraction across the zone's servers.",
    ),
    (
        "zone_hot_occupancy",
        "Fraction of the zone's servers inside the hot group.",
    ),
    ("zone_max_temp_c", "Hottest zone temperature (Celsius)."),
];

/// Cluster-wide per-tick time series, registered when
/// [`TelemetryConfig::series_capacity`] is set.
struct ClusterSeries {
    utilization: SharedSeries,
    mean_air_c: SharedSeries,
    melted_fraction: SharedSeries,
    cooling_w: SharedSeries,
    spills: SharedSeries,
}

/// Per-zone instruments: gauges always, temperature series when series
/// are enabled.
struct ZoneGauges {
    temp: Gauge,
    duty: Gauge,
    headroom: Gauge,
    melt: Gauge,
    hot_occupancy: Gauge,
    temp_series: Option<SharedSeries>,
}

/// All per-zone observability state, present only on zoned runs.
struct ZoneObservability {
    setpoint_c: f64,
    gauges: Vec<ZoneGauges>,
    /// Hottest zone per tick — one series that stays readable when the
    /// cluster has more zones than a dashboard has rows.
    max_temp_series: Option<SharedSeries>,
}

/// Dashboard cadence state: its own meter (the dashboard cadence is
/// independent of `--progress`) plus a short wall-clock ticks/s history
/// for the throughput sparkline. The ticks/s ring lives here — never in
/// the registry — because it is wall-clock derived and must not ride
/// into the (deterministic) metrics snapshot.
struct DashboardDriver {
    meter: ProgressMeter,
    dashboard: Dashboard,
    ticks_per_s: Vec<f64>,
}

/// A stopwatch for the engine's per-phase laps.
///
/// Constructed once per tick *only when telemetry is enabled*; the
/// disabled path never touches `Instant`.
pub(crate) struct PhaseClock {
    started: Instant,
    last: Instant,
}

impl PhaseClock {
    pub(crate) fn start() -> Self {
        let now = Instant::now();
        Self {
            started: now,
            last: now,
        }
    }

    /// Nanoseconds since the previous lap (or construction).
    pub(crate) fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }

    /// Whole-tick-body elapsed time.
    pub(crate) fn total(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Everything a telemetry-enabled run tracks while ticking.
pub(crate) struct EngineTelemetry {
    config: TelemetryConfig,
    pub(crate) profiler: PhaseProfiler,
    started: Instant,
    progress: Option<ProgressMeter>,
    progress_drawn: bool,
    /// Each server's reported melt
    /// ([`ServerFarm::reported_melt_fraction`]) as of the tick being
    /// recorded: the lane the melt scan, zone gauges and watchdogs read.
    melt_lane: Vec<f64>,
    /// Whether each server's reported melt was above
    /// [`MELT_EVENT_THRESHOLD`] last tick.
    melted: Vec<bool>,
    melted_count: u64,
    last_hot_size: Option<u64>,
    /// The flight ring, when [`FlightConfig`] armed one.
    recorder: Option<FlightRecorder>,
    /// Dump destinations for the armed ring.
    flight: Option<FlightConfig>,
    /// Watchdog-triggered dump files written so far.
    anomaly_dumps: usize,
    /// Armed anomaly detectors, when the config listed any.
    watchdogs: Option<WatchdogSet>,
    /// The deterministic span tracer, when [`TelemetryConfig::trace`]
    /// armed one. The engine drives it directly (phase laps, zone
    /// spans, placement instants); this module adds anomaly instants
    /// and deposits the finished buffer at the end of the run.
    pub(crate) tracer: Option<Tracer>,
    /// Scheduler spill total as of the previous tick (for deltas).
    last_spills: u64,
    ticks: Counter,
    placements: Counter,
    dropped: Counter,
    melt_events: Counter,
    hot_group_events: Counter,
    anomaly_events: Counter,
    utilization: Gauge,
    mean_air_c: Gauge,
    max_air_c: Gauge,
    melted_fraction: Gauge,
    tick_arrivals: Arc<Histogram>,
    /// Cluster-wide ring-buffer series, when series are enabled.
    series: Option<ClusterSeries>,
    /// Per-zone gauges and series, when the run is zoned.
    zones_obs: Option<ZoneObservability>,
    /// Live dashboard state, when `--dashboard` armed one.
    dashboard: Option<DashboardDriver>,
}

/// `<base>.anomaly<n>` — sibling path for the n-th watchdog dump.
fn anomaly_dump_path(base: &Path, n: usize) -> PathBuf {
    let mut os = base.as_os_str().to_owned();
    os.push(format!(".anomaly{n}"));
    PathBuf::from(os)
}

/// How many individual zones get their own dashboard row before the
/// display falls back to the hottest-zone aggregate.
const DASHBOARD_ZONE_ROWS: usize = 6;

/// Builds the dashboard's sparkline rows from the current series
/// windows. Peaky quantities (cooling load, spills, hottest zone) fold
/// buckets by max so bursts survive downsampling; level quantities fold
/// by mean.
fn dashboard_rows(
    ticks_per_s: &[f64],
    series: Option<&ClusterSeries>,
    zones_obs: Option<&ZoneObservability>,
) -> Vec<DashboardRow> {
    let mut rows = Vec::new();
    rows.push(DashboardRow::new(
        "ticks/s",
        ticks_per_s.last().copied().unwrap_or(0.0),
        "",
        ticks_per_s.to_vec(),
    ));
    if let Some(cs) = series {
        let cooling = cs.cooling_w.snapshot();
        rows.push(DashboardRow::new(
            "cooling",
            cooling.last_value().unwrap_or(0.0) / 1000.0,
            "kW",
            cooling
                .downsample_to(SPARK_WIDTH)
                .iter()
                .map(|b| b.max / 1000.0)
                .collect(),
        ));
        let melted = cs.melted_fraction.snapshot();
        rows.push(DashboardRow::new(
            "melted",
            melted.last_value().unwrap_or(0.0) * 100.0,
            "%",
            melted
                .downsample_to(SPARK_WIDTH)
                .iter()
                .map(|b| b.mean * 100.0)
                .collect(),
        ));
        let spills = cs.spills.snapshot();
        rows.push(DashboardRow::new(
            "spills",
            spills.last_value().unwrap_or(0.0),
            "/tick",
            spills
                .downsample_to(SPARK_WIDTH)
                .iter()
                .map(|b| b.max)
                .collect(),
        ));
    }
    if let Some(obs) = zones_obs {
        for (z, g) in obs.gauges.iter().enumerate().take(DASHBOARD_ZONE_ROWS) {
            let Some(s) = &g.temp_series else { continue };
            let snap = s.snapshot();
            rows.push(DashboardRow::new(
                format!("zone {z:02}"),
                snap.last_value().unwrap_or(obs.setpoint_c),
                "°C",
                snap.downsample_to(SPARK_WIDTH)
                    .iter()
                    .map(|b| b.mean)
                    .collect(),
            ));
        }
        if obs.gauges.len() > DASHBOARD_ZONE_ROWS {
            if let Some(s) = &obs.max_temp_series {
                let snap = s.snapshot();
                rows.push(DashboardRow::new(
                    "zone max",
                    snap.last_value().unwrap_or(obs.setpoint_c),
                    "°C",
                    snap.downsample_to(SPARK_WIDTH)
                        .iter()
                        .map(|b| b.max)
                        .collect(),
                ));
            }
        }
    }
    rows
}

impl EngineTelemetry {
    /// Registers the engine's metrics and arms the progress meter,
    /// flight recorder, watchdogs, series rings, per-zone instruments,
    /// and dashboard.
    pub(crate) fn new(
        mut config: TelemetryConfig,
        num_servers: usize,
        total_ticks: u64,
        zones: Option<&ZoneCooling>,
    ) -> Self {
        let registry = &config.registry;
        let ticks = registry.counter("engine.ticks");
        let placements = registry.counter("engine.placements");
        let dropped = registry.counter("engine.dropped_jobs");
        let melt_events = registry.counter("engine.melt_events");
        let hot_group_events = registry.counter("engine.hot_group_events");
        let anomaly_events = registry.counter("engine.anomaly_events");
        let utilization = registry.gauge("cluster.utilization");
        let mean_air_c = registry.gauge("cluster.mean_air_c");
        let max_air_c = registry.gauge("cluster.max_air_c");
        let melted_fraction = registry.gauge("cluster.melted_fraction");
        let tick_arrivals = registry.histogram("engine.tick_arrivals", &ARRIVAL_BUCKETS);
        let series_capacity = config.series_capacity;
        // Series duplicating a live gauge get a `.recent` suffix so the
        // exposition keeps one family per name; window-only quantities
        // (cooling watts, spills) are series alone.
        let series = series_capacity.map(|cap| ClusterSeries {
            utilization: registry.series("cluster.utilization.recent", cap),
            mean_air_c: registry.series("cluster.mean_air_c.recent", cap),
            melted_fraction: registry.series("cluster.melted_fraction.recent", cap),
            cooling_w: registry.series("cluster.cooling_w", cap),
            spills: registry.series("scheduler.spills_per_tick", cap),
        });
        let zones_obs = zones.map(|zc| {
            let gauges = (0..zc.layout().zones())
                .map(|z| ZoneGauges {
                    temp: registry.gauge(&format!("zone.temp_c{{zone=\"{z}\"}}")),
                    duty: registry.gauge(&format!("zone.crac_duty{{zone=\"{z}\"}}")),
                    headroom: registry.gauge(&format!("zone.headroom_c{{zone=\"{z}\"}}")),
                    melt: registry.gauge(&format!("zone.melt_fraction{{zone=\"{z}\"}}")),
                    hot_occupancy: registry.gauge(&format!("zone.hot_occupancy{{zone=\"{z}\"}}")),
                    temp_series: series_capacity.map(|cap| {
                        registry.series(&format!("zone.temp_c.recent{{zone=\"{z}\"}}"), cap)
                    }),
                })
                .collect();
            ZoneObservability {
                setpoint_c: zc.setpoint_c(),
                gauges,
                max_temp_series: series_capacity.map(|cap| registry.series("zone.max_temp_c", cap)),
            }
        });
        let dashboard = config.dashboard_every_ticks.map(|every| DashboardDriver {
            meter: ProgressMeter::new(total_ticks, every),
            dashboard: Dashboard::auto(),
            ticks_per_s: Vec::new(),
        });
        let progress = config
            .progress_every_ticks
            .map(|every| ProgressMeter::new(total_ticks, every));
        let flight = config.flight.take();
        let recorder = flight
            .as_ref()
            .map(|f| FlightRecorder::with_capacity(f.capacity));
        let specs = std::mem::take(&mut config.watchdogs);
        let watchdogs = (!specs.is_empty()).then(|| WatchdogSet::new(specs, num_servers));
        let tracer = config.trace.take().map(|spec| Tracer::new(&spec));
        Self {
            config,
            profiler: PhaseProfiler::new(),
            started: Instant::now(),
            progress,
            progress_drawn: false,
            melt_lane: Vec::with_capacity(num_servers),
            melted: vec![false; num_servers],
            melted_count: 0,
            last_hot_size: None,
            recorder,
            flight,
            anomaly_dumps: 0,
            watchdogs,
            tracer,
            last_spills: 0,
            ticks,
            placements,
            dropped,
            melt_events,
            hot_group_events,
            anomaly_events,
            utilization,
            mean_air_c,
            max_air_c,
            melted_fraction,
            tick_arrivals,
            series,
            zones_obs,
            dashboard,
        }
    }

    /// Records a job placement into the flight ring. No-op when the
    /// ring is not armed.
    #[inline]
    pub(crate) fn record_placement(
        &mut self,
        tick: u64,
        job: u64,
        server: u32,
        kind: u8,
        duration_ticks: u32,
    ) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(TraceRecord::JobPlaced {
                tick,
                job,
                server,
                kind,
                duration_ticks,
            });
        }
    }

    /// Records a dropped job into the flight ring.
    #[inline]
    pub(crate) fn record_drop(&mut self, tick: u64, job: u64, kind: u8) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(TraceRecord::JobDropped { tick, job, kind });
        }
    }

    /// True when a flight recorder is attached, letting callers skip
    /// whole per-entry record loops instead of taking a no-op per item.
    #[inline]
    pub(crate) fn flight_armed(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records a job departure into the flight ring.
    #[inline]
    pub(crate) fn record_departure(&mut self, tick: u64, job: u64, server: u32) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(TraceRecord::JobDeparted { tick, job, server });
        }
    }

    /// Writes a watchdog-triggered flight dump, capped by
    /// [`FlightConfig::max_anomaly_dumps`].
    fn dump_anomaly(&mut self, tick: u64, watchdog: vmt_telemetry::WatchdogKind) {
        let Some(flight) = self.flight.as_ref() else {
            return;
        };
        let Some(base) = flight.dump_path.as_deref() else {
            return;
        };
        if self.anomaly_dumps >= flight.max_anomaly_dumps {
            return;
        }
        let Some(rec) = self.recorder.as_ref() else {
            return;
        };
        self.anomaly_dumps += 1;
        let path = anomaly_dump_path(base, self.anomaly_dumps);
        let written = std::fs::File::create(&path)
            .and_then(|mut file| rec.dump_jsonl(&mut file, tick, Some(watchdog)));
        if let Err(e) = written {
            eprintln!("flight dump to {} failed: {e}", path.display());
        }
    }

    /// Writes the stream's opening [`RunConfigEvent`].
    pub(crate) fn emit_run_config(
        &self,
        policy: &str,
        cluster: &ClusterConfig,
        farm: &ServerFarm,
        ticks: u64,
    ) {
        if let Some(sink) = &self.config.sink {
            sink.emit(&Event::RunConfig(RunConfigEvent {
                schema_version: SCHEMA_VERSION,
                policy: policy.to_owned(),
                servers: cluster.num_servers as u64,
                cores_per_server: u64::from(farm.cores()),
                ticks,
                tick_seconds: cluster.tick.get(),
                seed: cluster.seed,
                threads: farm.threads() as u64,
                has_wax: farm.has_wax(),
                snapshot_every_ticks: self.config.snapshot_every_ticks,
            }));
        }
    }

    /// The engine's per-tick record step, called after physics with the
    /// farm freshly updated. `tick` is 1-based (the tick just ran).
    /// `cooling_w` is the tick's cooling load; `zones` is the freshly
    /// stepped zone model on zoned runs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_tick(
        &mut self,
        tick: u64,
        sim_hours: f64,
        farm: &ServerFarm,
        index: &ClusterIndex,
        mean_air_c: f64,
        hot_size: Option<usize>,
        placed_delta: u64,
        dropped_delta: u64,
        scheduler: Option<SchedulerCounters>,
        cooling_w: f64,
        zones: Option<&ZoneCooling>,
    ) {
        self.ticks.inc();
        self.placements.add(placed_delta);
        self.dropped.add(dropped_delta);
        self.tick_arrivals
            .record((placed_delta + dropped_delta) as f64);
        let utilization = index.utilization();
        self.utilization.set(utilization);
        self.mean_air_c.set(mean_air_c);

        // Threshold scan over the estimator-reported melt fractions —
        // the same signal the paper's schedulers act on.
        self.melt_lane.clear();
        self.melt_lane
            .extend((0..farm.len()).map(|i| farm.reported_melt_fraction(i).get()));
        let melt = self.melt_lane.as_slice();
        let air = farm.air_at_wax_lane();
        for (i, was) in self.melted.iter_mut().enumerate() {
            let Some(direction) =
                vmt_pcm::classify_melt_transition(*was, melt[i], MELT_EVENT_THRESHOLD)
            else {
                continue;
            };
            *was = !*was;
            match direction {
                MeltDirection::Melting => self.melted_count += 1,
                MeltDirection::Freezing => self.melted_count -= 1,
            }
            self.melt_events.inc();
            if let Some(rec) = self.recorder.as_mut() {
                rec.push(TraceRecord::MeltCrossing {
                    tick,
                    server: i as u32,
                    melting: matches!(direction, MeltDirection::Melting),
                    air_c: air[i] as f32,
                });
            }
            if let Some(sink) = &self.config.sink {
                sink.emit(&Event::Melt(MeltEvent {
                    tick,
                    server: i as u64,
                    transition: match direction {
                        MeltDirection::Melting => MeltTransition::BeganMelting,
                        MeltDirection::Freezing => MeltTransition::Refroze,
                    },
                    air_c: air[i],
                    melted_servers: self.melted_count,
                }));
            }
        }
        let melted_fraction = if self.melted.is_empty() {
            0.0
        } else {
            self.melted_count as f64 / self.melted.len() as f64
        };
        self.melted_fraction.set(melted_fraction);

        // Hot-group size changes (first observation sets the baseline
        // silently; a policy growing from its initial size is an event).
        let hot = hot_size.map(|s| s as u64);
        if hot != self.last_hot_size {
            if let (Some(previous), Some(current)) = (self.last_hot_size, hot) {
                self.hot_group_events.inc();
                if let Some(rec) = self.recorder.as_mut() {
                    rec.push(TraceRecord::HotGroupResize {
                        tick,
                        previous: previous as u32,
                        current: current as u32,
                    });
                }
                if let Some(sink) = &self.config.sink {
                    sink.emit(&Event::HotGroup(HotGroupEvent {
                        tick,
                        transition: if current > previous {
                            HotGroupTransition::Grew
                        } else {
                            HotGroupTransition::Shrank
                        },
                        previous,
                        current,
                    }));
                }
            }
            self.last_hot_size = hot;
        }

        // Spill delta from the policy's cumulative counters; recorded
        // into the flight ring and fed to the QoS-spill watchdog.
        let spills_total = scheduler.map(|s| s.spills).unwrap_or(self.last_spills);
        let spills_delta = spills_total.saturating_sub(self.last_spills);
        self.last_spills = spills_total;
        if spills_delta > 0 {
            if let Some(rec) = self.recorder.as_mut() {
                rec.push(TraceRecord::SchedulerSpill {
                    tick,
                    spills: spills_delta as u32,
                });
            }
        }

        // Per-zone instruments: all reads, over state the zone step
        // already computed; zone temperatures never feed back into the
        // simulation, so updating gauges cannot perturb it.
        if let (Some(obs), Some(zones)) = (self.zones_obs.as_ref(), zones) {
            let layout = zones.layout();
            let temps = zones.temperatures();
            let duties = zones.duties();
            let hot = hot_size.unwrap_or(0);
            let mut max_temp = f64::NEG_INFINITY;
            for (z, g) in obs.gauges.iter().enumerate() {
                let range = layout.zone_range(z);
                let servers = range.len() as f64;
                let temp = temps[z];
                g.temp.set(temp);
                g.duty.set(duties[z]);
                g.headroom.set(obs.setpoint_c - temp);
                let melt_sum: f64 = melt[range.clone()].iter().sum();
                g.melt.set(melt_sum / servers);
                // VMT's hot group is the id-ordered prefix [0, hot), so
                // its overlap with a contiguous zone is a range clip.
                let overlap = hot.min(range.end).saturating_sub(range.start) as f64;
                g.hot_occupancy.set(overlap / servers);
                if let Some(s) = &g.temp_series {
                    s.push(tick, temp);
                }
                max_temp = max_temp.max(temp);
            }
            if let Some(s) = &obs.max_temp_series {
                if max_temp.is_finite() {
                    s.push(tick, max_temp);
                }
            }
        }

        // Cluster-wide series: one push per quantity per tick.
        if let Some(cs) = &self.series {
            cs.utilization.push(tick, utilization);
            cs.mean_air_c.push(tick, mean_air_c);
            cs.melted_fraction.push(tick, melted_fraction);
            cs.cooling_w.push(tick, cooling_w);
            cs.spills.push(tick, spills_delta as f64);
        }

        // Watchdogs see only state this method already has in hand.
        if let Some(watchdogs) = self.watchdogs.as_mut() {
            let state = TickState {
                tick,
                air_c: air,
                reported_melt: melt,
                used_cores: farm.used_cores_lane(),
                hot_group_size: hot,
                spills_delta,
            };
            let fired: Vec<AnomalyEvent> = watchdogs.observe(&state).to_vec();
            for event in &fired {
                self.anomaly_events.inc();
                if let Some(rec) = self.recorder.as_mut() {
                    rec.push(TraceRecord::AnomalyMark {
                        tick,
                        watchdog: event.watchdog,
                    });
                }
                // Span-trace instant: lands inside the current tick's
                // span, linking the anomaly to the phases (and any
                // sampled placements) of its window.
                if let Some(tr) = self.tracer.as_mut() {
                    tr.anomaly(event.watchdog.label(), event.server, event.value);
                }
                if let Some(sink) = &self.config.sink {
                    sink.emit(&Event::Anomaly(event.clone()));
                }
            }
            if let Some(first) = fired.first() {
                self.dump_anomaly(tick, first.watchdog);
            }
        }

        if tick.is_multiple_of(self.config.snapshot_every_ticks) {
            let max_air = air.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let max_air = if max_air == f64::NEG_INFINITY {
                0.0
            } else {
                max_air
            };
            self.max_air_c.set(max_air);
            if let Some(sink) = &self.config.sink {
                sink.emit(&Event::Snapshot(SnapshotEvent {
                    tick,
                    sim_hours,
                    jobs_in_flight: index.used_cores_total(),
                    utilization,
                    mean_air_c,
                    max_air_c: max_air,
                    melted_fraction,
                    hot_group_size: hot,
                }));
            }
        }

        // Publish a freshly rendered exposition for `/metrics` scrapes:
        // at snapshot cadence, plus tick 1 so early scrapes see real
        // families rather than the empty bootstrap document.
        if let Some(publisher) = &self.config.publisher {
            if tick == 1 || tick.is_multiple_of(self.config.snapshot_every_ticks) {
                let body = render_openmetrics(&self.config.registry.snapshot(), METRIC_HELP);
                publisher.publish(tick, body);
            }
        }

        if let Some(meter) = &self.progress {
            if let Some(frame) = meter.observe(tick, index.used_cores_total(), melted_fraction) {
                eprint!("\r{}", frame.render());
                self.progress_drawn = true;
            }
        }

        if let Some(drv) = self.dashboard.as_mut() {
            if let Some(frame) = drv
                .meter
                .observe(tick, index.used_cores_total(), melted_fraction)
            {
                drv.ticks_per_s.push(frame.ticks_per_s);
                if drv.ticks_per_s.len() > SPARK_WIDTH {
                    drv.ticks_per_s.remove(0);
                }
                let rows = dashboard_rows(
                    &drv.ticks_per_s,
                    self.series.as_ref(),
                    self.zones_obs.as_ref(),
                );
                drv.dashboard.draw(&frame, &rows);
            }
        }
    }

    /// Closes out the run: summary event to the sink (flushed) and into
    /// the caller's [`SummaryHandle`](vmt_telemetry::SummaryHandle).
    pub(crate) fn finish(
        mut self,
        policy: &str,
        scheduler: Option<SchedulerCounters>,
        placements: u64,
        dropped_jobs: u64,
        peak_cooling_w: f64,
        peak_electrical_w: f64,
    ) {
        if self.progress_drawn {
            eprintln!();
        }
        if let Some(drv) = self.dashboard.as_mut() {
            drv.dashboard.finish();
        }
        let wall_s = self.started.elapsed().as_secs_f64();
        let ticks_run = self.profiler.ticks();
        let final_melted_fraction = if self.melted.is_empty() {
            0.0
        } else {
            self.melted_count as f64 / self.melted.len() as f64
        };
        // On-demand end-of-run dump (`--flight-dump` without an anomaly).
        if let (Some(rec), Some(flight)) = (self.recorder.as_ref(), self.flight.as_ref()) {
            if let Some(path) = flight.dump_path.as_deref() {
                let written = std::fs::File::create(path)
                    .and_then(|mut file| rec.dump_jsonl(&mut file, ticks_run, None));
                if let Err(e) = written {
                    eprintln!("flight dump to {} failed: {e}", path.display());
                }
            }
        }
        // Deposit the finished trace for the caller holding a clone of
        // the config's [`TracerHandle`](vmt_telemetry::TracerHandle).
        if let Some(tracer) = self.tracer.take() {
            self.config.tracer.set(tracer.into_buffer());
        }
        let anomalies = self
            .watchdogs
            .as_ref()
            .map(WatchdogSet::anomalies_total)
            .unwrap_or(0);
        // Snapshot the error count before the summary's own write so the
        // value describes the stream the summary closes.
        let write_errors = self
            .config
            .sink
            .as_ref()
            .map(|sink| sink.write_errors())
            .unwrap_or(0);
        let summary = SummaryEvent {
            schema_version: SCHEMA_VERSION,
            policy: policy.to_owned(),
            ticks_run,
            wall_s,
            ticks_per_s: if wall_s > 0.0 {
                ticks_run as f64 / wall_s
            } else {
                0.0
            },
            placements,
            dropped_jobs,
            peak_cooling_w,
            peak_electrical_w,
            final_melted_fraction,
            write_errors,
            anomalies,
            phases: self.profiler.breakdown(),
            scheduler,
            metrics: self.config.registry.snapshot(),
        };
        if let Some(sink) = &self.config.sink {
            sink.emit(&Event::Summary(summary.clone()));
            sink.flush();
        }
        // Final publication so a scrape after the run ends (or between
        // snapshot cadences) sees the closing state.
        if let Some(publisher) = &self.config.publisher {
            publisher.publish(ticks_run, render_openmetrics(&summary.metrics, METRIC_HELP));
        }
        self.config.summary.set(summary);
    }
}
