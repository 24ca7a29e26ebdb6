//! The three workloads that drive a `Simulation` tick by tick:
//! `place-100k`, `observe-10k` and `checkpoint-100k`.
//!
//! Each run does a fixed amount of work: a number of identical units (or
//! checkpoint cycles) set by `--seconds` and a nominal unit length on a
//! 2-CPU host, so every run of a workload takes the same tick samples and
//! its tail percentile is the same rank in every run.

use crate::checks::{check_outputs, Checks, Outputs};
use crate::metrics::Values;
use crate::probe::Probe;
use crate::references::REFERENCES;
use crate::spans::{span, Spans};
use crate::{stats, timed, Pass, SETUP_REPS};
use std::time::Instant;
use vmt_core::PolicyKind;
use vmt_dcsim::{ClusterConfig, Simulation, Snapshot, SummaryHandle, TelemetryConfig};
use vmt_telemetry::{
    EventSink, FlightConfig, MetricsPublisher, PhaseBreakdown, SchedulerCounters, SharedBuffer,
    SummaryEvent, TraceSpec,
};
use vmt_units::{Hours, Minutes};
use vmt_workload::{DiurnalTrace, RecordedTrace, TraceConfig, WorkloadKind};

/// VMT-WA at the paper's best grouping value, in every workload here.
const GV: f64 = 22.0;

/// `place-100k`: 30 one-minute ticks from hour 18.5, where the load
/// reaches the evening plateau and hot jobs spill, on an empty
/// 100k-server cluster.
const PLACE_SERVERS: usize = 100_000;
const PLACE_START_H: f64 = 18.5;
const PLACE_TICKS: usize = 30;
const PLACE_UNIT_S: f64 = 5.0;

/// `observe-10k`: four zoned hours across the peak at the default two
/// tick threads, every observability layer attached.
const OBSERVE_SERVERS: usize = 10_000;
const OBSERVE_THREADS: usize = 2;
const OBSERVE_START_H: f64 = 16.5;
const OBSERVE_TICKS: usize = 240;
const OBSERVE_UNIT_S: f64 = 3.4;
/// Trace every 200th job, as `BENCH_engine.json`'s tracing row does: the
/// spans of a full slice then fit the default ring.
const OBSERVE_TRACE_SAMPLE: u64 = 200;

/// `checkpoint-100k`: the `place-100k` slice, warmed past the initial
/// fill, then cycles of checkpoint, restore and a short run that end
/// with the slice, so its outputs are `place-100k`'s.
const CHECKPOINT_WARM_TICKS: usize = 6;
const CHECKPOINT_WARM_S: f64 = 1.5;
const CHECKPOINT_CYCLE_S: f64 = 4.2;
const CHECKPOINT_MAX_CYCLES: usize = 8;

/// Units that fill `seconds` at a nominal `unit_s` each, at least one.
fn units_for(seconds: u64, unit_s: f64) -> usize {
    ((seconds as f64 / unit_s).round() as usize).max(1)
}

/// The paper trace from hour `start_h` for `ticks` one-minute ticks,
/// sampled at every tick into a recorded (so checkpointable) trace.
fn paper_slice(seed: u64, start_h: f64, ticks: usize) -> RecordedTrace {
    let mut config = TraceConfig::paper_default();
    config.seed = seed;
    let paper = DiurnalTrace::new(config);
    let rows = (0..=ticks)
        .map(|i| {
            let t = Hours::new(start_h + i as f64 / 60.0);
            let mut row = [0.0; 5];
            for kind in WorkloadKind::ALL {
                row[kind.index()] = paper.utilization(kind, t).get();
            }
            row
        })
        .collect();
    RecordedTrace::from_samples(Minutes::new(1.0), rows)
        .expect("paper-trace utilizations are valid rows")
}

/// A paper-default cluster seeded from the workload seed.
fn cluster(servers: usize, seed: u64) -> ClusterConfig {
    let mut cluster = ClusterConfig::paper_default(servers);
    cluster.seed = seed;
    cluster
}

/// Builds a VMT-WA simulation, wrapped in the probe on a traced pass.
fn build(
    cluster: ClusterConfig,
    trace: RecordedTrace,
    threads: usize,
    spans: Option<&Spans>,
) -> Simulation {
    let mut policy = PolicyKind::vmt_wa(GV).build(&cluster);
    if let Some(spans) = spans {
        policy = Probe::wrap(policy, spans);
    }
    Simulation::new(cluster, trace, policy).with_threads(threads)
}

/// The `place-100k` slice on one thread. A traced pass also attaches the
/// engine's phase profiler and keeps the handle its summary arrives in.
fn slice_sim(seed: u64, spans: Option<&Spans>) -> (Simulation, Option<SummaryHandle>) {
    let sim = build(
        cluster(PLACE_SERVERS, seed),
        paper_slice(seed, PLACE_START_H, PLACE_TICKS),
        1,
        spans,
    );
    match spans {
        Some(_) => {
            let telemetry = TelemetryConfig::new();
            let summary = telemetry.summary.clone();
            (sim.with_telemetry(telemetry), Some(summary))
        }
        None => (sim, None),
    }
}

/// Steps `ticks` ticks (fewer at the horizon), timing each one.
fn step(sim: &mut Simulation, ticks: usize, spans: Option<&Spans>, pass: &mut Pass) {
    for _ in 0..ticks {
        if sim.current_tick() >= sim.total_ticks() {
            break;
        }
        let (_, took) = timed(pass, spans, "dcsim.step", || sim.step());
        pass.tick_s.push(took);
        pass.server_ticks += sim.farm().len() as u64;
    }
}

/// Jobs running on the farm (one core each).
fn in_flight(sim: &Simulation) -> u64 {
    let farm = sim.farm();
    (0..farm.len()).map(|i| u64::from(farm.used_cores(i))).sum()
}

/// Ends the run: `finish` timed into the pass, outputs read around it.
fn finish(sim: Simulation, spans: Option<&Spans>, pass: &mut Pass) -> Outputs {
    let digest = sim.state_digest();
    let ((result, _servers), took) = timed(pass, spans, "dcsim.finish", || sim.finish());
    pass.finish_s.push(took);
    Outputs {
        placements: result.placements,
        dropped: result.dropped_jobs,
        digest,
        peak_cooling_w: result.peak_cooling().get(),
    }
}

/// The engine-layer view a traced pass collects from the phase profiler
/// (through the telemetry summary), the probe's spans and the farm.
#[derive(Default)]
struct EngineLayers {
    phases: PhaseBreakdown,
    counters: SchedulerCounters,
    placements: u64,
    departures: u64,
    server_ticks: u64,
    place_batch_s: f64,
    on_tick_s: f64,
    bytes_per_server: f64,
}

impl EngineLayers {
    /// Adds one profiled segment: the summary its telemetry deposited,
    /// the jobs still running at its end, and the probe's span totals so
    /// far (`spans` accumulate over the pass, so they are read, not added).
    fn add(&mut self, summary: &SummaryEvent, in_flight: u64, servers: usize, spans: &Spans) {
        let p = &summary.phases;
        let q = &mut self.phases;
        q.inlet_s += p.inlet_s;
        q.departures_s += p.departures_s;
        q.scheduler_tick_s += p.scheduler_tick_s;
        q.placement_s += p.placement_s;
        q.physics_s += p.physics_s;
        q.fold_s += p.fold_s;
        q.record_s += p.record_s;
        q.pool_busy_s += p.pool_busy_s;
        q.pool_idle_s += p.pool_idle_s;
        q.total_s += p.total_s;
        q.ticks += p.ticks;
        if let Some(c) = &summary.scheduler {
            self.counters.placements += c.placements;
            self.counters.spills += c.spills;
            self.counters.hot_group_growth += c.hot_group_growth;
        }
        self.placements += summary.placements;
        self.departures += summary.placements.saturating_sub(in_flight);
        self.server_ticks += servers as u64 * p.ticks;
        let log = spans.borrow();
        self.place_batch_s = log.total_s("core.place_batch");
        self.on_tick_s = log.total_s("core.on_tick");
    }

    fn values(&self, first_tick_s: f64, finish_s: &[f64]) -> Values {
        let per_ns = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let p = &self.phases;
        Values::from([
            ("core.place_batch_s", self.place_batch_s),
            (
                "core.ns_per_placement",
                per_ns(self.place_batch_s, self.placements),
            ),
            ("core.on_tick_s", self.on_tick_s),
            (
                "core.spill_ratio",
                ratio(self.counters.spills, self.counters.placements),
            ),
            (
                "core.hot_group_growth",
                self.counters.hot_group_growth as f64,
            ),
            ("dcsim.arrivals_s", p.placement_s - self.place_batch_s),
            ("dcsim.departures_s", p.departures_s),
            (
                "dcsim.ns_per_departure",
                per_ns(p.departures_s, self.departures),
            ),
            ("dcsim.first_tick_s", first_tick_s),
            ("farm.bytes_per_server", self.bytes_per_server),
            ("dcsim.physics_s", p.physics_s),
            (
                "dcsim.ns_per_server_step",
                per_ns(p.physics_s, self.server_ticks),
            ),
            ("dcsim.record_s", p.record_s),
            ("dcsim.pool_busy_s", p.pool_busy_s),
            ("dcsim.pool_idle_s", p.pool_idle_s),
            ("dcsim.finish_s", stats::median(finish_s).unwrap_or(0.0)),
        ])
    }
}

/// Checks that every unit of a run produced the outputs of the first.
fn check_units_agree(checks: &mut Checks, workload: &str, units: &[Outputs]) {
    for (i, outputs) in units.iter().enumerate().skip(1) {
        checks.equal(
            &format!("{workload}: unit {i} repeats unit 0"),
            outputs,
            &units[0],
        );
    }
}

/// Runs `units` units, each after its own timed set-up; runs at least
/// [`SETUP_REPS`] set-ups, discarding the extra ones.
fn run_units<S>(
    units: usize,
    pass: &mut Pass,
    spans: Option<&Spans>,
    mut setup: impl FnMut() -> S,
    mut unit: impl FnMut(S, &mut Pass) -> Outputs,
) -> Vec<Outputs> {
    let setups = units.max(SETUP_REPS);
    let mut outputs = Vec::with_capacity(units);
    for i in 0..setups {
        let start = Instant::now();
        let built = span(spans, "bench.setup", &mut setup);
        pass.setup_s.push(start.elapsed().as_secs_f64());
        if i >= setups - units {
            outputs.push(unit(built, pass));
        }
    }
    outputs
}

/// `place-100k`.
pub fn place(seed: u64, seconds: u64, spans: Option<&Spans>, checks: &mut Checks) -> Pass {
    let units = units_for(seconds, PLACE_UNIT_S);
    let mut pass = Pass::default();
    let mut layers = EngineLayers::default();
    let mut first_ticks = Vec::new();
    let outputs = run_units(
        units,
        &mut pass,
        spans,
        || slice_sim(seed, spans),
        |(mut sim, summary), pass| {
            let first = pass.tick_s.len();
            step(&mut sim, PLACE_TICKS, spans, pass);
            first_ticks.push(pass.tick_s[first]);
            let running = in_flight(&sim);
            layers.bytes_per_server = sim.farm().job_table_bytes() as f64 / PLACE_SERVERS as f64;
            let outputs = finish(sim, spans, pass);
            if let (Some(spans), Some(summary)) = (spans, summary.and_then(|s| s.get())) {
                layers.add(&summary, running, PLACE_SERVERS, spans);
            }
            outputs
        },
    );
    check_units_agree(checks, "place-100k", &outputs);
    check_outputs(checks, "place-100k", seed, &outputs[0], REFERENCES);
    pass.outputs = outputs[0];
    if spans.is_some() {
        pass.layers = layers.values(stats::median(&first_ticks).unwrap_or(0.0), &pass.finish_s);
    }
    pass
}

/// The cluster and trace of `observe-10k`.
fn observe_inputs(seed: u64) -> (ClusterConfig, RecordedTrace) {
    (
        cluster(OBSERVE_SERVERS, seed).with_zones(),
        paper_slice(seed, OBSERVE_START_H, OBSERVE_TICKS),
    )
}

/// `observe-10k` with telemetry detached: the outputs every observed run
/// must reproduce, and the host seconds its ticks took.
pub struct Detached {
    outputs: Outputs,
    ticks_s: f64,
}

/// Runs `observe-10k` once with telemetry detached.
pub fn observe_detached(seed: u64) -> Detached {
    let (cluster, trace) = observe_inputs(seed);
    let mut sim = build(cluster, trace, OBSERVE_THREADS, None);
    let mut pass = Pass::default();
    step(&mut sim, OBSERVE_TICKS, None, &mut pass);
    Detached {
        outputs: finish(sim, None, &mut pass),
        ticks_s: pass.tick_s.iter().sum(),
    }
}

/// `observe-10k`.
pub fn observe(
    seed: u64,
    seconds: u64,
    detached: &Detached,
    spans: Option<&Spans>,
    checks: &mut Checks,
) -> Pass {
    let units = units_for(seconds, OBSERVE_UNIT_S);
    let mut pass = Pass::default();
    let mut layers = EngineLayers::default();
    let mut first_ticks = Vec::new();
    let mut export_s = Vec::new();
    let mut ticks_s = Vec::new();
    let mut artifacts = Values::new();
    let outputs = run_units(
        units,
        &mut pass,
        spans,
        || {
            let (cluster, trace) = observe_inputs(seed);
            let events = SharedBuffer::new();
            let publisher = MetricsPublisher::new();
            let telemetry = TelemetryConfig::new()
                .with_sink(EventSink::to_shared_buffer(&events))
                .with_flight(FlightConfig::default())
                .with_series(TelemetryConfig::DEFAULT_SERIES_CAPACITY)
                .with_publisher(publisher.clone())
                .with_trace(TraceSpec {
                    sample_every: OBSERVE_TRACE_SAMPLE,
                    ..TraceSpec::default()
                });
            let tracer = telemetry.tracer.clone();
            let summary = telemetry.summary.clone();
            let sim = build(cluster, trace, OBSERVE_THREADS, spans).with_telemetry(telemetry);
            (sim, events, publisher, tracer, summary)
        },
        |(mut sim, events, publisher, tracer, summary), pass| {
            let first = pass.tick_s.len();
            step(&mut sim, OBSERVE_TICKS, spans, pass);
            first_ticks.push(pass.tick_s[first]);
            ticks_s.push(pass.tick_s[first..].iter().sum::<f64>());
            let running = in_flight(&sim);
            layers.bytes_per_server = sim.farm().job_table_bytes() as f64 / OBSERVE_SERVERS as f64;
            let outputs = finish(sim, spans, pass);
            let finish_s = pass.finish_s.last().copied().unwrap_or(0.0);
            let ((), took) = timed(pass, spans, "telemetry.export", || {
                export(
                    &events,
                    &publisher,
                    &tracer,
                    &outputs,
                    spans,
                    checks,
                    &mut artifacts,
                );
            });
            export_s.push(finish_s + took);
            if let (Some(spans), Some(summary)) = (spans, summary.get()) {
                layers.add(&summary, running, OBSERVE_SERVERS, spans);
            }
            checks.equal(
                "observe-10k: outputs equal the telemetry-detached run's",
                &outputs,
                &detached.outputs,
            );
            outputs
        },
    );
    check_units_agree(checks, "observe-10k", &outputs);
    check_outputs(checks, "observe-10k", seed, &outputs[0], REFERENCES);
    pass.outputs = outputs[0];
    pass.user
        .insert("export_s", stats::median(&export_s).unwrap_or(0.0));
    pass.user.insert(
        "telemetry.in_run_overhead",
        stats::median(&ticks_s).unwrap_or(0.0) / detached.ticks_s - 1.0,
    );
    if let Some(spans) = spans {
        pass.layers = layers.values(stats::median(&first_ticks).unwrap_or(0.0), &pass.finish_s);
        let log = spans.borrow();
        for (metric, name) in [
            ("telemetry.render_trace_s", "telemetry.render_trace"),
            ("telemetry.validate_trace_s", "telemetry.validate_trace"),
            (
                "telemetry.parse_openmetrics_s",
                "telemetry.parse_openmetrics",
            ),
            ("telemetry.validate_stream_s", "telemetry.validate_stream"),
        ] {
            let median = stats::median(&log.durations_s(name)).unwrap_or(0.0);
            pass.layers.insert(metric, median);
        }
        pass.layers.extend(artifacts);
    }
    pass
}

/// Renders and validates a finished observed run's artifacts: the span
/// trace, the last OpenMetrics exposition and the JSONL event stream.
fn export(
    events: &SharedBuffer,
    publisher: &MetricsPublisher,
    tracer: &vmt_telemetry::TracerHandle,
    outputs: &Outputs,
    spans: Option<&Spans>,
    checks: &mut Checks,
    artifacts: &mut Values,
) {
    match tracer.take() {
        Some(buffer) => {
            artifacts.insert("telemetry.trace_records", buffer.records.len() as f64);
            artifacts.insert("telemetry.trace_dropped", buffer.dropped as f64);
            let text = span(spans, "telemetry.render_trace", || {
                vmt_telemetry::render_trace(&buffer)
            });
            let stats = span(spans, "telemetry.validate_trace", || {
                vmt_telemetry::validate_trace(&text)
            });
            match stats {
                Ok(stats) => {
                    checks.equal("observe-10k: traced ticks", stats.ticks, OBSERVE_TICKS);
                    checks.equal("observe-10k: trace ring dropped records", stats.dropped, 0);
                    checks.check(
                        "observe-10k: trace has sampled placements",
                        stats.placements > 0,
                    );
                }
                Err(err) => checks.check(&format!("observe-10k: trace validates: {err}"), false),
            }
        }
        None => checks.check("observe-10k: the run deposited its trace buffer", false),
    }
    let exposition = publisher.latest();
    let parsed = span(spans, "telemetry.parse_openmetrics", || {
        vmt_telemetry::parse_openmetrics(&exposition.body)
    });
    match parsed {
        Ok(parsed) => checks.check(
            "observe-10k: OpenMetrics carries the zone gauges",
            parsed.family("zone_temp_c").is_some(),
        ),
        Err(err) => checks.check(&format!("observe-10k: OpenMetrics parses: {err}"), false),
    }
    let stream = span(spans, "telemetry.validate_stream", || {
        vmt_telemetry::validate_stream(&events.contents())
    });
    match stream {
        Ok(stream) => {
            artifacts.insert("telemetry.stream_events", stream.events as f64);
            checks.equal(
                "observe-10k: stream write errors",
                stream.summary.write_errors,
                0,
            );
            checks.equal(
                "observe-10k: stream summary placements",
                stream.summary.placements,
                outputs.placements,
            );
        }
        Err(err) => checks.check(
            &format!("observe-10k: event stream validates: {err}"),
            false,
        ),
    }
}

/// Checkpoint cycles that fill `seconds` after the warm-up: at least
/// one, and few enough that each cycle runs a few ticks of the slice.
fn checkpoint_cycles(seconds: u64) -> usize {
    (((seconds as f64 - CHECKPOINT_WARM_S) / CHECKPOINT_CYCLE_S).round() as usize)
        .clamp(1, CHECKPOINT_MAX_CYCLES)
}

/// The `place-100k` slice, untraced: the outputs every `checkpoint-100k`
/// run must reproduce.
pub fn uninterrupted(seed: u64) -> Outputs {
    let (mut sim, _) = slice_sim(seed, None);
    let mut pass = Pass::default();
    step(&mut sim, PLACE_TICKS, None, &mut pass);
    finish(sim, None, &mut pass)
}

/// `checkpoint-100k`.
pub fn checkpoint(
    seed: u64,
    seconds: u64,
    uninterrupted: &Outputs,
    spans: Option<&Spans>,
    checks: &mut Checks,
) -> Pass {
    let mut pass = Pass::default();
    let (mut capture, mut encode, mut decode, mut restore) = (vec![], vec![], vec![], vec![]);
    let mut layers = EngineLayers::default();
    let mut snapshot_mb = 0.0;
    let outputs = run_units(
        1,
        &mut pass,
        spans,
        || slice_sim(seed, spans),
        |(mut sim, mut summary), pass| {
            step(&mut sim, CHECKPOINT_WARM_TICKS, spans, pass);
            let cycles = checkpoint_cycles(seconds);
            for cycle in 0..cycles {
                let before = sim.state_digest();
                let (snapshot, took) = timed(pass, spans, "snapshot.capture", || sim.snapshot());
                capture.push(took);
                let snapshot = match snapshot {
                    Ok(snapshot) => snapshot,
                    Err(err) => {
                        checks.check(&format!("checkpoint-100k: snapshot: {err}"), false);
                        return Outputs::default();
                    }
                };
                let (text, took) = timed(pass, spans, "snapshot.encode", || snapshot.encode());
                encode.push(took);
                snapshot_mb = text.len() as f64 / 1e6;
                drop(snapshot);
                // The profiler covers the warm-up only: restored
                // simulations carry no telemetry.
                match (spans, summary.take()) {
                    (Some(spans), Some(handle)) => {
                        let running = in_flight(&sim);
                        layers.bytes_per_server =
                            sim.farm().job_table_bytes() as f64 / PLACE_SERVERS as f64;
                        drop(sim.finish());
                        if let Some(summary) = handle.get() {
                            layers.add(&summary, running, PLACE_SERVERS, spans);
                        }
                    }
                    _ => drop(sim),
                }
                let (decoded, took) =
                    timed(pass, spans, "snapshot.decode", || Snapshot::decode(&text));
                decode.push(took);
                drop(text);
                let (restored, took) = timed(pass, spans, "snapshot.restore", || {
                    decoded.and_then(|snapshot| match spans {
                        // The traced pass wraps the restored policy again.
                        Some(spans) => vmt_core::scheduler_from_saved(&snapshot.scheduler)
                            .and_then(|policy| {
                                Simulation::restore_with(&snapshot, Probe::wrap(policy, spans))
                            }),
                        None => vmt_core::restore_simulation(&snapshot),
                    })
                });
                restore.push(took);
                sim = match restored {
                    Ok(sim) => sim.with_threads(1),
                    Err(err) => {
                        checks.check(&format!("checkpoint-100k: restore: {err}"), false);
                        return Outputs::default();
                    }
                };
                checks.equal(
                    &format!("checkpoint-100k: cycle {cycle} restores the digest it saved"),
                    format!("{:#018x}", sim.state_digest()),
                    format!("{before:#018x}"),
                );
                step(
                    &mut sim,
                    (PLACE_TICKS - CHECKPOINT_WARM_TICKS) / cycles,
                    spans,
                    pass,
                );
            }
            step(&mut sim, PLACE_TICKS, spans, pass);
            finish(sim, spans, pass)
        },
    );
    checks.equal(
        "checkpoint-100k: outputs equal the uninterrupted run's",
        &outputs[0],
        uninterrupted,
    );
    // The slice is `place-100k`'s, and so are its recorded outputs.
    check_outputs(checks, "place-100k", seed, &outputs[0], REFERENCES);
    pass.outputs = outputs[0];
    let sum = |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
    pass.user.insert(
        "checkpoint_s",
        stats::median(&sum(&capture, &encode)).unwrap_or(0.0),
    );
    pass.user.insert(
        "restore_s",
        stats::median(&sum(&decode, &restore)).unwrap_or(0.0),
    );
    pass.user.insert("snapshot_mb", snapshot_mb);
    if spans.is_some() {
        let first_tick_s = pass.tick_s.first().copied().unwrap_or(0.0);
        pass.layers = layers.values(first_tick_s, &pass.finish_s);
        for (metric, samples) in [
            ("snapshot.capture_s", &capture),
            ("snapshot.encode_s", &encode),
            ("snapshot.decode_s", &decode),
            ("snapshot.restore_s", &restore),
        ] {
            pass.layers
                .insert(metric, stats::median(samples).unwrap_or(0.0));
        }
    }
    pass
}
