//! Span-tracing integration tests: the tracer must be deterministic
//! and observational.
//!
//! The contract: an enabled trace is a pure function of the simulation
//! — every record except the wall-clock `dur_ns` fields is bit-identical
//! across thread counts and between a recording run and its replay —
//! and enabling it never perturbs the simulation itself. With tracing
//! disabled the engine holds no tracer at all, so the disabled path
//! adds zero timestamps (pinned structurally here and by the
//! differential tests).

use vmt_core::PolicyKind;
use vmt_dcsim::{
    ClusterConfig, RecordingScheduler, ReplayHandle, ReplayScheduler, Simulation, TelemetryConfig,
    TraceHandle, TraceSpec, ZoneSpec,
};
use vmt_telemetry::{SpanRecord, TraceBuffer, TraceStats, DECISION_TOP_K};
use vmt_units::Hours;
use vmt_workload::{DiurnalTrace, TraceConfig};

const SERVERS: usize = 40;
const SERVERS_PER_ZONE: usize = 20;
const HOURS: f64 = 6.0;

/// A two-zone 40-server cluster and its matching 6 h trace.
fn zoned_config() -> (ClusterConfig, TraceConfig) {
    let mut cluster = ClusterConfig::paper_default(SERVERS);
    cluster.seed = 7;
    // Two 20-server zones: one rack per row, one row per zone.
    let mut spec = ZoneSpec::paper_default();
    spec.racks_per_row = 1;
    spec.rows_per_zone = 1;
    cluster.topology = Some(spec);
    let mut trace = TraceConfig {
        horizon: Hours::new(HOURS),
        ..TraceConfig::paper_default()
    };
    trace.seed = trace.seed.wrapping_add(7);
    (cluster, trace)
}

fn zoned_sim(threads: usize) -> Simulation {
    let (cluster, trace) = zoned_config();
    let policy = PolicyKind::vmt_wa(22.0);
    let scheduler = policy.build(&cluster);
    Simulation::new(cluster, DiurnalTrace::new(trace), scheduler).with_threads(threads)
}

/// Runs the zoned simulation with tracing enabled and returns the
/// deposited buffer alongside the result.
fn traced_run(threads: usize, spec: TraceSpec) -> (vmt_dcsim::SimulationResult, TraceBuffer) {
    let telemetry = TelemetryConfig::new().with_trace(spec);
    let tracer = telemetry.tracer.clone();
    let result = zoned_sim(threads).with_telemetry(telemetry).run();
    let buffer = tracer.take().expect("run deposits a trace buffer");
    (result, buffer)
}

/// Enabled tracing is observational and deterministic: a traced run
/// matches the bare run digest-for-digest at every tick, the final
/// results are bit-identical, and the emitted records — durations
/// aside — are identical at threads 1 and 8.
#[test]
fn traced_run_is_pure_and_identical_across_threads() {
    let mut buffers: Vec<TraceBuffer> = Vec::new();
    for threads in [1usize, 8] {
        let mut bare = zoned_sim(threads);
        let telemetry = TelemetryConfig::new().with_trace(TraceSpec::default());
        let tracer = telemetry.tracer.clone();
        let mut traced = zoned_sim(threads).with_telemetry(telemetry);

        // Lockstep march with per-tick digest comparison: a divergence
        // is caught at the tick that caused it.
        let mut tick = 0u64;
        loop {
            let bare_stepped = bare.step();
            assert_eq!(
                bare_stepped,
                traced.step(),
                "horizon mismatch at tick {tick} threads {threads}"
            );
            if !bare_stepped {
                break;
            }
            tick += 1;
            assert_eq!(
                bare.state_digest(),
                traced.state_digest(),
                "tracing perturbed tick {tick} threads {threads}"
            );
        }
        let (bare_result, _) = bare.finish();
        let (traced_result, _) = traced.finish();
        assert_eq!(
            bare_result, traced_result,
            "tracing perturbed the final result at threads {threads}"
        );
        buffers.push(tracer.take().expect("trace buffer deposited"));
    }

    let [one, eight] = &buffers[..] else {
        unreachable!()
    };
    assert_eq!(one.dropped, eight.dropped);
    assert_eq!(
        one.without_durations(),
        eight.without_durations(),
        "trace records differ between threads 1 and 8"
    );
    // Durations are the *only* thing allowed to differ: the rendered
    // traces must agree event-for-event once durations are zeroed.
    let zeroed = |buffer: &TraceBuffer| TraceBuffer {
        records: buffer.without_durations(),
        dropped: buffer.dropped,
    };
    assert_eq!(
        vmt_telemetry::render_trace(&zeroed(one)),
        vmt_telemetry::render_trace(&zeroed(eight)),
        "rendered traces differ between threads 1 and 8 beyond durations"
    );
}

/// A recording run and its replay emit the same trace (modulo
/// durations): both drive the detail-free `place_batch_traced` default,
/// so the record stream — ticks, phases, placements, zones — is a pure
/// function of the simulated schedule either wrapper re-derives.
#[test]
fn record_and_replay_emit_identical_traces() {
    let (cluster, trace_cfg) = zoned_config();
    let policy = PolicyKind::vmt_wa(22.0);

    // Recording pass, traced.
    let handle = TraceHandle::new();
    let recorder = RecordingScheduler::new(policy.build(&cluster), handle.clone());
    let telemetry = TelemetryConfig::new().with_trace(TraceSpec::default());
    let recording_tracer = telemetry.tracer.clone();
    let (result, end_farm) = Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace_cfg.clone()),
        Box::new(recorder),
    )
    .with_telemetry(telemetry)
    .run_returning_farm();
    let header = vmt_telemetry::replay::TraceHeader {
        schema_version: vmt_telemetry::replay::TRACE_SCHEMA_VERSION,
        policy: "vmt-wa".to_owned(),
        servers: SERVERS as u64,
        hours: HOURS,
        cluster_seed: cluster.seed,
        trace_seed: trace_cfg.seed,
        tick_seconds: cluster.tick.get(),
        ticks: 0,
    };
    let mut placement_trace = handle.into_trace(header, &result, &end_farm);
    placement_trace.header.ticks = placement_trace.footer.ticks_run;
    let recorded = recording_tracer.take().expect("recording deposits a trace");

    // Replay pass, traced, reconstructed purely from the written trace
    // text the way `vmt-experiments replay` does it.
    let reparsed = vmt_telemetry::replay::PlacementTrace::parse(&placement_trace.to_jsonl())
        .expect("recorded trace parses");
    let report = ReplayHandle::new();
    let replayer = ReplayScheduler::new(reparsed, report.clone());
    let telemetry = TelemetryConfig::new().with_trace(TraceSpec::default());
    let replay_tracer = telemetry.tracer.clone();
    Simulation::new(cluster, DiurnalTrace::new(trace_cfg), Box::new(replayer))
        .with_telemetry(telemetry)
        .run();
    let replayed = replay_tracer.take().expect("replay deposits a trace");

    assert!(
        matches!(
            report.verdict(),
            vmt_telemetry::replay::ReplayVerdict::BitIdentical { .. }
        ),
        "replay diverged"
    );
    assert_eq!(recorded.dropped, replayed.dropped);
    assert_eq!(
        recorded.without_durations(),
        replayed.without_durations(),
        "record and replay traces differ beyond durations"
    );
}

/// The rendered trace of a real zoned run passes the strict validator
/// with the shape the run implies: one tick span per tick, six phase
/// spans per tick, one zone span per zone per tick, and paired
/// placement/decision instants for every sampled job.
#[test]
fn rendered_trace_validates_with_expected_shape() {
    let spec = TraceSpec {
        sample_every: 10,
        ..TraceSpec::default()
    };
    let (_, buffer) = traced_run(1, spec);
    let ticks = (HOURS * 60.0) as usize;
    let json = vmt_telemetry::render_trace(&buffer);
    let stats = vmt_telemetry::validate_trace(&json).expect("trace validates");
    assert_eq!(stats.ticks, ticks);
    assert_eq!(stats.phases, 6 * ticks, "six top-level phases per tick");
    assert_eq!(
        stats.zones,
        (SERVERS / SERVERS_PER_ZONE) * ticks,
        "one span per zone per tick"
    );
    assert!(stats.placements > 0, "no sampled placements over {HOURS} h");
    assert_eq!(
        stats.placements, stats.decisions,
        "every sampled placement carries its decision"
    );
    assert_eq!(stats.dropped, 0);

    // The parsed form round-trips through the strict serializer.
    let trace = vmt_telemetry::parse_trace(&json).expect("parses");
    let rewritten = serde_json::to_string(&trace).expect("serializes");
    assert_eq!(
        vmt_telemetry::parse_trace(&rewritten).expect("re-parses"),
        trace
    );
}

/// The explain chain holds for every sampled job: its decision and
/// placement records pair up on the same tick, a balancer rung's chosen
/// server is the best candidate of its snapshot with the matching
/// winning key, and the recorded zone is the chosen server's zone.
#[test]
fn decision_records_reconstruct_the_placement_chain() {
    let spec = TraceSpec {
        sample_every: 7,
        ..TraceSpec::default()
    };
    let (_, buffer) = traced_run(1, spec);

    let mut decisions = 0usize;
    for record in &buffer.records {
        let SpanRecord::Decision {
            tick,
            job,
            rung,
            chosen,
            winning_key,
            candidates,
            ..
        } = record
        else {
            continue;
        };
        decisions += 1;
        assert!(!rung.is_empty(), "job {job}: empty rung label");
        assert!(
            candidates.len() <= DECISION_TOP_K,
            "job {job}: candidate snapshot exceeds top-k"
        );
        // The snapshot is best-first: keys ascend.
        for pair in candidates.windows(2) {
            assert!(
                pair[0].key <= pair[1].key,
                "job {job}: candidates not sorted by key"
            );
        }
        // A balancer rung picks the snapshot's best candidate, and the
        // winning key is that candidate's key.
        if rung.ends_with("balancer") {
            let chosen = chosen.expect("balancer rung placed the job");
            let best = candidates.first().expect("balancer rung has candidates");
            assert_eq!(chosen, best.server, "job {job}: balancer skipped the best");
            assert_eq!(
                *winning_key,
                Some(best.key),
                "job {job}: winning key is not the chosen candidate's"
            );
        }
        // The paired placement instant: same job, same tick, the same
        // chosen server, and the zone that server lives in.
        let placement = buffer
            .records
            .iter()
            .find(|r| matches!(r, SpanRecord::Placement { job: j, .. } if j == job))
            .unwrap_or_else(|| panic!("job {job}: no placement record"));
        let SpanRecord::Placement {
            tick: placed_tick,
            server,
            zone,
            duration_ticks,
            ..
        } = placement
        else {
            unreachable!()
        };
        assert_eq!(placed_tick, tick, "job {job}: decision/placement tick skew");
        assert_eq!(
            *server, *chosen,
            "job {job}: decision/placement server skew"
        );
        match *server {
            Some(server) => {
                assert_eq!(
                    *zone,
                    Some(server / SERVERS_PER_ZONE as u32),
                    "job {job}: zone is not the chosen server's"
                );
                assert!(*duration_ticks > 0, "job {job}: zero-length placement");
            }
            None => assert_eq!(*zone, None, "job {job}: dropped job carries a zone"),
        }
    }
    assert!(decisions > 0, "no decisions sampled over {HOURS} h");
}

/// Sampling strides and pinned job lists select exactly the jobs they
/// promise.
#[test]
fn sampling_selects_the_promised_jobs() {
    let spec = TraceSpec {
        sample_every: 0,
        jobs: vec![3, 11],
        ..TraceSpec::default()
    };
    let (_, buffer) = traced_run(1, spec);
    let mut seen = Vec::new();
    for record in &buffer.records {
        if let SpanRecord::Placement { job, .. } = record {
            if !seen.contains(job) {
                seen.push(*job);
            }
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![3, 11], "pinned job list not honoured");
}

/// Without `with_trace` the engine holds no tracer: nothing is
/// deposited, and the tick loop's traced branches are never taken — the
/// disabled path costs zero extra timestamps by construction.
#[test]
fn disabled_tracing_deposits_nothing() {
    let telemetry = TelemetryConfig::new();
    let tracer = telemetry.tracer.clone();
    zoned_sim(1).with_telemetry(telemetry).run();
    assert!(tracer.take().is_none(), "no trace was requested");
}

/// A fixed buffer that reaches every branch of the exporter: all six
/// record kinds; a placement with no server or zone; a decision with
/// no chosen server, no winning key and no candidates; an infinite
/// winning key (rendered `null`); floats that print in exponent form;
/// a watchdog name holding a quote, a backslash, control characters
/// and non-ASCII text; a leading tick group whose tick record is
/// missing (laid out by its phase spans); a zero-duration tick (the
/// 1 µs floor); and a non-zero ring-drop count.
fn golden_buffer() -> TraceBuffer {
    use vmt_telemetry::{SpanCandidate, TickPhase};
    let candidate = |server, key| SpanCandidate { server, key };
    let records = vec![
        // Tick 3: its tick record is missing.
        SpanRecord::Phase {
            tick: 3,
            seq: 4,
            phase: TickPhase::Placement,
            dur_ns: 1_250,
        },
        SpanRecord::Placement {
            tick: 3,
            seq: 5,
            job: 30,
            kind: 1,
            server: None,
            zone: None,
            duration_ticks: 4,
        },
        SpanRecord::Decision {
            tick: 3,
            seq: 6,
            job: 30,
            rung: "cold-any".to_string(),
            chosen: None,
            winning_key: None,
            candidates: Vec::new(),
        },
        SpanRecord::Phase {
            tick: 3,
            seq: 7,
            phase: TickPhase::Physics,
            dur_ns: 333,
        },
        // Tick 4: a complete tick on two zones.
        SpanRecord::Phase {
            tick: 4,
            seq: 0,
            phase: TickPhase::Inlet,
            dur_ns: 100,
        },
        SpanRecord::Phase {
            tick: 4,
            seq: 1,
            phase: TickPhase::Departures,
            dur_ns: 2_000,
        },
        SpanRecord::Phase {
            tick: 4,
            seq: 2,
            phase: TickPhase::SchedulerTick,
            dur_ns: 0,
        },
        SpanRecord::Decision {
            tick: 4,
            seq: 3,
            job: 42,
            rung: "hot-balancer".to_string(),
            chosen: Some(5),
            winning_key: Some(23.0625),
            candidates: vec![
                candidate(5, 23.0625),
                candidate(9, 23.5),
                candidate(12, 24.000000000000004),
            ],
        },
        SpanRecord::Placement {
            tick: 4,
            seq: 4,
            job: 42,
            kind: 2,
            server: Some(5),
            zone: Some(0),
            duration_ticks: 12,
        },
        SpanRecord::Decision {
            tick: 4,
            seq: 5,
            job: 43,
            rung: "keep-warm".to_string(),
            chosen: Some(7),
            winning_key: None,
            candidates: Vec::new(),
        },
        SpanRecord::Placement {
            tick: 4,
            seq: 6,
            job: 43,
            kind: 0,
            server: Some(7),
            zone: None,
            duration_ticks: 3,
        },
        SpanRecord::Phase {
            tick: 4,
            seq: 7,
            phase: TickPhase::Placement,
            dur_ns: 1_500,
        },
        SpanRecord::Phase {
            tick: 4,
            seq: 8,
            phase: TickPhase::Physics,
            dur_ns: 2_345,
        },
        SpanRecord::Zone {
            tick: 4,
            seq: 9,
            zone: 0,
            dur_ns: 700,
            temp_c: 22.4,
            duty: 0.61,
        },
        SpanRecord::Zone {
            tick: 4,
            seq: 10,
            zone: 1,
            dur_ns: 650,
            temp_c: -3.5e-5,
            duty: 1.0,
        },
        SpanRecord::Phase {
            tick: 4,
            seq: 11,
            phase: TickPhase::Record,
            dur_ns: 10,
        },
        SpanRecord::Anomaly {
            tick: 4,
            seq: 12,
            watchdog: "Thermal\"Violation\\\u{7}\n\t θ".to_string(),
            server: Some(5),
            value: 30.2,
        },
        SpanRecord::Tick {
            tick: 4,
            seq: 13,
            dur_ns: 7_000,
        },
        // Tick 5: zero duration, extreme keys and ids.
        SpanRecord::Phase {
            tick: 5,
            seq: 0,
            phase: TickPhase::Inlet,
            dur_ns: 0,
        },
        SpanRecord::Decision {
            tick: 5,
            seq: 1,
            job: 44,
            rung: "hot-balancer".to_string(),
            chosen: Some(3),
            winning_key: Some(f64::INFINITY),
            candidates: vec![candidate(3, 1e21), candidate(4, 1.5e-300)],
        },
        SpanRecord::Placement {
            tick: 5,
            seq: 2,
            job: u64::MAX,
            kind: 4,
            server: Some(3),
            zone: Some(1),
            duration_ticks: 0,
        },
        SpanRecord::Anomaly {
            tick: 5,
            seq: 3,
            watchdog: "WaxStall".to_string(),
            server: None,
            value: 0.0,
        },
        SpanRecord::Tick {
            tick: 5,
            seq: 4,
            dur_ns: 0,
        },
    ];
    TraceBuffer {
        records,
        dropped: 7,
    }
}

/// The line where two texts first differ, for a readable failure.
fn first_difference(left: &str, right: &str) -> String {
    let line = left
        .lines()
        .zip(right.lines())
        .position(|(l, r)| l != r)
        .unwrap_or_else(|| left.lines().count().min(right.lines().count()));
    format!(
        "first difference at line {}: {:?} vs {:?}",
        line + 1,
        left.lines().nth(line),
        right.lines().nth(line)
    )
}

/// The exporter's bytes are pinned. `tests/data/golden_trace.json` was
/// written from [`golden_buffer`] by the tree-building exporter the
/// streaming writer replaced; `render_trace` and `write_trace` must
/// both reproduce it byte for byte, and the strict reader must read it
/// back with the expected statistics, escapes and extreme ids.
#[test]
fn render_reproduces_the_golden_trace() {
    let golden = include_str!("data/golden_trace.json");
    let buffer = golden_buffer();
    let rendered = vmt_telemetry::render_trace(&buffer);
    assert!(
        rendered == golden,
        "{}",
        first_difference(&rendered, golden)
    );
    let mut streamed = Vec::new();
    vmt_telemetry::write_trace(&buffer, &mut streamed).expect("a Vec accepts every write");
    assert!(
        streamed == rendered.as_bytes(),
        "write_trace and render_trace disagree"
    );

    let stats = vmt_telemetry::validate_trace(golden).expect("the golden trace validates");
    assert_eq!(
        stats,
        TraceStats {
            events: 5 + buffer.records.len(),
            ticks: 2,
            spans: 13,
            phases: 9,
            zones: 2,
            placements: 4,
            decisions: 4,
            anomalies: 2,
            dropped: 7,
        }
    );
    let trace = vmt_telemetry::parse_trace(golden).expect("the golden trace parses");
    assert_eq!(trace.trace_events.len(), stats.events);
    let watchdog = trace
        .trace_events
        .iter()
        .find(|e| e.cat == "anomaly")
        .map(|e| e.name.as_str());
    assert_eq!(watchdog, Some("Thermal\"Violation\\\u{7}\n\t θ"));
    let job = |e: &vmt_telemetry::ChromeEvent| e.args.get_field("job").cloned();
    let max_job = trace
        .trace_events
        .iter()
        .filter_map(job)
        .find(|j| *j == serde::Value::U64(u64::MAX));
    assert!(max_job.is_some(), "u64::MAX job id lost");
}
