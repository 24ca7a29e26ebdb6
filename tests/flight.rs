//! Flight-recorder, trace-replay, and watchdog integration tests.
//!
//! Three contracts, end to end across `vmt-telemetry` and `vmt-dcsim`:
//!
//! * recording a run's placement-decision trace is observationally pure,
//!   and replaying the trace (policy bypassed) reproduces the run
//!   bit-identically — including across a JSONL serialize/parse round
//!   trip of the trace itself;
//! * arming the flight recorder and watchdogs perturbs nothing;
//! * a forced thermal violation fires a watchdog, lands an `Anomaly`
//!   event in the stream, and drops a validating flight dump with
//!   pre-anomaly context next to the configured dump path.

use vmt_core::PolicyKind;
use vmt_dcsim::{
    digest_final_state, ClusterConfig, FlightConfig, RecordingScheduler, ReplayHandle,
    ReplayScheduler, Simulation, TelemetryConfig, TraceHandle,
};
use vmt_telemetry::replay::{PlacementTrace, ReplayVerdict, TraceHeader, TRACE_SCHEMA_VERSION};
use vmt_telemetry::{validate_dump, TraceRecord, WatchdogKind, WatchdogSpec};
use vmt_units::Hours;
use vmt_workload::{DiurnalTrace, TraceConfig};

const SERVERS: usize = 30;
const HOURS: f64 = 6.0;

fn config() -> (ClusterConfig, TraceConfig) {
    let cluster = ClusterConfig::paper_default(SERVERS);
    let trace = TraceConfig {
        horizon: Hours::new(HOURS),
        ..TraceConfig::paper_default()
    };
    (cluster, trace)
}

/// Records a VMT-WA run through the real policy stack and returns the
/// finished trace (header ticks patched from the footer, as the CLI
/// does).
fn record() -> PlacementTrace {
    let (cluster, trace_cfg) = config();
    let policy = PolicyKind::vmt_wa(22.0);
    let handle = TraceHandle::new();
    let recorder = RecordingScheduler::new(policy.build(&cluster), handle.clone());
    let header = TraceHeader {
        schema_version: TRACE_SCHEMA_VERSION,
        policy: "vmt-wa".into(),
        servers: SERVERS as u64,
        hours: HOURS,
        cluster_seed: cluster.seed,
        trace_seed: trace_cfg.seed,
        tick_seconds: cluster.tick.get(),
        ticks: 0,
    };
    // Recorded single-threaded; the replay below runs the sharded
    // parallel sweep — the trace must reproduce across thread counts.
    let (result, servers) =
        Simulation::new(cluster, DiurnalTrace::new(trace_cfg), Box::new(recorder))
            .with_threads(1)
            .run_returning_servers();
    let mut trace = handle.into_trace(header, &result, &servers);
    trace.header.ticks = trace.footer.ticks_run;
    trace
}

/// A unique scratch path for this test binary (no tempfile dependency).
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vmt_flight_test_{}_{name}", std::process::id()))
}

#[test]
fn recorded_trace_replays_bit_identically_after_jsonl_round_trip() {
    let trace = record();
    assert!(trace.decision_count() > 0, "trace recorded no decisions");

    // The trace must survive its own wire format: serialize, reparse,
    // replay the reparsed copy.
    let reparsed = PlacementTrace::parse(&trace.to_jsonl()).expect("trace round-trips");
    assert_eq!(reparsed.footer.final_digest, trace.footer.final_digest);

    let (mut cluster, mut trace_cfg) = config();
    cluster.seed = reparsed.header.cluster_seed;
    trace_cfg.seed = reparsed.header.trace_seed;
    let report = ReplayHandle::new();
    let replayer = ReplayScheduler::new(reparsed, report.clone());
    let (result, servers) =
        Simulation::new(cluster, DiurnalTrace::new(trace_cfg), Box::new(replayer))
            .with_threads(4)
            .run_returning_servers();

    assert_eq!(
        report.verdict(),
        ReplayVerdict::BitIdentical {
            ticks_compared: trace.footer.ticks_run
        }
    );
    assert_eq!(report.missing_decisions(), 0);
    assert_eq!(result.placements, trace.footer.placements);
    assert_eq!(result.dropped_jobs, trace.footer.dropped_jobs);
    assert_eq!(
        digest_final_state(&result, &servers),
        trace.footer.final_digest
    );
}

/// The persistent tick pool must not leak into observable state: a
/// trace recorded single-threaded replays to the same verdict and final
/// digest at every pool size (serial path, small pools, more workers
/// than the machine has cores).
#[test]
fn replay_digest_is_stable_across_thread_counts() {
    let trace = record();
    let jsonl = trace.to_jsonl();
    for threads in [1usize, 2, 3, 8] {
        let reparsed = PlacementTrace::parse(&jsonl).expect("trace round-trips");
        let (mut cluster, mut trace_cfg) = config();
        cluster.seed = reparsed.header.cluster_seed;
        trace_cfg.seed = reparsed.header.trace_seed;
        let report = ReplayHandle::new();
        let replayer = ReplayScheduler::new(reparsed, report.clone());
        let (result, servers) =
            Simulation::new(cluster, DiurnalTrace::new(trace_cfg), Box::new(replayer))
                .with_threads(threads)
                .run_returning_servers();
        assert_eq!(
            report.verdict(),
            ReplayVerdict::BitIdentical {
                ticks_compared: trace.footer.ticks_run
            },
            "threads {threads}"
        );
        assert_eq!(
            digest_final_state(&result, &servers),
            trace.footer.final_digest,
            "threads {threads}"
        );
    }
}

/// Arming the full forensic stack — flight ring, all four watchdogs —
/// must not perturb the simulation by a single bit.
#[test]
fn armed_recorder_and_watchdogs_are_observationally_pure() {
    let (cluster, trace_cfg) = config();
    let policy = PolicyKind::vmt_wa(22.0);
    let baseline = Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace_cfg.clone()),
        policy.build(&cluster),
    )
    .run();

    let telemetry = TelemetryConfig::new()
        .with_flight(FlightConfig {
            capacity: 4096,
            dump_path: None,
            max_anomaly_dumps: 0,
        })
        .with_watchdogs(WatchdogSpec::default_set());
    let armed = Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace_cfg),
        policy.build(&cluster),
    )
    .with_telemetry(telemetry)
    .run();

    assert_eq!(armed, baseline, "armed forensics perturbed the simulation");
}

/// A red-line below the cluster's operating temperature forces a
/// thermal violation: the watchdog fires, the summary counts it, and a
/// validating flight dump with pre-anomaly context appears at the
/// `.anomaly1` sibling of the dump path.
#[test]
fn thermal_violation_fires_watchdog_and_dumps_context() {
    let (cluster, trace_cfg) = config();
    let policy = PolicyKind::vmt_wa(22.0);
    let dump_path = scratch("violation.dump");
    let anomaly_path = {
        let mut s = dump_path.clone().into_os_string();
        s.push(".anomaly1");
        std::path::PathBuf::from(s)
    };

    let telemetry = TelemetryConfig::new()
        .with_flight(FlightConfig {
            capacity: 8192,
            dump_path: Some(dump_path.clone()),
            max_anomaly_dumps: 4,
        })
        .with_watchdogs(vec![WatchdogSpec::ThermalViolation { red_line_c: 28.0 }]);
    let summary_handle = telemetry.summary.clone();
    Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace_cfg),
        policy.build(&cluster),
    )
    .with_telemetry(telemetry)
    .run();

    let summary = summary_handle.get().expect("summary deposited");
    assert!(summary.anomalies > 0, "no watchdog fired below red-line");

    // The anomaly dump validates and names the watchdog that fired.
    let text = std::fs::read_to_string(&anomaly_path).expect("anomaly dump written");
    let dump = validate_dump(&text).expect("anomaly dump validates");
    assert_eq!(dump.header.watchdog, Some(WatchdogKind::ThermalViolation));
    assert!(dump.records > 0, "anomaly dump holds no context records");
    assert!(
        dump.header.tick >= 1,
        "anomaly dump carries its firing tick"
    );

    // The end-of-run on-demand dump also validates, spans the run up to
    // its final tick, and is marked on-demand (no watchdog).
    let text = std::fs::read_to_string(&dump_path).expect("end-of-run dump written");
    let dump = validate_dump(&text).expect("end-of-run dump validates");
    assert_eq!(dump.header.watchdog, None);
    assert!(dump.records > 0);

    let _ = std::fs::remove_file(&dump_path);
    let _ = std::fs::remove_file(&anomaly_path);
}

/// Departures reach the flight ring in ascending job-id order within
/// each tick, although the sweep finds them server by server, and
/// whether it runs inline or
/// on the tick pool: 4,160 servers fan out to two participants at two
/// threads. The end-of-run dumps at one and two threads are identical.
#[test]
fn departures_are_recorded_in_id_order_at_any_thread_count() {
    let cluster = ClusterConfig::paper_default(4160);
    let trace_cfg = TraceConfig {
        horizon: Hours::new(1.0),
        ..TraceConfig::paper_default()
    };
    let policy = PolicyKind::vmt_wa(22.0);
    let mut dumps = Vec::new();
    for threads in [1usize, 2] {
        let dump_path = scratch(&format!("order_t{threads}.dump"));
        let telemetry = TelemetryConfig::new().with_flight(FlightConfig {
            capacity: 1 << 16,
            dump_path: Some(dump_path.clone()),
            max_anomaly_dumps: 0,
        });
        Simulation::new(
            cluster.clone(),
            DiurnalTrace::new(trace_cfg.clone()),
            policy.build(&cluster),
        )
        .with_threads(threads)
        .with_telemetry(telemetry)
        .run();
        let text = std::fs::read_to_string(&dump_path).expect("end-of-run dump written");
        let _ = std::fs::remove_file(&dump_path);
        validate_dump(&text).expect("end-of-run dump validates");
        let mut departed = 0;
        let mut last: Option<(u64, u64)> = None;
        for line in text.lines().skip(1) {
            let record: TraceRecord = serde_json::from_str(line).expect("a flight record");
            if let TraceRecord::JobDeparted { tick, job, .. } = record {
                if let Some((last_tick, last_job)) = last.filter(|&(t, _)| t == tick) {
                    assert!(
                        job > last_job,
                        "threads {threads}, tick {last_tick}: {job} departs after {last_job}"
                    );
                }
                last = Some((tick, job));
                departed += 1;
            }
        }
        assert!(
            departed > 4096,
            "threads {threads}: {departed} departures in the dump"
        );
        dumps.push(text);
    }
    assert!(dumps[0] == dumps[1], "dumps differ between 1 and 2 threads");
}
