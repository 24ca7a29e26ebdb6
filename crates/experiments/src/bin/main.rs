//! `vmt-experiments` — regenerate any table or figure of the VMT paper,
//! or drive a single instrumented run.
//!
//! ```text
//! vmt-experiments <id> [--servers N] [--seeds K] [--threads T]
//! vmt-experiments all [--servers N]
//! vmt-experiments run [--policy NAME] [--gv F] [--servers N] [--hours H]
//!                     [--seed S] [--threads T] [--zones] [--telemetry FILE]
//!                     [--snapshot-every N] [--progress [N]]
//!                     [--series [CAP]] [--dashboard [N]]
//!                     [--metrics-addr HOST:PORT]
//!                     [--watchdogs] [--red-line C]
//!                     [--flight-dump FILE] [--flight-capacity N]
//!                     [--trace FILE] [--trace-sample N] [--trace-jobs IDS]
//! vmt-experiments record TRACE [--policy NAME] [--gv F] [--servers N]
//!                     [--hours H] [--seed S] [--threads T]
//! vmt-experiments replay TRACE [--until TICK] [--threads T]
//! vmt-experiments snapshot FILE (--at TICK | --from-flight DUMP)
//!                     [--policy NAME] [--gv F] [--servers N] [--hours H]
//!                     [--seed S] [--threads T] [--zones]
//! vmt-experiments resume FILE [--until TICK] [--threads T]
//! vmt-experiments explain JOB_ID TRACE
//! vmt-experiments check-telemetry FILE
//! vmt-experiments check-flight FILE
//! vmt-experiments check-bench FILE
//! vmt-experiments check-metrics FILE [--require FAMILIES]
//! vmt-experiments check-trace FILE
//! ```
//!
//! IDs: `table1 table2 fig1 fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 tco ablations
//! emergency bound qos preserve estimator`.
//!
//! `--servers` overrides the cluster size (paper defaults: 1,000 for
//! fig12/13/15/16 and tco, 100 for everything simulation-backed).
//!
//! `--threads` sets the worker count of the sharded tick — departure
//! drain, placement streams and physics sweep — and must be at least 1
//! (equivalent to exporting `VMT_THREADS`; an exported value that is not
//! a positive integer is a usage error). Results are bit-identical
//! at any value; only wall-clock time changes. A tick only fans out
//! with one worker per 2,048 servers (`vmt_dcsim::tick_fan_out`), so
//! figure sweeps over smaller clusters run whole runs in parallel
//! instead, one per core the ticks leave idle.
//!
//! Unrecognized flags are errors, not silently ignored — a typo like
//! `--sevrers` must not quietly run the default cluster size.

use std::collections::HashMap;
use vmt_experiments::heatmaps::HeatmapFigure;
use vmt_experiments::runner::{self, Run};
use vmt_experiments::*;

/// `print!` to stdout through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` to stdout through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes verb output to stdout. A reader that closes the pipe early
/// (`| head -1`) is not a failure: the rest of the output is dropped and
/// the verb finishes its work and keeps its exit code. Any other write
/// error exits 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::BrokenPipe => {
            CLOSED.store(true, Ordering::Relaxed);
        }
        Err(err) => {
            eprintln!("error: cannot write to stdout: {err}");
            std::process::exit(1);
        }
    }
}

const EXPERIMENT_IDS: [&str; 26] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "tco",
    "ablations",
    "emergency",
    "bound",
    "qos",
    "preserve",
    "estimator",
];

/// The figures that run one simulation and keep its heatmaps.
const HEATMAP_IDS: [&str; 4] = ["fig9", "fig10", "fig11", "fig14"];

fn print_help() {
    outln!("vmt-experiments — VMT paper reproduction harness");
    outln!();
    outln!("usage:");
    outln!("  vmt-experiments <id|all> [--servers N] [--seeds K] [--threads T]");
    outln!("  vmt-experiments run [options]");
    outln!("  vmt-experiments record TRACE [options]");
    outln!("  vmt-experiments replay TRACE [--until TICK] [--threads T]");
    outln!("  vmt-experiments snapshot FILE (--at TICK | --from-flight DUMP) [options]");
    outln!("  vmt-experiments resume FILE [--until TICK] [--threads T]");
    outln!("  vmt-experiments explain JOB_ID TRACE");
    outln!("  vmt-experiments check-telemetry FILE");
    outln!("  vmt-experiments check-flight FILE");
    outln!("  vmt-experiments check-bench FILE");
    outln!("  vmt-experiments check-metrics FILE [--require FAMILIES]");
    outln!("  vmt-experiments check-trace FILE");
    outln!("  vmt-experiments --help");
    outln!();
    outln!("experiment ids:");
    outln!("  {}", EXPERIMENT_IDS.join(" "));
    outln!();
    outln!("run options (single instrumented simulation):");
    outln!("  --policy NAME        round-robin | coolest-first | vmt-ta | vmt-wa |");
    outln!("                       adaptive-gv | vmt-preserve   (default vmt-wa)");
    outln!("  --gv F               grouping value (default 22)");
    outln!("  --servers N          cluster size (default 1000)");
    outln!("  --hours H            trace horizon in simulated hours (default 48)");
    outln!("  --seed S             workload seed (default: paper default)");
    outln!("  --threads T          tick worker threads, >= 1 (results bit-identical)");
    outln!("  --zones              attach the paper-default rack/row/zone topology");
    outln!("                       (per-zone CRAC integrators; observational only,");
    outln!("                       placements and digests are unchanged)");
    outln!("  --telemetry FILE     write a JSONL event stream to FILE");
    outln!("  --snapshot-every N   snapshot cadence in ticks (default 60 = hourly)");
    outln!("  --progress [N]       live progress line every N ticks (default 60)");
    outln!("  --series [CAP]       record per-tick time series (cooling load, mean");
    outln!("                       air, melted fraction, spills, per-zone temps) in");
    outln!("                       ring buffers of CAP samples (default 2880 = 48 h)");
    outln!("  --dashboard [N]      live terminal dashboard redrawn every N ticks");
    outln!("                       (default 60); implies --series, degrades to plain");
    outln!("                       progress lines on dumb terminals and pipes");
    outln!("  --metrics-addr A     serve GET /metrics (OpenMetrics text) on A, e.g.");
    outln!("                       127.0.0.1:9184; refreshed at the snapshot cadence");
    outln!("  --watchdogs          arm the anomaly watchdogs (thermal red-line,");
    outln!("                       wax stall, QoS spill storm, hot-group thrash)");
    outln!("  --red-line C         thermal-violation red-line in deg C (default 45)");
    outln!("  --flight-dump FILE   arm the flight recorder; the end-of-run dump");
    outln!("                       goes to FILE, watchdog dumps to FILE.anomaly<N>");
    outln!("  --flight-capacity N  flight ring capacity in records (default 65536)");
    outln!("  --trace FILE         record deterministic span traces and write them");
    outln!("                       to FILE as Chrome trace-event JSON (loadable in");
    outln!("                       Perfetto / chrome://tracing); per-tick phase and");
    outln!("                       per-zone spans, placement + decision instants");
    outln!("  --trace-sample N     trace every Nth job's placement decision");
    outln!("                       (default 1 = every job; 0 = only --trace-jobs)");
    outln!("  --trace-jobs IDS     comma-separated job ids to always trace, on top");
    outln!("                       of the sample (alone it implies --trace-sample 0)");
    outln!();
    outln!("record writes the run's placement-decision trace to TRACE (same");
    outln!("  --policy/--gv/--servers/--hours/--seed options as run; servers");
    outln!("  default to 100 and hours to 24 to keep traces small).");
    outln!("replay re-drives a simulation from TRACE, bypassing the policy, and");
    outln!("  verifies per-tick state digests; --until TICK replays only the");
    outln!("  first TICK ticks to bisect a divergence. Exits 1 on divergence.");
    outln!();
    outln!("snapshot runs a simulation up to a tick and writes a restorable");
    outln!("  checkpoint to FILE (same --policy/--gv/--servers/--hours/--seed");
    outln!("  options as record); --from-flight takes the tick from a flight-");
    outln!("  recorder dump's header, so a run can be checkpointed exactly where");
    outln!("  a watchdog fired.");
    outln!("resume restores a checkpoint and steps it forward; --until TICK stops");
    outln!("  early and prints the state digest there (restored runs are");
    outln!("  bit-identical to uninterrupted ones at any --threads value).");
    outln!();
    outln!("check-telemetry validates a JSONL stream written by `run --telemetry`:");
    outln!("  RunConfig first, Summary last, schema versions consistent; exits 1");
    outln!("  when the stream is invalid or the run recorded sink write errors.");
    outln!("check-flight validates a flight-recorder dump written by");
    outln!("  `run --flight-dump` (header line, records, tick ordering).");
    outln!("check-bench validates an engine benchmark artifact (BENCH_engine.json):");
    outln!("  schema, per-row sanity, identical placements across thread counts,");
    outln!("  no scaling inversion (threads=N >= 0.9x threads=1 ticks/s), the");
    outln!("  10k/100k vmt-wa groups present at threads 1/2/4/8, the 100k");
    outln!("  48h rows under the wall-clock regression ceiling, and the zoned");
    outln!("  10k observability and tracing overhead rows under their 5% gates.");
    outln!("check-metrics validates an OpenMetrics exposition (a `/metrics` scrape");
    outln!("  saved to FILE, or `-` for stdin) with the strict in-repo parser;");
    outln!("  --require F1,F2 additionally demands those metric families.");
    outln!("check-trace validates a Chrome trace-event file written by");
    outln!("  `run --trace` (FILE, or `-` for stdin): strict parse, span nesting");
    outln!("  per lane, unique (tick, seq) ids, payload fields per category.");
    outln!("explain reconstructs a job's placement from a trace written by");
    outln!("  `run --trace`: arrival tick, the scheduler rung that placed it, the");
    outln!("  top-k candidate servers with their tournament keys, the chosen");
    outln!("  server and its winning key, and the zone it landed in. TRACE is a");
    outln!("  file path or `-` for stdin; exits 1 when the job is not in the");
    outln!("  trace (raise the sample with --trace-sample or pin the id with");
    outln!("  --trace-jobs).");
    outln!();
    outln!("exit codes (all check-* and explain): 0 = valid, 1 = invalid input or");
    outln!("  job/family not found, 2 = usage error (unknown flag, missing file).");
}

/// Exits with a usage error (status 2).
fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("run `vmt-experiments --help` for usage");
    std::process::exit(2);
}

/// Strict `--flag value` parser: every argument must be a known flag,
/// and every flag requires a value except the switches (`--watchdogs`,
/// `--zones`) and the default-carrying cadence flags (`--progress`,
/// `--dashboard`, `--series`). Returns the flag→value map; exits with a
/// usage error otherwise.
fn parse_flags(args: &[String], known: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if !known.contains(&arg.as_str()) {
            die(&format!("unrecognized argument `{arg}`"));
        }
        // `--watchdogs` and `--zones` are pure switches: they never
        // consume a value.
        if arg == "--watchdogs" || arg == "--zones" {
            flags.insert(arg.clone(), String::new());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        match value {
            Some(v) => {
                flags.insert(arg.clone(), v.clone());
                i += 2;
            }
            // `--progress`/`--dashboard` alone mean "default cadence";
            // `--series` alone means "default ring capacity".
            None if arg == "--progress" || arg == "--dashboard" => {
                flags.insert(arg.clone(), "60".to_owned());
                i += 1;
            }
            None if arg == "--series" => {
                flags.insert(
                    arg.clone(),
                    vmt_telemetry::TelemetryConfig::DEFAULT_SERIES_CAPACITY.to_string(),
                );
                i += 1;
            }
            None => die(&format!("flag `{arg}` requires a value")),
        }
    }
    flags
}

/// Fetches and parses a numeric flag, exiting on malformed input.
fn numeric<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Option<T> {
    flags.get(name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("flag `{name}` got unparseable value `{v}`")))
    })
}

/// `--servers`: a cluster size, at least one server.
fn servers_flag(flags: &HashMap<String, String>) -> Option<usize> {
    let servers = numeric(flags, "--servers");
    if servers == Some(0) {
        die("`--servers` must be at least 1");
    }
    servers
}

/// `--threads`: a tick-thread count, at least one thread.
fn threads_flag(flags: &HashMap<String, String>) -> Option<usize> {
    let threads = numeric(flags, "--threads");
    if threads == Some(0) {
        die("`--threads` must be at least 1");
    }
    threads
}

/// `--gv`: a positive, finite grouping value (default 22).
fn gv_flag(flags: &HashMap<String, String>) -> f64 {
    let gv: f64 = numeric(flags, "--gv").unwrap_or(22.0);
    if !gv.is_finite() || gv <= 0.0 {
        die("`--gv` must be positive");
    }
    gv
}

/// `--hours` sets `run`'s horizon: positive and finite, and at most
/// `Simulation::MAX_TICKS` ticks, past which no job could name its due
/// tick.
fn set_hours(run: &mut Run, hours: f64) {
    if !hours.is_finite() || hours <= 0.0 {
        die("`--hours` must be positive");
    }
    run.trace.horizon = vmt_units::Hours::new(hours);
    if let Err(err) = vmt_dcsim::Simulation::check_horizon(&run.cluster, run.trace.horizon) {
        die(&format!("`--hours {hours}` is too long: {err}"));
    }
}

/// Exits with a usage error when `run` would preallocate more than the
/// engine's memory ceiling (`vmt_dcsim::plan_memory`), before any of it
/// is allocated.
fn check_memory(run: &Run, telemetry: Option<&vmt_dcsim::TelemetryConfig>) {
    let ticks = run.cluster.ticks_for(run.trace.horizon) as u64;
    if let Err(err) = vmt_dcsim::plan_memory(&run.cluster, ticks, telemetry) {
        die(&format!("the run is too large: {err}"));
    }
}

/// `VMT_THREADS`, when set, must be a positive integer. The engine's
/// `default_tick_threads` reads it in every verb and would silently fall
/// back to every core on anything else.
fn check_threads_env() {
    if let Some(value) = std::env::var_os("VMT_THREADS") {
        let value = value.to_string_lossy();
        if !value.parse::<usize>().is_ok_and(|n| n >= 1) {
            die(&format!(
                "`VMT_THREADS` must be a positive integer, got `{value}`"
            ));
        }
    }
}

fn main() {
    check_threads_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_help();
        std::process::exit(2);
    };
    match command.as_str() {
        "--help" | "-h" | "help" => print_help(),
        "run" => cmd_run(&args[1..]),
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "snapshot" => cmd_snapshot(&args[1..]),
        "resume" => cmd_resume(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "check-telemetry" => cmd_check_telemetry(&args[1..]),
        "check-flight" => cmd_check_flight(&args[1..]),
        "check-bench" => cmd_check_bench(&args[1..]),
        "check-metrics" => cmd_check_metrics(&args[1..]),
        "check-trace" => cmd_check_trace(&args[1..]),
        id => cmd_experiment(id, &args[1..]),
    }
}

/// The figure/table regeneration path (`vmt-experiments <id|all>`).
fn cmd_experiment(id: &str, rest: &[String]) {
    if id.starts_with("--") {
        die(&format!("unrecognized argument `{id}`"));
    }
    if id != "all" && !EXPERIMENT_IDS.contains(&id) {
        die(&format!("unknown experiment id `{id}`"));
    }
    let flags = parse_flags(rest, &["--servers", "--seeds", "--threads"]);
    let servers = servers_flag(&flags);
    let seeds: usize = numeric(&flags, "--seeds").unwrap_or(5);
    if seeds == 0 {
        die("`--seeds` must be at least 1");
    }
    if let Some(threads) = threads_flag(&flags) {
        // The experiment modules build their own `Run`s, whose default
        // tick-thread count reads VMT_THREADS — so one env write plumbs
        // the flag through every figure and sweep.
        std::env::set_var("VMT_THREADS", threads.to_string());
    }
    // No run of a verb has more than `--servers` servers or a longer
    // horizon than the paper trace's, and a sweep holds at most one live
    // run per worker (each is reduced on its worker), so planning that
    // many of that run refuses a cluster too large to preallocate before
    // any run starts. The heatmap figures run one run at a time.
    let largest = Run::new(servers.unwrap_or(1000), vmt_core::PolicyKind::RoundRobin);
    let workers = if HEATMAP_IDS.contains(&id) {
        1
    } else {
        runner::max_workers(&largest)
    };
    if let Err(err) = runner::plan_sweep(&largest, workers) {
        die(&format!("the experiment is too large: {err}"));
    }

    if id == "all" {
        for id in EXPERIMENT_IDS {
            outln!("==================== {id} ====================");
            run_one(id, servers, seeds);
        }
        return;
    }
    run_one(id, servers, seeds);
}

/// A single instrumented simulation (`vmt-experiments run`).
fn cmd_run(rest: &[String]) {
    let flags = parse_flags(
        rest,
        &[
            "--policy",
            "--gv",
            "--servers",
            "--hours",
            "--seed",
            "--threads",
            "--zones",
            "--telemetry",
            "--snapshot-every",
            "--progress",
            "--series",
            "--dashboard",
            "--metrics-addr",
            "--watchdogs",
            "--red-line",
            "--flight-dump",
            "--flight-capacity",
            "--trace",
            "--trace-sample",
            "--trace-jobs",
        ],
    );
    let gv = gv_flag(&flags);
    let policy_name = flags.get("--policy").map_or("vmt-wa", String::as_str);
    let policy = match vmt_core::PolicyKind::parse(policy_name, gv) {
        Ok(policy) => policy,
        Err(err) => die(&err),
    };
    let servers = servers_flag(&flags).unwrap_or(1000);
    let mut run = Run::new(servers, policy);
    set_hours(&mut run, numeric(&flags, "--hours").unwrap_or(48.0));
    if let Some(seed) = numeric::<u64>(&flags, "--seed") {
        run.cluster.seed = seed;
        run.trace.seed = seed;
    }
    if let Some(threads) = threads_flag(&flags) {
        run = run.with_tick_threads(threads);
    }
    if flags.contains_key("--zones") {
        run.cluster.topology = Some(vmt_dcsim::ZoneSpec::paper_default());
    }

    let mut telemetry = vmt_dcsim::TelemetryConfig::new();
    if let Some(path) = flags.get("--telemetry") {
        match vmt_telemetry::EventSink::to_file(std::path::Path::new(path)) {
            Ok(sink) => telemetry = telemetry.with_sink(sink),
            Err(err) => die(&format!("cannot open `{path}` for telemetry: {err}")),
        }
    }
    if let Some(every) = numeric::<u64>(&flags, "--snapshot-every") {
        telemetry = telemetry.with_snapshot_every(every);
    }
    if let Some(every) = numeric::<u64>(&flags, "--progress") {
        telemetry = telemetry.with_progress_every(every);
    }
    if let Some(capacity) = numeric::<usize>(&flags, "--series") {
        if capacity == 0 {
            die("`--series` capacity must be positive");
        }
        telemetry = telemetry.with_series(capacity);
    }
    if let Some(every) = numeric::<u64>(&flags, "--dashboard") {
        telemetry = telemetry.with_dashboard_every(every);
    }
    // The scrape endpoint: bind before the run starts so a scraper can
    // connect from tick 0; the publisher side is wait-free for the
    // tick loop (one Arc swap at the snapshot cadence).
    let mut metrics_server = None;
    if let Some(addr) = flags.get("--metrics-addr") {
        let publisher = vmt_telemetry::MetricsPublisher::new();
        match vmt_telemetry::MetricsServer::bind(addr, publisher.clone()) {
            Ok(server) => {
                eprintln!("serving metrics on http://{}/metrics", server.addr());
                metrics_server = Some(server);
            }
            Err(err) => die(&format!("cannot bind `--metrics-addr {addr}`: {err}")),
        }
        telemetry = telemetry.with_publisher(publisher);
    }
    if flags.contains_key("--watchdogs") || flags.contains_key("--red-line") {
        let mut specs = vmt_telemetry::WatchdogSpec::default_set();
        if let Some(red_line) = numeric::<f64>(&flags, "--red-line") {
            if !red_line.is_finite() {
                die("`--red-line` must be a finite temperature");
            }
            for spec in &mut specs {
                if let vmt_telemetry::WatchdogSpec::ThermalViolation { red_line_c } = spec {
                    *red_line_c = red_line;
                }
            }
        }
        telemetry = telemetry.with_watchdogs(specs);
    }
    if flags.contains_key("--flight-dump") || flags.contains_key("--flight-capacity") {
        let mut flight = vmt_dcsim::FlightConfig::default();
        if let Some(capacity) = numeric::<usize>(&flags, "--flight-capacity") {
            flight.capacity = capacity;
        }
        flight.dump_path = flags.get("--flight-dump").map(std::path::PathBuf::from);
        telemetry = telemetry.with_flight(flight);
    }
    if (flags.contains_key("--trace-sample") || flags.contains_key("--trace-jobs"))
        && !flags.contains_key("--trace")
    {
        die("`--trace-sample`/`--trace-jobs` require `--trace FILE`");
    }
    if flags.contains_key("--trace") {
        let mut spec = vmt_telemetry::TraceSpec::default();
        if let Some(jobs) = flags.get("--trace-jobs") {
            // A pinned job list alone means "only these jobs": the
            // sampler is off unless --trace-sample re-enables it.
            spec.sample_every = 0;
            spec.jobs = jobs
                .split(',')
                .map(str::trim)
                .filter(|id| !id.is_empty())
                .map(|id| {
                    id.parse().unwrap_or_else(|_| {
                        die(&format!("`--trace-jobs` got unparseable job id `{id}`"))
                    })
                })
                .collect();
        }
        if let Some(sample) = numeric::<u64>(&flags, "--trace-sample") {
            spec.sample_every = sample;
        }
        telemetry = telemetry.with_trace(spec);
    }
    check_memory(&run, Some(&telemetry));
    let tracer = telemetry.tracer.clone();
    let summary = telemetry.summary.clone();

    let result = run.execute_with_telemetry(telemetry);

    match summary.get() {
        Some(summary) => out!("{}", vmt_telemetry::render_report(&summary)),
        None => {
            // Telemetry always deposits a summary; this is a belt for a
            // future code path that drops it.
            outln!(
                "{}: {} placements, {} dropped, peak cooling {:.1} kW",
                result.scheduler_name,
                result.placements,
                result.dropped_jobs,
                result.peak_cooling().get() / 1e3
            );
        }
    }
    if let Some(path) = flags.get("--telemetry") {
        outln!("telemetry stream: {path}");
    }
    if let Some(path) = flags.get("--flight-dump") {
        outln!("flight dump: {path}");
    }
    if let Some(path) = flags.get("--trace") {
        match tracer.take() {
            Some(buffer) => {
                let records = buffer.records.len();
                let dropped = buffer.dropped;
                // Streamed record by record: the text never exists whole.
                let written = std::fs::File::create(path).and_then(|file| {
                    let mut out = std::io::BufWriter::new(file);
                    vmt_telemetry::write_trace(&buffer, &mut out)?;
                    std::io::Write::flush(&mut out)
                });
                if let Err(err) = written {
                    eprintln!("error: cannot write `{path}`: {err}");
                    std::process::exit(1);
                }
                out!("trace: {path} ({records} span records");
                if dropped > 0 {
                    out!(", {dropped} dropped by the ring");
                }
                outln!(")");
            }
            // Telemetry always deposits the buffer in `finish`; a miss
            // means the run aborted before its summary.
            None => {
                eprintln!("error: the run deposited no trace buffer");
                std::process::exit(1);
            }
        }
    }
    // Shut the scrape thread down only after the final exposition was
    // published, so a last scrape can observe the finished run.
    drop(metrics_server);
}

/// The leading positional argument of `record TRACE` / `replay TRACE` /
/// `check-* FILE`; exits with `usage` when it is missing or a flag.
fn positional_path<'a>(rest: &'a [String], usage: &str) -> (&'a String, &'a [String]) {
    match rest.split_first() {
        Some((path, tail)) if !path.starts_with("--") => (path, tail),
        _ => die(usage),
    }
}

/// Records a run's placement-decision trace (`vmt-experiments record`).
fn cmd_record(rest: &[String]) {
    let (trace_path, rest) = positional_path(rest, "usage: vmt-experiments record TRACE [options]");
    let flags = parse_flags(
        rest,
        &[
            "--policy",
            "--gv",
            "--servers",
            "--hours",
            "--seed",
            "--threads",
        ],
    );
    let gv = gv_flag(&flags);
    let policy_name = flags.get("--policy").map_or("vmt-wa", String::as_str);
    let policy = match vmt_core::PolicyKind::parse(policy_name, gv) {
        Ok(policy) => policy,
        Err(err) => die(&err),
    };
    // Smaller defaults than `run`: every decision lands in the trace
    // file, so the default trace stays in the megabytes.
    let servers = servers_flag(&flags).unwrap_or(100);
    let hours: f64 = numeric(&flags, "--hours").unwrap_or(24.0);
    let mut run = Run::new(servers, policy);
    set_hours(&mut run, hours);
    if let Some(seed) = numeric::<u64>(&flags, "--seed") {
        run.cluster.seed = seed;
        run.trace.seed = seed;
    }
    if let Some(threads) = threads_flag(&flags) {
        run = run.with_tick_threads(threads);
    }
    check_memory(&run, None);

    let handle = vmt_dcsim::TraceHandle::new();
    let recorder = vmt_dcsim::RecordingScheduler::new(policy.build(&run.cluster), handle.clone());
    let header = vmt_telemetry::replay::TraceHeader {
        schema_version: vmt_telemetry::replay::TRACE_SCHEMA_VERSION,
        policy: policy_name.to_owned(),
        servers: servers as u64,
        hours,
        cluster_seed: run.cluster.seed,
        trace_seed: run.trace.seed,
        tick_seconds: run.cluster.tick.get(),
        ticks: 0,
    };
    let (result, end_farm) = vmt_dcsim::Simulation::new(
        run.cluster.clone(),
        vmt_workload::DiurnalTrace::new(run.trace.clone()),
        Box::new(recorder),
    )
    .with_threads(run.tick_threads)
    .run_returning_farm();
    let mut trace = handle.into_trace(header, &result, &end_farm);
    trace.header.ticks = trace.footer.ticks_run;

    if let Err(err) = std::fs::write(trace_path, trace.to_jsonl()) {
        eprintln!("error: cannot write `{trace_path}`: {err}");
        std::process::exit(1);
    }
    outln!(
        "recorded {} on {servers} servers: {} ticks, {} decisions ({} placements, {} dropped)",
        policy_name,
        trace.footer.ticks_run,
        trace.decision_count(),
        result.placements,
        result.dropped_jobs,
    );
    outln!("trace: {trace_path}");
}

/// Re-drives a simulation from a trace (`vmt-experiments replay`).
fn cmd_replay(rest: &[String]) {
    let (trace_path, rest) = positional_path(
        rest,
        "usage: vmt-experiments replay TRACE [--until TICK] [--threads T]",
    );
    let flags = parse_flags(rest, &["--until", "--threads"]);
    let threads = threads_flag(&flags);
    let text = match std::fs::read_to_string(trace_path) {
        Ok(text) => text,
        Err(err) => die(&format!("cannot read `{trace_path}`: {err}")),
    };
    let trace = match vmt_telemetry::replay::PlacementTrace::parse(&text) {
        Ok(trace) => trace,
        Err(err) => {
            eprintln!("invalid trace: {err}");
            std::process::exit(1);
        }
    };

    let recorded_ticks = trace.footer.ticks_run;
    let until: Option<u64> = numeric(&flags, "--until");
    let ticks = until.unwrap_or(recorded_ticks).min(recorded_ticks);
    if ticks == 0 {
        die("`--until` must replay at least one tick");
    }
    // `ticks_for` rounds, so hours -> ticks round-trips exactly.
    let hours = ticks as f64 * trace.header.tick_seconds / 3600.0;
    let mut cluster = vmt_dcsim::ClusterConfig::paper_default(trace.header.servers as usize);
    cluster.seed = trace.header.cluster_seed;
    let mut trace_cfg = vmt_workload::TraceConfig::paper_default();
    trace_cfg.horizon = vmt_units::Hours::new(hours);
    trace_cfg.seed = trace.header.trace_seed;

    let expected_final = trace.footer.final_digest;
    let policy_name = trace.header.policy.clone();
    let report = vmt_dcsim::ReplayHandle::new();
    let replayer = vmt_dcsim::ReplayScheduler::new(trace, report.clone());
    let planned = vmt_dcsim::Simulation::check_horizon(&cluster, trace_cfg.horizon)
        .map_err(|err| err.to_string())
        .and_then(|ticks| {
            vmt_dcsim::plan_memory(&cluster, ticks, None).map_err(|err| err.to_string())
        });
    if let Err(err) = planned {
        eprintln!("invalid trace: {err}");
        std::process::exit(1);
    }
    let mut sim = vmt_dcsim::Simulation::new(
        cluster,
        vmt_workload::DiurnalTrace::new(trace_cfg),
        Box::new(replayer),
    );
    if let Some(threads) = threads {
        sim = sim.with_threads(threads);
    }
    let (result, end_farm) = sim.run_returning_farm();

    let full_replay = ticks == recorded_ticks;
    let missing = report.missing_decisions();
    let verdict = report.verdict();
    let mut failed = missing > 0;
    match verdict {
        vmt_telemetry::replay::ReplayVerdict::BitIdentical { ticks_compared } => {
            outln!(
                "replay of {policy_name}: bit-identical over {ticks_compared} ticks{}",
                if full_replay { "" } else { " (prefix)" }
            );
        }
        vmt_telemetry::replay::ReplayVerdict::Diverged {
            first_tick,
            expected,
            actual,
        } => {
            outln!(
                "replay of {policy_name}: DIVERGED at tick {first_tick} \
                 (expected digest {expected:#018x}, got {actual:#018x})"
            );
            outln!("bisect with `--until {first_tick}` to narrow the window");
            failed = true;
        }
    }
    if missing > 0 {
        outln!("{missing} arrivals had no recorded decision (workload divergence)");
    }
    if full_replay {
        let final_digest = vmt_dcsim::digest_final_state(&result, &end_farm);
        if final_digest == expected_final {
            outln!("final state digest matches the recording ({final_digest:#018x})");
        } else {
            outln!(
                "final state digest MISMATCH: recorded {expected_final:#018x}, \
                 replayed {final_digest:#018x}"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Checkpoints a run at a tick (`vmt-experiments snapshot`).
fn cmd_snapshot(rest: &[String]) {
    let (snap_path, rest) = positional_path(
        rest,
        "usage: vmt-experiments snapshot FILE (--at TICK | --from-flight DUMP) [options]",
    );
    let flags = parse_flags(
        rest,
        &[
            "--at",
            "--from-flight",
            "--policy",
            "--gv",
            "--servers",
            "--hours",
            "--seed",
            "--threads",
            "--zones",
        ],
    );
    let gv = gv_flag(&flags);
    let policy_name = flags.get("--policy").map_or("vmt-wa", String::as_str);
    let policy = match vmt_core::PolicyKind::parse(policy_name, gv) {
        Ok(policy) => policy,
        Err(err) => die(&err),
    };
    // `record`-sized defaults: the farm arrays land in the file verbatim.
    let servers = servers_flag(&flags).unwrap_or(100);
    let threads = threads_flag(&flags);
    let mut run = Run::new(servers, policy);
    set_hours(&mut run, numeric(&flags, "--hours").unwrap_or(24.0));

    // The checkpoint tick: given directly, or lifted from a flight-
    // recorder dump's header so the run can be frozen exactly where a
    // watchdog fired.
    let at: u64 = match (numeric::<u64>(&flags, "--at"), flags.get("--from-flight")) {
        (Some(_), Some(_)) => die("`--at` and `--from-flight` are mutually exclusive"),
        (Some(at), None) => at,
        (None, Some(dump_path)) => {
            let text = match std::fs::read_to_string(dump_path) {
                Ok(text) => text,
                Err(err) => die(&format!("cannot read `{dump_path}`: {err}")),
            };
            match vmt_telemetry::validate_dump(&text) {
                Ok(dump) => dump.header.tick,
                Err(err) => {
                    eprintln!("invalid flight dump: {err}");
                    std::process::exit(1);
                }
            }
        }
        (None, None) => die("snapshot requires `--at TICK` or `--from-flight DUMP`"),
    };

    if let Some(seed) = numeric::<u64>(&flags, "--seed") {
        run.cluster.seed = seed;
        run.trace.seed = seed;
    }
    if flags.contains_key("--zones") {
        run.cluster.topology = Some(vmt_dcsim::ZoneSpec::paper_default());
    }
    check_memory(&run, None);
    let mut sim = vmt_dcsim::Simulation::new(
        run.cluster.clone(),
        vmt_workload::DiurnalTrace::new(run.trace.clone()),
        policy.build(&run.cluster),
    );
    if let Some(threads) = threads {
        sim = sim.with_threads(threads);
    }
    let total = sim.total_ticks();
    if at > total {
        die(&format!(
            "`--at {at}` is beyond the horizon ({total} ticks)"
        ));
    }
    sim.run_until(at);
    let snapshot = match sim.snapshot() {
        Ok(snapshot) => snapshot,
        Err(err) => {
            eprintln!("cannot snapshot: {err}");
            std::process::exit(1);
        }
    };
    // One streaming pass writes the container and yields its digest.
    let written = std::fs::File::create(snap_path).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        let digest = snapshot.encode_to(&mut out)?;
        std::io::Write::flush(&mut out)?;
        Ok(digest)
    });
    let digest = match written {
        Ok(digest) => digest,
        Err(err) => {
            eprintln!("error: cannot write `{snap_path}`: {err}");
            std::process::exit(1);
        }
    };
    outln!(
        "snapshot of {policy_name} on {servers} servers at tick {at}/{total}: \
         digest {digest:#018x}"
    );
    outln!("snapshot: {snap_path}");
}

/// Restores a checkpoint and steps it forward (`vmt-experiments resume`).
fn cmd_resume(rest: &[String]) {
    let (snap_path, rest) = positional_path(
        rest,
        "usage: vmt-experiments resume FILE [--until TICK] [--threads T]",
    );
    let flags = parse_flags(rest, &["--until", "--threads"]);
    let threads = threads_flag(&flags);
    let bytes = match std::fs::read(snap_path) {
        Ok(bytes) => bytes,
        Err(err) => die(&format!("cannot read `{snap_path}`: {err}")),
    };
    let snapshot = match vmt_dcsim::Snapshot::decode(&bytes) {
        Ok(snapshot) => snapshot,
        Err(err) => {
            eprintln!("invalid snapshot: {err}");
            std::process::exit(1);
        }
    };
    // Free the file image before the restore allocates a whole farm.
    drop(bytes);
    let mut sim = match vmt_core::restore_simulation(&snapshot) {
        Ok(sim) => sim,
        Err(err) => {
            eprintln!("invalid snapshot: {err}");
            std::process::exit(1);
        }
    };
    // The run carries everything it needs; free the decoded columns and
    // heatmaps before it steps.
    let (tick, kind) = (snapshot.tick, snapshot.scheduler.kind.clone());
    drop(snapshot);
    if let Some(threads) = threads {
        sim = sim.with_threads(threads);
    }
    let total = sim.total_ticks();
    let until: u64 = numeric(&flags, "--until").unwrap_or(total);
    if until < tick {
        die(&format!(
            "`--until {until}` precedes the snapshot tick {tick}"
        ));
    }
    let until = until.min(total);
    sim.run_until(until);
    outln!("resumed {kind} at tick {tick}, ran to tick {until}/{total}");
    outln!("state digest at tick {until}: {:#018x}", sim.state_digest());
    if until == total {
        let (result, end_farm) = sim.finish();
        outln!(
            "{}: {} placements, {} dropped, peak cooling {:.1} kW",
            result.scheduler_name,
            result.placements,
            result.dropped_jobs,
            result.peak_cooling().get() / 1e3
        );
        outln!(
            "final state digest: {:#018x}",
            vmt_dcsim::digest_final_state(&result, &end_farm)
        );
    }
}

/// Validates a JSONL stream (`vmt-experiments check-telemetry FILE`).
fn cmd_check_telemetry(rest: &[String]) {
    let (path, rest) = positional_path(rest, "usage: vmt-experiments check-telemetry FILE");
    if !rest.is_empty() {
        die("usage: vmt-experiments check-telemetry FILE");
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => die(&format!("cannot read `{path}`: {err}")),
    };
    match vmt_telemetry::validate_stream(&text) {
        Ok(stream) => {
            outln!(
                "ok: {} events ({} snapshots, {} melt, {} hot-group, {} anomalies)",
                stream.events,
                stream.snapshots,
                stream.melts,
                stream.hot_group_events,
                stream.anomalies,
            );
            outln!(
                "run: {} on {} servers, {} ticks planned, {} run at {:.0} ticks/s",
                stream.run_config.policy,
                stream.run_config.servers,
                stream.run_config.ticks,
                stream.summary.ticks_run,
                stream.summary.ticks_per_s,
            );
            if stream.summary.write_errors > 0 {
                eprintln!(
                    "stream is well-formed but the run dropped {} event writes — \
                     the file is incomplete",
                    stream.summary.write_errors
                );
                std::process::exit(1);
            }
        }
        Err(err) => {
            eprintln!("invalid telemetry stream: {err}");
            std::process::exit(1);
        }
    }
}

/// Validates a flight-recorder dump (`vmt-experiments check-flight FILE`).
fn cmd_check_flight(rest: &[String]) {
    let (path, rest) = positional_path(rest, "usage: vmt-experiments check-flight FILE");
    if !rest.is_empty() {
        die("usage: vmt-experiments check-flight FILE");
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => die(&format!("cannot read `{path}`: {err}")),
    };
    match vmt_telemetry::validate_dump(&text) {
        Ok(dump) => {
            let trigger = dump.header.watchdog.map_or("on-demand".to_owned(), |w| {
                format!("watchdog {}", w.label())
            });
            outln!(
                "ok: {} records at tick {} ({trigger}), {} ticks of context, \
                 {} recorded over the run",
                dump.records,
                dump.header.tick,
                dump.context_ticks,
                dump.header.records_total,
            );
        }
        Err(err) => {
            eprintln!("invalid flight dump: {err}");
            std::process::exit(1);
        }
    }
}

/// Validates an OpenMetrics exposition
/// (`vmt-experiments check-metrics FILE [--require FAMILIES]`).
///
/// FILE is a saved `/metrics` scrape, or `-` to read stdin so a live
/// scrape can be piped straight through: the strict in-repo parser
/// rejects malformed escapes, bad `# TYPE`/`# HELP` lines, kind-illegal
/// sample suffixes, and content after `# EOF`. `--require` takes a
/// comma-separated family list (e.g. `zone_temp_c,zone_crac_duty`) that
/// must all be present.
fn cmd_check_metrics(rest: &[String]) {
    const USAGE: &str = "usage: vmt-experiments check-metrics FILE [--require FAMILIES]";
    let (path, rest) = match rest.split_first() {
        // Unlike the other check-* inputs, `-` (stdin) is a valid FILE.
        Some((path, tail)) if path == "-" || !path.starts_with("--") => (path, tail),
        _ => die(USAGE),
    };
    let flags = parse_flags(rest, &["--require"]);
    let text = read_file_or_stdin(path);
    let exposition = match vmt_telemetry::parse_openmetrics(&text) {
        Ok(exposition) => exposition,
        Err(err) => {
            eprintln!("invalid metrics exposition: {err}");
            std::process::exit(1);
        }
    };
    if let Some(required) = flags.get("--require") {
        for family in required.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            if exposition.family(family).is_none() {
                eprintln!("metrics exposition is valid but missing required family `{family}`");
                std::process::exit(1);
            }
        }
    }
    let samples: usize = exposition.families.iter().map(|f| f.samples.len()).sum();
    outln!(
        "ok: {} metric families, {samples} samples",
        exposition.families.len()
    );
}

/// Reads FILE, or stdin when FILE is `-` — the shared input convention
/// of `check-metrics`, `check-trace`, and `explain`, so a live scrape
/// or a freshly written trace can be piped straight through.
fn read_file_or_stdin(path: &str) -> String {
    if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        if let Err(err) = std::io::stdin().read_to_string(&mut buf) {
            die(&format!("cannot read stdin: {err}"));
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => die(&format!("cannot read `{path}`: {err}")),
        }
    }
}

/// Validates a Chrome trace-event export
/// (`vmt-experiments check-trace FILE`).
///
/// FILE is a trace written by `run --trace`, or `-` to read stdin. The
/// strict in-repo validator checks the renderer's full structural
/// contract — legal `ph` per category, finite non-negative timestamps,
/// span nesting per thread lane, unique `(tick, seq)` ids, and the
/// typed payload fields each category promises. Exits 0 when the trace
/// is valid, 1 when it is not, 2 on usage errors.
fn cmd_check_trace(rest: &[String]) {
    const USAGE: &str = "usage: vmt-experiments check-trace FILE";
    let (path, rest) = match rest.split_first() {
        Some((path, tail)) if path == "-" || !path.starts_with("--") => (path, tail),
        _ => die(USAGE),
    };
    if !rest.is_empty() {
        die(USAGE);
    }
    let text = read_file_or_stdin(path);
    match vmt_telemetry::validate_trace(&text) {
        Ok(stats) => {
            outln!(
                "ok: {} events over {} ticks ({} spans: {} phase, {} zone; \
                 {} placements, {} decisions, {} anomalies)",
                stats.events,
                stats.ticks,
                stats.spans,
                stats.phases,
                stats.zones,
                stats.placements,
                stats.decisions,
                stats.anomalies,
            );
            if stats.dropped > 0 {
                outln!(
                    "note: the exporter's ring dropped {} records before rendering — \
                     raise the trace capacity or the sampling stride for full coverage",
                    stats.dropped
                );
            }
        }
        Err(err) => {
            eprintln!("invalid trace: {err}");
            std::process::exit(1);
        }
    }
}

/// Reconstructs one job's placement decision from a trace
/// (`vmt-experiments explain JOB_ID TRACE`).
///
/// Walks the decision and placement instants of a trace written by
/// `run --trace` and prints the audit chain for JOB_ID: arrival tick,
/// the scheduler rung that handled it, the top-k candidate servers
/// with their tournament keys (best first), the chosen server with its
/// winning key, and the zone the job landed in. Exits 1 when the job
/// does not appear in the trace (it was not sampled — re-run with a
/// denser `--trace-sample` or pin the id with `--trace-jobs`).
fn cmd_explain(rest: &[String]) {
    const USAGE: &str = "usage: vmt-experiments explain JOB_ID TRACE";
    let (job_str, rest) = match rest.split_first() {
        Some((job, tail)) if !job.starts_with("--") => (job, tail),
        _ => die(USAGE),
    };
    let job: u64 = job_str
        .parse()
        .unwrap_or_else(|_| die(&format!("`{job_str}` is not a job id")));
    let (path, rest) = match rest.split_first() {
        Some((path, tail)) if path == "-" || !path.starts_with("--") => (path, tail),
        _ => die(USAGE),
    };
    if !rest.is_empty() {
        die(USAGE);
    }
    let text = read_file_or_stdin(path);
    // The whole file is still held to the strict schema, but only this
    // job's decision and placement instants are kept.
    let trace = match vmt_telemetry::parse_trace_filtered(&text, |event| {
        matches!(event.cat.as_str(), "decision" | "placement")
            && matches!(event.args.get_field("job"), Some(serde::Value::U64(id)) if *id == job)
    }) {
        Ok(trace) => trace,
        Err(err) => {
            eprintln!("invalid trace: {err}");
            std::process::exit(1);
        }
    };

    let (decisions, placements): (Vec<_>, Vec<_>) =
        trace.trace_events.iter().partition(|e| e.cat == "decision");
    if decisions.is_empty() && placements.is_empty() {
        eprintln!(
            "job {job} is not in this trace — it was not sampled; re-run with \
             `--trace-sample 1` or `--trace-jobs {job}`"
        );
        std::process::exit(1);
    }

    let field_u64 = |event: &vmt_telemetry::ChromeEvent, name: &str| -> Option<u64> {
        match event.args.get_field(name) {
            Some(serde::Value::U64(n)) => Some(*n),
            Some(serde::Value::I64(n)) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    };
    let field_f64 = |event: &vmt_telemetry::ChromeEvent, name: &str| -> Option<f64> {
        match event.args.get_field(name) {
            Some(serde::Value::F64(x)) => Some(*x),
            Some(serde::Value::U64(n)) => Some(*n as f64),
            Some(serde::Value::I64(n)) => Some(*n as f64),
            _ => None,
        }
    };
    let field_str = |event: &vmt_telemetry::ChromeEvent, name: &str| -> Option<String> {
        match event.args.get_field(name) {
            Some(serde::Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    };

    outln!("job {job}");
    // The decision instant carries the scheduler's view: the rung of
    // the placement ladder that handled the job and the balancer's
    // candidate snapshot taken just before the job was placed.
    for decision in &decisions {
        let tick = field_u64(decision, "tick").unwrap_or(0);
        let rung = field_str(decision, "rung").unwrap_or_default();
        let chosen = field_u64(decision, "chosen");
        outln!("  arrived at tick {tick}, handled by rung `{rung}`");
        if let Some(serde::Value::Array(candidates)) = decision.args.get_field("candidates") {
            if candidates.is_empty() {
                outln!("  no balancer candidates (priority or cursor rung)");
            } else {
                outln!("  top balancer candidates (best key first):");
                for candidate in candidates {
                    let server = candidate
                        .get_field("server")
                        .and_then(|v| match v {
                            serde::Value::U64(n) => Some(*n),
                            _ => None,
                        })
                        .unwrap_or(0);
                    let key = candidate
                        .get_field("key")
                        .and_then(|v| match v {
                            serde::Value::F64(x) => Some(*x),
                            _ => None,
                        })
                        .unwrap_or(f64::NAN);
                    let marker = if chosen == Some(server) {
                        "  <- chosen"
                    } else {
                        ""
                    };
                    outln!("    server {server:>6}  key {key:.4}{marker}");
                }
            }
        }
        match (chosen, field_f64(decision, "winning_key")) {
            (Some(server), Some(key)) => {
                outln!("  chose server {server} with winning key {key:.4}");
            }
            (Some(server), None) => {
                outln!("  chose server {server} (no tournament key — priority/cursor rung)");
            }
            (None, _) => outln!("  dropped: the rung ladder found no capacity"),
        }
    }
    if decisions.is_empty() {
        outln!("  (no decision detail — recorded without a tracing-aware policy)");
    }
    // The placement instant carries the engine's view: what was
    // actually committed to the farm, including the zone.
    for placement in &placements {
        let tick = field_u64(placement, "tick").unwrap_or(0);
        let kind = field_u64(placement, "kind")
            .filter(|&k| k < 5)
            .map(|k| vmt_workload::WorkloadKind::from_index(k as usize).name())
            .unwrap_or("unknown");
        let duration = field_u64(placement, "duration_ticks").unwrap_or(0);
        match (field_u64(placement, "server"), field_u64(placement, "zone")) {
            (Some(server), Some(zone)) => outln!(
                "  placed on server {server} in zone {zone} at tick {tick} \
                 ({kind}, {duration} ticks)"
            ),
            (Some(server), None) => outln!(
                "  placed on server {server} at tick {tick} ({kind}, {duration} ticks; \
                 run had no zone topology)"
            ),
            (None, _) => {
                outln!("  not placed at tick {tick} ({kind}, {duration} ticks) — dropped")
            }
        }
    }
    if placements.is_empty() {
        outln!("  (no placement instant — the job never reached the farm)");
    }
}

/// Mirror of the benchmark report schema written by
/// `cargo bench -p vmt-bench --bench engine_baseline` — only the fields
/// the checks consume; a missing field fails deserialization, which is
/// the schema validation.
#[derive(serde::Deserialize)]
struct BenchReport {
    description: String,
    scenario: String,
    measurements: Vec<BenchMeasurement>,
    speedups: Vec<BenchSpeedup>,
    scaling: Vec<BenchScaling>,
    phases: Vec<BenchPhase>,
}

#[derive(serde::Deserialize)]
struct BenchMeasurement {
    scheduler: String,
    implementation: String,
    servers: usize,
    ticks: usize,
    elapsed_s: f64,
    ticks_per_sec: f64,
    placements: u64,
}

#[derive(serde::Deserialize)]
struct BenchSpeedup {
    scheduler: String,
    servers: usize,
    speedup: f64,
}

#[derive(serde::Deserialize)]
struct BenchScaling {
    scheduler: String,
    servers: usize,
    threads: usize,
    ticks: usize,
    elapsed_s: f64,
    ticks_per_sec: f64,
    placements: u64,
    /// Job-table heap bytes per server at the end of the run. Recorded
    /// by the pooled-table bench; required on the 1M rows (where the
    /// memory budget is the point) and gated at
    /// [`MAX_MILLION_BYTES_PER_SERVER`].
    #[serde(default)]
    bytes_per_server: Option<f64>,
}

#[derive(serde::Deserialize)]
struct BenchPhase {
    scheduler: String,
    servers: usize,
    ticks_per_sec_instrumented: f64,
    coverage: f64,
    /// Set on the zoned observability row: throughput with the full
    /// observability layer (series + zone gauges + publisher) enabled.
    ticks_per_sec_observed: Option<f64>,
    /// Relative per-tick cost the observability layer adds over the
    /// spans-only run; gated at [`MAX_OBSERVABILITY_OVERHEAD`].
    observability_overhead: Option<f64>,
    /// Set on the zoned tracing row: throughput with span tracing
    /// enabled (phase + zone spans, placement decisions at sample 200 —
    /// the densest stride whose full 48h trace fits the default ring).
    ticks_per_sec_traced: Option<f64>,
    /// Relative per-tick cost enabled tracing adds over the plain
    /// instrumented run; gated at [`MAX_TRACING_OVERHEAD`].
    tracing_overhead: Option<f64>,
}

/// Ceiling on the relative per-tick cost of the observability layer at
/// the zoned 10k scale: series rings, per-zone gauges, and the scrape
/// publisher together may add at most 5% over the spans-only run.
const MAX_OBSERVABILITY_OVERHEAD: f64 = 0.05;

/// Ceiling on the relative per-tick cost of enabled span tracing at
/// the zoned 10k scale (sample 200): ring pushes, candidate snapshots,
/// and the per-zone `Instant` reads together may add at most 5%.
const MAX_TRACING_OVERHEAD: f64 = 0.05;

/// Server count of the top scaling tier the artifact must include.
const MILLION_TIER_SERVERS: usize = 1_000_000;

/// Ceiling on the 1M tier's per-server per-tick cost relative to the
/// same-thread 100k row — the same flat-scaling contract as the
/// 100k-vs-10k check, one decade up.
const MAX_MILLION_COST_FACTOR: f64 = 3.0;

/// Memory budget for the pooled job table at the 1M tier. The dominant
/// term is pages: at the diurnal peak (~70% of 32 cores busy) a server
/// chains ⌈22/8⌉ = 3 pages of 44 B each plus 12 B of per-server
/// anchors, ~150 B/server; 512 leaves headroom for free-list slack and
/// page-granularity waste without masking a return to the per-slot
/// slab (which sat at 288 B/server of `u64` ids alone and would blow
/// straight through this with its `kinds`/capacity overhead).
const MAX_MILLION_BYTES_PER_SERVER: f64 = 512.0;

/// Validates an engine benchmark artifact
/// (`vmt-experiments check-bench FILE`, normally `BENCH_engine.json`).
///
/// Beyond schema shape, this asserts the two properties the benchmark
/// exists to prove: determinism (placements identical across thread
/// counts at the same scale) and that parallelism pays — `threads=N`
/// must hold at least 0.9x the single-thread throughput, so a scaling
/// inversion like the pre-pool per-tick `thread::scope` spawn storm
/// fails the check instead of landing silently in the artifact. It also
/// requires the headline 10k and 100k vmt-wa groups at threads
/// {1,2,4,8} and the 1M tier at threads {1,8} (missing rows are all
/// listed in one error, with the exact regeneration command), holds the
/// 100k rows' per-server tick cost to the 10k anchor and the 1M rows'
/// to the 100k anchor, gates the 1M rows' job-table bytes-per-server
/// under budget, and gates the zoned 10k observability row: the
/// series/gauges/publisher layer may add at most 5% per-tick cost over
/// the spans-only instrumented run.
fn cmd_check_bench(rest: &[String]) {
    let (path, rest) = positional_path(rest, "usage: vmt-experiments check-bench FILE");
    if !rest.is_empty() {
        die("usage: vmt-experiments check-bench FILE");
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => die(&format!("cannot read `{path}`: {err}")),
    };
    let report: BenchReport = match serde_json::from_str(&text) {
        Ok(report) => report,
        Err(err) => fail_bench(&format!("schema mismatch: {err}")),
    };
    if report.description.is_empty() || report.scenario.is_empty() {
        fail_bench("empty description/scenario");
    }
    for section in [
        ("measurements", report.measurements.is_empty()),
        ("speedups", report.speedups.is_empty()),
        ("scaling", report.scaling.is_empty()),
        ("phases", report.phases.is_empty()),
    ] {
        if section.1 {
            fail_bench(&format!("`{}` section is empty", section.0));
        }
    }
    for m in &report.measurements {
        if !positive(m.ticks_per_sec) || !positive(m.elapsed_s) || m.ticks == 0 {
            fail_bench(&format!(
                "measurement {}@{} ({}) has non-positive timing",
                m.scheduler, m.servers, m.implementation
            ));
        }
        let _ = m.placements;
    }
    for s in &report.speedups {
        if !positive(s.speedup) {
            fail_bench(&format!(
                "speedup {}@{} is non-positive",
                s.scheduler, s.servers
            ));
        }
    }
    for p in &report.phases {
        if !positive(p.ticks_per_sec_instrumented) || !(0.0..=1.05).contains(&p.coverage) {
            fail_bench(&format!(
                "phase profile {}@{} out of range",
                p.scheduler, p.servers
            ));
        }
        if let Some(observed) = p.ticks_per_sec_observed {
            if !positive(observed) {
                fail_bench(&format!(
                    "observability row {}@{} has non-positive observed throughput",
                    p.scheduler, p.servers
                ));
            }
            let Some(overhead) = p.observability_overhead else {
                fail_bench(&format!(
                    "observability row {}@{} records observed throughput but no overhead",
                    p.scheduler, p.servers
                ));
            };
            // NaN never satisfies `contains`, so it fails the gate too.
            if !(-1.0..=MAX_OBSERVABILITY_OVERHEAD).contains(&overhead) {
                fail_bench(&format!(
                    "observability row {}@{}: series + zone gauges + publisher add \
                     {:.1}% per-tick cost (ceiling {:.0}%)",
                    p.scheduler,
                    p.servers,
                    overhead * 100.0,
                    MAX_OBSERVABILITY_OVERHEAD * 100.0
                ));
            }
        }
        if let Some(traced) = p.ticks_per_sec_traced {
            if !positive(traced) {
                fail_bench(&format!(
                    "tracing row {}@{} has non-positive traced throughput",
                    p.scheduler, p.servers
                ));
            }
            let Some(overhead) = p.tracing_overhead else {
                fail_bench(&format!(
                    "tracing row {}@{} records traced throughput but no overhead",
                    p.scheduler, p.servers
                ));
            };
            if !(-1.0..=MAX_TRACING_OVERHEAD).contains(&overhead) {
                fail_bench(&format!(
                    "tracing row {}@{}: enabled span tracing adds {:.1}% per-tick \
                     cost (ceiling {:.0}%)",
                    p.scheduler,
                    p.servers,
                    overhead * 100.0,
                    MAX_TRACING_OVERHEAD * 100.0
                ));
            }
        }
    }
    // The observability-overhead and tracing-overhead rows must
    // actually be present — a bench run that silently skipped them
    // would otherwise still validate.
    if !report
        .phases
        .iter()
        .any(|p| p.servers == 10_000 && p.observability_overhead.is_some())
    {
        fail_bench("`phases` has no 10k observability-overhead row");
    }
    if !report
        .phases
        .iter()
        .any(|p| p.servers == 10_000 && p.tracing_overhead.is_some())
    {
        fail_bench("`phases` has no 10k tracing-overhead row");
    }

    // The scaling table: anchor each (scheduler, servers) group on its
    // threads=1 row and hold every other row to it.
    let mut groups: Vec<(&str, usize)> = Vec::new();
    for row in &report.scaling {
        let key = (row.scheduler.as_str(), row.servers);
        if !groups.contains(&key) {
            groups.push(key);
        }
    }
    let mut checked = 0usize;
    let mut worst_ratio = f64::INFINITY;
    for &(scheduler, servers) in &groups {
        let group: Vec<&BenchScaling> = report
            .scaling
            .iter()
            .filter(|row| row.scheduler == scheduler && row.servers == servers)
            .collect();
        let Some(base) = group.iter().find(|row| row.threads == 1) else {
            fail_bench(&format!(
                "scaling group {scheduler}@{servers} has no threads=1 baseline row"
            ));
        };
        for row in &group {
            if row.placements != base.placements {
                fail_bench(&format!(
                    "scaling {scheduler}@{servers} x{}: placements diverge from the \
                     threads=1 row — the parallel tick is not deterministic",
                    row.threads
                ));
            }
            let ratio = row.ticks_per_sec / base.ticks_per_sec;
            if row.threads > 1 {
                worst_ratio = worst_ratio.min(ratio);
                checked += 1;
            }
            if ratio < 0.9 {
                fail_bench(&format!(
                    "scaling inversion: {scheduler}@{servers} x{} runs at {ratio:.2}x \
                     the single-thread throughput (floor 0.9x)",
                    row.threads
                ));
            }
        }
    }
    // The headline scaling groups must actually be present: 10k and
    // 100k vmt-wa rows at every recorded thread count, plus the 1M-tier
    // rows at the bracketing thread counts. Without this a bench run
    // that silently skipped the expensive sweeps would still validate.
    // Missing rows are reported all at once — regenerating the artifact
    // takes tens of minutes, so one run must surface every gap.
    let required: &[(usize, &[usize])] = &[
        (10_000, &[1, 2, 4, 8]),
        (100_000, &[1, 2, 4, 8]),
        (MILLION_TIER_SERVERS, &[1, 8]),
    ];
    let mut missing = Vec::new();
    for &(servers, thread_counts) in required {
        for &threads in thread_counts {
            if !report.scaling.iter().any(|row| {
                row.scheduler == "vmt-wa" && row.servers == servers && row.threads == threads
            }) {
                missing.push((servers, threads));
            }
        }
    }
    if !missing.is_empty() {
        let rows = missing
            .iter()
            .map(|&(servers, threads)| format!("vmt-wa@{servers} x{threads}"))
            .collect::<Vec<_>>()
            .join(", ");
        // The 1M rows have their own cheap patch mode; everything else
        // needs the full sweep (which also measures the 1M tier).
        let command = if missing.iter().all(|&(s, _)| s == MILLION_TIER_SERVERS) {
            "cargo bench -p vmt-bench --bench engine_baseline -- --million"
        } else {
            "cargo bench -p vmt-bench --bench engine_baseline"
        };
        fail_bench(&format!(
            "scaling table is missing {} row(s): {rows}\n  regenerate with: {command}",
            missing.len()
        ));
    }
    // Headline-scale cost ceiling. Absolute wall-clock depends entirely
    // on the recording host (the same code measures 2x apart across
    // runs on shared hardware), so the regression line is relative
    // *within* the artifact: each 100k row's per-server per-tick cost
    // is held to the same-thread 10k row's. Cache pressure makes ~2x
    // the expected ratio at the 10x size jump; blowing past 3x means
    // the tick has genuinely stopped scaling flat (per-server cost is
    // growing with farm size), which is the regression the old
    // absolute 360 s ceiling was trying to catch. An absolute ceiling
    // can still be opted into with VMT_CHECK_BENCH_MAX_100K_S=<seconds>
    // when runs come from one known host.
    const MAX_100K_COST_FACTOR: f64 = 3.0;
    let per_server_tick_cost =
        |row: &BenchScaling| row.elapsed_s / row.ticks as f64 / row.servers as f64;
    for row in &report.scaling {
        if row.scheduler != "vmt-wa" || row.servers != 100_000 {
            continue;
        }
        // The same-thread 10k row is the anchor (presence at threads
        // {1,2,4,8} was enforced above; other thread counts must bring
        // their own anchor).
        let Some(anchor) = report
            .scaling
            .iter()
            .find(|r| r.scheduler == "vmt-wa" && r.servers == 10_000 && r.threads == row.threads)
        else {
            fail_bench(&format!(
                "vmt-wa@100000 x{} has no same-thread 10k anchor row for the cost check",
                row.threads
            ));
        };
        let factor = per_server_tick_cost(row) / per_server_tick_cost(anchor);
        if !positive(factor) || factor > MAX_100K_COST_FACTOR {
            fail_bench(&format!(
                "vmt-wa@100000 x{}: per-server tick cost is {factor:.2}x the 10k row's \
                 (ceiling {MAX_100K_COST_FACTOR:.1}x) — the tick no longer scales flat",
                row.threads
            ));
        }
    }
    // The 1M tier gets the same relative treatment, anchored on the
    // same-thread 100k row: per-server per-tick cost may grow by at
    // most the cache-pressure factor across the 10x size jump, and each
    // row must carry the pooled job table's bytes-per-server under the
    // memory budget (the compressed table is the reason the tier fits
    // in RAM at all — a row without the record, or over budget, means
    // the pooling regressed).
    for row in &report.scaling {
        if row.scheduler != "vmt-wa" || row.servers != MILLION_TIER_SERVERS {
            continue;
        }
        let Some(anchor) = report
            .scaling
            .iter()
            .find(|r| r.scheduler == "vmt-wa" && r.servers == 100_000 && r.threads == row.threads)
        else {
            fail_bench(&format!(
                "vmt-wa@{MILLION_TIER_SERVERS} x{} has no same-thread 100k anchor row for \
                 the cost check",
                row.threads
            ));
        };
        let factor = per_server_tick_cost(row) / per_server_tick_cost(anchor);
        if !positive(factor) || factor > MAX_MILLION_COST_FACTOR {
            fail_bench(&format!(
                "vmt-wa@{MILLION_TIER_SERVERS} x{}: per-server tick cost is {factor:.2}x \
                 the 100k row's (ceiling {MAX_MILLION_COST_FACTOR:.1}x) — the tick no \
                 longer scales flat",
                row.threads
            ));
        }
        let Some(bytes) = row.bytes_per_server else {
            fail_bench(&format!(
                "vmt-wa@{MILLION_TIER_SERVERS} x{} records no bytes_per_server — \
                 the 1M tier exists to prove the job-table memory budget",
                row.threads
            ));
        };
        if !positive(bytes) || bytes > MAX_MILLION_BYTES_PER_SERVER {
            fail_bench(&format!(
                "vmt-wa@{MILLION_TIER_SERVERS} x{}: job table holds {bytes:.1} B/server \
                 (budget {MAX_MILLION_BYTES_PER_SERVER:.0} B/server)",
                row.threads
            ));
        }
    }
    if let Ok(v) = std::env::var("VMT_CHECK_BENCH_MAX_100K_S") {
        let ceiling = match v.parse::<f64>() {
            Ok(s) if s > 0.0 => s,
            _ => fail_bench(&format!(
                "VMT_CHECK_BENCH_MAX_100K_S must be a positive number of seconds, got {v:?}"
            )),
        };
        for row in &report.scaling {
            if row.scheduler == "vmt-wa" && row.servers == 100_000 && row.elapsed_s > ceiling {
                fail_bench(&format!(
                    "vmt-wa@100000 x{} took {:.1}s (VMT_CHECK_BENCH_MAX_100K_S={ceiling:.0})",
                    row.threads, row.elapsed_s
                ));
            }
        }
    }
    outln!(
        "ok: {} measurement rows, {} scaling rows in {} groups",
        report.measurements.len(),
        report.scaling.len(),
        groups.len(),
    );
    if checked > 0 {
        outln!(
            "scaling holds: worst multi-thread row at {worst_ratio:.2}x single-thread \
             (floor 0.90x), placements identical across thread counts"
        );
    }
}

/// Reports an invalid benchmark artifact and exits 1.
/// NaN-safe strict positivity (NaN compares false, so it fails too).
fn positive(x: f64) -> bool {
    x > 0.0
}

fn fail_bench(message: &str) -> ! {
    eprintln!("invalid benchmark artifact: {message}");
    std::process::exit(1);
}

/// When `VMT_CSV_DIR` is set, drops each run's time series there as
/// `<figure>_<policy>.csv` for external plotting.
fn write_series_csv(figure: &vmt_experiments::cooling_load::CoolingLoadFigure, name: &str) {
    let Ok(dir) = std::env::var("VMT_CSV_DIR") else {
        return;
    };
    for result in &figure.results {
        let path = std::path::Path::new(&dir).join(format!(
            "{name}_{}.csv",
            result.scheduler_name.replace(' ', "_")
        ));
        if let Err(err) = std::fs::write(&path, result.series_csv()) {
            eprintln!("warning: could not write {}: {err}", path.display());
        }
    }
}

fn run_one(id: &str, servers: Option<usize>, seeds: usize) {
    // Paper sizes: 1,000 servers for the headline cluster experiments,
    // 100 for the parameter sweeps.
    let large = servers.unwrap_or(1000);
    let sweep = servers.unwrap_or(100);
    match id {
        "table1" => out!("{}", table1::render()),
        "table2" => out!("{}", table2::render(sweep)),
        "fig1" => out!("{}", fig1::render()),
        "fig2" => out!("{}", fig2::render()),
        "fig6" => out!("{}", fig6::render()),
        "fig7" => out!("{}", fig7::render(sweep)),
        "fig8" => out!("{}", fig8::render()),
        "fig9" => out!("{}", heatmaps::render(HeatmapFigure::Fig9RoundRobin, sweep)),
        "fig10" => out!(
            "{}",
            heatmaps::render(HeatmapFigure::Fig10CoolestFirst, sweep)
        ),
        "fig11" => out!("{}", heatmaps::render(HeatmapFigure::Fig11VmtTa, sweep)),
        "fig12" => out!("{}", hot_group::render(&hot_group::fig12(large))),
        "fig13" => {
            let figure = cooling_load::fig13(large);
            write_series_csv(&figure, "fig13");
            out!("{}", cooling_load::render(&figure));
        }
        "fig14" => out!("{}", heatmaps::render(HeatmapFigure::Fig14VmtWa, sweep)),
        "fig15" => out!("{}", hot_group::render(&hot_group::fig15(large))),
        "fig16" => {
            let figure = cooling_load::fig16(large);
            write_series_csv(&figure, "fig16");
            out!("{}", cooling_load::render(&figure));
        }
        "fig17" => out!("{}", threshold::render(sweep)),
        "fig18" => out!("{}", gv_sweep::render(sweep)),
        "fig19" => out!(
            "{}",
            inlet_variation::render(&inlet_variation::fig19(sweep, seeds))
        ),
        "fig20" => out!(
            "{}",
            inlet_variation::render(&inlet_variation::fig20(sweep, seeds))
        ),
        "ablations" => out!("{}", ablations::render(sweep)),
        "emergency" => out!("{}", emergency::render(sweep)),
        "bound" => out!("{}", storage_bound::render(sweep)),
        "qos" => out!("{}", qos_check::render(sweep)),
        "preserve" => out!("{}", preserve::render(sweep)),
        "estimator" => out!("{}", estimator_validation::render()),
        "tco" => {
            let (reduction, summary) = tco_summary::measured(large);
            outln!("measured best peak reduction: {:.1}%", reduction * 100.0);
            out!("{}", tco_summary::render(&summary));
        }
        other => die(&format!("unknown experiment id `{other}`")),
    }
}
