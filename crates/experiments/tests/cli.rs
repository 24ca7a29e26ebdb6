//! CLI contract tests for the `vmt-experiments` binary.
//!
//! Usage errors (typos, missing values, unknown names) must exit 2 with
//! a pointer to `--help`; invalid *input files* exit 1; the record →
//! replay → check pipeline round-trips with exit 0. Every subcommand's
//! error path is pinned here so a CLI refactor cannot silently turn a
//! hard error into a default.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vmt-experiments"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Asserts a usage error: exit 2 and a help pointer on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    assert_usage_error_output(&run(args), &args.join(" "), needle);
}

/// [`assert_usage_error`] on the output of the invocation `label`.
fn assert_usage_error_output(out: &Output, label: &str, needle: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "`{label}` should exit 2, stderr: {}",
        stderr(out)
    );
    let err = stderr(out);
    assert!(
        err.contains(needle),
        "`{label}` stderr should mention `{needle}`: {err}"
    );
    assert!(
        err.contains("--help"),
        "usage errors point at --help: {err}"
    );
}

/// A unique scratch path for this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vmt_cli_test_{}_{name}", std::process::id()))
}

#[test]
fn no_arguments_prints_help_and_exits_2() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).contains("usage:"));
}

#[test]
fn help_flag_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for subcommand in ["run", "record", "replay", "check-telemetry", "check-flight"] {
        assert!(text.contains(subcommand), "help must list `{subcommand}`");
    }
}

#[test]
fn experiment_usage_errors() {
    assert_usage_error(&["fig99"], "unknown experiment id `fig99`");
    assert_usage_error(&["--servers", "10"], "unrecognized argument `--servers`");
    assert_usage_error(
        &["fig7", "--sevrers", "10"],
        "unrecognized argument `--sevrers`",
    );
    assert_usage_error(&["fig7", "--servers"], "flag `--servers` requires a value");
    assert_usage_error(&["fig7", "--servers", "ten"], "unparseable value `ten`");
    assert_usage_error(
        &["fig13", "--servers", "0"],
        "`--servers` must be at least 1",
    );
    assert_usage_error(&["fig19", "--seeds", "0"], "`--seeds` must be at least 1");
    assert_usage_error(
        &["fig13", "--threads", "0"],
        "`--threads` must be at least 1",
    );
}

#[test]
fn run_usage_errors() {
    // An unknown policy lists every valid policy name.
    let out = run(&["run", "--policy", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown policy `bogus`"), "got: {err}");
    for name in vmt_core::PolicyKind::NAMES {
        assert!(err.contains(name), "error must list `{name}`: {err}");
    }
    assert_usage_error(&["run", "--hours", "0"], "`--hours` must be positive");
    // 6e13 one-minute ticks: more than a job's u32 due tick can name.
    assert_usage_error(
        &["run", "--servers", "10", "--hours", "1e12"],
        "`--hours 1000000000000` is too long",
    );
    assert_usage_error(&["run", "--servers", "0"], "`--servers` must be at least 1");
    assert_usage_error(
        &["run", "--servers", "100", "--hours", "1", "--threads", "0"],
        "`--threads` must be at least 1",
    );
    for gv in ["nan", "0", "-5", "inf"] {
        assert_usage_error(&["run", "--gv", gv], "`--gv` must be positive");
    }
    assert_usage_error(&["run", "--gv"], "flag `--gv` requires a value");
    assert_usage_error(&["run", "--flightdump", "x"], "unrecognized argument");
    // `--watchdogs` is a switch: it must not swallow a following flag.
    assert_usage_error(&["run", "--watchdogs", "--servers"], "requires a value");
    // `VMT_THREADS` is read by every verb, so it is checked once, before
    // dispatch: a value that is not a positive integer is a usage error,
    // not a silent fall-back to every core.
    let args = ["run", "--servers", "10", "--hours", "1"];
    for value in ["0", "-1", "four", ""] {
        let out = bin().args(args).env("VMT_THREADS", value).output().unwrap();
        assert_usage_error_output(
            &out,
            &format!("VMT_THREADS={value} {}", args.join(" ")),
            &format!("`VMT_THREADS` must be a positive integer, got `{value}`"),
        );
    }
    let out = bin().args(args).env("VMT_THREADS", "2").output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn record_usage_errors() {
    assert_usage_error(&["record"], "usage: vmt-experiments record");
    assert_usage_error(
        &["record", "--servers", "5"],
        "usage: vmt-experiments record",
    );
    assert_usage_error(
        &["record", "/tmp/x.trace", "--policy", "nope"],
        "unknown policy `nope`",
    );
    assert_usage_error(
        &["record", "/tmp/x.trace", "--telemetry", "y"],
        "unrecognized argument `--telemetry`",
    );
    assert_usage_error(
        &["record", "/tmp/x.trace", "--servers", "0"],
        "`--servers` must be at least 1",
    );
    assert_usage_error(
        &["record", "/tmp/x.trace", "--gv", "0"],
        "`--gv` must be positive",
    );
    assert_usage_error(
        &["record", "/tmp/x.trace", "--threads", "0"],
        "`--threads` must be at least 1",
    );
    assert_usage_error(
        &["record", "/tmp/x.trace", "--hours", "1e12"],
        "is too long",
    );
}

#[test]
fn replay_usage_errors() {
    assert_usage_error(&["replay"], "usage: vmt-experiments replay");
    assert_usage_error(&["replay", "--until", "5"], "usage: vmt-experiments replay");
    assert_usage_error(&["replay", "/nonexistent/t.trace"], "cannot read");
    assert_usage_error(
        &["replay", "/nonexistent/t.trace", "--threads", "0"],
        "`--threads` must be at least 1",
    );
}

/// A trace whose header stretches its ticks until the horizon outruns a
/// job's due tick is invalid input (exit 1), not an abort.
#[test]
fn replay_rejects_a_horizon_past_the_due_tick_range_with_exit_1() {
    let trace = scratch("long.trace");
    let out = bin()
        .arg("record")
        .arg(&trace)
        .args(["--servers", "3", "--hours", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.contains("\"tick_seconds\":60.0"),
        "header: {text:.200}"
    );
    std::fs::write(
        &trace,
        text.replacen("\"tick_seconds\":60.0", "\"tick_seconds\":1e12", 1),
    )
    .unwrap();
    let out = bin().arg("replay").arg(&trace).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("invalid trace: the horizon spans"),
        "got: {err}"
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn replay_rejects_a_corrupt_trace_with_exit_1() {
    let path = scratch("corrupt.trace");
    std::fs::write(&path, "{\"not\":\"a trace\"}\n").unwrap();
    let out = bin().arg("replay").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid trace"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_telemetry_usage_and_invalid_input() {
    assert_usage_error(
        &["check-telemetry"],
        "usage: vmt-experiments check-telemetry",
    );
    assert_usage_error(&["check-telemetry", "a", "b"], "usage:");
    assert_usage_error(&["check-telemetry", "/nonexistent/s.jsonl"], "cannot read");
    let path = scratch("bad.jsonl");
    std::fs::write(&path, "not json\n").unwrap();
    let out = bin().arg("check-telemetry").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("invalid telemetry stream"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_flight_usage_and_invalid_input() {
    assert_usage_error(&["check-flight"], "usage: vmt-experiments check-flight");
    assert_usage_error(&["check-flight", "/nonexistent/f.dump"], "cannot read");
    let path = scratch("bad.dump");
    std::fs::write(&path, "{\"schema\":true}\n").unwrap();
    let out = bin().arg("check-flight").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("invalid flight dump"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_metrics_usage_and_invalid_input() {
    assert_usage_error(&["check-metrics"], "usage: vmt-experiments check-metrics");
    assert_usage_error(&["check-metrics", "/nonexistent/m.prom"], "cannot read");
    assert_usage_error(
        &["check-metrics", "/tmp/x.prom", "--require"],
        "flag `--require` requires a value",
    );
    // A sample line with no preceding `# TYPE` declaration is malformed.
    let path = scratch("bad.prom");
    std::fs::write(&path, "junk 1\n# EOF\n").unwrap();
    let out = bin().arg("check-metrics").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid metrics exposition"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_metrics_validates_and_requires_families() {
    let path = scratch("good.prom");
    std::fs::write(
        &path,
        "# TYPE zone_temp_c gauge\nzone_temp_c{zone=\"0\"} 22.5\n# EOF\n",
    )
    .unwrap();
    let out = bin()
        .args(["check-metrics"])
        .arg(&path)
        .args(["--require", "zone_temp_c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("1 metric families"));

    // A valid document missing a required family still exits 1.
    let out = bin()
        .args(["check-metrics"])
        .arg(&path)
        .args(["--require", "zone_temp_c,zone_crac_duty"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("missing required family `zone_crac_duty`"),
        "got: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_observability_usage_errors() {
    assert_usage_error(&["run", "--metrics-addr"], "requires a value");
    assert_usage_error(
        &["run", "--metrics-addr", "not-an-addr"],
        "cannot bind `--metrics-addr not-an-addr`",
    );
    assert_usage_error(&["run", "--series", "0"], "`--series` capacity");
    assert_usage_error(&["run", "--series", "ten"], "unparseable value `ten`");
    assert_usage_error(&["run", "--dashboard", "ten"], "unparseable value `ten`");
}

/// A series capacity far beyond the run reserves nothing up front: the
/// rings grow with the samples.
#[test]
fn run_with_a_huge_series_capacity_exits_clean() {
    let out = run(&[
        "run",
        "--servers",
        "10",
        "--hours",
        "0.1",
        "--series",
        "100000000000",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

/// The full observability surface on one small zoned run: series,
/// dashboard (degrading to plain lines on a pipe), and a bound metrics
/// endpoint all come up and the run exits clean.
#[test]
fn run_with_observability_flags_exits_clean() {
    let out = bin()
        .args([
            "run",
            "--servers",
            "40",
            "--hours",
            "1",
            "--zones",
            "--series",
            "--dashboard",
            "30",
            "--metrics-addr",
            "127.0.0.1:0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("serving metrics on http://127.0.0.1:"),
        "got: {err}"
    );
    // stderr is a pipe here, so the dashboard degrades to the plain
    // one-line progress form.
    assert!(err.contains("ticks/s"), "got: {err}");
    assert!(!err.contains('\x1b'), "no ANSI on a pipe: {err}");
}

/// The happy path end to end: record a small run, replay it in full and
/// as a prefix, and validate the trace survives the pipeline.
#[test]
fn record_replay_round_trip() {
    let trace = scratch("roundtrip.trace");
    let out = bin()
        .args(["record"])
        .arg(&trace)
        .args(["--servers", "5", "--hours", "2", "--policy", "vmt-wa"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("recorded vmt-wa"));

    let out = bin().arg("replay").arg(&trace).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("bit-identical"), "got: {text}");
    assert!(text.contains("final state digest matches"), "got: {text}");

    let out = bin()
        .arg("replay")
        .arg(&trace)
        .args(["--until", "30"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("30 ticks (prefix)"));

    let _ = std::fs::remove_file(&trace);
}

/// A forced thermal violation through the CLI: the run reports the
/// anomaly, and both the end-of-run dump and the `.anomaly1` sibling
/// pass `check-flight`.
#[test]
fn watchdog_run_produces_validating_dumps() {
    let dump = scratch("wd.dump");
    let out = bin()
        .args([
            "run",
            "--servers",
            "5",
            "--hours",
            "2",
            "--watchdogs",
            "--red-line",
            "28",
            "--flight-dump",
        ])
        .arg(&dump)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("anomalies fired"));

    let anomaly = PathBuf::from(format!("{}.anomaly1", dump.display()));
    for path in [&dump, &anomaly] {
        let out = bin().arg("check-flight").arg(path).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "check-flight {} failed: {}",
            path.display(),
            stderr(&out)
        );
    }
    let out = bin().arg("check-flight").arg(&anomaly).output().unwrap();
    assert!(stdout(&out).contains("watchdog thermal-violation"));

    let _ = std::fs::remove_file(&dump);
    let _ = std::fs::remove_file(&anomaly);
}

#[test]
fn snapshot_usage_errors() {
    assert_usage_error(&["snapshot"], "usage: vmt-experiments snapshot");
    assert_usage_error(
        &["snapshot", "--at", "5"],
        "usage: vmt-experiments snapshot",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap"],
        "snapshot requires `--at TICK` or `--from-flight DUMP`",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "5", "--from-flight", "d"],
        "mutually exclusive",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "ten"],
        "unparseable value `ten`",
    );
    assert_usage_error(
        &[
            "snapshot",
            "/tmp/x.snap",
            "--at",
            "99999",
            "--servers",
            "2",
            "--hours",
            "1",
        ],
        "beyond the horizon",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "5", "--policy", "bogus"],
        "unknown policy `bogus`",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "5", "--from-flight"],
        "requires a value",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "1", "--servers", "0"],
        "`--servers` must be at least 1",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "1", "--gv", "nan"],
        "`--gv` must be positive",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "1", "--threads", "0"],
        "`--threads` must be at least 1",
    );
    assert_usage_error(
        &["snapshot", "/tmp/x.snap", "--at", "1", "--hours", "1e12"],
        "is too long",
    );
}

#[test]
fn resume_usage_errors() {
    assert_usage_error(&["resume"], "usage: vmt-experiments resume");
    assert_usage_error(&["resume", "--until", "5"], "usage: vmt-experiments resume");
    assert_usage_error(&["resume", "/nonexistent/x.snap"], "cannot read");
    assert_usage_error(
        &["resume", "/tmp/x.snap", "--servers", "5"],
        "unrecognized argument `--servers`",
    );
    assert_usage_error(
        &["resume", "/nonexistent/x.snap", "--threads", "0"],
        "`--threads` must be at least 1",
    );
}

#[test]
fn resume_rejects_corrupt_snapshots_with_exit_1() {
    // A real v2 container to damage: its second block (after the JSON
    // metadata) is the first farm column.
    let good = scratch("good.snap");
    let out = bin()
        .arg("snapshot")
        .arg(&good)
        .args(["--at", "10", "--servers", "5", "--hours", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let v2 = std::fs::read(&good).unwrap();
    let _ = std::fs::remove_file(&good);
    let meta_len = u64::from_le_bytes(v2[19..27].try_into().unwrap()) as usize;
    let column = 15 + 20 + meta_len + 12;
    let mut bad_digest = v2.clone();
    bad_digest[column + 3] ^= 0x40;
    let truncated = v2[..column + 4].to_vec();

    // The committed v1 fixture (4 servers, VMT-WA) with one scheduler
    // field edited, re-wrapped with a valid digest: framing and digest
    // pass, and restore rejects the state.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/golden_v1.snap"
    ))
    .unwrap();
    let payload = golden.split_once('\n').unwrap().1.trim_end();
    let v1_with = |field: &str, value: &str| {
        assert_eq!(payload.matches(field).count(), 1, "`{field}` occurs once");
        let edited = payload.replace(field, value);
        let digest = edited
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        format!(
            "VMTSNAP v1 digest={digest:#018x} bytes={}\n{edited}\n",
            edited.len()
        )
        .into_bytes()
    };

    // A wrong magic, a bad version, a truncated payload, a column that
    // fails its block digest, a column cut short, a hot group larger
    // than the farm, a negative GV and a wax threshold above 1 each fail
    // with a typed message, never a panic.
    for (name, contents, needle) in [
        (
            "magic",
            b"NOTSNAP v1 digest=0x0 bytes=2\n{}\n".to_vec(),
            "magic",
        ),
        (
            "version",
            b"VMTSNAP v99 digest=0x0000000000000000 bytes=2\n{}\n".to_vec(),
            "version",
        ),
        (
            "trunc",
            b"VMTSNAP v1 digest=0x0000000000000000 bytes=9999\n{}\n".to_vec(),
            "length mismatch",
        ),
        ("v2_digest", bad_digest, "inlet_c digest mismatch"),
        ("v2_trunc", truncated, "length mismatch"),
        (
            "v1_hot_size",
            v1_with("\"hot_size\":2", "\"hot_size\":9"),
            "hot group has 9 servers, the farm 4",
        ),
        (
            "v1_gv",
            v1_with("\"gv\":22.0", "\"gv\":-5.0"),
            "gv -5 is not positive",
        ),
        (
            "v1_threshold",
            v1_with("\"wax_threshold\":0.98", "\"wax_threshold\":7.0"),
            "wax threshold 7 is outside (0, 1]",
        ),
    ] {
        let path = scratch(&format!("bad_{name}.snap"));
        std::fs::write(&path, contents).unwrap();
        let out = bin().arg("resume").arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stderr(&out));
        let err = stderr(&out).to_lowercase();
        assert!(
            err.contains("invalid snapshot") && err.contains(needle),
            "{name} stderr should mention `{needle}`: {err}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// The checkpoint happy path end to end: snapshot mid-run, resume to the
/// horizon at two thread counts, and hold the digests to each other.
#[test]
fn snapshot_resume_round_trip() {
    let snap = scratch("roundtrip.snap");
    let out = bin()
        .arg("snapshot")
        .arg(&snap)
        .args([
            "--at",
            "30",
            "--servers",
            "5",
            "--hours",
            "2",
            "--policy",
            "vmt-wa",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("snapshot of vmt-wa"));

    let resume = |extra: &[&str]| {
        let out = bin().arg("resume").arg(&snap).args(extra).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        stdout(&out)
    };
    let single = resume(&["--threads", "1"]);
    assert!(
        single.contains("resumed vmt-wa at tick 30"),
        "got: {single}"
    );
    assert!(single.contains("final state digest"), "got: {single}");
    // Bit-identical at any thread count: the full transcripts match.
    let threaded = resume(&["--threads", "4"]);
    assert_eq!(single, threaded);
    // A prefix resume stops at the requested tick.
    let prefix = resume(&["--until", "60"]);
    assert!(prefix.contains("ran to tick 60"), "got: {prefix}");
    assert!(!prefix.contains("final state digest"), "got: {prefix}");

    let _ = std::fs::remove_file(&snap);
}

/// Restore interoperates with the flight recorder: a watchdog anomaly
/// dump names the tick, `snapshot --from-flight` checkpoints there, and
/// the checkpoint resumes cleanly.
#[test]
fn snapshot_from_flight_dump_resumes() {
    let dump = scratch("ff.dump");
    let out = bin()
        .args([
            "run",
            "--servers",
            "5",
            "--hours",
            "2",
            "--watchdogs",
            "--red-line",
            "28",
        ])
        .arg("--flight-dump")
        .arg(&dump)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let anomaly = PathBuf::from(format!("{}.anomaly1", dump.display()));

    let snap = scratch("ff.snap");
    let out = bin()
        .arg("snapshot")
        .arg(&snap)
        .arg("--from-flight")
        .arg(&anomaly)
        .args(["--servers", "5", "--hours", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    let out = bin().arg("resume").arg(&snap).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("final state digest"));

    for path in [&dump, &anomaly, &snap] {
        let _ = std::fs::remove_file(path);
    }
}

/// The committed golden trace (every record kind, escapes, a missing
/// tick record, ring drops) passes `check-trace` from a file and from
/// stdin, and `explain` reconstructs its jobs.
#[test]
fn check_trace_and_explain_read_the_golden_trace() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/golden_trace.json"
    );
    let out = run(&["check-trace", golden]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).starts_with("ok: 28 events over 2 ticks"));
    assert!(stdout(&out).contains("dropped 7 records"));

    let mut child = bin()
        .args(["check-trace", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let text = std::fs::read(golden).unwrap();
    std::io::Write::write_all(&mut child.stdin.take().unwrap(), &text).unwrap();
    let piped = child.wait_with_output().unwrap();
    assert_eq!(piped.status.code(), Some(0));
    assert_eq!(stdout(&piped), stdout(&out));

    let out = run(&["explain", "42", golden]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let chain = stdout(&out);
    assert!(chain.contains("handled by rung `hot-balancer`"), "{chain}");
    assert!(
        chain.contains("chose server 5 with winning key 23.0625"),
        "{chain}"
    );
    assert!(
        chain.contains("placed on server 5 in zone 0 at tick 4"),
        "{chain}"
    );
    let out = run(&["explain", "30", golden]);
    assert!(stdout(&out).contains("dropped: the rung ladder found no capacity"));
    let out = run(&["explain", "99", golden]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("not in this trace"));
}

/// A VMT-TA trace explains its placements like a VMT-WA one: the rung,
/// the balancer's candidates and the winning key.
#[test]
fn explain_reads_a_vmt_ta_decision() {
    let trace = scratch("ta_trace.json");
    let out = bin()
        .args([
            "run",
            "--policy",
            "vmt-ta",
            "--servers",
            "100",
            "--hours",
            "2",
        ])
        .args(["--trace-sample", "10", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let out = bin().args(["explain", "50"]).arg(&trace).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let chain = stdout(&out);
    assert!(!chain.contains("no decision detail"), "{chain}");
    assert!(
        chain.contains("handled by rung `hot-balancer`")
            || chain.contains("handled by rung `cold-balancer`"),
        "{chain}"
    );
    assert!(chain.contains("top balancer candidates"), "{chain}");
    assert!(chain.contains("with winning key"), "{chain}");
    let _ = std::fs::remove_file(&trace);
}

/// Input nested 100,000 levels deep is invalid input (exit 1) for
/// every verb that reads JSON, never a stack overflow.
#[test]
fn deeply_nested_input_exits_1_in_every_json_verb() {
    let deep = "[".repeat(100_000) + &"]".repeat(100_000) + "\n";
    let path = scratch("deep.json");
    std::fs::write(&path, &deep).unwrap();
    let trace = scratch("deep_trace.json");
    std::fs::write(&trace, format!("{{\"traceEvents\": [{deep}]}}")).unwrap();
    for (verb, file) in [
        (&["check-trace"][..], &trace),
        (&["explain", "5"][..], &trace),
        (&["check-trace"][..], &path),
        (&["check-telemetry"][..], &path),
        (&["check-flight"][..], &path),
        (&["replay"][..], &path),
        (&["check-bench"][..], &path),
    ] {
        let out = bin().args(verb).arg(file).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{verb:?} on a 100,000-deep input: {}",
            stderr(&out)
        );
    }
    let out = bin().arg("check-trace").arg(&trace).output().unwrap();
    assert!(
        stderr(&out).contains("nesting deeper than 128 levels"),
        "{}",
        stderr(&out)
    );
    for file in [&path, &trace] {
        let _ = std::fs::remove_file(file);
    }
}

/// A reader that closes stdout early (`snapshot … | head -1`) is not a
/// crash: the verb still writes its file and exits 0, without a panic
/// message on stderr.
#[test]
fn closed_stdout_is_not_a_crash() {
    use std::process::Stdio;

    let snap = scratch("closed_stdout.snap");
    let mut child = bin()
        .arg("snapshot")
        .arg(&snap)
        .args(["--at", "30", "--servers", "100", "--hours", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The verb prints only after the snapshot is written, long after
    // the read end is gone.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    let bytes = std::fs::read(&snap).expect("the snapshot was written");
    let snapshot = vmt_dcsim::Snapshot::decode(&bytes).expect("the snapshot decodes");
    assert_eq!(snapshot.tick, 30);
    let _ = std::fs::remove_file(&snap);
}
