//! Benchmark of the VMT simulator. `BENCHMARK.json` at the repository
//! root lists its workloads and metrics; `perfbench/LAYERS.md` maps each
//! layer to its metrics and records the first baseline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload place-100k --seed 1 --seconds 15 --trace 0
//! ```
//!
//! A run is one process that calls into the simulator in a closed loop
//! (the next call only after the previous one returned) with at most two
//! threads. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! repeats the workload with spans around the calls into each layer and
//! prints the per-layer metrics. The last line of stdout is the result
//! object; the lines before it give each metric's samples, the host and
//! the outputs.

mod checks;
mod host;
mod metrics;
mod probe;
mod references;
mod repro;
mod sim;
mod spans;
mod stats;

use checks::{Checks, Outputs, Reference};
use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use spans::{SpanLog, Spans};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// The seed a run uses without `--seed`; its outputs are recorded.
const DEFAULT_SEED: u64 = 1;

/// `--seconds` without the flag (BENCHMARK.json's `run_seconds`).
const DEFAULT_SECONDS: u64 = 15;

const USAGE: &str = "usage: perfbench --workload <place-100k|observe-10k|checkpoint-100k|repro> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// VMT-WA placement at 100k servers across the evening peak.
    Place,
    /// Zoned 10k servers with every observability layer, then export.
    Observe,
    /// Snapshot, encode, decode and restore cycles at 100k servers.
    Checkpoint,
    /// Figures 13, 16 and 18 through `vmt-experiments`.
    Repro,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] = [
        Workload::Place,
        Workload::Observe,
        Workload::Checkpoint,
        Workload::Repro,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Place => "place-100k",
            Workload::Observe => "observe-10k",
            Workload::Checkpoint => "checkpoint-100k",
            Workload::Repro => "repro",
        }
    }
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of the timed section: ticks, finish, checkpoints,
    /// export or figure calls, without set-up and output checks.
    pub timed_s: f64,
    /// Simulated server-ticks in the timed section.
    pub server_ticks: u64,
    /// Host seconds of each `Simulation::step`.
    pub tick_s: Vec<f64>,
    /// Host seconds of each `Simulation::finish`.
    pub finish_s: Vec<f64>,
    /// The outputs the pass checked.
    pub outputs: Outputs,
    /// Workload-specific user-facing costs (`checkpoint_s`, `export_s`, ...).
    pub user: Values,
    /// Per-layer values only a traced pass can measure.
    pub layers: Values,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// CPU seconds of the whole pass, all threads.
    pub cpu_s: f64,
}

impl Pass {
    fn server_ticks_per_s(&self) -> f64 {
        self.server_ticks as f64 / self.timed_s
    }
}

/// Runs `f` inside a span when tracing and adds its host seconds to the
/// pass's timed section; returns its result and those seconds.
pub fn timed<T>(
    pass: &mut Pass,
    spans: Option<&Spans>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = spans::span(spans, name, f);
    let took = start.elapsed().as_secs_f64();
    pass.timed_s += took;
    (out, took)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One pass of the workload, with or without spans.
type Runner = Box<dyn FnMut(Option<&Spans>, &mut Checks) -> Pass>;

/// The workload's pass, after the comparison run its checks need.
fn runner(workload: Workload, seed: u64, seconds: u64) -> Runner {
    match workload {
        Workload::Place => Box::new(move |spans, checks| sim::place(seed, seconds, spans, checks)),
        Workload::Observe => {
            let detached = sim::observe_detached(seed);
            Box::new(move |spans, checks| sim::observe(seed, seconds, &detached, spans, checks))
        }
        Workload::Checkpoint => {
            let uninterrupted = sim::uninterrupted(seed);
            Box::new(move |spans, checks| {
                sim::checkpoint(seed, seconds, &uninterrupted, spans, checks)
            })
        }
        Workload::Repro => Box::new(repro::repro),
    }
}

fn measure(run: &mut Runner, spans: Option<&Spans>, checks: &mut Checks) -> Pass {
    let wall = Instant::now();
    let cpu = host::cpu_seconds().unwrap_or(0.0);
    let mut pass = run(spans, checks);
    pass.wall_s = wall.elapsed().as_secs_f64();
    pass.cpu_s = host::cpu_seconds().unwrap_or(0.0) - cpu;
    pass
}

/// Prints `name = value unit (how)` and records the value.
fn report(values: &mut Values, name: &'static str, value: f64, unit: &str, how: &str) {
    println!("{name} = {value:.6} {unit} ({how})");
    values.insert(name, value);
}

/// The end-to-end metrics of an untraced pass, reported with their
/// samples, plus its user-facing costs. A metric that came out zero or
/// non-finite is a failed check.
fn end_to_end(pass: &Pass, checks: &mut Checks) -> Values {
    let mut values = Values::new();
    let setup = stats::median(&pass.setup_s).unwrap_or(0.0);
    report(
        &mut values,
        "setup_s",
        setup,
        "s",
        &format!("median of {} set-ups", pass.setup_s.len()),
    );
    report(
        &mut values,
        "server_ticks_per_s",
        pass.server_ticks_per_s(),
        "1/s",
        &format!(
            "{} server-ticks in {:.3} s timed",
            pass.server_ticks, pass.timed_s
        ),
    );
    let rss = host::peak_rss_mb().unwrap_or(0.0);
    report(&mut values, "peak_rss_mb", rss, "MB", "VmHWM");
    for spec in &END_TO_END {
        let value = values[spec.name];
        checks.check(
            &format!("{} measured a positive value ({value})", spec.name),
            value.is_finite() && value > 0.0,
        );
    }
    values
}

/// Tick latencies and the workload's own costs, from an untraced pass.
fn user_facing(pass: &Pass) -> Values {
    let mut values = Values::new();
    if let Some(p50) = stats::median(&pass.tick_s) {
        let how = format!("median of {} ticks", pass.tick_s.len());
        report(&mut values, "tick_p50_ms", p50 * 1e3, "ms", &how);
    }
    if let Some(tail) = stats::tail(&pass.tick_s) {
        let how = format!(
            "p{:.1} of {} ticks, {} beyond",
            tail.percentile, tail.samples, tail.beyond
        );
        report(&mut values, "tick_tail_ms", tail.value * 1e3, "ms", &how);
    }
    for (&name, &value) in &pass.user {
        let unit = PER_LAYER
            .iter()
            .find(|s| s.name == name)
            .map_or("", |s| s.unit);
        report(&mut values, name, value, unit, "median over the run");
    }
    values
}

/// Per-layer metrics: the traced pass's layer values, the untraced
/// pass's user-facing costs, and the traced run's own overhead.
fn per_layer(untraced: &Pass, traced: &Pass, spans: &Spans) -> Values {
    let mut values = traced.layers.clone();
    values.extend(user_facing(untraced));
    values.insert("proc.cores_busy", traced.cpu_s / traced.wall_s);
    values.insert(
        "trace.overhead",
        untraced.server_ticks_per_s() / traced.server_ticks_per_s() - 1.0,
    );
    values.insert("trace.spans", spans.borrow().span_count() as f64);
    values
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `VMT_THREADS` changes the tick pool through `default_tick_threads`
    // (and so `repro`'s sweep parallelism) and `VMT_BALANCER_LAYOUT`
    // changes the balancer; every run measures the defaults.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("VMT_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: VMT_* variables change the simulator's behaviour",
            set.join(", ")
        );
        return ExitCode::from(2);
    }

    let workload = args.workload;
    let seed = if workload == Workload::Repro {
        0
    } else {
        args.seed
    };
    println!("host: {}", host::describe());
    println!(
        "workload: {} seed={seed} seconds={} trace={}",
        workload.name(),
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let mut run = runner(workload, seed, args.seconds);
    let untraced = measure(&mut run, None, &mut checks);
    let (specs, values) = if args.trace {
        let spans = SpanLog::shared();
        let traced = measure(&mut run, Some(&spans), &mut checks);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{seed}.spans.jsonl", workload.name()));
        match spans.borrow().write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(err) => checks.check(
                &format!("spans written to {}: {err}", path.display()),
                false,
            ),
        }
        let values = per_layer(&untraced, &traced, &spans);
        (&PER_LAYER[..], values)
    } else {
        let values = end_to_end(&untraced, &mut checks);
        // Printed for the reader; the result line carries END_TO_END only.
        user_facing(&untraced);
        (&END_TO_END[..], values)
    };
    for spec in specs {
        if values.get(spec.name).is_some_and(|v| !v.is_finite()) {
            checks.check(&format!("{} is finite", spec.name), false);
        }
    }
    let o = &untraced.outputs;
    println!(
        "outputs: placements={} dropped={} digest={:#018x} peak_cooling_w={:?}",
        o.placements, o.dropped, o.digest, o.peak_cooling_w
    );
    println!("reference: {}", Reference::line(workload.name(), seed, o));
    println!(
        "checks: {} attempted, {} failed (fail_ratio {})",
        checks.attempted(),
        checks.failed(),
        checks.fail_ratio()
    );
    println!(
        "{}",
        result_line(
            checks.failed() == 0,
            checks.attempted(),
            checks.failed(),
            specs,
            &values
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = args(&[
            "--workload",
            "repro",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid command line");
        assert_eq!(parsed.workload, Workload::Repro);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "repro", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }
}
