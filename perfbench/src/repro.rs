//! `repro`: Figures 13, 16 and 18 through `vmt-experiments` at their
//! default settings, the paper's fixed configuration (no seed).

use crate::checks::{check_outputs, fnv1a, Checks, Outputs};
use crate::references::{REFERENCES, REPRO_BARS};
use crate::spans::{span, Spans};
use crate::{timed, Pass, SETUP_REPS};
use std::time::Instant;
use vmt_core::PolicyKind;
use vmt_dcsim::Simulation;
use vmt_experiments::runner::Run;
use vmt_experiments::{cooling_load, gv_sweep};
use vmt_workload::DiurnalTrace;

/// Cluster size of Figures 13 and 16.
const FIGURE_SERVERS: usize = 1000;
/// Cluster size of the Figure 18 sweep.
const SWEEP_SERVERS: usize = 100;

/// The paper's bars in EXPERIMENTS.md, as peak-cooling reductions (%):
/// Figure 13 (RR, CF, GV 20/22/24) and Figure 16 (GV 20/22/24).
const PAPER_FIG13: [f64; 5] = [0.0, 0.0, 0.0, 12.8, 8.8];
const PAPER_FIG16_GV: [f64; 3] = [7.0, 12.8, 8.9];

/// Every run the three figures build, as `fig13`, `fig16` and `fig18`
/// build them, with its simulation: the set-up `repro` times.
fn figure_inputs() -> Vec<Simulation> {
    let mut runs = Vec::new();
    for wax_aware in [false, true] {
        runs.push(Run::new(FIGURE_SERVERS, PolicyKind::RoundRobin));
        runs.push(Run::new(FIGURE_SERVERS, PolicyKind::CoolestFirst));
        for gv in cooling_load::GVS {
            let policy = if wax_aware {
                PolicyKind::vmt_wa(gv)
            } else {
                PolicyKind::VmtTa { gv }
            };
            runs.push(Run::new(FIGURE_SERVERS, policy));
        }
    }
    runs.push(Run::new(SWEEP_SERVERS, PolicyKind::RoundRobin));
    for gv in (5..=15).map(|i| f64::from(i) * 2.0) {
        runs.push(Run::new(SWEEP_SERVERS, PolicyKind::VmtTa { gv }));
        runs.push(Run::new(SWEEP_SERVERS, PolicyKind::vmt_wa(gv)));
    }
    runs.iter()
        .map(|run| {
            Simulation::new(
                run.cluster.clone(),
                DiurnalTrace::new(run.trace.clone()),
                run.policy.build(&run.cluster),
            )
            .with_threads(run.tick_threads)
        })
        .collect()
}

/// `repro`.
pub fn repro(spans: Option<&Spans>, checks: &mut Checks) -> Pass {
    let mut pass = Pass::default();
    let mut ticks_per_run = 0;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let inputs = span(spans, "bench.setup", figure_inputs);
        pass.setup_s.push(start.elapsed().as_secs_f64());
        ticks_per_run = inputs.first().map_or(0, Simulation::total_ticks);
    }
    let (fig13, fig13_s) = timed(&mut pass, spans, "experiments.fig13", || {
        cooling_load::fig13(FIGURE_SERVERS)
    });
    let (fig16, fig16_s) = timed(&mut pass, spans, "experiments.fig16", || {
        cooling_load::fig16(FIGURE_SERVERS)
    });
    let (fig18, fig18_s) = timed(&mut pass, spans, "experiments.fig18", || {
        gv_sweep::fig18(SWEEP_SERVERS)
    });
    let figure_runs = (fig13.results.len() + fig16.results.len()) as u64;
    let sweep_runs = 1 + 2 * fig18.len() as u64;
    pass.server_ticks =
        ticks_per_run * (figure_runs * FIGURE_SERVERS as u64 + sweep_runs * SWEEP_SERVERS as u64);

    let bars13: Vec<f64> = fig13.reductions.iter().map(|&(_, r)| r).collect();
    let bars16: Vec<f64> = fig16.reductions.iter().map(|&(_, r)| r).collect();
    let bars18: Vec<f64> = fig18
        .iter()
        .flat_map(|p| [p.ta_percent, p.wa_percent])
        .collect();
    let all: Vec<f64> = bars13
        .iter()
        .chain(&bars16)
        .chain(&bars18)
        .copied()
        .collect();
    println!("repro bars: {all:?}");
    let bits = |bars: &[f64]| -> Vec<u64> { bars.iter().map(|b| b.to_bits()).collect() };
    let (want13, rest) = REPRO_BARS.split_at(5);
    let (want16, want18) = rest.split_at(5);
    checks.equal("repro: fig13 bars", bits(&bars13), bits(want13));
    checks.equal("repro: fig16 bars", bits(&bars16), bits(want16));
    checks.equal("repro: fig18 bars", bits(&bars18), bits(want18));

    let results = fig13.results.iter().chain(&fig16.results);
    let mut outputs = Outputs::default();
    for result in results.clone() {
        outputs.placements += result.placements;
        outputs.dropped += result.dropped_jobs;
        outputs.peak_cooling_w = outputs.peak_cooling_w.max(result.peak_cooling().get());
    }
    outputs.digest = fnv1a(
        bits(&bars13)
            .into_iter()
            .chain(bits(&bars16))
            .chain(bits(&bars18))
            .chain(results.map(|r| r.peak_cooling().get().to_bits())),
    );
    check_outputs(checks, "repro", 0, &outputs, REFERENCES);
    pass.outputs = outputs;

    let paper = PAPER_FIG13.iter().chain(&PAPER_FIG16_GV);
    let ours = bars13.iter().chain(&bars16[2..]);
    let errors: Vec<f64> = ours.zip(paper).map(|(o, p)| (o - p).abs()).collect();
    pass.user.insert(
        "paper_error_pp",
        errors.iter().sum::<f64>() / errors.len() as f64,
    );
    pass.layers.insert("experiments.fig13_s", fig13_s);
    pass.layers.insert("experiments.fig16_s", fig16_s);
    pass.layers.insert("experiments.fig18_s", fig18_s);
    pass
}
