//! End-to-end reproduction checks: the paper's headline qualitative
//! results, asserted on full two-day cluster simulations.
//!
//! These tests run the same experiment drivers as the `vmt-experiments`
//! CLI, at the paper's 100-server sweep size, and assert the *shape* of
//! each result (who wins, by roughly what factor, where crossovers
//! fall). `EXPERIMENTS.md` records the exact numbers.

use vmt::core::PolicyKind;
use vmt::dcsim::{ClusterConfig, ServerFarm, Simulation};
use vmt::experiments::runner::{execute_all, Run};
use vmt::workload::{DiurnalTrace, TraceConfig};

const SERVERS: usize = 100;

fn run(policy: PolicyKind) -> vmt::dcsim::SimulationResult {
    Run::new(SERVERS, policy).execute()
}

/// §V headline: VMT reduces the peak cooling load by ≈12.8% at GV=22
/// while round robin and coolest first achieve ≈0%.
#[test]
fn headline_peak_cooling_reduction() {
    let results = execute_all(&[
        Run::new(SERVERS, PolicyKind::RoundRobin),
        Run::new(SERVERS, PolicyKind::CoolestFirst),
        Run::new(SERVERS, PolicyKind::VmtTa { gv: 22.0 }),
        Run::new(SERVERS, PolicyKind::vmt_wa(22.0)),
    ]);
    let rr = &results[0];
    let cf = results[1].compare_peak(rr).reduction_percent();
    let ta = results[2].compare_peak(rr).reduction_percent();
    let wa = results[3].compare_peak(rr).reduction_percent();
    assert!(cf.abs() < 1.0, "coolest first should be ≈0%, got {cf:.1}%");
    assert!(
        (11.0..=14.0).contains(&ta),
        "VMT-TA at GV=22 should be ≈12.8%, got {ta:.1}%"
    );
    assert!(
        (wa - ta).abs() < 1.0,
        "VMT-WA should match VMT-TA at the optimum: {wa:.1}% vs {ta:.1}%"
    );
}

/// Figures 9/10: neither baseline melts significant wax, and coolest
/// first holds a tighter temperature distribution than round robin.
#[test]
fn baselines_do_not_melt_wax() {
    let results = execute_all(&[
        Run::new(SERVERS, PolicyKind::RoundRobin),
        Run::new(SERVERS, PolicyKind::CoolestFirst),
    ]);
    for r in &results {
        let melted_share = r.max_stored_energy().get() / (SERVERS as f64 * 786_480.0); // per-server latent capacity
        assert!(
            melted_share < 0.05,
            "{} stored {:.1}% of cluster capacity",
            r.scheduler_name,
            melted_share * 100.0
        );
    }
    // Temperature spread: coolest first < round robin at every sampled
    // tick's widest point.
    let spread = |r: &vmt::dcsim::SimulationResult| {
        r.temp_heatmap
            .rows
            .iter()
            .map(|row| {
                row.iter().cloned().fold(f64::MIN, f64::max)
                    - row.iter().cloned().fold(f64::MAX, f64::min)
            })
            .fold(0.0, f64::max)
    };
    assert!(spread(&results[1]) < spread(&results[0]));
}

/// Figure 11: VMT-TA melts wax in the hot group and only there.
#[test]
fn vmt_melts_only_the_hot_group() {
    let r = run(PolicyKind::VmtTa { gv: 22.0 });
    let hot = r.hot_group_sizes[0];
    let peak_row = r
        .melt_heatmap
        .rows
        .iter()
        .max_by(|a, b| {
            let (sa, sb) = (a.iter().sum::<f64>(), b.iter().sum::<f64>());
            sa.partial_cmp(&sb).expect("finite")
        })
        .expect("rows exist");
    let hot_melt = peak_row[..hot].iter().sum::<f64>() / hot as f64;
    let cold_melt = peak_row[hot..].iter().sum::<f64>() / (SERVERS - hot) as f64;
    assert!(hot_melt > 0.9, "hot group melt {hot_melt:.2}");
    assert!(cold_melt < 0.05, "cold group melt {cold_melt:.2}");
}

/// Figure 18's crossover structure: GV=22 is the optimum for both
/// algorithms; TA collapses below it while WA degrades gracefully; both
/// decline together above it.
#[test]
fn gv_sweep_shape() {
    let points = vmt::experiments::gv_sweep::gv_sweep(&[18.0, 20.0, 22.0, 26.0], SERVERS);
    let at = |gv: f64| points.iter().find(|p| p.gv == gv).expect("gv present");
    assert!(at(22.0).ta_percent > at(20.0).ta_percent * 3.0);
    assert!(at(22.0).ta_percent > at(26.0).ta_percent);
    assert!(at(20.0).wa_percent > at(20.0).ta_percent);
    assert!(at(18.0).wa_percent > at(18.0).ta_percent);
    assert!((at(26.0).wa_percent - at(26.0).ta_percent).abs() < 1.0);
}

/// The simulation is bitwise deterministic for a fixed seed and differs
/// when the seed changes.
#[test]
fn determinism_and_seed_sensitivity() {
    let a = run(PolicyKind::VmtTa { gv: 22.0 });
    let b = run(PolicyKind::VmtTa { gv: 22.0 });
    assert_eq!(a.cooling, b.cooling);
    assert_eq!(a.placements, b.placements);

    let cluster = {
        let mut c = ClusterConfig::paper_default(SERVERS);
        c.seed ^= 1;
        c
    };
    let sched = PolicyKind::VmtTa { gv: 22.0 }.build(&cluster);
    let c = Simulation::new(
        cluster,
        DiurnalTrace::new(TraceConfig::paper_default()),
        sched,
    )
    .run();
    assert_ne!(a.cooling, c.cooling, "different seed should change the run");
}

/// No jobs are dropped at the paper's load levels under any policy —
/// the paper's schedulers "only fail … where a thermally unconstrained
/// datacenter would also run out of computational space".
#[test]
fn no_drops_under_any_policy() {
    let results = execute_all(&[
        Run::new(SERVERS, PolicyKind::RoundRobin),
        Run::new(SERVERS, PolicyKind::CoolestFirst),
        Run::new(SERVERS, PolicyKind::VmtTa { gv: 22.0 }),
        Run::new(SERVERS, PolicyKind::vmt_wa(20.0)),
    ]);
    for r in &results {
        assert_eq!(r.dropped_jobs, 0, "{} dropped jobs", r.scheduler_name);
        assert!(r.placements > 100_000, "{} placements", r.scheduler_name);
    }
}

/// First law at the cluster level, closed to rounding: heat rejected =
/// electrical energy − the change in the farm's total wax enthalpy
/// (latent and sensible), for a baseline and both VMT variants.
#[test]
fn energy_conservation_over_the_run() {
    let enthalpy = |farm: &ServerFarm| farm.state().enthalpy_j.iter().sum::<f64>();
    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::VmtTa { gv: 22.0 },
        PolicyKind::vmt_wa(20.0),
    ] {
        let run = Run::new(SERVERS, policy);
        let before = enthalpy(&ServerFarm::from_config(&run.cluster));
        let (r, farm) = Simulation::new(
            run.cluster.clone(),
            DiurnalTrace::new(run.trace.clone()),
            run.policy.build(&run.cluster),
        )
        .with_threads(run.tick_threads)
        .run_returning_farm();
        let rejected = r.cooling.total_heat().get();
        let electrical = r.electrical.total_heat().get();
        let stored = enthalpy(&farm) - before;
        let residual = (electrical - rejected - stored) / electrical;
        assert!(
            residual.abs() < 1e-12,
            "{}: energy residual {residual:e}",
            r.scheduler_name
        );
    }
}

/// §V-E: the measured reduction converts into the paper's TCO headlines.
#[test]
fn tco_pipeline() {
    let (reduction, summary) = vmt::experiments::tco_summary::measured(SERVERS);
    assert!(reduction > 0.10, "measured reduction {reduction:.3}");
    let best = &summary.scenarios[0];
    assert!(
        best.cooling_savings.get() > 2.0e6,
        "{}",
        best.cooling_savings
    );
    assert!(best.additional_servers > 5_000);
    assert!(summary.n_paraffin_cost.get() / summary.commercial_wax_cost.get() > 70.0);
}
