//! Ablation studies for the design choices `DESIGN.md` calls out.
//!
//! The paper fixes several mechanisms without isolating their
//! contributions; these experiments vary one at a time:
//!
//! * [`wa_tuning`] — VMT-WA's saturation-reaction machinery: keep-warm
//!   safety net, saturated-server balancer penalty, count-based growth.
//! * [`oracle_vs_estimator`] — what the on-server wax-state estimator's
//!   quantization error costs versus a physically impossible oracle.
//! * [`taper_sweep`] — sensitivity to the exchanger's phase-interface
//!   taper coefficient.
//! * [`wax_volume_sweep`] — how much of the 4.0 L wax budget the benefit
//!   actually needs.
//! * [`time_constant_sweep`] — sensitivity to the server's thermal lag.
//! * [`duration_model`] — uniform vs exponential job service times.

use crate::runner::{reduction_percent, without_heatmaps};
use vmt_core::{GroupingValue, PolicyKind, VmtConfig, VmtWa, WaTuning};
use vmt_dcsim::{ClusterConfig, Scheduler, Simulation, SimulationResult};
use vmt_units::{Liters, Seconds};
use vmt_workload::{DiurnalTrace, TraceConfig};

/// One ablation row: a labelled peak-cooling reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// What was varied.
    pub label: String,
    /// Peak cooling-load reduction vs round robin (percent).
    pub reduction_percent: f64,
}

/// A paper-trace run, heatmaps dropped: an ablation reads only its
/// peak, and each holds its baseline while the variants run.
fn run_with(cluster: ClusterConfig, scheduler: Box<dyn Scheduler>) -> SimulationResult {
    without_heatmaps(
        Simulation::new(
            cluster,
            DiurnalTrace::new(TraceConfig::paper_default()),
            scheduler,
        )
        .run(),
    )
}

fn baseline(servers: usize) -> SimulationResult {
    let cluster = ClusterConfig::paper_default(servers);
    let sched = PolicyKind::RoundRobin.build(&cluster);
    run_with(cluster, sched)
}

/// VMT-WA reaction-machinery variants at a mis-tuned GV=20, where the
/// saturation reaction matters most.
pub fn wa_tuning(servers: usize) -> Vec<AblationPoint> {
    let base = baseline(servers);
    let variants: [(&str, WaTuning); 4] = [
        ("default (keep-warm only)", WaTuning::default()),
        (
            "no keep-warm",
            WaTuning {
                keep_warm: false,
                ..WaTuning::default()
            },
        ),
        (
            "+ melted penalty 2 K",
            WaTuning {
                melted_penalty_k: 2.0,
                ..WaTuning::default()
            },
        ),
        (
            "+ count growth 2/tick",
            WaTuning {
                count_growth_per_tick: 2,
                ..WaTuning::default()
            },
        ),
    ];
    variants
        .into_iter()
        .map(|(label, tuning)| {
            let cluster = ClusterConfig::paper_default(servers);
            let config = VmtConfig::new(GroupingValue::new(20.0), &cluster);
            let r = run_with(cluster, Box::new(VmtWa::with_tuning(config, tuning)));
            AblationPoint {
                label: label.to_owned(),
                reduction_percent: reduction_percent(&r, &base),
            }
        })
        .collect()
}

/// Estimator-driven VMT-WA versus an oracle that reads the physical wax
/// state, at the optimal GV.
pub fn oracle_vs_estimator(servers: usize) -> Vec<AblationPoint> {
    let base = baseline(servers);
    [
        ("estimator (deployable)", false),
        ("oracle (physical state)", true),
    ]
    .into_iter()
    .map(|(label, oracle)| {
        let mut cluster = ClusterConfig::paper_default(servers);
        cluster.oracle_wax_state = oracle;
        let sched = PolicyKind::vmt_wa(22.0).build(&cluster);
        let r = run_with(cluster, sched);
        AblationPoint {
            label: label.to_owned(),
            reduction_percent: reduction_percent(&r, &base),
        }
    })
    .collect()
}

/// Phase-interface taper coefficient sweep at the optimal GV.
pub fn taper_sweep(servers: usize) -> Vec<AblationPoint> {
    let base = baseline(servers);
    [0.0, 0.5, 1.0, 2.0]
        .into_iter()
        .map(|taper| {
            let mut cluster = ClusterConfig::paper_default(servers);
            cluster
                .wax
                .as_mut()
                .expect("paper cluster has wax")
                .interface_taper = taper;
            let sched = PolicyKind::VmtTa { gv: 22.0 }.build(&cluster);
            let r = run_with(cluster, sched);
            AblationPoint {
                label: format!("taper b={taper}"),
                reduction_percent: reduction_percent(&r, &base),
            }
        })
        .collect()
}

/// Wax volume sweep: is the full 4.0 L budget needed?
pub fn wax_volume_sweep(servers: usize) -> Vec<AblationPoint> {
    let base = baseline(servers);
    [1.0, 2.0, 3.0, 4.0]
        .into_iter()
        .map(|liters| {
            let mut cluster = ClusterConfig::paper_default(servers);
            cluster.wax.as_mut().expect("paper cluster has wax").sizing =
                vmt_pcm::ServerWaxConfig::new(Liters::new(liters), 4)
                    .expect("within chassis limit");
            let sched = PolicyKind::VmtTa { gv: 22.0 }.build(&cluster);
            let r = run_with(cluster, sched);
            AblationPoint {
                label: format!("{liters:.0} L per server"),
                reduction_percent: reduction_percent(&r, &base),
            }
        })
        .collect()
}

/// Job-duration distribution: does the heavier exponential tail change
/// the headline?
pub fn duration_model(servers: usize) -> Vec<AblationPoint> {
    use vmt_workload::DurationModel;
    [
        ("uniform ±25% (default)", DurationModel::default()),
        ("exponential service times", DurationModel::Exponential),
    ]
    .into_iter()
    .map(|(label, model)| {
        let mut base_cluster = ClusterConfig::paper_default(servers);
        base_cluster.duration_model = model;
        let base = run_with(
            base_cluster.clone(),
            PolicyKind::RoundRobin.build(&base_cluster),
        );
        let sched = PolicyKind::VmtTa { gv: 22.0 }.build(&base_cluster);
        let r = run_with(base_cluster, sched);
        AblationPoint {
            label: label.to_owned(),
            reduction_percent: reduction_percent(&r, &base),
        }
    })
    .collect()
}

/// Server thermal-lag sweep at the optimal GV.
pub fn time_constant_sweep(servers: usize) -> Vec<AblationPoint> {
    let base = baseline(servers);
    [60.0, 300.0, 900.0]
        .into_iter()
        .map(|tau| {
            let mut cluster = ClusterConfig::paper_default(servers);
            cluster.thermal_time_constant = Seconds::new(tau);
            let sched = PolicyKind::VmtTa { gv: 22.0 }.build(&cluster);
            let r = run_with(cluster, sched);
            AblationPoint {
                label: format!("τ = {tau:.0} s"),
                reduction_percent: reduction_percent(&r, &base),
            }
        })
        .collect()
}

/// Renders every ablation.
pub fn render(servers: usize) -> String {
    let mut out = String::new();
    let sections: [(&str, Vec<AblationPoint>); 6] = [
        ("VMT-WA saturation reaction (GV=20)", wa_tuning(servers)),
        (
            "wax-state source (VMT-WA, GV=22)",
            oracle_vs_estimator(servers),
        ),
        (
            "exchanger interface taper (VMT-TA, GV=22)",
            taper_sweep(servers),
        ),
        ("wax volume (VMT-TA, GV=22)", wax_volume_sweep(servers)),
        (
            "server thermal lag (VMT-TA, GV=22)",
            time_constant_sweep(servers),
        ),
        (
            "job-duration distribution (VMT-TA, GV=22)",
            duration_model(servers),
        ),
    ];
    for (title, points) in sections {
        out.push_str(&format!("{title}\n"));
        for p in points {
            out.push_str(&format!("  {:28} {:5.1}%\n", p.label, p.reduction_percent));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SERVERS: usize = 50;

    #[test]
    fn estimator_is_close_to_oracle() {
        let points = oracle_vs_estimator(TEST_SERVERS);
        let est = points[0].reduction_percent;
        let oracle = points[1].reduction_percent;
        assert!(
            (est - oracle).abs() < 2.0,
            "estimator {est:.1}% vs oracle {oracle:.1}%"
        );
    }

    #[test]
    fn more_wax_does_not_hurt() {
        let points = wax_volume_sweep(TEST_SERVERS);
        let one = points[0].reduction_percent;
        let four = points[3].reduction_percent;
        assert!(four >= one - 0.5, "4 L {four:.1}% vs 1 L {one:.1}%");
    }

    #[test]
    fn headline_survives_exponential_durations() {
        let points = duration_model(TEST_SERVERS);
        let uniform = points[0].reduction_percent;
        let exponential = points[1].reduction_percent;
        assert!(
            (uniform - exponential).abs() < 3.0,
            "uniform {uniform:.1}% vs exponential {exponential:.1}%"
        );
        assert!(exponential > 8.0, "exponential {exponential:.1}%");
    }

    #[test]
    fn tuning_variants_all_run() {
        let points = wa_tuning(TEST_SERVERS);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.reduction_percent.is_finite());
        }
    }
}
