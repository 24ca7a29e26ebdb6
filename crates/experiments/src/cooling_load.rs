//! Figures 13 and 16 — cluster cooling load and peak-reduction bars.
//!
//! Each figure pairs a cooling-load time series (TTS baseline vs three
//! GVs) with a bar chart of peak cooling-load reductions for round
//! robin, coolest first, and GV ∈ {20, 22, 24}. The paper's headline —
//! 12.8% at GV=22 for both VMT-TA and VMT-WA while the baselines get
//! ≈0% — comes from these two figures.

use crate::runner::{execute_all, reduction_percent, without_heatmaps, Run};
use vmt_core::PolicyKind;
use vmt_dcsim::SimulationResult;

/// The paper's GV set for these figures.
pub const GVS: [f64; 3] = [20.0, 22.0, 24.0];

/// One labelled cooling-load series.
#[derive(Debug, Clone)]
pub struct LoadSeries {
    /// Display label ("TTS", "GV=22", ...).
    pub label: String,
    /// Cooling load per tick, in watts.
    pub watts: Vec<f64>,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct CoolingLoadFigure {
    /// Whether this is Figure 16 (VMT-WA) rather than Figure 13 (VMT-TA).
    pub wax_aware: bool,
    /// The cooling-load series: TTS (round robin with wax) plus one per
    /// GV.
    pub series: Vec<LoadSeries>,
    /// Peak-reduction bars: (label, percent vs the round-robin peak).
    pub reductions: Vec<(String, f64)>,
    /// The raw results for downstream inspection, in the same order as
    /// the runs: RR, CF, then the GVs. Their heatmaps are empty: each
    /// run's were dropped on the sweep worker that ran it
    /// ([`without_heatmaps`]), so a figure holds its series and
    /// counters, not rows × servers samples per run.
    pub results: Vec<SimulationResult>,
}

impl CoolingLoadFigure {
    /// The reduction bar for a GV.
    pub fn reduction_at_gv(&self, gv: f64) -> f64 {
        self.reductions
            .iter()
            .find(|(label, _)| label == &format!("GV={gv}"))
            .map(|&(_, r)| r)
            .expect("gv present")
    }

    /// The best reduction across the GV bars.
    pub fn best_reduction(&self) -> f64 {
        self.reductions
            .iter()
            .filter(|(label, _)| label.starts_with("GV"))
            .map(|&(_, r)| r)
            .fold(f64::MIN, f64::max)
    }
}

/// Runs Figure 13 (`wax_aware = false`) or Figure 16 (`true`) on
/// `servers` servers.
pub fn cooling_load(wax_aware: bool, servers: usize) -> CoolingLoadFigure {
    let mut runs = vec![
        Run::new(servers, PolicyKind::RoundRobin),
        Run::new(servers, PolicyKind::CoolestFirst),
    ];
    runs.extend(GVS.iter().map(|&gv| {
        let policy = if wax_aware {
            PolicyKind::vmt_wa(gv)
        } else {
            PolicyKind::VmtTa { gv }
        };
        Run::new(servers, policy)
    }));
    let results = execute_all(&runs, without_heatmaps);
    let baseline = &results[0];

    let mut series = vec![LoadSeries {
        // Round robin with wax *is* passive TTS on this cluster.
        label: "TTS".to_owned(),
        watts: baseline.cooling.samples().iter().map(|w| w.get()).collect(),
    }];
    series.extend(GVS.iter().zip(&results[2..]).map(|(&gv, r)| LoadSeries {
        label: format!("GV={gv}"),
        watts: r.cooling.samples().iter().map(|w| w.get()).collect(),
    }));

    let labels = ["Round Robin", "Coolest First", "GV=20", "GV=22", "GV=24"];
    let reductions = labels
        .iter()
        .zip(&results)
        .map(|(label, r)| ((*label).to_owned(), reduction_percent(r, baseline)))
        .collect();

    CoolingLoadFigure {
        wax_aware,
        series,
        reductions,
        results,
    }
}

/// Figure 13: VMT-TA.
pub fn fig13(servers: usize) -> CoolingLoadFigure {
    cooling_load(false, servers)
}

/// Figure 16: VMT-WA.
pub fn fig16(servers: usize) -> CoolingLoadFigure {
    cooling_load(true, servers)
}

/// Renders the time series (2-hour steps) and the reduction bars.
pub fn render(figure: &CoolingLoadFigure) -> String {
    let mut out = format!(
        "Peak cooling load for {} (kW)\nhour   ",
        if figure.wax_aware {
            "VMT-WA (Fig 16)"
        } else {
            "VMT-TA (Fig 13)"
        }
    );
    for s in &figure.series {
        out.push_str(&format!("{:>9}", s.label));
    }
    out.push('\n');
    let hours = figure.series[0].watts.len() / 60;
    for h in (0..hours).step_by(2) {
        out.push_str(&format!("{h:4}   "));
        for s in &figure.series {
            out.push_str(&format!("{:9.1}", s.watts[h * 60] / 1e3));
        }
        out.push('\n');
    }
    // Shape overview: the TTS baseline against the best GV.
    let tts: Vec<f64> = figure.series[0].watts.iter().map(|w| w / 1e3).collect();
    let best: Vec<f64> = figure.series[2].watts.iter().map(|w| w / 1e3).collect();
    out.push_str("\nshape (kW): TTS baseline vs GV=22\n");
    out.push_str(&crate::report::ascii_chart(
        &[("TTS", &tts), ("GV=22", &best)],
        72,
        12,
    ));
    out.push_str("\nPeak cooling load reduction (vs round-robin peak)\n");
    for (label, r) in &figure.reductions {
        // Negated to match the paper's bar labels (−12.8 = 12.8% lower).
        out.push_str(&format!("{label:>14}: {:.1}%\n", -r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SERVERS: usize = 100;

    #[test]
    fn fig13_shape_matches_paper() {
        let f = fig13(TEST_SERVERS);
        // Baselines do nothing.
        assert!(f.reductions[0].1.abs() < 0.5, "RR {:?}", f.reductions[0]);
        assert!(f.reductions[1].1.abs() < 1.5, "CF {:?}", f.reductions[1]);
        // GV=22 is the best and lands near the paper's 12.8%.
        let g22 = f.reduction_at_gv(22.0);
        assert!(g22 > 9.0, "GV=22 {g22}");
        assert!(g22 >= f.reduction_at_gv(24.0), "22 vs 24");
        // GV=20 melts out too early and provides little at the peak.
        assert!(
            f.reduction_at_gv(20.0) < g22 * 0.5,
            "GV=20 {}",
            f.reduction_at_gv(20.0)
        );
    }

    #[test]
    fn fig16_wax_aware_rescues_gv20() {
        let ta = fig13(TEST_SERVERS);
        let wa = fig16(TEST_SERVERS);
        // At the optimum both match.
        assert!((wa.reduction_at_gv(22.0) - ta.reduction_at_gv(22.0)).abs() < 1.5);
        // Below the optimum WA does better than TA.
        assert!(
            wa.reduction_at_gv(20.0) > ta.reduction_at_gv(20.0),
            "WA {} vs TA {}",
            wa.reduction_at_gv(20.0),
            ta.reduction_at_gv(20.0)
        );
    }

    #[test]
    fn series_are_complete() {
        let f = fig13(10);
        assert_eq!(f.series.len(), 4);
        for s in &f.series {
            assert_eq!(s.watts.len(), 48 * 60);
        }
        assert_eq!(f.reductions.len(), 5);
    }
}
