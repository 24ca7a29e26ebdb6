//! Figures 19 and 20 — peak reduction under inlet-temperature variation.
//!
//! Real datacenters have uneven inlet temperatures across servers. The
//! paper draws per-server inlets from a normal distribution with σ of 0,
//! 1, and 2 °C, sweeps the GV from 16 to 28, and averages five runs of
//! 100 servers each. Findings it reports: the optimum GV shifts slightly
//! upward under variation ("better to miss high than miss low"), and
//! even σ=2 still reaches ≈10.9% peak reduction with VMT-WA.

use crate::runner::{execute_all, reduction_percent, without_heatmaps, Run};
use vmt_core::PolicyKind;
use vmt_thermal::InletModel;
use vmt_units::{Celsius, DegC};

/// One (σ, GV) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationPoint {
    /// Inlet standard deviation (°C).
    pub stdev: f64,
    /// The grouping value.
    pub gv: f64,
    /// Mean peak reduction across the seeds (percent).
    pub reduction_percent: f64,
}

/// The sweep for one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationFigure {
    /// Whether this is Figure 20 (VMT-WA) rather than Figure 19 (VMT-TA).
    pub wax_aware: bool,
    /// All (σ, GV) cells.
    pub points: Vec<VariationPoint>,
}

impl VariationFigure {
    /// The reduction at a (σ, GV) cell.
    pub fn at(&self, stdev: f64, gv: f64) -> f64 {
        self.points
            .iter()
            .find(|p| p.stdev == stdev && p.gv == gv)
            .expect("cell exists")
            .reduction_percent
    }

    /// The best (GV, reduction) for a σ.
    pub fn best_for(&self, stdev: f64) -> (f64, f64) {
        self.points
            .iter()
            .filter(|p| p.stdev == stdev)
            .map(|p| (p.gv, p.reduction_percent))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
    }
}

/// Runs the sweep: σ ∈ {0, 1, 2}, the given GVs, `seeds` runs per cell
/// of `servers` servers each.
pub fn inlet_variation(
    wax_aware: bool,
    gvs: &[f64],
    servers: usize,
    seeds: usize,
) -> VariationFigure {
    let stdevs = [0.0, 1.0, 2.0];
    // Build all runs: baselines (one RR per σ per seed) and subjects.
    let mut runs = Vec::new();
    for &stdev in &stdevs {
        for seed in 0..seeds {
            let mut base = Run::new(servers, PolicyKind::RoundRobin);
            base.cluster.inlet = inlet_model(stdev, seed as u64);
            runs.push(base);
            for &gv in gvs {
                let policy = if wax_aware {
                    PolicyKind::vmt_wa(gv)
                } else {
                    PolicyKind::VmtTa { gv }
                };
                let mut run = Run::new(servers, policy);
                run.cluster.inlet = inlet_model(stdev, seed as u64);
                runs.push(run);
            }
        }
    }
    let results = execute_all(&runs, without_heatmaps);

    // Stride through the results mirroring the construction order.
    let per_seed = 1 + gvs.len();
    let mut points = Vec::new();
    for (si, &stdev) in stdevs.iter().enumerate() {
        for (gi, &gv) in gvs.iter().enumerate() {
            let mut total = 0.0;
            for seed in 0..seeds {
                let base = &results[(si * seeds + seed) * per_seed];
                let subject = &results[(si * seeds + seed) * per_seed + 1 + gi];
                total += reduction_percent(subject, base);
            }
            points.push(VariationPoint {
                stdev,
                gv,
                reduction_percent: total / seeds as f64,
            });
        }
    }
    VariationFigure { wax_aware, points }
}

fn inlet_model(stdev: f64, seed: u64) -> InletModel {
    if stdev == 0.0 {
        InletModel::uniform(Celsius::new(22.0))
    } else {
        InletModel::normal(Celsius::new(22.0), DegC::new(stdev), 0xF1A7 + seed)
    }
}

/// Figure 19: VMT-TA, GV 16–28, five seeds of 100 servers.
pub fn fig19(servers: usize, seeds: usize) -> VariationFigure {
    let gvs: Vec<f64> = (8..=14).map(|i| i as f64 * 2.0).collect();
    inlet_variation(false, &gvs, servers, seeds)
}

/// Figure 20: VMT-WA, GV 16–28, five seeds of 100 servers.
pub fn fig20(servers: usize, seeds: usize) -> VariationFigure {
    let gvs: Vec<f64> = (8..=14).map(|i| i as f64 * 2.0).collect();
    inlet_variation(true, &gvs, servers, seeds)
}

/// Renders the sweep.
pub fn render(figure: &VariationFigure) -> String {
    let mut out = format!(
        "{}: peak cooling load reduction (%) with inlet temperature variation\n\
         GV     σ=0     σ=1     σ=2\n",
        if figure.wax_aware {
            "VMT-WA (Fig 20)"
        } else {
            "VMT-TA (Fig 19)"
        }
    );
    let first_stdev = figure.points.first().map(|p| p.stdev).unwrap_or(0.0);
    let gvs: Vec<f64> = figure
        .points
        .iter()
        .filter(|p| p.stdev == first_stdev)
        .map(|p| p.gv)
        .collect();
    for gv in gvs {
        out.push_str(&format!(
            "{:4.0}  {:6.1}  {:6.1}  {:6.1}\n",
            gv,
            figure.at(0.0, gv),
            figure.at(1.0, gv),
            figure.at(2.0, gv)
        ));
    }
    for stdev in [0.0, 1.0, 2.0] {
        let (gv, r) = figure.best_for(stdev);
        out.push_str(&format!("σ={stdev}: best {r:.1}% at GV={gv}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variation_softens_but_does_not_kill_the_benefit() {
        let f = inlet_variation(true, &[20.0, 22.0, 24.0], 100, 2);
        let (_, best0) = f.best_for(0.0);
        let (_, best2) = f.best_for(2.0);
        assert!(best0 > 8.0, "σ=0 best {best0}");
        // σ=2 still delivers a large share of the benefit (the paper
        // keeps 10.9% of 12.8%; our balancer compensates less of the
        // spread, keeping ≈45%).
        assert!(best2 > best0 * 0.4, "σ=2 best {best2} vs σ=0 {best0}");
    }

    #[test]
    fn optimum_does_not_move_down_under_variation() {
        // "The optimal choice of GV increases slightly … better to miss
        // high than miss low."
        let f = inlet_variation(false, &[20.0, 22.0, 24.0], 100, 2);
        let (gv0, _) = f.best_for(0.0);
        let (gv2, _) = f.best_for(2.0);
        assert!(gv2 >= gv0, "optimum moved down: {gv0} → {gv2}");
    }

    #[test]
    fn cell_lookup() {
        let f = inlet_variation(false, &[22.0], 10, 1);
        assert_eq!(f.points.len(), 3);
        let _ = f.at(1.0, 22.0);
    }
}
