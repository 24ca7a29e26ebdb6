//! Figure 17 — peak cooling-load reduction vs the VMT-WA wax threshold.
//!
//! The paper sweeps the threshold above which a server counts as "fully
//! melted" from 0.85 to 1.00 (at GV=22, 100 servers) and finds the
//! reduction flat above ≈0.95: the threshold only has to be high enough
//! not to strand usable capacity.

use crate::runner::{execute_all, reduction_percent, without_heatmaps, Run};
use vmt_core::PolicyKind;

/// The paper's threshold sweep points.
pub const THRESHOLDS: [f64; 6] = [0.85, 0.90, 0.95, 0.98, 0.99, 1.00];

/// One threshold's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPoint {
    /// The wax threshold.
    pub threshold: f64,
    /// Peak cooling-load reduction (percent vs round robin).
    pub reduction_percent: f64,
}

/// Runs the sweep at GV=22 on `servers` servers.
pub fn fig17(servers: usize) -> Vec<ThresholdPoint> {
    let mut runs = vec![Run::new(servers, PolicyKind::RoundRobin)];
    runs.extend(THRESHOLDS.iter().map(|&t| {
        Run::new(
            servers,
            PolicyKind::VmtWa {
                gv: 22.0,
                wax_threshold: t,
            },
        )
    }));
    let results = execute_all(&runs, without_heatmaps);
    let baseline = &results[0];
    THRESHOLDS
        .iter()
        .zip(&results[1..])
        .map(|(&threshold, r)| ThresholdPoint {
            threshold,
            reduction_percent: reduction_percent(r, baseline),
        })
        .collect()
}

/// Renders the bar series.
pub fn render(servers: usize) -> String {
    let mut out = String::from("Wax threshold  Peak cooling load reduction (%)\n");
    for p in fig17(servers) {
        out.push_str(&format!(
            "{:13.2}  {:.1}\n",
            p.threshold, p.reduction_percent
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_above_095() {
        let points = fig17(30);
        let at = |t: f64| {
            points
                .iter()
                .find(|p| (p.threshold - t).abs() < 1e-9)
                .unwrap()
                .reduction_percent
        };
        // ≥0.95 all within a point of each other (the paper's plateau).
        let plateau = [at(0.95), at(0.98), at(0.99), at(1.00)];
        let max = plateau.iter().copied().fold(f64::MIN, f64::max);
        let min = plateau.iter().copied().fold(f64::MAX, f64::min);
        assert!(max - min < 2.0, "plateau spread {max}-{min}");
        // 0.85 must not beat the plateau; in the paper it strands wax
        // capacity and loses ≈5 points, in our reproduction the placement
        // balancer limits the damage to ≈0 (see EXPERIMENTS.md).
        assert!(
            at(0.85) <= max + 0.5,
            "0.85 ({}) should not beat the plateau ({max})",
            at(0.85)
        );
    }
}
