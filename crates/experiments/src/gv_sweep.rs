//! Figure 18 — peak cooling-load reduction as the GV sweeps 10–30,
//! VMT-TA vs VMT-WA.
//!
//! The figure behind the paper's robustness argument: both algorithms
//! peak at GV=22 and decline together above it, but *below* the optimum
//! VMT-TA collapses (wax melts out before the peak) while VMT-WA
//! degrades gracefully by extending the hot group.

use crate::runner::{execute_all, reduction_percent, without_heatmaps, Run};
use vmt_core::PolicyKind;

/// One GV's outcome for both algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct GvPoint {
    /// The grouping value.
    pub gv: f64,
    /// VMT-TA peak reduction (percent).
    pub ta_percent: f64,
    /// VMT-WA peak reduction (percent).
    pub wa_percent: f64,
}

/// Runs the sweep over `gvs` on `servers` servers.
pub fn gv_sweep(gvs: &[f64], servers: usize) -> Vec<GvPoint> {
    let mut runs = vec![Run::new(servers, PolicyKind::RoundRobin)];
    for &gv in gvs {
        runs.push(Run::new(servers, PolicyKind::VmtTa { gv }));
        runs.push(Run::new(servers, PolicyKind::vmt_wa(gv)));
    }
    let results = execute_all(&runs, without_heatmaps);
    let baseline = &results[0];
    gvs.iter()
        .enumerate()
        .map(|(i, &gv)| GvPoint {
            gv,
            ta_percent: reduction_percent(&results[1 + 2 * i], baseline),
            wa_percent: reduction_percent(&results[2 + 2 * i], baseline),
        })
        .collect()
}

/// Figure 18's sweep: GV 10–30 in steps of 2.
pub fn fig18(servers: usize) -> Vec<GvPoint> {
    let gvs: Vec<f64> = (5..=15).map(|i| i as f64 * 2.0).collect();
    gv_sweep(&gvs, servers)
}

/// The GV at which an algorithm peaks.
pub fn best_gv(points: &[GvPoint], wax_aware: bool) -> f64 {
    points
        .iter()
        .max_by(|a, b| {
            let (x, y) = if wax_aware {
                (a.wa_percent, b.wa_percent)
            } else {
                (a.ta_percent, b.ta_percent)
            };
            x.partial_cmp(&y).expect("reductions are finite")
        })
        .expect("non-empty sweep")
        .gv
}

/// Renders the sweep.
pub fn render(servers: usize) -> String {
    let points = fig18(servers);
    let mut out = String::from("GV    VMT-TA (%)  VMT-WA (%)\n");
    for p in &points {
        out.push_str(&format!(
            "{:4.0}  {:10.1}  {:10.1}\n",
            p.gv, p.ta_percent, p.wa_percent
        ));
    }
    out.push_str(&format!(
        "best GV: TA={} WA={}\n",
        best_gv(&points, false),
        best_gv(&points, true)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_peak_at_gv22() {
        let points = gv_sweep(&[18.0, 20.0, 22.0, 24.0, 26.0], 100);
        assert_eq!(best_gv(&points, false), 22.0);
        assert_eq!(best_gv(&points, true), 22.0);
    }

    #[test]
    fn wa_is_more_robust_below_the_optimum() {
        let points = gv_sweep(&[18.0, 20.0, 22.0], 100);
        let at = |gv: f64| points.iter().find(|p| p.gv == gv).unwrap();
        // TA collapses hard below the optimum; WA holds on to a
        // meaningful fraction.
        assert!(at(20.0).wa_percent > at(20.0).ta_percent);
        assert!(at(18.0).wa_percent >= at(18.0).ta_percent - 0.5);
        assert!(at(20.0).ta_percent < at(22.0).ta_percent * 0.5);
    }

    #[test]
    fn both_decline_together_above_the_optimum() {
        let points = gv_sweep(&[22.0, 26.0, 30.0], 100);
        let at = |gv: f64| points.iter().find(|p| p.gv == gv).unwrap();
        assert!(at(26.0).ta_percent < at(22.0).ta_percent);
        assert!(at(30.0).ta_percent < at(26.0).ta_percent);
        // TA and WA track each other above the optimum.
        assert!((at(26.0).ta_percent - at(26.0).wa_percent).abs() < 3.0);
    }
}
