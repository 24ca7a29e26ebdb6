//! Figure 7 — server reliability: round robin vs VMT-WA with rotation.
//!
//! The paper scales a 70,000 h @ 30 °C MTBF by 2× per +10 °C, assumes
//! 20% of servers rotate between groups each month (3 months hot, 2
//! cold), and plots 6-month and 3-year cumulative failure for round robin
//! vs VMT-WA. We drive the same model with *measured* temperatures: the
//! time-average cluster temperature from a round-robin run, and the
//! time-average hot/cold group temperatures from a VMT-WA run.

use crate::runner::Run;
use vmt_core::PolicyKind;
use vmt_reliability::{cumulative_failure_curve, FailureCurve, FailureModel, RotationPolicy};
use vmt_units::Celsius;

/// The Figure 7 result: measured temperatures and both failure curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// Time-average server temperature under round robin.
    pub rr_temp: Celsius,
    /// Time-average hot-group temperature under VMT-WA.
    pub hot_temp: Celsius,
    /// Time-average cold-group temperature under VMT-WA.
    pub cold_temp: Celsius,
    /// Round robin cumulative failure, 36 months.
    pub round_robin: FailureCurve,
    /// VMT-WA (rotated) cumulative failure, 36 months.
    pub vmt: FailureCurve,
}

impl Fig7 {
    /// The 3-year failure-probability gap (VMT − round robin).
    pub fn three_year_gap(&self) -> f64 {
        self.vmt.final_probability() - self.round_robin.final_probability()
    }
}

/// Runs the experiment on a cluster of `servers` servers.
pub fn fig7(servers: usize) -> Fig7 {
    let results = crate::runner::execute_all(
        &[
            Run::new(servers, PolicyKind::RoundRobin),
            Run::new(servers, PolicyKind::vmt_wa(22.0)),
        ],
        crate::runner::without_heatmaps,
    );
    let (rr, wa) = (&results[0], &results[1]);

    let rr_temp = mean(rr.avg_temp.iter().map(|t| t.get()));
    let hot_temp = mean(wa.hot_group_temp.iter().map(|t| t.get()));
    // Cold-group mean backed out of the cluster mean and group sizes.
    let cold_temp = mean(
        wa.avg_temp
            .iter()
            .zip(&wa.hot_group_temp)
            .zip(&wa.hot_group_sizes)
            .filter(|&((_, _), &size)| size < servers)
            .map(|((avg, hot), &size)| {
                let n = servers as f64;
                let h = size as f64;
                (avg.get() * n - hot.get() * h) / (n - h)
            }),
    );

    let model = FailureModel::paper_default();
    let rotation = RotationPolicy::paper_default();
    let rr_temp = Celsius::new(rr_temp);
    let hot_temp = Celsius::new(hot_temp);
    let cold_temp = Celsius::new(cold_temp);
    Fig7 {
        rr_temp,
        hot_temp,
        cold_temp,
        round_robin: cumulative_failure_curve(&model, &rotation, rr_temp, rr_temp, 36),
        vmt: cumulative_failure_curve(&model, &rotation, hot_temp, cold_temp, 36),
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    sum / count.max(1) as f64
}

/// Renders both reliability panels.
pub fn render(servers: usize) -> String {
    let f = fig7(servers);
    let mut out = format!(
        "Measured temps: RR {:.1}, hot group {:.1}, cold group {:.1}\n\
         month  RR cum. failure (%)  VMT cum. failure (%)\n",
        f.rr_temp, f.hot_temp, f.cold_temp
    );
    for m in (0..36).step_by(3) {
        out.push_str(&format!(
            "{:5}  {:19.2}  {:20.2}\n",
            m + 1,
            f.round_robin.at_month(m) * 100.0,
            f.vmt.at_month(m) * 100.0
        ));
    }
    out.push_str(&format!(
        "3-year gap (VMT − RR): {:.2} percentage points\n",
        f.three_year_gap() * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_small_and_positive() {
        let f = fig7(20);
        let gap = f.three_year_gap();
        assert!(gap > 0.0, "VMT should wear slightly faster, gap {gap}");
        // Paper: 0.4–0.6%; allow headroom for the small test cluster.
        assert!(gap < 0.015, "gap {gap} too large");
    }

    #[test]
    fn measured_temps_are_ordered() {
        let f = fig7(20);
        assert!(f.hot_temp > f.rr_temp);
        assert!(f.cold_temp < f.rr_temp);
    }

    #[test]
    fn curves_cover_three_years() {
        let f = fig7(10);
        assert_eq!(f.round_robin.months(), 36);
        assert_eq!(f.vmt.months(), 36);
    }
}
