//! Figures 12 and 15 — average hot-group temperature vs GV.
//!
//! Figure 12 (VMT-TA) shows the hot group exceeding the wax melting
//! temperature at low GV while the round-robin average never quite gets
//! there; Figure 15 (VMT-WA) shows the same plus the abrupt temperature
//! drop when the original hot group saturates and the group is extended.

use crate::runner::{execute_all, without_heatmaps, Run};
use vmt_core::PolicyKind;

/// One policy's hot-group temperature series.
#[derive(Debug, Clone, PartialEq)]
pub struct HotGroupSeries {
    /// The grouping value.
    pub gv: f64,
    /// Mean hot-group air temperature per tick (°C).
    pub temps: Vec<f64>,
}

impl HotGroupSeries {
    /// Peak of the series.
    pub fn peak(&self) -> f64 {
        self.temps.iter().copied().fold(f64::MIN, f64::max)
    }

    /// Temperature at an hour offset.
    pub fn at_hour(&self, hour: f64) -> f64 {
        self.temps[(hour * 60.0) as usize]
    }
}

/// The full figure: round-robin average plus one series per GV.
#[derive(Debug, Clone, PartialEq)]
pub struct HotGroupFigure {
    /// Whether this is the TA (Fig 12) or WA (Fig 15) variant.
    pub wax_aware: bool,
    /// Round-robin cluster-average temperature per tick.
    pub round_robin_avg: Vec<f64>,
    /// Hot-group series per GV.
    pub series: Vec<HotGroupSeries>,
    /// The wax melting temperature (the figures' horizontal line).
    pub melt_line: f64,
}

/// Runs the figure for the given GVs on a cluster of `servers` servers.
pub fn hot_group_temps(wax_aware: bool, gvs: &[f64], servers: usize) -> HotGroupFigure {
    let mut runs = vec![Run::new(servers, PolicyKind::RoundRobin)];
    runs.extend(gvs.iter().map(|&gv| {
        let policy = if wax_aware {
            PolicyKind::vmt_wa(gv)
        } else {
            PolicyKind::VmtTa { gv }
        };
        Run::new(servers, policy)
    }));
    let mut results = execute_all(&runs, without_heatmaps);
    let rr = results.remove(0);
    HotGroupFigure {
        wax_aware,
        round_robin_avg: rr.avg_temp.iter().map(|t| t.get()).collect(),
        series: gvs
            .iter()
            .zip(results)
            .map(|(&gv, r)| HotGroupSeries {
                gv,
                temps: r.hot_group_temp.iter().map(|t| t.get()).collect(),
            })
            .collect(),
        melt_line: 35.7,
    }
}

/// Figure 12: VMT-TA at the paper's GV set.
pub fn fig12(servers: usize) -> HotGroupFigure {
    hot_group_temps(false, &[21.0, 22.0, 23.0, 24.0, 25.0, 26.0], servers)
}

/// Figure 15: VMT-WA at the paper's GV set.
pub fn fig15(servers: usize) -> HotGroupFigure {
    hot_group_temps(true, &[20.0, 21.0, 22.0, 24.0, 26.0], servers)
}

/// Renders the figure as hourly rows.
pub fn render(figure: &HotGroupFigure) -> String {
    let mut out = format!(
        "Average hot group temperature ({})\nhour   RR-avg  ",
        if figure.wax_aware { "VMT-WA" } else { "VMT-TA" }
    );
    for s in &figure.series {
        out.push_str(&format!("GV={:<5}", s.gv));
    }
    out.push_str(&format!("(melt {:.1} °C)\n", figure.melt_line));
    let hours = figure.round_robin_avg.len() / 60;
    for h in (0..hours).step_by(2) {
        out.push_str(&format!(
            "{:4}   {:6.1}  ",
            h,
            figure.round_robin_avg[h * 60]
        ));
        for s in &figure.series {
            out.push_str(&format!("{:6.1} ", s.temps[h * 60]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SERVERS: usize = 30;

    #[test]
    fn round_robin_stays_below_melt() {
        let f = hot_group_temps(false, &[22.0], TEST_SERVERS);
        let rr_peak = f.round_robin_avg.iter().copied().fold(f64::MIN, f64::max);
        assert!(rr_peak < f.melt_line, "RR peak {rr_peak}");
        // ... but only just ("almost but does not quite reach").
        assert!(rr_peak > f.melt_line - 1.0, "RR peak {rr_peak} too cold");
    }

    #[test]
    fn hot_group_exceeds_melt_at_low_gv() {
        let f = hot_group_temps(false, &[21.0, 22.0], TEST_SERVERS);
        for s in &f.series {
            assert!(s.peak() > f.melt_line, "GV={} peak {}", s.gv, s.peak());
        }
    }

    #[test]
    fn temperature_is_inversely_related_to_gv() {
        // "The degree to which the hot group temperature exceeds the
        // average is inversely proportional to the GV."
        let f = hot_group_temps(false, &[21.0, 24.0], TEST_SERVERS);
        assert!(f.series[0].peak() > f.series[1].peak());
    }

    #[test]
    fn wax_aware_drops_after_saturation() {
        // Figure 15: at GV=20 the average hot-group temperature drops
        // when the original group saturates and cooler servers join.
        let f = hot_group_temps(true, &[20.0], TEST_SERVERS);
        let s = &f.series[0];
        let peak_window_max = s.at_hour(19.0).max(s.at_hour(20.0));
        let late_peak = s.at_hour(21.5);
        assert!(
            late_peak < peak_window_max,
            "no drop: {late_peak} vs {peak_window_max}"
        );
    }
}
