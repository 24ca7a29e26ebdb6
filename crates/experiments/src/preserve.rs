//! Extension study: raising the virtual melting temperature.
//!
//! Realizes the paper's §III remark that VMT "can also raise the melting
//! temperature … preserving wax in anticipation of a very hot peak". A
//! hot afternoon shoulder precedes the evening peak; plain VMT-TA melts
//! through the shoulder and exhausts its wax before the evening plateau
//! ends, while [`VmtPreserve`] declines to melt until its engage hour
//! and holds the plateau capped to the last minute.
//!
//! [`VmtPreserve`]: vmt_core::VmtPreserve

use crate::runner::Run;
use vmt_core::PolicyKind;
use vmt_workload::SecondPeak;

/// One policy's outcome on the shoulder-before-peak scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PreservePoint {
    /// Policy label.
    pub label: String,
    /// Cluster wax melted (fraction) entering the evening (17 h).
    pub melted_at_evening: f64,
    /// Mean cooling load over the plateau's final hour (kW).
    pub late_plateau_kw: f64,
}

/// Runs the scenario for round robin, plain VMT-TA, and VMT-Preserve.
pub fn preserve(servers: usize) -> Vec<PreservePoint> {
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::VmtTa { gv: 22.0 },
        PolicyKind::Preserve {
            gv: 22.0,
            engage_hour: 16.0,
        },
    ];
    let runs: Vec<Run> = policies
        .iter()
        .map(|&policy| {
            let mut run = Run::new(servers, policy);
            run.trace.second_peak = Some(SecondPeak {
                hour: 14.5,
                utilization: 0.95,
                width_hours: 3.5,
            });
            run
        })
        .collect();
    // Each run keeps only the two numbers read from it: the melt row
    // entering the evening and the plateau's final hour of cooling.
    let outcomes = crate::runner::execute_all(&runs, |r| {
        let evening = &r.melt_heatmap.rows[(17 * 60) / 5];
        let melted = evening.iter().sum::<f64>() / evening.len() as f64;
        let from = (20.5 * 60.0) as usize;
        let to = (21.5 * 60.0) as usize;
        let late = r.cooling.samples()[from..to]
            .iter()
            .map(|w| w.get())
            .sum::<f64>()
            / (to - from) as f64;
        (melted, late / 1e3)
    });
    policies
        .iter()
        .zip(outcomes)
        .map(|(policy, (melted, late_kw))| PreservePoint {
            label: policy.label(),
            melted_at_evening: melted,
            late_plateau_kw: late_kw,
        })
        .collect()
}

/// Renders the scenario.
pub fn render(servers: usize) -> String {
    let mut out = String::from(
        "hot shoulder (0.95 util @ 14.5 h) before the evening peak\n\
         policy                      wax melted @17h   late-plateau cooling\n",
    );
    for p in preserve(servers) {
        out.push_str(&format!(
            "{:27} {:14.1}%   {:10.1} kW\n",
            p.label,
            p.melted_at_evening * 100.0,
            p.late_plateau_kw
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserve_enters_the_evening_with_a_fuller_battery() {
        let points = preserve(40);
        let plain = &points[1];
        let pres = &points[2];
        assert!(pres.melted_at_evening < plain.melted_at_evening * 0.3);
        assert!(pres.late_plateau_kw < plain.late_plateau_kw);
    }
}
