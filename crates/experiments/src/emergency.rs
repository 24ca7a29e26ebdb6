//! Extension study: PCM as an emergency-cooling buffer.
//!
//! Related work the paper cites (\[53\], Islam et al., HPCA 2016)
//! proposes PCM for *power emergencies*. This study asks the thermal
//! version of that question in our substrate: if the cooling plant
//! degrades during the peak — a failed chiller, a water-supply limit —
//! how much heat arrives that the degraded plant cannot remove, and how
//! much of that exposure does VMT's wax absorb?
//!
//! The metric is **thermal exposure**: `∫ max(0, rejected(t) − cap) dt`
//! over the outage window, the energy that must go into room-air
//! temperature rise (and eventually thermal throttling).

use crate::runner::Run;
use vmt_core::PolicyKind;
use vmt_thermal::RoomModel;
use vmt_units::{Hours, Joules, Seconds, Watts};

/// An emergency scenario: the plant's removable power is capped during a
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Start of the outage.
    pub start: Hours,
    /// End of the outage.
    pub end: Hours,
    /// Fraction of the healthy peak the degraded plant can still remove.
    pub capacity_fraction: f64,
}

impl Outage {
    /// The paper-style worst case: a 90-minute degradation to 85%
    /// capacity, starting right at the load peak.
    pub fn at_peak() -> Self {
        Self {
            start: Hours::new(19.0),
            end: Hours::new(20.5),
            capacity_fraction: 0.85,
        }
    }
}

/// One policy's exposure under the outage.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposurePoint {
    /// Policy label.
    pub label: String,
    /// Unremovable heat over the outage window.
    pub exposure: Joules,
    /// Peak room-temperature excursion above the setpoint (°C), from
    /// driving the cooling series through a [`RoomModel`] with the
    /// degraded capacity during the outage window.
    pub peak_excursion_c: f64,
}

/// Thermal exposure of a cooling series under an outage, where the cap
/// is `capacity_fraction` of the series' own healthy peak.
pub fn exposure(series: &[f64], dt: Seconds, outage: Outage, healthy_peak: Watts) -> Joules {
    let cap = healthy_peak.get() * outage.capacity_fraction;
    let from = (outage.start.to_seconds().get() / dt.get()) as usize;
    let to = ((outage.end.to_seconds().get() / dt.get()) as usize).min(series.len());
    let mut total = 0.0;
    for &w in &series[from..to] {
        total += (w - cap).max(0.0) * dt.get();
    }
    Joules::new(total)
}

/// Runs the outage scenario for round robin and both VMT algorithms.
pub fn emergency(servers: usize, outage: Outage) -> Vec<ExposurePoint> {
    let runs = [
        Run::new(servers, PolicyKind::RoundRobin),
        Run::new(servers, PolicyKind::VmtTa { gv: 22.0 }),
        Run::new(servers, PolicyKind::vmt_wa(22.0)),
    ];
    let results = crate::runner::execute_all(&runs, crate::runner::without_heatmaps);
    // The cap is defined by the *baseline* plant sizing: what a
    // non-VMT datacenter would have installed.
    let healthy_peak = results[0].peak_cooling();
    results
        .iter()
        .map(|r| {
            let series: Vec<f64> = r.cooling.samples().iter().map(|w| w.get()).collect();
            ExposurePoint {
                label: r.scheduler_name.clone(),
                exposure: exposure(&series, r.tick, outage, healthy_peak),
                peak_excursion_c: peak_excursion(&series, r.tick, outage, healthy_peak),
            }
        })
        .collect()
}

/// Peak room-temperature excursion when the cooling series is served by
/// a plant that derates to the outage capacity during the window.
pub fn peak_excursion(series: &[f64], dt: Seconds, outage: Outage, healthy_peak: Watts) -> f64 {
    let mut room = RoomModel::paper_default(healthy_peak);
    let mut peak = 0.0f64;
    for (i, &w) in series.iter().enumerate() {
        let hour = i as f64 * dt.get() / 3600.0;
        let degraded = hour >= outage.start.get() && hour < outage.end.get();
        room.set_capacity(if degraded {
            healthy_peak * outage.capacity_fraction
        } else {
            healthy_peak
        });
        room.step(Watts::new(w), dt);
        peak = peak.max(room.excursion().get());
    }
    peak
}

/// Renders the scenario.
pub fn render(servers: usize) -> String {
    let outage = Outage::at_peak();
    let points = emergency(servers, outage);
    let mut out = format!(
        "cooling degraded to {:.0}% of the healthy peak, {:.1}–{:.1} h\n",
        outage.capacity_fraction * 100.0,
        outage.start.get(),
        outage.end.get()
    );
    let baseline = points[0].exposure;
    for p in &points {
        let saved = if baseline.get() > 0.0 {
            (1.0 - p.exposure / baseline) * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:14} unremovable heat {:8.1} MJ   room excursion {:4.1} K   ({:5.1}% less heat than round robin)\n",
            p.label,
            p.exposure.to_megajoules(),
            p.peak_excursion_c,
            saved
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmt_reduces_thermal_exposure() {
        let points = emergency(50, Outage::at_peak());
        let rr = &points[0];
        let ta = &points[1];
        assert!(
            rr.exposure.get() > 0.0,
            "the outage should bite the baseline"
        );
        assert!(
            ta.exposure.get() < rr.exposure.get() * 0.5,
            "VMT should absorb most of the exposure: {ta:?} vs {rr:?}"
        );
        assert!(
            ta.peak_excursion_c < rr.peak_excursion_c,
            "VMT should keep the room cooler: {ta:?} vs {rr:?}"
        );
    }

    #[test]
    fn exposure_arithmetic() {
        // 2 kW over a 1 kW cap for one hour of a two-hour window.
        let outage = Outage {
            start: Hours::new(0.0),
            end: Hours::new(2.0),
            capacity_fraction: 0.5,
        };
        let series = vec![2000.0; 60];
        let e = exposure(&series, Seconds::new(60.0), outage, Watts::new(2000.0));
        assert!((e.get() - 1000.0 * 3600.0).abs() < 1e-6);
    }

    #[test]
    fn no_exposure_below_cap() {
        let outage = Outage {
            start: Hours::new(0.0),
            end: Hours::new(1.0),
            capacity_fraction: 1.0,
        };
        let series = vec![500.0; 60];
        let e = exposure(&series, Seconds::new(60.0), outage, Watts::new(1000.0));
        assert_eq!(e.get(), 0.0);
    }
}
