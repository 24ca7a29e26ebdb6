//! Extension study: how close does VMT get to the optimum of its
//! storage?
//!
//! Related work stores cooling capacity *sensibly* at the plant (chilled
//! water tanks) rather than *latently* in the servers. A plant-level
//! store of energy `E` and unlimited placement freedom gives the
//! information-theoretic best peak shave: remove heat from exactly the
//! highest-load minutes until the budget is spent (the classic
//! water-filling solution). Comparing VMT's measured reduction against
//! that bound — computed for the *same* stored-energy budget the wax
//! actually charged — shows how much of the storage's potential the
//! placement policy extracts, and how much is lost to VMT's constraints
//! (wax melts only where jobs heat it, absorbs at a finite `UA·ΔT`
//! rate, and sits behind per-server airflow).

use crate::runner::Run;
use vmt_core::PolicyKind;
use vmt_units::{Joules, Seconds, Watts};

/// Result of the bound comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageBound {
    /// The energy the wax actually stored at its daily maximum.
    pub budget: Joules,
    /// VMT-TA's measured peak reduction (percent vs round robin).
    pub measured_percent: f64,
    /// The ideal plant-level store's reduction with the same budget.
    pub ideal_percent: f64,
}

impl StorageBound {
    /// Fraction of the ideal shave the placement policy extracted.
    pub fn efficiency(&self) -> f64 {
        if self.ideal_percent == 0.0 {
            return 1.0;
        }
        self.measured_percent / self.ideal_percent
    }
}

/// The lowest shaved peak achievable on one charge of `budget`: the
/// water-filling level `L` such that `∫ max(0, s−L) dt = budget`.
pub fn ideal_shaved_peak(series: &[f64], dt: Seconds, budget: Joules) -> Watts {
    let peak = series.iter().cloned().fold(0.0, f64::max);
    let mut lo = 0.0;
    let mut hi = peak;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let required: f64 = series.iter().map(|&s| (s - mid).max(0.0) * dt.get()).sum();
        if required > budget.get() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Watts::new(hi)
}

/// The shaved peak over a multi-day series when the store recharges
/// overnight: each 24-hour day gets the full budget, and the binding
/// peak is the worst day's water-filling level.
pub fn ideal_shaved_peak_daily(series: &[f64], dt: Seconds, budget: Joules) -> Watts {
    let per_day = (24.0 * 3600.0 / dt.get()).round() as usize;
    series
        .chunks(per_day.max(1))
        .map(|day| ideal_shaved_peak(day, dt, budget))
        .fold(Watts::ZERO, Watts::max)
}

/// Runs the comparison: measure VMT-TA at GV=22, take the energy its wax
/// actually charged on day one, and compute the ideal shave of the
/// round-robin cooling series with that same budget.
pub fn storage_bound(servers: usize) -> StorageBound {
    let results = crate::runner::execute_all(
        &[
            Run::new(servers, PolicyKind::RoundRobin),
            Run::new(servers, PolicyKind::VmtTa { gv: 22.0 }),
        ],
        crate::runner::without_heatmaps,
    );
    let (rr, ta) = (&results[0], &results[1]);
    let budget = ta.max_stored_energy();
    let rr_series: Vec<f64> = rr.cooling.samples().iter().map(|w| w.get()).collect();
    let ideal_peak = ideal_shaved_peak_daily(&rr_series, rr.tick, budget);
    let rr_peak = rr.peak_cooling();
    StorageBound {
        budget,
        measured_percent: ta.compare_peak(rr).reduction_percent(),
        ideal_percent: (1.0 - ideal_peak / rr_peak) * 100.0,
    }
}

/// Renders the comparison.
pub fn render(servers: usize) -> String {
    let b = storage_bound(servers);
    format!(
        "stored-energy budget (from the VMT run): {:.1} MJ\n\
         ideal plant-level store with that budget: {:.1}% peak reduction\n\
         VMT-TA measured:                          {:.1}% peak reduction\n\
         placement efficiency: {:.0}% of the ideal shave\n",
        b.budget.to_megajoules(),
        b.ideal_percent,
        b.measured_percent,
        b.efficiency() * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_filling_level_is_exact_on_a_rectangle() {
        // A 1-hour 2 kW spike over a 1 kW floor: a 1.8 MJ budget shaves
        // the spike by 0.5 kW.
        let mut series = vec![1000.0; 180];
        for s in series.iter_mut().take(120).skip(60) {
            *s = 2000.0;
        }
        let level = ideal_shaved_peak(&series, Seconds::new(60.0), Joules::new(1.8e6));
        assert!((level.get() - 1500.0).abs() < 1.0, "level {level}");
    }

    #[test]
    fn zero_budget_shaves_nothing() {
        let series = vec![100.0, 200.0, 150.0];
        let level = ideal_shaved_peak(&series, Seconds::new(60.0), Joules::ZERO);
        assert!((level.get() - 200.0).abs() < 0.01);
    }

    #[test]
    fn measured_is_bounded_by_ideal_and_meaningful() {
        let b = storage_bound(50);
        assert!(b.ideal_percent >= b.measured_percent - 0.3, "{b:?}");
        assert!(
            b.efficiency() > 0.3,
            "placement should extract a meaningful share: {b:?}"
        );
    }
}
