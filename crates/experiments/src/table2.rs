//! Table II — the empirically derived GV → virtual melting temperature
//! mapping.
//!
//! The paper derives, for its test datacenter, which *physical* melting
//! temperature a passive (round-robin) deployment would need in order to
//! behave like VMT at a given Grouping Value. We operationalize the
//! equivalence on the evaluation's own metric:
//!
//! 1. For each candidate virtual melting temperature `PMT + Δ`
//!    (Δ from +2 to −7 °C, the paper's rows), run a *reference* cluster:
//!    round-robin placement with a hypothetical wax melting at `PMT + Δ`
//!    (physically this would require n-paraffin — that is the point),
//!    and record its peak cooling-load reduction.
//! 2. Sweep VMT-TA over a GV grid with the *real* 35.7 °C wax and record
//!    each GV's reduction.
//! 3. Map each Δ to the GV whose reduction best matches the reference,
//!    constrained to be monotone (the paper's mapping is monotone:
//!    lower virtual melting temperatures require larger GVs).
//!
//! The exact GV values differ from the paper's Table II (they depend on
//! simulator internals the paper does not publish), but the structure
//! reproduces: the mapping is non-linear, flat near Δ=0 and increasingly
//! steep toward low virtual melting temperatures, with virtual
//! temperatures above the physical melt point indistinguishable
//! ("the datacenter no longer melts wax").

use crate::runner::{execute_all, reduction_percent, without_heatmaps, Run};
use vmt_core::PolicyKind;
use vmt_units::Celsius;

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The grouping value equivalent to the virtual melting temperature.
    pub gv: f64,
    /// The virtual melting temperature.
    pub vmt: Celsius,
    /// Offset from the physical melting temperature.
    pub delta_pmt: f64,
    /// Peak reduction of the reference (hypothetical-wax) run.
    pub reference_reduction: f64,
    /// Peak reduction of the matched VMT-TA run.
    pub matched_reduction: f64,
}

/// The physical melting temperature of the deployed wax.
const PMT_C: f64 = 35.7;
/// The paper's Δ rows.
pub const DELTAS: [f64; 10] = [2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0];

/// Derives the mapping on a cluster of `servers` servers, searching the
/// GV grid `gv_lo..=gv_hi` at `gv_step` resolution.
pub fn table2_with_grid(servers: usize, gv_lo: f64, gv_hi: f64, gv_step: f64) -> Vec<Table2Row> {
    assert!(gv_step > 0.0 && gv_hi > gv_lo, "degenerate GV grid");
    let gvs: Vec<f64> = {
        let mut v = Vec::new();
        let mut gv = gv_lo;
        while gv <= gv_hi + 1e-9 {
            v.push(gv);
            gv += gv_step;
        }
        v
    };

    // Assemble every run: baseline, references, GV grid.
    let mut runs = vec![Run::new(servers, PolicyKind::RoundRobin)];
    for &delta in &DELTAS {
        let mut run = Run::new(servers, PolicyKind::RoundRobin);
        let wax = run.cluster.wax.as_mut().expect("paper cluster has wax");
        wax.material = wax
            .material
            .with_melt_temperature(Celsius::new(PMT_C + delta));
        runs.push(run);
    }
    for &gv in &gvs {
        runs.push(Run::new(servers, PolicyKind::VmtTa { gv }));
    }
    let results = execute_all(&runs, without_heatmaps);
    let baseline = &results[0];
    let ref_reductions: Vec<f64> = results[1..=DELTAS.len()]
        .iter()
        .map(|r| reduction_percent(r, baseline))
        .collect();
    let gv_reductions: Vec<f64> = results[1 + DELTAS.len()..]
        .iter()
        .map(|r| reduction_percent(r, baseline))
        .collect();

    // Both response curves are bell-shaped: reductions rise toward an
    // optimum (reference: the ideal physical melt temperature; VMT: the
    // ideal GV) and collapse past it (wax exhausts before the peak /
    // group too cool to melt). The paper's mapping aligns the two bells:
    // virtual melt temperatures on the reference's rising side map to
    // GVs below the optimum, the reference optimum maps to the optimal
    // GV, and over-lowered melt temperatures map to GVs above it. We
    // match by *relative height* (fraction of each curve's own peak), so
    // a reference that peaks higher than VMT's ceiling still maps.
    let ref_peak_pos = argmax(&ref_reductions);
    let gv_peak_pos = argmax(&gv_reductions);
    let ref_peak = ref_reductions[ref_peak_pos].max(1e-9);
    let gv_peak = gv_reductions[gv_peak_pos].max(1e-9);

    let mut rows = Vec::new();
    let mut min_pos = 0usize;
    for (i, (&delta, &target)) in DELTAS.iter().zip(&ref_reductions).enumerate() {
        let target_height = target / ref_peak;
        // Choose the branch of the VMT bell to search.
        let (lo, hi) = if i <= ref_peak_pos {
            (0, gv_peak_pos)
        } else {
            (gv_peak_pos, gv_reductions.len() - 1)
        };
        let (pos, _) = gv_reductions[lo..=hi]
            .iter()
            .enumerate()
            .map(|(k, &r)| (lo + k, r / gv_peak))
            .filter(|&(pos, _)| pos >= min_pos)
            .min_by(|a, b| {
                let da = (a.1 - target_height).abs();
                let db = (b.1 - target_height).abs();
                da.partial_cmp(&db).expect("finite reductions")
            })
            .unwrap_or((min_pos.min(gv_reductions.len() - 1), 0.0));
        min_pos = pos;
        rows.push(Table2Row {
            gv: gvs[pos],
            vmt: Celsius::new(PMT_C + delta),
            delta_pmt: delta,
            reference_reduction: target,
            matched_reduction: gv_reductions[pos],
        });
    }
    rows
}

/// Index of the maximum value.
fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Derives the mapping with the default grid (GV 19.5–32, 0.5 steps).
pub fn table2(servers: usize) -> Vec<Table2Row> {
    table2_with_grid(servers, 19.5, 32.0, 0.5)
}

/// Renders Table II in the paper's layout.
pub fn render(servers: usize) -> String {
    let mut table = crate::report::TextTable::new(vec![
        "GV",
        "VMT (°C)",
        "ΔPMT (°C)",
        "ref. reduction %",
        "matched %",
    ]);
    for row in table2(servers) {
        table.row(vec![
            format!("{:.2}", row.gv),
            format!("{:.1}", row.vmt.get()),
            format!("{:+.1}", row.delta_pmt),
            format!("{:.1}", row.reference_reduction),
            format!("{:.1}", row.matched_reduction),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_monotone_in_gv() {
        let rows = table2_with_grid(25, 20.0, 30.0, 1.0);
        assert_eq!(rows.len(), DELTAS.len());
        for pair in rows.windows(2) {
            assert!(pair[1].gv >= pair[0].gv, "{pair:?}");
            assert!(pair[1].vmt < pair[0].vmt);
        }
    }

    #[test]
    fn raising_the_virtual_melt_point_does_nothing() {
        // Δ=+2 reference wax (37.7 °C) never melts: reduction ≈ 0.
        let rows = table2_with_grid(25, 20.0, 30.0, 1.0);
        let plus_two = rows.iter().find(|r| r.delta_pmt == 2.0).unwrap();
        assert!(plus_two.reference_reduction.abs() < 1.0);
    }

    #[test]
    fn lowered_melt_points_melt_wax_under_round_robin() {
        // Somewhere in the −1..−5 range the hypothetical wax melts under
        // plain round robin and produces a real reduction.
        let rows = table2_with_grid(25, 20.0, 30.0, 1.0);
        let best_ref = rows
            .iter()
            .map(|r| r.reference_reduction)
            .fold(f64::MIN, f64::max);
        assert!(best_ref > 4.0, "no reference melted: best {best_ref}");
    }
}
