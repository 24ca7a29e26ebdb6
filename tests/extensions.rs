//! Integration tests for the beyond-the-paper extensions: recorded-trace
//! replay, rack power balance, time-of-use pricing, the adaptive GV
//! controller, and the discretized wax pack inside a server-scale flow.

use vmt::core::{AdaptiveGv, GroupingValue, PolicyKind, VmtConfig};
use vmt::dcsim::{ClusterConfig, PlacementMap, RackLayout, Simulation};
use vmt::tco::TimeOfUseTariff;
use vmt::units::{Hours, Minutes, Seconds};
use vmt::workload::{DiurnalTrace, RecordedTrace, TraceConfig};

/// A snapshot of the synthetic trace, replayed through the simulator,
/// produces nearly the same cooling behavior as the generator itself.
#[test]
fn recorded_trace_replay_matches_synthetic() {
    let synthetic = DiurnalTrace::new(TraceConfig::paper_default());
    let recorded = RecordedTrace::sample_from(&synthetic, Minutes::new(1.0));

    let cluster = ClusterConfig::paper_default(30);
    let a = Simulation::new(
        cluster.clone(),
        synthetic,
        PolicyKind::VmtTa { gv: 22.0 }.build(&cluster),
    )
    .run();
    let b = Simulation::new(
        cluster.clone(),
        recorded,
        PolicyKind::VmtTa { gv: 22.0 }.build(&cluster),
    )
    .run();

    let peak_a = a.peak_cooling().get();
    let peak_b = b.peak_cooling().get();
    assert!(
        (peak_a - peak_b).abs() / peak_a < 0.01,
        "replay peak {peak_b:.0} vs synthetic {peak_a:.0}"
    );
    let melt_a = a.max_stored_energy().to_megajoules();
    let melt_b = b.max_stored_energy().to_megajoules();
    assert!(
        (melt_a - melt_b).abs() < 0.1 * melt_a.max(1.0),
        "replay stored {melt_b:.1} vs synthetic {melt_a:.1}"
    );
}

/// A recorded trace round-trips through CSV and still drives the
/// simulator to the same outcome.
#[test]
fn recorded_trace_csv_round_trip_drives_simulation() {
    let synthetic = DiurnalTrace::new(TraceConfig::paper_default());
    let recorded = RecordedTrace::sample_from(&synthetic, Minutes::new(5.0));
    let reparsed = RecordedTrace::from_csv_str(&recorded.to_csv()).expect("csv round trip");

    let cluster = ClusterConfig::paper_default(10);
    let a = Simulation::new(
        cluster.clone(),
        recorded,
        PolicyKind::RoundRobin.build(&cluster),
    )
    .run();
    let b = Simulation::new(
        cluster.clone(),
        reparsed,
        PolicyKind::RoundRobin.build(&cluster),
    )
    .run();
    let pa = a.electrical.peak().get();
    let pb = b.electrical.peak().get();
    assert!((pa - pb).abs() / pa < 0.005, "{pa} vs {pb}");
}

/// VMT's id-ordered hot group, placed contiguously, overloads some rack
/// feeds; the paper's recommended striping keeps every rack near the
/// mean. Checked on the loaded server state at the hour-20 peak.
#[test]
fn striping_balances_rack_power_under_vmt() {
    let cluster = ClusterConfig::paper_default(60);
    let mut trace = TraceConfig::paper_default();
    trace.horizon = Hours::new(20.0); // stop right at the peak
    let (_, farm) = Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace),
        PolicyKind::VmtTa { gv: 22.0 }.build(&cluster),
    )
    .run_returning_farm();
    let servers = farm.to_servers();

    let layout = RackLayout::paper_default(60);
    let contiguous = layout.power_stats(&servers, PlacementMap::Contiguous);
    let striped = layout.power_stats(&servers, PlacementMap::Striped);
    assert!(
        contiguous.imbalance() > 3.0 * striped.imbalance(),
        "contiguous {:.3} vs striped {:.3}",
        contiguous.imbalance(),
        striped.imbalance()
    );
    assert!(
        striped.imbalance() < 0.05,
        "striped {:.3}",
        striped.imbalance()
    );
}

/// Shifting the cooling peak into off-peak hours saves opex under a
/// time-of-use tariff: VMT's cooling energy costs less than round
/// robin's even though the total heat is (slightly) higher at night.
#[test]
fn vmt_cooling_energy_is_cheaper_under_time_of_use() {
    let cluster = ClusterConfig::paper_default(50);
    let trace = DiurnalTrace::new(TraceConfig::paper_default());
    let rr = Simulation::new(
        cluster.clone(),
        trace.clone(),
        PolicyKind::RoundRobin.build(&cluster),
    )
    .run();
    let ta = Simulation::new(
        cluster.clone(),
        trace,
        PolicyKind::VmtTa { gv: 22.0 }.build(&cluster),
    )
    .run();
    let tariff = TimeOfUseTariff::us_commercial_default();
    let rr_series: Vec<f64> = rr.cooling.samples().iter().map(|w| w.get()).collect();
    let ta_series: Vec<f64> = ta.cooling.samples().iter().map(|w| w.get()).collect();
    let delta = tariff.cost_delta(&ta_series, &rr_series, Seconds::new(60.0), 0.3);
    assert!(
        delta.get() < 0.0,
        "VMT should shift cooling energy off-peak and save: {delta}"
    );
}

/// Free-cooling ambient drift: with the inlet tracking the outdoor day
/// (warmest mid-afternoon), VMT still melts wax at the evening peak and
/// delivers most of its reduction.
#[test]
fn vmt_survives_diurnal_ambient_drift() {
    let mut cluster = ClusterConfig::paper_default(50);
    cluster.inlet = vmt::thermal::InletModel::diurnal_ambient(
        vmt::units::Celsius::new(21.0),
        vmt::units::DegC::new(1.5),
        16.0,
    );
    let trace = DiurnalTrace::new(TraceConfig::paper_default());
    let baseline = Simulation::new(
        cluster.clone(),
        trace.clone(),
        PolicyKind::RoundRobin.build(&cluster),
    )
    .run();
    let vmt_run = Simulation::new(
        cluster.clone(),
        trace,
        PolicyKind::VmtTa { gv: 22.0 }.build(&cluster),
    )
    .run();
    let reduction = vmt_run.compare_peak(&baseline).reduction_percent();
    assert!(
        reduction > 7.0,
        "VMT should keep most of its benefit under ambient drift: {reduction:.1}%"
    );
    assert!(vmt_run.max_melt_fraction() > 0.9);
    // The drift itself is visible: the baseline's average temperature at
    // the 16:00 ambient peak exceeds the same load hour at dawn-side
    // inlets.
    let dawn = baseline.avg_temp[(9.5 * 60.0) as usize];
    let afternoon = baseline.avg_temp[16 * 60];
    assert!(afternoon > dawn, "{afternoon} vs {dawn}");
}

/// The adaptive controller run end-to-end through the simulator: over a
/// four-day trace it must match the fixed optimal GV within a point.
#[test]
fn adaptive_gv_converges_end_to_end() {
    let cluster = ClusterConfig::paper_default(50);
    let mut trace_cfg = TraceConfig::paper_default();
    trace_cfg.horizon = Hours::new(96.0);
    trace_cfg.day_scale = vec![1.0, 0.99, 1.0, 0.99];
    let trace = DiurnalTrace::new(trace_cfg);

    let baseline = Simulation::new(
        cluster.clone(),
        trace.clone(),
        PolicyKind::RoundRobin.build(&cluster),
    )
    .run();
    let fixed = Simulation::new(
        cluster.clone(),
        trace.clone(),
        PolicyKind::vmt_wa(22.0).build(&cluster),
    )
    .run();
    let adaptive = Simulation::new(
        cluster.clone(),
        trace,
        Box::new(AdaptiveGv::new(
            VmtConfig::new(GroupingValue::new(22.0), &cluster),
            (16.0, 30.0),
        )),
    )
    .run();

    let fixed_red = fixed.compare_peak(&baseline).reduction_percent();
    let adaptive_red = adaptive.compare_peak(&baseline).reduction_percent();
    assert!(
        (fixed_red - adaptive_red).abs() < 1.0,
        "adaptive {adaptive_red:.1}% vs fixed-optimal {fixed_red:.1}%"
    );
}
