//! Serde round-trip tests for the public data structures: a saved
//! configuration or result must reload losslessly (the contract behind
//! storing sweeps and sharing runs).

use vmt::core::PolicyKind;
use vmt::dcsim::{ClusterConfig, Simulation};
use vmt::units::{Celsius, Hours, Minutes, Watts};
use vmt::workload::{DiurnalTrace, RecordedTrace, SecondPeak, TraceConfig, WorkloadMix};

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn cluster_config_round_trips() {
    let mut config = ClusterConfig::paper_default(42);
    config.oracle_wax_state = true;
    config.heatmap_stride = 7;
    let back: ClusterConfig = round_trip(&config);
    assert_eq!(back, config);
    assert_eq!(back.total_cores(), 42 * 32);
}

#[test]
fn cluster_config_round_trips_waxless_with_exponential_durations() {
    // The non-default corners: `wax: None` (Option field) and the
    // exponential duration model (non-default enum variant).
    let mut config = ClusterConfig::without_wax(7);
    config.duration_model = vmt::workload::DurationModel::Exponential;
    config.seed = u64::MAX;
    let back: ClusterConfig = round_trip(&config);
    assert_eq!(back, config);
    assert!(back.wax.is_none());
}

#[test]
fn heatmap_round_trips_exactly() {
    use vmt::dcsim::Heatmap;
    // Awkward float values on purpose: exact round-trip must hold for
    // every cell, including negatives, subnormal-ish magnitudes, and
    // values with no short decimal form.
    let map = Heatmap {
        row_interval: 300.0,
        rows: vec![
            vec![0.1, 35.7, -4.25, 1.0 / 3.0],
            vec![1e-300, 2.0f64.powi(60), 0.0, -0.0],
            vec![],
        ],
    };
    let back: Heatmap = round_trip(&map);
    assert_eq!(back, map);
    for (row, original) in back.rows.iter().zip(&map.rows) {
        for (a, b) in row.iter().zip(original) {
            assert_eq!(a.to_bits(), b.to_bits(), "cell changed: {b} -> {a}");
        }
    }
    assert_eq!(back.max(), map.max());
    // An empty heatmap survives too.
    let empty: Heatmap = round_trip(&Heatmap::default());
    assert!(empty.is_empty());
}

#[test]
fn trace_config_round_trips_with_second_peak() {
    let mut config = TraceConfig::paper_default();
    config.second_peak = Some(SecondPeak {
        hour: 13.0,
        utilization: 0.8,
        width_hours: 2.0,
    });
    config.day_scale = vec![1.0, 0.97, 1.02];
    let back: TraceConfig = round_trip(&config);
    assert_eq!(back, config);
    // The reloaded config drives the generator identically.
    let a = DiurnalTrace::new(config);
    let b = DiurnalTrace::new(back);
    for h in [0.0, 13.0, 20.0, 44.5] {
        assert_eq!(a.envelope(Hours::new(h)), b.envelope(Hours::new(h)));
    }
}

#[test]
fn recorded_trace_round_trips_via_serde_and_csv() {
    let trace = RecordedTrace::from_samples(
        Minutes::new(15.0),
        vec![[0.1, 0.1, 0.05, 0.01, 0.05], [0.2, 0.15, 0.1, 0.02, 0.1]],
    )
    .unwrap();
    let via_serde: RecordedTrace = round_trip(&trace);
    assert_eq!(via_serde, trace);
    let via_csv = RecordedTrace::from_csv_str(&trace.to_csv()).unwrap();
    assert_eq!(via_csv.len(), trace.len());
}

#[test]
fn workload_mix_round_trips() {
    let mix = WorkloadMix::paper_default();
    let back: WorkloadMix = round_trip(&mix);
    assert_eq!(back, mix);
    assert_eq!(back.hot_fraction(), mix.hot_fraction());
}

#[test]
fn units_round_trip_transparently() {
    // Unit newtypes serialize as bare numbers (serde(transparent)).
    assert_eq!(serde_json::to_string(&Watts::new(500.0)).unwrap(), "500.0");
    assert_eq!(serde_json::to_string(&Celsius::new(35.7)).unwrap(), "35.7");
    let w: Watts = serde_json::from_str("123.5").unwrap();
    assert_eq!(w, Watts::new(123.5));
}

#[test]
fn simulation_result_round_trips() {
    let mut trace = TraceConfig::paper_default();
    trace.horizon = Hours::new(2.0);
    let cluster = ClusterConfig::paper_default(4);
    let sched = PolicyKind::VmtTa { gv: 22.0 }.build(&cluster);
    let result = Simulation::new(cluster, DiurnalTrace::new(trace), sched).run();
    let back: vmt::dcsim::SimulationResult = round_trip(&result);
    // Exact equality requires serde_json's `float_roundtrip` feature:
    // its default float parser is up to 1 ulp lossy.
    assert_eq!(back, result);
    assert_eq!(back.scheduler_name, result.scheduler_name);
    assert_eq!(back.cooling, result.cooling);
    assert_eq!(back.electrical, result.electrical);
    assert_eq!(back.avg_temp, result.avg_temp);
    assert_eq!(back.stored_energy, result.stored_energy);
    assert_eq!(back.melt_heatmap, result.melt_heatmap);
    assert_eq!(back.placements, result.placements);
    assert_eq!(back.peak_cooling(), result.peak_cooling());
}

#[test]
fn saved_scheduler_state_round_trips_for_every_policy() {
    use vmt::core::scheduler_from_saved;
    use vmt::dcsim::SavedState;

    let cluster = ClusterConfig::paper_default(10);
    for name in PolicyKind::NAMES {
        let kind = PolicyKind::parse(name, 22.0).expect("advertised name parses");
        let saved = kind.build(&cluster).save_state().expect("policy saves");
        let back: SavedState = round_trip(&saved);
        assert_eq!(back.kind, saved.kind);
        // The reloaded state rebuilds a scheduler whose own save is
        // byte-identical — the full state survived the round trip.
        let rebuilt = scheduler_from_saved(&back).expect("policy rebuilds");
        let resaved = rebuilt.save_state().expect("rebuilt policy saves");
        assert_eq!(
            serde_json::to_string(&resaved).unwrap(),
            serde_json::to_string(&saved).unwrap(),
            "{name} state changed across a serde round trip"
        );
    }
}

#[test]
fn trace_descriptor_round_trips_and_rebuilds() {
    use vmt::workload::{LoadTrace, TraceDescriptor, WorkloadKind};

    let mut config = TraceConfig::paper_default();
    config.horizon = Hours::new(6.0);
    config.seed = 99;
    let trace = DiurnalTrace::new(config);
    let descriptor = trace.descriptor().expect("diurnal traces are describable");
    let back: TraceDescriptor = round_trip(&descriptor);
    assert_eq!(back, descriptor);
    // Rebuilding from the reloaded descriptor drives the generator
    // identically and stays self-describing.
    let rebuilt = back.build();
    assert_eq!(rebuilt.horizon(), LoadTrace::horizon(&trace));
    assert_eq!(rebuilt.descriptor(), Some(back));
    for h in [0.0, 3.5, 5.9] {
        let t = Hours::new(h);
        for kind in WorkloadKind::ALL {
            assert_eq!(
                rebuilt.utilization(kind, t),
                LoadTrace::utilization(&trace, kind, t)
            );
        }
    }
}

#[test]
fn snapshot_round_trips_through_plain_serde() {
    // The container format has its own tests; this pins the `Snapshot`
    // struct itself as a plain serde document — every field, the
    // columnar farm and departure images included, survives JSON.
    use vmt::dcsim::Snapshot;

    let mut trace = TraceConfig::paper_default();
    trace.horizon = Hours::new(2.0);
    let cluster = ClusterConfig::paper_default(4);
    let mut sim = Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace),
        PolicyKind::vmt_wa(22.0).build(&cluster),
    );
    sim.run_until(40);
    let snapshot = sim.snapshot().expect("snapshots");
    let back: Snapshot = round_trip(&snapshot);
    assert_eq!(back.tick, snapshot.tick);
    assert_eq!(back.digest(), snapshot.digest());
    assert_eq!(back.encode(), snapshot.encode());
}
