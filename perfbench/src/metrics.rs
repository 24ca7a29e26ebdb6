//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// A metric's name and unit, as BENCHMARK.json lists them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [Spec; 3] = [
    spec("setup_s", "s"),
    spec("server_ticks_per_s", "1/s"),
    spec("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; 0 where the workload
/// does not call the layer (or, on `repro`, cannot reach it).
pub const PER_LAYER: [Spec; 41] = [
    // Workload-specific user-facing costs.
    spec("tick_p50_ms", "ms"),
    spec("tick_tail_ms", "ms"),
    spec("checkpoint_s", "s"),
    spec("restore_s", "s"),
    spec("snapshot_mb", "MB"),
    spec("export_s", "s"),
    spec("paper_error_pp", "pp"),
    // Policies and the tournament balancer (vmt-core).
    spec("core.place_batch_s", "s"),
    spec("core.ns_per_placement", "ns"),
    spec("core.on_tick_s", "s"),
    spec("core.spill_ratio", "ratio"),
    spec("core.hot_group_growth", "count"),
    // Engine job flow (vmt-dcsim engine, farm).
    spec("dcsim.arrivals_s", "s"),
    spec("dcsim.departures_s", "s"),
    spec("dcsim.ns_per_departure", "ns"),
    spec("dcsim.first_tick_s", "s"),
    spec("farm.bytes_per_server", "B"),
    // Physics and zones.
    spec("dcsim.physics_s", "s"),
    spec("dcsim.ns_per_server_step", "ns"),
    spec("dcsim.record_s", "s"),
    // Tick pool.
    spec("dcsim.pool_busy_s", "s"),
    spec("dcsim.pool_idle_s", "s"),
    // Snapshot layer.
    spec("snapshot.capture_s", "s"),
    spec("snapshot.encode_s", "s"),
    spec("snapshot.decode_s", "s"),
    spec("snapshot.restore_s", "s"),
    // Telemetry.
    spec("telemetry.render_trace_s", "s"),
    spec("telemetry.validate_trace_s", "s"),
    spec("telemetry.parse_openmetrics_s", "s"),
    spec("telemetry.validate_stream_s", "s"),
    spec("telemetry.trace_records", "count"),
    spec("telemetry.trace_dropped", "count"),
    spec("telemetry.stream_events", "count"),
    spec("telemetry.in_run_overhead", "ratio"),
    // Experiment runner.
    spec("experiments.fig13_s", "s"),
    spec("experiments.fig16_s", "s"),
    spec("experiments.fig18_s", "s"),
    // Process.
    spec("proc.cores_busy", "ratio"),
    spec("dcsim.finish_s", "s"),
    // The traced run's own cost.
    spec("trace.overhead", "ratio"),
    spec("trace.spans", "count"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The last line of a run: the result object the benchmark contract
/// defines. Metrics are printed in `specs` order; a metric the run did
/// not measure prints as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let value = values.get(s.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name,
                json_number(value),
                s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// `value` as a JSON number with all its digits (non-finite prints 0;
/// callers count it as a failed check first).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark contract's name rule: a letter or digit first, then
    /// at most 64 letters, digits, `_`, `.` and `-` in all.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_use_only_letters_digits_underscore_dot_and_dash() {
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .chain(crate::Workload::ALL.iter().map(|w| w.name()));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(valid_name(name), "invalid name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        assert!(!valid_name("tick p50"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("µs"));
    }

    #[derive(serde::Deserialize)]
    struct Listed {
        name: String,
    }

    #[derive(serde::Deserialize)]
    struct ListedMetric {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Benchmark {
        workloads: Vec<Listed>,
        end_to_end: Vec<ListedMetric>,
        per_layer: Vec<ListedMetric>,
    }

    #[test]
    fn specs_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let listed: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |metrics: &[ListedMetric]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let ours = |specs: &[Spec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|s| (s.name.to_owned(), s.unit.to_owned()))
                .collect()
        };
        assert_eq!(pairs(&listed.end_to_end), ours(&END_TO_END));
        assert_eq!(pairs(&listed.per_layer), ours(&PER_LAYER));
        let workloads: Vec<&str> = listed.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut values = Values::new();
        values.insert("setup_s", 0.125);
        let line = result_line(true, 4, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    }
}
