//! Extension study: does VMT's deliberate load concentration violate
//! QoS?
//!
//! The paper's §IV-C measures that Web Search and Data Caching *can*
//! colocate (Figure 6) and argues contention-mitigation handles the
//! rest. This study closes the loop inside the simulator: take the
//! actual per-server job composition each policy produces at the load
//! peak, scale each server's latency-critical mix onto Figure 6's
//! six-core testbed, and evaluate the colocation latency model on the
//! worst server.
//!
//! The expected (and observed) structural effect: VMT *separates* the
//! two latency-critical workloads — WebSearch is hot-classified, Data
//! Caching cold — so their colocation ratio drops relative to round
//! robin, and the worst-case interference latency cannot get worse.

use crate::runner::Run;
use vmt_core::PolicyKind;
use vmt_dcsim::Server;
use vmt_units::Hours;
use vmt_workload::qos::{caching_latency, search_latency, Colocation};
use vmt_workload::{DiurnalTrace, WorkloadKind};

/// Per-core load levels at which Figure 6 evaluated colocation (the
/// paper's fixed test points).
const CACHING_RPS_PER_CORE: f64 = 45_000.0;
const SEARCH_CLIENTS_PER_CORE: f64 = 37.5;

/// One policy's worst-case latency exposure at the peak.
#[derive(Debug, Clone, PartialEq)]
pub struct QosPoint {
    /// Policy label.
    pub label: String,
    /// Fraction of latency-critical cores that are colocated with the
    /// other latency-critical workload on the same server.
    pub colocation_fraction: f64,
    /// Worst-server caching p90 latency (seconds).
    pub worst_caching_p90: f64,
    /// Worst-server search p90 latency (seconds).
    pub worst_search_p90: f64,
}

/// Scales a server's latency-critical mix onto Figure 6's 6-core box.
fn scaled_allocation(search: u32, caching: u32) -> Option<Colocation> {
    let total = search + caching;
    if total == 0 {
        return None;
    }
    let search_cores = (6.0 * f64::from(search) / f64::from(total)).round() as u32;
    Some(Colocation {
        search_cores: search_cores.min(6),
        caching_cores: 6 - search_cores.min(6),
    })
}

/// Evaluates one policy's peak-time placements.
pub fn evaluate(label: &str, servers: &[Server]) -> QosPoint {
    let mut colocated = 0u32;
    let mut lc_total = 0u32;
    let mut worst_caching: f64 = 0.0;
    let mut worst_search: f64 = 0.0;
    for server in servers {
        let counts = server.kind_counts();
        let search = counts[WorkloadKind::WebSearch.index()];
        let caching = counts[WorkloadKind::DataCaching.index()];
        lc_total += search + caching;
        if search > 0 && caching > 0 {
            colocated += search + caching;
        }
        if let Some(alloc) = scaled_allocation(search, caching) {
            if alloc.caching_cores > 0 {
                worst_caching =
                    worst_caching.max(caching_latency(CACHING_RPS_PER_CORE, alloc).p90.get());
            }
            if alloc.search_cores > 0 {
                worst_search =
                    worst_search.max(search_latency(SEARCH_CLIENTS_PER_CORE, alloc).p90.get());
            }
        }
    }
    QosPoint {
        label: label.to_owned(),
        colocation_fraction: if lc_total == 0 {
            0.0
        } else {
            f64::from(colocated) / f64::from(lc_total)
        },
        worst_caching_p90: worst_caching,
        worst_search_p90: worst_search,
    }
}

/// Runs round robin and VMT-TA to the hour-20 peak and evaluates both.
pub fn qos_check(servers: usize) -> Vec<QosPoint> {
    [PolicyKind::RoundRobin, PolicyKind::VmtTa { gv: 22.0 }]
        .into_iter()
        .map(|policy| {
            let mut run = Run::new(servers, policy);
            run.trace.horizon = Hours::new(20.0);
            let cluster = run.cluster.clone();
            let scheduler = policy.build(&cluster);
            let (_, final_farm) = vmt_dcsim::Simulation::new(
                cluster,
                DiurnalTrace::new(run.trace.clone()),
                scheduler,
            )
            .run_returning_farm();
            evaluate(&policy.label(), &final_farm.to_servers())
        })
        .collect()
}

/// Renders the check.
pub fn render(servers: usize) -> String {
    let mut out = String::from(
        "QoS at the load peak (worst server, scaled to Figure 6's testbed)\n\
         policy          colocated LC cores   caching p90   search p90\n",
    );
    for p in qos_check(servers) {
        out.push_str(&format!(
            "{:15} {:17.1}%   {:8.2} ms   {:7.3} s\n",
            p.label,
            p.colocation_fraction * 100.0,
            p.worst_caching_p90 * 1e3,
            p.worst_search_p90
        ));
    }
    out.push_str(
        "(VMT separates the latency-critical pair — WebSearch is hot, DataCaching cold —\n\
         so colocation interference cannot exceed the round-robin baseline.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmt_reduces_latency_critical_colocation() {
        let points = qos_check(40);
        let rr = &points[0];
        let vmt = &points[1];
        assert!(
            vmt.colocation_fraction < rr.colocation_fraction * 0.5,
            "VMT colocation {:.2} vs RR {:.2}",
            vmt.colocation_fraction,
            rr.colocation_fraction
        );
        assert!(vmt.worst_search_p90 <= rr.worst_search_p90 + 1e-9);
    }

    #[test]
    fn worst_case_latencies_stay_on_figure_scale() {
        for p in qos_check(40) {
            assert!(
                p.worst_caching_p90 < 0.025,
                "{}: caching p90 {:.4}s",
                p.label,
                p.worst_caching_p90
            );
            assert!(
                p.worst_search_p90 < 0.6,
                "{}: search p90 {:.3}s",
                p.label,
                p.worst_search_p90
            );
        }
    }

    #[test]
    fn allocation_scaling() {
        assert_eq!(scaled_allocation(0, 0), None);
        let alloc = scaled_allocation(10, 10).unwrap();
        assert_eq!(alloc.search_cores + alloc.caching_cores, 6);
        assert_eq!(alloc.search_cores, 3);
        let pure = scaled_allocation(8, 0).unwrap();
        assert_eq!(pure.search_cores, 6);
    }

    #[test]
    fn uses_trace_config_horizon() {
        // The helper must stop at the peak, not run two days.
        let points = qos_check(10);
        assert_eq!(points.len(), 2);
    }
}
