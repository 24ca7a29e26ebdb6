//! Quick balancer microbenchmark: `cargo run --release -p vmt-core
//! --example balancer_bench [n] [prefetch]`. Emulates the engine's
//! placement loop — hot/cold balancer mix plus farm bookkeeping —
//! the dominant per-job cost of the VMT policies at 100k servers, then
//! isolates the two tournament primitives (argmin selection via
//! `place`, key update via `account_external_by`).

use std::time::Instant;
use vmt_core::ThermalBalancer;
use vmt_dcsim::{ClusterConfig, ServerFarm};
use vmt_units::Seconds;
use vmt_workload::{Job, JobId, WorkloadKind};

/// Primitive costs: the selection path (`place` —
/// root argmin, winner key bump, path replay to the root) and the pure
/// update path (`account_external_by` — key bump and path replay,
/// no selection). Free cores never drop (no jobs are started), so
/// neither loop exhausts the tree; keys only drift upward, which is the
/// steady-state shape of a mid-tick balancer anyway.
fn primitives(n: usize) {
    let config = ClusterConfig::paper_default(n);
    let farm = ServerFarm::from_config(&config);
    let iters = (n * 4).max(1 << 16);
    let mut best_argmin = f64::INFINITY;
    let mut best_update = f64::INFINITY;
    for _ in 0..4 {
        let mut b = ThermalBalancer::new();
        b.rebuild(0..n, &farm);
        let t0 = Instant::now();
        let mut picked = 0u64;
        for _ in 0..iters {
            picked += b.place(&farm, 7.6).is_some() as u64;
        }
        best_argmin = best_argmin.min(t0.elapsed().as_nanos() as f64 / picked.max(1) as f64);

        let mut b = ThermalBalancer::new();
        b.rebuild(0..n, &farm);
        let mut rng = 0xDEAD_BEEFu64;
        let t0 = Instant::now();
        for _ in 0..iters {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let idx = ((rng >> 33) as usize) % n;
            b.account_external_by(idx, 7.6, farm.free_cores(idx));
        }
        best_update = best_update.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    println!(
        "tournament primitives at {n} leaves: {best_argmin:.1} ns/argmin, {best_update:.1} ns/update"
    );
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let prefetch = std::env::args().nth(2).is_some_and(|s| s == "prefetch");
    let config = ClusterConfig::paper_default(n);
    let hot_size = n * 22 / 100;
    let rounds = 6;
    let per_round = n * 4;
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let mut farm = ServerFarm::from_config(&config);
        let mut hot = ThermalBalancer::new();
        let mut cold = ThermalBalancer::new();
        hot.rebuild(0..hot_size, &farm);
        cold.rebuild(hot_size..n, &farm);
        let mut rng = 0x9E37_79B9u64;
        let t0 = Instant::now();
        let mut placed = 0u64;
        for j in 0..per_round {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let is_hot = (rng >> 33) % 5 < 3;
            let b = if is_hot { &mut hot } else { &mut cold };
            if let Some(idx) = b.place(&farm, 7.6) {
                farm.start_job(
                    idx,
                    &Job::new(
                        JobId(j as u64),
                        WorkloadKind::WebSearch,
                        Seconds::new(300.0),
                    ),
                );
                placed += 1;
            }
            if prefetch {
                let b = if is_hot { &hot } else { &cold };
                if let Some(next) = b.peek() {
                    farm.prefetch_server(next);
                    b.prefetch_member(next);
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / placed.max(1) as f64;
        best = best.min(ns);
        println!("placed {placed} at {ns:.1} ns/place");
    }
    println!("best: {best:.1} ns/place over {n} servers (prefetch={prefetch})");
    primitives(n);
}
