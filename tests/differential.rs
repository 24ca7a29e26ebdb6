//! Differential regression tests: the optimized schedulers (heap
//! balancer + `ClusterIndex` fast paths + scan cursors) must be
//! *observationally identical* to the retained naive-scan references in
//! `vmt_core::reference`.
//!
//! Each case runs the full simulation twice — once per implementation —
//! over a 100-server, one-day diurnal trace and asserts the entire
//! [`SimulationResult`]s are equal: every cooling/electrical sample,
//! every temperature, every heatmap cell, every placement and drop
//! count. Any divergence in placement order, key arithmetic, or index
//! bookkeeping shows up as a failed equality, so the fast paths cannot
//! silently drift from the specification.

use vmt_core::{
    CoolestFirst, GroupingValue, NaiveCoolestFirst, NaiveVmtTa, NaiveVmtWa, PolicyKind, VmtConfig,
    VmtTa, VmtWa,
};
use vmt_dcsim::{
    digest_index, ClusterConfig, ClusterIndex, DecisionDetail, FarmState, PlacementProbe,
    Scheduler, ServerFarm, ServerId, Simulation, SimulationResult, TelemetryConfig, TraceSpec,
};
use vmt_pcm::ServerWaxConfig;
use vmt_telemetry::SchedulerCounters;
use vmt_units::{Hours, Liters, Minutes, Seconds};
use vmt_workload::{DiurnalTrace, Job, JobId, RecordedTrace, TraceConfig, VmtClass, WorkloadKind};

const SERVERS: usize = 100;
const SEEDS: [u64; 3] = [0, 1, 42];

fn one_day_config(seed: u64) -> (ClusterConfig, TraceConfig) {
    let mut cluster = ClusterConfig::paper_default(SERVERS);
    cluster.seed = seed;
    let mut trace = TraceConfig {
        horizon: Hours::new(24.0),
        ..TraceConfig::paper_default()
    };
    trace.seed = trace.seed.wrapping_add(seed);
    (cluster, trace)
}

fn run(seed: u64, scheduler: Box<dyn Scheduler>) -> SimulationResult {
    let (cluster, trace) = one_day_config(seed);
    Simulation::new(cluster, DiurnalTrace::new(trace), scheduler).run()
}

fn run_with_threads(seed: u64, scheduler: Box<dyn Scheduler>, threads: usize) -> SimulationResult {
    let (cluster, trace) = one_day_config(seed);
    Simulation::new(cluster, DiurnalTrace::new(trace), scheduler)
        .with_threads(threads)
        .run()
}

/// Asserts two runs are bit-identical, with a targeted message per field
/// so a regression points at the diverging series instead of dumping two
/// multi-megabyte structs.
fn assert_identical(fast: &SimulationResult, naive: &SimulationResult, label: &str) {
    assert_eq!(fast.scheduler_name, naive.scheduler_name, "{label}: name");
    assert_eq!(fast.placements, naive.placements, "{label}: placements");
    assert_eq!(fast.dropped_jobs, naive.dropped_jobs, "{label}: drops");
    assert_eq!(fast.cooling, naive.cooling, "{label}: cooling series");
    assert_eq!(fast.electrical, naive.electrical, "{label}: electrical");
    assert_eq!(fast.avg_temp, naive.avg_temp, "{label}: avg_temp");
    assert_eq!(
        fast.hot_group_temp, naive.hot_group_temp,
        "{label}: hot_group_temp"
    );
    assert_eq!(
        fast.hot_group_sizes, naive.hot_group_sizes,
        "{label}: hot_group_sizes"
    );
    assert_eq!(
        fast.stored_energy, naive.stored_energy,
        "{label}: stored_energy"
    );
    assert_eq!(fast.temp_heatmap, naive.temp_heatmap, "{label}: temp map");
    assert_eq!(fast.melt_heatmap, naive.melt_heatmap, "{label}: melt map");
    // Belt and braces: whole-struct equality catches any field added
    // later without a targeted assert above.
    assert_eq!(fast, naive, "{label}: full result");
}

fn vmt_config(seed: u64) -> VmtConfig {
    let (cluster, _) = one_day_config(seed);
    VmtConfig::new(GroupingValue::new(22.0), &cluster)
}

#[test]
fn coolest_first_matches_naive_reference() {
    for seed in SEEDS {
        let fast = run(seed, Box::new(CoolestFirst::new()));
        let naive = run(seed, Box::new(NaiveCoolestFirst::new()));
        assert_identical(&fast, &naive, &format!("coolest-first seed {seed}"));
    }
}

#[test]
fn vmt_ta_matches_naive_reference() {
    for seed in SEEDS {
        let fast = run(seed, Box::new(VmtTa::new(vmt_config(seed))));
        let naive = run(seed, Box::new(NaiveVmtTa::new(vmt_config(seed))));
        assert_identical(&fast, &naive, &format!("vmt-ta seed {seed}"));
    }
}

#[test]
fn vmt_wa_matches_naive_reference() {
    for seed in SEEDS {
        let fast = run(seed, Box::new(VmtWa::new(vmt_config(seed))));
        let naive = run(seed, Box::new(NaiveVmtWa::new(vmt_config(seed))));
        assert_identical(&fast, &naive, &format!("vmt-wa seed {seed}"));
    }
}

/// The `oracle_wax_state` ablation: the index reports the physical melt
/// fraction instead of the estimator's. The fast path still equals the
/// reference, and in builds with debug assertions the engine's ledger
/// checks the oracle report against the farm after every departure and
/// placement phase.
#[test]
fn vmt_wa_matches_naive_reference_under_oracle_wax_state() {
    let seed = SEEDS[0];
    let (mut cluster, trace) = one_day_config(seed);
    cluster.oracle_wax_state = true;
    let config = VmtConfig::new(GroupingValue::new(22.0), &cluster);
    let run = |scheduler: Box<dyn Scheduler>| {
        Simulation::new(cluster.clone(), DiurnalTrace::new(trace.clone()), scheduler).run()
    };
    let fast = run(Box::new(VmtWa::new(config)));
    let naive = run(Box::new(NaiveVmtWa::new(config)));
    assert_identical(&fast, &naive, "vmt-wa oracle");
    assert!(
        fast.melt_heatmap.rows.iter().flatten().any(|&m| m > 0.0),
        "the oracle run melts wax"
    );
}

/// Determinism across the parallel physics tick: the sharded sweep folds
/// per-shard partials in shard order, so every thread count must
/// reproduce the single-threaded run bit for bit — same cooling samples,
/// same placement stream, same heatmaps.
#[test]
fn results_are_bit_identical_at_any_thread_count() {
    for seed in SEEDS {
        let baseline = run_with_threads(seed, Box::new(VmtWa::new(vmt_config(seed))), 1);
        for threads in [2, 4, 8] {
            let parallel = run_with_threads(seed, Box::new(VmtWa::new(vmt_config(seed))), threads);
            assert_identical(
                &parallel,
                &baseline,
                &format!("vmt-wa seed {seed} threads {threads}"),
            );
        }
    }
}

/// Servers of the pooled-tick case: 65 shards, past the 4,096 servers at
/// which two tick threads fan out. At GV 22 the hot/cold edge is server
/// 2,564, four servers into shard 40, so both placement streams touch
/// the edge shard's job pages.
const POOLED_SERVERS: usize = 4160;

/// What a pooled slice leaves behind: per-tick state digests, the
/// result, the scheduler counters, and the span trace (every 97th job's
/// decision detail) with durations zeroed.
type PooledRun = (
    Vec<u64>,
    SimulationResult,
    SchedulerCounters,
    Vec<vmt_telemetry::SpanRecord>,
);

/// A [`PooledRun`] of an evening slice on [`POOLED_SERVERS`] servers: 60
/// one-minute ticks from hour 19 of the paper trace, on an empty cluster
/// whose wax is sized down to 0.4 L so it melts inside the slice.
fn pooled_slice(policy: &PolicyKind, threads: usize) -> PooledRun {
    const START_H: f64 = 19.0;
    const TICKS: usize = 60;
    let mut cluster = ClusterConfig::paper_default(POOLED_SERVERS);
    if let Some(wax) = cluster.wax.as_mut() {
        wax.sizing = ServerWaxConfig::new(Liters::new(0.4), 4).expect("valid sizing");
    }
    let paper = DiurnalTrace::new(TraceConfig::paper_default());
    let rows = (0..=TICKS)
        .map(|i| {
            let t = Hours::new(START_H + i as f64 / 60.0);
            let mut row = [0.0; 5];
            // The paper's mix within each class, at class totals that
            // first overfill the cold group (cold spills) and then the hot
            // group (VMT-WA grows it, VMT-TA spills hot jobs).
            let (hot, cold) = if i < TICKS / 2 {
                (0.55, 0.40)
            } else {
                (0.625, 0.345)
            };
            let class_sum = |class| {
                WorkloadKind::ALL
                    .iter()
                    .filter(|kind| kind.vmt_class() == class)
                    .map(|&kind| paper.utilization(kind, t).get())
                    .sum::<f64>()
            };
            let (hot_sum, cold_sum) = (class_sum(VmtClass::Hot), class_sum(VmtClass::Cold));
            for kind in WorkloadKind::ALL {
                let scale = match kind.vmt_class() {
                    VmtClass::Hot => hot / hot_sum,
                    VmtClass::Cold => cold / cold_sum,
                };
                row[kind.index()] = paper.utilization(kind, t).get() * scale;
            }
            row
        })
        .collect();
    let trace = RecordedTrace::from_samples(Minutes::new(1.0), rows).expect("valid rows");
    let telemetry = TelemetryConfig::new().with_trace(TraceSpec {
        sample_every: 97,
        ..TraceSpec::default()
    });
    let summary = telemetry.summary.clone();
    let tracer = telemetry.tracer.clone();
    let mut sim = Simulation::new(cluster.clone(), trace, policy.build(&cluster))
        .with_threads(threads)
        .with_telemetry(telemetry);
    let mut digests = Vec::with_capacity(TICKS);
    while sim.step() {
        digests.push(sim.state_digest());
    }
    let result = sim.finish().0;
    let counters = summary
        .get()
        .and_then(|s| s.scheduler)
        .expect("the run deposited its counters");
    let trace = tracer.take().expect("the run deposited its trace");
    assert_eq!(trace.dropped, 0, "the trace ring overflowed");
    (digests, result, counters, trace.without_durations())
}

/// The two-group placement streams and the edge-split pool sections at
/// a size where they run on the tick pool: VMT-TA and VMT-WA give the
/// same per-tick state digests, result, counters and (durations aside)
/// span trace at 1, 2 and 8 threads, over a slice where cold jobs spill
/// into the hot group, keep-warm tops up melted servers and VMT-WA
/// grows its hot group.
///
/// The pooled path needs two cores: `tick_fan_out` clamps to the host's
/// parallelism, so on a one-core host every thread count here runs the
/// streams inline, one after the other.
#[test]
fn two_group_streams_are_bit_identical_on_the_tick_pool() {
    for policy in [PolicyKind::VmtTa { gv: 22.0 }, PolicyKind::vmt_wa(22.0)] {
        let (digests, baseline, counters, trace) = pooled_slice(&policy, 1);
        assert!(
            trace
                .iter()
                .any(|r| matches!(r, vmt_telemetry::SpanRecord::Decision { .. })),
            "{policy:?}: no decision detail traced"
        );
        assert!(counters.spills > 0, "{policy:?}: no spills");
        if matches!(policy, PolicyKind::VmtWa { .. }) {
            assert!(counters.keep_warm > 0, "{policy:?}: keep-warm never fired");
            assert!(
                counters.hot_group_growth > 0,
                "{policy:?}: the hot group never grew"
            );
        }
        for threads in [2, 8] {
            let label = format!("{policy:?} threads {threads}");
            let (got_digests, got, got_counters, got_trace) = pooled_slice(&policy, threads);
            assert_eq!(got_digests, digests, "{label}: per-tick digests");
            assert_identical(&got, &baseline, &label);
            assert_eq!(got_counters, counters, "{label}: counters");
            assert!(
                got_trace == trace,
                "{label}: traces differ beyond durations"
            );
        }
    }
}

/// Per-tick state digests and the result of a 1-hour VMT-WA run on
/// 1,000,000 servers.
fn million_run(threads: usize) -> (Vec<u64>, SimulationResult) {
    let cluster = ClusterConfig::paper_default(1_000_000);
    let trace = TraceConfig {
        horizon: Hours::new(1.0),
        ..TraceConfig::paper_default()
    };
    let mut sim = Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace),
        PolicyKind::vmt_wa(22.0).build(&cluster),
    )
    .with_threads(threads);
    let mut digests = Vec::new();
    while sim.step() {
        digests.push(sim.state_digest());
    }
    (digests, sim.finish().0)
}

/// The 1M tier's determinism check: at 8 threads the run lands on the
/// single-thread run's per-tick digest sequence and final result. Short
/// horizon — each run is a full 1M-server simulation; the 100k suites
/// cover long horizons.
///
/// Run with: `cargo test --release million -- --ignored`
#[test]
#[ignore = "1M-server runs: minutes of wall clock, run explicitly"]
fn million_tier_is_identical_across_thread_counts() {
    let (digests, baseline) = million_run(1);
    assert!(!digests.is_empty());
    let (got_digests, got) = million_run(8);
    assert_eq!(got_digests, digests, "x8: digest sequence");
    assert_identical(&got, &baseline, "x8");
}

/// Batched placement (`Scheduler::place_batch`, the engine's hot path
/// since the tick pool PR) must be *decision-for-decision* identical to
/// the per-job sequence it replaced: `place_indexed`, then
/// `start_job`/index refresh, before the next decision. Property-tested
/// over cluster sizes, seeds, and arbitrary arrival mixes for all four
/// paper policies.
mod batched_placement {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The four policies of the paper's evaluation.
    fn policies() -> [PolicyKind; 4] {
        [
            PolicyKind::RoundRobin,
            PolicyKind::CoolestFirst,
            PolicyKind::VmtTa { gv: 22.0 },
            PolicyKind::vmt_wa(22.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn place_batch_equals_per_job_sequential(
            // Up to 220 servers: the GV 22 hot/cold edge crosses the
            // 64-server job-table shard boundary from 104 servers on.
            servers in 1usize..220,
            seed_pick in 0usize..3,
            batch_len in 0usize..400,
            job_seed in 0u64..u64::MAX,
        ) {
            let mut cluster = ClusterConfig::paper_default(servers);
            cluster.seed = [0u64, 1, 42][seed_pick];
            // The vendored proptest only draws primitives, so the batch
            // is derived from a drawn seed instead of a vec strategy.
            let mut job_rng = SmallRng::seed_from_u64(job_seed);
            let jobs: Vec<Job> = (0..batch_len)
                .map(|i| {
                    let kind = WorkloadKind::ALL[job_rng.gen_range(0..WorkloadKind::ALL.len())];
                    let duration = job_rng.gen_range(120.0..7200.0);
                    Job::new(JobId(i as u64), kind, Seconds::new(duration))
                })
                .collect();

            for policy in policies() {
                // Batched path: the single call the engine makes per tick.
                let mut farm_a = ServerFarm::from_config(&cluster);
                let mut index_a = ClusterIndex::new(&farm_a);
                let mut sched_a = policy.build(&cluster);
                sched_a.on_tick_indexed(&farm_a, &index_a, Seconds::new(0.0));
                let mut outcomes_a = Vec::new();
                sched_a.place_batch(&jobs, &mut farm_a, &mut index_a, &mut outcomes_a);
                prop_assert_eq!(outcomes_a.len(), jobs.len());
                // The engine's bookkeeping after the call.
                index_a.record_starts(outcomes_a.iter().flatten().count() as u64);

                // Sequential path: one decision at a time, with the farm
                // and index refreshed between decisions exactly as the
                // pre-batching engine did.
                let mut farm_b = ServerFarm::from_config(&cluster);
                let mut index_b = ClusterIndex::new(&farm_b);
                let mut sched_b = policy.build(&cluster);
                sched_b.on_tick_indexed(&farm_b, &index_b, Seconds::new(0.0));
                let mut outcomes_b = Vec::new();
                for job in &jobs {
                    let placed = sched_b.place_indexed(job, &farm_b, &index_b);
                    if let Some(sid) = placed {
                        farm_b.start_job(sid.0, job);
                        // A from-scratch rebuild equals the engine's
                        // incremental `record_starts` bookkeeping.
                        index_b = ClusterIndex::new(&farm_b);
                    }
                    outcomes_b.push(placed);
                }

                // (message-less asserts: the vendored proptest macros
                // take exactly two arguments)
                prop_assert_eq!(&outcomes_a, &outcomes_b);
                prop_assert_eq!(
                    digest_index(&farm_a, &index_a),
                    digest_index(&farm_b, &index_b)
                );
                for i in 0..servers {
                    prop_assert_eq!(farm_a.free_cores(i), farm_b.free_cores(i));
                    prop_assert_eq!(farm_a.power(i), farm_b.power(i));
                }
            }
        }
    }

    /// Every policy kind, the beyond-the-paper ones included.
    fn every_policy() -> [PolicyKind; 6] {
        [
            PolicyKind::RoundRobin,
            PolicyKind::CoolestFirst,
            PolicyKind::VmtTa { gv: 22.0 },
            PolicyKind::vmt_wa(22.0),
            PolicyKind::AdaptiveGv { start_gv: 22.0 },
            PolicyKind::Preserve {
                gv: 22.0,
                engage_hour: 16.0,
            },
        ]
    }

    /// Records every wanted job's decision detail, in the order the
    /// policy reports it.
    struct Recorder {
        every: u64,
        seen: Vec<(u64, DecisionDetail)>,
    }

    impl PlacementProbe for Recorder {
        fn wants(&self, job: &Job) -> bool {
            job.id().0.is_multiple_of(self.every)
        }

        fn decision(&mut self, job: &Job, detail: DecisionDetail) {
            self.seen.push((job.id().0, detail));
        }
    }

    /// What one way of placing a batch leaves behind.
    #[derive(Debug, PartialEq)]
    struct Placed {
        outcomes: Vec<Option<ServerId>>,
        counters: Option<SchedulerCounters>,
        index_digest: u64,
        farm: FarmState,
        decisions: Vec<(u64, DecisionDetail)>,
    }

    /// A fresh farm and index, and `policy` after its tick refresh at
    /// hour 17 (past VMT-preserve's engage hour).
    fn refreshed(
        policy: &PolicyKind,
        cluster: &ClusterConfig,
    ) -> (ServerFarm, ClusterIndex, Box<dyn Scheduler>) {
        let farm = ServerFarm::from_config(cluster);
        let index = ClusterIndex::new(&farm);
        let mut sched = policy.build(cluster);
        sched.on_tick_indexed(&farm, &index, Seconds::new(17.0 * 3600.0));
        (farm, index, sched)
    }

    /// Places `jobs` in one call per window of `bounds` (ascending,
    /// from 0 to `jobs.len()`; equal neighbours make an empty call),
    /// through `place_batch_traced` when a probe samples every
    /// `traced`-th job id.
    fn place_in_calls(
        policy: &PolicyKind,
        cluster: &ClusterConfig,
        jobs: &[Job],
        bounds: &[usize],
        traced: Option<u64>,
    ) -> Placed {
        let (mut farm, mut index, mut sched) = refreshed(policy, cluster);
        let mut outcomes = Vec::new();
        let mut probe = traced.map(|every| Recorder {
            every,
            seen: Vec::new(),
        });
        for call in bounds.windows(2) {
            let chunk = &jobs[call[0]..call[1]];
            let before = outcomes.len();
            match probe.as_mut() {
                Some(probe) => {
                    sched.place_batch_traced(chunk, &mut farm, &mut index, &mut outcomes, probe)
                }
                None => sched.place_batch(chunk, &mut farm, &mut index, &mut outcomes),
            }
            index.record_starts(outcomes[before..].iter().flatten().count() as u64);
        }
        Placed {
            outcomes,
            counters: sched.counters(),
            index_digest: digest_index(&farm, &index),
            farm: farm.state(),
            decisions: probe.map(|p| p.seen).unwrap_or_default(),
        }
    }

    /// The first job whose home group has no free core left once every
    /// earlier job took one in its own group: where the VMT policies'
    /// two streams hand over to the serial ladder.
    fn stop_point(jobs: &[Job], free: &[u32], edge: usize) -> usize {
        let edge = edge.min(free.len());
        let sum = |lanes: &[u32]| lanes.iter().map(|&c| u64::from(c)).sum::<u64>();
        let (hot_free, cold_free) = (sum(&free[..edge]), sum(&free[edge..]));
        let (mut hot, mut cold) = (0u64, 0u64);
        jobs.iter()
            .position(|job| {
                match job.kind().vmt_class() {
                    VmtClass::Hot => hot += 1,
                    VmtClass::Cold => cold += 1,
                }
                hot > hot_free || cold > cold_free
            })
            .unwrap_or(jobs.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The engine places one tick's arrivals in chunks of several
        /// `place_batch` calls. For every policy, a batch split at
        /// arbitrary points — 0, 1, the VMT stop point and its
        /// neighbours, the batch length, two drawn points — leaves the
        /// outcomes, counters, index and farm of one call, and
        /// `place_batch_traced` reports the same decision detail in the
        /// same order.
        #[test]
        fn chunked_place_batch_equals_one_call(
            // Up to 3,840 cores against batches of up to 5,000 jobs:
            // groups fill, jobs spill and drop.
            servers in 1usize..120,
            seed_pick in 0usize..3,
            batch_len in 0usize..5000,
            job_seed in 0u64..u64::MAX,
        ) {
            let mut cluster = ClusterConfig::paper_default(servers);
            cluster.seed = [0u64, 1, 42][seed_pick];
            let mut job_rng = SmallRng::seed_from_u64(job_seed);
            let jobs: Vec<Job> = (0..batch_len)
                .map(|i| {
                    let kind = WorkloadKind::ALL[job_rng.gen_range(0..WorkloadKind::ALL.len())];
                    let duration = job_rng.gen_range(120.0..7200.0);
                    Job::new(JobId(i as u64), kind, Seconds::new(duration))
                })
                .collect();
            let drawn = [
                job_rng.gen_range(0..=batch_len),
                job_rng.gen_range(0..=batch_len),
            ];

            for policy in every_policy() {
                let stop = {
                    let (farm, _, sched) = refreshed(&policy, &cluster);
                    let edge = sched.hot_group_size().unwrap_or(0);
                    let free: Vec<u32> = (0..farm.len()).map(|i| farm.free_cores(i)).collect();
                    stop_point(&jobs, &free, edge)
                };
                let mut cuts = vec![0, 1, stop.saturating_sub(1), stop, stop + 1, batch_len];
                cuts.extend(drawn);
                cuts.retain(|&cut| cut <= batch_len);
                cuts.sort_unstable();
                cuts.dedup();
                // A leading 0 makes the first call an empty one.
                let mut bounds = vec![0];
                bounds.extend(cuts);
                let whole = [0, batch_len];

                for traced in [None, Some(7)] {
                    let one = place_in_calls(&policy, &cluster, &jobs, &whole, traced);
                    let split = place_in_calls(&policy, &cluster, &jobs, &bounds, traced);
                    prop_assert_eq!(one.outcomes.len(), jobs.len());
                    prop_assert_eq!(&split, &one);
                }
            }
        }
    }
}
