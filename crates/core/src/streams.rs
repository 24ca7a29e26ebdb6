//! Two-group batch placement shared by VMT-TA and VMT-WA.
//!
//! Both policies place each job "balancing within each group" over two
//! disjoint server sets: the hot group `..hot_size` and the cold group
//! `hot_size..`. A job's group is its class, known before it is placed,
//! and its decision reads only its own group's balancer and servers —
//! until a rung reaches across the edge (a spill, VMT-WA's hot-group
//! growth, a whole-cluster fallback).
//!
//! So a batch is placed as two *streams*. Before placing anything the
//! driver finds the *stop point*: the first arrival whose home group has
//! used up the free cores it had at batch start. Every job before it
//! takes exactly one core of its home group, so the cross-group rungs
//! cannot fire there: the hot stream places the hot jobs of that prefix
//! through the hot group's own rungs, the cold stream the cold jobs,
//! each on its own [`GroupView`] (at the same time when the farm fans
//! out). Jobs from the stop point on run the policy's full serial
//! ladder, in arrival order, on the whole farm. Because the two streams
//! touch disjoint state, the result equals placing every job through
//! the serial ladder in arrival order — bit for bit.

use crate::balance::ThermalBalancer;
use vmt_dcsim::{
    DecisionCandidate, DecisionDetail, GroupView, PlacementProbe, ServerFarm, ServerId,
};
use vmt_telemetry::DECISION_TOP_K;
use vmt_units::{Celsius, DegC};
use vmt_workload::{Job, VmtClass};

/// The per-server state a group's first rungs read, by global server id:
/// free cores and the steady-state air temperature a server is heading
/// toward at its current draw. Implemented by a group's view (the
/// streams) and by the whole farm (the serial ladder), so both run the
/// same rung code.
pub(crate) trait Lanes {
    /// Free cores of server `idx`.
    fn free(&self, idx: usize) -> u32;
    /// Inlet plus power over the air's capacity rate.
    fn projected_temp(&self, idx: usize) -> Celsius;
}

impl Lanes for GroupView<'_> {
    #[inline]
    fn free(&self, idx: usize) -> u32 {
        self.free_cores(idx)
    }

    #[inline]
    fn projected_temp(&self, idx: usize) -> Celsius {
        self.inlet(idx) + DegC::new(self.power(idx).get() / self.air().capacity_rate().get())
    }
}

impl Lanes for ServerFarm {
    #[inline]
    fn free(&self, idx: usize) -> u32 {
        self.free_cores(idx)
    }

    #[inline]
    fn projected_temp(&self, idx: usize) -> Celsius {
        self.inlet(idx) + DegC::new(self.power(idx).get() / self.air().capacity_rate().get())
    }
}

/// VMT-WA's keep-warm rung: melted hot-group servers to top up until
/// they project above `line`.
pub(crate) struct KeepWarm<'a> {
    pub(crate) list: &'a mut Vec<usize>,
    pub(crate) line: Celsius,
}

/// One group's own first rungs — keep-warm when the group has it, then
/// the group's balancer — borrowed from the policy. The streams run
/// them on a group view and the serial ladders on the whole cluster;
/// there is no second copy.
pub(crate) struct Rungs<'a> {
    pub(crate) balancer: &'a mut ThermalBalancer,
    pub(crate) keep_warm: Option<KeepWarm<'a>>,
    /// Rung label of a balancer placement.
    pub(crate) label: &'static str,
    /// Placements made through keep-warm (folded into the policy's
    /// counters by the caller).
    pub(crate) kept_warm: u64,
}

impl Rungs<'_> {
    /// Places one job drawing `core_power_w` on the group's servers, or
    /// `None` when none of them has a free core. Returns the server and
    /// the rung label.
    #[inline]
    pub(crate) fn place(
        &mut self,
        lanes: &impl Lanes,
        core_power_w: f64,
    ) -> Option<(usize, &'static str)> {
        if let Some(kw) = &mut self.keep_warm {
            // Top up melted servers that are about to dip below the melt
            // line; a server topped up (or full) leaves the list for the
            // tick.
            while let Some(&idx) = kw.list.last() {
                let free = lanes.free(idx);
                if free > 0 && lanes.projected_temp(idx) < kw.line {
                    // Keep the balancer's projection truthful about this
                    // out-of-band placement.
                    self.balancer.account_external_by(idx, core_power_w, free);
                    self.kept_warm += 1;
                    return Some((idx, "keep-warm"));
                }
                kw.list.pop();
            }
        }
        self.balancer
            .place_by(|idx| lanes.free(idx), core_power_w)
            .map(|idx| (idx, self.label))
    }
}

/// A policy whose placement is two groups split at its hot-group size,
/// driven by [`place_batch`].
pub(crate) trait TwoGroups {
    /// The edge: servers `..hot_size()` are the hot group.
    fn hot_size(&self) -> usize;

    /// Whether each group's balancer holds only servers on its own side
    /// of the edge, which the streams need. It holds from a refresh
    /// until a rung moves the edge: VMT-WA's hot-group growth leaves the
    /// grown servers in the cold balancer for the rest of the tick.
    fn split_at_edge(&self) -> bool;

    /// The hot and the cold group's first rungs.
    fn rungs(&mut self) -> (Rungs<'_>, Rungs<'_>);

    /// Books a stream prefix: `hot` and `cold` placements in their home
    /// groups, `kept_warm` of them through keep-warm.
    fn book_streams(&mut self, hot: u64, cold: u64, kept_warm: u64);

    /// The full serial ladder for one job on the whole cluster, counted
    /// in the policy's counters; returns the decision and its rung.
    fn place_serial(&mut self, job: &Job, farm: &ServerFarm) -> (Option<ServerId>, &'static str);

    /// The balancer of `class`'s home group.
    fn home_balancer(&self, class: VmtClass) -> &ThermalBalancer;
}

/// The stop point of `jobs` on `farm` split at `edge`: the first job
/// whose home group has no free core left once every earlier job took
/// one in its own home group (`jobs.len()` when there is none).
pub(crate) fn stop_point(jobs: &[Job], farm: &ServerFarm, edge: usize) -> usize {
    let edge = edge.min(farm.len());
    let sum = |servers: std::ops::Range<usize>| {
        servers.map(|i| u64::from(farm.free_cores(i))).sum::<u64>()
    };
    let (hot_free, cold_free) = (sum(0..edge), sum(edge..farm.len()));
    // Count both classes without branching on the (shuffled) class; the
    // one branch left only fires at the stop point.
    let (mut hot, mut cold) = (0u64, 0u64);
    for (at, job) in jobs.iter().enumerate() {
        let is_cold = u64::from(job.kind().vmt_class() == VmtClass::Cold);
        hot += 1 - is_cold;
        cold += is_cold;
        if hot > hot_free || cold > cold_free {
            return at;
        }
    }
    jobs.len()
}

/// Places `jobs` as the engine's batch hook does: the two streams up to
/// the stop point, the serial ladder after it. Outcomes are appended to
/// `out`; with a probe, sampled jobs' decision detail reaches it in
/// arrival order. When the balancers no longer split at the edge (a
/// later call in a tick whose hot group grew), every job takes the
/// serial ladder.
pub(crate) fn place_batch<P: TwoGroups>(
    policy: &mut P,
    jobs: &[Job],
    farm: &mut ServerFarm,
    out: &mut Vec<Option<ServerId>>,
    probe: Option<&mut dyn PlacementProbe>,
) {
    let stop = match policy.split_at_edge() {
        true => stop_point(jobs, farm, policy.hot_size()),
        false => 0,
    };
    place_batch_at(policy, jobs, farm, out, probe, stop);
}

/// [`place_batch`] with the stream prefix cut at `stop`, which may be any
/// point at or before the stop point: the result is the same.
pub(crate) fn place_batch_at<P: TwoGroups>(
    policy: &mut P,
    jobs: &[Job],
    farm: &mut ServerFarm,
    out: &mut Vec<Option<ServerId>>,
    mut probe: Option<&mut dyn PlacementProbe>,
    stop: usize,
) {
    let first = out.len();
    out.resize(first + jobs.len(), None);
    let out = &mut out[first..];
    let mut sampled = Vec::new();
    if let Some(probe) = probe.as_deref() {
        probe.sampled_indices(jobs, &mut sampled);
    }
    let split = sampled.partition_point(|&at| at < stop);
    let (prefix_sampled, tail_sampled) = sampled.split_at(split);

    // The streams: hot on the calling thread, cold beside it. Each
    // closure owns its group's rungs and reports once, at the end, so
    // the two threads share no cache line they write per job.
    let edge = policy.hot_size();
    let (hot, cold) = policy.rungs();
    let (mut hot_done, mut cold_done) = (None, None);
    let (hot_slot, cold_slot) = (&mut hot_done, &mut cold_done);
    let ran = farm.place_groups(
        edge,
        &jobs[..stop],
        &mut out[..stop],
        move |view| *hot_slot = Some(stream(hot, view, prefix_sampled)),
        move |view| *cold_slot = Some(stream(cold, view, prefix_sampled)),
    );
    let stop = if ran { stop } else { 0 };
    let [hot_done, cold_done] = [hot_done, cold_done].map(Option::unwrap_or_default);
    policy.book_streams(
        hot_done.placed,
        cold_done.placed,
        hot_done.kept_warm + cold_done.kept_warm,
    );
    if let Some(probe) = probe.as_deref_mut() {
        let mut hot_details = hot_done.details.into_iter().peekable();
        let mut cold_details = cold_done.details.into_iter().peekable();
        while let Some((at, detail)) = match (hot_details.peek(), cold_details.peek()) {
            (Some((h, _)), Some((c, _))) if h < c => hot_details.next(),
            (_, Some(_)) => cold_details.next(),
            (Some(_), None) => hot_details.next(),
            (None, None) => None,
        } {
            probe.decision(&jobs[at], detail);
        }
    }

    // The serial tail, from the stop point on (the whole batch when the
    // streams could not run).
    let tail_sampled = if ran { tail_sampled } else { &sampled[..] };
    let mut next_sampled = tail_sampled.iter().copied().peekable();
    let mut scratch = Vec::new();
    for (at, job) in jobs.iter().enumerate().skip(stop) {
        let class = job.kind().vmt_class();
        let candidates = match (next_sampled.next_if_eq(&at), probe.is_some()) {
            (Some(_), true) => Some(candidates(policy.home_balancer(class), &mut scratch)),
            _ => None,
        };
        let (placed, rung) = policy.place_serial(job, farm);
        if let Some(sid) = placed {
            farm.start_job(sid.0, job);
        }
        out[at] = placed;
        if let (Some(candidates), Some(probe)) = (candidates, probe.as_deref_mut()) {
            probe.decision(job, detail(rung, placed.map(|sid| sid.0), candidates));
        }
        let balancer = policy.home_balancer(class);
        if let Some(next) = balancer.peek() {
            farm.prefetch_server(next);
            balancer.prefetch_member(next);
        }
    }
}

/// What one group's stream reports when it finishes.
#[derive(Default)]
struct StreamDone {
    /// Jobs placed.
    placed: u64,
    /// Of those, jobs placed through keep-warm.
    kept_warm: u64,
    /// Sampled jobs' decision detail, in arrival order.
    details: Vec<(usize, DecisionDetail)>,
}

/// One group's stream: every job of the view's class in the view's
/// batch prefix, in arrival order, through the group's own rungs.
fn stream(mut rungs: Rungs<'_>, view: &mut GroupView<'_>, sampled: &[usize]) -> StreamDone {
    let jobs = view.jobs();
    let class = view.class();
    hint(rungs.balancer, view);
    let mut details = Vec::new();
    let mut scratch = Vec::new();
    let mut placed = 0;
    let mut start = 0;
    for &at in sampled {
        placed += run(&mut rungs, view, start..at);
        start = at + 1;
        if jobs[at].kind().vmt_class() != class {
            continue;
        }
        let candidates = candidates(rungs.balancer, &mut scratch);
        let (idx, rung) = place_one(&mut rungs, view, at);
        placed += 1;
        details.push((at, detail(rung, Some(idx), candidates)));
    }
    placed += run(&mut rungs, view, start..jobs.len());
    StreamDone {
        placed,
        kept_warm: rungs.kept_warm,
        details,
    }
}

/// Arrival positions a stream gathers per pass: a fixed-size buffer, so
/// nothing grows with the batch.
const GATHER: usize = 256;

/// The unsampled stretch `span` of a stream: the tight loop every
/// untraced job runs. The group's own jobs are gathered a chunk at a
/// time without branching on their class — classes arrive shuffled, so
/// a per-job branch would mispredict on a large share of jobs — and
/// then placed back to back.
#[inline]
fn run(rungs: &mut Rungs<'_>, view: &mut GroupView<'_>, span: std::ops::Range<usize>) -> u64 {
    let jobs = view.jobs();
    let class = view.class();
    let mut mine = [0usize; GATHER];
    let mut placed = 0;
    let mut start = span.start;
    while start < span.end {
        let end = span.end.min(start + GATHER);
        let mut count = 0;
        for (at, job) in jobs[start..end].iter().enumerate() {
            mine[count] = start + at;
            count += usize::from(job.kind().vmt_class() == class);
        }
        for &at in &mine[..count] {
            place_one(rungs, view, at);
        }
        placed += count as u64;
        start = end;
    }
    placed
}

/// Places job `at` through the group's rungs, starts it, and hints the
/// group's next predicted winner. Returns the server and rung.
#[inline]
fn place_one(rungs: &mut Rungs<'_>, view: &mut GroupView<'_>, at: usize) -> (usize, &'static str) {
    let power = view.jobs()[at].core_power().get();
    let (idx, rung) = rungs
        .place(view, power)
        .expect("a home group keeps a free core until the stop point");
    view.start_job(at, idx);
    hint(rungs.balancer, view);
    (idx, rung)
}

/// Hints the balancer's predicted next winner: its lanes and tree path
/// arrive while the current job's bookkeeping still runs.
#[inline]
fn hint(balancer: &ThermalBalancer, view: &GroupView<'_>) {
    if let Some(next) = balancer.peek() {
        view.prefetch_server(next);
        balancer.prefetch_member(next);
    }
}

/// The top tournament candidates a sampled job enters, snapshotted
/// before its placement mutates the balancer (`scratch` is reused across
/// a batch's sampled jobs).
fn candidates(
    balancer: &ThermalBalancer,
    scratch: &mut Vec<(usize, f64)>,
) -> Vec<DecisionCandidate> {
    balancer.top_candidates_into(DECISION_TOP_K, scratch);
    scratch
        .iter()
        .map(|&(idx, key)| DecisionCandidate {
            server: idx as u32,
            key,
        })
        .collect()
}

/// A decision's detail. The winning key is the chosen server's
/// pre-placement tournament key; priority and cursor rungs (and a
/// winner outside the top-k snapshot) report none.
fn detail(
    rung: &'static str,
    chosen: Option<usize>,
    candidates: Vec<DecisionCandidate>,
) -> DecisionDetail {
    let chosen = chosen.map(|idx| idx as u32);
    let winning_key = chosen.and_then(|c| {
        candidates
            .iter()
            .find(|cand| cand.server == c)
            .map(|cand| cand.key)
    });
    DecisionDetail {
        rung,
        chosen,
        winning_key,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupingValue, VmtConfig, VmtTa, VmtWa};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vmt_dcsim::{digest_index, ClusterConfig, ClusterIndex, FarmState, Scheduler};
    use vmt_telemetry::SchedulerCounters;
    use vmt_units::Seconds;
    use vmt_workload::{JobId, WorkloadKind};

    /// Samples every `every`-th job id and keeps every decision it is
    /// handed, in call order.
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

    /// Everything a batch leaves behind that the serial ladder pins.
    #[derive(Debug, PartialEq)]
    struct After {
        outcomes: Vec<Option<ServerId>>,
        digest: u64,
        farm: FarmState,
        counters: Option<SchedulerCounters>,
    }

    fn after<P: Scheduler>(
        policy: &P,
        farm: &ServerFarm,
        index: &ClusterIndex,
        outcomes: Vec<Option<ServerId>>,
    ) -> After {
        After {
            outcomes,
            digest: digest_index(farm, index),
            farm: farm.state(),
            counters: policy.counters(),
        }
    }

    /// The reference: every job through the serial ladder
    /// (`place_indexed`), committed before the next decision.
    fn serial<P: Scheduler + Clone>(policy: &P, farm: &ServerFarm, jobs: &[Job]) -> After {
        let (mut policy, mut farm) = (policy.clone(), farm.clone());
        let mut index = ClusterIndex::new(&farm);
        let mut outcomes = Vec::new();
        for job in jobs {
            let placed = policy.place_indexed(job, &farm, &index);
            if let Some(sid) = placed {
                farm.start_job(sid.0, job);
                index.record_start(job.kind());
            }
            outcomes.push(placed);
        }
        after(&policy, &farm, &index, outcomes)
    }

    /// The driver with its stream prefix cut at `stop`, traced.
    fn cut<P: TwoGroups + Scheduler + Clone>(
        policy: &P,
        farm: &ServerFarm,
        jobs: &[Job],
        stop: usize,
    ) -> (After, Vec<(u64, DecisionDetail)>) {
        let (mut policy, mut farm) = (policy.clone(), farm.clone());
        let mut index = ClusterIndex::new(&farm);
        let mut outcomes = Vec::new();
        let mut probe = Recorder {
            every: 7,
            seen: Vec::new(),
        };
        place_batch_at(
            &mut policy,
            jobs,
            &mut farm,
            &mut outcomes,
            Some(&mut probe),
            stop,
        );
        for (job, placed) in jobs.iter().zip(&outcomes) {
            if placed.is_some() {
                index.record_start(job.kind());
            }
        }
        (after(&policy, &farm, &index, outcomes), probe.seen)
    }

    /// Checks every cut at or before the stop point against the serial
    /// ladder, and the traced detail against the all-serial cut.
    fn check_cuts<P: TwoGroups + Scheduler + Clone>(
        policy: &P,
        farm: &ServerFarm,
        jobs: &[Job],
        cut_seed: u64,
    ) -> Result<usize, TestCaseError> {
        let stop = stop_point(jobs, farm, policy.hot_size());
        let reference = serial(policy, farm, jobs);
        let (all_serial, detail) = cut(policy, farm, jobs, 0);
        prop_assert_eq!(&all_serial, &reference);
        let mut rng = SmallRng::seed_from_u64(cut_seed);
        for stop in [stop, rng.gen_range(0..=stop), stop / 2] {
            let (got, got_detail) = cut(policy, farm, jobs, stop);
            prop_assert_eq!(&got, &reference);
            prop_assert_eq!(&got_detail, &detail);
        }
        Ok(stop)
    }

    /// `(servers, hot-group edge)`: the edge at offsets 0, 1 and 63
    /// within its shard, fewer than 64 servers, a one-server hot group,
    /// an empty cold group, and a farm large enough to place on the
    /// tick pool when the host has two cores.
    const SHAPES: [(usize, usize); 9] = [
        (17, 6),
        (63, 1),
        (63, 63),
        (200, 64),
        (200, 65),
        (200, 127),
        (130, 130),
        (4160, 2564),
        (4160, 4160),
    ];

    /// A farm of `n` servers with a random partial load, and a VMT
    /// config whose hot group is exactly `edge` servers.
    fn setup(n: usize, edge: usize, seed: u64) -> (ServerFarm, VmtConfig) {
        let cluster = ClusterConfig::paper_default(n);
        let pmt = VmtConfig::new(GroupingValue::new(22.0), &cluster).pmt.get();
        let config = VmtConfig::new(GroupingValue::new(edge as f64 * pmt / n as f64), &cluster);
        assert_eq!(config.hot_group_size(n), edge);
        let mut farm = ServerFarm::from_config(&cluster);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut id = 1u64 << 20;
        for server in 0..n {
            for _ in 0..rng.gen_range(0..=farm.cores()) {
                let kind = WorkloadKind::ALL[rng.gen_range(0..WorkloadKind::ALL.len())];
                farm.start_job(server, &Job::new(JobId(id), kind, Seconds::new(600.0)));
                id += 1;
            }
        }
        (farm, config)
    }

    /// A batch of `len` jobs, each hot with probability `hot_share`.
    fn batch(len: usize, hot_share: f64, seed: u64) -> Vec<Job> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (hot, cold) = (
            [
                WorkloadKind::WebSearch,
                WorkloadKind::VideoEncoding,
                WorkloadKind::Clustering,
            ],
            [WorkloadKind::DataCaching, WorkloadKind::VirusScan],
        );
        (0..len)
            .map(|i| {
                let kind = if rng.gen_range(0.0..1.0) < hot_share {
                    hot[rng.gen_range(0..3usize)]
                } else {
                    cold[rng.gen_range(0..2usize)]
                };
                Job::new(JobId(i as u64), kind, Seconds::new(300.0))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Any stream prefix up to the stop point places exactly what the
        /// serial ladder places — outcomes, index, free cores, power and
        /// job rows, counters — and reports the same decision detail, for
        /// VMT-TA and for VMT-WA with keep-warm entries.
        #[test]
        fn every_cut_matches_the_serial_ladder(
            shape in 0usize..9,
            load_seed in 0u64..u64::MAX,
            fill in 0.0f64..1.4,
            hot_share in 0.05f64..0.95,
            cut_seed in 0u64..u64::MAX,
        ) {
            let (n, edge) = SHAPES[shape];
            let (farm, config) = setup(n, edge, load_seed);
            let index = ClusterIndex::new(&farm);
            let free: u64 = (0..n).map(|i| u64::from(farm.free_cores(i))).sum();
            // Small farms get batches past their free cores, so spills,
            // growth and drops all reach the serial tail.
            let len = ((free as f64 * fill) as usize).min(3000);
            let jobs = batch(len, hot_share, cut_seed);

            let mut ta = VmtTa::new(config);
            ta.on_tick_indexed(&farm, &index, Seconds::new(0.0));
            check_cuts(&ta, &farm, &jobs, cut_seed)?;

            let mut wa = VmtWa::new(config);
            wa.on_tick_indexed(&farm, &index, Seconds::new(0.0));
            // Keep-warm entries on hot servers, topped up first.
            let mut rng = SmallRng::seed_from_u64(load_seed ^ cut_seed);
            wa.force_keep_warm((0..4).map(|_| rng.gen_range(0..edge)).collect());
            check_cuts(&wa, &farm, &jobs, cut_seed)?;
        }
    }

    #[test]
    fn stop_point_is_the_first_job_whose_home_group_is_full() {
        // Free cores [2, 0, 1, 1], the hot group the first two servers.
        let mut farm = ServerFarm::from_config(&ClusterConfig::paper_default(4));
        let mut id = 1000;
        for (server, free) in [2, 0, 1, 1].into_iter().enumerate() {
            for _ in free..farm.cores() {
                let job = Job::new(JobId(id), WorkloadKind::VirusScan, Seconds::new(60.0));
                farm.start_job(server, &job);
                id += 1;
            }
        }
        let jobs = batch(64, 0.5, 3);
        let stop = stop_point(&jobs, &farm, 2);
        let hot_before = jobs[..stop]
            .iter()
            .filter(|j| j.kind().vmt_class() == VmtClass::Hot)
            .count();
        let cold_before = stop - hot_before;
        assert!(hot_before <= 2 && cold_before <= 2);
        match jobs[stop].kind().vmt_class() {
            VmtClass::Hot => assert_eq!(hot_before, 2),
            VmtClass::Cold => assert_eq!(cold_before, 2),
        }
        assert_eq!(stop_point(&jobs[..0], &farm, 2), 0);
        for server in 0..4 {
            while farm.free_cores(server) > 0 {
                let job = Job::new(JobId(id), WorkloadKind::VirusScan, Seconds::new(60.0));
                farm.start_job(server, &job);
                id += 1;
            }
        }
        assert_eq!(stop_point(&jobs, &farm, 2), 0);
    }
}
