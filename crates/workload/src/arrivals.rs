//! Turning a load target into concrete job arrivals.

use crate::WorkloadKind;
use rand::{Rng, SeedableRng};
use vmt_units::Seconds;

/// How job durations scatter around each workload's typical duration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DurationModel {
    /// Uniform ±fraction jitter around the typical duration — tight,
    /// lease-like lifetimes.
    UniformJitter {
        /// Jitter fraction (e.g. 0.25 = ±25%).
        fraction: f64,
    },
    /// Exponentially distributed durations with the typical duration as
    /// the mean, clamped to `[0.1, 6]×` typical — the classic
    /// service-time model, with a heavier tail.
    Exponential,
}

impl Default for DurationModel {
    fn default() -> Self {
        DurationModel::UniformJitter { fraction: 0.25 }
    }
}

/// Plans job arrivals so that per-workload core occupancy tracks the
/// trace.
///
/// Each scheduling tick the simulator asks: the trace wants `target`
/// cores of workload W busy, `current` are busy — the planner emits
/// `max(0, target − current)` new jobs with jittered durations. Durations
/// are short (minutes) relative to the diurnal cycle (hours), so occupancy
/// tracks the rising edge tightly and lags the falling edge by at most one
/// job duration, mirroring how request-driven services drain.
///
/// All jitter comes from a seeded RNG owned by the planner, so a
/// simulation is reproducible end to end.
///
/// # Examples
///
/// ```
/// use vmt_workload::{ArrivalPlanner, WorkloadKind};
/// use WorkloadKind::{DataCaching, WebSearch};
///
/// let mut planner = ArrivalPlanner::new(7);
/// let (mut durations, mut kinds) = (Vec::new(), Vec::new());
/// // Web search has 4 of its 10 target cores busy, data caching none
/// // of its 2.
/// let targets = [10, 2, 0, 0, 0];
/// let busy = [4, 0, 0, 0, 0];
/// planner.plan_tick(targets, busy, &mut durations, &mut kinds);
/// assert_eq!(durations.len(), 8);
/// assert_eq!(kinds[..5], [WebSearch, DataCaching, WebSearch, DataCaching, WebSearch]);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalPlanner {
    rng: rand::rngs::SmallRng,
    model: DurationModel,
}

impl ArrivalPlanner {
    /// Creates a planner with the default duration model (±25% uniform
    /// jitter).
    pub fn new(seed: u64) -> Self {
        Self::with_model(seed, DurationModel::default())
    }

    /// Creates a planner with a custom uniform jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ jitter < 1`.
    pub fn with_jitter(seed: u64, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        Self::with_model(seed, DurationModel::UniformJitter { fraction: jitter })
    }

    /// Creates a planner with an explicit duration model.
    pub fn with_model(seed: u64, model: DurationModel) -> Self {
        if let DurationModel::UniformJitter { fraction } = model {
            assert!((0.0..1.0).contains(&fraction), "jitter must be in [0, 1)");
        }
        Self {
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
            model,
        }
    }

    /// Raw RNG state, for checkpointing the jitter stream position.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Overwrites the RNG state with a previously captured
    /// [`rng_state`](ArrivalPlanner::rng_state), resuming the jitter
    /// stream exactly where the checkpoint left it.
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = rand::rngs::SmallRng::from_state(state);
    }

    /// Draws one duration for `kind` from the configured model.
    fn draw_duration(&mut self, kind: WorkloadKind) -> Seconds {
        let typical = kind.typical_duration_minutes() * 60.0;
        let factor = match self.model {
            DurationModel::UniformJitter { fraction } => {
                1.0 + self.rng.gen_range(-fraction..=fraction)
            }
            DurationModel::Exponential => {
                // Inverse-CDF sampling, clamped against degenerate tails.
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                (-u.ln()).clamp(0.1, 6.0)
            }
        };
        Seconds::new(typical * factor)
    }

    /// Plans one tick's arrivals for all five workloads and stores them
    /// in arrival order.
    ///
    /// Workload `kind` gets `max(0, targets[k] − current[k])` arrivals,
    /// with `k = kind.index()`. Durations are drawn workload after
    /// workload in [`WorkloadKind::ALL`] order, and each lands in its
    /// arrival slot: the arrivals interleave round by round, round `j`
    /// holding arrival `j` of every workload that has one, in kind
    /// order. `durations` and `kinds` are refilled in parallel (slot `i`
    /// is the `i`-th arrival) and keep their capacity, so a caller that
    /// recycles them allocates only when a tick outgrows every earlier
    /// one.
    pub fn plan_tick(
        &mut self,
        targets: [usize; 5],
        current: [usize; 5],
        durations: &mut Vec<Seconds>,
        kinds: &mut Vec<WorkloadKind>,
    ) {
        let counts: [usize; 5] = std::array::from_fn(|k| targets[k].saturating_sub(current[k]));
        let arrivals = counts.iter().sum();
        durations.clear();
        durations.resize(arrivals, Seconds::new(0.0));
        kinds.clear();
        kinds.resize(arrivals, WorkloadKind::WebSearch);
        for kind in WorkloadKind::ALL {
            for_each_slot(&counts, kind.index(), |slot| {
                durations[slot] = self.draw_duration(kind);
                kinds[slot] = kind;
            });
        }
    }
}

/// Calls `visit` with the arrival slot of each of kind `k`'s
/// `counts[k]` arrivals, in draw order, when every kind's arrivals
/// interleave round by round (round `j` holds arrival `j` of every kind
/// with more than `j`, in kind order).
///
/// Arrival `j` of kind `k` lands at
/// `j + Σ_{k'<k} min(counts[k'], j + 1) + Σ_{k'>k} min(counts[k'], j)`.
/// Two consecutive arrivals of `k` are `1 + #{k' < k still in round
/// j + 1} + #{k' > k still in round j}` slots apart, a stride that only
/// changes when another kind runs out, so the slots come out one
/// addition each, over at most five constant-stride stretches.
fn for_each_slot(counts: &[usize; 5], k: usize, mut visit: impl FnMut(usize)) {
    let mut slot = counts[..k].iter().filter(|&&count| count > 0).count();
    let mut j = 0;
    while j < counts[k] {
        let mut stride = 1;
        let mut end = counts[k];
        for (other, &count) in counts.iter().enumerate() {
            // From arrival `last` of `k` on, `other` has no arrival
            // between two of `k`'s.
            let last = match other.cmp(&k) {
                std::cmp::Ordering::Less => count.saturating_sub(1),
                std::cmp::Ordering::Greater => count,
                std::cmp::Ordering::Equal => continue,
            };
            if last > j {
                stride += 1;
                end = end.min(last);
            }
        }
        for _ in j..end {
            visit(slot);
            slot += stride;
        }
        j = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plans `deficit` arrivals of `kind` alone: the interleave is then
    /// the draw order.
    fn plan_one(p: &mut ArrivalPlanner, kind: WorkloadKind, deficit: usize) -> Vec<Seconds> {
        let mut targets = [0; 5];
        targets[kind.index()] = deficit;
        let (mut durations, mut kinds) = (Vec::new(), Vec::new());
        p.plan_tick(targets, [0; 5], &mut durations, &mut kinds);
        assert!(kinds.iter().all(|&k| k == kind));
        durations
    }

    /// The round-by-round interleave as a loop over rounds: slot `i`
    /// holds arrival `.1` of kind `.0`.
    fn interleave_by_rounds(counts: &[usize; 5]) -> Vec<(usize, usize)> {
        let longest = counts.iter().copied().max().unwrap_or(0);
        let mut order = Vec::new();
        for round in 0..longest {
            for (kind, &count) in counts.iter().enumerate() {
                if round < count {
                    order.push((kind, round));
                }
            }
        }
        order
    }

    #[test]
    fn fills_the_deficit_exactly() {
        let mut p = ArrivalPlanner::new(1);
        let (mut durations, mut kinds) = (Vec::new(), Vec::new());
        p.plan_tick(
            [0, 0, 0, 12, 9],
            [3, 0, 0, 5, 9],
            &mut durations,
            &mut kinds,
        );
        assert_eq!(durations.len(), 7);
        assert_eq!(kinds, vec![WorkloadKind::VirusScan; 7]);
        p.plan_tick([5, 0, 0, 3, 0], [5, 0, 0, 5, 0], &mut durations, &mut kinds);
        assert!(durations.is_empty() && kinds.is_empty());
    }

    #[test]
    fn durations_are_jittered_around_typical() {
        let mut p = ArrivalPlanner::new(2);
        let durations = plan_one(&mut p, WorkloadKind::WebSearch, 1000);
        let typical = WorkloadKind::WebSearch.typical_duration_minutes() * 60.0;
        let mean: f64 = durations.iter().map(|d| d.get()).sum::<f64>() / durations.len() as f64;
        assert!((mean - typical).abs() < typical * 0.05, "mean {mean}");
        for d in durations.iter().map(|d| d.get()) {
            assert!(d >= typical * 0.74 && d <= typical * 1.26, "duration {d}");
        }
    }

    #[test]
    fn reproducible_for_same_seed() {
        let mut a = ArrivalPlanner::new(3);
        let mut b = ArrivalPlanner::new(3);
        assert_eq!(
            plan_one(&mut a, WorkloadKind::Clustering, 10),
            plan_one(&mut b, WorkloadKind::Clustering, 10)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ArrivalPlanner::new(4);
        let mut b = ArrivalPlanner::new(5);
        assert_ne!(
            plan_one(&mut a, WorkloadKind::Clustering, 10),
            plan_one(&mut b, WorkloadKind::Clustering, 10)
        );
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn invalid_jitter_rejected() {
        ArrivalPlanner::with_jitter(0, 1.0);
    }

    #[test]
    fn exponential_durations_have_the_right_mean_and_tail() {
        let mut p = ArrivalPlanner::with_model(9, DurationModel::Exponential);
        let durations: Vec<f64> = plan_one(&mut p, WorkloadKind::DataCaching, 5000)
            .iter()
            .map(|d| d.get())
            .collect();
        let typical = WorkloadKind::DataCaching.typical_duration_minutes() * 60.0;
        let mean: f64 = durations.iter().sum::<f64>() / durations.len() as f64;
        assert!((mean - typical).abs() < typical * 0.06, "mean {mean}");
        // A genuine tail: some jobs run more than twice the typical.
        let long = durations.iter().filter(|&&d| d > 2.0 * typical).count();
        assert!(long > durations.len() / 40, "tail too thin: {long}");
        // ... but the clamp holds.
        assert!(durations.iter().all(|&d| d <= 6.0 * typical + 1e-9));
        assert!(durations.iter().all(|&d| d >= 0.1 * typical - 1e-9));
    }

    /// The strided slots are the positions the loop over rounds gives
    /// each kind's arrivals: with zeros, ties, one kind alone, totals on
    /// either side of 65,536 (the engine's placement chunk), and drawn
    /// counts.
    #[test]
    fn strided_slots_match_the_interleave_by_rounds() {
        let mut cases: Vec<[usize; 5]> = vec![
            [0; 5],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 7, 0, 0],
            [3; 5],
            [4, 4, 0, 4, 4],
            [0, 5, 5, 0, 2],
            [1, 2, 3, 4, 5],
            [5, 4, 3, 2, 1],
            [9, 1, 9, 1, 9],
            [65_536, 0, 0, 0, 0],
            [65_535, 1, 0, 0, 0],
            [0, 0, 0, 1, 65_536],
            [13_107, 13_107, 13_107, 13_107, 13_107],
            [13_107, 13_107, 13_107, 13_107, 13_108],
            [13_107, 13_107, 13_108, 13_108, 13_107],
            [39_321, 26_214, 1, 0, 0],
            [40_000, 30_000, 20_000, 10_000, 5],
        ];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
        for _ in 0..200 {
            let scale = [3, 40, 30_000][rng.gen_range(0..3usize)];
            cases.push(std::array::from_fn(|_| {
                if rng.gen_range(0..4u32) == 0 {
                    0
                } else {
                    rng.gen_range(0..=scale)
                }
            }));
        }
        for counts in cases {
            let rounds = interleave_by_rounds(&counts);
            let mut covered = vec![false; rounds.len()];
            for k in 0..5 {
                let mut slots = Vec::new();
                for_each_slot(&counts, k, |slot| slots.push(slot));
                let expected: Vec<usize> =
                    (0..rounds.len()).filter(|&i| rounds[i].0 == k).collect();
                assert_eq!(slots, expected, "kind {k} of {counts:?}");
                for (j, &slot) in slots.iter().enumerate() {
                    assert_eq!(rounds[slot], (k, j), "{counts:?}");
                    covered[slot] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "{counts:?}");
        }
    }

    /// `plan_tick` stores what drawing kind after kind into one list and
    /// then interleaving it by rounds produced, with the planner's RNG
    /// left in the same state.
    #[test]
    fn plan_tick_equals_draws_interleaved_by_rounds() {
        for (seed, model) in [
            (11, DurationModel::default()),
            (12, DurationModel::Exponential),
        ] {
            let mut planner = ArrivalPlanner::with_model(seed, model);
            let mut reference = planner.clone();
            let (mut durations, mut kinds) = (Vec::new(), Vec::new());
            for (targets, current) in [
                ([30, 20, 10, 5, 0], [0, 0, 0, 0, 0]),
                ([30, 20, 10, 5, 4], [31, 10, 10, 0, 1]),
                ([0; 5], [0; 5]),
                ([2, 900, 0, 70_000, 3], [0, 1, 0, 0, 0]),
            ] {
                planner.plan_tick(targets, current, &mut durations, &mut kinds);
                let counts: [usize; 5] =
                    std::array::from_fn(|k| targets[k].saturating_sub(current[k]));
                let drawn: Vec<Vec<Seconds>> = WorkloadKind::ALL
                    .iter()
                    .map(|&kind| {
                        (0..counts[kind.index()])
                            .map(|_| reference.draw_duration(kind))
                            .collect()
                    })
                    .collect();
                let rounds = interleave_by_rounds(&counts);
                assert_eq!(durations.len(), rounds.len());
                for (i, &(k, j)) in rounds.iter().enumerate() {
                    assert_eq!(kinds[i], WorkloadKind::ALL[k]);
                    assert_eq!(durations[i].get().to_bits(), drawn[k][j].get().to_bits());
                }
                assert_eq!(planner.rng_state(), reference.rng_state());
            }
        }
    }
}
