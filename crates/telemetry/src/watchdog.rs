//! Declarative thermal/scheduling anomaly detectors.
//!
//! A watchdog is a pure function of the per-tick state the engine
//! already computes — no extra simulation work, no feedback into
//! placement or physics. Each detector keeps a little sliding-window
//! state, and when its condition trips it produces a structured
//! [`AnomalyEvent`] that the engine writes to the event sink and uses to
//! trigger a flight-recorder dump (the last N ticks of causal context
//! leading up to the anomaly).
//!
//! Detectors latch: once fired they stay quiet until the condition
//! clears (plus a cooldown), so a sustained violation produces one
//! anomaly with context, not an event per tick.

/// Which detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WatchdogKind {
    /// A server's air-at-wax temperature exceeded the red-line.
    ThermalViolation,
    /// A loaded hot-group server's wax stopped melting mid-transition.
    WaxStall,
    /// The scheduler's spill rate exceeded its QoS threshold.
    QosSpill,
    /// The hot group resized too often within a window (oscillation).
    GroupThrash,
}

impl WatchdogKind {
    /// Stable lower-case label (used in dump filenames and reports).
    pub fn label(self) -> &'static str {
        match self {
            WatchdogKind::ThermalViolation => "thermal-violation",
            WatchdogKind::WaxStall => "wax-stall",
            WatchdogKind::QosSpill => "qos-spill",
            WatchdogKind::GroupThrash => "group-thrash",
        }
    }
}

/// A detector and its thresholds, as data.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WatchdogSpec {
    /// Fire when any server's air-at-wax temperature exceeds
    /// `red_line_c`.
    ThermalViolation {
        /// Red-line temperature (°C).
        red_line_c: f64,
    },
    /// Fire when a loaded server sits above `air_above_c` with its wax
    /// mid-transition (reported melt in (0, 1)) yet its reported melt
    /// fraction does not move for `window_ticks` consecutive ticks.
    WaxStall {
        /// Consecutive stalled ticks before firing.
        window_ticks: u64,
        /// Air temperature the server must exceed for the stall to be
        /// suspicious (below it, not melting is expected).
        air_above_c: f64,
    },
    /// Fire when the scheduler records more than `max_spills` spills
    /// within any `window_ticks`-tick window.
    QosSpill {
        /// Sliding window length in ticks.
        window_ticks: u64,
        /// Maximum spills tolerated inside the window.
        max_spills: u64,
    },
    /// Fire when the hot group resizes at least `max_resizes` times
    /// within any `window_ticks`-tick window.
    GroupThrash {
        /// Sliding window length in ticks.
        window_ticks: u64,
        /// Resizes inside the window that count as thrash.
        max_resizes: u64,
    },
}

impl WatchdogSpec {
    /// The detector's kind tag.
    pub fn kind(self) -> WatchdogKind {
        match self {
            WatchdogSpec::ThermalViolation { .. } => WatchdogKind::ThermalViolation,
            WatchdogSpec::WaxStall { .. } => WatchdogKind::WaxStall,
            WatchdogSpec::QosSpill { .. } => WatchdogKind::QosSpill,
            WatchdogSpec::GroupThrash { .. } => WatchdogKind::GroupThrash,
        }
    }

    /// The default set, thresholds chosen so a healthy paper-default run
    /// stays silent: 45 °C red-line (healthy peaks sit near 40 °C), a
    /// 2-simulated-hour wax stall window, 300 spills per simulated hour,
    /// and 20 hot-group resizes per simulated hour.
    pub fn default_set() -> Vec<WatchdogSpec> {
        vec![
            WatchdogSpec::ThermalViolation { red_line_c: 45.0 },
            WatchdogSpec::WaxStall {
                window_ticks: 120,
                air_above_c: 36.0,
            },
            WatchdogSpec::QosSpill {
                window_ticks: 60,
                max_spills: 300,
            },
            WatchdogSpec::GroupThrash {
                window_ticks: 60,
                max_resizes: 20,
            },
        ]
    }
}

/// A fired watchdog, as written to the event stream.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnomalyEvent {
    /// Tick the watchdog fired at (1-based, post-physics).
    pub tick: u64,
    /// Which detector fired.
    pub watchdog: WatchdogKind,
    /// The offending server, when the anomaly is server-local.
    pub server: Option<u64>,
    /// Observed value (temperature °C, stalled ticks, spills or resizes
    /// in window — detector-dependent).
    pub value: f64,
    /// The configured threshold the value violated.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub detail: String,
}

/// Everything a watchdog can see about one tick.
///
/// Borrowed views of state the engine already maintains — building one
/// costs a handful of pointer copies.
#[derive(Debug, Clone, Copy)]
pub struct TickState<'a> {
    /// Tick just executed (1-based).
    pub tick: u64,
    /// Per-server air-at-wax temperature (°C).
    pub air_c: &'a [f64],
    /// Per-server estimator-reported melt fraction.
    pub reported_melt: &'a [f64],
    /// Per-server occupied cores.
    pub used_cores: &'a [u32],
    /// Current hot-group size, if the policy keeps one.
    pub hot_group_size: Option<u64>,
    /// Scheduler spills recorded this tick.
    pub spills_delta: u64,
}

/// Per-detector sliding-window state.
#[derive(Debug)]
enum DetectorState {
    Thermal {
        /// Latched while any server is above the red-line.
        latched: bool,
    },
    WaxStall {
        /// Last observed reported melt per server.
        last_melt: Vec<f64>,
        /// Consecutive stalled-under-load ticks per server.
        stalled: Vec<u32>,
        /// Per-server latch (fire once per stall episode).
        latched: Vec<bool>,
    },
    QosSpill {
        /// Spill counts for the last `window_ticks` ticks (ring).
        window: Vec<u64>,
        cursor: usize,
        sum: u64,
        cooldown: u64,
    },
    GroupThrash {
        /// Resize indicators for the last `window_ticks` ticks (ring).
        window: Vec<u64>,
        cursor: usize,
        sum: u64,
        last_size: Option<u64>,
        cooldown: u64,
    },
}

/// A configured set of armed detectors.
#[derive(Debug)]
pub struct WatchdogSet {
    specs: Vec<WatchdogSpec>,
    states: Vec<DetectorState>,
    fired: Vec<AnomalyEvent>,
    anomalies_total: u64,
}

impl WatchdogSet {
    /// Arms `specs` for a cluster of `num_servers` servers.
    pub fn new(specs: Vec<WatchdogSpec>, num_servers: usize) -> Self {
        let states = specs
            .iter()
            .map(|spec| match *spec {
                WatchdogSpec::ThermalViolation { .. } => DetectorState::Thermal { latched: false },
                WatchdogSpec::WaxStall { .. } => DetectorState::WaxStall {
                    last_melt: vec![f64::NAN; num_servers],
                    stalled: vec![0; num_servers],
                    latched: vec![false; num_servers],
                },
                WatchdogSpec::QosSpill { window_ticks, .. } => DetectorState::QosSpill {
                    window: vec![0; window_ticks.max(1) as usize],
                    cursor: 0,
                    sum: 0,
                    cooldown: 0,
                },
                WatchdogSpec::GroupThrash { window_ticks, .. } => DetectorState::GroupThrash {
                    window: vec![0; window_ticks.max(1) as usize],
                    cursor: 0,
                    sum: 0,
                    last_size: None,
                    cooldown: 0,
                },
            })
            .collect();
        Self {
            specs,
            states,
            fired: Vec::new(),
            anomalies_total: 0,
        }
    }

    /// Armed detector specs.
    pub fn specs(&self) -> &[WatchdogSpec] {
        &self.specs
    }

    /// Anomalies fired over the whole run.
    pub fn anomalies_total(&self) -> u64 {
        self.anomalies_total
    }

    /// Evaluates every detector against one tick of state and returns
    /// the anomalies that fired this tick (usually none — the returned
    /// slice borrows an internal buffer reused across ticks).
    pub fn observe(&mut self, state: &TickState<'_>) -> &[AnomalyEvent] {
        self.fired.clear();
        for (spec, det) in self.specs.iter().zip(self.states.iter_mut()) {
            match (*spec, det) {
                (
                    WatchdogSpec::ThermalViolation { red_line_c },
                    DetectorState::Thermal { latched },
                ) => {
                    let mut worst: Option<(usize, f64)> = None;
                    for (i, &air) in state.air_c.iter().enumerate() {
                        if air > red_line_c && worst.is_none_or(|(_, w)| air > w) {
                            worst = Some((i, air));
                        }
                    }
                    match worst {
                        Some((server, air)) => {
                            if !*latched {
                                *latched = true;
                                self.fired.push(AnomalyEvent {
                                    tick: state.tick,
                                    watchdog: WatchdogKind::ThermalViolation,
                                    server: Some(server as u64),
                                    value: air,
                                    threshold: red_line_c,
                                    detail: format!(
                                        "server {server} at {air:.2} °C crossed the \
                                         {red_line_c:.2} °C red-line"
                                    ),
                                });
                            }
                        }
                        None => *latched = false,
                    }
                }
                (
                    WatchdogSpec::WaxStall {
                        window_ticks,
                        air_above_c,
                    },
                    DetectorState::WaxStall {
                        last_melt,
                        stalled,
                        latched,
                    },
                ) => {
                    let hot = state.hot_group_size.unwrap_or(0) as usize;
                    for i in 0..state.reported_melt.len().min(last_melt.len()) {
                        let melt = state.reported_melt[i];
                        let loaded = state.used_cores[i] > 0;
                        let mid_transition = melt > 0.0 && melt < 1.0;
                        let in_hot = i < hot;
                        let unchanged = melt == last_melt[i];
                        if in_hot
                            && loaded
                            && mid_transition
                            && unchanged
                            && state.air_c[i] > air_above_c
                        {
                            stalled[i] += 1;
                            if u64::from(stalled[i]) >= window_ticks && !latched[i] {
                                latched[i] = true;
                                self.fired.push(AnomalyEvent {
                                    tick: state.tick,
                                    watchdog: WatchdogKind::WaxStall,
                                    server: Some(i as u64),
                                    value: f64::from(stalled[i]),
                                    threshold: window_ticks as f64,
                                    detail: format!(
                                        "hot server {i} loaded at {:.2} °C but melt stuck at \
                                         {melt:.3} for {} ticks",
                                        state.air_c[i], stalled[i]
                                    ),
                                });
                            }
                        } else {
                            stalled[i] = 0;
                            latched[i] = false;
                        }
                        last_melt[i] = melt;
                    }
                }
                (
                    WatchdogSpec::QosSpill {
                        window_ticks,
                        max_spills,
                    },
                    DetectorState::QosSpill {
                        window,
                        cursor,
                        sum,
                        cooldown,
                    },
                ) => {
                    *sum -= window[*cursor];
                    window[*cursor] = state.spills_delta;
                    *sum += state.spills_delta;
                    *cursor = (*cursor + 1) % window.len();
                    if *cooldown > 0 {
                        *cooldown -= 1;
                    } else if *sum > max_spills {
                        *cooldown = window_ticks.max(1);
                        self.fired.push(AnomalyEvent {
                            tick: state.tick,
                            watchdog: WatchdogKind::QosSpill,
                            server: None,
                            value: *sum as f64,
                            threshold: max_spills as f64,
                            detail: format!(
                                "{sum} spills in the last {window_ticks} ticks \
                                 (threshold {max_spills})",
                            ),
                        });
                    }
                }
                (
                    WatchdogSpec::GroupThrash {
                        window_ticks,
                        max_resizes,
                    },
                    DetectorState::GroupThrash {
                        window,
                        cursor,
                        sum,
                        last_size,
                        cooldown,
                    },
                ) => {
                    let resized = match (*last_size, state.hot_group_size) {
                        (Some(prev), Some(cur)) => u64::from(prev != cur),
                        _ => 0,
                    };
                    *last_size = state.hot_group_size;
                    *sum -= window[*cursor];
                    window[*cursor] = resized;
                    *sum += resized;
                    *cursor = (*cursor + 1) % window.len();
                    if *cooldown > 0 {
                        *cooldown -= 1;
                    } else if *sum >= max_resizes {
                        *cooldown = window_ticks.max(1);
                        self.fired.push(AnomalyEvent {
                            tick: state.tick,
                            watchdog: WatchdogKind::GroupThrash,
                            server: None,
                            value: *sum as f64,
                            threshold: max_resizes as f64,
                            detail: format!(
                                "hot group resized {sum} times in the last {window_ticks} \
                                 ticks (threshold {max_resizes})",
                            ),
                        });
                    }
                }
                _ => unreachable!("spec/state built together"),
            }
        }
        self.anomalies_total += self.fired.len() as u64;
        &self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state<'a>(
        tick: u64,
        air: &'a [f64],
        melt: &'a [f64],
        used: &'a [u32],
        hot: Option<u64>,
        spills: u64,
    ) -> TickState<'a> {
        TickState {
            tick,
            air_c: air,
            reported_melt: melt,
            used_cores: used,
            hot_group_size: hot,
            spills_delta: spills,
        }
    }

    #[test]
    fn thermal_violation_fires_once_per_excursion() {
        let mut set =
            WatchdogSet::new(vec![WatchdogSpec::ThermalViolation { red_line_c: 45.0 }], 2);
        let melt = [0.5, 0.5];
        let used = [32, 32];
        let hot = Some(2);
        // Below red-line: quiet.
        assert!(set
            .observe(&state(1, &[40.0, 41.0], &melt, &used, hot, 0))
            .is_empty());
        // Crossing fires once, names the hottest server.
        let fired = set.observe(&state(2, &[46.0, 47.5], &melt, &used, hot, 0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].watchdog, WatchdogKind::ThermalViolation);
        assert_eq!(fired[0].server, Some(1));
        assert!((fired[0].value - 47.5).abs() < 1e-12);
        // Still above: latched, no repeat.
        assert!(set
            .observe(&state(3, &[48.0, 48.0], &melt, &used, hot, 0))
            .is_empty());
        // Clears, then a new excursion fires again.
        assert!(set
            .observe(&state(4, &[40.0, 40.0], &melt, &used, hot, 0))
            .is_empty());
        assert_eq!(
            set.observe(&state(5, &[46.0, 40.0], &melt, &used, hot, 0))
                .len(),
            1
        );
        assert_eq!(set.anomalies_total(), 2);
    }

    #[test]
    fn wax_stall_needs_load_heat_and_a_full_window() {
        let mut set = WatchdogSet::new(
            vec![WatchdogSpec::WaxStall {
                window_ticks: 3,
                air_above_c: 36.0,
            }],
            1,
        );
        let air = [38.0];
        let used = [22]; // loaded
        let melt = [0.4];
        // First observation sets the baseline; then three unchanged ticks.
        assert!(set
            .observe(&state(1, &air, &melt, &used, Some(1), 0))
            .is_empty());
        assert!(set
            .observe(&state(2, &air, &melt, &used, Some(1), 0))
            .is_empty());
        assert!(set
            .observe(&state(3, &air, &melt, &used, Some(1), 0))
            .is_empty());
        let fired = set.observe(&state(4, &air, &melt, &used, Some(1), 0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].watchdog, WatchdogKind::WaxStall);
        // Latched: no refire while still stalled.
        assert!(set
            .observe(&state(5, &air, &melt, &used, Some(1), 0))
            .is_empty());
        // Melt moves: stall clears.
        let moved = [0.41];
        assert!(set
            .observe(&state(6, &air, &moved, &used, Some(1), 0))
            .is_empty());
    }

    #[test]
    fn wax_stall_ignores_idle_cold_or_completed_servers() {
        let mut set = WatchdogSet::new(
            vec![WatchdogSpec::WaxStall {
                window_ticks: 2,
                air_above_c: 36.0,
            }],
            3,
        );
        let air = [38.0, 38.0, 38.0];
        // Server 0 fully melted, server 1 idle, server 2 outside the hot
        // group — none may fire.
        let melt = [1.0, 0.5, 0.5];
        let used = [32, 0, 32];
        for tick in 1..10 {
            assert!(set
                .observe(&state(tick, &air, &melt, &used, Some(2), 0))
                .is_empty());
        }
    }

    #[test]
    fn qos_spill_watches_a_sliding_window_with_cooldown() {
        let mut set = WatchdogSet::new(
            vec![WatchdogSpec::QosSpill {
                window_ticks: 4,
                max_spills: 10,
            }],
            1,
        );
        let air = [30.0];
        let melt = [0.0];
        let used = [0];
        assert!(set
            .observe(&state(1, &air, &melt, &used, None, 5))
            .is_empty());
        assert!(set
            .observe(&state(2, &air, &melt, &used, None, 5))
            .is_empty());
        // Window sum hits 11 > 10.
        let fired = set.observe(&state(3, &air, &melt, &used, None, 1));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].value, 11.0);
        // Cooldown suppresses immediate refire even though the sum stays
        // high.
        assert!(set
            .observe(&state(4, &air, &melt, &used, None, 5))
            .is_empty());
    }

    #[test]
    fn group_thrash_counts_resizes_in_window() {
        let mut set = WatchdogSet::new(
            vec![WatchdogSpec::GroupThrash {
                window_ticks: 6,
                max_resizes: 3,
            }],
            1,
        );
        let air = [30.0];
        let melt = [0.0];
        let used = [0];
        // Oscillate 10 <-> 11 every tick; third resize fires.
        let sizes = [10u64, 11, 10, 11, 10];
        let mut fired_at = None;
        for (i, &s) in sizes.iter().enumerate() {
            let fired = set.observe(&state(i as u64 + 1, &air, &melt, &used, Some(s), 0));
            if !fired.is_empty() && fired_at.is_none() {
                fired_at = Some(i as u64 + 1);
                assert_eq!(fired[0].watchdog, WatchdogKind::GroupThrash);
            }
        }
        assert_eq!(fired_at, Some(4), "third resize lands at tick 4");
    }

    #[test]
    fn default_set_arms_all_four() {
        let set = WatchdogSet::new(WatchdogSpec::default_set(), 4);
        let kinds: Vec<WatchdogKind> = set.specs().iter().map(|s| s.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                WatchdogKind::ThermalViolation,
                WatchdogKind::WaxStall,
                WatchdogKind::QosSpill,
                WatchdogKind::GroupThrash
            ]
        );
    }

    #[test]
    fn anomaly_event_round_trips_through_json() {
        let event = AnomalyEvent {
            tick: 99,
            watchdog: WatchdogKind::QosSpill,
            server: None,
            value: 42.0,
            threshold: 10.0,
            detail: "42 spills".into(),
        };
        let line = serde_json::to_string(&event).unwrap();
        let back: AnomalyEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }
}
