//! Recorded outputs: the default seed (1) and the held-out seed (1009)
//! of each seeded workload, and `repro`'s figures.
//!
//! Every run prints a `reference:` line with its outputs in this form
//! (and `repro` a `repro bars:` line). `checkpoint-100k` runs the
//! `place-100k` slice to its end, so it is checked against the
//! `place-100k` entries.

use crate::checks::{Outputs, Reference};

/// Recorded outputs by workload and seed.
pub const REFERENCES: &[Reference] = &[
    Reference {
        workload: "place-100k",
        seed: 1,
        outputs: Outputs {
            placements: 14246755,
            dropped: 0,
            digest: 0x5a4b5b7785db5c60,
            peak_cooling_w: 20862431.422690608,
        },
    },
    Reference {
        workload: "place-100k",
        seed: 1009,
        outputs: Outputs {
            placements: 14015513,
            dropped: 0,
            digest: 0x1ca4b02cd58b310d,
            peak_cooling_w: 20688961.401369277,
        },
    },
    Reference {
        workload: "observe-10k",
        seed: 1,
        outputs: Outputs {
            placements: 9493583,
            dropped: 0,
            digest: 0xa424fe31f1545d8b,
            peak_cooling_w: 2041023.6584295342,
        },
    },
    Reference {
        workload: "observe-10k",
        seed: 1009,
        outputs: Outputs {
            placements: 9495469,
            dropped: 0,
            digest: 0x33b8d51d68e96cf0,
            peak_cooling_w: 2036166.6778187498,
        },
    },
    Reference {
        workload: "repro",
        seed: 0,
        outputs: Outputs {
            placements: 67715810,
            dropped: 0,
            digest: 0x4ae40bb30bb6e894,
            peak_cooling_w: 233107.27310328203,
        },
    },
];

/// `repro`'s bars: Figure 13 and Figure 16 (RR, CF, GV 20/22/24), then
/// Figure 18's (VMT-TA, VMT-WA) pairs for GV 10 to 30.
#[rustfmt::skip]
pub const REPRO_BARS: [f64; 32] = [
    0.0, -0.13195091906135215, 1.3855714050291623, 12.62469167879936, 9.796243025994356,
    0.0, -0.13195091906135215, 2.447614813396193, 12.62469167879936, 9.796243025994332,
    -0.03909847478904549, 3.456732195368517,
    -0.027141213929282593, 3.224174874504271,
    0.23382829169225072, 3.361840692929563,
    0.6060286761836897, 3.326397709380846,
    0.6778775347061505, 2.705801349325865,
    1.5937032602361678, 2.8040415908563876,
    12.527708751731303, 12.527708751731303,
    10.000037387794125, 10.000037387794091,
    7.506824863401107, 7.51254234033889,
    5.5017238671061115, 5.71920471507984,
    3.3094838141399574, 3.9141797844321813,
];
