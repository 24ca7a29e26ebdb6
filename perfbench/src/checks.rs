//! Output checks and their failure accounting.
//!
//! A mismatch is counted, reported on stderr and the run goes on: the
//! result line carries `attempted` and `failed`, and `fail_ratio` is their
//! quotient. Nothing here panics on a wrong output.

use std::fmt::Debug;

/// Checks attempted and failed in one benchmark run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts one equality check.
    pub fn equal<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(&format!("{what}: got {got:?}, want {want:?}"), ok);
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed checks over checks attempted (0 when none were attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The outputs every workload checks: what one simulated run produced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Outputs {
    /// Jobs placed.
    pub placements: u64,
    /// Jobs the cluster could not hold.
    pub dropped: u64,
    /// `Simulation::state_digest` after the last tick (on `repro`, a
    /// digest of every figure's outputs).
    pub digest: u64,
    /// Peak cluster cooling load (W).
    pub peak_cooling_w: f64,
}

/// Recorded outputs of one workload at one seed.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed (ignored by `repro`).
    pub seed: u64,
    /// The outputs recorded for it.
    pub outputs: Outputs,
}

impl Reference {
    /// The line a run prints so its outputs can be recorded as a reference.
    pub fn line(workload: &str, seed: u64, outputs: &Outputs) -> String {
        format!(
            "Reference {{ workload: {workload:?}, seed: {seed}, outputs: Outputs {{ \
             placements: {}, dropped: {}, digest: {:#018x}, peak_cooling_w: {:?} }} }},",
            outputs.placements, outputs.dropped, outputs.digest, outputs.peak_cooling_w
        )
    }
}

/// Checks that hold on every seed, then the recorded reference when
/// `references` has one for this workload and seed.
pub fn check_outputs(
    checks: &mut Checks,
    workload: &str,
    seed: u64,
    outputs: &Outputs,
    references: &[Reference],
) {
    checks.check(
        &format!("{workload}: jobs were placed ({})", outputs.placements),
        outputs.placements > 0,
    );
    checks.equal(&format!("{workload}: dropped jobs"), outputs.dropped, 0);
    checks.check(
        &format!(
            "{workload}: peak cooling {} W is positive and finite",
            outputs.peak_cooling_w
        ),
        outputs.peak_cooling_w.is_finite() && outputs.peak_cooling_w > 0.0,
    );
    if let Some(reference) = references
        .iter()
        .find(|r| r.workload == workload && r.seed == seed)
    {
        let want = &reference.outputs;
        checks.equal(
            &format!("{workload} seed {seed}: placements vs reference"),
            outputs.placements,
            want.placements,
        );
        checks.equal(
            &format!("{workload} seed {seed}: dropped vs reference"),
            outputs.dropped,
            want.dropped,
        );
        checks.equal(
            &format!("{workload} seed {seed}: digest vs reference"),
            format!("{:#018x}", outputs.digest),
            format!("{:#018x}", want.digest),
        );
        checks.equal(
            &format!("{workload} seed {seed}: peak cooling W vs reference"),
            outputs.peak_cooling_w.to_bits(),
            want.peak_cooling_w.to_bits(),
        );
    }
}

/// FNV-1a over 64-bit words: the digest `repro` takes of its outputs.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: Outputs = Outputs {
        placements: 1000,
        dropped: 0,
        digest: 0xfeed,
        peak_cooling_w: 1.5e6,
    };

    fn reference(outputs: Outputs) -> [Reference; 1] {
        [Reference {
            workload: "place-100k",
            seed: 7,
            outputs,
        }]
    }

    #[test]
    fn matching_outputs_fail_nothing() {
        let mut checks = Checks::default();
        check_outputs(&mut checks, "place-100k", 7, &GOOD, &reference(GOOD));
        assert_eq!(checks.attempted(), 7);
        assert_eq!(checks.failed(), 0);
        assert_eq!(checks.fail_ratio(), 0.0);
    }

    #[test]
    fn injected_digest_mismatch_raises_fail_ratio() {
        let mut checks = Checks::default();
        let injected = Outputs {
            digest: GOOD.digest ^ 1,
            ..GOOD
        };
        check_outputs(&mut checks, "place-100k", 7, &injected, &reference(GOOD));
        assert_eq!(checks.failed(), 1);
        assert!((checks.fail_ratio() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn other_seeds_skip_the_reference_but_not_the_invariants() {
        let mut checks = Checks::default();
        let dropped = Outputs { dropped: 3, ..GOOD };
        check_outputs(&mut checks, "place-100k", 8, &dropped, &reference(GOOD));
        assert_eq!(checks.attempted(), 3);
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn reference_line_round_trips_the_peak() {
        let line = Reference::line("repro", 0, &GOOD);
        assert!(line.contains("digest: 0x000000000000feed"));
        assert!(line.contains("peak_cooling_w: 1500000.0"));
    }
}
