//! The deterministic placement trace: record a run's full
//! placement-decision stream, then re-drive the simulation from it.
//!
//! The trace is the recorder's correctness proof. A `record`ed run logs
//! every placement decision (which server, or a drop) in arrival order,
//! a compact per-tick digest of cluster state, and a final-state digest.
//! A `replay` rebuilds the same cluster and workload from the header,
//! bypasses the policy entirely — decisions come straight off the trace
//! — and recomputes the digests. Bit-identical digests at every tick and
//! at the end prove the trace captured *everything* that influenced the
//! run; the first mismatching tick localizes a divergence for bisection
//! (`replay --until`).
//!
//! This module owns the trace data model and file format (JSONL:
//! header, one line per tick, footer). The scheduler wrappers that
//! produce and consume traces live in `vmt-dcsim`.

/// Version stamp written into [`TraceHeader`] lines.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// An order-sensitive FNV-1a hasher for simulation state.
///
/// Deterministic across platforms and thread counts (the engine's state
/// is deterministic; hashing is sequential over the canonical server
/// order). `f64`s are hashed by their raw bits so the digest is exactly
/// as strict as the engine's own bit-identity guarantee.
#[derive(Debug, Clone)]
pub struct StateHasher(u64);

impl StateHasher {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest (e.g. a serialized container
    /// payload).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `u64` into the digest, byte by byte.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Folds one `f64` in by its raw bits.
    #[inline]
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// First line of a placement trace: everything needed to rebuild the
/// run (paper-default cluster shapes, like `vmt-experiments run`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceHeader {
    /// Schema version ([`TRACE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Policy label the decisions came from (informational — replay
    /// bypasses the policy).
    pub policy: String,
    /// Cluster size.
    pub servers: u64,
    /// Trace horizon in simulated hours.
    pub hours: f64,
    /// Cluster seed (duration jitter, arrival shuffle).
    pub cluster_seed: u64,
    /// Workload-trace seed.
    pub trace_seed: u64,
    /// Tick length in simulated seconds.
    pub tick_seconds: f64,
    /// Planned tick count.
    pub ticks: u64,
}

/// One tick of the trace: the pre-placement state digest, the hot-group
/// size the policy reported, and the tick's placement decisions in
/// arrival order (`server index`, or `-1` for a drop).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TickTrace {
    /// Tick index (0-based).
    pub t: u64,
    /// Digest of cluster state at the scheduler's tick boundary (after
    /// departures, before placements).
    pub digest: u64,
    /// Hot-group size the policy reported this tick, if any.
    pub hot: Option<u32>,
    /// Placement decisions, one per arriving job in arrival order.
    pub decisions: Vec<i32>,
}

/// Last line of a placement trace: end-of-run ground truth.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceFooter {
    /// Successful placements over the run.
    pub placements: u64,
    /// Dropped jobs over the run.
    pub dropped_jobs: u64,
    /// Digest of the final farm + result state.
    pub final_digest: u64,
    /// Ticks actually executed.
    pub ticks_run: u64,
}

/// One line of the trace file.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TraceLine {
    /// Run parameters (always first).
    Header(TraceHeader),
    /// One tick's digest + decisions.
    Tick(TickTrace),
    /// End-of-run ground truth (always last).
    Footer(TraceFooter),
}

/// A fully parsed placement trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementTrace {
    /// Run parameters.
    pub header: TraceHeader,
    /// Per-tick digests and decisions, indexed by tick.
    pub ticks: Vec<TickTrace>,
    /// End-of-run ground truth.
    pub footer: TraceFooter,
}

impl PlacementTrace {
    /// Serializes the trace as JSONL (header line, tick lines, footer
    /// line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: &TraceLine| {
            out.push_str(&serde_json::to_string(line).expect("trace lines serialize"));
            out.push('\n');
        };
        push(&mut out, &TraceLine::Header(self.header.clone()));
        for tick in &self.ticks {
            push(&mut out, &TraceLine::Tick(tick.clone()));
        }
        push(&mut out, &TraceLine::Footer(self.footer.clone()));
        out
    }

    /// Parses and validates a JSONL trace: header first, footer last,
    /// tick lines contiguous from 0, decision counts consistent with the
    /// footer's totals.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut header: Option<TraceHeader> = None;
        let mut footer: Option<TraceFooter> = None;
        let mut ticks: Vec<TickTrace> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed: TraceLine = serde_json::from_str(line)
                .map_err(|e| format!("line {}: not a trace line: {e:?}", lineno + 1))?;
            if footer.is_some() {
                return Err(format!("line {}: line after Footer", lineno + 1));
            }
            match parsed {
                TraceLine::Header(h) => {
                    if header.is_some() {
                        return Err(format!("line {}: duplicate Header", lineno + 1));
                    }
                    if h.schema_version != TRACE_SCHEMA_VERSION {
                        return Err(format!(
                            "unsupported trace schema version {} (expected {TRACE_SCHEMA_VERSION})",
                            h.schema_version
                        ));
                    }
                    if h.servers == 0 {
                        return Err(format!("line {}: Header names 0 servers", lineno + 1));
                    }
                    header = Some(h);
                }
                TraceLine::Tick(t) => {
                    if header.is_none() {
                        return Err(format!("line {}: Tick before Header", lineno + 1));
                    }
                    if t.t != ticks.len() as u64 {
                        return Err(format!(
                            "line {}: tick {} out of order (expected {})",
                            lineno + 1,
                            t.t,
                            ticks.len()
                        ));
                    }
                    ticks.push(t);
                }
                TraceLine::Footer(f) => footer = Some(f),
            }
        }
        let header = header.ok_or_else(|| "trace has no Header".to_string())?;
        let footer = footer.ok_or_else(|| "trace has no Footer (truncated?)".to_string())?;
        if ticks.len() as u64 != footer.ticks_run {
            return Err(format!(
                "footer claims {} ticks, trace has {}",
                footer.ticks_run,
                ticks.len()
            ));
        }
        let placed: u64 = ticks
            .iter()
            .map(|t| t.decisions.iter().filter(|&&d| d >= 0).count() as u64)
            .sum();
        let dropped: u64 = ticks
            .iter()
            .map(|t| t.decisions.iter().filter(|&&d| d < 0).count() as u64)
            .sum();
        if placed != footer.placements || dropped != footer.dropped_jobs {
            return Err(format!(
                "footer totals ({} placed, {} dropped) disagree with decisions \
                 ({placed} placed, {dropped} dropped)",
                footer.placements, footer.dropped_jobs
            ));
        }
        Ok(Self {
            header,
            ticks,
            footer,
        })
    }

    /// Total decisions across all ticks.
    pub fn decision_count(&self) -> u64 {
        self.ticks.iter().map(|t| t.decisions.len() as u64).sum()
    }
}

/// The verdict of comparing a replayed run against its trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayVerdict {
    /// Every compared digest matched — the trace is complete.
    BitIdentical {
        /// Ticks whose digests were compared.
        ticks_compared: u64,
    },
    /// A digest mismatched; the earliest divergent tick localizes the
    /// incompleteness for bisection.
    Diverged {
        /// First tick whose digest differed.
        first_tick: u64,
        /// Digest the trace recorded.
        expected: u64,
        /// Digest the replay computed.
        actual: u64,
    },
}

impl ReplayVerdict {
    /// True for [`ReplayVerdict::BitIdentical`].
    pub fn is_identical(&self) -> bool {
        matches!(self, ReplayVerdict::BitIdentical { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> PlacementTrace {
        PlacementTrace {
            header: TraceHeader {
                schema_version: TRACE_SCHEMA_VERSION,
                policy: "vmt-wa".into(),
                servers: 4,
                hours: 1.0,
                cluster_seed: 7,
                trace_seed: 11,
                tick_seconds: 60.0,
                ticks: 2,
            },
            ticks: vec![
                TickTrace {
                    t: 0,
                    digest: 0xDEAD,
                    hot: Some(2),
                    decisions: vec![0, 1, -1],
                },
                TickTrace {
                    t: 1,
                    digest: 0xBEEF,
                    hot: Some(2),
                    decisions: vec![3],
                },
            ],
            footer: TraceFooter {
                placements: 3,
                dropped_jobs: 1,
                final_digest: 0xF00D,
                ticks_run: 2,
            },
        }
    }

    #[test]
    fn round_trips_through_jsonl() {
        let t = trace();
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 4);
        let back = PlacementTrace::parse(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.decision_count(), 4);
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let text = trace().to_jsonl();
        let without_footer: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        let err = PlacementTrace::parse(&without_footer).unwrap_err();
        assert!(err.contains("no Footer"), "got: {err}");
    }

    #[test]
    fn out_of_order_ticks_are_rejected() {
        let mut t = trace();
        t.ticks[1].t = 5;
        let err = PlacementTrace::parse(&t.to_jsonl()).unwrap_err();
        assert!(err.contains("out of order"), "got: {err}");
    }

    #[test]
    fn inconsistent_footer_totals_are_rejected() {
        let mut t = trace();
        t.footer.placements = 99;
        let err = PlacementTrace::parse(&t.to_jsonl()).unwrap_err();
        assert!(err.contains("disagree"), "got: {err}");
    }

    #[test]
    fn zero_server_header_is_rejected() {
        let mut t = trace();
        t.header.servers = 0;
        let err = PlacementTrace::parse(&t.to_jsonl()).unwrap_err();
        assert!(err.contains("0 servers"), "got: {err}");
    }

    #[test]
    fn corrupted_line_reports_its_number() {
        let mut text = trace().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        text = format!("{}\n{{corrupt}}\n{}\n{}\n", lines[0], lines[2], lines[3]);
        let err = PlacementTrace::parse(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "got: {err}");
    }

    #[test]
    fn hasher_is_order_sensitive_and_stable() {
        let mut a = StateHasher::new();
        a.write_f64(1.0);
        a.write_f64(2.0);
        let mut b = StateHasher::new();
        b.write_f64(2.0);
        b.write_f64(1.0);
        assert_ne!(a.finish(), b.finish());
        let mut c = StateHasher::new();
        c.write_f64(1.0);
        c.write_f64(2.0);
        assert_eq!(a.finish(), c.finish());
        // Pinned value: the digest is part of the on-disk trace format,
        // so an accidental hasher change must fail a test.
        let mut pinned = StateHasher::new();
        pinned.write_u64(42);
        assert_eq!(pinned.finish(), 0xff3a_dd6b_3789_daef);
    }

    #[test]
    fn verdict_helpers() {
        assert!(ReplayVerdict::BitIdentical { ticks_compared: 10 }.is_identical());
        assert!(!ReplayVerdict::Diverged {
            first_tick: 3,
            expected: 1,
            actual: 2
        }
        .is_identical());
    }
}
