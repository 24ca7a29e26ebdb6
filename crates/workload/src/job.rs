//! Jobs: the unit of placement.

use crate::WorkloadKind;
use vmt_units::{Seconds, Watts};

/// Unique identifier of a job within one simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct JobId(pub u64);

impl core::fmt::Display for JobId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A schedulable unit of work occupying one core for a bounded duration.
///
/// The paper's jobs "are assigned separate physical cores and never share
/// SMT contexts", so one job = one core is the natural granularity; a
/// request stream that needs N cores appears as N concurrent jobs.
///
/// # Examples
///
/// ```
/// use vmt_workload::{Job, JobId, WorkloadKind};
/// use vmt_units::Seconds;
///
/// let job = Job::new(JobId(1), WorkloadKind::WebSearch, Seconds::new(300.0));
/// assert!(job.core_power().get() > 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Job {
    id: JobId,
    kind: WorkloadKind,
    /// Engine tick the job departs at; sits in the padding after `kind`,
    /// so a job stays 24 bytes.
    due_tick: u32,
    duration: Seconds,
}

impl Job {
    /// Due tick of a job no engine has scheduled a departure for: it
    /// runs until something ends it by id.
    pub const NEVER_DUE: u32 = u32::MAX;

    /// Creates a job, due [`Job::NEVER_DUE`].
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive and finite.
    pub fn new(id: JobId, kind: WorkloadKind, duration: Seconds) -> Self {
        assert!(
            duration.get() > 0.0 && duration.get().is_finite(),
            "job duration must be positive and finite, got {duration}"
        );
        Self {
            id,
            kind,
            due_tick: Self::NEVER_DUE,
            duration,
        }
    }

    /// Replaces the job's identifier (engines stamp ids in final
    /// arrival order after shuffling a pre-materialized batch).
    #[inline]
    pub fn set_id(&mut self, id: JobId) {
        self.id = id;
    }

    /// Sets the engine tick the job departs at (stamped with its id).
    #[inline]
    pub fn set_due_tick(&mut self, tick: u32) {
        self.due_tick = tick;
    }

    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The engine tick the job departs at; [`Job::NEVER_DUE`] until an
    /// engine stamps one.
    #[inline]
    pub fn due_tick(&self) -> u32 {
        self.due_tick
    }

    /// The workload the job belongs to.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// How long the job occupies its core.
    pub fn duration(&self) -> Seconds {
        self.duration
    }

    /// The job's per-core power draw while running.
    pub fn core_power(&self) -> Watts {
        self.kind.core_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let job = Job::new(JobId(7), WorkloadKind::Clustering, Seconds::new(720.0));
        assert_eq!(job.id(), JobId(7));
        assert_eq!(job.kind(), WorkloadKind::Clustering);
        assert_eq!(job.duration(), Seconds::new(720.0));
        assert_eq!(job.core_power(), WorkloadKind::Clustering.core_power());
        assert_eq!(job.due_tick(), Job::NEVER_DUE);
    }

    #[test]
    fn due_tick_rides_in_padding() {
        let mut job = Job::new(JobId(7), WorkloadKind::WebSearch, Seconds::new(60.0));
        job.set_due_tick(42);
        assert_eq!(job.due_tick(), 42);
        assert_eq!(std::mem::size_of::<Job>(), 24);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        Job::new(JobId(0), WorkloadKind::VirusScan, Seconds::new(0.0));
    }

    #[test]
    fn display() {
        assert_eq!(JobId(42).to_string(), "job#42");
    }
}
