//! The farm split at a hot/cold edge into two disjoint group views, so a
//! two-group policy can place each group's jobs at the same time.
//!
//! [`ServerFarm::place_groups`] cuts every lane a placement writes — the
//! job-table anchors and counts and the power lane — at the edge server,
//! and hands each side to one
//! closure as a [`GroupView`]. The only structure both sides would share
//! is the job-page pool of the shard that contains the edge: appends to
//! it are deferred while the groups run and replayed in arrival order
//! afterwards, so page numbering, digests and snapshot bytes match a
//! serial placement of the same jobs in arrival order.

use super::{append_job, prefetch, run_pair, tick_fan_out, JobPool, ServerFarm, SHARD};
use crate::server::ServerId;
use std::marker::PhantomData;
use vmt_thermal::AirStream;
use vmt_units::{Celsius, Watts};
use vmt_workload::{Job, VmtClass};

/// A job-table append to the edge shard's page pool, held back until
/// both groups finished (see the module docs). At most one per free core
/// of the edge shard, so the buffers never grow with the batch.
#[derive(Debug, Clone, Copy)]
struct DeferredAppend {
    /// Arrival position of the job in the placed batch.
    pos: usize,
    server: usize,
    /// The server's chain length before this append.
    len: usize,
    /// Id delta, due tick and workload byte of the appended slot.
    entry: (u32, u32, u8),
}

/// Write access to the slots of the batch's outcome slice that belong
/// to one group's jobs.
///
/// Both group views hold a copy; a view writes slot `pos` only after
/// checking that job `pos` is of its own class, and the two views have
/// different classes, so no slot is ever written by both.
#[derive(Clone, Copy)]
struct Outcomes<'a> {
    ptr: *mut Option<ServerId>,
    _out: PhantomData<&'a mut [Option<ServerId>]>,
}

// SAFETY: writes through `ptr` go to class-disjoint slots of an
// exclusively borrowed slice (see the type docs).
unsafe impl Send for Outcomes<'_> {}

/// One thermal group's disjoint window over the farm: the hot
/// group's servers `..edge` or the cold group's `edge..`, addressed by
/// global server id.
///
/// A view reads free cores, power and inlet of its own servers and
/// starts jobs on them; it never sees the other group's servers, which
/// is what lets the two groups run on two threads without locks.
pub struct GroupView<'a> {
    /// Global id of the first server in the view.
    start: usize,
    class: VmtClass,
    id_base: u64,
    /// Cores per server (uniform across the farm).
    cores: u32,
    idle_w: f64,
    air: AirStream,
    inlet_c: &'a [f64],
    active_power_w: &'a mut [f64],
    job_heads: &'a mut [u32],
    job_tails: &'a mut [u32],
    job_counts: &'a mut [u32],
    /// Page pools of the shards wholly inside the view; `pools[k]`
    /// belongs to shard `first_shard + k`.
    pools: &'a mut [JobPool],
    first_shard: usize,
    /// The edge shard both views touch (`usize::MAX` when the edge is
    /// shard-aligned); its appends go to `deferred`.
    shared_shard: usize,
    /// The view and its deferred appends live on the stack of the
    /// thread running the group, so the two groups never write a shared
    /// cache line per job.
    deferred: Vec<DeferredAppend>,
    jobs: &'a [Job],
    outcomes: Outcomes<'a>,
}

impl<'a> GroupView<'a> {
    /// The batch prefix the groups place; positions index into it.
    pub fn jobs(&self) -> &'a [Job] {
        self.jobs
    }

    /// The class of jobs this view places.
    pub fn class(&self) -> VmtClass {
        self.class
    }

    /// Free cores of server `idx`; equals [`ServerFarm::free_cores`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the view.
    #[inline]
    pub fn free_cores(&self, idx: usize) -> u32 {
        self.cores - self.job_counts[idx - self.start]
    }

    /// Current electrical power draw of server `idx`; equals
    /// [`ServerFarm::power`].
    #[inline]
    pub fn power(&self, idx: usize) -> Watts {
        Watts::new(self.idle_w) + Watts::new(self.active_power_w[idx - self.start])
    }

    /// Inlet temperature of server `idx`.
    #[inline]
    pub fn inlet(&self, idx: usize) -> Celsius {
        Celsius::new(self.inlet_c[idx - self.start])
    }

    /// The cooling air stream (uniform across the farm).
    pub fn air(&self) -> AirStream {
        self.air
    }

    /// Starts job `pos` of [`GroupView::jobs`] on server `idx` — the
    /// farm's `start_job` on the view's lanes — and records the outcome
    /// in slot `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the job is not of the view's class, if `idx` is outside
    /// the view, or if the server is full.
    #[inline]
    pub fn start_job(&mut self, pos: usize, idx: usize) {
        let job = &self.jobs[pos];
        assert!(
            job.kind().vmt_class() == self.class,
            "{} placed through the {:?} group",
            job.id(),
            self.class
        );
        let local = idx - self.start;
        assert!(
            self.job_counts[local] < self.cores,
            "placement on a full {}",
            ServerId(idx)
        );
        // `place_groups` checked that every id of the batch fits the
        // table's 32-bit window.
        let entry = (
            (job.id().0 - self.id_base) as u32,
            job.due_tick(),
            job.kind().index() as u8,
        );
        let len = self.job_counts[local] as usize;
        let shard = idx / SHARD;
        if shard == self.shared_shard {
            self.deferred.push(DeferredAppend {
                pos,
                server: idx,
                len,
                entry,
            });
        } else {
            append_job(
                &mut self.pools[shard - self.first_shard],
                &mut self.job_heads[local],
                &mut self.job_tails[local],
                len,
                entry,
            );
        }
        self.job_counts[local] += 1;
        self.active_power_w[local] += job.core_power().get();
        // SAFETY: `pos` is in bounds (`jobs[pos]` above, and the slice
        // has one slot per job); the class check above makes the slot
        // this view's alone.
        unsafe { *self.outcomes.ptr.add(pos) = Some(ServerId(idx)) };
    }

    /// Hints the CPU to pull server `idx`'s placement lanes toward L1;
    /// see [`ServerFarm::prefetch_server`]. Ids outside the view are
    /// ignored.
    #[inline]
    pub fn prefetch_server(&self, idx: usize) {
        let Some(local) = idx.checked_sub(self.start) else {
            return;
        };
        let Some(tail) = self.job_tails.get(local) else {
            return;
        };
        prefetch(&self.job_heads[local]);
        prefetch(tail);
        prefetch(&self.job_counts[local]);
        prefetch(&self.active_power_w[local]);
        let shard = idx / SHARD;
        if *tail != super::NO_PAGE && shard != self.shared_shard {
            self.pools[shard - self.first_shard].prefetch_page(*tail);
        }
    }
}

impl ServerFarm {
    /// Places a batch prefix as two groups: splits the farm at server
    /// `edge` into the hot view `..edge` and the cold view
    /// `edge..`, and runs `hot` on the first and `cold` on the second.
    ///
    /// When the farm fans out ([`tick_fan_out`] ≥ 2) the two run at the
    /// same time on the tick pool, the calling thread taking `hot`;
    /// otherwise they run inline, `hot` first. Afterwards the edge
    /// shard's deferred appends are replayed in arrival order, so the
    /// farm ends exactly as if every started job had gone through
    /// [`ServerFarm::start_job`] in arrival order.
    ///
    /// Each view writes its jobs' outcomes into `out` (one slot per job
    /// of `jobs`) in place; slots of jobs a view does not start are left
    /// as they are.
    ///
    /// Returns `false` without running anything when an id of `jobs`
    /// falls outside the job table's 32-bit id window: starting it would
    /// rebase the table, which only [`ServerFarm::start_job`] does.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `jobs` differ in length, or if a closure
    /// panics (a view's own checks included).
    pub fn place_groups<H, C>(
        &mut self,
        edge: usize,
        jobs: &[Job],
        out: &mut [Option<ServerId>],
        hot: H,
        cold: C,
    ) -> bool
    where
        H: for<'v> FnOnce(&mut GroupView<'v>) + Send,
        C: for<'v> FnOnce(&mut GroupView<'v>) + Send,
    {
        assert_eq!(out.len(), jobs.len(), "one outcome slot per job");
        let id_base = self.id_base;
        let fits = |job: &Job| {
            job.id()
                .0
                .checked_sub(id_base)
                .is_some_and(|d| d <= u64::from(u32::MAX))
        };
        if !jobs.iter().all(fits) {
            return false;
        }
        if jobs.is_empty() {
            return true;
        }
        let n = self.len();
        let edge = edge.min(n);
        let fan_out = tick_fan_out(n, self.threads);
        if fan_out > 1 {
            self.ensure_pool();
        }
        let shared = !edge.is_multiple_of(SHARD) && edge < n;
        let hot_pools_end = if shared {
            edge / SHARD
        } else {
            edge.div_ceil(SHARD)
        };
        let cold_first_shard = hot_pools_end + usize::from(shared);
        let shared_shard = if shared { edge / SHARD } else { usize::MAX };

        let mut hot_done = None;
        let mut cold_done = None;
        {
            let outcomes = Outcomes {
                ptr: out.as_mut_ptr(),
                _out: PhantomData,
            };
            let (hot_inlet, cold_inlet) = self.inlet_c.split_at(edge);
            let (hot_power, cold_power) = self.active_power_w.split_at_mut(edge);
            let (hot_heads, cold_heads) = self.job_heads.split_at_mut(edge);
            let (hot_tails, cold_tails) = self.job_tails.split_at_mut(edge);
            let (hot_counts, cold_counts) = self.job_counts.split_at_mut(edge);
            let (hot_pools, rest) = self.pools.split_at_mut(hot_pools_end);
            let cold_pools = &mut rest[usize::from(shared)..];
            let idle_w = self.power_model.idle().get();
            let cores = self.power_model.cores();
            let mut hot_view = GroupView {
                start: 0,
                class: VmtClass::Hot,
                id_base,
                cores,
                idle_w,
                air: self.air,
                inlet_c: hot_inlet,
                active_power_w: hot_power,
                job_heads: hot_heads,
                job_tails: hot_tails,
                job_counts: hot_counts,
                pools: hot_pools,
                first_shard: 0,
                shared_shard,
                deferred: Vec::new(),
                jobs,
                outcomes,
            };
            let mut cold_view = GroupView {
                start: edge,
                class: VmtClass::Cold,
                id_base,
                cores,
                idle_w,
                air: self.air,
                inlet_c: cold_inlet,
                active_power_w: cold_power,
                job_heads: cold_heads,
                job_tails: cold_tails,
                job_counts: cold_counts,
                pools: cold_pools,
                first_shard: cold_first_shard,
                shared_shard,
                deferred: Vec::new(),
                jobs,
                outcomes,
            };
            let pool = if fan_out > 1 {
                self.pool.as_ref()
            } else {
                None
            };
            let (hot_done, cold_done) = (&mut hot_done, &mut cold_done);
            run_pair(
                pool,
                move || {
                    hot(&mut hot_view);
                    *hot_done = Some(hot_view.deferred);
                },
                move || {
                    cold(&mut cold_view);
                    *cold_done = Some(cold_view.deferred);
                },
            );
        }
        let hot_deferred = hot_done.expect("the hot group ran");
        let cold_deferred = cold_done.expect("the cold group ran");

        // Replay the edge shard's appends in arrival order.
        let (mut h, mut c) = (
            hot_deferred.iter().peekable(),
            cold_deferred.iter().peekable(),
        );
        loop {
            let next = match (h.peek(), c.peek()) {
                (Some(a), Some(b)) if a.pos < b.pos => h.next(),
                (Some(_), Some(_)) | (None, Some(_)) => c.next(),
                (Some(_), None) => h.next(),
                (None, None) => break,
            };
            let e = next.expect("peeked");
            append_job(
                &mut self.pools[e.server / SHARD],
                &mut self.job_heads[e.server],
                &mut self.job_tails[e.server],
                e.len,
                e.entry,
            );
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use vmt_units::Seconds;
    use vmt_workload::{JobId, WorkloadKind};

    /// The target server of job `pos` within `servers`: a fixed scatter
    /// that skips full servers (both paths see the same free cores).
    fn target(pos: usize, servers: std::ops::Range<usize>, free: impl Fn(usize) -> u32) -> usize {
        let len = servers.len();
        (0..len)
            .map(|k| servers.start + (pos * 7 + k) % len)
            .find(|&i| free(i) > 0)
            .expect("the group has a free core")
    }

    /// Splitting at an edge inside a shard and replaying that shard's
    /// appends leaves the job table, page pools included, exactly as
    /// serial `start_job` calls in arrival order leave it — on the pool
    /// and inline.
    #[test]
    fn group_views_match_serial_starts_page_for_page() {
        for threads in [1, 2] {
            for (n, edge) in [(200, 100), (200, 64), (4160, 2564), (130, 130)] {
                let config = ClusterConfig::paper_default(n);
                let mut serial = ServerFarm::from_config(&config);
                serial.set_threads(threads);
                let kinds = [WorkloadKind::WebSearch, WorkloadKind::DataCaching];
                let jobs: Vec<Job> = (0..n * 3)
                    .map(|i| {
                        let kind = kinds[(i * 5 / 3) % 2];
                        Job::new(JobId(100 + i as u64), kind, Seconds::new(60.0))
                    })
                    .filter(|job| edge < n || job.kind().vmt_class() == VmtClass::Hot)
                    .collect();
                let mut grouped = serial.clone();
                let mut expect = Vec::new();
                for (pos, job) in jobs.iter().enumerate() {
                    let servers = match job.kind().vmt_class() {
                        VmtClass::Hot => 0..edge,
                        VmtClass::Cold => edge..n,
                    };
                    let idx = target(pos, servers, |i| serial.free_cores(i));
                    serial.start_job(idx, job);
                    expect.push(Some(ServerId(idx)));
                }
                let place = |view: &mut GroupView<'_>| {
                    let servers = match view.class() {
                        VmtClass::Hot => 0..edge,
                        VmtClass::Cold => edge..n,
                    };
                    for pos in 0..view.jobs().len() {
                        if view.jobs()[pos].kind().vmt_class() == view.class() {
                            let idx = target(pos, servers.clone(), |i| view.free_cores(i));
                            view.start_job(pos, idx);
                        }
                    }
                };
                let mut out = vec![None; jobs.len()];
                assert!(grouped.place_groups(edge, &jobs, &mut out, place, place));
                let label = format!("n {n} edge {edge} threads {threads}");
                assert_eq!(out, expect, "{label}");
                assert_eq!(grouped.job_heads, serial.job_heads, "{label}");
                assert_eq!(grouped.job_tails, serial.job_tails, "{label}");
                assert_eq!(grouped.job_counts, serial.job_counts, "{label}");
                assert_eq!(grouped.active_power_w, serial.active_power_w, "{label}");
                for (a, b) in grouped.pools.iter().zip(&serial.pools) {
                    assert_eq!(
                        (&a.kinds, &a.next, &a.free),
                        (&b.kinds, &b.next, &b.free),
                        "{label}"
                    );
                    let lanes = |pool: &JobPool| {
                        pool.pages
                            .iter()
                            .map(|page| (page.ids, page.due))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(lanes(a), lanes(b), "{label}");
                }
            }
        }
    }

    #[test]
    fn ids_outside_the_window_are_left_to_the_serial_path() {
        let config = ClusterConfig::paper_default(8);
        let mut farm = ServerFarm::from_config(&config);
        let far = Job::new(
            JobId(u64::from(u32::MAX) + 1),
            WorkloadKind::WebSearch,
            Seconds::new(60.0),
        );
        let mut out = vec![None];
        let ran = farm.place_groups(
            4,
            &[far],
            &mut out,
            |_| panic!("hot ran"),
            |_| panic!("cold ran"),
        );
        assert!(!ran);
        assert_eq!(out, vec![None]);
    }
}
