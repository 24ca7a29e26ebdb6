//! Structure-of-arrays cluster state and the deterministic sharded
//! physics tick.
//!
//! [`ServerFarm`] holds every server's physical state as contiguous
//! arrays — inlet and air temperatures, active core power, wax enthalpy,
//! estimator state — instead of a `Vec<Server>` of pointer-rich structs.
//! The per-tick physics pass sweeps those arrays with the plain-value
//! kernels from `vmt_thermal::kernel` and `vmt_pcm::kernel` in tight,
//! cache-friendly loops, and parallelizes over a **fixed shard grid**:
//!
//! * Servers are split into contiguous shards of [`SHARD`] servers. The
//!   shard layout depends only on the server count — never on the thread
//!   count.
//! * Each shard accumulates its partial sums (electrical power, heat
//!   into wax, temperature sums, stored energy) element-serially in
//!   server order.
//! * The main thread folds the per-shard partials **in shard order**.
//!
//! Because IEEE-754 addition is not associative, this canonical
//! reduction — not "sum in whatever order threads finish" — is what
//! makes the results bit-identical at any thread count, including one:
//! every thread count computes exactly the same shard partials and folds
//! them in exactly the same order. Worker threads only change *who*
//! computes a shard, never *what* is computed.

use crate::config::{ClusterConfig, WaxSpec};
use crate::index::ClusterIndex;
use crate::pool::TickPool;
use crate::server::{Server, ServerId};
use crate::snapshot::JobIds;
use std::sync::Mutex;
use vmt_pcm::{PcmMaterial, WaxKernel, WaxPack, WaxStateEstimator};
use vmt_power::ServerPowerModel;
use vmt_thermal::{AirStream, ServerThermalModel};
use vmt_units::{Celsius, Fraction, Joules, Kilograms, Seconds, Watts, WattsPerKelvin};
use vmt_workload::{Job, JobId, VmtClass, WorkloadKind};

mod groups;

pub use groups::GroupView;

/// Servers per shard of the parallel physics sweep.
///
/// A fixed layout constant (never derived from the thread count), so the
/// reduction tree — and therefore every floating-point result — is a
/// function of the cluster size alone. 64 servers × a handful of `f64`
/// lanes keeps a shard's working set inside L1 while amortizing the
/// per-shard bookkeeping.
pub const SHARD: usize = 64;

/// Minimum servers backing each extra physics worker.
///
/// One pool handoff (wake, claim, park) costs on the order of tens of
/// microseconds; a server's physics step costs tens of nanoseconds. A
/// worker therefore has to cover a couple thousand servers per tick
/// before fanning out beats running its share inline — below that the
/// engine thread sweeps alone no matter how many workers were requested
/// (requesting threads stays harmless at any cluster size, which is
/// what keeps small-cluster multi-thread rows from inverting).
const SERVERS_PER_WORKER: usize = 2048;

/// Slots per page of the pooled job table. A page's eight ids and eight
/// due ticks fill one 64-byte line, and a server's chain is at most
/// `cores / JOB_PAGE` pages (four at the paper's 32 cores), so a
/// departure sweep reads a handful of lines per server.
const JOB_PAGE: usize = 8;

/// Chain terminator / "no page" sentinel in job-table page links.
const NO_PAGE: u32 = u32::MAX;

/// Hints the CPU to pull the cache line holding `value` toward L1.
///
/// Architecturally a no-op — no result ever depends on whether the hint
/// fired — so a caller may hint a *predicted* target while the current
/// job's bookkeeping still runs; at 100k+ servers the lanes a placement
/// writes are far out of cache, and each placement otherwise eats the
/// full miss latency serially. Taking a live reference keeps every hint
/// in bounds: a caller takes its element with `get()` or indexing, and
/// no call site does pointer arithmetic.
#[inline(always)]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the address comes from a live reference, and a prefetch
    // never faults architecturally; SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(value).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// One page of the pooled job table: the ids and due ticks of
/// [`JOB_PAGE`] slots side by side in one cache line, so a placement
/// writes one line for both and the departure sweep's due-tick scan
/// pulls in the ids it retires.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct JobPage {
    /// Job ids, stored as u32 deltas against the farm's `id_base`.
    ids: [u32; JOB_PAGE],
    /// The tick each job departs at ([`Job::NEVER_DUE`] for jobs that
    /// outlive the horizon or were started outside the engine).
    due: [u32; JOB_PAGE],
}

/// One shard's pooled job storage: pages plus a parallel kind-byte
/// array and a LIFO free list. Pools are per-shard (not farm-wide) so
/// the sharded departure sweep stays lock-free — each sweep task owns
/// its shard's pool outright — and so a shard's live pages cluster in
/// memory.
#[derive(Debug, Clone, Default)]
struct JobPool {
    pages: Vec<JobPage>,
    /// Workload index byte of each slot ([`JOB_PAGE`] per page).
    kinds: Vec<u8>,
    /// Next-page link of each page; [`NO_PAGE`] terminates a chain.
    next: Vec<u32>,
    /// Recycled page indices, reused LIFO so churn rides hot lines.
    free: Vec<u32>,
}

impl JobPool {
    /// Hands out a page — recycled when possible, freshly grown
    /// otherwise — with its chain link cleared.
    fn alloc_page(&mut self) -> u32 {
        if let Some(page) = self.free.pop() {
            self.next[page as usize] = NO_PAGE;
            return page;
        }
        let page = self.next.len() as u32;
        self.pages.push(JobPage::default());
        self.kinds.resize(self.kinds.len() + JOB_PAGE, 0);
        self.next.push(NO_PAGE);
        page
    }

    /// The page holding chain position `pos` of the chain from `head`.
    #[inline]
    fn page_at(&self, head: u32, pos: usize) -> u32 {
        let mut page = head;
        for _ in 0..pos / JOB_PAGE {
            page = self.next[page as usize];
        }
        page
    }

    /// Hints the CPU to pull page `page`'s id/due line and kind bytes
    /// toward L1 (a no-op for a page the pool does not hold).
    #[inline]
    fn prefetch_page(&self, page: u32) {
        if let Some(lanes) = self.pages.get(page as usize) {
            prefetch(lanes);
            prefetch(&self.kinds[page as usize * JOB_PAGE]);
        }
    }

    /// [`JobPool::prefetch_page`] over every page of the chain from
    /// `head` (the links themselves are a few bytes per page).
    #[inline]
    fn prefetch_chain(&self, head: u32) {
        let mut page = head;
        while page != NO_PAGE {
            self.prefetch_page(page);
            page = self.next[page as usize];
        }
    }

    /// Moves the entry in `from` (page, lane) into `to`.
    #[inline]
    fn move_slot(&mut self, from: (u32, usize), to: (u32, usize)) {
        let (fp, fl) = (from.0 as usize, from.1);
        let (tp, tl) = (to.0 as usize, to.1);
        self.pages[tp].ids[tl] = self.pages[fp].ids[fl];
        self.pages[tp].due[tl] = self.pages[fp].due[fl];
        self.kinds[tp * JOB_PAGE + tl] = self.kinds[fp * JOB_PAGE + fl];
    }

    /// Heap bytes currently reserved by this pool.
    fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<JobPage>()
            + self.kinds.capacity()
            + self.next.capacity() * 4
            + self.free.capacity() * 4
    }
}

/// Appends one entry at chain position `len` — the pooled equivalent of
/// writing slab slot `len`. Counts and power stay with the callers.
#[inline]
fn append_job(
    pool: &mut JobPool,
    head: &mut u32,
    tail: &mut u32,
    len: usize,
    entry: (u32, u32, u8),
) {
    if len.is_multiple_of(JOB_PAGE) {
        let page = pool.alloc_page();
        if *head == NO_PAGE {
            *head = page;
        } else {
            pool.next[*tail as usize] = page;
        }
        *tail = page;
    }
    let (delta, due, kind) = entry;
    let lane = len % JOB_PAGE;
    let page = &mut pool.pages[*tail as usize];
    page.ids[lane] = delta;
    page.due[lane] = due;
    pool.kinds[*tail as usize * JOB_PAGE + lane] = kind;
}

/// Swap-removes chain position `pos` of a chain of `*count` entries:
/// the chain's last entry moves into the hole, and an emptied tail page
/// returns to the pool's free list. Returns the removed job's workload
/// index byte. Shared by [`ServerFarm::end_job`] and the departure
/// sweep, so both leave the same row order behind.
fn remove_at(
    pool: &mut JobPool,
    head: &mut u32,
    tail: &mut u32,
    count: &mut u32,
    pos: usize,
) -> u8 {
    let len = *count as usize;
    let hole = (pool.page_at(*head, pos), pos % JOB_PAGE);
    let kind = pool.kinds[hole.0 as usize * JOB_PAGE + hole.1];
    pool.move_slot((*tail, (len - 1) % JOB_PAGE), hole);
    *count = (len - 1) as u32;
    // Free an emptied tail page, re-terminating the chain at its
    // predecessor (chains are at most `cores / JOB_PAGE` pages long).
    if (len - 1).is_multiple_of(JOB_PAGE) {
        let emptied = *tail;
        pool.free.push(emptied);
        if *head == emptied {
            *head = NO_PAGE;
            *tail = NO_PAGE;
        } else {
            let mut prev = *head;
            while pool.next[prev as usize] != emptied {
                prev = pool.next[prev as usize];
            }
            pool.next[prev as usize] = NO_PAGE;
            *tail = prev;
        }
    }
    kind
}

/// Ends every job of one server whose due tick is `tick`, in ascending
/// id order — the order a snapshot's departure bucket lists them in —
/// so the row order and the power lane end exactly as a sequence of
/// [`ServerFarm::end_job`] calls in that order leaves them. `ended`
/// receives each retired job's id delta and workload index byte, in
/// that order.
///
/// One scan of the chain marks the due jobs in a bitmask of chain
/// positions; each removal then takes the marked job with the smallest
/// id and moves the mark of a due job the swap-remove moves.
fn retire_due(
    pool: &mut JobPool,
    head: &mut u32,
    tail: &mut u32,
    count: &mut u32,
    tick: u32,
    mut ended: impl FnMut(u32, u8),
) {
    const MAX_PAGES: usize = 64 / JOB_PAGE;
    let mut len = *count as usize;
    if len > 64 {
        // More than 64 cores: find each next due job by a fresh scan.
        while let Some((delta, pos)) = first_due(pool, *head, len, tick) {
            let kind = remove_at(pool, head, tail, count, pos);
            ended(delta, kind);
            len -= 1;
        }
        return;
    }
    let mut chain = [NO_PAGE; MAX_PAGES];
    let mut due = 0u64;
    let mut page = *head;
    for (k, start) in (0..len).step_by(JOB_PAGE).enumerate() {
        chain[k] = page;
        let lanes = &pool.pages[page as usize].due;
        let mut hits = 0u64;
        for (lane, &when) in lanes.iter().enumerate() {
            hits |= u64::from(when == tick) << lane;
        }
        let valid = (1u64 << (len - start).min(JOB_PAGE)) - 1;
        due |= (hits & valid) << start;
        page = pool.next[page as usize];
    }
    let id_at =
        |pool: &JobPool, pos: usize| pool.pages[chain[pos / JOB_PAGE] as usize].ids[pos % JOB_PAGE];
    while due != 0 {
        let mut pos = due.trailing_zeros() as usize;
        let mut delta = id_at(pool, pos);
        let mut rest = due & (due - 1);
        while rest != 0 {
            let other = rest.trailing_zeros() as usize;
            let other_delta = id_at(pool, other);
            if other_delta < delta {
                (pos, delta) = (other, other_delta);
            }
            rest &= rest - 1;
        }
        let last = len - 1;
        let hole = (chain[pos / JOB_PAGE], pos % JOB_PAGE);
        let kind = pool.kinds[hole.0 as usize * JOB_PAGE + hole.1];
        pool.move_slot((chain[last / JOB_PAGE], last % JOB_PAGE), hole);
        due &= !(1 << pos);
        if due & (1 << last) != 0 {
            // The due job that moved into the hole keeps its mark.
            due ^= (1 << last) | (1 << pos);
        }
        len = last;
        // Free an emptied tail page, re-terminating the chain at its
        // predecessor — what `remove_at` does, without the walk.
        if len.is_multiple_of(JOB_PAGE) {
            pool.free.push(chain[len / JOB_PAGE]);
            if len == 0 {
                *head = NO_PAGE;
                *tail = NO_PAGE;
            } else {
                let prev = chain[len / JOB_PAGE - 1];
                pool.next[prev as usize] = NO_PAGE;
                *tail = prev;
            }
        }
        ended(delta, kind);
    }
    *count = len as u32;
}

/// The due job with the smallest id among the first `len` chain
/// positions from `head`, as `(id delta, position)`.
fn first_due(pool: &JobPool, head: u32, len: usize, tick: u32) -> Option<(u32, usize)> {
    let mut best: Option<(u32, usize)> = None;
    let mut page = head;
    for start in (0..len).step_by(JOB_PAGE) {
        let lanes = &pool.pages[page as usize];
        for lane in 0..JOB_PAGE.min(len - start) {
            let delta = lanes.ids[lane];
            if lanes.due[lane] == tick && best.is_none_or(|(d, _)| delta < d) {
                best = Some((delta, start + lane));
            }
        }
        page = pool.next[page as usize];
    }
    best
}

/// Physical-parallelism ceiling on per-sweep fan-out, resolved once.
///
/// Requesting more workers than the machine has cores cannot make a
/// sweep faster — the surplus workers only time-slice one another and
/// add context-switch overhead (measured ~10–20% on a 1-core host at
/// `--threads 8`). The shard-ordered fold makes the worker count
/// semantically free, so clamping here changes wall-clock only; the
/// configured thread count is still honored up to the hardware.
fn machine_parallelism() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Workers a tick of `servers` servers fans out to when `threads` are
/// requested: `threads`, clamped to the machine's parallelism and to one
/// worker per 2,048 servers (`SERVERS_PER_WORKER`). Never less than 1.
///
/// The single fan-out rule. The physics sweep, the departure sweep and
/// the two-group placement streams use it as is, and the experiment
/// sweep runner budgets whole runs by it — so a farm that this returns
/// 1 for never builds its [`TickPool`], and a runner that trusts it
/// never oversubscribes the machine.
///
/// # Examples
///
/// ```
/// use vmt_dcsim::tick_fan_out;
///
/// // Below two 2,048-server quanta the tick stays serial at any request.
/// assert_eq!(tick_fan_out(1000, 8), 1);
/// assert_eq!(tick_fan_out(100_000, 1), 1);
/// ```
pub fn tick_fan_out(servers: usize, threads: usize) -> usize {
    threads
        .min(machine_parallelism())
        .min(servers / SERVERS_PER_WORKER)
        .max(1)
}

/// Resolves the default tick-level thread count: the `VMT_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_tick_threads() -> usize {
    std::env::var("VMT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Wall-clock attribution of one physics sweep, filled only when the
/// engine runs with telemetry enabled — the untimed path takes no
/// timestamps at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTiming {
    /// Nanoseconds spent running the shard kernels (inline or pooled,
    /// including the pool handoff).
    pub shards_ns: u64,
    /// Nanoseconds spent folding the per-shard partials in shard order.
    pub fold_ns: u64,
    /// Summed busy nanoseconds across pool participants (workers plus
    /// the engine thread) while the shard section ran; zero on the
    /// inline single-thread path, where the pool is not engaged.
    pub pool_busy_ns: u64,
    /// Summed idle nanoseconds across pool participants within the
    /// shard section's wall-clock span (`span × participants − busy`);
    /// zero on the inline path.
    pub pool_idle_ns: u64,
}

impl SweepTiming {
    /// Folds a pool section's per-participant busy slots into the
    /// busy/idle attribution, given the section's wall-clock span.
    fn add_pool_busy(&mut self, span_ns: u64, busy: &[u64]) {
        let busy_sum: u64 = busy.iter().sum();
        self.pool_busy_ns += busy_sum;
        self.pool_idle_ns += (span_ns * busy.len() as u64).saturating_sub(busy_sum);
    }
}

/// Order-stable partial sums of one physics tick (raw accumulator
/// units: W, W, °C·servers, °C·servers, J).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FarmTickTotals {
    /// Total electrical power (sum of per-server draws, W).
    pub electrical_w: f64,
    /// Total heat-flow into wax (W; negative while refreezing).
    pub into_wax_w: f64,
    /// Sum of air-at-wax temperatures over all servers (°C).
    pub temp_sum_c: f64,
    /// Sum of air-at-wax temperatures over servers below the hot-group
    /// limit (°C).
    pub hot_sum_c: f64,
    /// Total stored latent energy (J).
    pub stored_energy_j: f64,
}

impl FarmTickTotals {
    /// Folds another partial into this one (field-wise addition).
    fn fold(&mut self, other: &FarmTickTotals) {
        self.electrical_w += other.electrical_w;
        self.into_wax_w += other.into_wax_w;
        self.temp_sum_c += other.temp_sum_c;
        self.hot_sum_c += other.hot_sum_c;
        self.stored_energy_j += other.stored_energy_j;
    }
}

/// Shared wax-pack design of a farm (every server carries the same pack).
#[derive(Debug, Clone)]
struct FarmWax {
    material: PcmMaterial,
    mass: Kilograms,
    ua: WattsPerKelvin,
    taper: f64,
    kernel: WaxKernel,
    /// Estimator template: holds the shared melt-rate lookup table; the
    /// per-server `(temperature, fraction)` state lives in the farm's
    /// arrays and flows through [`WaxStateEstimator::step_state`].
    estimator: WaxStateEstimator,
}

impl FarmWax {
    fn new(spec: &WaxSpec) -> Self {
        Self::from_parts(
            spec.material.clone(),
            spec.sizing.mass_of(&spec.material),
            spec.exchanger_ua,
            spec.interface_taper,
        )
    }

    fn from_parts(material: PcmMaterial, mass: Kilograms, ua: WattsPerKelvin, taper: f64) -> Self {
        Self {
            kernel: WaxKernel::new(&material, mass, ua, taper),
            estimator: WaxStateEstimator::new(material.clone(), mass, ua).with_taper(taper),
            material,
            mass,
            ua,
            taper,
        }
    }
}

/// Serializable image of a farm's per-server state arrays.
///
/// Captures exactly the fields that evolve during a run — thermal and
/// wax arrays plus the running jobs. Config-derived parts (power
/// model, air stream, wax design) are *not* here; a restore rebuilds
/// them from [`ClusterConfig`] and then overwrites the arrays with
/// [`ServerFarm::apply_state`], which makes the image independent of
/// how those parts are represented internally.
///
/// Jobs are held live-only and server-major, exactly as the snapshot
/// container stores them: server `i`'s jobs, in table order, are the
/// `job_counts[i]` entries that follow the first
/// `job_counts[..i].iter().sum()` entries of `job_ids` and `job_kinds`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FarmState {
    /// Per-server inlet temperature (°C).
    pub inlet_c: Vec<f64>,
    /// Per-server air temperature at the wax (°C).
    pub at_wax_c: Vec<f64>,
    /// Per-server sum of running jobs' core powers (W).
    pub active_power_w: Vec<f64>,
    /// Per-server wax enthalpy (J).
    pub enthalpy_j: Vec<f64>,
    /// Per-server estimator wax-temperature state (°C).
    pub est_temp_c: Vec<f64>,
    /// Per-server estimator melt-fraction state.
    pub est_fraction: Vec<f64>,
    /// Running jobs per server (= used cores).
    pub job_counts: Vec<u32>,
    /// Ids of the running jobs, delta-encoded against the smallest.
    pub job_ids: JobIds,
    /// Workload index byte of each running job, parallel to `job_ids`.
    pub job_kinds: Vec<u8>,
}

impl FarmState {
    /// Checks the image against a farm of `servers` servers with `cores`
    /// cores each: one value per server in every per-server array, no
    /// server above its core count, one id and one known workload kind
    /// per counted job, and ids that fit `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`](crate::SnapshotError::Corrupt) naming
    /// the first disagreement.
    pub(crate) fn check(
        &self,
        servers: usize,
        cores: u32,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let corrupt = crate::snapshot::SnapshotError::Corrupt;
        let lengths = [
            self.inlet_c.len(),
            self.at_wax_c.len(),
            self.active_power_w.len(),
            self.enthalpy_j.len(),
            self.est_temp_c.len(),
            self.est_fraction.len(),
            self.job_counts.len(),
        ];
        if lengths.iter().any(|&len| len != servers) {
            return Err(corrupt(format!(
                "farm arrays hold {lengths:?} values for {servers} servers"
            )));
        }
        if let Some(i) = self.job_counts.iter().position(|&c| c > cores) {
            return Err(corrupt(format!(
                "server {i} claims {} jobs on {cores} cores",
                self.job_counts[i]
            )));
        }
        let jobs: u64 = self.job_counts.iter().map(|&c| u64::from(c)).sum();
        if jobs != self.job_ids.deltas.len() as u64
            || self.job_kinds.len() != self.job_ids.deltas.len()
        {
            return Err(corrupt(format!(
                "job counts sum to {jobs}, the farm holds {} ids and {} kinds",
                self.job_ids.deltas.len(),
                self.job_kinds.len()
            )));
        }
        if let Some(&kind) = self
            .job_kinds
            .iter()
            .find(|&&k| k as usize >= WorkloadKind::ALL.len())
        {
            return Err(corrupt(format!("unknown workload kind {kind}")));
        }
        self.job_ids.check("running job")
    }
}

/// All servers' physical state in structure-of-arrays form.
///
/// Mirrors the per-server [`Server`] API index-wise (`air_at_wax(i)`,
/// `free_cores(i)`, `start_job(i, …)`, …) so schedulers and tests read
/// and mutate one server at a time, while the physics tick sweeps whole
/// arrays at once. [`ServerFarm::to_servers`] and
/// [`ServerFarm::from_servers`] convert losslessly to and from the
/// array-of-structs form.
#[derive(Debug)]
pub struct ServerFarm {
    power_model: ServerPowerModel,
    air: AirStream,
    time_constant: Seconds,
    oracle_wax_state: bool,
    threads: usize,
    wax: Option<FarmWax>,
    /// Per-server inlet temperature (°C).
    inlet_c: Vec<f64>,
    /// Per-server air temperature at the wax (°C).
    at_wax_c: Vec<f64>,
    /// Per-server sum of running jobs' core powers (W).
    active_power_w: Vec<f64>,
    /// Per-server wax enthalpy (J); untouched when the farm is waxless.
    enthalpy_j: Vec<f64>,
    /// Per-server estimator wax-temperature state (°C).
    est_temp_c: Vec<f64>,
    /// Per-server estimator melt-fraction state.
    est_fraction: Vec<f64>,
    /// Pooled running-job table, one pool per [`SHARD`] of servers:
    /// server `i`'s jobs live in `pools[i / SHARD]` as a chain of
    /// [`JOB_PAGE`]-slot pages from `job_heads[i]` to `job_tails[i]`,
    /// the first `job_counts[i]` chain slots valid, ids stored as u32
    /// deltas against `id_base` beside each job's due tick. Compared to
    /// the former
    /// `num_servers × cores` u64 slab this sizes the table to *live*
    /// jobs — pages recycle through per-pool free lists — cutting
    /// ~288 MB of slab at 1M servers to tens of MB of pages.
    pools: Vec<JobPool>,
    /// First page of each server's job chain ([`NO_PAGE`] when idle).
    job_heads: Vec<u32>,
    /// Last page of each server's job chain ([`NO_PAGE`] when idle).
    job_tails: Vec<u32>,
    /// Occupied chain slots of each server (= used cores).
    job_counts: Vec<u32>,
    /// Base subtracted from absolute job ids before storing them as
    /// u32 deltas; re-anchored by `rebase_ids` when the engine's
    /// monotonically increasing ids outrun the 32-bit window.
    id_base: u64,
    /// Persistent worker pool, created lazily on the first multi-worker
    /// sweep and rebuilt when the thread count changes. Clones of the
    /// farm start poolless and spin up their own on demand.
    pool: Option<TickPool>,
    /// Per-shard departure logs of [`ServerFarm::end_due_jobs`], filled
    /// only when the engine records departures; empty between ticks.
    depart_logs: Vec<Vec<u64>>,
}

impl Clone for ServerFarm {
    fn clone(&self) -> Self {
        Self {
            power_model: self.power_model,
            air: self.air,
            time_constant: self.time_constant,
            oracle_wax_state: self.oracle_wax_state,
            threads: self.threads,
            wax: self.wax.clone(),
            inlet_c: self.inlet_c.clone(),
            at_wax_c: self.at_wax_c.clone(),
            active_power_w: self.active_power_w.clone(),
            enthalpy_j: self.enthalpy_j.clone(),
            est_temp_c: self.est_temp_c.clone(),
            est_fraction: self.est_fraction.clone(),
            pools: self.pools.clone(),
            job_heads: self.job_heads.clone(),
            job_tails: self.job_tails.clone(),
            job_counts: self.job_counts.clone(),
            id_base: self.id_base,
            pool: None,
            depart_logs: Vec::new(),
        }
    }
}

impl ServerFarm {
    /// Builds a farm of `config.num_servers` servers, each initialized
    /// exactly as [`Server::from_config`] initializes one: thermal state
    /// settled at idle power, wax equilibrated at the resulting
    /// air-at-wax temperature, estimator reset to that temperature and
    /// zero melt.
    pub fn from_config(config: &ClusterConfig) -> Self {
        let n = config.num_servers;
        let wax = config.wax.as_ref().map(FarmWax::new);
        let mut farm = Self {
            power_model: config.power,
            air: config.air,
            time_constant: config.thermal_time_constant,
            oracle_wax_state: config.oracle_wax_state,
            threads: default_tick_threads(),
            wax,
            inlet_c: Vec::with_capacity(n),
            at_wax_c: Vec::with_capacity(n),
            active_power_w: vec![0.0; n],
            enthalpy_j: Vec::with_capacity(n),
            est_temp_c: Vec::with_capacity(n),
            est_fraction: vec![0.0; n],
            pools: vec![JobPool::default(); n.div_ceil(SHARD)],
            job_heads: vec![NO_PAGE; n],
            job_tails: vec![NO_PAGE; n],
            job_counts: vec![0; n],
            id_base: 0,
            pool: None,
            depart_logs: Vec::new(),
        };
        for i in 0..n {
            let inlet = config.inlet.inlet_for(i);
            let mut thermal = ServerThermalModel::with_time_constant(
                inlet,
                config.air,
                config.thermal_time_constant,
            );
            thermal.settle(config.power.idle());
            let at_wax = thermal.air_at_wax();
            farm.inlet_c.push(inlet.get());
            farm.at_wax_c.push(at_wax.get());
            match &farm.wax {
                Some(w) => {
                    let pack = WaxPack::new(w.material.clone(), w.mass, at_wax);
                    farm.enthalpy_j.push(pack.enthalpy().get());
                    farm.est_temp_c.push(at_wax.get());
                }
                None => {
                    farm.enthalpy_j.push(0.0);
                    farm.est_temp_c.push(0.0);
                }
            }
        }
        farm
    }

    /// Builds a farm from existing servers, preserving every state field
    /// bit-for-bit. The servers must share one hardware configuration
    /// (power model, air stream, time constant, wax design), which is
    /// how the engine constructs clusters.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn from_servers(servers: &[Server]) -> Self {
        let first = servers.first().expect("farm needs at least one server");
        let wax = first.wax_parts().map(|(pack, exchanger, _)| {
            FarmWax::from_parts(
                pack.material().clone(),
                pack.mass(),
                exchanger.ua(),
                exchanger.taper(),
            )
        });
        let n = servers.len();
        // Delta-anchor the incoming ids at the smallest live id so
        // every stored delta fits u32.
        let id_base = servers
            .iter()
            .flat_map(|s| s.jobs_map().keys())
            .map(|id| id.0)
            .min()
            .unwrap_or(0);
        let mut pools = vec![JobPool::default(); n.div_ceil(SHARD)];
        let mut job_heads = vec![NO_PAGE; n];
        let mut job_tails = vec![NO_PAGE; n];
        let mut job_counts = vec![0u32; n];
        for (i, s) in servers.iter().enumerate() {
            for (&id, &kind) in s.jobs_map() {
                let delta = id.0 - id_base;
                assert!(delta <= u32::MAX as u64, "live job-id span exceeds u32");
                append_job(
                    &mut pools[i / SHARD],
                    &mut job_heads[i],
                    &mut job_tails[i],
                    job_counts[i] as usize,
                    (delta as u32, Job::NEVER_DUE, kind.index() as u8),
                );
                job_counts[i] += 1;
            }
        }
        let mut farm = Self {
            power_model: first.power_model(),
            air: first.air(),
            time_constant: first.thermal().time_constant(),
            oracle_wax_state: first.oracle_wax_state(),
            threads: default_tick_threads(),
            wax,
            inlet_c: servers.iter().map(|s| s.inlet().get()).collect(),
            at_wax_c: servers.iter().map(|s| s.air_at_wax().get()).collect(),
            active_power_w: servers
                .iter()
                .map(|s| s.active_core_power().get())
                .collect(),
            enthalpy_j: Vec::with_capacity(n),
            est_temp_c: Vec::with_capacity(n),
            est_fraction: Vec::with_capacity(n),
            pools,
            job_heads,
            job_tails,
            job_counts,
            id_base,
            pool: None,
            depart_logs: Vec::new(),
        };
        for s in servers {
            match s.wax_parts() {
                Some((pack, _, estimator)) => {
                    farm.enthalpy_j.push(pack.enthalpy().get());
                    farm.est_temp_c.push(estimator.temperature().get());
                    farm.est_fraction.push(estimator.melt_fraction().get());
                }
                None => {
                    farm.enthalpy_j.push(0.0);
                    farm.est_temp_c.push(0.0);
                    farm.est_fraction.push(0.0);
                }
            }
        }
        farm
    }

    /// Materializes the farm back into per-object [`Server`]s with
    /// identical state (rack post-mortems, round-trip tests).
    pub fn to_servers(&self) -> Vec<Server> {
        (0..self.len())
            .map(|i| {
                let mut thermal = ServerThermalModel::with_time_constant(
                    self.inlet(i),
                    self.air,
                    self.time_constant,
                );
                thermal.set_air_at_wax(self.air_at_wax(i));
                let wax = self.wax.as_ref().map(|w| {
                    let mut pack = WaxPack::new(w.material.clone(), w.mass, Celsius::new(0.0));
                    pack.set_enthalpy(Joules::new(self.enthalpy_j[i]));
                    let mut estimator = WaxStateEstimator::new(w.material.clone(), w.mass, w.ua)
                        .with_taper(w.taper);
                    estimator.reset(
                        Celsius::new(self.est_temp_c[i]),
                        Fraction::saturating(self.est_fraction[i]),
                    );
                    (
                        pack,
                        vmt_pcm::HeatExchanger::with_taper(w.ua, w.taper),
                        estimator,
                    )
                });
                Server::from_parts(
                    ServerId(i),
                    self.power_model,
                    thermal,
                    wax,
                    self.job_row(i).collect(),
                    Watts::new(self.active_power_w[i]),
                    self.oracle_wax_state,
                )
            })
            .collect()
    }

    /// Captures every evolving per-server array as a serializable
    /// [`FarmState`] image: live jobs only, server by server in table
    /// order, ids re-anchored at the smallest live id — independent of
    /// how the pooled table arranges them internally.
    pub fn state(&self) -> FarmState {
        let live: usize = self.job_counts.iter().map(|&c| c as usize).sum();
        let mut deltas = Vec::with_capacity(live);
        let mut kinds = Vec::with_capacity(live);
        for i in 0..self.len() {
            let pool = &self.pools[i / SHARD];
            let mut page = self.job_heads[i];
            let mut left = self.job_counts[i] as usize;
            while left > 0 {
                let slot = page as usize * JOB_PAGE;
                let take = left.min(JOB_PAGE);
                deltas.extend_from_slice(&pool.pages[page as usize].ids[..take]);
                kinds.extend_from_slice(&pool.kinds[slot..slot + take]);
                left -= take;
                page = pool.next[page as usize];
            }
        }
        let min = deltas.iter().copied().min().unwrap_or(0);
        for delta in &mut deltas {
            *delta -= min;
        }
        FarmState {
            inlet_c: self.inlet_c.clone(),
            at_wax_c: self.at_wax_c.clone(),
            active_power_w: self.active_power_w.clone(),
            enthalpy_j: self.enthalpy_j.clone(),
            est_temp_c: self.est_temp_c.clone(),
            est_fraction: self.est_fraction.clone(),
            job_counts: self.job_counts.clone(),
            job_ids: JobIds {
                base: if live == 0 {
                    0
                } else {
                    self.id_base + u64::from(min)
                },
                deltas,
            },
            job_kinds: kinds,
        }
    }

    /// Overwrites the evolving arrays from a [`FarmState`] image taken
    /// on a farm of the same shape (same server count and core count).
    /// The image carries no due ticks, so every job it restores is due
    /// [`Job::NEVER_DUE`]; an engine restore writes the ticks back from
    /// the snapshot's departures.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the image does not fit this farm's
    /// shape (array lengths, counts above the core count, ids and kinds
    /// that disagree with the counts, unknown kinds); the farm is left
    /// untouched in that case.
    ///
    /// [`SnapshotError::Corrupt`]: crate::SnapshotError::Corrupt
    pub fn apply_state(&mut self, state: &FarmState) -> Result<(), crate::snapshot::SnapshotError> {
        state.check(self.len(), self.cores())?;
        self.inlet_c.clone_from(&state.inlet_c);
        self.at_wax_c.clone_from(&state.at_wax_c);
        self.active_power_w.clone_from(&state.active_power_w);
        self.enthalpy_j.clone_from(&state.enthalpy_j);
        self.est_temp_c.clone_from(&state.est_temp_c);
        self.est_fraction.clone_from(&state.est_fraction);
        self.job_counts.clone_from(&state.job_counts);
        // The image keeps ids as u32 deltas from a base, as the pooled
        // table does, so they drop in unchanged.
        self.id_base = state.job_ids.base;
        for pool in &mut self.pools {
            pool.pages.clear();
            pool.kinds.clear();
            pool.next.clear();
            pool.free.clear();
        }
        self.job_heads.fill(NO_PAGE);
        self.job_tails.fill(NO_PAGE);
        let mut jobs = state.job_ids.deltas.iter().zip(&state.job_kinds);
        for i in 0..self.len() {
            for (j, (&delta, &kind)) in jobs.by_ref().take(state.job_counts[i] as usize).enumerate()
            {
                append_job(
                    &mut self.pools[i / SHARD],
                    &mut self.job_heads[i],
                    &mut self.job_tails[i],
                    j,
                    (delta, Job::NEVER_DUE, kind),
                );
            }
        }
        Ok(())
    }

    /// Calls `visit(server, id delta, due tick)` for every running job,
    /// server by server in table order — the order of
    /// [`FarmState`]'s job columns. Deltas are against
    /// [`ServerFarm::id_base`].
    pub(crate) fn for_each_job(&self, mut visit: impl FnMut(usize, u32, u32)) {
        for i in 0..self.len() {
            let pool = &self.pools[i / SHARD];
            let mut page = self.job_heads[i];
            let mut left = self.job_counts[i] as usize;
            while left > 0 {
                let lanes = &pool.pages[page as usize];
                let take = left.min(JOB_PAGE);
                for lane in 0..take {
                    visit(i, lanes.ids[lane], lanes.due[lane]);
                }
                left -= take;
                page = pool.next[page as usize];
            }
        }
    }

    /// Overwrites every running job's due tick from `due`, one tick per
    /// job in the order of [`ServerFarm::for_each_job`].
    ///
    /// # Panics
    ///
    /// Panics if `due` does not hold one tick per running job.
    pub(crate) fn set_due_ticks(&mut self, due: &[u32]) {
        let mut due = due.iter();
        for i in 0..self.len() {
            let pool = &mut self.pools[i / SHARD];
            let mut page = self.job_heads[i];
            let mut left = self.job_counts[i] as usize;
            while left > 0 {
                let take = left.min(JOB_PAGE);
                for slot in &mut pool.pages[page as usize].due[..take] {
                    *slot = *due.next().expect("one due tick per running job");
                }
                left -= take;
                page = pool.next[page as usize];
            }
        }
        assert!(due.next().is_none(), "one due tick per running job");
    }

    /// The base the job table's u32 id deltas are stored against.
    pub(crate) fn id_base(&self) -> u64 {
        self.id_base
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.at_wax_c.len()
    }

    /// True when the farm has no servers.
    pub fn is_empty(&self) -> bool {
        self.at_wax_c.is_empty()
    }

    /// Worker threads used by the physics tick.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the tick-level worker count (clamped to at least 1).
    /// Results are bit-identical at any setting. A resized pool is
    /// rebuilt lazily on the next multi-worker sweep.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.threads {
            self.pool = None;
        }
        self.threads = threads;
    }

    /// Total cores of server `i` (uniform across the farm).
    #[inline]
    pub fn cores(&self) -> u32 {
        self.power_model.cores()
    }

    /// Cores of server `i` currently running jobs.
    #[inline]
    pub fn used_cores(&self, i: usize) -> u32 {
        self.job_counts[i]
    }

    /// Server `i`'s running jobs, in table order — the order departure
    /// swap-removes and snapshot rows observe.
    fn job_row(&self, i: usize) -> impl Iterator<Item = (JobId, WorkloadKind)> + '_ {
        let pool = &self.pools[i / SHARD];
        let count = self.job_counts[i] as usize;
        let id_base = self.id_base;
        let mut page = self.job_heads[i];
        (0..count).map(move |j| {
            let slot = page as usize * JOB_PAGE + j % JOB_PAGE;
            let entry = (
                JobId(id_base + pool.pages[page as usize].ids[j % JOB_PAGE] as u64),
                WorkloadKind::ALL[pool.kinds[slot] as usize],
            );
            if j % JOB_PAGE == JOB_PAGE - 1 {
                page = pool.next[page as usize];
            }
            entry
        })
    }

    /// Cores of server `i` available for placement.
    #[inline]
    pub fn free_cores(&self, i: usize) -> u32 {
        self.cores() - self.used_cores(i)
    }

    /// Current electrical power draw of server `i`.
    #[inline]
    pub fn power(&self, i: usize) -> Watts {
        self.power_model.idle() + Watts::new(self.active_power_w[i])
    }

    /// Current air temperature at server `i`'s wax containers.
    #[inline]
    pub fn air_at_wax(&self, i: usize) -> Celsius {
        Celsius::new(self.at_wax_c[i])
    }

    /// Inlet temperature of server `i`.
    #[inline]
    pub fn inlet(&self, i: usize) -> Celsius {
        Celsius::new(self.inlet_c[i])
    }

    /// The cooling air stream (uniform across the farm).
    pub fn air(&self) -> AirStream {
        self.air
    }

    /// The per-server active-power lane (W), for order-stable external
    /// reductions (zone cooling sums it in server order).
    pub(crate) fn active_power_lane(&self) -> &[f64] {
        &self.active_power_w
    }

    /// The per-server air-at-wax lane (°C), in server order.
    pub(crate) fn air_at_wax_lane(&self) -> &[f64] {
        &self.at_wax_c
    }

    /// The per-server used-core lane, in server order.
    pub(crate) fn used_cores_lane(&self) -> &[u32] {
        &self.job_counts
    }

    /// Uniform per-server idle draw (W).
    pub(crate) fn idle_w(&self) -> f64 {
        self.power_model.idle().get()
    }

    /// Updates server `i`'s inlet temperature (time-varying ambient
    /// models).
    pub fn set_inlet(&mut self, i: usize, inlet: Celsius) {
        self.inlet_c[i] = inlet.get();
    }

    /// Physical (ground-truth) melt fraction of server `i`'s wax; zero
    /// for waxless farms.
    pub fn melt_fraction(&self, i: usize) -> Fraction {
        match &self.wax {
            Some(w) => Fraction::saturating(w.kernel.melt_fraction(self.enthalpy_j[i])),
            None => Fraction::ZERO,
        }
    }

    /// Melt fraction of server `i` as reported by the on-server
    /// estimator — what the cluster scheduler sees. With the cluster's
    /// `oracle_wax_state` ablation flag set, returns the physical state.
    #[inline]
    pub fn reported_melt_fraction(&self, i: usize) -> Fraction {
        if self.oracle_wax_state {
            return self.melt_fraction(i);
        }
        match &self.wax {
            Some(_) => Fraction::saturating(self.est_fraction[i]),
            None => Fraction::ZERO,
        }
    }

    /// Physical latent energy currently stored in server `i`'s wax.
    pub fn stored_latent_energy(&self, i: usize) -> Joules {
        match &self.wax {
            Some(w) => Joules::new(
                w.kernel.latent_capacity_j() * w.kernel.melt_fraction(self.enthalpy_j[i]),
            ),
            None => Joules::ZERO,
        }
    }

    /// The wax melting temperature, if wax is deployed.
    pub fn melt_temperature(&self) -> Option<Celsius> {
        self.wax.as_ref().map(|w| w.material.melt_temperature())
    }

    /// True when every server carries a PCM (wax) store.
    pub fn has_wax(&self) -> bool {
        self.wax.is_some()
    }

    /// Latent heat capacity of one server's wax pack; zero without wax.
    pub fn latent_capacity_per_server(&self) -> Joules {
        match &self.wax {
            Some(w) => Joules::new(w.kernel.latent_capacity_j()),
            None => Joules::ZERO,
        }
    }

    /// Number of running jobs of each workload on server `i`, indexed by
    /// [`WorkloadKind::index`].
    pub fn kind_counts(&self, i: usize) -> [u32; 5] {
        let mut counts = [0u32; 5];
        for (_, kind) in self.job_row(i) {
            counts[kind.index()] += 1;
        }
        counts
    }

    /// Number of running jobs of each VMT class `(hot, cold)` on server
    /// `i`.
    pub fn class_counts(&self, i: usize) -> (u32, u32) {
        let mut hot = 0;
        let mut cold = 0;
        for (_, kind) in self.job_row(i) {
            match kind.vmt_class() {
                VmtClass::Hot => hot += 1,
                VmtClass::Cold => cold += 1,
            }
        }
        (hot, cold)
    }

    /// Starts a job on a free core of server `i`. The job departs by
    /// itself at its [`Job::due_tick`] when an engine sweeps the table
    /// ([`Job::NEVER_DUE`] jobs run until [`ServerFarm::end_job`]).
    ///
    /// # Panics
    ///
    /// Panics if the server is full or the job id is already running
    /// here — both indicate an engine bug.
    #[inline]
    pub fn start_job(&mut self, i: usize, job: &Job) {
        assert!(
            self.free_cores(i) > 0,
            "placement on a full {}",
            ServerId(i)
        );
        debug_assert!(
            self.job_row(i).all(|(id, _)| id != job.id()),
            "duplicate {} on {}",
            job.id(),
            ServerId(i)
        );
        if job.id().0 < self.id_base || job.id().0 - self.id_base > u32::MAX as u64 {
            self.rebase_ids(job.id().0);
        }
        let delta = job.id().0 - self.id_base;
        assert!(delta <= u32::MAX as u64, "live job-id span exceeds u32");
        let delta = delta as u32;
        let len = self.job_counts[i] as usize;
        append_job(
            &mut self.pools[i / SHARD],
            &mut self.job_heads[i],
            &mut self.job_tails[i],
            len,
            (delta, job.due_tick(), job.kind().index() as u8),
        );
        self.job_counts[i] += 1;
        self.active_power_w[i] += job.core_power().get();
    }

    /// Re-anchors the delta-encoded job ids so `incoming` and every
    /// live id fit the 32-bit window. O(live jobs) and rare: the engine
    /// issues monotonically increasing ids, so a rebase fires once per
    /// ~4.3 billion placements, re-anchoring at the oldest id still
    /// running.
    ///
    /// # Panics
    ///
    /// Panics if the live id span itself exceeds `u32::MAX` — no base
    /// can represent such a table.
    #[cold]
    fn rebase_ids(&mut self, incoming: u64) {
        let mut new_base = incoming;
        for i in 0..self.len() {
            for (id, _) in self.job_row(i) {
                new_base = new_base.min(id.0);
            }
        }
        let old_base = self.id_base;
        for i in 0..self.len() {
            let len = self.job_counts[i] as usize;
            let pool = &mut self.pools[i / SHARD];
            let mut page = self.job_heads[i];
            for j in (0..len).step_by(JOB_PAGE) {
                let ids = &mut pool.pages[page as usize].ids;
                for id in &mut ids[..JOB_PAGE.min(len - j)] {
                    let delta = old_base + u64::from(*id) - new_base;
                    assert!(delta <= u32::MAX as u64, "live job-id span exceeds u32");
                    *id = delta as u32;
                }
                page = pool.next[page as usize];
            }
        }
        self.id_base = new_base;
    }

    /// Heap bytes currently reserved by the pooled job table — pages,
    /// free lists, and per-server chain anchors. The 1M-tier budget
    /// divides this by the server count for its recorded
    /// bytes-per-server figure.
    pub fn job_table_bytes(&self) -> usize {
        self.pools.iter().map(JobPool::heap_bytes).sum::<usize>()
            + self.pools.capacity() * std::mem::size_of::<JobPool>()
            + self.job_heads.capacity() * 4
            + self.job_tails.capacity() * 4
            + self.job_counts.capacity() * 4
    }

    /// Hints the CPU to pull server `i`'s placement-hot lanes (chain
    /// anchors, occupancy count, power lane, and the tail page's id and
    /// due-tick line and kind bytes) toward L1 ([`prefetch`]); a no-op
    /// for a server the farm does not hold.
    ///
    /// The tail page (where `start_job` writes) is hinted through a
    /// plain read of `job_tails[i]`: the read has no side effects, and
    /// an out-of-order core issues the dependent prefetch as soon as
    /// the anchor arrives — still well ahead of the commit that needs
    /// the page.
    #[inline]
    pub fn prefetch_server(&self, i: usize) {
        let Some(tail) = self.job_tails.get(i) else {
            return;
        };
        prefetch(&self.job_heads[i]);
        prefetch(tail);
        prefetch(&self.job_counts[i]);
        prefetch(&self.active_power_w[i]);
        if *tail != NO_PAGE {
            self.pools[i / SHARD].prefetch_page(*tail);
        }
    }

    /// Ensures the persistent pool exists with one parked thread fewer
    /// than [`tick_fan_out`] workers (the engine thread participates, so
    /// a pooled sweep runs on exactly the workers `tick_fan_out`
    /// promises — the count the experiment sweep runner budgets by).
    ///
    /// Sized from the farm size and configured thread count alone —
    /// never from a per-tick decision. Sizing the pool to whichever
    /// per-tick gate just fired once tore it down and respawned OS
    /// threads every tick, which is exactly the 10k-server regression
    /// where 8 requested threads ran slower than 2.
    fn ensure_pool(&mut self) {
        let needed = tick_fan_out(self.len(), self.threads) - 1;
        if self.pool.as_ref().map(TickPool::workers) != Some(needed) {
            self.pool = Some(TickPool::new(needed));
        }
    }

    /// Ends every job due at tick `tick`: one sweep over the job table
    /// that retires each server's due jobs in ascending id order
    /// ([`retire_due`]), exactly as [`ServerFarm::end_job`] calls in
    /// that order would.
    ///
    /// The sweep visits every running job, so it fans out like the
    /// physics sweep: [`tick_fan_out`] participants, each on one
    /// contiguous shard range ([`part_range`]); two split at the
    /// hot/cold edge server `hot_limit` (0 without a hot group, see
    /// [`edge_shard`]). Each shard task mutates only its own pool, chain
    /// anchors, counts and power lanes, and the integer per-shard
    /// outcomes are folded in shard order, so the result is the same at
    /// any thread count.
    ///
    /// Returns the number of jobs ended. `occupancy` is decremented per
    /// workload kind and the index's used total by the jobs ended. When
    /// `log` is supplied it receives one
    /// `(id − id_base) << 32 | server` word per ended job, in shard
    /// order and by ascending id within each server.
    pub(crate) fn end_due_jobs(
        &mut self,
        tick: u32,
        hot_limit: usize,
        index: &mut ClusterIndex,
        occupancy: &mut [usize; 5],
        log: Option<&mut Vec<u64>>,
        timing: Option<&mut SweepTiming>,
    ) -> u64 {
        let n = self.len();
        let num_shards = n.div_ceil(SHARD);
        let workers = tick_fan_out(n, self.threads);
        if workers > 1 {
            self.ensure_pool();
        }
        if log.is_some() {
            self.depart_logs.resize_with(num_shards, Vec::new);
        }
        let mut outs = vec![DepartOut::default(); num_shards];
        let mut tasks: Vec<DepartView<'_>> = Vec::with_capacity(num_shards);
        {
            let mut pools = self.pools.as_mut_slice();
            let mut heads = self.job_heads.as_mut_slice();
            let mut tails = self.job_tails.as_mut_slice();
            let mut counts = self.job_counts.as_mut_slice();
            let mut power = self.active_power_w.as_mut_slice();
            let mut logs = log.is_some().then_some(self.depart_logs.iter_mut());
            let mut outs_rest = outs.as_mut_slice();
            let mut base = 0;
            while base < n {
                let len = SHARD.min(n - base);
                let (out, rest) = std::mem::take(&mut outs_rest).split_at_mut(1);
                outs_rest = rest;
                tasks.push(DepartView {
                    base,
                    tick,
                    pool: &mut split_front_mut(&mut pools, 1)[0],
                    job_heads: split_front_mut(&mut heads, len),
                    job_tails: split_front_mut(&mut tails, len),
                    job_counts: split_front_mut(&mut counts, len),
                    active_power_w: split_front_mut(&mut power, len),
                    log: logs.as_mut().and_then(Iterator::next),
                    out: &mut out[0],
                });
                base += len;
            }
        }

        let started = timing.as_ref().map(|_| std::time::Instant::now());
        let mut pool_busy: Vec<u64> = Vec::new();
        if workers == 1 {
            for task in tasks {
                run_depart_shard(task);
            }
        } else {
            let pool = self.pool.as_ref().expect("pool sized above");
            if started.is_some() {
                pool_busy = vec![0u64; pool.workers() + 1];
            }
            let busy = started.map(|_| pool_busy.as_mut_slice());
            let edge = edge_shard(hot_limit, n);
            run_ranges(pool, workers, edge, tasks, run_depart_shard, busy);
        }
        if let (Some(timing), Some(t0)) = (timing, started) {
            let span_ns = t0.elapsed().as_nanos() as u64;
            timing.shards_ns += span_ns;
            if !pool_busy.is_empty() {
                timing.add_pool_busy(span_ns, &pool_busy);
            }
        }

        // Shard-ordered integer fold of the per-shard outcomes.
        let mut ended = 0u64;
        for out in &outs {
            ended += u64::from(out.ended);
            for (slot, &count) in occupancy.iter_mut().zip(&out.kinds) {
                *slot -= count as usize;
            }
        }
        if let Some(log) = log {
            log.clear();
            for shard in &mut self.depart_logs {
                log.append(shard);
            }
        }
        index.record_ends(ended);
        ended
    }

    /// Ends a job on server `i`, freeing its core. Returns the job's
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running on server `i`.
    #[inline]
    pub fn end_job(&mut self, i: usize, id: JobId) -> WorkloadKind {
        let pos = self
            .job_row(i)
            .position(|(job, _)| job == id)
            .unwrap_or_else(|| panic!("{id} not running on {}", ServerId(i)));
        let kind = remove_at(
            &mut self.pools[i / SHARD],
            &mut self.job_heads[i],
            &mut self.job_tails[i],
            &mut self.job_counts[i],
            pos,
        );
        self.active_power_w[i] -= WorkloadKind::ALL[kind as usize].core_power().get();
        // Guard against f64 drift accumulating into a negative draw.
        if self.job_counts[i] == 0 {
            self.active_power_w[i] = 0.0;
        }
        WorkloadKind::ALL[kind as usize]
    }

    /// Advances every server's physics by `dt` (thermal response, wax
    /// exchange, estimator update) and returns the order-stable tick
    /// totals. Standalone form for tests and benches; the engine uses
    /// the recording variant that also refreshes the [`ClusterIndex`]'s
    /// reported melt and the heatmap rows.
    pub fn tick_physics(&mut self, dt: Seconds) -> FarmTickTotals {
        self.sweep(dt, 0, None, None, None, None)
    }

    /// The engine's physics tick: advances all servers, writes the
    /// index's reported-melt lane in place, and fills the optional
    /// heatmap rows (physical air temperature and melt fraction per
    /// server). When `timing` is supplied the sweep attributes its wall
    /// time to the shard-run and fold sections; the `None` path takes no
    /// timestamps.
    pub(crate) fn tick_physics_recorded(
        &mut self,
        dt: Seconds,
        hot_limit: usize,
        index: &mut ClusterIndex,
        temp_row: Option<&mut [f64]>,
        melt_row: Option<&mut [f64]>,
        timing: Option<&mut SweepTiming>,
    ) -> FarmTickTotals {
        let report = Some(index.reported_melt_mut());
        self.sweep(dt, hot_limit, report, temp_row, melt_row, timing)
    }

    /// The sharded sweep behind both tick entry points. Every sink —
    /// the reported-melt lane and the two heatmap rows — is optional.
    fn sweep(
        &mut self,
        dt: Seconds,
        hot_limit: usize,
        report: Option<&mut [f64]>,
        temp_row: Option<&mut [f64]>,
        melt_row: Option<&mut [f64]>,
        timing: Option<&mut SweepTiming>,
    ) -> FarmTickTotals {
        let n = self.len();
        if n == 0 {
            return FarmTickTotals::default();
        }
        debug_assert!(dt.get() > 0.0, "dt must be positive");
        let num_shards = n.div_ceil(SHARD);
        let workers = tick_fan_out(n, self.threads);
        // Spin up the persistent pool before any state borrows are taken.
        if workers > 1 {
            self.ensure_pool();
        }
        let wax = self.wax.as_ref().map(|w| {
            let (substeps, sub_dt_s) = w.kernel.substeps(dt.get());
            WaxTick {
                kernel: w.kernel,
                estimator: &w.estimator,
                substeps,
                sub_dt_s,
                oracle: self.oracle_wax_state,
            }
        });
        let params = TickParams {
            idle_w: self.power_model.idle().get(),
            capacity_rate: self.air.capacity_rate().get(),
            decay: vmt_thermal::kernel::decay_factor(dt.get(), self.time_constant.get()),
            dt_s: dt.get(),
            hot_limit,
            wax,
        };

        // Slice the state and sink arrays into the fixed shard grid.
        let mut outs = vec![FarmTickTotals::default(); num_shards];
        let mut tasks: Vec<ShardView<'_>> = Vec::with_capacity(num_shards);
        {
            let mut inlet = self.inlet_c.as_slice();
            let mut active = self.active_power_w.as_slice();
            let mut at_wax = self.at_wax_c.as_mut_slice();
            let mut enthalpy = self.enthalpy_j.as_mut_slice();
            let mut est_temp = self.est_temp_c.as_mut_slice();
            let mut est_frac = self.est_fraction.as_mut_slice();
            let mut report = report;
            let mut temp_row = temp_row;
            let mut melt_row = melt_row;
            let mut outs_rest = outs.as_mut_slice();
            let mut base = 0;
            while base < n {
                let len = SHARD.min(n - base);
                let (out, rest) = std::mem::take(&mut outs_rest).split_at_mut(1);
                outs_rest = rest;
                tasks.push(ShardView {
                    base,
                    inlet: split_front(&mut inlet, len),
                    active: split_front(&mut active, len),
                    at_wax: split_front_mut(&mut at_wax, len),
                    enthalpy: split_front_mut(&mut enthalpy, len),
                    est_temp: split_front_mut(&mut est_temp, len),
                    est_frac: split_front_mut(&mut est_frac, len),
                    report: split_front_opt(&mut report, len),
                    temp_row: split_front_opt(&mut temp_row, len),
                    melt_row: split_front_opt(&mut melt_row, len),
                    out: &mut out[0],
                });
                base += len;
            }
        }

        // Run the shards: inline at one worker, else on the persistent
        // pool where each participant takes one contiguous shard range
        // (two split at the hot/cold edge). Which thread runs a shard
        // does not affect its output, and the fold below is always in
        // shard order.
        let shards_started = timing.as_ref().map(|_| std::time::Instant::now());
        let mut pool_busy: Vec<u64> = Vec::new();
        if workers == 1 {
            for task in tasks {
                run_shard(task, &params);
            }
        } else {
            let pool = self.pool.as_ref().expect("pool sized above");
            if shards_started.is_some() {
                pool_busy = vec![0u64; pool.workers() + 1];
            }
            let busy = shards_started.map(|_| pool_busy.as_mut_slice());
            let edge = edge_shard(hot_limit, n);
            let params = &params;
            run_ranges(
                pool,
                workers,
                edge,
                tasks,
                |task| run_shard(task, params),
                busy,
            );
        }
        let fold_started = shards_started.map(|t0| {
            let now = std::time::Instant::now();
            (now, now.duration_since(t0))
        });

        // Order-stable fold of the shard partials.
        let mut totals = FarmTickTotals::default();
        for out in &outs {
            totals.fold(out);
        }
        if let (Some(timing), Some((fold_t0, shards_elapsed))) = (timing, fold_started) {
            let span_ns = shards_elapsed.as_nanos() as u64;
            timing.shards_ns += span_ns;
            timing.fold_ns += fold_t0.elapsed().as_nanos() as u64;
            if !pool_busy.is_empty() {
                timing.add_pool_busy(span_ns, &pool_busy);
            }
        }
        totals
    }
}

/// The shard boundary a two-participant pooled section splits at: the
/// hot/cold edge server `hot_limit` of a farm of `n` servers rounded to
/// the nearest shard boundary, or the midpoint when there is no hot
/// group (`hot_limit` 0). The departure sweep and the physics sweep both
/// take their split from here, so a group's shards stay with the same
/// participant in both sections.
fn edge_shard(hot_limit: usize, n: usize) -> usize {
    let edge = if hot_limit == 0 { n / 2 } else { hot_limit };
    (edge.saturating_add(SHARD / 2) / SHARD).min(n.div_ceil(SHARD))
}

/// The contiguous shard range pool participant `part` of `parts` runs in
/// a section over `shards` shards.
///
/// Two participants split at shard `edge` ([`edge_shard`]) when it lies
/// strictly inside: the calling thread runs the hot group's shards and
/// the worker the cold group's, in the departure sweep, the placement
/// streams and the physics sweep alike, so each group's lanes stay in
/// one core's cache across the tick instead of migrating shard by
/// shard. Otherwise the shards are cut into `parts` equal ranges: with
/// more than two participants the pool's claim order is arbitrary, so an
/// edge cut would buy no locality and only make the ranges uneven.
fn part_range(part: usize, parts: usize, shards: usize, edge: usize) -> std::ops::Range<usize> {
    debug_assert!(part < parts);
    if parts == 2 && 0 < edge && edge < shards {
        return if part == 0 { 0..edge } else { edge..shards };
    }
    shards * part / parts..shards * (part + 1) / parts
}

/// Runs every shard task of a pooled section: participant `part` of
/// `parts` takes [`part_range`]'s contiguous range of `tasks` (split at
/// shard `edge` when `parts` is 2). Output is independent of which
/// thread ran which range (callers fold shard outputs in shard order);
/// `busy`, when supplied, receives the per-participant busy
/// nanoseconds.
///
/// Each participant's range is handed over as an owned `Vec` behind its
/// own lock, which the participant empties once before it runs the
/// tasks; the pool claims each participant index once, so no lock is
/// ever contended or held while a task runs.
fn run_ranges<T: Send>(
    pool: &TickPool,
    parts: usize,
    edge: usize,
    tasks: Vec<T>,
    run: impl Fn(T) + Sync,
    busy: Option<&mut [u64]>,
) {
    let shards = tasks.len();
    let mut tasks = tasks.into_iter();
    let ranges: Vec<Mutex<Vec<T>>> = (0..parts)
        .map(|part| {
            let len = part_range(part, parts, shards, edge).len();
            Mutex::new(tasks.by_ref().take(len).collect())
        })
        .collect();
    let run = move |part: usize| {
        let range = std::mem::take(
            &mut *ranges[part]
                .lock()
                .expect("no task runs while its range lock is held"),
        );
        for task in range {
            run(task);
        }
    };
    match busy {
        Some(busy) => pool.run_timed(parts, &run, busy),
        None => pool.run(parts, &run),
    }
}

/// Runs `a` and `b`: at the same time on `pool` when one is supplied
/// (the calling thread normally claims `a`, a worker `b`), else inline
/// in that order.
fn run_pair<'t>(
    pool: Option<&TickPool>,
    a: impl FnOnce() + Send + 't,
    b: impl FnOnce() + Send + 't,
) {
    let Some(pool) = pool else {
        a();
        b();
        return;
    };
    let tasks: Vec<Box<dyn FnOnce() + Send + 't>> = vec![Box::new(a), Box::new(b)];
    run_ranges(pool, 2, 1, tasks, |task| task(), None);
}

/// Detaches the first `len` elements from a shrinking slice cursor.
fn split_front<'a, T>(s: &mut &'a [T], len: usize) -> &'a [T] {
    let (head, tail) = std::mem::take(s).split_at(len);
    *s = tail;
    head
}

/// Mutable variant of [`split_front`].
fn split_front_mut<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(s).split_at_mut(len);
    *s = tail;
    head
}

/// [`split_front_mut`] over an optional row (heatmap sampling ticks).
fn split_front_opt<'a>(s: &mut Option<&'a mut [f64]>, len: usize) -> Option<&'a mut [f64]> {
    s.take().map(|row| {
        let (head, tail) = row.split_at_mut(len);
        *s = Some(tail);
        head
    })
}

/// Per-tick constants shared by every shard.
struct TickParams<'a> {
    idle_w: f64,
    capacity_rate: f64,
    decay: f64,
    dt_s: f64,
    hot_limit: usize,
    wax: Option<WaxTick<'a>>,
}

/// Per-tick wax constants (sub-step schedule is shared since `dt` is).
struct WaxTick<'a> {
    kernel: WaxKernel,
    estimator: &'a WaxStateEstimator,
    substeps: usize,
    sub_dt_s: f64,
    oracle: bool,
}

/// One shard's mutable window over the farm's state and sink arrays.
struct ShardView<'a> {
    /// Global index of the first server in the shard.
    base: usize,
    inlet: &'a [f64],
    active: &'a [f64],
    at_wax: &'a mut [f64],
    enthalpy: &'a mut [f64],
    est_temp: &'a mut [f64],
    est_frac: &'a mut [f64],
    /// The index's reported-melt lane, when the engine ticks.
    report: Option<&'a mut [f64]>,
    temp_row: Option<&'a mut [f64]>,
    melt_row: Option<&'a mut [f64]>,
    out: &'a mut FarmTickTotals,
}

/// Per-shard integer outcome of the departure sweep, folded by
/// [`ServerFarm::end_due_jobs`] in shard order.
#[derive(Debug, Clone, Copy, Default)]
struct DepartOut {
    /// Jobs ended in this shard.
    ended: u32,
    /// Ended jobs per workload, indexed by [`WorkloadKind::index`].
    kinds: [u32; 5],
}

/// One shard's mutable window over the pooled job table (the shard's
/// pool owned outright, plus chain-anchor/count windows) and power lane
/// for the departure sweep.
struct DepartView<'a> {
    /// Global index of the first server in the shard.
    base: usize,
    /// The tick whose due jobs end.
    tick: u32,
    pool: &'a mut JobPool,
    job_heads: &'a mut [u32],
    job_tails: &'a mut [u32],
    job_counts: &'a mut [u32],
    active_power_w: &'a mut [f64],
    /// The shard's departure log when the engine records departures.
    log: Option<&'a mut Vec<u64>>,
    out: &'a mut DepartOut,
}

/// How many servers ahead of the one it retires the departure sweep
/// prefetches a chain.
const SWEEP_PREFETCH: usize = 4;

/// Retires one shard's due jobs, server by server ([`retire_due`]),
/// with [`ServerFarm::end_job`]'s power and drift-guard sequence.
fn run_depart_shard(task: DepartView<'_>) {
    let DepartView {
        base,
        tick,
        pool,
        job_heads,
        job_tails,
        job_counts,
        active_power_w,
        mut log,
        out,
    } = task;
    for local in 0..job_counts.len() {
        // A server's pages lie anywhere in its shard's pool, so the
        // scan would wait on each one; pull a later server's chain in
        // while this one is retired.
        if let Some(&ahead) = job_heads.get(local + SWEEP_PREFETCH) {
            pool.prefetch_chain(ahead);
        }
        if job_counts[local] == 0 {
            continue;
        }
        let server = (base + local) as u64;
        let before = job_counts[local];
        let power = &mut active_power_w[local];
        retire_due(
            pool,
            &mut job_heads[local],
            &mut job_tails[local],
            &mut job_counts[local],
            tick,
            |delta, kind| {
                *power -= WorkloadKind::ALL[kind as usize].core_power().get();
                out.kinds[kind as usize] += 1;
                if let Some(log) = log.as_deref_mut() {
                    log.push(u64::from(delta) << 32 | server);
                }
            },
        );
        let retired = before - job_counts[local];
        if retired > 0 {
            // Same drift guard as `end_job`: the count reaches zero only
            // at the last removal.
            if job_counts[local] == 0 {
                *power = 0.0;
            }
            out.ended += retired;
        }
    }
}

/// Advances one shard: the element-serial physics sequence every thread
/// count runs identically, split into per-quantity passes over
/// shard-local stack lanes (loop fission).
///
/// Fission is bit-identical to the fused per-server loop because every
/// pass still walks servers in order and each accumulator field of
/// [`FarmTickTotals`] is independent — splitting the loop changes which
/// *other* fields are updated between two additions to a field, never
/// the sequence of additions the field itself sees. What fission buys is
/// that the branch-free passes (thermal lag, untapered single-substep
/// wax exchange, melt clamp, the running sums) become straight-line
/// loops over `f64` lanes that the compiler auto-vectorizes, while the
/// genuinely branchy estimator spec stays a scalar per-object loop.
fn run_shard(task: ShardView<'_>, p: &TickParams<'_>) {
    let ShardView {
        base,
        inlet,
        active,
        at_wax,
        enthalpy,
        est_temp,
        est_frac,
        report,
        temp_row,
        melt_row,
        out,
    } = task;
    let len = at_wax.len();
    debug_assert!(len <= SHARD);
    // Shard-local lanes: ≤ SHARD elements each, stack-resident.
    let mut air_buf = [0.0f64; SHARD];
    let mut heat_buf = [0.0f64; SHARD];
    let mut melt_buf = [0.0f64; SHARD];
    let air = &mut air_buf[..len];
    let heat = &mut heat_buf[..len];
    let melt = &mut melt_buf[..len];

    // Thermal-lag pass (branch-free: exponential decay toward steady
    // state).
    for j in 0..len {
        air[j] = vmt_thermal::kernel::step(
            at_wax[j],
            inlet[j],
            p.idle_w + active[j],
            p.capacity_rate,
            p.decay,
        );
    }
    at_wax.copy_from_slice(air);

    if let Some(w) = &p.wax {
        // Wax-exchange pass. The paper's deployment ticks with one
        // sub-step and no interface taper, which admits the branch-light
        // selected-temperature kernel; anything else falls back to the
        // per-object sub-stepped spec. Both compute the identical
        // per-server operation sequence.
        if w.substeps == 1 && w.kernel.is_untapered() {
            for j in 0..len {
                let (h, q) = w
                    .kernel
                    .exchange_step_untapered(enthalpy[j], air[j], w.sub_dt_s);
                enthalpy[j] = h;
                heat[j] = q;
            }
        } else {
            for j in 0..len {
                let (h, q) = w
                    .kernel
                    .exchange(enthalpy[j], air[j], w.substeps, w.sub_dt_s);
                enthalpy[j] = h;
                heat[j] = q;
            }
        }
        // Estimator pass: stays per-object — the plateau/sensible
        // anchoring logic is genuinely branchy and is the executable
        // spec the differential tests pin.
        for j in 0..len {
            let (temp, fraction) = w
                .estimator
                .step_state(est_temp[j], est_frac[j], air[j], p.dt_s);
            est_temp[j] = temp;
            est_frac[j] = fraction;
        }
        // Melt derivation (a clamp — vectorizes).
        for j in 0..len {
            melt[j] = w.kernel.melt_fraction(enthalpy[j]);
        }
        // Accumulation passes: each field sees its additions in server
        // order, exactly as the fused loop delivered them.
        for &q in heat.iter() {
            out.into_wax_w += q / p.dt_s;
        }
        let latent = w.kernel.latent_capacity_j();
        for &m in melt.iter() {
            out.stored_energy_j += latent * m;
        }
    }
    // Waxless: the fused loop accumulated per-server zeros into
    // into_wax/stored, which leaves +0.0 — identical to not adding —
    // and the melt lane stays all zeros.

    for &a in active.iter() {
        out.electrical_w += p.idle_w + a;
    }
    for &t in air.iter() {
        out.temp_sum_c += t;
    }
    // Leading-servers hot sum: same elements the fused loop's
    // `base + j < hot_limit` test admitted.
    let hot_count = p.hot_limit.saturating_sub(base).min(len);
    for &t in &air[..hot_count] {
        out.hot_sum_c += t;
    }

    if let Some(report) = report {
        // What the scheduler sees: the estimator's report, or the
        // physical fraction under the oracle ablation (and zero without
        // wax).
        report.copy_from_slice(match &p.wax {
            Some(w) if !w.oracle => &*est_frac,
            _ => &*melt,
        });
    }
    if let Some(row) = temp_row {
        row.copy_from_slice(air);
    }
    if let Some(row) = melt_row {
        row.copy_from_slice(melt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmt_units::Hours;

    fn job(id: u64, kind: WorkloadKind) -> Job {
        Job::new(JobId(id), kind, Seconds::new(300.0))
    }

    /// Server `i` runs `i % 8` jobs, due at ticks 1, 2 and 3 in turn.
    fn loaded_farm(n: usize) -> ServerFarm {
        let config = ClusterConfig::paper_default(n);
        let mut farm = ServerFarm::from_config(&config);
        for i in 0..n {
            for core in 0..(i % 8) as u64 {
                let mut j = job(i as u64 * 100 + core, WorkloadKind::VideoEncoding);
                j.set_due_tick(1 + (core % 3) as u32);
                farm.start_job(i, &j);
            }
        }
        farm
    }

    #[test]
    fn matches_per_server_tick_bit_for_bit() {
        let config = ClusterConfig::paper_default(7);
        let mut farm = ServerFarm::from_config(&config);
        let mut servers: Vec<Server> = (0..7)
            .map(|i| Server::from_config(ServerId(i), &config))
            .collect();
        for (i, server) in servers.iter_mut().enumerate() {
            for core in 0..i as u64 {
                let j = job(i as u64 * 10 + core, WorkloadKind::WebSearch);
                farm.start_job(i, &j);
                server.start_job(&j);
            }
        }
        for _ in 0..240 {
            farm.tick_physics(Seconds::new(60.0));
            for s in servers.iter_mut() {
                s.tick(Seconds::new(60.0));
            }
        }
        for (i, s) in servers.iter().enumerate() {
            assert_eq!(farm.air_at_wax(i), s.air_at_wax(), "air of {i}");
            assert_eq!(farm.melt_fraction(i), s.melt_fraction(), "melt of {i}");
            assert_eq!(
                farm.reported_melt_fraction(i),
                s.reported_melt_fraction(),
                "reported of {i}"
            );
            assert_eq!(
                farm.stored_latent_energy(i),
                s.stored_latent_energy(),
                "stored of {i}"
            );
            assert_eq!(farm.power(i), s.power(), "power of {i}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let horizon = Hours::new(4.0);
        let ticks = (horizon.get() * 60.0) as usize;
        let mut reference: Option<(Vec<f64>, FarmTickTotals)> = None;
        for threads in [1usize, 2, 3, 8] {
            let mut farm = loaded_farm(150);
            farm.set_threads(threads);
            let mut last = FarmTickTotals::default();
            for _ in 0..ticks {
                last = farm.tick_physics(Seconds::new(60.0));
            }
            let state: Vec<f64> = (0..farm.len()).map(|i| farm.air_at_wax(i).get()).collect();
            match &reference {
                None => reference = Some((state, last)),
                Some((ref_state, ref_totals)) => {
                    assert_eq!(&state, ref_state, "state at {threads} threads");
                    assert_eq!(&last, ref_totals, "totals at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn round_trips_through_servers() {
        let mut farm = loaded_farm(5);
        for _ in 0..60 {
            farm.tick_physics(Seconds::new(60.0));
        }
        let servers = farm.to_servers();
        let back = ServerFarm::from_servers(&servers);
        for i in 0..farm.len() {
            assert_eq!(farm.air_at_wax(i), back.air_at_wax(i));
            assert_eq!(farm.melt_fraction(i), back.melt_fraction(i));
            assert_eq!(
                farm.reported_melt_fraction(i),
                back.reported_melt_fraction(i)
            );
            assert_eq!(farm.power(i), back.power(i));
            assert_eq!(farm.used_cores(i), back.used_cores(i));
            assert_eq!(farm.kind_counts(i), back.kind_counts(i));
        }
        // And the next tick evolves identically from both copies.
        let mut round = back;
        let a = farm.tick_physics(Seconds::new(60.0));
        let b = round.tick_physics(Seconds::new(60.0));
        assert_eq!(a, b);
    }

    #[test]
    fn pooled_table_survives_a_rebase() {
        // The engine's ids are monotonic: by the time one outruns the
        // 32-bit delta window, the oldest live id is nearby. Model
        // that: live ids near u32::MAX (deltas from base 0 barely
        // fit), then one past the window, forcing a rebase to the
        // oldest live id; every pre-rebase id must keep resolving.
        let config = ClusterConfig::paper_default(2);
        let mut farm = ServerFarm::from_config(&config);
        let near = u32::MAX as u64 - 5;
        farm.start_job(0, &job(near, WorkloadKind::VideoEncoding));
        farm.start_job(1, &job(near + 1, WorkloadKind::WebSearch));
        let big = near + 1000;
        farm.start_job(0, &job(big, WorkloadKind::VirusScan));
        assert_eq!(farm.used_cores(0), 2);
        assert_eq!(farm.end_job(0, JobId(near)), WorkloadKind::VideoEncoding);
        assert_eq!(farm.end_job(1, JobId(near + 1)), WorkloadKind::WebSearch);
        assert_eq!(
            farm.job_row(0).collect::<Vec<_>>(),
            vec![(JobId(big), WorkloadKind::VirusScan)]
        );
        assert_eq!(farm.end_job(0, JobId(big)), WorkloadKind::VirusScan);
        // An id below the current base rebases downward again.
        farm.start_job(1, &job(7, WorkloadKind::WebSearch));
        assert_eq!(
            farm.job_row(1).next(),
            Some((JobId(7), WorkloadKind::WebSearch))
        );
        assert_eq!(farm.end_job(1, JobId(7)), WorkloadKind::WebSearch);
        assert!((0..2).all(|i| farm.used_cores(i) == 0));
    }

    #[test]
    fn pooled_table_recycles_pages_under_churn() {
        let config = ClusterConfig::paper_default(4);
        let mut farm = ServerFarm::from_config(&config);
        let fill = |farm: &mut ServerFarm, round: u64| {
            for i in 0..4 {
                for core in 0..32u64 {
                    let id = round * 1000 + i as u64 * 100 + core;
                    farm.start_job(i, &job(id, WorkloadKind::WebSearch));
                }
            }
        };
        let drain = |farm: &mut ServerFarm, round: u64| {
            for i in 0..4 {
                for core in 0..32u64 {
                    farm.end_job(i, JobId(round * 1000 + i as u64 * 100 + core));
                }
            }
        };
        fill(&mut farm, 0);
        drain(&mut farm, 0);
        let settled = farm.job_table_bytes();
        for round in 1..40 {
            fill(&mut farm, round);
            drain(&mut farm, round);
        }
        // Freed pages are reused, so churn never grows the table.
        assert_eq!(farm.job_table_bytes(), settled);
        assert!((0..4).all(|i| farm.used_cores(i) == 0));
    }

    #[test]
    fn state_holds_live_rows_and_restores_identically() {
        let mut farm = loaded_farm(12);
        // Punch a hole mid-row so the swap-remove order is non-trivial.
        farm.end_job(5, JobId(502));
        let state = farm.state();
        let live: Vec<u64> = (0..farm.len())
            .flat_map(|i| farm.job_row(i).map(|(id, _)| id.0).collect::<Vec<_>>())
            .collect();
        assert_eq!(state.job_ids.iter().collect::<Vec<_>>(), live);
        assert_eq!(state.job_ids.base, live.iter().copied().min().unwrap());
        assert_eq!(state.job_kinds.len(), live.len());
        assert_eq!(
            state.job_counts.iter().map(|&c| c as usize).sum::<usize>(),
            live.len()
        );
        let mut restored = ServerFarm::from_config(&ClusterConfig::paper_default(12));
        restored.apply_state(&state).unwrap();
        for i in 0..farm.len() {
            assert_eq!(restored.kind_counts(i), farm.kind_counts(i));
            assert_eq!(restored.used_cores(i), farm.used_cores(i));
            assert_eq!(
                restored.job_row(i).collect::<Vec<_>>(),
                farm.job_row(i).collect::<Vec<_>>()
            );
        }
        // The restored table keeps evolving identically, including the
        // swap-remove sequence a later departure triggers.
        assert_eq!(restored.end_job(5, JobId(501)), farm.end_job(5, JobId(501)));
        assert_eq!(
            restored.job_row(5).collect::<Vec<_>>(),
            farm.job_row(5).collect::<Vec<_>>()
        );
        assert_eq!(
            restored.tick_physics(Seconds::new(60.0)),
            farm.tick_physics(Seconds::new(60.0))
        );
    }

    #[test]
    fn tick_fan_out_follows_the_worker_quantum() {
        // (servers, fan-out at 1 / 2 / 8 threads) on an unbounded
        // machine: one worker per 2,048 servers, at least one.
        let table = [
            (1, [1, 1, 1]),
            (2047, [1, 1, 1]),
            (2048, [1, 1, 1]),
            (4095, [1, 1, 1]),
            (4096, [1, 2, 2]),
            (10_000, [1, 2, 4]),
            (100_000, [1, 2, 8]),
        ];
        for (servers, row) in table {
            for (threads, unclamped) in [1, 2, 8].into_iter().zip(row) {
                assert_eq!(
                    tick_fan_out(servers, threads),
                    unclamped.min(machine_parallelism()),
                    "{servers} servers at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sweep_below_the_physics_quantum_never_builds_the_pool() {
        // 4,000 servers at 8 threads: one physics quantum short of
        // fanning out, with 12,000 jobs due in one tick.
        let n = 4000;
        let mut farm = ServerFarm::from_config(&ClusterConfig::paper_default(n));
        farm.set_threads(8);
        let mut occupancy = [0usize; 5];
        for i in 0..n {
            for core in 0..3 {
                let mut j = job((i * 3 + core) as u64, WorkloadKind::WebSearch);
                j.set_due_tick(7);
                farm.start_job(i, &j);
                occupancy[WorkloadKind::WebSearch.index()] += 1;
            }
        }
        let mut index = ClusterIndex::new(&farm);
        let ended = farm.end_due_jobs(7, 0, &mut index, &mut occupancy, None, None);
        assert_eq!(ended, 3 * n as u64);
        assert_eq!(occupancy, [0; 5]);
        assert!((0..n).all(|i| farm.used_cores(i) == 0));
        assert!(farm.pool.is_none(), "sweep fanned out below the quantum");
    }

    /// The sweep retires each server's due jobs in ascending id order
    /// with the swap-remove `end_job` performs: rows, power lanes, page
    /// chains and free lists end exactly as `end_job` calls in that
    /// order leave them, and the log lists the retired jobs by server
    /// and id. Ids are placed out of order so the swap-removes move due
    /// jobs that are still to go. Servers of the paper's 32 cores take
    /// the bitmask path, servers of 100 cores the scanning one.
    #[test]
    fn sweep_matches_end_job_in_id_order() {
        for cores in [32u32, 100] {
            sweep_matches_end_job_at(cores);
        }
    }

    fn sweep_matches_end_job_at(cores: u32) {
        let n = 3 * SHARD + 5;
        let mut config = ClusterConfig::paper_default(n);
        config.power =
            vmt_power::ServerPowerModel::new(Watts::new(100.0), Watts::new(500.0), cores).unwrap();
        let mut swept = ServerFarm::from_config(&config);
        let modulus = u64::from(cores) + 1;
        for i in 0..n {
            for k in 0..(i as u64 * 7 % modulus) {
                // A scrambled but unique id per (server, slot): 13 is
                // coprime to the 1,000-id block.
                let id = i as u64 * 1000 + (k * 13 + i as u64) % 1000;
                let mut j = job(id, WorkloadKind::ALL[(i + k as usize) % 5]);
                j.set_due_tick(1 + ((k * 5 + i as u64) % 4) as u32);
                swept.start_job(i, &j);
            }
        }
        let mut manual = swept.clone();
        let mut index = ClusterIndex::new(&swept);
        let mut occupancy = [usize::MAX / 2; 5];
        let mut log = Vec::new();
        for tick in 1..=4u32 {
            let mut want_log = Vec::new();
            for i in 0..n {
                let mut due: Vec<u64> = Vec::new();
                manual.for_each_job(|server, delta, when| {
                    if server == i && when == tick {
                        due.push(u64::from(delta));
                    }
                });
                due.sort_unstable();
                for delta in due {
                    manual.end_job(i, JobId(manual.id_base + delta));
                    want_log.push(delta << 32 | i as u64);
                }
            }
            swept.end_due_jobs(tick, 0, &mut index, &mut occupancy, Some(&mut log), None);
            let label = format!("{cores} cores, tick {tick}");
            assert_eq!(log, want_log, "{label}");
            assert_eq!(swept.state(), manual.state(), "{label}");
            for (a, b) in swept.pools.iter().zip(&manual.pools) {
                assert_eq!((&a.next, &a.free), (&b.next, &b.free), "{label}");
            }
            assert_eq!(swept.job_heads, manual.job_heads, "{label}");
            assert_eq!(swept.job_tails, manual.job_tails, "{label}");
            assert_eq!(
                index.used_cores_total(),
                ClusterIndex::new(&manual).used_cores_total(),
                "{label}"
            );
        }
        assert!((0..n).all(|i| swept.used_cores(i) == 0));
        assert!((0..n).any(|i| i as u64 * 7 % modulus > 64) == (cores > 64));
    }

    /// Participant ranges tile the shards in order, one contiguous range
    /// each. Two participants split at an inner edge shard; any other
    /// count gets equal ranges.
    #[test]
    fn participant_ranges_tile_the_shards() {
        for shards in [2, 3, 7, 64, 97, 157, 1563] {
            for parts in 2..=8 {
                for edge in [0, 1, shards / 3, shards / 2, shards - 1, shards] {
                    let ranges: Vec<_> = (0..parts)
                        .map(|part| part_range(part, parts, shards, edge))
                        .collect();
                    let label = format!("{shards} shards, {parts} parts, edge {edge}");
                    assert_eq!(ranges[0].start, 0, "{label}");
                    assert_eq!(ranges[parts - 1].end, shards, "{label}");
                    for pair in ranges.windows(2) {
                        assert_eq!(pair[0].end, pair[1].start, "{label}");
                    }
                    if parts == 2 && 0 < edge && edge < shards {
                        assert_eq!(ranges[0].end, edge, "{label}");
                    } else {
                        let lens = ranges.iter().map(ExactSizeIterator::len);
                        let (min, max) = (lens.clone().min(), lens.max());
                        assert!(max <= min.map(|m| m + 1), "{label}: {ranges:?}");
                    }
                }
            }
        }
        // 10,000 servers at GV 22: the 6,162-server hot group rounds to
        // shard 96, and two participants split there; four take equal
        // ranges of 39 or 40 shards.
        assert_eq!(edge_shard(6162, 10_000), 96);
        assert_eq!(part_range(0, 2, 157, 96), 0..96);
        assert_eq!(part_range(1, 2, 157, 96), 96..157);
        let four: Vec<_> = (0..4).map(|part| part_range(part, 4, 157, 96)).collect();
        assert_eq!(four, [0..39, 39..78, 78..117, 117..157]);
        // Without a hot group the split is mid-farm.
        assert_eq!(edge_shard(0, 10_000), 78);
    }

    /// On a real pool every task of a section runs exactly once at any
    /// participant count, the two-task `run_pair` included, even where
    /// the host has fewer cores than participants.
    #[test]
    fn pooled_ranges_run_every_task_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = TickPool::new(4);
        for parts in 2..=5 {
            for shards in [2, 5, 157] {
                for edge in [0, 1, shards / 2, shards] {
                    let runs: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
                    let tasks: Vec<&AtomicUsize> = runs.iter().collect();
                    let mut busy = vec![0u64; pool.workers() + 1];
                    run_ranges(
                        &pool,
                        parts,
                        edge,
                        tasks,
                        |run| {
                            run.fetch_add(1, Ordering::Relaxed);
                        },
                        Some(&mut busy),
                    );
                    let counts: Vec<usize> =
                        runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
                    assert_eq!(
                        counts,
                        vec![1; shards],
                        "{parts} parts, {shards} shards, edge {edge}"
                    );
                }
            }
        }
        let (mut a, mut b) = (0, 0);
        run_pair(Some(&pool), || a += 1, || b += 2);
        run_pair(None, || a += 1, || b += 2);
        assert_eq!((a, b), (2, 4));
    }

    /// A shard task or a group stream that panics on a worker or on the
    /// calling thread reaches the caller of the section, and the pool
    /// carries on.
    #[test]
    fn a_panicking_section_task_reaches_the_caller() {
        use crate::pool::tests::{assert_panic_reaches_caller, Victim};
        for participants in [2, 3, 5] {
            for victim in [Victim::Worker, Victim::Caller] {
                assert_panic_reaches_caller(participants, participants, victim, |pool, hold| {
                    let parts = pool.workers() + 1;
                    let shards: Vec<usize> = (0..parts).collect();
                    run_ranges(pool, parts, 1, shards, |_| hold(), None);
                });
                assert_panic_reaches_caller(participants, 2, victim, |pool, hold| {
                    run_pair(Some(pool), hold, hold);
                });
            }
        }
    }

    /// The edge-split pool sections give the serial result wherever the
    /// edge falls: at the midpoint (no hot group), inside a shard, on a
    /// shard boundary and at either end.
    #[test]
    fn edge_split_sections_match_serial_at_any_edge() {
        let n: usize = 4160;
        let drain = |farm: &mut ServerFarm, edge: usize| {
            let mut index = ClusterIndex::new(farm);
            let mut occupancy = [usize::MAX / 2; 5];
            // Every job ends over the three due ticks.
            let mut logs = Vec::new();
            for tick in 1..=3 {
                let mut log = Vec::new();
                farm.end_due_jobs(tick, edge, &mut index, &mut occupancy, Some(&mut log), None);
                logs.push(log);
            }
            (index.used_cores_total(), occupancy, logs)
        };
        for edge in [0, 1, 2564, 4096, 4159, 4160] {
            let mut serial = loaded_farm(n);
            serial.set_threads(1);
            let mut index = ClusterIndex::new(&serial);
            let want: Vec<_> = (0..3)
                .map(|_| {
                    serial.tick_physics_recorded(
                        Seconds::new(60.0),
                        edge,
                        &mut index,
                        None,
                        None,
                        None,
                    )
                })
                .collect();
            let want_drain = drain(&mut serial, edge);
            for threads in [2, 8] {
                let mut pooled = loaded_farm(n);
                pooled.set_threads(threads);
                let mut pooled_index = ClusterIndex::new(&pooled);
                for (tick, want) in want.iter().enumerate() {
                    let got = pooled.tick_physics_recorded(
                        Seconds::new(60.0),
                        edge,
                        &mut pooled_index,
                        None,
                        None,
                        None,
                    );
                    assert_eq!(&got, want, "edge {edge} threads {threads} tick {tick}");
                }
                assert_eq!(
                    pooled_index.reported_melt(),
                    index.reported_melt(),
                    "edge {edge} threads {threads}"
                );
                assert_eq!(
                    drain(&mut pooled, edge),
                    want_drain,
                    "edge {edge} threads {threads}"
                );
                assert_eq!(
                    pooled.state(),
                    serial.state(),
                    "edge {edge} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn pooled_sweep_runs_on_tick_fan_out_workers() {
        // 10,000 servers at 8 threads: at most 4 workers of 2,048+
        // servers each, however many cores the host has.
        let mut farm = loaded_farm(10_000);
        farm.set_threads(8);
        farm.tick_physics(Seconds::new(60.0));
        let participants = farm.pool.as_ref().map_or(1, |pool| pool.workers() + 1);
        assert_eq!(participants, tick_fan_out(10_000, 8));
    }

    #[test]
    fn hot_limit_sums_leading_servers() {
        let mut farm = loaded_farm(10);
        let mut index = ClusterIndex::new(&farm);
        let totals =
            farm.tick_physics_recorded(Seconds::new(60.0), 3, &mut index, None, None, None);
        let manual: f64 = (0..3).map(|i| farm.air_at_wax(i).get()).sum();
        assert!((totals.hot_sum_c - manual).abs() < 1e-9);
        for i in 0..10 {
            assert_eq!(
                index.reported_melt()[i],
                farm.reported_melt_fraction(i).get()
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Splitmix64: expands one drawn seed into a per-server fill
        /// count (the vendored proptest has no `collection::vec`
        /// strategy, so composite inputs are derived from scalars).
        fn fill_for(seed: u64, i: usize) -> u64 {
            let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 33
        }

        /// Builds a farm with an arbitrary mixed load, aged by a few
        /// ticks so thermal, wax, and estimator state are all non-trivial.
        fn aged_farm(n: usize, fill_seed: u64, kind_offset: usize, age_ticks: usize) -> ServerFarm {
            let config = ClusterConfig::paper_default(n);
            let mut farm = ServerFarm::from_config(&config);
            for i in 0..n {
                for core in 0..fill_for(fill_seed, i) {
                    let kind = WorkloadKind::ALL[(i + core as usize + kind_offset) % 5];
                    farm.start_job(
                        i,
                        &Job::new(JobId(i as u64 * 100 + core), kind, Seconds::new(300.0)),
                    );
                }
            }
            for _ in 0..age_ticks {
                farm.tick_physics(Seconds::new(60.0));
            }
            farm
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// `ServerFarm` → `Vec<Server>` → `ServerFarm` preserves every
            /// observable a scheduler or probe can read, and the round
            /// trip continues to evolve bit-identically.
            #[test]
            fn round_trip_preserves_every_observable(
                n in 1usize..40,
                fill_seed in 0u64..u64::MAX,
                kind_offset in 0usize..5,
                age_ticks in 0usize..120,
            ) {
                let mut farm = aged_farm(n, fill_seed, kind_offset, age_ticks);
                let mut back = ServerFarm::from_servers(&farm.to_servers());
                prop_assert_eq!(back.len(), farm.len());
                prop_assert_eq!(back.cores(), farm.cores());
                prop_assert_eq!(back.air(), farm.air());
                prop_assert_eq!(back.melt_temperature(), farm.melt_temperature());
                for i in 0..n {
                    prop_assert_eq!(back.inlet(i), farm.inlet(i));
                    prop_assert_eq!(back.air_at_wax(i), farm.air_at_wax(i));
                    prop_assert_eq!(back.power(i), farm.power(i));
                    prop_assert_eq!(back.used_cores(i), farm.used_cores(i));
                    prop_assert_eq!(back.free_cores(i), farm.free_cores(i));
                    prop_assert_eq!(back.melt_fraction(i), farm.melt_fraction(i));
                    prop_assert_eq!(back.reported_melt_fraction(i), farm.reported_melt_fraction(i));
                    prop_assert_eq!(back.stored_latent_energy(i), farm.stored_latent_energy(i));
                    prop_assert_eq!(back.kind_counts(i), farm.kind_counts(i));
                    prop_assert_eq!(back.class_counts(i), farm.class_counts(i));
                }
                for _ in 0..4 {
                    prop_assert_eq!(
                        back.tick_physics(Seconds::new(60.0)),
                        farm.tick_physics(Seconds::new(60.0))
                    );
                }
            }

            /// The fused, fissioned, shard-blocked sweep is bit-identical
            /// to the per-object `Server::tick` executable spec exactly at
            /// the farm sizes that stress the shard grid's edges — 1,
            /// SHARD−1, SHARD, SHARD+1, and a non-multiple-of-SHARD tail —
            /// across worker counts 1, 2, and 8. The random-size fold
            /// property below only rarely samples these boundaries; this
            /// pins them.
            #[test]
            fn fused_sweep_matches_per_object_spec_at_shard_edges(
                size_sel in 0usize..5,
                threads_sel in 0usize..3,
                fill_seed in 0u64..u64::MAX,
                kind_offset in 0usize..5,
                ticks in 1usize..40,
            ) {
                let n = [1, SHARD - 1, SHARD, SHARD + 1, 2 * SHARD + 17][size_sel];
                let threads = [1usize, 2, 8][threads_sel];
                let mut farm = aged_farm(n, fill_seed, kind_offset, 0);
                farm.set_threads(threads);
                let mut servers: Vec<Server> = farm.to_servers();
                for _ in 0..ticks {
                    farm.tick_physics(Seconds::new(60.0));
                    for s in servers.iter_mut() {
                        s.tick(Seconds::new(60.0));
                    }
                }
                for (i, s) in servers.iter().enumerate() {
                    prop_assert_eq!(farm.air_at_wax(i), s.air_at_wax());
                    prop_assert_eq!(farm.melt_fraction(i), s.melt_fraction());
                    prop_assert_eq!(
                        farm.reported_melt_fraction(i),
                        s.reported_melt_fraction()
                    );
                    prop_assert_eq!(
                        farm.stored_latent_energy(i),
                        s.stored_latent_energy()
                    );
                    prop_assert_eq!(farm.power(i), s.power());
                }
            }

            /// The sharded sweep's partial-sum fold is invariant under the
            /// worker partition: any thread count (i.e. any contiguous
            /// grouping of the fixed shard grid onto workers) produces
            /// bit-identical totals AND bit-identical per-server state to
            /// the single-worker serial fold.
            #[test]
            fn fold_is_invariant_under_worker_partition(
                n in 1usize..300,
                threads in 2usize..=8,
                fill_seed in 0u64..u64::MAX,
                kind_offset in 0usize..5,
                ticks in 1usize..30,
            ) {
                let mut serial = aged_farm(n, fill_seed, kind_offset, 0);
                serial.set_threads(1);
                let mut sharded = serial.clone();
                sharded.set_threads(threads);
                for _ in 0..ticks {
                    let a = serial.tick_physics(Seconds::new(60.0));
                    let b = sharded.tick_physics(Seconds::new(60.0));
                    prop_assert_eq!(a, b);
                }
                for i in 0..n {
                    prop_assert_eq!(serial.air_at_wax(i), sharded.air_at_wax(i));
                    prop_assert_eq!(serial.melt_fraction(i), sharded.melt_fraction(i));
                    prop_assert_eq!(
                        serial.reported_melt_fraction(i),
                        sharded.reported_melt_fraction(i)
                    );
                }
            }
        }
    }
}
