//! Engine checkpoints: serialize a mid-run [`Simulation`] and rebuild it.
//!
//! A [`Snapshot`] captures everything that influences the rest of a run —
//! the cluster configuration, a self-describing trace descriptor, the
//! scheduler's cross-tick state, every farm state array (the live jobs
//! with their due ticks among them), both RNG streams, and the partially
//! accumulated result series — at a tick boundary. Restoring it yields a
//! simulation whose remaining ticks are bit-identical to the run it was
//! taken from, at any thread count; `tests/snapshot.rs` pins that
//! equivalence per tick.
//!
//! Two pieces make the checkpoint self-describing despite the engine
//! holding its trace and policy as `Box<dyn …>` trait objects:
//!
//! * [`TraceDescriptor`] (from `vmt-workload`) embeds the built-in trace
//!   types whole and rebuilds an equivalent boxed trace;
//! * [`SnapshotState`] lets each scheduler save its cross-tick state into
//!   a kind-tagged [`SavedState`] and restore from one. Per-tick derived
//!   state (balancer heaps, scan cursors, keep-warm lists) is
//!   deliberately *not* serialized — every policy rebuilds it in its
//!   tick refresh before any placement, so only genuinely cross-tick
//!   fields travel.
//!
//! On disk a snapshot is a `VMTSNAP v3` container: the line
//! `VMTSNAP v3`, a little-endian `u32` block count, then thirteen blocks
//! in a fixed order, each framed as
//!
//! ```text
//! tag: 4 bytes | length: u64 | data: length bytes | digest: u64
//! ```
//!
//! where the digest folds tag, length and data eight bytes at a time
//! (`block_digest`). The first block is JSON holding the small
//! self-describing parts (config, trace, scheduler state, RNGs,
//! occupancy, per-tick series, zone temperatures); every other block is
//! a raw little-endian column sized by servers or jobs. Each live job
//! carries its due tick, so a restore needs no departure calendar.
//! [`Snapshot::decode`] also reads the `VMTSNAP v2` and JSON
//! `VMTSNAP v1` containers of earlier builds, whose departure columns it
//! joins into the due column. Every malformed, truncated or
//! inconsistent container is a typed [`SnapshotError`], never a panic.
//!
//! [`Simulation`]: crate::Simulation

use crate::config::ClusterConfig;
use crate::farm::FarmState;
use crate::metrics::{Heatmap, SimulationResult};
use std::io::{self, Write};
use vmt_telemetry::replay::StateHasher;
use vmt_thermal::CoolingLoadSeries;
use vmt_units::{Celsius, Joules, Seconds};
use vmt_workload::TraceDescriptor;

mod legacy;

/// Magic token opening every snapshot container.
pub const SNAPSHOT_MAGIC: &str = "VMTSNAP";

/// Container format version written by [`Snapshot::encode`].
pub const SNAPSHOT_VERSION: u32 = 3;

/// The first line of every v3 container.
const HEADER: &[u8] = b"VMTSNAP v3\n";

/// Number of blocks in a v3 container.
const BLOCK_COUNT: usize = 13;

/// The v3 block table in container order: each block's tag and the
/// column it carries.
const BLOCKS: [(&[u8; 4], &str); BLOCK_COUNT] = [
    (b"META", "metadata"),
    (b"INLT", "inlet_c"),
    (b"AWAX", "at_wax_c"),
    (b"APWR", "active_power_w"),
    (b"ENTH", "enthalpy_j"),
    (b"ETMP", "est_temp_c"),
    (b"EFRC", "est_fraction"),
    (b"JCNT", "job_counts"),
    (b"JIDS", "job_ids"),
    (b"JKND", "job_kinds"),
    (b"JDUE", "job_due"),
    (b"HTMP", "temperature heatmap"),
    (b"HMLT", "melt heatmap"),
];

/// A v3 block digest: folds the frame (`tag | length | data`) as
/// little-endian 8-byte words, the last one zero-padded. Each step
/// `h = (h ^ word)·K; h ^= h >> 29` is a bijection of `h` (an odd
/// multiplier, then an invertible xorshift) and injective in `word`, so
/// two frames differing in a single byte always hash differently.
struct WordHasher {
    hash: u64,
    /// The bytes of an unfinished word.
    tail: [u8; 8],
    filled: usize,
}

impl WordHasher {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        Self {
            hash: Self::SEED,
            tail: [0; 8],
            filled: 0,
        }
    }

    #[inline]
    fn fold(&mut self, word: [u8; 8]) {
        let h = (self.hash ^ u64::from_le_bytes(word)).wrapping_mul(Self::K);
        self.hash = h ^ (h >> 29);
    }

    fn write(&mut self, mut bytes: &[u8]) {
        if self.filled > 0 {
            let take = bytes.len().min(8 - self.filled);
            self.tail[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 8 {
                return;
            }
            self.fold(self.tail);
            self.filled = 0;
        }
        let (words, rest) = bytes.as_chunks::<8>();
        for &word in words {
            self.fold(word);
        }
        self.tail[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    fn finish(mut self) -> u64 {
        if self.filled > 0 {
            self.tail[self.filled..].fill(0);
            self.fold(self.tail);
        }
        self.hash
    }
}

/// The v3 digest of one whole frame prefix (`tag | length | data`).
fn block_digest(frame: &[u8]) -> u64 {
    let mut hasher = WordHasher::new();
    hasher.write(frame);
    hasher.finish()
}

/// Error raised while encoding, decoding, or restoring a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The input is not a snapshot container at all.
    BadMagic,
    /// The container declares a version this build cannot read.
    UnsupportedVersion(String),
    /// The container holds fewer bytes than a declared length needs
    /// (or, for v1, a payload of a different length than declared).
    Truncated {
        /// Length the container declares.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A block (or the v1 payload) does not hash to its digest.
    DigestMismatch {
        /// The block whose digest failed (`payload` for v1).
        block: &'static str,
        /// Digest the container carries.
        expected: u64,
        /// Digest of the bytes actually present.
        actual: u64,
    },
    /// The container is well framed but describes an inconsistent state
    /// (bad JSON, misplaced blocks, column shapes that disagree with the
    /// config, due ticks the run cannot reach, or legacy departures the
    /// farm cannot retire).
    Corrupt(String),
    /// The snapshot's trace horizon has more ticks than a simulation
    /// can run ([`Simulation::MAX_TICKS`](crate::Simulation::MAX_TICKS)).
    Horizon(crate::HorizonTooLong),
    /// The restored run would preallocate more than
    /// [`MEMORY_CEILING`](crate::MEMORY_CEILING) ([`plan_memory`]).
    ///
    /// [`plan_memory`]: crate::plan_memory
    TooLarge(crate::TooLarge),
    /// A [`SavedState`]'s kind tag does not match the component asked to
    /// restore from it.
    KindMismatch {
        /// Kind the restoring component expected.
        expected: String,
        /// Kind the saved state carries.
        found: String,
    },
    /// A run component (trace or scheduler) has no serializable
    /// description and cannot be checkpointed.
    NotSnapshottable(&'static str),
    /// No known scheduler answers to the saved kind tag.
    UnknownKind(String),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot container (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v:?} (this build reads v1, v2 and v3)"
                )
            }
            SnapshotError::Truncated { expected, actual } => write!(
                f,
                "length mismatch: container declares {expected} bytes, found {actual}"
            ),
            SnapshotError::DigestMismatch {
                block,
                expected,
                actual,
            } => write!(
                f,
                "{block} digest mismatch: container declares {expected:#018x}, bytes hash to {actual:#018x}"
            ),
            SnapshotError::Corrupt(reason) => write!(f, "corrupt snapshot: {reason}"),
            SnapshotError::Horizon(err) => write!(f, "snapshot cannot run: {err}"),
            SnapshotError::TooLarge(err) => write!(f, "snapshot cannot run: {err}"),
            SnapshotError::KindMismatch { expected, found } => write!(
                f,
                "saved state is for {found:?}, cannot restore a {expected:?}"
            ),
            SnapshotError::NotSnapshottable(what) => {
                write!(f, "this {what} has no serializable description")
            }
            SnapshotError::UnknownKind(kind) => {
                write!(f, "no known scheduler for saved kind {kind:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(reason: String) -> SnapshotError {
    SnapshotError::Corrupt(reason)
}

/// A kind-tagged, serialized blob of one component's cross-tick state.
///
/// The tag makes a snapshot self-describing: restore code dispatches on
/// `kind` to reconstruct the right scheduler, then hands the state back
/// through [`SnapshotState::restore_state`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SavedState {
    /// Stable component tag (the scheduler's policy name).
    pub kind: String,
    /// The component's serialized state.
    pub state: serde::Value,
}

impl SavedState {
    /// Wraps a component's typed state under its kind tag.
    pub fn new<T: serde::Serialize>(kind: &str, state: &T) -> Self {
        Self {
            kind: kind.to_owned(),
            state: state.to_value(),
        }
    }

    /// Decodes the typed state, checking the kind tag first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] when the tag differs,
    /// [`SnapshotError::Corrupt`] when the state does not parse as `T`.
    pub fn decode<T: serde::Deserialize>(&self, kind: &str) -> Result<T, SnapshotError> {
        if self.kind != kind {
            return Err(SnapshotError::KindMismatch {
                expected: kind.to_owned(),
                found: self.kind.clone(),
            });
        }
        T::from_value(&self.state).map_err(|e| SnapshotError::Corrupt(format!("{kind} state: {e}")))
    }
}

/// Checkpointable cross-tick state, implemented by every [`Scheduler`].
///
/// The default implementation reports the component as not
/// checkpointable ([`SnapshotState::state_kind`] returns `None`), which
/// is correct for wrappers that exist only inside one process
/// (recording/replay harnesses, test probes). Policies with serializable
/// state override all three methods; stateless-but-checkpointable
/// policies override only `state_kind`.
///
/// [`Scheduler`]: crate::Scheduler
pub trait SnapshotState {
    /// Stable kind tag, or `None` when this component cannot be
    /// checkpointed. Schedulers reuse their policy name.
    fn state_kind(&self) -> Option<&'static str> {
        None
    }

    /// Serializes the cross-tick state under the kind tag.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotSnapshottable`] when [`state_kind`] is `None`.
    ///
    /// [`state_kind`]: SnapshotState::state_kind
    fn save_state(&self) -> Result<SavedState, SnapshotError> {
        match self.state_kind() {
            Some(kind) => Ok(SavedState {
                kind: kind.to_owned(),
                state: serde::Value::Null,
            }),
            None => Err(SnapshotError::NotSnapshottable("scheduler")),
        }
    }

    /// Overwrites the cross-tick state from a [`SavedState`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] when the tag belongs to another
    /// component, [`SnapshotError::NotSnapshottable`] when this one has
    /// no kind, [`SnapshotError::Corrupt`] when the state does not parse.
    fn restore_state(&mut self, saved: &SavedState) -> Result<(), SnapshotError> {
        match self.state_kind() {
            Some(kind) if kind == saved.kind => Ok(()),
            Some(kind) => Err(SnapshotError::KindMismatch {
                expected: kind.to_owned(),
                found: saved.kind.clone(),
            }),
            None => Err(SnapshotError::NotSnapshottable("scheduler")),
        }
    }
}

/// Job ids as `u32` deltas from a `u64` base — how a snapshot holds ids,
/// in memory and on the wire.
///
/// Engine snapshots always fit: the pooled job table keeps every live id
/// within a `u32` span of the smallest one.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobIds {
    /// The smallest id (0 for an empty column).
    pub base: u64,
    /// `id − base` of each entry.
    pub deltas: Vec<u32>,
}

impl JobIds {
    /// Delta-encodes `ids` against their minimum.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the ids span more than `u32::MAX`.
    pub(crate) fn from_ids<I>(ids: I) -> Result<Self, SnapshotError>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let ids = ids.into_iter();
        let (lo, hi) = ids
            .clone()
            .fold((u64::MAX, 0), |(lo, hi), id| (lo.min(id), hi.max(id)));
        if lo > hi {
            return Ok(Self::default());
        }
        if hi - lo > u64::from(u32::MAX) {
            return Err(corrupt(format!(
                "job ids span {}, beyond a u32 delta",
                hi - lo
            )));
        }
        Ok(Self {
            base: lo,
            deltas: ids.map(|id| (id - lo) as u32).collect(),
        })
    }

    /// The ids in column order. Call only on a column that passed
    /// [`JobIds::check`] (every decoded or captured one has).
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.deltas.iter().map(|&d| self.base + u64::from(d))
    }

    /// Rejects a column whose `base + delta` overflows `u64`.
    pub(crate) fn check(&self, what: &str) -> Result<(), SnapshotError> {
        let top = self.deltas.iter().copied().max().unwrap_or(0);
        match self.base.checked_add(u64::from(top)) {
            Some(_) => Ok(()),
            None => Err(corrupt(format!("{what} ids overflow u64"))),
        }
    }
}

/// A complete engine checkpoint at a tick boundary.
///
/// `tick` is the next tick the run will execute; everything else is the
/// state *after* tick `tick − 1` finished. Produced by
/// [`Simulation::snapshot`], consumed by [`Simulation::restore_with`].
///
/// [`Simulation::snapshot`]: crate::Simulation::snapshot
/// [`Simulation::restore_with`]: crate::Simulation::restore_with
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// The cluster configuration the run was built from.
    pub config: ClusterConfig,
    /// Self-describing trace source.
    pub trace: TraceDescriptor,
    /// The scheduler's kind-tagged cross-tick state.
    pub scheduler: SavedState,
    /// Next tick to execute (0 = nothing has run yet).
    pub tick: u64,
    /// Every farm state array (thermal, wax, estimator, live jobs and
    /// their due ticks).
    pub farm: FarmState,
    /// Occupied cores per workload, by [`WorkloadKind::index`].
    ///
    /// [`WorkloadKind::index`]: vmt_workload::WorkloadKind::index
    pub occupancy: [u64; 5],
    /// Next job id the engine will stamp.
    pub next_job_id: u64,
    /// Raw state of the arrival-shuffle RNG.
    pub arrival_rng: [u64; 4],
    /// Raw state of the planner's duration-jitter RNG.
    pub planner_rng: [u64; 4],
    /// Result series accumulated so far. Series hold `tick` samples; the
    /// heatmaps hold only the rows already written
    /// (`ceil(tick / heatmap_stride)`).
    pub partial: SimulationResult,
    /// Per-zone CRAC supply-air temperatures when the config carries a
    /// [`topology`](ClusterConfig::topology); `None` otherwise (v1
    /// snapshots written before zones existed decode as `None`). The
    /// integrator state is history-dependent, so it must travel for a
    /// restored zoned run to report identical zone temperatures.
    pub zone_temps: Option<Vec<f64>>,
}

/// The JSON block: every part of a snapshot not sized by servers or
/// jobs.
#[derive(serde::Serialize, serde::Deserialize)]
struct Meta {
    config: ClusterConfig,
    trace: TraceDescriptor,
    scheduler: SavedState,
    tick: u64,
    occupancy: [u64; 5],
    next_job_id: u64,
    arrival_rng: [u64; 4],
    planner_rng: [u64; 4],
    zone_temps: Option<Vec<f64>>,
    scheduler_name: String,
    cooling: CoolingLoadSeries,
    electrical: CoolingLoadSeries,
    avg_temp: Vec<Celsius>,
    hot_group_temp: Vec<Celsius>,
    hot_group_sizes: Vec<usize>,
    stored_energy: Vec<Joules>,
    dropped_jobs: u64,
    placements: u64,
    result_tick: Seconds,
}

/// One block's contents, borrowed from the snapshot being encoded.
enum Column<'a> {
    Bytes(&'a [u8]),
    U32(&'a [u32]),
    F64(&'a [f64]),
    /// Base, then the deltas.
    Ids(&'a JobIds),
    /// Row interval, row count, then the rows back to back.
    Heatmap(&'a Heatmap),
}

/// Bytes staged per write while streaming a column.
const CHUNK: usize = 64 * 1024;

impl Column<'_> {
    fn byte_len(&self) -> u64 {
        let count = |n: usize, size: u64| n as u64 * size;
        match self {
            Column::Bytes(b) => count(b.len(), 1),
            Column::U32(v) => count(v.len(), 4),
            Column::F64(v) => count(v.len(), 8),
            Column::Ids(ids) => 8 + count(ids.deltas.len(), 4),
            Column::Heatmap(map) => 16 + map.rows.iter().map(|r| count(r.len(), 8)).sum::<u64>(),
        }
    }

    /// Writes `tag | length | data | digest` and returns the digest.
    fn write_block(&self, tag: &[u8; 4], out: &mut impl Write) -> io::Result<u64> {
        let mut sink = BlockSink {
            out,
            hasher: WordHasher::new(),
        };
        sink.put(tag)?;
        sink.put(&self.byte_len().to_le_bytes())?;
        match self {
            Column::Bytes(b) => sink.put(b)?,
            Column::U32(v) => sink.column(v, u32::to_le_bytes)?,
            Column::F64(v) => sink.column(v, f64::to_le_bytes)?,
            Column::Ids(ids) => {
                sink.put(&ids.base.to_le_bytes())?;
                sink.column(&ids.deltas, u32::to_le_bytes)?;
            }
            Column::Heatmap(map) => {
                sink.put(&map.row_interval.to_le_bytes())?;
                sink.put(&(map.rows.len() as u64).to_le_bytes())?;
                for row in &map.rows {
                    sink.column(row, f64::to_le_bytes)?;
                }
            }
        }
        let digest = sink.hasher.finish();
        sink.out.write_all(&digest.to_le_bytes())?;
        Ok(digest)
    }
}

/// A writer that folds everything it writes into a block digest.
struct BlockSink<'a, W> {
    out: &'a mut W,
    hasher: WordHasher,
}

impl<W: Write> BlockSink<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hasher.write(bytes);
        self.out.write_all(bytes)
    }

    /// Streams `items` as little-endian bytes through a stack buffer.
    fn column<T: Copy, const N: usize>(
        &mut self,
        items: &[T],
        le: fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut buf = [0u8; CHUNK];
        for chunk in items.chunks(CHUNK / N) {
            let bytes = &mut buf[..chunk.len() * N];
            for (dst, &item) in bytes.as_chunks_mut::<N>().0.iter_mut().zip(chunk) {
                *dst = le(item);
            }
            self.put(bytes)?;
        }
        Ok(())
    }
}

/// Splits `N` bytes off the front of `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], SnapshotError> {
    match rest.split_first_chunk::<N>() {
        Some((head, tail)) => {
            *rest = tail;
            Ok(*head)
        }
        None => Err(SnapshotError::Truncated {
            expected: N,
            actual: rest.len(),
        }),
    }
}

/// Parses a block of little-endian `N`-byte values.
fn values<T, const N: usize>(
    bytes: &[u8],
    what: &str,
    from_le: fn([u8; N]) -> T,
) -> Result<Vec<T>, SnapshotError> {
    let (values, rest) = bytes.as_chunks::<N>();
    if !rest.is_empty() {
        return Err(corrupt(format!(
            "{what} block of {} bytes is not a whole number of {N}-byte values",
            bytes.len()
        )));
    }
    Ok(values.iter().map(|&v| from_le(v)).collect())
}

fn ids(mut bytes: &[u8], what: &str) -> Result<JobIds, SnapshotError> {
    let base = u64::from_le_bytes(take(&mut bytes)?);
    let ids = JobIds {
        base,
        deltas: values(bytes, what, u32::from_le_bytes)?,
    };
    ids.check(what)?;
    Ok(ids)
}

/// Parses a heatmap block, building each row straight from its bytes.
fn heatmap(mut bytes: &[u8], servers: usize, what: &str) -> Result<Heatmap, SnapshotError> {
    let row_interval = f64::from_le_bytes(take(&mut bytes)?);
    let rows = u64::from_le_bytes(take(&mut bytes)?);
    let row_bytes = servers.saturating_mul(8);
    if usize::try_from(rows)
        .ok()
        .and_then(|r| r.checked_mul(row_bytes))
        != Some(bytes.len())
    {
        return Err(corrupt(format!(
            "{what} holds {} bytes, not {rows} rows of {servers} servers",
            bytes.len()
        )));
    }
    Ok(Heatmap {
        row_interval,
        rows: bytes
            .chunks_exact(row_bytes)
            .map(|row| {
                let (row, _) = row.as_chunks::<8>();
                row.iter().map(|&v| f64::from_le_bytes(v)).collect()
            })
            .collect(),
    })
}

/// Splits a container into its blocks' data. Checks the header line,
/// the block count, then per block its declared length against the
/// bytes left (before anything is allocated), its digest (`digest` of
/// the frame's `tag | length | data`) and its tag, and finally that no
/// bytes trail the last block.
fn read_blocks<'a, const N: usize>(
    bytes: &'a [u8],
    header: &[u8],
    table: &[(&[u8; 4], &'static str); N],
    digest: fn(&[u8]) -> u64,
) -> Result<[&'a [u8]; N], SnapshotError> {
    let mut rest = bytes.strip_prefix(header).ok_or_else(|| {
        corrupt(format!(
            "header line is not exactly `{}`",
            String::from_utf8_lossy(header.trim_ascii_end())
        ))
    })?;
    let count = u32::from_le_bytes(take(&mut rest)?);
    if count as usize != N {
        return Err(corrupt(format!(
            "container declares {count} blocks, this version has {N}"
        )));
    }
    let mut blocks = [&[][..]; N];
    for (block, &(tag, name)) in blocks.iter_mut().zip(table) {
        let frame = rest;
        let found: [u8; 4] = take(&mut rest)?;
        let declared = u64::from_le_bytes(take(&mut rest)?);
        // The trailing digest must fit too.
        let room = rest.len().saturating_sub(8);
        let data = match usize::try_from(declared) {
            Ok(n) if n <= room => &rest[..n],
            _ => {
                return Err(SnapshotError::Truncated {
                    expected: usize::try_from(declared).unwrap_or(usize::MAX),
                    actual: room,
                })
            }
        };
        rest = &rest[data.len()..];
        let expected = u64::from_le_bytes(take(&mut rest)?);
        let actual = digest(&frame[..12 + data.len()]);
        if actual != expected {
            return Err(SnapshotError::DigestMismatch {
                block: name,
                expected,
                actual,
            });
        }
        if &found != tag {
            return Err(corrupt(format!(
                "block {:?} where the {name} block belongs",
                String::from_utf8_lossy(&found)
            )));
        }
        *block = data;
    }
    if !rest.is_empty() {
        return Err(corrupt(format!(
            "{} bytes after the last block",
            rest.len()
        )));
    }
    Ok(blocks)
}

/// Builds a snapshot from the blocks every binary container version
/// shares: the JSON block, the nine farm columns (`INLT` … `JKND`), the
/// due ticks and the two heatmaps. Shapes are checked by the caller.
fn assemble(
    meta: &[u8],
    farm: [&[u8]; 9],
    job_due: Vec<u32>,
    heatmaps: [&[u8]; 2],
) -> Result<Snapshot, SnapshotError> {
    let meta = std::str::from_utf8(meta)
        .map_err(|e| corrupt(format!("metadata block: {e}")))
        .and_then(|json| {
            serde_json::from_str::<Meta>(json).map_err(|e| corrupt(format!("metadata block: {e}")))
        })?;
    let n = meta.config.num_servers;
    if n == 0 {
        return Err(corrupt("config has no servers".to_owned()));
    }
    let [inlet, at_wax, power, enthalpy, est_temp, est_fraction, counts, job_ids, kinds] = farm;
    let [temp_map, melt_map] = heatmaps;
    let f64s = |bytes, what| values(bytes, what, f64::from_le_bytes);
    Ok(Snapshot {
        farm: FarmState {
            inlet_c: f64s(inlet, "inlet_c")?,
            at_wax_c: f64s(at_wax, "at_wax_c")?,
            active_power_w: f64s(power, "active_power_w")?,
            enthalpy_j: f64s(enthalpy, "enthalpy_j")?,
            est_temp_c: f64s(est_temp, "est_temp_c")?,
            est_fraction: f64s(est_fraction, "est_fraction")?,
            job_counts: values(counts, "job_counts", u32::from_le_bytes)?,
            job_ids: ids(job_ids, "job")?,
            job_kinds: kinds.to_vec(),
            job_due,
        },
        partial: SimulationResult {
            scheduler_name: meta.scheduler_name,
            cooling: meta.cooling,
            electrical: meta.electrical,
            avg_temp: meta.avg_temp,
            hot_group_temp: meta.hot_group_temp,
            hot_group_sizes: meta.hot_group_sizes,
            stored_energy: meta.stored_energy,
            temp_heatmap: heatmap(temp_map, n, "temperature heatmap")?,
            melt_heatmap: heatmap(melt_map, n, "melt heatmap")?,
            dropped_jobs: meta.dropped_jobs,
            placements: meta.placements,
            tick: meta.result_tick,
        },
        config: meta.config,
        trace: meta.trace,
        scheduler: meta.scheduler,
        tick: meta.tick,
        occupancy: meta.occupancy,
        next_job_id: meta.next_job_id,
        arrival_rng: meta.arrival_rng,
        planner_rng: meta.planner_rng,
        zone_temps: meta.zone_temps,
    })
}

/// Writes the header, the block count and every block; returns the
/// container digest.
fn write_container(columns: &[Column; BLOCK_COUNT], out: &mut impl Write) -> io::Result<u64> {
    let count = (BLOCK_COUNT as u32).to_le_bytes();
    let mut container = StateHasher::new();
    container.write_bytes(HEADER);
    container.write_bytes(&count);
    out.write_all(HEADER)?;
    out.write_all(&count)?;
    for ((tag, _), column) in BLOCKS.iter().zip(columns) {
        container.write_u64(column.write_block(tag, out)?);
    }
    Ok(container.finish())
}

impl Snapshot {
    /// The container digest: FNV-1a over the v3 header, the block count
    /// and every block's digest, so it covers every byte
    /// [`Snapshot::encode`] writes — an identity for a checkpoint.
    /// Computing it costs one encode into a sink; [`Snapshot::encode_to`]
    /// returns it for free.
    pub fn digest(&self) -> u64 {
        self.encode_to(&mut io::sink())
            .expect("encoding into a sink cannot fail")
    }

    /// Serializes the snapshot into a `VMTSNAP v3` container.
    pub fn encode(&self) -> Vec<u8> {
        let meta = self.meta_json();
        let columns = self.columns(&meta);
        let len = HEADER.len()
            + 4
            + columns
                .iter()
                .map(|c| 20 + c.byte_len() as usize)
                .sum::<usize>();
        let mut out = Vec::with_capacity(len);
        write_container(&columns, &mut out).expect("encoding into memory cannot fail");
        out
    }

    /// Streams the `VMTSNAP v3` container into `out` block by block —
    /// nothing beyond the JSON block and a 64 KiB staging buffer is held
    /// in memory — and returns the container digest (what
    /// [`Snapshot::digest`] reports).
    ///
    /// # Errors
    ///
    /// Any error `out` raises.
    pub fn encode_to(&self, out: &mut impl Write) -> io::Result<u64> {
        let meta = self.meta_json();
        write_container(&self.columns(&meta), out)
    }

    /// The JSON block.
    fn meta_json(&self) -> String {
        let partial = &self.partial;
        serde_json::to_string(&Meta {
            config: self.config.clone(),
            trace: self.trace.clone(),
            scheduler: self.scheduler.clone(),
            tick: self.tick,
            occupancy: self.occupancy,
            next_job_id: self.next_job_id,
            arrival_rng: self.arrival_rng,
            planner_rng: self.planner_rng,
            zone_temps: self.zone_temps.clone(),
            scheduler_name: partial.scheduler_name.clone(),
            cooling: partial.cooling.clone(),
            electrical: partial.electrical.clone(),
            avg_temp: partial.avg_temp.clone(),
            hot_group_temp: partial.hot_group_temp.clone(),
            hot_group_sizes: partial.hot_group_sizes.clone(),
            stored_energy: partial.stored_energy.clone(),
            dropped_jobs: partial.dropped_jobs,
            placements: partial.placements,
            result_tick: partial.tick,
        })
        .expect("JSON serialization is infallible")
    }

    /// Every block's contents, in [`BLOCKS`] order.
    fn columns<'a>(&'a self, meta: &'a str) -> [Column<'a>; BLOCK_COUNT] {
        let farm = &self.farm;
        [
            Column::Bytes(meta.as_bytes()),
            Column::F64(&farm.inlet_c),
            Column::F64(&farm.at_wax_c),
            Column::F64(&farm.active_power_w),
            Column::F64(&farm.enthalpy_j),
            Column::F64(&farm.est_temp_c),
            Column::F64(&farm.est_fraction),
            Column::U32(&farm.job_counts),
            Column::Ids(&farm.job_ids),
            Column::Bytes(&farm.job_kinds),
            Column::U32(&farm.job_due),
            Column::Heatmap(&self.partial.temp_heatmap),
            Column::Heatmap(&self.partial.melt_heatmap),
        ]
    }

    /// Parses a `VMTSNAP v3` container, or a `VMTSNAP v2` or `v1` one
    /// from an earlier build.
    ///
    /// v3 validation order: magic, version, block count, each block's
    /// declared length against the bytes left (before anything is
    /// allocated), each block's digest and tag, then the JSON block and
    /// every column's shape against the config. The due ticks are
    /// checked against the snapshot tick and the horizon on restore.
    /// Every failure is a typed [`SnapshotError`]; malformed input never
    /// panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let head = &bytes[..bytes.len().min(64)];
        let line = head.split(|&b| b == b'\n').next().unwrap_or(head);
        let line = String::from_utf8_lossy(line);
        let mut fields = line.split_ascii_whitespace();
        if fields.next() != Some(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        match fields.next().unwrap_or_default() {
            "v1" => legacy::decode_v1(bytes),
            "v2" => legacy::decode_v2(bytes),
            "v3" => decode_v3(bytes),
            version => Err(SnapshotError::UnsupportedVersion(version.to_owned())),
        }
    }

    /// Checks every column against the config and against each other:
    /// the farm image ([`FarmState::check`]: one due tick per live job
    /// among its checks) and heatmap rows of one value per server.
    /// Decoding runs it last, restoring first.
    pub(crate) fn check_columns(&self) -> Result<(), SnapshotError> {
        let servers = self.config.num_servers;
        self.farm.check(servers, self.config.power.cores())?;
        for (what, map) in [
            ("temperature", &self.partial.temp_heatmap),
            ("melt", &self.partial.melt_heatmap),
        ] {
            if map.rows.iter().any(|row| row.len() != servers) {
                return Err(corrupt(format!(
                    "{what} heatmap rows are not one value per server"
                )));
            }
        }
        Ok(())
    }
}

fn decode_v3(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let [meta, farm @ .., due, temp_map, melt_map] =
        read_blocks(bytes, HEADER, &BLOCKS, block_digest)?;
    let due = values(due, "job_due", u32::from_le_bytes)?;
    let snapshot = assemble(meta, farm, due, [temp_map, melt_map])?;
    snapshot.check_columns()?;
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_state_round_trips_typed_payloads() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Demo {
            cursor: u64,
            flags: Vec<bool>,
        }
        let demo = Demo {
            cursor: 17,
            flags: vec![true, false, true],
        };
        let saved = SavedState::new("demo", &demo);
        assert_eq!(saved.decode::<Demo>("demo").unwrap(), demo);
        assert_eq!(
            saved.decode::<Demo>("other").unwrap_err(),
            SnapshotError::KindMismatch {
                expected: "other".to_owned(),
                found: "demo".to_owned(),
            }
        );
    }

    #[test]
    fn default_snapshot_state_refuses() {
        struct Opaque;
        impl SnapshotState for Opaque {}
        let mut opaque = Opaque;
        assert_eq!(opaque.state_kind(), None);
        assert_eq!(
            opaque.save_state().unwrap_err(),
            SnapshotError::NotSnapshottable("scheduler")
        );
        let saved = SavedState {
            kind: "anything".to_owned(),
            state: serde::Value::Null,
        };
        assert_eq!(
            opaque.restore_state(&saved).unwrap_err(),
            SnapshotError::NotSnapshottable("scheduler")
        );
    }

    #[test]
    fn container_errors_are_typed() {
        let decode = |text: &str| Snapshot::decode(text.as_bytes()).unwrap_err();
        assert_eq!(decode(""), SnapshotError::BadMagic);
        assert_eq!(
            decode("GARBAGE v1 digest=0x0 bytes=0\n{}"),
            SnapshotError::BadMagic
        );
        assert_eq!(
            decode("VMTSNAP v9 digest=0x0 bytes=0\n{}"),
            SnapshotError::UnsupportedVersion("v9".to_owned())
        );
        assert!(matches!(
            decode("VMTSNAP v1 digest=zz bytes=0\n{}"),
            SnapshotError::Corrupt(_)
        ));
        assert!(matches!(
            decode("VMTSNAP v1 digest=0x0000000000000000\n{}"),
            SnapshotError::Corrupt(_)
        ));
        assert_eq!(
            decode("VMTSNAP v1 digest=0x0000000000000000 bytes=99\n{}"),
            SnapshotError::Truncated {
                expected: 99,
                actual: 2
            }
        );
        assert!(matches!(
            decode("VMTSNAP v1 digest=0x0000000000000000 bytes=2\n{}"),
            SnapshotError::DigestMismatch {
                block: "payload",
                ..
            }
        ));
        // Right length and digest, wrong structure: Corrupt, not a panic.
        assert!(matches!(
            Snapshot::decode(&legacy::v1_container("{}")).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Binary framing, v3 and v2: a header with slack, a missing block
        // count, and a wrong one.
        for version in ["v3", "v2"] {
            assert!(matches!(
                decode(&format!("VMTSNAP  {version}\n")),
                SnapshotError::Corrupt(_)
            ));
            assert_eq!(
                decode(&format!("VMTSNAP {version}\n")),
                SnapshotError::Truncated {
                    expected: 4,
                    actual: 0
                }
            );
        }
        let mut bytes = HEADER.to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapshotError::Corrupt(reason) if reason.contains("3 blocks")
        ));
    }

    #[test]
    fn oversized_block_lengths_are_typed_errors() {
        for declared in [u64::MAX, 1 << 40, 13] {
            let mut bytes = HEADER.to_vec();
            bytes.extend_from_slice(&(BLOCK_COUNT as u32).to_le_bytes());
            bytes.extend_from_slice(b"META");
            bytes.extend_from_slice(&declared.to_le_bytes());
            bytes.extend_from_slice(&[b'{'; 12]);
            assert!(matches!(
                Snapshot::decode(&bytes).unwrap_err(),
                SnapshotError::Truncated { actual: 4, .. }
            ));
        }
    }

    #[test]
    fn job_ids_delta_encode_against_their_minimum() {
        let ids = JobIds::from_ids([40u64, 7, 7 + u64::from(u32::MAX)]).unwrap();
        assert_eq!(ids.base, 7);
        assert_eq!(
            ids.iter().collect::<Vec<_>>(),
            [40, 7, 7 + u64::from(u32::MAX)]
        );
        assert_eq!(JobIds::from_ids([]).unwrap(), JobIds::default());
        assert!(matches!(
            JobIds::from_ids([0, 1 << 32]).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        let overflowing = JobIds {
            base: u64::MAX,
            deltas: vec![0, 1],
        };
        assert!(overflowing.check("test").is_err());
    }

    #[test]
    fn word_digest_streams_and_sees_every_byte() {
        let frame: Vec<u8> = (0..45u8).map(|b| b.wrapping_mul(37)).collect();
        let whole = block_digest(&frame);
        for split in 0..=frame.len() {
            for second in split..=frame.len() {
                let mut hasher = WordHasher::new();
                hasher.write(&frame[..split]);
                hasher.write(&frame[split..second]);
                hasher.write(&frame[second..]);
                assert_eq!(hasher.finish(), whole, "split at {split} and {second}");
            }
        }
        for i in 0..frame.len() {
            for value in [0, 1, 0x80, 0xff] {
                let mut changed = frame.clone();
                changed[i] = value;
                assert_eq!(
                    block_digest(&changed) == whole,
                    value == frame[i],
                    "byte {i} as {value:#04x}"
                );
            }
        }
    }

    #[test]
    fn errors_display_their_particulars() {
        let err = SnapshotError::Truncated {
            expected: 10,
            actual: 2,
        };
        assert!(err.to_string().contains("10"));
        let err = SnapshotError::UnsupportedVersion("v9".to_owned());
        assert!(err.to_string().contains("v9"));
        assert!(err.to_string().contains("v1, v2 and v3"));
        let err = SnapshotError::DigestMismatch {
            block: "job_ids",
            expected: 1,
            actual: 2,
        };
        assert!(err.to_string().contains("job_ids"));
        let err = SnapshotError::UnknownKind("mystery".to_owned());
        assert!(err.to_string().contains("mystery"));
    }
}
