//! The read-only `VMTSNAP v1` and `VMTSNAP v2` paths.
//!
//! Both formats carry the pending departures as tick buckets instead of
//! a due tick per live job. The readers check the buckets and join them
//! into the farm image's due column, so every version decodes into the
//! same [`Snapshot`]; a job with no entry is due [`Job::NEVER_DUE`], as
//! a job that outlived the horizon was. The writers of both formats are
//! gone.

use super::{
    assemble, corrupt, ids, read_blocks, values, JobIds, SavedState, Snapshot, SnapshotError,
};
use crate::config::ClusterConfig;
use crate::farm::FarmState;
use crate::metrics::SimulationResult;
use crate::server::ServerId;
use vmt_telemetry::replay::StateHasher;
use vmt_workload::{Job, JobId, TraceDescriptor};

/// The first line of every v2 container.
const V2_HEADER: &[u8] = b"VMTSNAP v2\n";

/// The v2 block table in container order.
const V2_BLOCKS: [(&[u8; 4], &str); 16] = [
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
    (b"DTCK", "departure ticks"),
    (b"DLEN", "departure bucket lengths"),
    (b"DIDS", "departing job ids"),
    (b"DSRV", "departure servers"),
    (b"HTMP", "temperature heatmap"),
    (b"HMLT", "melt heatmap"),
];

/// FNV-1a: the v2 block digest and the v1 payload digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = StateHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// The pending departures of a v1 or v2 container in columnar form.
///
/// Non-empty buckets in ascending tick order; bucket `b` owns the next
/// `lens[b]` entries of `jobs` and `servers`, in strictly ascending job
/// id order — the order the engine retires them in. Jobs that outlive
/// the horizon have no entry.
#[derive(Debug, Default)]
struct Departures {
    /// Tick of each bucket.
    ticks: Vec<u64>,
    /// Entry count of each bucket, parallel to `ticks`.
    lens: Vec<u32>,
    /// Departing job of each entry, bucket after bucket.
    jobs: JobIds,
    /// Server running each departing job, parallel to `jobs`.
    servers: Vec<u32>,
}

impl Departures {
    /// Checks the columns against each other and against a farm of
    /// `servers` servers snapshotted at `tick`: bucket lengths that sum
    /// to the entry columns, servers inside the farm, and bucket ticks
    /// that ascend from `tick` and fit a `u32` due tick. Ticks past the
    /// horizon become due ticks the restore rejects.
    fn check(&self, servers: usize, tick: u64) -> Result<(), SnapshotError> {
        if self.lens.len() != self.ticks.len() {
            return Err(corrupt(format!(
                "{} departure bucket lengths for {} bucket ticks",
                self.lens.len(),
                self.ticks.len()
            )));
        }
        let entries: u64 = self.lens.iter().map(|&l| u64::from(l)).sum();
        let ids = self.jobs.deltas.len();
        if entries != ids as u64 || self.servers.len() != ids {
            return Err(corrupt(format!(
                "departure bucket lengths sum to {entries}, the columns hold {ids} ids and {} servers",
                self.servers.len()
            )));
        }
        if let Some(&server) = self.servers.iter().find(|&&s| s as usize >= servers) {
            return Err(corrupt(format!(
                "departure names server {server} in a {servers}-server farm"
            )));
        }
        let mut next_free = tick;
        for &when in &self.ticks {
            if when >= u64::from(Job::NEVER_DUE) {
                return Err(corrupt(format!(
                    "departure bucket at tick {when} is past every tick a job can be due at"
                )));
            }
            // Buckets before the snapshot tick have drained already, and
            // each tick owns at most one bucket.
            if when < next_free {
                return Err(corrupt(format!(
                    "departure bucket at tick {when} is out of order or precedes tick {tick}"
                )));
            }
            next_free = when + 1;
        }
        Ok(())
    }

    /// Joins the departures with the farm image server by server and
    /// writes each departing job's bucket tick into `farm.job_due`,
    /// which holds [`Job::NEVER_DUE`] per job on entry. Rejects entries
    /// that name a job their server does not run or let a job depart
    /// twice — either would retire the wrong job or none — and buckets
    /// whose ids do not strictly ascend. Jobs that outlive the horizon
    /// have no entry, so a server may run more jobs than depart from it.
    ///
    /// A sequential join: a counting sort groups the entries by server,
    /// then one pass over the farm image merges each server's sorted
    /// group into its sorted live row (at most `cores` entries).
    fn join_into(&self, farm: &mut FarmState, tick: u64) -> Result<(), SnapshotError> {
        let servers = farm.job_counts.len();
        self.check(servers, tick)?;
        let not_running = |id: u64, server: usize| {
            corrupt(format!(
                "departure names {}, which {} does not run",
                JobId(id),
                ServerId(server)
            ))
        };
        let mut start = vec![0u32; servers + 1];
        for &server in &self.servers {
            start[server as usize + 1] += 1;
        }
        for i in 0..servers {
            start[i + 1] += start[i];
        }
        // Grouped ids are deltas against the live rows' base; an id
        // outside that window is no running job at all. Each carries its
        // bucket's tick, which `check` bounded below `u32::MAX`.
        let base = farm.job_ids.base;
        let entry_ticks = self
            .ticks
            .iter()
            .zip(&self.lens)
            .flat_map(|(&when, &len)| std::iter::repeat_n(when as u32, len as usize));
        let mut grouped = vec![(0u32, 0u32); self.servers.len()];
        let mut cursor = start[..servers].to_vec();
        for ((id, &server), when) in self.jobs.iter().zip(&self.servers).zip(entry_ticks) {
            let server = server as usize;
            let delta = id
                .checked_sub(base)
                .and_then(|d| u32::try_from(d).ok())
                .ok_or_else(|| not_running(id, server))?;
            grouped[cursor[server] as usize] = (delta, when);
            cursor[server] += 1;
        }
        let mut row_start = 0;
        let mut live = Vec::new();
        for server in 0..servers {
            let row = &farm.job_ids.deltas[row_start..row_start + farm.job_counts[server] as usize];
            let leaving = &mut grouped[start[server] as usize..start[server + 1] as usize];
            if !leaving.is_empty() {
                live.clear();
                live.extend(row.iter().enumerate().map(|(pos, &delta)| (delta, pos)));
                live.sort_unstable();
                leaving.sort_unstable();
                let mut next = 0;
                for &(delta, when) in leaving.iter() {
                    while next < live.len() && live[next].0 < delta {
                        next += 1;
                    }
                    if next == live.len() || live[next].0 != delta {
                        let id = base + u64::from(delta);
                        return Err(if row.contains(&delta) {
                            corrupt(format!("{} departs {} twice", JobId(id), ServerId(server)))
                        } else {
                            not_running(id, server)
                        });
                    }
                    farm.job_due[row_start + live[next].1] = when;
                    next += 1;
                }
            }
            row_start += row.len();
        }
        self.check_bucket_order()
    }

    /// Rejects a bucket whose job ids do not strictly ascend. The sweep
    /// retires each server's due jobs in id order, so a bucket in any
    /// other order would not replay the run it was taken from.
    fn check_bucket_order(&self) -> Result<(), SnapshotError> {
        let mut entries = self.jobs.deltas.as_slice();
        for (&when, &len) in self.ticks.iter().zip(&self.lens) {
            let (bucket, rest) = entries.split_at(len as usize);
            entries = rest;
            if let Some(pair) = bucket.windows(2).find(|pair| pair[0] >= pair[1]) {
                let base = self.jobs.base;
                return Err(corrupt(format!(
                    "departure bucket at tick {when} lists {} after {}; job ids must ascend",
                    JobId(base + u64::from(pair[1])),
                    JobId(base + u64::from(pair[0]))
                )));
            }
        }
        Ok(())
    }
}

/// Checks a legacy snapshot's columns, then gives each live job its due
/// tick from `departures`.
fn with_due_ticks(
    mut snapshot: Snapshot,
    departures: &Departures,
) -> Result<Snapshot, SnapshotError> {
    snapshot.farm.job_due = vec![Job::NEVER_DUE; snapshot.farm.job_ids.deltas.len()];
    snapshot.check_columns()?;
    departures.join_into(&mut snapshot.farm, snapshot.tick)?;
    Ok(snapshot)
}

/// Parses a `VMTSNAP v2` container: the v3 framing with FNV-1a block
/// digests and sixteen blocks, four of them departure columns in place
/// of `JDUE`.
pub(super) fn decode_v2(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let [meta, farm @ .., ticks, lens, departing, servers, temp_map, melt_map] =
        read_blocks(bytes, V2_HEADER, &V2_BLOCKS, fnv1a)?;
    let departures = Departures {
        ticks: values(ticks, "departure ticks", u64::from_le_bytes)?,
        lens: values(lens, "departure bucket lengths", u32::from_le_bytes)?,
        jobs: ids(departing, "departing job")?,
        servers: values(servers, "departure servers", u32::from_le_bytes)?,
    };
    let snapshot = assemble(meta, farm, Vec::new(), [temp_map, melt_map])?;
    with_due_ticks(snapshot, &departures)
}

#[derive(serde::Deserialize)]
struct SnapshotV1 {
    config: ClusterConfig,
    trace: TraceDescriptor,
    scheduler: SavedState,
    tick: u64,
    farm: FarmV1,
    occupancy: [u64; 5],
    departures: Vec<(u64, Vec<(u64, u32)>)>,
    next_job_id: u64,
    arrival_rng: [u64; 4],
    planner_rng: [u64; 4],
    partial: SimulationResult,
    zone_temps: Option<Vec<f64>>,
}

#[derive(serde::Deserialize)]
struct FarmV1 {
    inlet_c: Vec<f64>,
    at_wax_c: Vec<f64>,
    active_power_w: Vec<f64>,
    enthalpy_j: Vec<f64>,
    est_temp_c: Vec<f64>,
    est_fraction: Vec<f64>,
    /// `servers × cores` slots; row `i`'s first `job_counts[i]` are
    /// live, the rest are ignored.
    job_ids: Vec<u64>,
    job_kinds: Vec<u8>,
    job_counts: Vec<u32>,
}

impl FarmV1 {
    /// Keeps the live slots of each dense row; the due column is left
    /// empty for the departure join to fill.
    fn compact(self, cores: u32) -> Result<FarmState, SnapshotError> {
        let stride = cores as usize;
        let servers = self.job_counts.len();
        if servers.checked_mul(stride) != Some(self.job_ids.len())
            || self.job_kinds.len() != self.job_ids.len()
        {
            return Err(corrupt(format!(
                "job slab holds {} ids and {} kinds, not {servers} servers × {stride} cores",
                self.job_ids.len(),
                self.job_kinds.len()
            )));
        }
        if let Some(i) = self.job_counts.iter().position(|&c| c as usize > stride) {
            return Err(corrupt(format!(
                "server {i} claims {} jobs on {stride} cores",
                self.job_counts[i]
            )));
        }
        let counts = &self.job_counts;
        let live = (0..servers).flat_map(|i| i * stride..i * stride + counts[i] as usize);
        let job_ids = JobIds::from_ids(live.clone().map(|slot| self.job_ids[slot]))?;
        let job_kinds = live.map(|slot| self.job_kinds[slot]).collect();
        Ok(FarmState {
            inlet_c: self.inlet_c,
            at_wax_c: self.at_wax_c,
            active_power_w: self.active_power_w,
            enthalpy_j: self.enthalpy_j,
            est_temp_c: self.est_temp_c,
            est_fraction: self.est_fraction,
            job_counts: self.job_counts,
            job_ids,
            job_kinds,
            job_due: Vec::new(),
        })
    }
}

/// Parses a `VMTSNAP v1` container: a one-line text header
/// (`VMTSNAP v1 digest=0x<fnv1a of payload> bytes=<payload length>`)
/// and one JSON payload with dense `servers × cores` job rows, which the
/// reader compacts to live jobs.
///
/// Validation order: magic, version, header fields, payload length,
/// payload digest, JSON structure, column shapes, then the departures.
pub(super) fn decode_v1(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let (header, body) = match bytes.iter().position(|&b| b == b'\n') {
        Some(i) => (&bytes[..i], &bytes[i + 1..]),
        None => (bytes, &[][..]),
    };
    let header = String::from_utf8_lossy(header);
    let mut fields = header.split_ascii_whitespace().skip(2);
    let digest = fields
        .next()
        .and_then(|f| f.strip_prefix("digest=0x"))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| corrupt("header digest field unreadable".to_owned()))?;
    let len = fields
        .next()
        .and_then(|f| f.strip_prefix("bytes="))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| corrupt("header bytes field unreadable".to_owned()))?;
    let payload = body.strip_suffix(b"\n").unwrap_or(body);
    if payload.len() != len {
        return Err(SnapshotError::Truncated {
            expected: len,
            actual: payload.len(),
        });
    }
    let actual = fnv1a(payload);
    if actual != digest {
        return Err(SnapshotError::DigestMismatch {
            block: "payload",
            expected: digest,
            actual,
        });
    }
    let old: SnapshotV1 = std::str::from_utf8(payload)
        .map_err(|e| corrupt(format!("payload: {e}")))
        .and_then(|json| {
            serde_json::from_str(json).map_err(|e| corrupt(format!("payload: {e}")))
        })?;

    let mut departures = Departures::default();
    for (when, bucket) in old.departures.iter().filter(|(_, b)| !b.is_empty()) {
        departures.ticks.push(*when);
        departures.lens.push(
            u32::try_from(bucket.len())
                .map_err(|_| corrupt(format!("departure bucket {when} overflows u32")))?,
        );
        departures
            .servers
            .extend(bucket.iter().map(|&(_, server)| server));
    }
    departures.jobs = JobIds::from_ids(
        old.departures
            .iter()
            .flat_map(|(_, b)| b)
            .map(|&(id, _)| id),
    )?;
    let snapshot = Snapshot {
        farm: old.farm.compact(old.config.power.cores())?,
        config: old.config,
        trace: old.trace,
        scheduler: old.scheduler,
        tick: old.tick,
        occupancy: old.occupancy,
        next_job_id: old.next_job_id,
        arrival_rng: old.arrival_rng,
        planner_rng: old.planner_rng,
        partial: old.partial,
        zone_temps: old.zone_temps,
    };
    with_due_ticks(snapshot, &departures)
}

/// Wraps a v1 JSON payload in its header, as builds before v2 wrote
/// containers.
#[cfg(test)]
pub(super) fn v1_container(payload: &str) -> Vec<u8> {
    format!(
        "VMTSNAP v1 digest={:#018x} bytes={}\n{payload}\n",
        fnv1a(payload.as_bytes()),
        payload.len()
    )
    .into_bytes()
}
