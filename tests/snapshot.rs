//! Restore-equivalence suite for the snapshot/fork/restore machinery.
//!
//! The contract under test: a simulation checkpointed at tick T and
//! restored — through the full container format, not just in memory —
//! must be **bit-identical** to the uninterrupted run from tick T on.
//! Every per-tick state digest of the restored run, its final
//! `SimulationResult`, and the final farm digest must equal the
//! continuous run's, at any physics thread count. `fork()` carries the
//! same contract without serialization.

use vmt::core::{restore_simulation, PolicyKind};
use vmt::dcsim::{
    digest_final_state, ClusterConfig, Simulation, SimulationResult, Snapshot, SnapshotError,
};
use vmt::units::Hours;
use vmt::workload::{DiurnalTrace, TraceConfig};

const SERVERS: usize = 16;
const HOURS: f64 = 48.0;

/// A paper-default simulation at a seed/policy/thread-count triple.
fn build(seed: u64, policy: PolicyKind, threads: usize) -> Simulation {
    build_sized(seed, policy, threads, SERVERS, HOURS)
}

fn build_sized(
    seed: u64,
    policy: PolicyKind,
    threads: usize,
    servers: usize,
    hours: f64,
) -> Simulation {
    let mut cluster = ClusterConfig::paper_default(servers);
    cluster.seed = seed;
    let mut trace = TraceConfig::paper_default();
    trace.horizon = Hours::new(hours);
    trace.seed = seed;
    Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace),
        policy.build(&cluster),
    )
    .with_threads(threads)
}

/// The four policies the suite sweeps (round robin and the adaptive
/// controller are covered by the quicker single-seed test below).
fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::CoolestFirst,
        PolicyKind::VmtTa { gv: 22.0 },
        PolicyKind::vmt_wa(22.0),
        PolicyKind::Preserve {
            gv: 22.0,
            engage_hour: 16.0,
        },
    ]
}

/// Runs a simulation to its horizon, recording the state digest after
/// every tick, and returns the digests, the result, and the final farm
/// digest. `digests[k]` is the state after `k + 1` executed ticks.
fn run_with_digests(mut sim: Simulation) -> (Vec<u64>, SimulationResult, u64) {
    let mut digests = Vec::new();
    while sim.step() {
        digests.push(sim.state_digest());
    }
    let (result, servers) = sim.finish();
    let final_digest = digest_final_state(&result, &servers);
    (digests, result, final_digest)
}

/// Steps `sim` to its horizon asserting every tick digest against the
/// continuous run's, then asserts the finished result and farm digest.
fn assert_suffix_identical(
    mut sim: Simulation,
    from: usize,
    digests: &[u64],
    result: &SimulationResult,
    final_digest: u64,
    context: &str,
) {
    let mut t = from;
    while sim.step() {
        assert_eq!(
            sim.state_digest(),
            digests[t],
            "{context}: diverged at tick {}",
            t + 1
        );
        t += 1;
    }
    assert_eq!(t, digests.len(), "{context}: tick count");
    let (restored_result, end_servers) = sim.finish();
    assert_eq!(&restored_result, result, "{context}: final result");
    assert_eq!(
        digest_final_state(&restored_result, &end_servers),
        final_digest,
        "{context}: final farm digest"
    );
}

/// The tentpole property: snapshot at the midpoint, round-trip through
/// the on-disk container, restore at thread counts 1 and 8, and hold
/// every subsequent tick bit-identical to the uninterrupted run —
/// across seeds and all four swept policies.
#[test]
fn restored_runs_are_bit_identical_to_continuous() {
    for seed in [0u64, 1, 42] {
        for policy in policies() {
            let (digests, result, final_digest) = run_with_digests(build(seed, policy, 1));
            let ticks = digests.len();
            let mid = (ticks / 2) as u64;

            let mut sim = build(seed, policy, 1);
            sim.run_until(mid);
            let snapshot = sim.snapshot().expect("paper policies snapshot");
            let decoded = Snapshot::decode(&snapshot.encode()).expect("container round-trips");
            assert_eq!(decoded.digest(), snapshot.digest());
            assert_eq!(decoded.tick, mid);

            for threads in [1usize, 8] {
                let context = format!("seed {seed}, {policy:?}, threads {threads}");
                let restored = restore_simulation(&decoded)
                    .unwrap_or_else(|e| panic!("{context}: restore failed: {e}"))
                    .with_threads(threads);
                assert_eq!(restored.current_tick(), mid, "{context}: resume tick");
                assert_eq!(
                    restored.state_digest(),
                    digests[mid as usize - 1],
                    "{context}: state at restore"
                );
                assert_suffix_identical(
                    restored,
                    mid as usize,
                    &digests,
                    &result,
                    final_digest,
                    &context,
                );
            }
        }
    }
}

/// Every checkpointable policy kind — including round robin and the
/// stateful adaptive controller — restores bit-identically (single seed
/// and thread count; the sweep above covers the matrix).
#[test]
fn every_policy_kind_restores_bit_identically() {
    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::AdaptiveGv { start_gv: 22.0 },
    ] {
        let (digests, result, final_digest) = run_with_digests(build_sized(7, policy, 1, 8, 30.0));
        let mid = (digests.len() / 2) as u64;
        let mut sim = build_sized(7, policy, 1, 8, 30.0);
        sim.run_until(mid);
        let snapshot = sim.snapshot().expect("policy snapshots");
        let restored = restore_simulation(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
        assert_suffix_identical(
            restored,
            mid as usize,
            &digests,
            &result,
            final_digest,
            &format!("{policy:?}"),
        );
    }
}

/// `fork()` is restore without serialization: the fork and the original
/// continue independently, both bit-identical to the continuous run.
#[test]
fn forked_runs_match_their_original() {
    let policy = PolicyKind::vmt_wa(22.0);
    let (digests, result, final_digest) = run_with_digests(build(42, policy, 1));
    let mid = digests.len() / 2;

    let mut sim = build(42, policy, 1);
    sim.run_until(mid as u64);
    let fork = sim.fork().expect("paper policies fork");
    assert_eq!(fork.state_digest(), sim.state_digest());

    // The fork runs out first; the original must be undisturbed by it.
    assert_suffix_identical(fork, mid, &digests, &result, final_digest, "fork");
    assert_suffix_identical(sim, mid, &digests, &result, final_digest, "original");
}

/// Boundary checkpoints: tick zero (nothing run) reproduces the whole
/// run; the horizon edge (everything run) yields the finished result.
#[test]
fn edge_snapshots_restore() {
    let policy = PolicyKind::VmtTa { gv: 22.0 };
    let (digests, result, final_digest) = run_with_digests(build(0, policy, 1));

    let sim = build(0, policy, 1);
    let snapshot = sim.snapshot().expect("tick-0 snapshot");
    assert_eq!(snapshot.tick, 0);
    let restored = restore_simulation(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
    let (replayed, replayed_result, replayed_final) = run_with_digests(restored);
    assert_eq!(replayed, digests);
    assert_eq!(replayed_result, result);
    assert_eq!(replayed_final, final_digest);

    let mut sim = build(0, policy, 1);
    let total = sim.total_ticks();
    sim.run_until(total);
    let snapshot = sim.snapshot().expect("horizon snapshot");
    assert_eq!(snapshot.tick, total);
    let mut restored = restore_simulation(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
    assert!(!restored.step(), "nothing left past the horizon");
    let (end_result, end_servers) = restored.finish();
    assert_eq!(end_result, result);
    assert_eq!(digest_final_state(&end_result, &end_servers), final_digest);
}

const GOLDEN_V1: &[u8] = include_bytes!("data/golden_v1.snap");
const GOLDEN_V2: &[u8] = include_bytes!("data/golden_v2.snap");
/// The state digest after resuming either golden fixture to tick 60.
/// It pins the physics and must never move.
const RESUMED_DIGEST: u64 = 0x6a35_e733_f5ae_af38;

/// Resumes a decoded golden fixture to tick 60 and checks the state
/// there against [`RESUMED_DIGEST`].
fn assert_resumes_to_pinned_state(snapshot: &Snapshot, context: &str) {
    assert_eq!(snapshot.tick, 30, "{context}");
    assert_eq!(snapshot.scheduler.kind, "vmt-wa", "{context}");
    let mut sim = restore_simulation(snapshot).expect("golden fixture restores");
    sim.run_until(60);
    assert_eq!(
        sim.state_digest(),
        RESUMED_DIGEST,
        "{context}: resuming no longer reproduces the pinned state"
    );
}

/// Format-stability regression: a v1 container committed to the
/// repository (written by `vmt-experiments snapshot
/// tests/data/golden_v1.snap --at 30 --servers 4 --hours 2 --policy
/// vmt-wa --seed 7` before v2 existed) must keep decoding, hashing, and
/// resuming to the digests pinned here. A layout or physics change that
/// breaks old snapshots fails this test instead of surfacing in a user's
/// archive.
#[test]
fn golden_snapshot_stays_readable() {
    // `Snapshot::digest()` hashes the container the snapshot encodes
    // to, so this pin moves when the written format changes even though
    // the old container keeps decoding. History: originally
    // 0xf045_b343_96c5_75fe; re-pinned to 0xe572_eef5_8785_5053 when the
    // backward-compatible `config.topology` / `zone_temps` options were
    // added (both decode as `None` from this fixture); re-pinned again
    // when `digest()` stopped hashing the v1 JSON payload and became the
    // digest of the v2 container the snapshot now encodes to (the same
    // container `golden_v2.snap` holds).
    const GOLDEN_DIGEST: u64 = 0x61ac_1b86_83d3_4512;

    let snapshot = Snapshot::decode(GOLDEN_V1).expect("golden v1 fixture decodes");
    assert_eq!(snapshot.digest(), GOLDEN_DIGEST);
    assert_resumes_to_pinned_state(&snapshot, "golden v1");
}

/// The same regression for the current format: `golden_v2.snap` was
/// written by the same command line as the v1 fixture and must keep
/// decoding to the same digest and resuming to the same state.
#[test]
fn golden_v2_snapshot_stays_readable() {
    const GOLDEN_V2_DIGEST: u64 = 0x61ac_1b86_83d3_4512;

    let snapshot = Snapshot::decode(GOLDEN_V2).expect("golden v2 fixture decodes");
    assert_eq!(snapshot.digest(), GOLDEN_V2_DIGEST);
    // The writer is deterministic: re-encoding reproduces the file.
    assert_eq!(snapshot.encode(), GOLDEN_V2);
    assert_resumes_to_pinned_state(&snapshot, "golden v2");
}

/// The engine still writes the v2 fixture's bytes: its command line
/// (`snapshot --at 30 --servers 4 --hours 2 --policy vmt-wa --seed 7`)
/// run through `Simulation::snapshot` encodes to `golden_v2.snap`, at
/// one tick thread and at two.
#[test]
fn engine_writes_the_golden_v2_bytes() {
    for threads in [1, 2] {
        let mut sim = build_sized(7, PolicyKind::vmt_wa(22.0), threads, 4, 2.0);
        sim.run_until(30);
        let snapshot = sim.snapshot().expect("snapshot");
        assert!(
            snapshot.encode() == GOLDEN_V2,
            "threads {threads}: the engine no longer writes golden_v2.snap"
        );
    }
}

/// A mid-run snapshot of 4,160 servers (`snapshot --at 60 --servers
/// 4160 --hours 2 --policy vmt-wa`), whose ticks 56–59 each retire
/// 7,800–8,700 jobs, keeps its pinned container digest: enough
/// departures per tick that every pooled and ordered path runs. The
/// same bytes come out at one and two tick threads, with the departure
/// sweep inline and on the pool.
#[test]
fn busy_mid_run_snapshot_keeps_its_pinned_digest() {
    const PINNED: u64 = 0x893d_70de_a2a6_560d;
    let cluster = ClusterConfig::paper_default(4160);
    let trace = TraceConfig {
        horizon: Hours::new(2.0),
        ..TraceConfig::paper_default()
    };
    for threads in [1, 2] {
        let mut sim = Simulation::new(
            cluster.clone(),
            DiurnalTrace::new(trace.clone()),
            PolicyKind::vmt_wa(22.0).build(&cluster),
        )
        .with_threads(threads);
        sim.run_until(60);
        let snapshot = sim.snapshot().expect("snapshot");
        assert!(snapshot.departures.lens.iter().any(|&len| len >= 4096));
        assert_eq!(snapshot.digest(), PINNED, "threads {threads}");
    }
}

/// A v1 archive transcodes losslessly: decode v1, encode v2, decode
/// that, and resume to the pinned state. The v2 bytes equal the v2
/// fixture's, since both describe the same run at the same tick.
#[test]
fn v1_snapshot_transcodes_to_v2() {
    let v1 = Snapshot::decode(GOLDEN_V1).expect("golden v1 fixture decodes");
    let v2 = v1.encode();
    assert!(v2.starts_with(b"VMTSNAP v2\n"));
    assert_eq!(v2, GOLDEN_V2);
    let transcoded = Snapshot::decode(&v2).expect("transcoded container decodes");
    assert_resumes_to_pinned_state(&transcoded, "transcoded v1");
}

/// FNV-1a, the digest both container versions use.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Wraps a v1 JSON payload in its header, as builds before v2 wrote
/// containers.
fn v1_container(payload: &str) -> Vec<u8> {
    format!(
        "VMTSNAP v1 digest={:#018x} bytes={}\n{payload}\n",
        fnv1a(payload.as_bytes()),
        payload.len()
    )
    .into_bytes()
}

/// The golden v1 payload with one edit applied to its departure
/// buckets (`[[tick, [[job id, server], …]], …]`), re-wrapped with a
/// valid digest.
fn golden_v1_with_departures(edit: impl FnOnce(&mut Vec<serde::Value>)) -> Vec<u8> {
    let text = std::str::from_utf8(GOLDEN_V1).unwrap();
    let payload = text.split_once('\n').unwrap().1.trim_end();
    let mut doc: serde::Value = serde_json::from_str(payload).unwrap();
    let serde::Value::Object(fields) = &mut doc else {
        panic!("v1 payload is an object")
    };
    let (_, departures) = fields
        .iter_mut()
        .find(|(name, _)| name == "departures")
        .expect("v1 payload has departures");
    let serde::Value::Array(buckets) = departures else {
        panic!("departures are an array")
    };
    edit(buckets);
    v1_container(&serde_json::to_string(&doc).unwrap())
}

/// The `[job id, server]` entries of a v1 departure bucket.
fn v1_entries(bucket: &mut serde::Value) -> &mut Vec<serde::Value> {
    match bucket {
        serde::Value::Array(pair) => match &mut pair[1] {
            serde::Value::Array(entries) => entries,
            other => panic!("bucket entries: {other:?}"),
        },
        other => panic!("bucket: {other:?}"),
    }
}

/// A mid-run snapshot of an 8-server run, with pending departures in
/// several buckets.
fn eight_server_snapshot(policy: PolicyKind) -> Snapshot {
    let mut sim = build_sized(7, policy, 1, 8, 6.0);
    sim.run_until(120);
    let snapshot = sim.snapshot().expect("snapshot");
    assert!(
        restore_simulation(&snapshot).is_ok(),
        "the unedited snapshot restores"
    );
    assert!(snapshot.departures.ticks.len() > 1);
    snapshot
}

/// Asserts that restoring `snapshot` fails with a `Corrupt` error that
/// mentions `needle`.
fn assert_restore_rejects(snapshot: &Snapshot, needle: &str, context: &str) {
    match restore_simulation(snapshot) {
        Err(SnapshotError::Corrupt(reason)) => {
            assert!(reason.contains(needle), "{context}: {reason}");
        }
        Err(other) => panic!("{context}: expected Corrupt, got {other}"),
        Ok(_) => panic!("{context}: restore accepted an inconsistent snapshot"),
    }
}

/// A digest-valid container whose departures name a job its server
/// does not run, or let a job depart twice, must fail restore with a
/// typed error; accepting it would retire the wrong job or none.
/// Checked through a v2 container (an 8-server run) and a v1 container
/// (the golden fixture).
#[test]
fn restore_rejects_departures_the_farm_cannot_drain() {
    let snapshot = eight_server_snapshot(PolicyKind::vmt_wa(22.0));

    let mut moved = snapshot.clone();
    moved.departures.servers[0] = (moved.departures.servers[0] + 1) % 8;
    let moved = Snapshot::decode(&moved.encode()).expect("framing is intact");
    assert_restore_rejects(&moved, "does not run", "v2, moved entry");

    let mut doubled = snapshot.clone();
    let departures = &mut doubled.departures;
    departures.jobs.deltas.push(departures.jobs.deltas[0]);
    departures.servers.push(departures.servers[0]);
    *departures.lens.last_mut().unwrap() += 1;
    let doubled = Snapshot::decode(&doubled.encode()).expect("framing is intact");
    assert_restore_rejects(&doubled, "twice", "v2, duplicated entry");

    let moved = golden_v1_with_departures(|buckets| {
        let serde::Value::Array(entry) = &mut v1_entries(&mut buckets[0])[0] else {
            panic!("entries are [job id, server] pairs")
        };
        let serde::Value::U64(server) = entry[1] else {
            panic!("server: {:?}", entry[1])
        };
        entry[1] = serde::Value::U64((server + 1) % 4);
    });
    let moved = Snapshot::decode(&moved).expect("v1 framing is intact");
    assert_restore_rejects(&moved, "does not run", "v1, moved entry");

    let doubled = golden_v1_with_departures(|buckets| {
        let entry = v1_entries(&mut buckets[0])[0].clone();
        v1_entries(buckets.last_mut().unwrap()).push(entry);
    });
    let doubled = Snapshot::decode(&doubled).expect("v1 framing is intact");
    assert_restore_rejects(&doubled, "twice", "v1, duplicated entry");
}

/// Replaces the field at `path` (nested object field names) of a
/// serialized value.
fn set_field(mut node: &mut serde::Value, path: &[&str], value: serde::Value) {
    for name in path {
        let serde::Value::Object(fields) = node else {
            panic!("the parent of `{name}` is not an object")
        };
        node = &mut fields
            .iter_mut()
            .find(|(field, _)| field == name)
            .unwrap_or_else(|| panic!("no field `{name}`"))
            .1;
    }
    *node = value;
}

/// Restore also holds each kind's occupancy to the running jobs of that
/// kind (each departure decrements its kind's count), requires the
/// departure buckets to ascend from the snapshot tick and each bucket's
/// job ids to ascend strictly (the order the sweep retires them in,
/// checked on v2 containers and on the v1 fixture). The VMT
/// policies' saved state must fit the farm and pass the checks their
/// constructors make: a hot group past the farm's end would index out
/// of it at the first refresh, and a config no constructor would build
/// is rejected field by field.
#[test]
fn restore_rejects_inconsistent_occupancy_and_bucket_order() {
    use serde::Value::{F64, U64};
    let snapshot = eight_server_snapshot(PolicyKind::vmt_wa(22.0));

    let mut shifted = snapshot.clone();
    let busy = (0..5).find(|&k| shifted.occupancy[k] > 0).unwrap();
    shifted.occupancy[busy] -= 1;
    shifted.occupancy[(busy + 1) % 5] += 1;
    assert_restore_rejects(&shifted, "occupancy", "occupancy moved between kinds");

    let mut swapped = snapshot.clone();
    swapped.departures.ticks.swap(0, 1);
    assert_restore_rejects(&swapped, "out of order", "buckets out of order");

    let mut stale = snapshot.clone();
    stale.departures.ticks[0] = snapshot.tick - 1;
    assert_restore_rejects(&stale, "precedes tick", "bucket before the snapshot tick");

    // Two entries of one bucket traded places (with their servers): the
    // farm runs both jobs, but the bucket no longer ascends. A repeated
    // entry inside its bucket is caught first as a double departure.
    let bucket = snapshot
        .departures
        .lens
        .iter()
        .position(|&len| len >= 2)
        .expect("a bucket with two departures");
    let first: usize = snapshot.departures.lens[..bucket]
        .iter()
        .map(|&len| len as usize)
        .sum();
    let mut traded = snapshot.clone();
    traded.departures.jobs.deltas.swap(first, first + 1);
    traded.departures.servers.swap(first, first + 1);
    let traded = Snapshot::decode(&traded.encode()).expect("framing is intact");
    assert_restore_rejects(&traded, "must ascend", "v2, entries out of id order");
    let mut repeated = snapshot.clone();
    let departures = &mut repeated.departures;
    departures.jobs.deltas[first + 1] = departures.jobs.deltas[first];
    departures.servers[first + 1] = departures.servers[first];
    let repeated = Snapshot::decode(&repeated.encode()).expect("framing is intact");
    assert_restore_rejects(&repeated, "twice", "v2, entry repeated in its bucket");
    let traded = golden_v1_with_departures(|buckets| {
        let bucket = (0..buckets.len())
            .find(|&b| v1_entries(&mut buckets[b]).len() >= 2)
            .expect("a v1 bucket with two departures");
        v1_entries(&mut buckets[bucket]).swap(0, 1);
    });
    let traded = Snapshot::decode(&traded).expect("v1 framing is intact");
    assert_restore_rejects(&traded, "must ascend", "v1, entries out of id order");

    let ta = eight_server_snapshot(PolicyKind::VmtTa { gv: 22.0 });
    let cases: [(&Snapshot, &[&str], serde::Value, &str); 5] = [
        (&snapshot, &["hot_size"], U64(9), "hot group has 9 servers"),
        (&ta, &["hot_size"], U64(9), "hot group has 9 servers"),
        (&snapshot, &["config", "gv"], F64(-5.0), "GV -5"),
        (&ta, &["config", "pmt"], F64(0.0), "PMT 0"),
        (
            &snapshot,
            &["config", "wax_threshold"],
            F64(7.0),
            "wax threshold 7",
        ),
    ];
    for (base, path, value, needle) in cases {
        let mut tampered = base.clone();
        set_field(&mut tampered.scheduler.state, path, value);
        let context = format!("{} {}", base.scheduler.kind, path.join("."));
        assert_restore_rejects(&tampered, needle, &context);
    }
}

/// A snapshot whose trace horizon has more ticks than a job's due tick
/// can name is a typed error on restore, not a panic or an allocation
/// sized by the horizon.
#[test]
fn restore_rejects_a_horizon_past_the_due_tick_range() {
    let mut long = eight_server_snapshot(PolicyKind::vmt_wa(22.0));
    let trace = TraceConfig {
        horizon: Hours::new(1e12),
        seed: 7,
        ..TraceConfig::paper_default()
    };
    long.trace = vmt::workload::TraceDescriptor::Diurnal(DiurnalTrace::new(trace));
    match restore_simulation(&long) {
        Err(SnapshotError::Horizon(err)) => {
            assert_eq!(err.ticks, 60_000_000_000_000);
            assert!(err.ticks > Simulation::MAX_TICKS);
        }
        Err(other) => panic!("expected a horizon error, got {other}"),
        Ok(_) => panic!("restore accepted a 1e12-hour horizon"),
    }
}

/// Snapshot/restore at the 1M tier: checkpoint a 1-hour VMT-WA run
/// midway, round-trip the container, and hold the restored run's
/// remaining ticks digest-identical to the continuous one at threads 1
/// and 8.
///
/// Run with: `cargo test --release million -- --ignored`
#[test]
#[ignore = "1M-server runs: minutes of wall clock, run explicitly"]
fn million_tier_snapshot_restores_bit_identically() {
    const SERVERS: usize = 1_000_000;
    const HOURS: f64 = 1.0;
    let build = || {
        let cluster = ClusterConfig::paper_default(SERVERS);
        let mut trace = TraceConfig::paper_default();
        trace.horizon = Hours::new(HOURS);
        let policy = PolicyKind::vmt_wa(22.0).build(&cluster);
        Simulation::new(cluster, DiurnalTrace::new(trace), policy)
    };
    let (digests, result, final_digest) = run_with_digests(build());
    let mid = digests.len() / 2;
    let mut sim = build();
    sim.run_until(mid as u64);
    let snapshot = sim.snapshot().expect("1M snapshot");
    let decoded = Snapshot::decode(&snapshot.encode()).expect("container round-trips");
    assert_eq!(decoded.digest(), snapshot.digest());
    for threads in [1usize, 8] {
        let restored = restore_simulation(&decoded)
            .unwrap_or_else(|e| panic!("restore at x{threads} failed: {e}"))
            .with_threads(threads);
        assert_eq!(restored.current_tick(), mid as u64);
        assert_eq!(
            restored.state_digest(),
            digests[mid - 1],
            "x{threads}: state at restore"
        );
        assert_suffix_identical(
            restored,
            mid,
            &digests,
            &result,
            final_digest,
            &format!("x{threads}"),
        );
    }
}

/// Property tests over the container format: lossless round-trips at
/// arbitrary ticks, and graceful rejection (typed errors, never a
/// panic) of arbitrarily mutilated containers.
mod container_properties {
    use super::*;
    use proptest::prelude::*;
    use std::ops::Range;

    /// A small deterministic snapshot to mutate.
    fn sample_snapshot(seed: u64, at: u64) -> Snapshot {
        let mut sim = build_sized(seed, PolicyKind::vmt_wa(22.0), 1, 2, 1.0);
        sim.run_until(at.min(sim.total_ticks()));
        sim.snapshot().expect("sample snapshots")
    }

    fn sample_container(seed: u64, at: u64) -> Vec<u8> {
        sample_snapshot(seed, at).encode()
    }

    /// Byte range of each v2 block frame (`tag | length | data |
    /// digest`), after the header line and the block count.
    fn frames(bytes: &[u8]) -> Vec<Range<usize>> {
        let mut at = b"VMTSNAP v2\n".len() + 4;
        let mut frames = Vec::new();
        while at < bytes.len() {
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            frames.push(at..at + 20 + len);
            at += 20 + len;
        }
        assert_eq!(frames.len(), 16, "v2 holds sixteen blocks");
        frames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn snapshots_round_trip_at_any_tick(
            servers in 1usize..12,
            seed in 0u64..1000,
            percent in 0u64..=100,
        ) {
            let mut sim = build_sized(seed, PolicyKind::vmt_wa(22.0), 1, servers, 4.0);
            let at = sim.total_ticks() * percent / 100;
            sim.run_until(at);
            let snapshot = sim.snapshot().expect("snapshot");
            let decoded = Snapshot::decode(&snapshot.encode()).expect("decode");
            prop_assert_eq!(decoded.digest(), snapshot.digest());
            prop_assert_eq!(decoded.tick, at);
            // Re-encoding the decoded snapshot is byte-identical.
            prop_assert_eq!(decoded.encode(), snapshot.encode());
            // And it restores to the same live state.
            let restored = restore_simulation(&decoded).expect("restore");
            prop_assert_eq!(restored.state_digest(), sim.state_digest());
        }

        #[test]
        fn mutilated_containers_never_panic(
            flip_at in 0usize..1 << 20,
            flip_to in 0u8..=255u8,
            truncate_to in 0usize..1 << 20,
        ) {
            let encoded = sample_container(3, 10);

            // Truncation at any byte: a typed error, never a panic.
            let cut = truncate_to % encoded.len();
            prop_assert!(Snapshot::decode(&encoded[..cut]).is_err());

            // A single changed byte anywhere is rejected: every v2 byte
            // is magic, version, framing or digested data, so there is
            // no header text with slack to absorb it.
            let mut bytes = encoded.clone();
            let i = flip_at % bytes.len();
            bytes[i] = flip_to;
            let decoded = Snapshot::decode(&bytes);
            if encoded[i] == flip_to {
                prop_assert!(decoded.is_ok());
            } else {
                prop_assert!(decoded.is_err(), "byte {} accepted as {:#04x}", i, flip_to);
            }
        }

        #[test]
        fn mutilated_v1_containers_never_panic(
            flip_at in 0usize..1 << 20,
            flip_to in 0u8..=255u8,
            truncate_to in 0usize..1 << 20,
        ) {
            let original = Snapshot::decode(GOLDEN_V1).expect("golden v1 decodes");
            let header_end = GOLDEN_V1.iter().position(|&b| b == b'\n').unwrap();

            // Truncation short of the trailing newline is an error.
            let cut = truncate_to % (GOLDEN_V1.len() - 1);
            prop_assert!(Snapshot::decode(&GOLDEN_V1[..cut]).is_err());

            // A corrupted byte is rejected, unless it only rewrites the
            // header's representation of unchanged facts (the digest
            // check makes silent corruption of the payload impossible).
            let mut bytes = GOLDEN_V1.to_vec();
            let i = flip_at % bytes.len();
            let unchanged = bytes[i] == flip_to;
            bytes[i] = flip_to;
            if let Ok(snapshot) = Snapshot::decode(&bytes) {
                prop_assert!(unchanged || i < header_end);
                prop_assert_eq!(snapshot.digest(), original.digest());
            }
        }
    }

    /// Every pair of blocks swapped in place is rejected — including
    /// same-sized column pairs whose digests stay valid, which the
    /// per-block tags catch.
    #[test]
    fn swapped_blocks_are_rejected() {
        let encoded = sample_container(5, 20);
        let frames = frames(&encoded);
        for i in 0..frames.len() {
            for j in i + 1..frames.len() {
                let mut swapped = encoded[..frames[0].start].to_vec();
                for k in 0..frames.len() {
                    let from = if k == i {
                        j
                    } else if k == j {
                        i
                    } else {
                        k
                    };
                    swapped.extend_from_slice(&encoded[frames[from].clone()]);
                }
                assert!(
                    Snapshot::decode(&swapped).is_err(),
                    "blocks {i} and {j} swapped"
                );
            }
        }
    }

    /// A block length declared past the end of the container is a typed
    /// `Truncated` error. Nothing is allocated from a declared length
    /// before it is checked against the bytes left, so even `u64::MAX`
    /// returns cleanly instead of aborting on an impossible allocation.
    #[test]
    fn oversized_block_lengths_are_typed_errors() {
        let encoded = sample_container(5, 20);
        for frame in frames(&encoded) {
            let room = encoded.len() - (frame.start + 12) - 8;
            for declared in [room as u64 + 1, 1 << 40, u64::MAX] {
                let mut bytes = encoded.clone();
                bytes[frame.start + 4..frame.start + 12].copy_from_slice(&declared.to_le_bytes());
                assert!(
                    matches!(
                        Snapshot::decode(&bytes),
                        Err(SnapshotError::Truncated { actual, .. }) if actual == room
                    ),
                    "block at {} declaring {declared} bytes",
                    frame.start
                );
            }
        }
    }

    /// Column contents that disagree with the config, written with valid
    /// digests, fail the shape checks that close decoding.
    #[test]
    fn inconsistent_columns_are_rejected() {
        let snapshot = sample_snapshot(5, 20);
        assert!(!snapshot.departures.lens.is_empty());
        let rejects = |edit: &dyn Fn(&mut Snapshot), needle: &str| {
            let mut edited = snapshot.clone();
            edit(&mut edited);
            match Snapshot::decode(&edited.encode()) {
                Err(SnapshotError::Corrupt(reason)) => {
                    assert!(reason.contains(needle), "{needle}: {reason}")
                }
                other => panic!("{needle}: expected Corrupt, got {other:?}"),
            }
        };
        rejects(
            &|s| s.farm.job_counts[0] = s.config.power.cores() + 1,
            "cores",
        );
        rejects(&|s| s.departures.lens[0] += 1, "bucket lengths sum");
        rejects(&|s| s.departures.lens.push(0), "bucket lengths for");
        rejects(&|s| s.farm.job_kinds[0] = 5, "workload kind");
        rejects(&|s| s.farm.inlet_c.push(22.0), "farm arrays");
        rejects(&|s| s.departures.servers[0] = 2, "server 2");
    }
}

/// A zoned cluster (rack/row/zone topology with per-zone CRAC
/// integrators) restores bit-identically: the zone temperatures travel
/// in the container, the restored integrators pick up exactly where
/// the continuous run's were, and every subsequent tick digest matches
/// at any thread count. The spec's CRAC capacity is set low enough
/// that zones genuinely warm above the setpoint, so the round trip is
/// exercised on non-trivial integrator state.
#[test]
fn zoned_run_restores_bit_identically() {
    use vmt::dcsim::ZoneSpec;

    let spec = ZoneSpec {
        servers_per_rack: 4,
        racks_per_row: 2,
        rows_per_zone: 2,
        crac_capacity_w_per_server: 120.0,
        crac_setpoint_c: 22.0,
        crac_capacitance_j_per_k_per_server: 5_000.0,
    };
    let seed = 7u64;
    let servers = 100; // 7 zones: 6 full (16 servers) plus a 4-server tail
    let policy = PolicyKind::vmt_wa(22.0);

    let build_zoned = |threads: usize| {
        let mut cluster = ClusterConfig::paper_default(servers);
        cluster.seed = seed;
        cluster.topology = Some(spec);
        let mut trace = TraceConfig::paper_default();
        trace.horizon = Hours::new(24.0);
        trace.seed = seed;
        Simulation::new(
            cluster.clone(),
            DiurnalTrace::new(trace),
            policy.build(&cluster),
        )
        .with_threads(threads)
    };

    let (digests, result, final_digest) = run_with_digests(build_zoned(1));
    let mid = (digests.len() / 2) as u64;

    let mut sim = build_zoned(1);
    sim.run_until(mid);
    let continuous_zone_temps: Vec<f64> = sim
        .zones()
        .expect("topology configured")
        .temperatures()
        .to_vec();
    assert!(
        continuous_zone_temps
            .iter()
            .any(|&t| t > spec.crac_setpoint_c),
        "test misconfigured: no zone ever warmed above the setpoint, \
         so the round trip would only cover trivial integrator state"
    );
    let snapshot = sim.snapshot().expect("zoned runs snapshot");
    assert_eq!(
        snapshot.zone_temps.as_deref(),
        Some(continuous_zone_temps.as_slice()),
        "zone temperatures travel in the snapshot"
    );
    let decoded = Snapshot::decode(&snapshot.encode()).expect("container round-trips");

    for threads in [1usize, 4] {
        let context = format!("zoned restore at {threads} threads");
        let restored = restore_simulation(&decoded)
            .unwrap_or_else(|e| panic!("{context}: restore failed: {e}"))
            .with_threads(threads);
        assert_eq!(
            restored
                .zones()
                .expect("restored run keeps its topology")
                .temperatures(),
            continuous_zone_temps.as_slice(),
            "{context}: integrator state at restore"
        );
        assert_suffix_identical(
            restored,
            mid as usize,
            &digests,
            &result,
            final_digest,
            &context,
        );
    }
}
