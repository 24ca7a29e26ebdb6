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
use vmt::workload::{DiurnalTrace, Job, TraceConfig};

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
    let (result, farm) = sim.finish();
    let final_digest = digest_final_state(&result, &farm);
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
    let (restored_result, end_farm) = sim.finish();
    assert_eq!(&restored_result, result, "{context}: final result");
    assert_eq!(
        digest_final_state(&restored_result, &end_farm),
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
    let (end_result, end_farm) = restored.finish();
    assert_eq!(end_result, result);
    assert_eq!(digest_final_state(&end_result, &end_farm), final_digest);
}

const GOLDEN_V1: &[u8] = include_bytes!("data/golden_v1.snap");
const GOLDEN_V2: &[u8] = include_bytes!("data/golden_v2.snap");
const GOLDEN_V3: &[u8] = include_bytes!("data/golden_v3.snap");
/// The state digest after resuming any golden fixture to tick 60.
/// It pins the physics and must never move.
const RESUMED_DIGEST: u64 = 0x6a35_e733_f5ae_af38;
/// The container digest of the golden run's snapshot: what every golden
/// fixture decodes to, and `golden_v3.snap` holds.
const GOLDEN_DIGEST: u64 = 0x7176_a80a_3aa7_a3b0;

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
///
/// `Snapshot::digest()` hashes the container the snapshot encodes to,
/// so [`GOLDEN_DIGEST`] moves when the written format changes even
/// though the old containers keep decoding. History: originally
/// 0xf045_b343_96c5_75fe; re-pinned to 0xe572_eef5_8785_5053 when the
/// backward-compatible `config.topology` / `zone_temps` options were
/// added (both decode as `None` from this fixture); to
/// 0x61ac_1b86_83d3_4512 when `digest()` became the digest of the v2
/// container the snapshot encoded to; to 0x7176_a80a_3aa7_a3b0 with v3,
/// whose bytes both older fixtures transcode to
/// (`legacy_snapshots_transcode_to_v3`).
#[test]
fn golden_snapshot_stays_readable() {
    let snapshot = Snapshot::decode(GOLDEN_V1).expect("golden v1 fixture decodes");
    assert_eq!(snapshot.digest(), GOLDEN_DIGEST);
    assert_resumes_to_pinned_state(&snapshot, "golden v1");
}

/// The same regression for the v2 format: `golden_v2.snap` was written
/// by the same command line as the v1 fixture and must keep decoding to
/// the same digest and resuming to the same state.
#[test]
fn golden_v2_snapshot_stays_readable() {
    let snapshot = Snapshot::decode(GOLDEN_V2).expect("golden v2 fixture decodes");
    assert_eq!(snapshot.digest(), GOLDEN_DIGEST);
    assert_resumes_to_pinned_state(&snapshot, "golden v2");
}

/// The current format: `golden_v3.snap`, written by the same command
/// line, decodes, re-encodes to its own bytes and resumes to the same
/// state.
#[test]
fn golden_v3_snapshot_stays_readable() {
    let snapshot = Snapshot::decode(GOLDEN_V3).expect("golden v3 fixture decodes");
    assert_eq!(snapshot.digest(), GOLDEN_DIGEST);
    // The writer is deterministic: re-encoding reproduces the file.
    assert_eq!(snapshot.encode(), GOLDEN_V3);
    assert_resumes_to_pinned_state(&snapshot, "golden v3");
}

/// The engine writes the v3 fixture's bytes: its command line
/// (`snapshot --at 30 --servers 4 --hours 2 --policy vmt-wa --seed 7`)
/// run through `Simulation::snapshot` encodes to `golden_v3.snap`, at
/// one tick thread and at two.
#[test]
fn engine_writes_the_golden_v3_bytes() {
    for threads in [1, 2] {
        let mut sim = build_sized(7, PolicyKind::vmt_wa(22.0), threads, 4, 2.0);
        sim.run_until(30);
        let snapshot = sim.snapshot().expect("snapshot");
        assert!(
            snapshot.encode() == GOLDEN_V3,
            "threads {threads}: the engine no longer writes golden_v3.snap"
        );
    }
}

/// A mid-run snapshot of 4,160 servers (`snapshot --at 60 --servers
/// 4160 --hours 2 --policy vmt-wa`), whose ticks 56–59 each retire
/// 7,800–8,700 jobs, keeps its pinned container digest: enough
/// departures per tick that every pooled and ordered path runs. The
/// same bytes come out at one and two tick threads, with the departure
/// sweep inline and on the pool.
///
/// Pinned as 0x893d_70de_a2a6_560d on v2; the v2 container an engine
/// of that format wrote from this command line transcodes to exactly
/// the v3 bytes pinned here.
#[test]
fn busy_mid_run_snapshot_keeps_its_pinned_digest() {
    const PINNED: u64 = 0xdf8c_4cc1_2a7d_366d;
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
        let mut due = snapshot.farm.job_due.clone();
        due.sort_unstable();
        assert!(due.chunk_by(|a, b| a == b).any(|tick| tick.len() >= 4096));
        assert_eq!(snapshot.digest(), PINNED, "threads {threads}");
    }
}

/// The end-of-run digest (`digest_final_state`: result series plus each
/// server's used cores, air at the wax and reported melt) of two runs to
/// their horizon, pinned from the engine that still built per-object
/// servers at the end of a run: the golden fixtures' command line
/// (`--servers 4 --hours 2 --policy vmt-wa --seed 7`), and 10,000
/// servers for 2 h under VMT-WA, whose first tick places more jobs
/// than the engine stages per placement call (65,536). Both hold at one
/// and two tick threads.
#[test]
fn final_state_digests_keep_their_pinned_values() {
    const GOLDEN_RUN: u64 = 0x3115_27c4_1055_5b91;
    const TEN_K_RUN: u64 = 0x0ba5_7b40_ae08_26e5;
    for threads in [1, 2] {
        let (_, _, digest) =
            run_with_digests(build_sized(7, PolicyKind::vmt_wa(22.0), threads, 4, 2.0));
        assert_eq!(digest, GOLDEN_RUN, "golden run, threads {threads}");

        let cluster = ClusterConfig::paper_default(10_000);
        let trace = TraceConfig {
            horizon: Hours::new(2.0),
            ..TraceConfig::paper_default()
        };
        let mut sim = Simulation::new(
            cluster.clone(),
            DiurnalTrace::new(trace),
            PolicyKind::vmt_wa(22.0).build(&cluster),
        )
        .with_threads(threads);
        assert!(sim.step());
        let first_tick: u64 = (0..10_000)
            .map(|i| u64::from(sim.farm().used_cores(i)))
            .sum();
        assert!(first_tick > 65_536, "first tick placed {first_tick}");
        while sim.step() {}
        let (result, farm) = sim.finish();
        assert_eq!(
            digest_final_state(&result, &farm),
            TEN_K_RUN,
            "10k run, threads {threads}"
        );
    }
}

/// The tick-boundary state digest (`state_digest`: each server's air at
/// the wax, reported melt and free cores, then the used-core total) of
/// VMT-WA GV 22 on 20 servers over a day, pinned at ticks 1,200 and
/// 1,440 in each branch of `ServerFarm::reported_melt_fraction`: the
/// estimator's report, the physical fraction under `oracle_wax_state`,
/// and zero without wax. The evening's melt crossings fall at ticks
/// 1,168–1,197, so at tick 1,200 the wax modes hash reports strictly
/// between 0 and 1, not only the 0s and 1s of a frozen or fully melted
/// farm.
#[test]
fn state_digests_keep_their_pinned_values_while_wax_melts() {
    const SERVERS: usize = 20;
    let estimator = ClusterConfig::paper_default(SERVERS);
    let oracle = ClusterConfig {
        oracle_wax_state: true,
        ..estimator.clone()
    };
    let trace = TraceConfig {
        horizon: Hours::new(24.0),
        ..TraceConfig::paper_default()
    };
    // VMT takes its PMT from the wax deployment, so the waxless run's
    // policy is built for the paper's wax and sees only zero reports.
    let policy = PolicyKind::vmt_wa(22.0).build(&estimator);
    for (mode, cluster, pinned) in [
        (
            "estimator",
            estimator,
            [0xc76a_eb8d_b343_313f, 0xd332_f6ce_0132_88fc],
        ),
        (
            "oracle",
            oracle,
            [0xa46b_4a8c_dff2_88ef, 0x2c91_845a_9ad5_e4dc],
        ),
        (
            "waxless",
            ClusterConfig::without_wax(SERVERS),
            [0xa5c3_8d2a_b5d7_b10f, 0x5bb1_2d9d_aa5d_c3e9],
        ),
    ] {
        let policy = policy.clone_box().expect("VMT-WA clones");
        let mut sim = Simulation::new(cluster.clone(), DiurnalTrace::new(trace.clone()), policy);
        sim.run_until(1_200);
        let partly_melted = (0..SERVERS).any(|i| {
            let report = sim.farm().reported_melt_fraction(i).get();
            0.0 < report && report < 1.0
        });
        assert_eq!(partly_melted, cluster.wax.is_some(), "{mode}");
        let at_1200 = sim.state_digest();
        sim.run_until(1_440);
        assert_eq!(sim.current_tick(), 1_440, "{mode}");
        assert_eq!([at_1200, sim.state_digest()], pinned, "{mode}");
    }
}

/// v1 and v2 archives transcode losslessly: decode, encode v3, decode
/// that, and resume to the pinned state. The v3 bytes equal the v3
/// fixture's, since all three describe the same run at the same tick.
#[test]
fn legacy_snapshots_transcode_to_v3() {
    for (version, bytes) in [("v1", GOLDEN_V1), ("v2", GOLDEN_V2)] {
        let legacy = Snapshot::decode(bytes).expect("golden fixture decodes");
        let v3 = legacy.encode();
        assert!(v3.starts_with(b"VMTSNAP v3\n"), "{version}");
        assert!(
            v3 == GOLDEN_V3,
            "{version} no longer transcodes to golden_v3.snap"
        );
        let transcoded = Snapshot::decode(&v3).expect("transcoded container decodes");
        assert_resumes_to_pinned_state(&transcoded, &format!("transcoded {version}"));
    }
}

/// FNV-1a: the v1 payload digest and the v2 block digest.
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

/// The departure columns of `golden_v2.snap`, decoded for editing.
struct V2Departures {
    /// `DTCK`: the tick of each bucket.
    ticks: Vec<u64>,
    /// `DLEN`: the entry count of each bucket.
    lens: Vec<u32>,
    /// `DIDS`: the id base, then a delta per entry.
    base: u64,
    ids: Vec<u32>,
    /// `DSRV`: the server of each entry.
    servers: Vec<u32>,
}

/// The blocks of a v2 container as `(tag, data)`, in container order.
fn v2_blocks(bytes: &[u8]) -> Vec<([u8; 4], Vec<u8>)> {
    let mut rest = &bytes.strip_prefix(b"VMTSNAP v2\n").expect("a v2 container")[4..];
    let mut blocks = Vec::new();
    while !rest.is_empty() {
        let len = u64::from_le_bytes(rest[4..12].try_into().unwrap()) as usize;
        blocks.push((rest[..4].try_into().unwrap(), rest[12..12 + len].to_vec()));
        rest = &rest[20 + len..];
    }
    assert_eq!(blocks.len(), 16, "v2 holds sixteen blocks");
    blocks
}

/// Frames `blocks` as a v2 container, each with its FNV-1a digest.
fn v2_container(blocks: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let mut out = b"VMTSNAP v2\n".to_vec();
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for (tag, data) in blocks {
        let frame = out.len();
        out.extend_from_slice(tag);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(data);
        let digest = fnv1a(&out[frame..]);
        out.extend_from_slice(&digest.to_le_bytes());
    }
    out
}

/// Little-endian `N`-byte values.
fn le_values<T, const N: usize>(bytes: &[u8], from_le: fn([u8; N]) -> T) -> Vec<T> {
    let (values, rest) = bytes.as_chunks::<N>();
    assert!(rest.is_empty());
    values.iter().map(|&v| from_le(v)).collect()
}

fn le_bytes<T: Copy, const N: usize>(values: &[T], to_le: fn(T) -> [u8; N]) -> Vec<u8> {
    values.iter().flat_map(|&v| to_le(v)).collect()
}

/// `golden_v2.snap` with one edit applied to its departure columns,
/// re-framed with valid block digests.
fn golden_v2_with_departures(edit: impl FnOnce(&mut V2Departures)) -> Vec<u8> {
    let mut blocks = v2_blocks(GOLDEN_V2);
    let data = |tag: &[u8; 4]| &blocks.iter().find(|(t, _)| t == tag).unwrap().1;
    let (base, ids) = data(b"DIDS").split_at(8);
    let mut departures = V2Departures {
        ticks: le_values(data(b"DTCK"), u64::from_le_bytes),
        lens: le_values(data(b"DLEN"), u32::from_le_bytes),
        base: u64::from_le_bytes(base.try_into().unwrap()),
        ids: le_values(ids, u32::from_le_bytes),
        servers: le_values(data(b"DSRV"), u32::from_le_bytes),
    };
    edit(&mut departures);
    for (tag, data) in &mut blocks {
        *data = match &*tag {
            b"DTCK" => le_bytes(&departures.ticks, u64::to_le_bytes),
            b"DLEN" => le_bytes(&departures.lens, u32::to_le_bytes),
            b"DIDS" => [
                le_bytes(&[departures.base], u64::to_le_bytes),
                le_bytes(&departures.ids, u32::to_le_bytes),
            ]
            .concat(),
            b"DSRV" => le_bytes(&departures.servers, u32::to_le_bytes),
            _ => continue,
        };
    }
    v2_container(&blocks)
}

/// The first entry of the first bucket holding at least two.
fn first_pair(departures: &V2Departures) -> usize {
    let bucket = departures
        .lens
        .iter()
        .position(|&len| len >= 2)
        .expect("a bucket with two departures");
    departures.lens[..bucket]
        .iter()
        .map(|&len| len as usize)
        .sum()
}

/// A mid-run snapshot of an 8-server run, with jobs due at several
/// ticks.
fn eight_server_snapshot(policy: PolicyKind) -> Snapshot {
    let mut sim = build_sized(7, policy, 1, 8, 6.0);
    sim.run_until(120);
    let snapshot = sim.snapshot().expect("snapshot");
    assert!(
        restore_simulation(&snapshot).is_ok(),
        "the unedited snapshot restores"
    );
    let mut due: Vec<u32> = snapshot.farm.job_due.clone();
    due.retain(|&tick| tick != Job::NEVER_DUE);
    due.sort_unstable();
    due.dedup();
    assert!(due.len() > 1, "jobs due at several ticks");
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

/// Asserts that decoding `bytes` fails with a `Corrupt` error that
/// mentions `needle`.
fn assert_decode_rejects(bytes: &[u8], needle: &str, context: &str) {
    match Snapshot::decode(bytes) {
        Err(SnapshotError::Corrupt(reason)) => {
            assert!(reason.contains(needle), "{context}: {reason}");
        }
        Err(other) => panic!("{context}: expected Corrupt, got {other}"),
        Ok(_) => panic!("{context}: decode accepted an inconsistent container"),
    }
}

/// A digest-valid legacy container whose departures name a job its
/// server does not run, or let a job depart twice, fails with a typed
/// error; accepting it would retire the wrong job or none. The legacy
/// readers join the departures into the due column, so the error comes
/// from decoding. Checked on `golden_v2.snap` with edited departure
/// blocks and on `golden_v1.snap` with edited departure buckets.
#[test]
fn restore_rejects_departures_the_farm_cannot_drain() {
    assert!(
        golden_v2_with_departures(|_| {}) == GOLDEN_V2,
        "the unedited v2 blocks re-frame to the fixture"
    );
    let moved = golden_v2_with_departures(|d| d.servers[0] = (d.servers[0] + 1) % 4);
    assert_decode_rejects(&moved, "does not run", "v2, moved entry");
    let doubled = golden_v2_with_departures(|d| {
        d.ids.push(d.ids[0]);
        d.servers.push(d.servers[0]);
        *d.lens.last_mut().unwrap() += 1;
    });
    assert_decode_rejects(&doubled, "twice", "v2, duplicated entry");

    let moved = golden_v1_with_departures(|buckets| {
        let serde::Value::Array(entry) = &mut v1_entries(&mut buckets[0])[0] else {
            panic!("entries are [job id, server] pairs")
        };
        let serde::Value::U64(server) = entry[1] else {
            panic!("server: {:?}", entry[1])
        };
        entry[1] = serde::Value::U64((server + 1) % 4);
    });
    assert_decode_rejects(&moved, "does not run", "v1, moved entry");

    let doubled = golden_v1_with_departures(|buckets| {
        let entry = v1_entries(&mut buckets[0])[0].clone();
        v1_entries(buckets.last_mut().unwrap()).push(entry);
    });
    assert_decode_rejects(&doubled, "twice", "v1, duplicated entry");
}

/// Each live job carries its due tick, and restore holds it to the run:
/// a job due before the snapshot tick should have departed already, and
/// a job due at or past the horizon is written due never. A `JDUE`
/// column one entry short or long fails decoding. Legacy buckets join
/// into the same column, so a bucket at the horizon fails restore, and
/// one past every tick a `u32` can name fails decoding.
#[test]
fn restore_rejects_due_ticks_the_run_cannot_reach() {
    let snapshot = eight_server_snapshot(PolicyKind::vmt_wa(22.0));
    let job = snapshot
        .farm
        .job_due
        .iter()
        .position(|&due| due != Job::NEVER_DUE)
        .expect("a job due inside the run");
    for (due, needle) in [
        (119, "due at tick 119 precedes the snapshot tick 120"),
        (360, "beyond the 360-tick horizon"),
        (Job::NEVER_DUE - 1, "beyond the 360-tick horizon"),
    ] {
        let mut edited = snapshot.clone();
        edited.farm.job_due[job] = due;
        let edited = Snapshot::decode(&edited.encode()).expect("framing is intact");
        assert_restore_rejects(&edited, needle, &format!("v3, due at tick {due}"));
    }
    let mut never = snapshot.clone();
    never.farm.job_due[job] = Job::NEVER_DUE;
    assert!(restore_simulation(&never).is_ok(), "a job may be due never");

    for (label, grow) in [("short", false), ("long", true)] {
        let mut edited = snapshot.clone();
        if grow {
            edited.farm.job_due.push(Job::NEVER_DUE);
        } else {
            edited.farm.job_due.pop();
        }
        assert_restore_rejects(&edited, "due ticks", &format!("v3, JDUE one {label}"));
        assert_decode_rejects(
            &edited.encode(),
            "due ticks",
            &format!("v3, JDUE one {label}"),
        );
    }

    let at_horizon = golden_v2_with_departures(|d| *d.ticks.last_mut().unwrap() = 120);
    let at_horizon = Snapshot::decode(&at_horizon).expect("v2 framing is intact");
    assert_restore_rejects(
        &at_horizon,
        "beyond the 120-tick horizon",
        "v2, bucket at the horizon",
    );
    let past_u32 =
        golden_v2_with_departures(|d| *d.ticks.last_mut().unwrap() = u64::from(u32::MAX));
    assert_decode_rejects(&past_u32, "past every tick", "v2, bucket past a u32 tick");
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
/// kind (each departure decrements its kind's count). A legacy
/// container's departure buckets must ascend from the snapshot tick and
/// each bucket's job ids must ascend strictly (the order the sweep
/// retires them in), checked on `golden_v2.snap` and `golden_v1.snap`
/// as they decode. The VMT policies' saved state must fit the farm and
/// pass the checks their constructors make: a hot group past the farm's
/// end would index out of it at the first refresh, and a config no
/// constructor would build is rejected field by field.
#[test]
fn restore_rejects_inconsistent_occupancy_and_bucket_order() {
    use serde::Value::{F64, U64};
    let snapshot = eight_server_snapshot(PolicyKind::vmt_wa(22.0));

    let mut shifted = snapshot.clone();
    let busy = (0..5).find(|&k| shifted.occupancy[k] > 0).unwrap();
    shifted.occupancy[busy] -= 1;
    shifted.occupancy[(busy + 1) % 5] += 1;
    assert_restore_rejects(&shifted, "occupancy", "occupancy moved between kinds");

    let swapped = golden_v2_with_departures(|d| d.ticks.swap(0, 1));
    assert_decode_rejects(&swapped, "out of order", "v2, buckets out of order");
    let stale = golden_v2_with_departures(|d| d.ticks[0] = 29);
    assert_decode_rejects(
        &stale,
        "precedes tick 30",
        "v2, bucket before the snapshot tick",
    );

    // Two entries of one bucket traded places (with their servers): the
    // farm runs both jobs, but the bucket no longer ascends. A repeated
    // entry inside its bucket is caught first as a double departure.
    let traded = golden_v2_with_departures(|d| {
        let first = first_pair(d);
        d.ids.swap(first, first + 1);
        d.servers.swap(first, first + 1);
    });
    assert_decode_rejects(&traded, "must ascend", "v2, entries out of id order");
    let repeated = golden_v2_with_departures(|d| {
        let first = first_pair(d);
        d.ids[first + 1] = d.ids[first];
        d.servers[first + 1] = d.servers[first];
    });
    assert_decode_rejects(&repeated, "twice", "v2, entry repeated in its bucket");
    let traded = golden_v1_with_departures(|buckets| {
        let bucket = (0..buckets.len())
            .find(|&b| v1_entries(&mut buckets[b]).len() >= 2)
            .expect("a v1 bucket with two departures");
        v1_entries(&mut buckets[bucket]).swap(0, 1);
    });
    assert_decode_rejects(&traded, "must ascend", "v1, entries out of id order");

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

/// A digest-valid container whose trace horizon would make the restored
/// run preallocate more than the memory ceiling (here 1e7 hours on 10
/// servers: 0.6 billion ticks of result series and heatmap rows) is a
/// typed error before anything sized by the horizon is allocated.
#[test]
fn restore_rejects_a_run_too_large_to_preallocate() {
    let mut sim = build_sized(7, PolicyKind::vmt_wa(22.0), 1, 10, 1.0);
    sim.run_until(30);
    let mut long = sim.snapshot().expect("snapshot");
    long.trace = vmt::workload::TraceDescriptor::Diurnal(DiurnalTrace::new(TraceConfig {
        horizon: Hours::new(1e7),
        seed: 7,
        ..TraceConfig::paper_default()
    }));
    let long = Snapshot::decode(&long.encode()).expect("a digest-valid container");
    match restore_simulation(&long) {
        Err(SnapshotError::TooLarge(err)) => {
            assert_eq!(err.what, "result series");
            assert!(err.bytes > err.limit, "{err}");
        }
        Err(other) => panic!("expected a memory-plan error, got {other}"),
        Ok(_) => panic!("restore accepted a 1e7-hour horizon"),
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

    /// Byte range of each v3 block frame (`tag | length | data |
    /// digest`), after the header line and the block count.
    fn frames(bytes: &[u8]) -> Vec<Range<usize>> {
        let mut at = b"VMTSNAP v3\n".len() + 4;
        let mut frames = Vec::new();
        while at < bytes.len() {
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            frames.push(at..at + 20 + len);
            at += 20 + len;
        }
        assert_eq!(frames.len(), 13, "v3 holds thirteen blocks");
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

            // A single changed byte anywhere is rejected: every v3 byte
            // is magic, version, framing or digested data, so there is
            // no header text with slack to absorb it, and each step of
            // the block digest is injective in the word it folds.
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
    /// digests, fail the shape checks that close decoding — on v3 and,
    /// for the departure columns, on v2.
    #[test]
    fn inconsistent_columns_are_rejected() {
        let snapshot = sample_snapshot(5, 20);
        assert!(!snapshot.farm.job_due.is_empty());
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
        rejects(&|s| s.farm.job_kinds[0] = 5, "workload kind");
        rejects(&|s| s.farm.inlet_c.push(22.0), "farm arrays");
        rejects(&|s| s.farm.job_due.truncate(1), "due ticks");
        let v2_rejects = |edit: fn(&mut V2Departures), needle: &str| {
            assert_decode_rejects(&golden_v2_with_departures(edit), needle, needle);
        };
        v2_rejects(|d| d.lens[0] += 1, "bucket lengths sum");
        v2_rejects(|d| d.lens.push(0), "bucket lengths for");
        v2_rejects(|d| d.servers[0] = 4, "server 4 in a 4-server farm");
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
