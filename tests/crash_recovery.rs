//! Failpoint-driven crash/recovery assurance for the campaign plane.
//!
//! Every failpoint in [`bera::goofi::failpoints::CATALOG`] is driven
//! through at least one **crash** scenario here: the `campaign` binary
//! (built with the `failpoints` feature — this whole suite is gated on
//! it) is spawned with `--failpoint id=crash[@N]`, aborts at the armed
//! boundary, and is then re-run with `--resume` and no failpoints. After
//! recovery the invariants of `ASSURANCE.md` are asserted against an
//! uncrashed baseline run of the identical configuration:
//!
//! * **I1 — no record loss**: the recovered store is complete;
//! * **I2 — no duplicate records**: every fault index appears exactly
//!   once in the recovered store file;
//! * **I3 — no duplicate claims**: each fault classifies exactly once
//!   (I2 measured on the file, plus record-for-record identity below);
//! * **I4 — header consistency**: the recovered header is byte-identical
//!   to the baseline header;
//! * **I5 — bit-identical results**: every record and the rendered
//!   Tables 2–4 match the uncrashed baseline byte-for-byte;
//! * **I6 — sidecar atomicity**: the `<store>.telemetry.json` sidecar is
//!   never present-but-truncated, whatever instant the crash hit.
//!
//! The multi-process farm (DESIGN.md § 8i) extends the same discipline
//! across process boundaries: its scenarios crash a *worker* or the
//! *merge* at each farm failpoint, recover with a clean worker plus
//! `--farm-merge`, and assert two further invariants on top of I1–I6:
//!
//! * **I7 — single ownership**: no fault index is ever recorded by two
//!   shards' segments (the lease claim/reclaim/fencing protocol held);
//! * **I8 — merge fidelity**: the merged store is byte-identical —
//!   header, records, and rendered tables — to a single-process run of
//!   the identical configuration.
//!
//! Scenario scratch space lives under `CARGO_TARGET_TMPDIR` (CI uploads
//! it when this suite fails), and `tests/assurance_map.rs` checks — with
//! or without the feature — that this file covers every catalog ID and
//! that `ASSURANCE.md` maps each one to a real test below.
//!
//! Run with: `cargo test --release --features failpoints --test crash_recovery`
#![cfg(feature = "failpoints")]

use bera::goofi::campaign::CampaignResult;
use bera::goofi::failpoints;
use bera::goofi::store::{
    decode_record, load_store, telemetry_sidecar_path, LoadedCampaign, StoreError,
};
use bera::goofi::table::{tabulate, ComparisonTable};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// The campaign configuration every scenario runs: small enough that a
/// debug-build subprocess finishes in well under a second, big enough
/// that mid-campaign crash points (`@N`) land strictly inside the run.
const FAULTS: usize = 12;
const BASE_ARGS: &[&str] = &[
    "--workload",
    "alg1",
    "--faults",
    "12",
    "--seed",
    "7",
    "--iterations",
    "60",
];

/// Flag sets a scenario can run under. `Scalar` disables the planner so
/// that every fault flows through the scalar claim loop and the
/// supervised `attempt` path — the scenarios that arm those failpoints
/// need deterministic hit counts there.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flags {
    Default,
    Scalar,
}

impl Flags {
    fn args(self) -> &'static [&'static str] {
        match self {
            Flags::Default => &[],
            Flags::Scalar => &["--no-prune"],
        }
    }
}

fn scratch_root() -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash-recovery");
    std::fs::create_dir_all(&root).expect("create scratch root");
    root
}

fn scratch_store(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU32 = AtomicU32::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    scratch_root().join(format!("{}-{tag}-{n}.jsonl", std::process::id()))
}

/// Spawns the failpoints-enabled `campaign` binary on `store` with the
/// scenario flags plus `extra` (failpoint specs, `--resume`, ...).
fn run_campaign(
    store: &Path,
    threads: usize,
    flags: Flags,
    extra: &[&str],
) -> std::process::Output {
    let threads = threads.to_string();
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(BASE_ARGS)
        .args(["--threads", &threads])
        .args(flags.args())
        .args(["--out", store.to_str().expect("utf-8 scratch path")])
        .args(extra)
        .output()
        .expect("spawn campaign binary")
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The uncrashed reference store for a flag set, run exactly once and
/// shared by every scenario under those flags.
fn baseline(flags: Flags) -> &'static Path {
    static DEFAULT: OnceLock<PathBuf> = OnceLock::new();
    static SCALAR: OnceLock<PathBuf> = OnceLock::new();
    let cell = match flags {
        Flags::Default => &DEFAULT,
        Flags::Scalar => &SCALAR,
    };
    cell.get_or_init(|| {
        let store = scratch_store("baseline");
        let out = run_campaign(&store, 1, flags, &[]);
        assert!(
            out.status.success(),
            "baseline campaign failed:\n{}",
            stderr_of(&out)
        );
        store
    })
}

/// Loads a store and asserts the file-level invariant I2: every fault
/// index appears on exactly one (valid) line.
fn load_checked(path: &Path) -> LoadedCampaign {
    let text = std::fs::read_to_string(path).expect("read store");
    let mut seen = [0usize; FAULTS];
    for line in text.lines().skip(1) {
        let (index, _) = decode_record(line).expect("every line of a recovered store decodes");
        seen[index] += 1;
    }
    for (index, count) in seen.iter().enumerate() {
        assert!(
            *count <= 1,
            "fault index {index} appears {count} times in {} (duplicate record)",
            path.display()
        );
    }
    load_store(path).expect("recovered store loads")
}

fn complete_result(loaded: LoadedCampaign) -> CampaignResult {
    assert!(loaded.is_complete(), "recovered store must have no gaps");
    loaded.into_result().expect("complete store reassembles")
}

/// Asserts invariants I1–I5: the recovered store matches the uncrashed
/// baseline record-for-record, header-for-header, and table-for-table.
fn assert_recovered_identical(recovered: &Path, flags: Flags) {
    let base = load_checked(baseline(flags));
    let rec = load_checked(recovered);
    assert_eq!(
        serde_json::to_string(&base.header).unwrap(),
        serde_json::to_string(&rec.header).unwrap(),
        "recovered header must be identical to the baseline header"
    );
    let base = complete_result(base);
    let rec = complete_result(rec);
    let base_records: Vec<String> = base
        .records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    let rec_records: Vec<String> = rec
        .records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert_eq!(
        base_records, rec_records,
        "recovered records must be bit-identical to the uncrashed baseline"
    );
    // Tables 2/3 (per-store) and the Table-4 comparison shape render
    // byte-identically from the recovered data.
    assert_eq!(tabulate(&base).render(), tabulate(&rec).render());
    assert_eq!(
        ComparisonTable::new(&base, &base).render(),
        ComparisonTable::new(&rec, &rec).render()
    );
}

/// Invariant I6: whatever instant the crash hit, the *published* sidecar
/// path holds either nothing or complete, parseable JSON — never a torn
/// file.
fn assert_sidecar_atomic(store: &Path) {
    let side = telemetry_sidecar_path(store);
    if side.exists() {
        let json = std::fs::read_to_string(&side).expect("read sidecar");
        serde_json::from_str::<bera::goofi::observer::TelemetrySnapshot>(&json)
            .expect("a published sidecar must be complete JSON");
    }
}

/// The core scenario: crash the campaign at an armed failpoint, then
/// recover with `--resume` and demand bit-identical convergence.
///
/// `crash_specs` are passed as repeated `--failpoint` flags; the crashed
/// run must die (abort), the recovery run must succeed. `resume_crashed`
/// additionally passes `--resume` to the *crashed* run, for scenarios
/// that inject into the resume path itself.
fn crash_then_recover(
    tag: &str,
    threads: usize,
    flags: Flags,
    crash_specs: &[&str],
    resume_crashed: bool,
) -> PathBuf {
    let store = scratch_store(tag);
    let mut crash_args: Vec<&str> = Vec::new();
    for spec in crash_specs {
        crash_args.push("--failpoint");
        crash_args.push(spec);
    }
    if resume_crashed {
        crash_args.push("--resume");
    }
    let crashed = run_campaign(&store, threads, flags, &crash_args);
    assert!(
        !crashed.status.success(),
        "{tag}: the armed failpoint must crash the campaign, but it exited \
         cleanly:\n{}",
        stderr_of(&crashed)
    );
    assert_sidecar_atomic(&store);

    let recovered = run_campaign(&store, threads, flags, &["--resume"]);
    assert!(
        recovered.status.success(),
        "{tag}: recovery run failed:\n{}",
        stderr_of(&recovered)
    );
    assert_recovered_identical(&store, flags);
    assert_sidecar_atomic(&store);
    store
}

/// Copies the baseline store to `dst` and tears `torn_bytes` off the end,
/// landing mid final line — the canonical crash-mid-append disk state.
fn torn_copy_of_baseline(dst: &Path, torn_bytes: usize, flags: Flags) {
    let text = std::fs::read_to_string(baseline(flags)).expect("read baseline");
    assert!(text.ends_with('\n') && torn_bytes > 1);
    std::fs::write(dst, &text[..text.len() - torn_bytes]).expect("write torn copy");
    let loaded = load_store(dst).expect("torn copy loads");
    assert!(loaded.torn_tail, "setup must produce a torn tail");
}

// ---------------------------------------------------------------------------
// Crash scenarios: one (or more) per catalog failpoint.
// ---------------------------------------------------------------------------

#[test]
fn crash_before_header_leaves_recoverable_remnant() {
    // store.create.before-header=crash: the file exists but is empty; the
    // resume run must recognize the headerless remnant and start afresh
    // instead of refusing (or worse, misreading) it.
    crash_then_recover(
        "create-before-header",
        1,
        Flags::Default,
        &["store.create.before-header=crash"],
        false,
    );
}

#[test]
fn crash_after_header_recovers_the_whole_campaign() {
    // store.create.after-header=crash: the store is a bare header; every
    // fault is a gap the resume must fill.
    crash_then_recover(
        "create-after-header",
        1,
        Flags::Default,
        &["store.create.after-header=crash"],
        false,
    );
}

#[test]
fn crash_before_record_write_recovers() {
    // store.append.before-write=crash@5: four records durable, the fifth
    // never reached the writer.
    crash_then_recover(
        "append-before-write",
        1,
        Flags::Default,
        &["store.append.before-write=crash@5"],
        false,
    );
}

#[test]
fn crash_between_write_and_flush_recovers() {
    // store.append.after-write=crash@5: the fifth line died in the
    // userspace buffer; the file ends at a clean line boundary and the
    // fault re-runs on resume.
    crash_then_recover(
        "append-after-write",
        1,
        Flags::Default,
        &["store.append.after-write=crash@5"],
        false,
    );
}

#[test]
fn crash_after_flush_keeps_the_flushed_record() {
    // store.append.after-flush=crash@5: the fifth record is durable; the
    // resume must adopt it (not duplicate it) and run only the rest.
    crash_then_recover(
        "append-after-flush",
        1,
        Flags::Default,
        &["store.append.after-flush=crash@5"],
        false,
    );
}

#[test]
fn crash_before_resume_truncate_recovers_on_the_next_resume() {
    // Double crash: run one died mid-append (torn tail, staged from the
    // baseline), run two died during resume *before* truncating the torn
    // line (store.resume.before-truncate=crash), run three converges.
    let store = scratch_store("resume-before-truncate");
    torn_copy_of_baseline(&store, 10, Flags::Default);
    let crashed = run_campaign(
        &store,
        1,
        Flags::Default,
        &[
            "--failpoint",
            "store.resume.before-truncate=crash",
            "--resume",
        ],
    );
    assert!(
        !crashed.status.success(),
        "resume must crash at the armed truncation failpoint:\n{}",
        stderr_of(&crashed)
    );
    // The torn tail is still there — the crash hit before the truncation.
    assert!(load_store(&store).expect("store still loads").torn_tail);
    let recovered = run_campaign(&store, 1, Flags::Default, &["--resume"]);
    assert!(
        recovered.status.success(),
        "third run must converge:\n{}",
        stderr_of(&recovered)
    );
    assert_recovered_identical(&store, Flags::Default);
}

#[test]
fn crash_after_resume_truncate_recovers_on_the_next_resume() {
    // store.resume.after-truncate=crash: the torn line is gone but no new
    // record was appended; the next resume starts from a clean boundary.
    let store = scratch_store("resume-after-truncate");
    torn_copy_of_baseline(&store, 10, Flags::Default);
    let crashed = run_campaign(
        &store,
        1,
        Flags::Default,
        &[
            "--failpoint",
            "store.resume.after-truncate=crash",
            "--resume",
        ],
    );
    assert!(!crashed.status.success(), "{}", stderr_of(&crashed));
    let loaded = load_store(&store).expect("truncated store loads");
    assert!(
        !loaded.torn_tail,
        "the crash hit after truncation, so the tail must be clean"
    );
    let recovered = run_campaign(&store, 1, Flags::Default, &["--resume"]);
    assert!(recovered.status.success(), "{}", stderr_of(&recovered));
    assert_recovered_identical(&store, Flags::Default);
}

#[test]
fn crash_before_sidecar_write_preserves_the_store() {
    // sidecar.before-write=crash: all records are durable; only the
    // telemetry sidecar is missing. Recovery re-runs nothing and writes
    // the sidecar.
    let store = crash_then_recover(
        "sidecar-before-write",
        1,
        Flags::Default,
        &["sidecar.before-write=crash"],
        false,
    );
    let side = telemetry_sidecar_path(&store);
    assert!(side.exists(), "recovery must publish the sidecar");
}

#[test]
fn crash_before_sidecar_rename_never_publishes_a_torn_sidecar() {
    // sidecar.before-rename=crash: the temp file exists, the published
    // path must not (rename never happened) — and must never be partial.
    let store = crash_then_recover(
        "sidecar-before-rename",
        1,
        Flags::Default,
        &["sidecar.before-rename=crash"],
        false,
    );
    let side = telemetry_sidecar_path(&store);
    assert!(
        side.exists(),
        "recovery must publish the sidecar after the crash"
    );
}

#[test]
fn crash_mid_experiment_attempt_recovers() {
    // experiment.attempt=crash@5: the process dies inside the supervised
    // containment boundary — supervision contains panics, not aborts, so
    // this is a genuine crash mid-experiment.
    crash_then_recover(
        "attempt-crash",
        1,
        Flags::Scalar,
        &["experiment.attempt=crash@5"],
        false,
    );
}

#[test]
fn crash_between_failed_attempt_and_retry_recovers() {
    // experiment.attempt=panic@5 makes the fifth attempt (and all later
    // ones) panic; supervisor.before-retry=crash kills the process after
    // the failure but before the stride-0 retry. No record was written
    // for that fault, and the recovery run (no failpoints) classifies it
    // healthily — bit-identical to the never-sabotaged baseline.
    crash_then_recover(
        "supervisor-before-retry",
        1,
        Flags::Scalar,
        &[
            "experiment.attempt=panic@5",
            "supervisor.before-retry=crash",
        ],
        false,
    );
}

#[test]
fn crash_before_quarantine_record_recovers() {
    // Both attempts fail (panic@5 arms every later hit too), then
    // supervisor.before-quarantine=crash dies with the quarantine
    // decision made but not yet durable. The fault stays a gap, and the
    // healthy recovery run converges to the baseline.
    crash_then_recover(
        "supervisor-before-quarantine",
        1,
        Flags::Scalar,
        &[
            "experiment.attempt=panic@5",
            "supervisor.before-quarantine=crash",
        ],
        false,
    );
}

#[test]
fn crash_mid_claim_in_the_parallel_scheduler_recovers() {
    // campaign.claim=crash@6: a worker dies with a claim in flight in a
    // two-worker campaign; the store keeps whatever classified first.
    crash_then_recover(
        "claim-crash",
        2,
        Flags::Scalar,
        &["campaign.claim=crash@6"],
        false,
    );
}

#[test]
fn crash_before_self_heal_recovers() {
    // campaign.claim=panic@6 kills the workers (lost claims), then
    // campaign.self-heal=crash dies before the serial re-run of those
    // claims: exactly the state the self-healing pass exists to fix, now
    // fixed across a process boundary by the resume instead.
    crash_then_recover(
        "self-heal-crash",
        2,
        Flags::Scalar,
        &["campaign.claim=panic@6", "campaign.self-heal=crash"],
        false,
    );
}

// ---------------------------------------------------------------------------
// Farm crash scenarios: a worker (or the merge) dies at each farm
// failpoint; a clean worker + merge must converge to the single-process
// baseline (invariants I7 and I8 on top of I1–I6).
// ---------------------------------------------------------------------------

use bera::goofi::farm::{assemble_farm, done_path, lease_path, merged_path};

/// Fast lease timing so expiry-driven recovery lands in test time:
/// heartbeat 25 ms, expiry 100 ms (the enforced 2× floor comfortably met).
const FARM_ARGS: &[&str] = &[
    "--shards",
    "3",
    "--lease-heartbeat-ms",
    "25",
    "--lease-expiry-ms",
    "100",
];

fn farm_scratch(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU32 = AtomicU32::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    scratch_root().join(format!("{}-farm-{tag}-{n}", std::process::id()))
}

/// Initializes a farm of the scenario campaign (same config as
/// `BASE_ARGS`, so the single-process `baseline` is its identity
/// reference).
fn farm_init(root: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(BASE_ARGS)
        .args(FARM_ARGS)
        .args(["--farm-init", root.to_str().expect("utf-8 scratch path")])
        .output()
        .expect("spawn campaign binary");
    assert!(
        out.status.success(),
        "farm init failed:\n{}",
        stderr_of(&out)
    );
}

/// Spawns a worker on the farm, optionally with armed failpoints.
fn farm_worker(root: &Path, id: &str, failpoint_specs: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(["--worker", root.to_str().expect("utf-8 scratch path")])
        .args(["--worker-id", id, "--threads", "1"]);
    for spec in failpoint_specs {
        cmd.args(["--failpoint", spec]);
    }
    cmd.output().expect("spawn campaign binary")
}

/// Spawns the merge step, optionally with armed failpoints.
fn farm_merge(root: &Path, failpoint_specs: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(["--farm-merge", root.to_str().expect("utf-8 scratch path")]);
    for spec in failpoint_specs {
        cmd.args(["--failpoint", spec]);
    }
    cmd.output().expect("spawn campaign binary")
}

/// Recovery + invariants for every farm scenario: a clean worker drains
/// the remaining shards (reclaiming expired leases as needed), the merge
/// folds the segments, and the result must satisfy I7 (assembly clean of
/// duplicates, no leases left behind, every shard done) and I8 (the
/// merged store bit-identical to the single-process baseline, checked via
/// the shared I1–I5 assertions).
fn assert_farm_converges(root: &Path) {
    let recovered = farm_worker(root, "recovery", &[]);
    assert!(
        recovered.status.success(),
        "recovery worker failed:\n{}",
        stderr_of(&recovered)
    );
    let merged_run = farm_merge(root, &[]);
    assert!(
        merged_run.status.success(),
        "merge failed:\n{}",
        stderr_of(&merged_run)
    );
    // I7: the assembly cross-checks every segment against the manifest —
    // a double-claimed shard would surface as a duplicate or foreign
    // index — and a finished farm holds no leases.
    let assembly = assemble_farm(root).expect("recovered farm assembles cleanly");
    assert!(assembly.is_complete(), "recovered farm must have no gaps");
    for status in &assembly.shards {
        assert!(
            status.done,
            "shard {} missing its done marker",
            status.spec.index
        );
        assert!(
            !lease_path(root, status.spec.index).exists(),
            "shard {} still holds a lease after convergence",
            status.spec.index
        );
        assert!(done_path(root, status.spec.index).exists());
    }
    // I8 (via I1–I5): the merged store against the uncrashed baseline.
    let merged = merged_path(root);
    assert_recovered_identical(&merged, Flags::Default);
    assert_sidecar_atomic(&merged);
}

#[test]
fn farm_crash_after_lease_claim_recovers_by_expiry() {
    // farm.lease.claim=crash: the worker dies the instant its first lease
    // file exists — maximum ambiguity (a lease with no progress behind
    // it). The recovery worker must wait out the expiry, reclaim, and run
    // the whole farm.
    let root = farm_scratch("lease-claim");
    farm_init(&root);
    let crashed = farm_worker(&root, "victim", &["farm.lease.claim=crash"]);
    assert!(
        !crashed.status.success(),
        "claim crash must kill the worker:\n{}",
        stderr_of(&crashed)
    );
    assert!(
        lease_path(&root, 0).exists(),
        "the crashed worker's lease must survive it"
    );
    assert_farm_converges(&root);
}

#[test]
fn farm_crash_at_heartbeat_recovers() {
    // farm.lease.heartbeat=crash: the worker dies on its heartbeat
    // thread's first refresh, mid-shard. Appends are slowed
    // (store.append.after-flush=delay:20) so the 25 ms heartbeat fires
    // while records are still streaming — the canonical
    // died-holding-a-half-segment state. The reclaiming worker resumes
    // the torn segment, re-runs only the gap, and converges.
    let root = farm_scratch("heartbeat");
    farm_init(&root);
    let crashed = farm_worker(
        &root,
        "victim",
        &[
            "farm.lease.heartbeat=crash",
            "store.append.after-flush=delay:20",
        ],
    );
    assert!(
        !crashed.status.success(),
        "heartbeat crash must kill the worker:\n{}",
        stderr_of(&crashed)
    );
    assert_farm_converges(&root);
}

#[test]
fn farm_crash_mid_reclaim_recovers() {
    // Stage an expired lease (claim-crash victim + sleep past expiry),
    // then crash a second worker at farm.lease.reclaim=crash — after the
    // rename-aside, before the stale file is deleted. The live lease path
    // is already free (the takeover is the rename), so the recovery
    // worker sweeps the stale remnant and claims normally.
    let root = farm_scratch("reclaim");
    farm_init(&root);
    let victim = farm_worker(&root, "victim", &["farm.lease.claim=crash"]);
    assert!(!victim.status.success(), "{}", stderr_of(&victim));
    std::thread::sleep(std::time::Duration::from_millis(150));
    let reclaimer = farm_worker(&root, "reclaimer", &["farm.lease.reclaim=crash"]);
    assert!(
        !reclaimer.status.success(),
        "reclaim crash must kill the worker:\n{}",
        stderr_of(&reclaimer)
    );
    assert!(
        !lease_path(&root, 0).exists(),
        "the rename-aside already freed the live lease path"
    );
    assert_farm_converges(&root);
}

#[test]
fn farm_crash_before_done_marker_recovers() {
    // farm.segment.finalize=crash: the segment is complete and flushed,
    // the telemetry sidecar written, but the done marker never became
    // durable. The reclaiming worker finds a full segment, re-runs
    // nothing, and commits the marker.
    let root = farm_scratch("finalize");
    farm_init(&root);
    let crashed = farm_worker(&root, "victim", &["farm.segment.finalize=crash"]);
    assert!(
        !crashed.status.success(),
        "finalize crash must kill the worker:\n{}",
        stderr_of(&crashed)
    );
    assert!(
        !done_path(&root, 0).exists(),
        "the crash hit before the done marker"
    );
    assert_farm_converges(&root);
}

#[test]
fn farm_crash_mid_merge_segment_scan_recovers() {
    // farm.merge.segment=crash@2: the merge dies between validating
    // segments. Nothing was published (the canonical store appears only
    // via the final rename), so re-running the merge is a pure retry.
    let root = farm_scratch("merge-segment");
    farm_init(&root);
    let worker = farm_worker(&root, "w0", &[]);
    assert!(worker.status.success(), "{}", stderr_of(&worker));
    let crashed = farm_merge(&root, &["farm.merge.segment=crash@2"]);
    assert!(
        !crashed.status.success(),
        "merge crash must kill the process:\n{}",
        stderr_of(&crashed)
    );
    assert!(
        !merged_path(&root).exists(),
        "a crashed merge must not have published a canonical store"
    );
    assert_farm_converges(&root);
}

#[test]
fn farm_crash_before_merge_publish_recovers() {
    // farm.merge.publish=crash: the merged store is fully written to the
    // temp path but the rename never happened. The published path stays
    // absent (never torn), and the re-run merge overwrites the temp file
    // from scratch.
    let root = farm_scratch("merge-publish");
    farm_init(&root);
    let worker = farm_worker(&root, "w0", &[]);
    assert!(worker.status.success(), "{}", stderr_of(&worker));
    let crashed = farm_merge(&root, &["farm.merge.publish=crash"]);
    assert!(
        !crashed.status.success(),
        "publish crash must kill the process:\n{}",
        stderr_of(&crashed)
    );
    assert!(
        !merged_path(&root).exists(),
        "the canonical store must not exist until the rename"
    );
    assert!(
        root.join("merged.jsonl.tmp").exists(),
        "the crash hit after the temp store was written"
    );
    assert_farm_converges(&root);
}

// ---------------------------------------------------------------------------
// Error and delay scenarios (in-process): return-error must surface as a
// campaign failure, never as silent data loss; delay must be harmless.
// ---------------------------------------------------------------------------

/// In-process failpoint tests share the process-global registry; this
/// gate serializes them (the subprocess scenarios above configure the
/// registry of the *child* process and need no gate).
fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn in_process_campaign(
    store: &Path,
) -> (
    bera::goofi::workload::Workload,
    bera::goofi::campaign::CampaignConfig,
    bera::goofi::store::StoreHeader,
) {
    use bera::goofi::campaign::{prepare_campaign, CampaignConfig};
    use bera::goofi::store::StoreHeader;
    use bera::goofi::workload::Workload;
    let workload = Workload::algorithm_one();
    let cfg = CampaignConfig::quick(6, 3);
    let prepared = prepare_campaign(&workload, &cfg);
    let header = StoreHeader::new(workload.name(), &cfg, prepared.golden());
    let _ = store;
    (workload, cfg, header)
}

#[test]
fn injected_create_error_fails_store_creation_loudly() {
    let _g = registry_guard();
    failpoints::clear_all();
    let store = scratch_store("error-create");
    let (_w, _cfg, header) = in_process_campaign(&store);
    failpoints::configure("store.create.before-header=return-error").unwrap();
    let result = bera::goofi::store::JsonlStore::create(&store, &header);
    failpoints::clear_all();
    match result {
        Err(StoreError::Io(e)) => {
            assert!(e.to_string().contains("store.create.before-header"), "{e}");
        }
        Err(other) => panic!("injected error must surface as Io, got {other:?}"),
        Ok(_) => panic!("injected error must surface, got Ok"),
    }
}

#[test]
fn injected_append_error_surfaces_at_finish() {
    use bera::goofi::campaign::prepare_campaign;
    let _g = registry_guard();
    failpoints::clear_all();
    let store_path = scratch_store("error-append");
    let (workload, cfg, header) = in_process_campaign(&store_path);
    let store = bera::goofi::store::JsonlStore::create(&store_path, &header).unwrap();
    failpoints::configure("store.append.before-write=return-error@3").unwrap();
    let prepared = prepare_campaign(&workload, &cfg);
    let _result = prepared.run(&store);
    failpoints::clear_all();
    let finished = store.finish();
    assert!(
        finished.is_err(),
        "a dropped record must fail the campaign at finish, not vanish"
    );
}

#[test]
fn injected_resume_truncate_error_fails_open_resume() {
    let _g = registry_guard();
    failpoints::clear_all();
    let store = scratch_store("error-truncate");
    torn_copy_of_baseline(&store, 10, Flags::Default);
    // open_resume against the *stored* header: load it straight back so
    // validation passes and the torn-tail truncation path is reached.
    let header = load_store(&store).expect("torn store loads").header;
    failpoints::configure("store.resume.before-truncate=return-error").unwrap();
    let result = bera::goofi::store::JsonlStore::open_resume(&store, &header);
    failpoints::clear_all();
    assert!(
        matches!(result, Err(StoreError::Io(_))),
        "injected truncation error must surface"
    );
}

#[test]
fn delay_action_slows_but_does_not_corrupt() {
    use bera::goofi::campaign::prepare_campaign;
    let _g = registry_guard();
    failpoints::clear_all();
    let store_path = scratch_store("delay-append");
    let (workload, cfg, header) = in_process_campaign(&store_path);
    let store = bera::goofi::store::JsonlStore::create(&store_path, &header).unwrap();
    failpoints::configure("store.append.after-flush=delay:5").unwrap();
    let prepared = prepare_campaign(&workload, &cfg);
    let result = prepared.run(&store);
    failpoints::clear_all();
    store.finish().expect("delayed store finishes cleanly");
    let loaded = load_store(&store_path).expect("delayed store loads");
    assert!(loaded.is_complete());
    assert_eq!(loaded.done(), result.records.len());
}
