//! Interrupt/resume equivalence for the streaming result store.
//!
//! The store's claim (`DESIGN.md` § "Streaming result store") is that an
//! interrupted campaign, resumed from its JSONL file, finishes with
//! *bit-identical* results to a never-interrupted run: the same record for
//! every fault index, and therefore the same rendered tables. These tests
//! interrupt campaigns at line boundaries and mid-line (a torn write),
//! resume them, and compare both the full record sets and the rendered
//! Table 4 against one-shot references — for both algorithms under both
//! fault models. They also pin the resume guard-rails: a store from a
//! different campaign (seed, fault count, fault model, workload, or golden
//! digest) must be refused with an error naming the mismatched field.

use bera_goofi::campaign::{prepare_campaign, CampaignConfig, CampaignResult};
use bera_goofi::experiment::FaultModel;
use bera_goofi::store::{load_store, JsonlStore, StoreError, StoreHeader, STORE_VERSION};
use bera_goofi::table::ComparisonTable;
use bera_goofi::workload::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bera-resume-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

fn config(model: FaultModel) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(24, 7);
    cfg.fault_model = model;
    cfg
}

/// Runs the campaign start-to-finish, streaming into a fresh store file.
fn one_shot(workload: &Workload, cfg: &CampaignConfig, path: &Path) -> CampaignResult {
    let prepared = prepare_campaign(workload, cfg);
    let header = StoreHeader::new(workload.name(), cfg, prepared.golden());
    let store = JsonlStore::create(path, &header).expect("create store");
    let result = prepared.run(&store);
    store.finish().expect("finish store");
    result
}

/// Copies the first `1 + records` lines (header + records) of `src` to
/// `dst`, then chops `torn_bytes` off the end — simulating a crash either
/// at a line boundary (`torn_bytes == 0`) or mid-write.
fn interrupt(src: &Path, dst: &Path, records: usize, torn_bytes: usize) {
    let text = std::fs::read_to_string(src).expect("read one-shot store");
    let mut kept: String = text
        .lines()
        .take(1 + records)
        .map(|l| format!("{l}\n"))
        .collect();
    kept.truncate(kept.len() - torn_bytes);
    std::fs::write(dst, kept).expect("write interrupted store");
}

/// Resumes the interrupted store to completion and returns its result.
fn resume(workload: &Workload, cfg: &CampaignConfig, path: &Path) -> CampaignResult {
    let prepared = prepare_campaign(workload, cfg);
    let header = StoreHeader::new(workload.name(), cfg, prepared.golden());
    let (store, loaded) = JsonlStore::open_resume(path, &header).expect("open_resume");
    let result = prepared.run_resumed(loaded.records, &store);
    store.finish().expect("finish resumed store");
    result
}

fn record_set_json(result: &CampaignResult) -> Vec<String> {
    result
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("serialize record"))
        .collect()
}

/// The core property: interrupt after `records` complete lines (minus
/// `torn_bytes`), resume, and require the final store and result to be
/// bit-identical to the one-shot run.
fn assert_resume_identical(
    workload: &Workload,
    model: FaultModel,
    records: usize,
    torn_bytes: usize,
    tag: &str,
) -> CampaignResult {
    let cfg = config(model);
    let full_path = temp_path(&format!("{tag}-full"));
    let cut_path = temp_path(&format!("{tag}-cut"));

    let full = one_shot(workload, &cfg, &full_path);
    interrupt(&full_path, &cut_path, records, torn_bytes);
    if records < cfg.faults || torn_bytes > 0 {
        let loaded = load_store(&cut_path).expect("interrupted store loads");
        assert!(
            loaded.done() < cfg.faults,
            "interrupted store must have a gap to fill"
        );
    }
    let resumed = resume(workload, &cfg, &cut_path);

    // The in-memory results agree field-for-field (serialized form covers
    // every field, including the classification and bit-exact deviations).
    assert_eq!(
        record_set_json(&full),
        record_set_json(&resumed),
        "resumed campaign must reproduce the one-shot records exactly"
    );

    // The persisted stores hold the same record set (line order may differ
    // because the resumed run only appends the gap).
    let reload_full = load_store(&full_path)
        .expect("reload one-shot store")
        .into_result()
        .expect("one-shot store complete");
    let reload_resumed = load_store(&cut_path)
        .expect("reload resumed store")
        .into_result()
        .expect("resumed store complete");
    assert_eq!(
        record_set_json(&reload_full),
        record_set_json(&reload_resumed)
    );

    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&cut_path);
    full
}

#[test]
fn resume_matches_one_shot_alg1_single_bit() {
    assert_resume_identical(
        &Workload::algorithm_one(),
        FaultModel::SingleBit,
        9,
        0,
        "a1s",
    );
}

#[test]
fn resume_matches_one_shot_alg2_single_bit() {
    assert_resume_identical(
        &Workload::algorithm_two(),
        FaultModel::SingleBit,
        15,
        0,
        "a2s",
    );
}

#[test]
fn resume_matches_one_shot_alg1_double_bit() {
    assert_resume_identical(
        &Workload::algorithm_one(),
        FaultModel::AdjacentDoubleBit,
        5,
        0,
        "a1d",
    );
}

#[test]
fn resume_matches_one_shot_alg2_double_bit() {
    assert_resume_identical(
        &Workload::algorithm_two(),
        FaultModel::AdjacentDoubleBit,
        20,
        0,
        "a2d",
    );
}

#[test]
fn resume_matches_one_shot_alg1_intermittent() {
    // Re-asserting faults carry extra injector state across iteration
    // boundaries; resume must still reproduce every record exactly.
    assert_resume_identical(
        &Workload::algorithm_one(),
        FaultModel::Intermittent {
            reassert_iterations: 3,
        },
        9,
        0,
        "a1i",
    );
}

#[test]
fn resume_matches_one_shot_alg2_stuck_at() {
    // Stuck-at faults re-apply at every boundary and are never pruned;
    // resume must agree with one-shot on the full unpruned records.
    assert_resume_identical(
        &Workload::algorithm_two(),
        FaultModel::StuckAt { value: true },
        13,
        0,
        "a2st",
    );
}

#[test]
fn resume_after_torn_final_line_matches_one_shot() {
    // Keep 8 whole records, then tear 13 bytes off the 8th — the crash
    // happened mid-write, so the resumed run must redo that fault too.
    assert_resume_identical(
        &Workload::algorithm_one(),
        FaultModel::SingleBit,
        8,
        13,
        "torn",
    );
}

#[test]
fn resume_from_empty_gap_is_a_no_op() {
    // Interrupt after *all* records: resume must adopt everything and run
    // nothing new, still matching the one-shot result.
    let cfg = config(FaultModel::SingleBit);
    assert_resume_identical(
        &Workload::algorithm_one(),
        FaultModel::SingleBit,
        cfg.faults,
        0,
        "full",
    );
}

#[test]
fn double_crash_converges_to_the_one_shot_result() {
    // Crash once mid-campaign (torn final line), crash *again* midway
    // through the resume that was repairing it (its own torn final line),
    // and resume a third time: the store must still converge bit-identical
    // to the never-crashed run. Resume is idempotent, not merely
    // single-shot safe.
    let workload = Workload::algorithm_one();
    let cfg = config(FaultModel::SingleBit);
    let full_path = temp_path("dc-full");
    let crash1_path = temp_path("dc-crash1");
    let crash2_path = temp_path("dc-crash2");

    let full = one_shot(&workload, &cfg, &full_path);

    // Crash #1: six records survive whole, the seventh is torn mid-write.
    interrupt(&full_path, &crash1_path, 6, 9);

    // The first recovery run completes the store...
    let resumed_once = resume(&workload, &cfg, &crash1_path);
    assert_eq!(record_set_json(&full), record_set_json(&resumed_once));

    // ...but crash #2 hits a hypothetical sibling of that run midway:
    // the six original records plus three the resume appended survive,
    // and the recovery's own in-flight line is torn.
    interrupt(&crash1_path, &crash2_path, 9, 11);
    let after_second_crash = load_store(&crash2_path).expect("doubly-crashed store loads");
    assert!(
        after_second_crash.torn_tail,
        "second crash must leave a torn tail"
    );
    assert!(
        after_second_crash.done() < cfg.faults,
        "doubly-crashed store must still have a gap"
    );

    // The third run converges.
    let final_result = resume(&workload, &cfg, &crash2_path);
    assert_eq!(
        record_set_json(&full),
        record_set_json(&final_result),
        "two crashes and two resumes must still reproduce the one-shot records"
    );
    let reload_full = load_store(&full_path)
        .expect("reload one-shot store")
        .into_result()
        .expect("one-shot store complete");
    let reload_final = load_store(&crash2_path)
        .expect("reload twice-resumed store")
        .into_result()
        .expect("twice-resumed store complete");
    assert_eq!(
        record_set_json(&reload_full),
        record_set_json(&reload_final)
    );
    assert_eq!(
        ComparisonTable::new(&reload_full, &reload_full).render(),
        ComparisonTable::new(&reload_final, &reload_final).render(),
        "tables rendered after a double crash must be byte-identical"
    );

    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&crash1_path);
    let _ = std::fs::remove_file(&crash2_path);
}

#[test]
fn table4_from_resumed_stores_is_bit_identical() {
    // Render the Algorithm I vs II comparison from one-shot results and
    // from interrupted-then-resumed results; the reports must match
    // byte-for-byte.
    let full1 = assert_resume_identical(
        &Workload::algorithm_one(),
        FaultModel::SingleBit,
        7,
        0,
        "t4a1",
    );
    let full2 = assert_resume_identical(
        &Workload::algorithm_two(),
        FaultModel::SingleBit,
        11,
        0,
        "t4a2",
    );
    // assert_resume_identical proved resumed records equal the one-shot
    // records, so rendering either yields the same bytes; render both
    // one-shot results here to pin the end-to-end artifact.
    let table = ComparisonTable::new(&full1, &full2).render();
    let again = ComparisonTable::new(&full1, &full2).render();
    assert_eq!(table, again);
    assert!(table.contains("Algorithm I"));
}

// ---------------------------------------------------------------------------
// Guard-rails: resuming the wrong store must fail loudly.
// ---------------------------------------------------------------------------

fn mismatch_field(stored_cfg: &CampaignConfig, current: &StoreHeader, tag: &str) -> &'static str {
    let workload = Workload::algorithm_one();
    let path = temp_path(tag);
    let prepared = prepare_campaign(&workload, stored_cfg);
    let header = StoreHeader::new(workload.name(), stored_cfg, prepared.golden());
    let store = JsonlStore::create(&path, &header).expect("create store");
    drop(prepared);
    store.finish().expect("finish");
    let err = JsonlStore::open_resume(&path, current)
        .err()
        .expect("mismatched resume must fail");
    let _ = std::fs::remove_file(&path);
    match err {
        StoreError::HeaderMismatch { field, .. } => field,
        other => panic!("expected HeaderMismatch, got {other}"),
    }
}

fn current_header(cfg: &CampaignConfig) -> StoreHeader {
    let workload = Workload::algorithm_one();
    let prepared = prepare_campaign(&workload, cfg);
    StoreHeader::new(workload.name(), cfg, prepared.golden())
}

#[test]
fn resume_rejects_mismatched_seed() {
    let stored = config(FaultModel::SingleBit);
    let mut other = stored.clone();
    other.seed += 1;
    assert_eq!(
        mismatch_field(&stored, &current_header(&other), "seed"),
        "seed"
    );
}

#[test]
fn resume_rejects_mismatched_fault_count() {
    let stored = config(FaultModel::SingleBit);
    let mut other = stored.clone();
    other.faults += 1;
    assert_eq!(
        mismatch_field(&stored, &current_header(&other), "count"),
        "faults"
    );
}

#[test]
fn resume_rejects_mismatched_fault_model() {
    let stored = config(FaultModel::SingleBit);
    let other = config(FaultModel::AdjacentDoubleBit);
    assert_eq!(
        mismatch_field(&stored, &current_header(&other), "model"),
        "fault_model"
    );
}

#[test]
fn resume_rejects_mismatched_workload() {
    let cfg = config(FaultModel::SingleBit);
    let other_workload = Workload::algorithm_two();
    let prepared = prepare_campaign(&other_workload, &cfg);
    let current = StoreHeader::new(other_workload.name(), &cfg, prepared.golden());
    assert_eq!(mismatch_field(&cfg, &current, "workload"), "workload");
}

#[test]
fn resume_rejects_mismatched_vis() {
    // Version-4 stores carried a `vis` flag (a store written with the
    // visibility units switched off has different provenance). The flag
    // is gone, so such a store is refused by version rather than resumed
    // with mixed provenance.
    let cfg = config(FaultModel::SingleBit);
    let current = current_header(&cfg);
    let text = serde_json::to_string(&current).expect("serialize header");
    let legacy = text
        .replacen(&format!("\"version\":{STORE_VERSION}"), "\"version\":4", 1)
        .replacen("\"prune\":", "\"vis\":false,\"prune\":", 1);
    assert!(
        legacy.contains("\"version\":4") && legacy.contains("\"vis\":false"),
        "the fixture must be a parent-format header: {legacy}"
    );
    let path = temp_path("vis");
    std::fs::write(&path, format!("{legacy}\n")).expect("write legacy store");
    let err = JsonlStore::open_resume(&path, &current)
        .err()
        .expect("a version-4 store must not resume");
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(
            err,
            StoreError::HeaderMismatch {
                field: "version",
                ..
            }
        ),
        "expected a version mismatch, got {err}"
    );
}

#[test]
fn resume_rejects_mismatched_golden_digest() {
    // Same flags, but the golden run itself differs (e.g. a changed plant
    // model): simulate by tampering with the digest alone.
    let cfg = config(FaultModel::SingleBit);
    let mut current = current_header(&cfg);
    current.golden_digest ^= 1;
    assert_eq!(mismatch_field(&cfg, &current, "digest"), "golden_digest");
}

#[test]
fn resume_rejects_garbage_file() {
    let path = temp_path("garbage");
    std::fs::write(&path, "{\"not\":\"a store\"}\n").expect("write garbage");
    let cfg = config(FaultModel::SingleBit);
    let err = JsonlStore::open_resume(&path, &current_header(&cfg)).err();
    let _ = std::fs::remove_file(&path);
    assert!(err.is_some(), "garbage file must be refused");
}
