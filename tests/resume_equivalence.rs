//! Interrupt/resume equivalence for the streaming result store.
//!
//! The store's claim (`DESIGN.md` § "Streaming result store") is that an
//! interrupted campaign, resumed from its JSONL file, finishes with
//! *bit-identical* results to a never-interrupted run: the same record for
//! every fault index, and therefore the same rendered tables. These tests
//! hand resume points to the differential oracle (`tests/oracle`), which
//! interrupts a one-shot store at a line boundary or mid-line (a torn
//! write), resumes it, and holds the resumed records and the reloaded
//! store byte-identical to the one-shot run and equivalent to the plain
//! reference — for both algorithms under several fault models. They also
//! pin the resume guard-rails: a store from a different campaign (any
//! header field) must be refused with an error naming the mismatched
//! field.

mod oracle;

use bera_goofi::campaign::{prepare_campaign, CampaignConfig};
use bera_goofi::experiment::FaultModel;
use bera_goofi::store::{JsonlStore, StoreError, StoreHeader, STORE_VERSION};
use bera_goofi::table::ComparisonTable;
use bera_goofi::workload::Workload;
use oracle::{check, Campaign, Point};
use std::path::PathBuf;
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

/// The 24-fault, seed-7 campaign every resume test interrupts.
fn campaign(workload: Workload, model: FaultModel) -> Campaign {
    Campaign::sampled(workload, model, 24, 7)
}

#[test]
fn resume_matches_one_shot_alg1_single_bit() {
    let campaign = campaign(Workload::algorithm_one(), FaultModel::SingleBit);
    check(&campaign, &[Point::DEFAULT.resume(&[(9, 0)])]);
}

#[test]
fn resume_matches_one_shot_alg2_single_bit() {
    let campaign = campaign(Workload::algorithm_two(), FaultModel::SingleBit);
    check(&campaign, &[Point::DEFAULT.resume(&[(15, 0)])]);
}

#[test]
fn resume_matches_one_shot_alg1_double_bit() {
    let campaign = campaign(Workload::algorithm_one(), FaultModel::AdjacentDoubleBit);
    check(&campaign, &[Point::DEFAULT.resume(&[(5, 0)])]);
}

#[test]
fn resume_matches_one_shot_alg2_double_bit() {
    let campaign = campaign(Workload::algorithm_two(), FaultModel::AdjacentDoubleBit);
    check(&campaign, &[Point::DEFAULT.resume(&[(20, 0)])]);
}

#[test]
fn resume_matches_one_shot_alg1_intermittent() {
    // Re-asserting faults carry extra injector state across iteration
    // boundaries; resume must still reproduce every record exactly.
    let model = FaultModel::Intermittent {
        reassert_iterations: 3,
    };
    check(
        &campaign(Workload::algorithm_one(), model),
        &[Point::DEFAULT.resume(&[(9, 0)])],
    );
}

#[test]
fn resume_matches_one_shot_alg2_stuck_at() {
    // Stuck-at faults re-apply at every boundary and are never pruned;
    // resume must agree with one-shot on the full unpruned records.
    let model = FaultModel::StuckAt { value: true };
    check(
        &campaign(Workload::algorithm_two(), model),
        &[Point::DEFAULT.resume(&[(13, 0)])],
    );
}

#[test]
fn resume_after_torn_final_line_matches_one_shot() {
    // Keep 8 whole records, then tear 13 bytes off the 8th — the crash
    // happened mid-write, so the resumed run must redo that fault too.
    let campaign = campaign(Workload::algorithm_one(), FaultModel::SingleBit);
    check(&campaign, &[Point::DEFAULT.resume(&[(8, 13)])]);
}

#[test]
fn resume_from_empty_gap_is_a_no_op() {
    // Interrupt after *all* records: resume must adopt everything and run
    // nothing new, still matching the one-shot result.
    let campaign = campaign(Workload::algorithm_one(), FaultModel::SingleBit);
    check(&campaign, &[Point::DEFAULT.resume(&[(24, 0)])]);
}

#[test]
fn double_crash_converges_to_the_one_shot_result() {
    // Crash once mid-campaign (six records survive, the sixth torn),
    // crash *again* midway through the resume that was repairing it
    // (nine lines survive, its own final line torn), and resume a third
    // time: the store must still converge bit-identical to the
    // never-crashed run, and so must the tables rendered from it. Resume
    // is idempotent, not merely single-shot safe.
    let campaign = campaign(Workload::algorithm_one(), FaultModel::SingleBit);
    let runs = check(
        &campaign,
        &[Point::DEFAULT.resume(&[(6, 9), (9, 11)]), Point::DEFAULT],
    );
    let table = |i: usize| ComparisonTable::new(&runs[i].result, &runs[i].result).render();
    assert_eq!(
        table(0),
        table(1),
        "tables after a double crash must be byte-identical"
    );
}

#[test]
fn table4_from_resumed_stores_is_bit_identical() {
    // Render the Algorithm I vs II comparison from one-shot results and
    // from interrupted-then-resumed stores; the reports must match
    // byte-for-byte.
    let points = [Point::DEFAULT.resume(&[(7, 0)]), Point::DEFAULT];
    let one = check(
        &campaign(Workload::algorithm_one(), FaultModel::SingleBit),
        &points,
    );
    let points = [Point::DEFAULT.resume(&[(11, 0)]), Point::DEFAULT];
    let two = check(
        &campaign(Workload::algorithm_two(), FaultModel::SingleBit),
        &points,
    );
    let table = |i: usize| ComparisonTable::new(&one[i].result, &two[i].result).render();
    assert_eq!(table(0), table(1));
    assert!(table(0).contains("Algorithm I"));
}

// ---------------------------------------------------------------------------
// Guard-rails: resuming the wrong store must fail loudly.
// ---------------------------------------------------------------------------

fn mismatch_field(stored_cfg: &CampaignConfig, current: &StoreHeader, tag: &str) -> String {
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
            StoreError::HeaderMismatch { ref field, .. } if field == "version"
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

/// One row per header field: a store whose header differs from the
/// current campaign's in that field alone is refused, naming the field.
#[test]
fn resume_names_every_mismatched_header_field() {
    type Mutation = fn(&mut StoreHeader);
    let current = current_header(&config(FaultModel::SingleBit));
    let rows: [(&str, Mutation); 14] = [
        ("magic", |h| h.magic.push('x')),
        ("version", |h| h.version += 1),
        ("workload", |h| h.workload = "Algorithm II".to_string()),
        ("faults", |h| h.faults += 1),
        ("seed", |h| h.seed += 1),
        ("fault_model", |h| {
            h.fault_model = FaultModel::AdjacentDoubleBit
        }),
        ("prune", |h| h.prune = !h.prune),
        ("iterations", |h| h.iterations += 1),
        ("parity_cache", |h| h.parity_cache = !h.parity_cache),
        ("total_locations", |h| h.total_locations += 1),
        ("total_instructions", |h| h.total_instructions += 1),
        ("golden_digest", |h| h.golden_digest ^= 1),
        ("golden_outputs", |h| h.golden_outputs[0] ^= 1),
        ("golden_speeds", |h| h.golden_speeds[0] += 1.0),
    ];
    for (field, mutate) in rows {
        let mut stored = current.clone();
        mutate(&mut stored);
        let path = temp_path(field);
        JsonlStore::create(&path, &stored)
            .and_then(JsonlStore::finish)
            .expect("write store");
        let err = JsonlStore::open_resume(&path, &current).err();
        let _ = std::fs::remove_file(&path);
        match err {
            Some(StoreError::HeaderMismatch { field: named, .. }) => {
                assert_eq!(
                    named, field,
                    "a mismatched `{field}` is refused by its name"
                );
            }
            other => panic!("a mismatched `{field}` must be refused, got {other:?}"),
        }
    }
}
