//! Property tests for the farm's segment merge (DESIGN.md § 8i).
//!
//! Three claims are exercised against a real (small) campaign:
//!
//! 1. **Order invariance** — the canonical merged store is byte-identical
//!    no matter in which order segments were completed or in which order
//!    records landed inside each segment (workers race; the merge
//!    canonicalizes);
//! 2. **Duplicate detection** — a fault index recorded by a second
//!    shard's segment fails the merge loudly as a foreign index, naming
//!    the index and both shards, never silently picking a winner;
//! 3. **Torn-tail recovery** — a segment truncated mid final line loses
//!    exactly that one record, and a resuming worker re-runs exactly the
//!    gap, converging to the identical canonical merge.

use bera_goofi::campaign::{run_scifi_campaign, run_scifi_campaign_observed, CampaignConfig};
use bera_goofi::experiment::ExperimentRecord;
use bera_goofi::farm::{
    assemble_farm, done_path, init_farm, manifest_path, merge_farm, merged_path, read_manifest,
    run_worker, segment_path, FarmError, FarmManifest, LeasePolicy, FARM_VERSION,
};
use bera_goofi::observer::{Telemetry, TelemetrySnapshot};
use bera_goofi::store::{encode_record, load_store, JsonlStore};
use bera_goofi::workload::Workload;
use proptest::prelude::*;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

const FAULTS: usize = 12;
const SHARDS: usize = 3;

fn scratch(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU32 = AtomicU32::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("farm-merge")
        .join(format!("{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// The expensive shared setup, run once: a canonical farm completed by a
/// single worker, its merged bytes, and the single-process reference
/// records of the identical campaign.
struct Fixture {
    root: PathBuf,
    manifest: FarmManifest,
    records: Vec<ExperimentRecord>,
    canonical_merged: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let root = scratch("canonical");
        let cfg = CampaignConfig::quick(FAULTS, 7);
        init_farm(&root, "alg1", &cfg, SHARDS, LeasePolicy::default()).expect("init farm");
        run_worker(&root, "fixture", 1, &mut |_| {}).expect("worker completes");
        merge_farm(&root).expect("merge completes");
        let manifest = read_manifest(&root).expect("manifest reads back");
        let canonical_merged = fs::read(merged_path(&root)).expect("read merged store");
        let records = run_scifi_campaign(&Workload::algorithm_one(), &cfg).records;
        assert_eq!(records.len(), FAULTS);
        Fixture {
            root,
            manifest,
            records,
            canonical_merged,
        }
    })
}

/// Forges a completed farm from the reference records without running any
/// campaign: segments are written by appending the records in the given
/// global order (each to its owning shard), then marked done. `order`
/// controls both which segment fills first and the line order within each
/// segment — exactly the degrees of freedom racing workers have.
fn forge_farm(tag: &str, order: &[usize]) -> PathBuf {
    let fx = fixture();
    let root = scratch(tag);
    fs::create_dir_all(root.join("shards")).expect("create shards dir");
    fs::copy(manifest_path(&fx.root), manifest_path(&root)).expect("copy manifest");
    let stores: Vec<JsonlStore> = fx
        .manifest
        .shards
        .iter()
        .map(|s| {
            JsonlStore::create(&segment_path(&root, s.index), &fx.manifest.header)
                .expect("create segment")
        })
        .collect();
    for &i in order {
        let shard = fx.manifest.shard_of(i).expect("index has an owner");
        stores[shard.index]
            .append(i, &fx.records[i])
            .expect("append record");
    }
    for (spec, store) in fx.manifest.shards.iter().zip(stores) {
        store.finish().expect("finish segment");
        fs::write(done_path(&root, spec.index), "forged\n").expect("done marker");
    }
    root
}

/// Deterministic Fisher–Yates permutation of `0..n` from a drawn seed
/// (the vendored proptest has no shuffle combinator).
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

/// The merged farm telemetry reports planning-rule counters **exactly**:
/// each shard plans only its own range, so the sum of the shard sidecars
/// is the single-process campaign's count (DESIGN.md § 8i). The reference
/// is the single-process campaign's own telemetry of the identical
/// configuration. The counters derived from the records (outcome buckets,
/// provenance, pruning, completions) are summed over shards and must
/// match it too.
#[test]
fn merged_planning_counters_sum_to_the_single_process_counts() {
    // A dedicated farm, larger than the shared fixture: enough faults
    // that the visibility planner's analytic rules demonstrably fire.
    const PLAN_FAULTS: usize = 120;
    let cfg = CampaignConfig::quick(PLAN_FAULTS, 7);
    let telemetry = Telemetry::new(PLAN_FAULTS);
    let _ = run_scifi_campaign_observed(&Workload::algorithm_one(), &cfg, &telemetry);
    let reference = telemetry.snapshot();

    let root = scratch("plan-exact");
    init_farm(&root, "alg1", &cfg, SHARDS, LeasePolicy::default()).expect("init farm");
    run_worker(&root, "planner", 1, &mut |_| {}).expect("worker completes");
    let report = merge_farm(&root).expect("merge completes");
    let merged = report.telemetry.expect("shards wrote sidecars");

    assert!(
        reference.vis_latent
            + reference.vis_overwritten
            + reference.sig_overwritten
            + reference.value_resolved
            > 0,
        "the fixture campaign must exercise the planning rules for this test to bite"
    );
    assert_eq!(merged.vis_latent, reference.vis_latent);
    assert_eq!(merged.vis_overwritten, reference.vis_overwritten);
    assert_eq!(merged.sig_overwritten, reference.sig_overwritten);
    assert_eq!(merged.value_resolved, reference.value_resolved);
    assert_eq!(merged.batch_members, reference.batch_members);
    assert_eq!(merged.split_offs, reference.split_offs);
    assert_eq!(merged.batch_untraceable, reference.batch_untraceable);
    assert_eq!(merged.batch_vis_admitted, reference.batch_vis_admitted);
    let record_counters = |s: &TelemetrySnapshot| {
        [
            s.detected,
            s.hangs,
            s.severe,
            s.minor,
            s.latent,
            s.overwritten,
            s.harness_failures,
            s.analytic,
            s.pruned,
            s.completed,
        ]
    };
    assert_eq!(record_counters(&merged), record_counters(&reference));
    assert_eq!(reference.completed, PLAN_FAULTS);
    assert!(
        reference.analytic > 0 && reference.pruned > 0,
        "the record-derived counters must move for this comparison to bite"
    );
    // Planning CPU stays a sum: each shard run really spent it, so the
    // farm figure is exactly the total of the shard sidecars.
    let shard_plan: u64 = assemble_farm(&root)
        .expect("assemble completed farm")
        .shards
        .iter()
        .map(|s| s.telemetry.as_ref().expect("shard sidecar").plan_micros)
        .sum();
    assert_eq!(merged.plan_micros, shard_plan);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Claim 1: any completion order merges to the identical bytes.
    #[test]
    fn merge_is_byte_identical_for_any_segment_order(seed in any::<u64>()) {
        let order = permutation(seed, FAULTS);
        let root = forge_farm("perm", &order);
        let report = merge_farm(&root).expect("forged farm merges");
        let merged = fs::read(&report.path).expect("read merged store");
        prop_assert_eq!(
            merged,
            fixture().canonical_merged.clone(),
            "merged bytes must not depend on segment completion order"
        );
    }

    /// Claim 2: a duplicated fault index across segments is refused as a
    /// foreign index of the stranger's segment, with an error naming the
    /// index and both shards involved. The shards tile the fault list, so
    /// the range check sees every duplicate before any record is seen
    /// twice.
    #[test]
    fn duplicate_index_across_segments_is_loud(
        index in 0..FAULTS,
        stranger_offset in 1..SHARDS,
    ) {
        let fx = fixture();
        let order: Vec<usize> = (0..FAULTS).collect();
        let root = forge_farm("dup", &order);
        let owner = fx.manifest.shard_of(index).expect("owner exists").index;
        let stranger = (owner + stranger_offset) % SHARDS;
        let seg = segment_path(&root, stranger);
        let mut file = fs::OpenOptions::new().append(true).open(&seg).expect("open segment");
        let line = encode_record(index, &fx.records[index]);
        file.write_all(line.as_bytes()).expect("append duplicate");
        file.write_all(b"\n").expect("append newline");
        drop(file);
        match merge_farm(&root) {
            Err(e @ FarmError::ForeignIndex { index: i, shard, owner: o }) => {
                prop_assert_eq!((i, shard, o), (index, stranger, owner));
                let msg = e.to_string();
                prop_assert!(msg.contains(&format!("{index}")), "error names the index: {msg}");
                prop_assert!(
                    msg.contains(&format!("{owner}")) && msg.contains(&format!("{stranger}")),
                    "error names both shards: {msg}"
                );
            }
            other => prop_assert!(false, "duplicate must fail the merge, got {other:?}"),
        }
        prop_assert!(
            !merged_path(&root).exists(),
            "a refused merge must publish nothing"
        );
    }

    /// Claim 3: tearing the final line of one segment drops exactly that
    /// record, and a resuming worker converges to the canonical merge.
    #[test]
    fn torn_segment_tail_drops_one_record_then_resumes(
        shard in 0..SHARDS,
        cut in 1usize..20,
    ) {
        let fx = fixture();
        let order: Vec<usize> = (0..FAULTS).collect();
        let root = forge_farm("torn", &order);
        let seg = segment_path(&root, shard);
        let bytes = fs::read(&seg).expect("read segment");
        let spec = fx.manifest.shards[shard];
        // Cut strictly inside the final line: past its newline-stripped
        // start, short of swallowing the whole line (which would be a
        // clean boundary, not a tear).
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("segment has multiple lines") + 1;
        let last_line_len = bytes.len() - last_line_start;
        // At least the newline plus one byte must go (cutting the newline
        // alone leaves a complete, decodable line — a clean boundary, not
        // a tear), and at least one byte of the line must stay.
        let cut = 2 + cut % (last_line_len - 2);
        fs::write(&seg, &bytes[..bytes.len() - cut]).expect("tear segment");
        fs::remove_file(done_path(&root, shard)).expect("undo done marker");

        let loaded = load_store(&seg).expect("torn segment loads");
        prop_assert!(loaded.torn_tail, "the cut must read as a torn tail");
        prop_assert_eq!(
            loaded.done(),
            spec.len() - 1,
            "exactly one record is lost to the tear"
        );

        run_worker(&root, "resumer", 1, &mut |_| {}).expect("resume worker");
        let report = merge_farm(&root).expect("resumed farm merges");
        let merged = fs::read(&report.path).expect("read merged store");
        prop_assert_eq!(
            merged,
            fixture().canonical_merged.clone(),
            "resumed merge must be byte-identical to the canonical merge"
        );
    }
}

/// A manifest written by a build with another farm version is refused by
/// every entry point, and the error names the foreign version.
#[test]
fn foreign_manifest_version_is_refused_by_version() {
    let fx = fixture();
    let root = forge_farm("foreign-version", &(0..FAULTS).collect::<Vec<_>>());
    let mut foreign = fx.manifest.clone();
    foreign.version = FARM_VERSION + 6;
    let json = serde_json::to_string_pretty(&foreign).expect("manifest serializes");
    fs::write(manifest_path(&root), json).expect("rewrite manifest");

    let named = |result: Result<(), FarmError>| match result {
        Err(FarmError::Manifest(message)) => {
            message.contains(&format!("version {}", FARM_VERSION + 6))
        }
        _ => false,
    };
    assert!(named(read_manifest(&root).map(drop)), "read_manifest");
    assert!(
        named(run_worker(&root, "w", 1, &mut |_| {}).map(drop)),
        "run_worker"
    );
    assert!(named(merge_farm(&root).map(drop)), "merge_farm");
    assert!(
        !merged_path(&root).exists(),
        "a refused merge publishes nothing"
    );
}

/// A done marker on a segment that ends in a torn line cannot come from
/// this farm's protocol (finalize is ordered after the flush): the merge
/// refuses it, naming the shard.
#[test]
fn done_marker_on_a_torn_segment_is_refused_by_shard() {
    for shard in 0..SHARDS {
        let root = forge_farm("torn-done", &(0..FAULTS).collect::<Vec<_>>());
        let seg = segment_path(&root, shard);
        let bytes = fs::read(&seg).expect("read segment");
        fs::write(&seg, &bytes[..bytes.len() - 5]).expect("tear segment");
        assert!(done_path(&root, shard).exists(), "the done marker stays");

        match merge_farm(&root) {
            Err(FarmError::Shard {
                shard: named,
                message,
            }) => {
                assert_eq!(named, shard, "the refusal names the torn shard: {message}");
            }
            other => panic!("a torn done segment must be refused, got {other:?}"),
        }
        assert!(
            !merged_path(&root).exists(),
            "a refused merge publishes nothing"
        );
    }
}
