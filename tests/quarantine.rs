//! The quarantine suite: a campaign containing deliberately sabotaged
//! experiments must still run to completion.
//!
//! The supervisor's contract (`DESIGN.md` § "Supervised execution") is
//! that per-experiment harness failures — panics and wall-clock deadline
//! overruns — are contained, retried once from reset, and then
//! quarantined as [`Outcome::HarnessFailure`] records, while every
//! *healthy* experiment produces a record bit-identical to an
//! unsupervised run. These tests drive that contract end to end with a
//! [`ChaosHarness`] sabotaging chosen fault indices inside the
//! containment boundary: the campaign completes, the streaming store
//! records the quarantines, telemetry counts retries and failures, and
//! all untouched records match the baseline byte for byte.

use bera_goofi::campaign::{prepare_campaign, run_scifi_campaign_observed, CampaignConfig};
use bera_goofi::observer::Telemetry;
use bera_goofi::planner::{plan_campaign, resolve, Fate, PlanAction};
use bera_goofi::store::{load_store, JsonlStore, StoreHeader};
use bera_goofi::workload::Workload;
use bera_goofi::{ChaosHarness, HarnessCause, Outcome, SupervisorConfig};
use bera_tcpu::scan;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bera-quarantine-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// The unsupervised reference: same campaign, no containment.
fn baseline(workload: &Workload, cfg: &CampaignConfig) -> Vec<String> {
    let mut bare = cfg.clone();
    bare.supervisor = None;
    run_scifi_campaign_observed(workload, &bare, &bera_goofi::observer::NullObserver)
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("serialize record"))
        .collect()
}

#[test]
fn sabotaged_campaign_completes_with_quarantine_records() {
    let workload = Workload::algorithm_one();
    let panic_indices: BTreeSet<usize> = [3, 9].into_iter().collect();
    let stall_indices: BTreeSet<usize> = [5].into_iter().collect();

    let mut cfg = CampaignConfig::quick(16, 7);
    // Chaos sabotage keys on fault-list indices and only fires inside the
    // containment boundary of an *executed* experiment; the planner would
    // classify some target indices analytically, or replicate them from a
    // class representative, and dodge the trap.
    cfg.prune = false;
    cfg.supervisor = Some(SupervisorConfig {
        // Generous for a healthy short(60) experiment (sub-millisecond),
        // far below the chaos stall, so only sabotage trips it.
        deadline: Some(Duration::from_millis(250)),
        chaos: Some(Arc::new(
            ChaosHarness::panicking(panic_indices.iter().copied())
                .stalling(stall_indices.iter().copied(), Duration::from_secs(1)),
        )),
    });

    let path = temp_path("sabotage");
    let prepared = prepare_campaign(&workload, &cfg);
    let header = StoreHeader::new(workload.name(), &cfg, prepared.golden());
    let store = JsonlStore::create(&path, &header).expect("create store");
    let result = prepared.run(&store);
    store.finish().expect("finish store");

    // The campaign completed: one record per fault, despite the sabotage.
    assert_eq!(result.records.len(), cfg.faults);

    let reference = baseline(&workload, &cfg);
    for (i, record) in result.records.iter().enumerate() {
        if panic_indices.contains(&i) {
            assert_eq!(record.outcome, Outcome::HarnessFailure(HarnessCause::Panic));
            let detail = record.harness_error.as_deref().expect("panic detail");
            assert!(detail.contains("forced panic"), "{detail}");
        } else if stall_indices.contains(&i) {
            assert_eq!(
                record.outcome,
                Outcome::HarnessFailure(HarnessCause::Deadline)
            );
            let detail = record.harness_error.as_deref().expect("deadline detail");
            assert!(detail.contains("wall-clock deadline"), "{detail}");
        } else {
            // Every healthy record is bit-identical to the unsupervised run.
            assert_eq!(
                serde_json::to_string(record).expect("serialize record"),
                reference[i],
                "supervision perturbed healthy fault index {i}"
            );
        }
    }

    // The persisted store holds the same quarantine records.
    let loaded = load_store(&path).expect("reload store");
    assert!(loaded.is_complete());
    let stored = loaded.into_result().expect("complete store");
    for &i in panic_indices.iter().chain(&stall_indices) {
        assert!(
            stored.records[i].outcome.is_harness_failure(),
            "store must record the quarantine at index {i}"
        );
        assert!(stored.records[i].harness_error.is_some());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn one_shot_panic_is_retried_and_classifies_normally() {
    let workload = Workload::algorithm_one();
    let mut cfg = CampaignConfig::quick(12, 3);
    // Sabotage only fires for simulated experiments — see above.
    cfg.prune = false;
    cfg.supervisor = Some(SupervisorConfig {
        deadline: None,
        chaos: Some(Arc::new(ChaosHarness::panicking_once([4]))),
    });

    let telemetry = Telemetry::new(cfg.faults);
    let result = run_scifi_campaign_observed(&workload, &cfg, &telemetry);

    let reference = baseline(&workload, &cfg);
    for (i, record) in result.records.iter().enumerate() {
        if i == 4 {
            // The sabotaged fault recovered on the stride-0 retry: its
            // classification matches the baseline exactly, but a full
            // replay never prunes, so `pruned_at` is honestly `None`.
            assert!(!record.outcome.is_harness_failure());
            assert!(record.pruned_at.is_none(), "stride-0 retry cannot prune");
            let mut base: bera_goofi::ExperimentRecord =
                serde_json::from_str(&reference[i]).expect("parse baseline");
            base.pruned_at = None;
            assert_eq!(
                serde_json::to_string(record).expect("serialize record"),
                serde_json::to_string(&base).expect("serialize baseline"),
                "the retried record must classify identically to the baseline"
            );
        } else {
            assert_eq!(
                serde_json::to_string(record).expect("serialize record"),
                reference[i],
                "untouched fault index {i} must be bit-identical"
            );
        }
    }

    let snap = telemetry.snapshot();
    assert_eq!(snap.retried, 1, "exactly one attempt was retried");
    assert_eq!(snap.harness_failures, 0, "nothing was quarantined");
    assert_eq!(snap.completed, cfg.faults);
}

#[test]
fn parallel_sabotaged_campaign_matches_serial() {
    let workload = Workload::algorithm_one();
    let chaos = Arc::new(ChaosHarness::panicking([1, 6, 13]));
    let mut cfg = CampaignConfig::quick(18, 5);
    // Sabotage only fires for simulated experiments — see above.
    cfg.prune = false;
    cfg.supervisor = Some(SupervisorConfig {
        deadline: None,
        chaos: Some(Arc::clone(&chaos)),
    });

    cfg.threads = 1;
    let serial = run_scifi_campaign_observed(&workload, &cfg, &bera_goofi::observer::NullObserver);
    cfg.threads = 4;
    let telemetry = Telemetry::new(cfg.faults);
    let parallel = run_scifi_campaign_observed(&workload, &cfg, &telemetry);

    let so: Vec<String> = serial
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("serialize"))
        .collect();
    let po: Vec<String> = parallel
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("serialize"))
        .collect();
    assert_eq!(so, po, "sharding must not change quarantine results");
    assert_eq!(telemetry.snapshot().harness_failures, 3);
    assert_eq!(
        parallel
            .records
            .iter()
            .filter(|r| r.outcome.is_harness_failure())
            .count(),
        3
    );
}

#[test]
fn sabotaged_live_representative_is_retried_from_reset() {
    // Pruning on: the target is a live class representative, which runs
    // under diff replay from its injection. That run must stay inside the
    // same containment boundary as every other experiment.
    let workload = Workload::algorithm_one();
    let cfg = CampaignConfig::quick(60, 7);
    let prepared = prepare_campaign(&workload, &cfg);
    let (golden, faults) = (prepared.golden(), prepared.faults());
    let plan = plan_campaign(faults, &cfg, golden);
    let reps_with_members: BTreeSet<usize> =
        plan.classes().into_iter().map(|(rep, _)| rep).collect();
    // A simulated fault the resolver finds live, with no replicated
    // members, so every other record stays bit-identical to the baseline.
    let target = (0..faults.len())
        .find(|&i| {
            let flips: Vec<_> = cfg
                .fault_model
                .locations(faults[i].location_index)
                .into_iter()
                .map(|j| scan::catalog()[j])
                .collect();
            plan.action(i) == PlanAction::Simulate
                && !reps_with_members.contains(&i)
                && matches!(
                    resolve(&flips, faults[i].inject_at, &golden.trace),
                    Fate::Live { .. }
                )
        })
        .expect("the campaign has a memberless live representative");
    let reference = baseline(&workload, &cfg);
    let sabotaged = |chaos: ChaosHarness| {
        let mut cfg = cfg.clone();
        cfg.supervisor = Some(SupervisorConfig {
            deadline: None,
            chaos: Some(Arc::new(chaos)),
        });
        let telemetry = Telemetry::new(cfg.faults);
        let result = run_scifi_campaign_observed(&workload, &cfg, &telemetry);
        for (i, record) in result.records.iter().enumerate() {
            if i != target {
                assert_eq!(
                    serde_json::to_string(record).expect("serialize record"),
                    reference[i],
                    "untouched fault index {i} must be bit-identical"
                );
            }
        }
        (result.records[target].clone(), telemetry.snapshot())
    };

    // A persistent panic is retried once, then quarantined.
    let (record, snap) = sabotaged(ChaosHarness::panicking([target]));
    assert_eq!(snap.retried, 1, "exactly one attempt was retried");
    assert_eq!(snap.harness_failures, 1);
    assert_eq!(record.outcome, Outcome::HarnessFailure(HarnessCause::Panic));
    let detail = record.harness_error.as_deref().expect("panic detail");
    assert!(detail.contains("forced panic"), "{detail}");

    // A one-shot panic recovers on the retry from reset, which never
    // prunes; otherwise the record matches the replayed run's.
    let (record, snap) = sabotaged(ChaosHarness::panicking_once([target]));
    assert_eq!(snap.retried, 1, "exactly one attempt was retried");
    assert_eq!(snap.harness_failures, 0, "nothing was quarantined");
    assert!(!record.outcome.is_harness_failure());
    assert!(
        record.pruned_at.is_none(),
        "a retry from reset cannot prune"
    );
    let mut base: bera_goofi::ExperimentRecord =
        serde_json::from_str(&reference[target]).expect("parse baseline");
    base.pruned_at = None;
    assert_eq!(
        serde_json::to_string(&record).expect("serialize record"),
        serde_json::to_string(&base).expect("serialize baseline"),
        "the retried record must classify identically to the baseline"
    );
}
