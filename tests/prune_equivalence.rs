//! The pruning equivalence suite.
//!
//! The fate resolver's contract (`DESIGN.md` § 8e) is that a pruned
//! campaign is a pure wall-clock optimisation: every record it emits
//! carries the same classification a full simulation of that fault from
//! injection would have produced — same outcome, deviation, detection
//! latency and outputs — differing only in the provenance metadata that
//! says *how* the record was obtained. `prune: false` is the reference
//! path. These tests drive that contract end to end:
//!
//! * fixed-seed 500-fault single- and double-bit campaigns on both
//!   algorithms are compared record-for-record against their
//!   `prune: false` twins;
//! * every flip model prunes; the re-asserting models (and the
//!   parity-cache configuration) bypass the pruner entirely and stay
//!   byte-identical;
//! * a pinned list over the untraceable state agrees across every model
//!   and layer, and live representatives resumed at their live instant
//!   classify like a replay from injection at random seeds;
//! * `paranoid` mode re-simulates class members in-campaign and panics on
//!   any disagreement — running it clean is itself the assertion;
//! * property tests show the planner's analysis is *load-bearing*: a
//!   perturbed golden trace (an extra read between two class members, a
//!   full write narrowed to a partial one) changes the plan.

use bera_goofi::campaign::{
    prepare_campaign, run_fault_list, run_scifi_campaign_observed, CampaignConfig, FaultList,
};
use bera_goofi::experiment::{
    golden_run, ExperimentRecord, FaultModel, FaultSpec, GoldenRun, Provenance,
};
use bera_goofi::observer::{NullObserver, Telemetry};
use bera_goofi::planner::{plan_campaign, records_equivalent, PlanAction};
use bera_goofi::workload::Workload;
use bera_tcpu::access::{Access, AccessKind};
use bera_tcpu::scan;
use proptest::prelude::*;
use std::sync::OnceLock;

fn run(workload: &Workload, cfg: &CampaignConfig) -> Vec<ExperimentRecord> {
    run_scifi_campaign_observed(workload, cfg, &NullObserver).records
}

fn provenance_counts(records: &[ExperimentRecord]) -> (usize, usize, usize) {
    let count = |p: Provenance| records.iter().filter(|r| r.provenance == p).count();
    (
        count(Provenance::Simulated),
        count(Provenance::Analytic),
        count(Provenance::Replicated),
    )
}

/// Asserts record-for-record equivalence in the pruner's sense: identical
/// classification, differing at most in provenance metadata.
fn assert_equivalent(pruned: &[ExperimentRecord], unpruned: &[ExperimentRecord]) {
    assert_eq!(pruned.len(), unpruned.len());
    for (i, (p, u)) in pruned.iter().zip(unpruned).enumerate() {
        assert!(
            records_equivalent(p, u),
            "fault index {i} diverges\npruned:   {p:?}\nunpruned: {u:?}"
        );
    }
}

fn equivalence_500(workload: &Workload, seed: u64) {
    for model in [FaultModel::SingleBit, FaultModel::AdjacentDoubleBit] {
        let mut cfg = CampaignConfig::quick(500, seed);
        cfg.threads = 0; // all cores; sharding is outcome-invariant
        cfg.fault_model = model;
        equivalence_for(workload, cfg);
    }
}

fn equivalence_for(workload: &Workload, mut cfg: CampaignConfig) {
    let pruned = run(workload, &cfg);
    cfg.prune = false;
    let unpruned = run(workload, &cfg);

    assert_equivalent(&pruned, &unpruned);

    // The pruned run classified a substantial share analytically. (Exact-
    // bit equivalence classes are rare at 500 faults over ~2400 scan bits;
    // replication is exercised by the dedicated test below.)
    let (sim, analytic, replicated) = provenance_counts(&pruned);
    assert!(analytic > 0, "no fault classified analytically");
    assert_eq!(sim + analytic + replicated, cfg.faults);
    assert!(
        provenance_counts(&unpruned) == (cfg.faults, 0, 0),
        "an unpruned campaign simulates every fault"
    );

    // Analytic outcomes can only be the two the trace proves.
    for r in &pruned {
        if r.provenance == Provenance::Analytic {
            assert!(
                matches!(
                    r.outcome,
                    bera_goofi::Outcome::Latent | bera_goofi::Outcome::Overwritten
                ),
                "analytic record with outcome {:?}",
                r.outcome
            );
        }
    }
}

#[test]
fn pruned_algorithm_one_is_record_for_record_identical_to_unpruned() {
    equivalence_500(&Workload::algorithm_one(), 21);
}

#[test]
fn pruned_algorithm_two_is_record_for_record_identical_to_unpruned() {
    equivalence_500(&Workload::algorithm_two(), 22);
}

#[test]
fn replication_fires_at_scale_and_stays_bit_identical() {
    // Equivalence classes need two sampled faults on the *same scan bit*
    // whose injection times fall in the same first-read window — rare
    // below ~1000 faults. At 2000 faults the replication pass runs for
    // real, and every replicated record must still match the full
    // simulation of its fault.
    let workload = Workload::algorithm_one();
    let mut cfg = CampaignConfig::quick(2000, 21);
    cfg.threads = 0;
    let pruned = run(&workload, &cfg);
    let (_, _, replicated) = provenance_counts(&pruned);
    assert!(replicated > 0, "seed must produce at least one class merge");

    cfg.prune = false;
    let unpruned = run(&workload, &cfg);
    assert_equivalent(&pruned, &unpruned);

    // Replicated members carry a detection latency rebased to their own
    // injection time, never the representative's raw value copied blind.
    for (p, u) in pruned.iter().zip(&unpruned) {
        if p.provenance == Provenance::Replicated {
            assert_eq!(p.detection_latency, u.detection_latency);
        }
    }
}

#[test]
fn every_fault_model_matches_its_unpruned_run() {
    let workload = Workload::algorithm_one();
    let models = [
        FaultModel::SingleBit,
        FaultModel::AdjacentDoubleBit,
        FaultModel::Intermittent {
            reassert_iterations: 2,
        },
        FaultModel::StuckAt { value: false },
        FaultModel::StuckAt { value: true },
        FaultModel::Burst { width: 3 },
    ];
    for model in models {
        let mut cfg = CampaignConfig::quick(80, 31);
        cfg.fault_model = model;
        let pruned = run(&workload, &cfg);
        cfg.prune = false;
        let unpruned = run(&workload, &cfg);

        assert_equivalent(&pruned, &unpruned);
        let (_, analytic, replicated) = provenance_counts(&pruned);
        if model.reassert_budget() == 0 {
            assert!(analytic > 0, "{model:?}: a flip-model campaign must prune");
        } else {
            // Re-asserting models bypass the planner: the two runs are the
            // same code path, so even the provenance metadata is identical.
            assert_eq!((analytic, replicated), (0, 0), "{model:?} must not prune");
            let json = |rs: &[ExperimentRecord]| -> Vec<String> {
                rs.iter()
                    .map(|r| serde_json::to_string(r).expect("serialize"))
                    .collect()
            };
            assert_eq!(json(&pruned), json(&unpruned), "{model:?}");
        }
    }
}

#[test]
fn parity_cache_campaigns_bypass_the_pruner() {
    // EDM-asynchronous observation: with the parity checker armed, cache
    // faults can trap *between* the accesses the trace records, so the
    // trace is not a sound basis for classification and the planner must
    // decline (mirroring the convergence pruner's `quiescent()` gate).
    let workload = Workload::algorithm_one();
    let mut cfg = CampaignConfig::quick(40, 13);
    cfg.loop_cfg.parity_cache = true;
    let pruned = run(&workload, &cfg);
    assert_eq!(provenance_counts(&pruned).0, cfg.faults);

    cfg.prune = false;
    let unpruned = run(&workload, &cfg);
    let json = |rs: &[ExperimentRecord]| -> Vec<String> {
        rs.iter()
            .map(|r| serde_json::to_string(r).expect("serialize"))
            .collect()
    };
    assert_eq!(json(&pruned), json(&unpruned));
}

#[test]
fn paranoid_mode_cross_checks_class_members_in_campaign() {
    // `paranoid` re-simulates members of every equivalence class and
    // panics inside the campaign on any disagreement with the replicated
    // record, so a clean completion *is* the soundness check. The records
    // themselves must be untouched by the auditing.
    let workload = Workload::algorithm_one();
    let mut cfg = CampaignConfig::quick(2000, 21);
    cfg.threads = 0;
    cfg.paranoid = 2;
    let audited = run(&workload, &cfg);
    assert!(
        provenance_counts(&audited).2 > 0,
        "seed must produce replicated records for the audit to bite"
    );

    cfg.paranoid = 0;
    let plain = run(&workload, &cfg);
    for (i, (a, p)) in audited.iter().zip(&plain).enumerate() {
        assert_eq!(
            serde_json::to_string(a).expect("serialize"),
            serde_json::to_string(p).expect("serialize"),
            "paranoid auditing perturbed record {i}"
        );
    }
}

// ---------------------------------------------------------------------------
// Plan-level properties: the trace analysis is load-bearing.
// ---------------------------------------------------------------------------

/// One traced golden run of Algorithm I under the quick loop config,
/// shared across property cases — the golden run does not depend on the
/// fault-list seed, only the sampled fault list does.
fn shared_golden() -> &'static (GoldenRun, CampaignConfig) {
    static CELL: OnceLock<(GoldenRun, CampaignConfig)> = OnceLock::new();
    CELL.get_or_init(|| {
        let cfg = CampaignConfig::quick(3000, 0);
        let golden = golden_run(&Workload::algorithm_one(), &cfg.loop_cfg);
        (golden, cfg)
    })
}

fn sample_faults(seed: u64) -> Vec<FaultSpec> {
    let (golden, cfg) = shared_golden();
    FaultList::sample(cfg.faults, seed, golden.total_instructions).faults
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random-seed generalisation of the fixed-seed suites above, over
    /// both algorithms and every fault model: pruned and unpruned
    /// campaigns agree record for record.
    #[test]
    fn pruning_is_outcome_invariant_for_random_seeds(
        seed in 0u64..1_000,
        model_pick in 0usize..6,
    ) {
        let workload = if seed.is_multiple_of(2) {
            Workload::algorithm_one()
        } else {
            Workload::algorithm_two()
        };
        let mut cfg = CampaignConfig::quick(24, seed);
        cfg.fault_model = match model_pick {
            0 => FaultModel::SingleBit,
            1 => FaultModel::AdjacentDoubleBit,
            2 => FaultModel::Intermittent { reassert_iterations: 2 },
            3 => FaultModel::StuckAt { value: false },
            4 => FaultModel::StuckAt { value: true },
            _ => FaultModel::Burst { width: 3 },
        };
        let pruned = run(&workload, &cfg);
        cfg.prune = false;
        let unpruned = run(&workload, &cfg);
        prop_assert_eq!(pruned.len(), unpruned.len());
        for (p, u) in pruned.iter().zip(&unpruned) {
            prop_assert!(records_equivalent(p, u), "{:?} vs {:?}", p, u);
        }
    }

    /// The live-instant boundary is exact: whatever instant a fault is
    /// first observed at, resuming the simulator there from a checkpoint
    /// plus the surviving flips must classify like a replay from
    /// injection. Narrow fault lists at random seeds exercise boundaries
    /// the fixed-seed suites may miss (checkpoint edges,
    /// injection-adjacent accesses, multi-bit shrinking).
    #[test]
    fn resume_boundaries_are_exact_for_random_seeds(seed in 0u64..1_000) {
        let workload = Workload::algorithm_one();
        let mut cfg = CampaignConfig::quick(32, seed);
        cfg.fault_model = match seed % 3 {
            0 => FaultModel::SingleBit,
            1 => FaultModel::AdjacentDoubleBit,
            _ => FaultModel::Burst { width: 3 },
        };
        let pruned = run(&workload, &cfg);
        cfg.prune = false;
        let unpruned = run(&workload, &cfg);
        for (p, u) in pruned.iter().zip(&unpruned) {
            prop_assert!(records_equivalent(p, u), "{:?} vs {:?}", p, u);
        }
    }

    /// An extra read landing between two class members' injection times is
    /// visible to one but not the other: the pruner must stop merging them.
    #[test]
    fn an_extra_read_between_members_defeats_class_merging(seed in 0u64..1_000) {
        let (golden, cfg) = shared_golden();
        let faults = sample_faults(seed);
        let plan = plan_campaign(&faults, cfg, golden);

        // Find a replicated member whose injection time differs from its
        // representative's (most seeds have one; skip the case otherwise).
        let Some((member, rep)) = plan.actions().iter().enumerate().find_map(|(i, a)| {
            match a {
                PlanAction::Replicate { representative }
                    if faults[i].inject_at != faults[*representative].inject_at
                        && scan::catalog()[faults[i].location_index]
                            .trace_unit()
                            .is_some() =>
                {
                    Some((i, *representative))
                }
                _ => None,
            }
        }) else {
            return Ok(());
        };

        let unit = scan::catalog()[faults[member].location_index]
            .trace_unit()
            .expect("filtered to traceable units above");
        let lo = faults[member].inject_at.min(faults[rep].inject_at);
        let hi = faults[member].inject_at.max(faults[rep].inject_at);
        // Visible to the earlier injection only: `lo <= at < hi`.
        let mut perturbed = golden.clone();
        perturbed.trace.insert_for_test(unit, Access { at: hi - 1, kind: AccessKind::Read });
        prop_assert!(lo < hi);

        let replanned = plan_campaign(&faults, cfg, &perturbed);
        let same_class = replanned.classes().iter().any(|(r, members)| {
            let all: Vec<usize> = std::iter::once(*r).chain(members.iter().copied()).collect();
            all.contains(&member) && all.contains(&rep)
        });
        prop_assert!(
            !same_class,
            "faults {} and {} still share a class after the trace diverged",
            member, rep
        );
    }

    /// Narrowing an overwriting full-width write to a partial write must
    /// revoke the analytic `Overwritten` verdict: a partial write neither
    /// kills the flip nor (conservatively) proves a use.
    #[test]
    fn a_narrowed_write_revokes_the_overwritten_verdict(seed in 0u64..1_000) {
        let (golden, cfg) = shared_golden();
        let faults = sample_faults(seed);
        let plan = plan_campaign(&faults, cfg, golden);

        let Some(victim) = plan.actions().iter().enumerate().position(|(i, a)| {
            matches!(a, PlanAction::Analytic(bera_goofi::Outcome::Overwritten))
                && scan::catalog()[faults[i].location_index].trace_unit().is_some()
        }) else {
            return Ok(());
        };
        let unit = scan::catalog()[faults[victim].location_index]
            .trace_unit()
            .expect("filtered to traceable units above");
        // The verdict came from the first access at-or-after injection
        // being a full write; narrow exactly that one.
        let mut perturbed = golden.clone();
        let first = perturbed
            .trace
            .accesses(unit)
            .partition_point(|a| a.at < faults[victim].inject_at);
        perturbed.trace.set_kind_for_test(unit, first, AccessKind::PartialWrite);

        let replanned = plan_campaign(&faults, cfg, &perturbed);
        prop_assert!(
            !matches!(replanned.action(victim), PlanAction::Analytic(_)),
            "a partial write must not keep the analytic verdict"
        );
    }

    /// EDM-visibility soundness, half one: a `Latent` claim on an
    /// untraceable bit rests on *no* asynchronous observer sampling its
    /// unit after injection. Adding one extra EDM sample inside that
    /// window must defeat the claim and force simulation (or, at most,
    /// position-keyed replication — never an analytic verdict).
    #[test]
    fn an_extra_edm_sample_defeats_the_vis_latent_claim(seed in 0u64..1_000) {
        let (golden, cfg) = shared_golden();
        let faults = sample_faults(seed);
        let plan = plan_campaign(&faults, cfg, golden);

        // A latent verdict earned through the visibility trace: the bit
        // has no def/use unit but does have a visibility unit. (The
        // operand latch resolves by shift count, not window accesses, so
        // its `vis_unit` is `None` and it is excluded here.)
        let Some(victim) = plan.actions().iter().enumerate().position(|(i, a)| {
            let bit = scan::catalog()[faults[i].location_index];
            matches!(a, PlanAction::Analytic(bera_goofi::Outcome::Latent))
                && bit.trace_unit().is_none()
                && bit.vis_unit().is_some()
        }) else {
            return Ok(());
        };
        let unit = scan::catalog()[faults[victim].location_index]
            .vis_unit()
            .expect("filtered to visibility units above");

        let mut perturbed = golden.clone();
        perturbed.vis.insert_for_test(
            unit,
            Access { at: faults[victim].inject_at, kind: AccessKind::Read },
        );

        let replanned = plan_campaign(&faults, cfg, &perturbed);
        prop_assert!(
            !matches!(replanned.action(victim), PlanAction::Analytic(_)),
            "an extra EDM sample must defeat the latent claim"
        );
    }

    /// EDM-visibility soundness, half two: an `Overwritten` claim rests on
    /// the window *closing* with a whole-unit deposit before any sample.
    /// Shrinking that boundary — demoting the closing write to a partial
    /// one — must revoke the analytic verdict.
    #[test]
    fn shrinking_a_visibility_window_revokes_the_overwritten_claim(seed in 0u64..1_000) {
        let (golden, cfg) = shared_golden();
        let faults = sample_faults(seed);
        let plan = plan_campaign(&faults, cfg, golden);

        let Some(victim) = plan.actions().iter().enumerate().position(|(i, a)| {
            let bit = scan::catalog()[faults[i].location_index];
            matches!(a, PlanAction::Analytic(bera_goofi::Outcome::Overwritten))
                && bit.trace_unit().is_none()
                && bit.vis_unit().is_some()
        }) else {
            return Ok(());
        };
        let unit = scan::catalog()[faults[victim].location_index]
            .vis_unit()
            .expect("filtered to visibility units above");

        // The verdict came from the first window event at-or-after
        // injection being a whole-unit deposit; demote exactly that one.
        let mut perturbed = golden.clone();
        let first = perturbed
            .vis
            .accesses(unit)
            .partition_point(|a| a.at < faults[victim].inject_at);
        perturbed.vis.set_kind_for_test(unit, first, AccessKind::PartialWrite);

        let replanned = plan_campaign(&faults, cfg, &perturbed);
        prop_assert!(
            !matches!(replanned.action(victim), PlanAction::Analytic(_)),
            "a shrunk visibility window must revoke the overwritten claim"
        );
    }
}

/// A pinned fault list over the architectural state the def/use trace
/// cannot see — PSR flags, the signature register, cache tag/valid/dirty
/// metadata, the store and fill buffers — with injection times spread
/// across the run. Classification here comes from the EDM-visibility
/// layer, so these locations are exactly where its soundness is at stake.
fn pinned_untraceable_faults(golden: &GoldenRun) -> Vec<FaultSpec> {
    let locations: Vec<usize> = scan::catalog()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            use scan::BitLocation::*;
            matches!(
                l,
                Psr { .. }
                    | SigReg { .. }
                    | CacheTag { .. }
                    | CacheValid { .. }
                    | CacheDirty { .. }
                    | StoreBufAddr { .. }
                    | StoreBufData { .. }
                    | StoreBufValid
                    | FillBufAddr { .. }
                    | FillBufData { .. }
                    | FillBufParity
                    | FillBufValid
            )
        })
        .map(|(i, _)| i)
        .collect();
    let total = golden.total_instructions;
    locations
        .iter()
        .step_by(locations.len().div_ceil(40).max(1))
        .flat_map(|&location_index| {
            [1, total / 3, 2 * total / 3, total - 1].map(|inject_at| FaultSpec {
                location_index,
                inject_at,
            })
        })
        .collect()
}

/// The EDM-visibility layer's end-to-end equivalence claim over the
/// untraceable set: under every fault model, the pinned list classifies
/// record-for-record identically whether the campaign runs with the
/// default layers, without the pruner, or without the visibility layer —
/// only provenance metadata may differ.
#[test]
fn untraceable_locations_are_equivalent_across_models_and_layers() {
    let workload = Workload::algorithm_one();
    let (golden, base) = shared_golden();
    let faults = pinned_untraceable_faults(golden);
    assert!(faults.len() >= 100, "the pinned list must cover the set");
    let models = [
        FaultModel::SingleBit,
        FaultModel::AdjacentDoubleBit,
        FaultModel::Intermittent {
            reassert_iterations: 2,
        },
        FaultModel::StuckAt { value: true },
        FaultModel::Burst { width: 3 },
    ];
    for model in models {
        let mut cfg = base.clone();
        cfg.fault_model = model;
        let default_run = run_fault_list(&workload, &cfg, golden, &faults);

        let mut no_prune = cfg.clone();
        no_prune.prune = false;
        let unpruned = run_fault_list(&workload, &no_prune, golden, &faults);

        let mut no_vis = cfg.clone();
        no_vis.vis = false;
        let unvis = run_fault_list(&workload, &no_vis, golden, &faults);

        for (i, d) in default_run.iter().enumerate() {
            assert!(
                records_equivalent(d, &unpruned[i]),
                "{model:?} fault {i} diverges without the pruner\n\
                 default:  {d:?}\nunpruned: {:?}",
                unpruned[i]
            );
            assert!(
                records_equivalent(d, &unvis[i]),
                "{model:?} fault {i} diverges without the visibility layer\n\
                 default: {d:?}\nunvis:   {:?}",
                unvis[i]
            );
        }
        if model.reassert_budget() == 0 {
            // The pinned set is invisible to the def/use trace, so any
            // analytic record here was earned by the visibility layer.
            let (_, analytic, _) = provenance_counts(&default_run);
            assert!(
                analytic > 0,
                "{model:?}: the visibility layer must carry this set"
            );
        }
        if model == FaultModel::SingleBit {
            assert_eq!(
                provenance_counts(&unvis).1,
                0,
                "without it nothing on this set is analytic"
            );
        }
    }
}

/// The resolver's telemetry partitions the planned campaign: every flip
/// fault is either resolved from the traces or opaque, live faults are a
/// subset of the resolved ones, and every `pruned_at` in the record stream
/// was announced to the observer.
#[test]
fn resolver_telemetry_counts_are_coherent() {
    let workload = Workload::algorithm_two();
    let mut cfg = CampaignConfig::quick(300, 46);
    cfg.fault_model = FaultModel::AdjacentDoubleBit;
    let telemetry = Telemetry::new(cfg.faults);
    let result = run_scifi_campaign_observed(&workload, &cfg, &telemetry);
    let snap = telemetry.snapshot();

    assert!(snap.batch_members > 0, "a flip campaign resolves faults");
    assert_eq!(snap.batch_members + snap.batch_untraceable, cfg.faults);
    assert!(snap.split_offs <= snap.batch_members);
    assert!((0.0..=1.0).contains(&snap.split_off_rate()));
    let (_, analytic, replicated) = provenance_counts(&result.records);
    assert_eq!(snap.analytic, analytic);
    assert_eq!(snap.replicated, replicated);
    assert_eq!(analytic + snap.split_offs, snap.batch_members);
    assert_eq!(
        snap.pruned,
        result
            .records
            .iter()
            .filter(|r| r.pruned_at.is_some())
            .count()
    );
}

/// The `instruction_cap` boundary: a fault scheduled past the end of the
/// golden run is opaque to the trace and must stay simulated.
#[test]
fn faults_past_the_run_end_are_simulated_not_pruned() {
    let workload = Workload::algorithm_one();
    let cfg = CampaignConfig::quick(1, 3);
    let prepared = prepare_campaign(&workload, &cfg);
    let golden = prepared.golden();
    let faults = [bera_goofi::FaultSpec {
        location_index: 0,
        inject_at: golden.total_instructions,
    }];
    let plan = plan_campaign(&faults, &cfg, golden);
    assert_eq!(plan.action(0), PlanAction::Simulate);
}
