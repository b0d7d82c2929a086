//! The pruning equivalence suite.
//!
//! The fate resolver's contract (`DESIGN.md` § 8e) is that a pruned
//! campaign is a pure wall-clock optimisation: every record carries the
//! classification a full simulation of that fault would have produced,
//! differing only in the provenance metadata that says *how* it was
//! obtained. These tests check it through the differential oracle
//! (`tests/oracle`) against the plain reference, which interprets every
//! fault from reset: fixed-seed 500- and 2 000-fault campaigns (the
//! latter large enough for faults that share a fate), every fault model (the
//! re-asserting ones and parity-cache runs bypass the resolver and stay
//! byte-identical to `prune: false`), pinned untraceable and replay-edge
//! lists, pinned runs through the boundary decision's plant-only and
//! shifted re-entry arms, random seeds, the paper's 650 iterations, and
//! `paranoid` audits, whose clean completion is itself the assertion.
//!
//! Property tests show the planner's analysis is *load-bearing*: a
//! perturbed golden trace (an extra read between two faults that share a
//! fate, a full write narrowed to a partial one, a derived unit's write
//! undone by flipping the refetch bit it follows from) changes the fates.
//! The full lattice of engine configurations is one ignored sweep:
//! `cargo test --release --test prune_equivalence -- --ignored`.

mod oracle;

use bera_goofi::campaign::{
    prepare_campaign, run_scifi_campaign_observed, CampaignConfig, FaultList,
};
use bera_goofi::experiment::{golden_run, FaultModel, FaultSpec, GoldenRun, Provenance};
use bera_goofi::observer::Telemetry;
use bera_goofi::planner::{plan_campaign, resolve, Fate, PlanAction};
use bera_goofi::workload::Workload;
use bera_tcpu::access::{Access, AccessKind, AccessTrace, TraceUnit};
use bera_tcpu::scan;
use bera_tcpu::vis::VisUnit;
use oracle::{check, Campaign, Point, MODELS};
use proptest::prelude::*;
use std::sync::OnceLock;

#[test]
fn pruned_algorithm_one_is_record_for_record_identical_to_unpruned() {
    for model in [FaultModel::SingleBit, FaultModel::AdjacentDoubleBit] {
        let campaign = Campaign::sampled(Workload::algorithm_one(), model, 500, 21);
        check(&campaign, &[Point::DEFAULT.threads(2)]);
    }
}

#[test]
fn pruned_algorithm_two_is_record_for_record_identical_to_unpruned() {
    for model in [FaultModel::SingleBit, FaultModel::AdjacentDoubleBit] {
        let campaign = Campaign::sampled(Workload::algorithm_two(), model, 500, 22);
        check(&campaign, &[Point::DEFAULT.threads(2)]);
    }
}

#[test]
fn faults_sharing_a_fate_simulate_alike_and_stay_bit_identical() {
    // Two sampled faults on the *same scan bit* whose injection times
    // fall in the same first-read window share a fate — rare below ~1000
    // faults. Each simulates by itself, matches the reference, and
    // carries a detection latency measured from its own injection.
    let campaign = Campaign::sampled(Workload::algorithm_one(), FaultModel::SingleBit, 2000, 21);
    let runs = check(&campaign, &[Point::DEFAULT.threads(2)]);
    let prepared = prepare_campaign(&campaign.workload, &CampaignConfig::quick(2000, 21));
    let (golden, faults) = (prepared.golden(), prepared.faults());
    let mut live = live_faults(golden, faults);
    live.sort_unstable();
    let pairs: Vec<(usize, usize)> = live
        .windows(2)
        .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        .map(|w| (w[0].3, w[1].3))
        .collect();
    assert!(!pairs.is_empty(), "no two faults share a fate");
    let records = &runs[0].result.records;
    for (i, j) in pairs {
        let (a, b) = (&records[i], &records[j]);
        assert_eq!(a.provenance, Provenance::Simulated, "fault index {i}");
        assert_eq!(b.provenance, Provenance::Simulated, "fault index {j}");
        // One trajectory from the live instant on: one outcome, and any
        // trap at one absolute instant.
        assert_eq!(a.outcome, b.outcome, "fault indices {i} and {j}");
        assert_eq!(a.outputs, b.outputs, "fault indices {i} and {j}");
        assert_eq!(
            a.detection_latency.map(|l| faults[i].inject_at + l),
            b.detection_latency.map(|l| faults[j].inject_at + l),
            "fault indices {i} and {j}"
        );
    }
}

#[test]
fn every_fault_model_matches_its_unpruned_run() {
    // Re-asserting models bypass the planner: the two points share a key,
    // so the oracle holds them byte-identical.
    for model in MODELS {
        let campaign = Campaign::sampled(Workload::algorithm_one(), model, 80, 31);
        check(&campaign, &[Point::DEFAULT, Point::DEFAULT.prune(false)]);
    }
}

#[test]
fn parity_cache_campaigns_bypass_the_pruner() {
    // EDM-asynchronous observation: with the parity checker armed, cache
    // faults can trap *between* the accesses the trace records, so the
    // trace is not a sound basis for classification and the planner must
    // decline; the oracle then requires every record simulated and the
    // two points byte-identical.
    let model = FaultModel::SingleBit;
    let campaign = Campaign {
        parity_cache: true,
        ..Campaign::sampled(Workload::algorithm_one(), model, 40, 13)
    };
    check(&campaign, &[Point::DEFAULT, Point::DEFAULT.prune(false)]);
}

#[test]
fn paranoid_mode_audits_replayed_runs_in_campaign() {
    // `paranoid` re-runs sampled diff-replayed experiments on the
    // interpreter alone and panics inside the campaign on any
    // disagreement with the replayed record, so a clean completion *is*
    // the soundness check. The records themselves must be untouched by
    // the auditing: byte-identical.
    let campaign = Campaign::sampled(Workload::algorithm_one(), FaultModel::SingleBit, 2000, 21);
    let audited = Point::DEFAULT.threads(2).paranoid(2);
    let runs = check(&campaign, &[audited, Point::DEFAULT.threads(2)]);
    assert!(runs[0].telemetry.replayed > 0, "nothing replayed");
    let replayed = runs[0].count(Provenance::Simulated);
    assert!(replayed > 0, "nothing to audit");
}

/// The default engine against the plain reference at the paper's run
/// length, where runs pass many recall checkpoints beyond the eighth and
/// diff replay both carries runs and falls back; a three-shard farm must
/// agree with it byte for byte.
#[test]
fn default_engine_matches_the_plain_reference_at_paper_length() {
    let points = [Point::DEFAULT, Point::DEFAULT.farm(3)];
    for (workload, model) in [
        (Workload::algorithm_one(), FaultModel::SingleBit),
        (Workload::algorithm_two(), FaultModel::AdjacentDoubleBit),
    ] {
        let campaign = Campaign::sampled(workload, model, 40, 650).iterations(650);
        let runs = check(&campaign, &points);
        let t = &runs[0].telemetry;
        let fallbacks: usize = t.fallbacks().iter().map(|&(_, n)| n).sum();
        let name = campaign.workload.name();
        assert!(t.replayed > 0 && fallbacks > 0, "{name}: nothing replayed");
    }
}

/// Two faults of the paper's Algorithm II double-bit campaign (seed
/// 20010701) whose diff replay hinges on the instant a dying diff entry
/// leaves the diff: expiring it one instant early misclassifies the first
/// as latent.
#[test]
fn replay_death_instants_match_the_plain_reference() {
    let faults = [(1413, 24_410), (1482, 94_352)].map(|(location_index, inject_at)| FaultSpec {
        location_index,
        inject_at,
    });
    let model = FaultModel::AdjacentDoubleBit;
    let campaign = Campaign::listed(Workload::algorithm_two(), model, faults.to_vec());
    check(&campaign.iterations(650), &[Point::DEFAULT]);
}

/// A fault of the paper's Algorithm I campaign (seed 20010701) whose run
/// reaches a golden checkpoint with golden's machine but not golden's
/// plant: the plant-only stretch steps the plant alone from iteration 576
/// until its speed port leaves golden's at an iteration before 588, and the
/// run goes on from golden's checkpoint at 584, interpreted, to a
/// transient value failure.
#[test]
fn a_plant_only_stretch_that_ends_before_the_run_matches_the_plain_reference() {
    let fault = FaultSpec {
        location_index: 19,
        inject_at: 8_955,
    };
    let model = FaultModel::SingleBit;
    let campaign = Campaign::listed(Workload::algorithm_one(), model, vec![fault]);
    let runs = check(&campaign.iterations(650), &[Point::DEFAULT]);
    assert_eq!(runs[0].telemetry.plant_only_iterations, 8);
    let record = &runs[0].result.records[0];
    assert!(record.outcome.is_value_failure() && record.pruned_at.is_none());
}

/// Three faults of the paper's Algorithm I campaign (seed 20010701) that
/// fall back from diff replay and reach a golden checkpoint with a
/// carriable diff 1 280, 10 and −120 instructions off golden's count: each
/// goes back to replay shifted by that offset, to a latent end, a latent
/// end and convergence. Unsupervised, so a debug build's lockstep check of
/// each shifted segment (its states and instruction counts against the
/// interpreter's) fails the test instead of a retry.
#[test]
fn shifted_reentries_match_the_plain_reference() {
    let faults =
        [(1677, 3_374), (1670, 79_366), (1650, 858)].map(|(location_index, inject_at)| FaultSpec {
            location_index,
            inject_at,
        });
    let model = FaultModel::SingleBit;
    let campaign = Campaign::listed(Workload::algorithm_one(), model, faults.to_vec());
    let runs = check(
        &campaign.iterations(650),
        &[Point::DEFAULT.supervised(false)],
    );
    assert_eq!(runs[0].telemetry.shifted_reentries, 3);
}

/// Every lattice point on both workloads, every fault model, and both
/// run lengths (slow in debug builds; CI runs it in release).
#[test]
#[ignore = "full lattice sweep: run with --ignored in release"]
fn full_lattice_sweep() {
    // Stride × prune × fast replay × supervision, then the other axes.
    let mut points: Vec<Point> = [0, 4, 5]
        .into_iter()
        .flat_map(|stride| {
            (0..8).map(move |bits| {
                let point = Point::DEFAULT.stride(stride).prune(bits & 4 != 0);
                point.fast_replay(bits & 2 != 0).supervised(bits & 1 != 0)
            })
        })
        .collect();
    points.extend([
        Point::DEFAULT.threads(2),
        Point::DEFAULT.paranoid(2),
        Point::DEFAULT.resume(&[(9, 0), (30, 11)]),
        Point::DEFAULT.farm(1),
        Point::DEFAULT.farm(3),
        Point::DEFAULT.prune(false).farm(3),
    ]);
    for workload in [Workload::algorithm_one(), Workload::algorithm_two()] {
        for model in MODELS {
            for (iterations, faults) in [(60, 120), (650, 60)] {
                let campaign =
                    Campaign::sampled(workload.clone(), model, faults, 19).iterations(iterations);
                check(&campaign, &points);
            }
        }
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

/// The trace unit of the scan bit at `location_index` when it is a
/// visibility unit (state consulted asynchronously by an EDM or the
/// pipeline).
fn vis_unit(location_index: usize) -> Option<TraceUnit> {
    scan::catalog()[location_index]
        .trace_unit()
        .filter(|u| matches!(u, TraceUnit::Vis(_)))
}

/// A single-bit fault's fate.
fn fate(golden: &GoldenRun, f: FaultSpec) -> Fate {
    resolve(
        &[scan::catalog()[f.location_index]],
        f.inject_at,
        &golden.trace,
    )
}

/// `(scan bit, live instant, injection instant, fault index)` of every
/// single-bit fault of `faults` that goes live.
fn live_faults(golden: &GoldenRun, faults: &[FaultSpec]) -> Vec<(usize, u64, u64, usize)> {
    (0..faults.len())
        .filter(|&i| faults[i].inject_at < golden.total_instructions)
        .filter_map(|i| match fate(golden, faults[i]) {
            Fate::Live { at, .. } => Some((faults[i].location_index, at, faults[i].inject_at, i)),
            _ => None,
        })
        .collect()
}

/// Undoes the full write that gave a single-bit fault in `unit`,
/// injected at `inject_at`, its `Overwritten` verdict. A recorded unit's
/// first access at or after injection is narrowed to a partial write. A
/// derived unit (PC, fetch latch) is accessed at every instant, so the
/// write is at `inject_at` and follows from a refetch bit: R(t) for the
/// latch, X(t) = R(t + 1) for the PC. Flipping that bit makes the first
/// event a read.
fn demote_killing_write(trace: &mut AccessTrace, unit: TraceUnit, inject_at: u64) {
    if unit.is_derived() {
        let pc = unit == TraceUnit::Vis(VisUnit::Pc);
        trace.flip_refetch_for_test(inject_at + u64::from(pc));
        return;
    }
    let first = trace.accesses(unit).partition_point(|a| a.at < inject_at);
    trace.set_kind_for_test(unit, first, AccessKind::PartialWrite);
}

/// The pinned twin of the two narrowing properties below on the derived
/// units, which a sampled victim rarely lands on: for each of the PC and
/// the two fetch-latch words, every `Overwritten` fault over a spread of
/// instants loses its analytic verdict once its killing write is undone.
#[test]
fn undoing_a_derived_write_revokes_the_overwritten_verdict() {
    let (golden, cfg) = shared_golden();
    for vis in [VisUnit::Pc, VisUnit::FetchWord, VisUnit::FetchPc] {
        let unit = TraceUnit::Vis(vis);
        let location_index = scan::catalog()
            .iter()
            .position(|l| l.trace_unit() == Some(unit))
            .expect("a scan bit lives in each derived unit");
        let faults: Vec<FaultSpec> = (0..golden.total_instructions)
            .step_by(97)
            .map(|inject_at| FaultSpec {
                location_index,
                inject_at,
            })
            .collect();
        let plan = plan_campaign(&faults, cfg, golden);
        let victims: Vec<usize> = (0..faults.len())
            .filter(|&i| plan.action(i) == PlanAction::Analytic(bera_goofi::Outcome::Overwritten))
            .collect();
        assert!(!victims.is_empty(), "{vis:?} is overwritten somewhere");
        for i in victims {
            let mut perturbed = golden.clone();
            demote_killing_write(&mut perturbed.trace, unit, faults[i].inject_at);
            let replanned = plan_campaign(&faults[i..=i], cfg, &perturbed);
            assert!(
                !matches!(replanned.action(0), PlanAction::Analytic(_)),
                "{vis:?} at {}: an undone write must not keep the verdict",
                faults[i].inject_at
            );
        }
    }
}

fn sample_faults(seed: u64) -> Vec<FaultSpec> {
    let (golden, cfg) = shared_golden();
    FaultList::sample(cfg.faults, seed, golden.total_instructions).faults
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random-seed generalisation of the fixed-seed suites above, over
    /// both algorithms and every fault model.
    #[test]
    fn pruning_is_outcome_invariant_for_random_seeds(
        seed in 0u64..1_000,
        model_pick in 0usize..MODELS.len(),
    ) {
        let workload = if seed.is_multiple_of(2) {
            Workload::algorithm_one()
        } else {
            Workload::algorithm_two()
        };
        check(&Campaign::sampled(workload, MODELS[model_pick], 24, seed), &[Point::DEFAULT]);
    }

    /// The live-instant boundary is exact: whatever instant a fault is
    /// first observed at, diff replay from injection must classify like
    /// the reference. Narrow fault lists at random seeds exercise
    /// boundaries the fixed-seed suites may miss (checkpoint edges,
    /// injection-adjacent accesses, multi-bit shrinking).
    #[test]
    fn resume_boundaries_are_exact_for_random_seeds(seed in 0u64..1_000) {
        let model = [
            FaultModel::SingleBit,
            FaultModel::AdjacentDoubleBit,
            FaultModel::Burst { width: 3 },
        ][(seed % 3) as usize];
        let campaign = Campaign::sampled(Workload::algorithm_one(), model, 32, seed);
        check(&campaign, &[Point::DEFAULT]);
    }

    /// An extra read landing between the injection times of two faults
    /// that share a fate is visible to the earlier one only: it moves the
    /// earlier fault's live instant and leaves the later one's.
    #[test]
    fn an_extra_read_moves_only_the_earlier_live_instant(seed in 0u64..1_000) {
        let (golden, _) = shared_golden();
        let faults = sample_faults(seed);

        // Two faults on one traceable bit, injected at different times,
        // live at one instant (most seeds have a pair; skip otherwise).
        let mut live = live_faults(golden, &faults);
        live.retain(|&(location, ..)| scan::catalog()[location].trace_unit().is_some());
        live.sort_unstable();
        let Some((early, late)) = live
            .windows(2)
            .find(|w| w[0].0 == w[1].0 && w[0].1 == w[1].1 && w[0].2 < w[1].2)
            .map(|w| (faults[w[0].3], faults[w[1].3]))
        else {
            return Ok(());
        };

        let unit = scan::catalog()[early.location_index]
            .trace_unit()
            .expect("filtered to traceable units above");
        let (lo, hi) = (early.inject_at, late.inject_at);
        // Visible to the earlier injection only: `lo <= at < hi`.
        let mut perturbed = golden.clone();
        perturbed.trace.insert_for_test(unit, Access { at: hi - 1, kind: AccessKind::Read });
        prop_assert!(lo < hi);

        prop_assert!(
            matches!(fate(&perturbed, early), Fate::Live { at, .. } if at == hi - 1),
            "the earlier fault {:?} must go live at the inserted read", early
        );
        prop_assert_eq!(fate(&perturbed, late), fate(golden, late));
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
        demote_killing_write(&mut perturbed.trace, unit, faults[victim].inject_at);

        let replanned = plan_campaign(&faults, cfg, &perturbed);
        prop_assert!(
            !matches!(replanned.action(victim), PlanAction::Analytic(_)),
            "a partial write must not keep the analytic verdict"
        );
    }

    /// EDM-visibility soundness, half one: a `Latent` claim on an
    /// untraceable bit rests on *no* asynchronous observer sampling its
    /// unit after injection. Adding one extra EDM sample inside that
    /// window must defeat the claim and force simulation — never an
    /// analytic verdict.
    #[test]
    fn an_extra_edm_sample_defeats_the_vis_latent_claim(seed in 0u64..1_000) {
        let (golden, cfg) = shared_golden();
        let faults = sample_faults(seed);
        let plan = plan_campaign(&faults, cfg, golden);

        // A latent verdict earned through a visibility window: the bit's
        // trace unit is a visibility unit. (The operand latch resolves by
        // shift count, not window accesses, so it has no trace unit and
        // is excluded here.)
        let Some(victim) = plan.actions().iter().enumerate().position(|(i, a)| {
            matches!(a, PlanAction::Analytic(bera_goofi::Outcome::Latent))
                && vis_unit(faults[i].location_index).is_some()
        }) else {
            return Ok(());
        };
        let unit = vis_unit(faults[victim].location_index)
            .expect("filtered to visibility units above");

        let mut perturbed = golden.clone();
        perturbed.trace.insert_for_test(
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
            matches!(a, PlanAction::Analytic(bera_goofi::Outcome::Overwritten))
                && vis_unit(faults[i].location_index).is_some()
        }) else {
            return Ok(());
        };
        let unit = vis_unit(faults[victim].location_index)
            .expect("filtered to visibility units above");

        // The verdict came from the first window event at-or-after
        // injection being a whole-unit deposit; demote exactly that one.
        let mut perturbed = golden.clone();
        demote_killing_write(&mut perturbed.trace, unit, faults[victim].inject_at);

        let replanned = plan_campaign(&faults, cfg, &perturbed);
        prop_assert!(
            !matches!(replanned.action(victim), PlanAction::Analytic(_)),
            "a shrunk visibility window must revoke the overwritten claim"
        );
    }
}

/// A pinned fault list over the architectural state the def/use trace
/// cannot see, with injection times spread across the run.
/// Classification here comes from the EDM-visibility layer, so these
/// locations are exactly where its soundness is at stake.
fn pinned_untraceable_faults(golden: &GoldenRun) -> Vec<FaultSpec> {
    let locations = oracle::untraceable_locations();
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
/// like the reference. The set is invisible to the def/use trace, so any
/// analytic record here was earned by the visibility layer.
#[test]
fn untraceable_locations_are_equivalent_across_models_and_layers() {
    let faults = pinned_untraceable_faults(&shared_golden().0);
    assert!(faults.len() >= 100, "the pinned list must cover the set");
    for model in MODELS {
        let campaign = Campaign::listed(Workload::algorithm_one(), model, faults.clone());
        let analytic = check(&campaign, &[Point::DEFAULT])[0].count(Provenance::Analytic);
        assert!(
            model.reassert_budget() > 0 || analytic > 0,
            "{model:?}: nothing resolved"
        );
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
    let count = |p: Provenance| result.records.iter().filter(|r| r.provenance == p).count();
    let analytic = count(Provenance::Analytic);
    assert_eq!(snap.analytic, analytic);
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
