//! Class-level equivalence of the fate resolver, at the seeds, fault
//! counts and pinned lists the batch engine was once held to.
//!
//! The resolver (`DESIGN.md` § 8e) classifies each flip fault from the
//! golden access trace: a fault the trace proves overwritten or latent
//! gets an analytic record, faults that provably run identically share
//! one simulated representative, and every simulated fault runs from
//! injection under diff replay (§ 8l). The test names keep the words of
//! the lockstep batch engine this suite was written for, which the
//! resolver has since replaced: "batched" is the default engine and
//! "scalar" the plain reference of the differential oracle
//! (`tests/oracle`), which interprets every fault from reset. The
//! contract is that of a pure wall-clock optimisation: every record
//! carries the reference's classification and may differ only in the
//! provenance metadata that says *how* it was obtained.
//!
//! * fixed-seed 500-fault campaigns on both algorithms;
//! * every fault model, the re-asserting ones (intermittent, stuck-at)
//!   through the eligibility gate that must bypass the resolver, where
//!   even the bytes must match `prune: false`;
//! * a pinned list over the state the def/use trace cannot see;
//! * random seeds over both algorithms and every model.

mod oracle;

use bera_goofi::campaign::CampaignConfig;
use bera_goofi::experiment::{golden_run, FaultModel, FaultSpec, Provenance};
use bera_goofi::workload::Workload;
use oracle::{check, Campaign, Point, MODELS};
use proptest::prelude::*;

#[test]
fn batched_algorithm_one_is_record_for_record_identical_to_scalar() {
    let campaign = Campaign::sampled(Workload::algorithm_one(), FaultModel::SingleBit, 500, 41);
    check(&campaign, &[Point::DEFAULT.threads(2)]);
}

#[test]
fn batched_algorithm_two_is_record_for_record_identical_to_scalar() {
    let campaign = Campaign::sampled(Workload::algorithm_two(), FaultModel::SingleBit, 500, 42);
    check(&campaign, &[Point::DEFAULT.threads(2)]);
}

#[test]
fn every_fault_model_matches_its_scalar_run() {
    // A non-quiescent injector re-asserts between trace samples, so the
    // eligibility gate must route the whole campaign down the
    // `prune: false` path: the oracle holds the two points byte-identical.
    for model in MODELS {
        let campaign = Campaign::sampled(Workload::algorithm_one(), model, 120, 43);
        check(&campaign, &[Point::DEFAULT, Point::DEFAULT.prune(false)]);
    }
}

/// A pinned fault list over the state the def/use trace cannot see —
/// PSR flags, the signature register, cache metadata, the store and fill
/// buffers — where resolution rides on the EDM-visibility units of the
/// golden trace. Under every flip model some of these faults must resolve
/// analytically.
#[test]
fn untraceable_locations_batch_equivalently_across_models() {
    let workload = Workload::algorithm_one();
    let golden = golden_run(&workload, &CampaignConfig::quick(24, 47).loop_cfg);
    let faults: Vec<FaultSpec> = oracle::untraceable_locations()
        .into_iter()
        .step_by(7)
        .flat_map(|location_index| {
            let total = golden.total_instructions;
            [total / 4, total / 2].map(|inject_at| FaultSpec {
                location_index,
                inject_at,
            })
        })
        .collect();
    assert!(faults.len() >= 40, "the pinned list must cover the set");
    for model in MODELS {
        let campaign = Campaign::listed(workload.clone(), model, faults.clone());
        let analytic = check(&campaign, &[Point::DEFAULT])[0].count(Provenance::Analytic);
        assert!(
            model.reassert_budget() > 0 || analytic > 0,
            "{model:?}: nothing resolved"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random-seed generalisation of the fixed-seed suites above, over
    /// both algorithms and every fault model.
    #[test]
    fn batching_is_outcome_invariant_for_random_seeds(
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
}
