//! The batched-resolution equivalence suite.
//!
//! Batching is part of the fate resolver (`DESIGN.md` § 8e): a default
//! campaign groups flip faults, resolves what the golden traces prove and
//! resumes the rest at their live instant. Its contract is that of a pure
//! wall-clock optimisation: every record it emits carries the
//! classification a scalar run — `prune: false`, which simulates every
//! fault from injection — would have produced, differing at most in the
//! provenance metadata that says *how* the record was obtained. These
//! tests drive that contract at the seeds, fault counts and pinned lists
//! the scalar path is held to:
//!
//! * fixed-seed 500-fault campaigns on both algorithms are compared
//!   record-for-record against their scalar twins;
//! * every fault model gets the same comparison — the flip models through
//!   the resolver, the re-asserting models (intermittent, stuck-at)
//!   through the eligibility gate that must bypass it, where even the
//!   bytes must match;
//! * a pinned list over the state the def/use trace cannot see batches
//!   equivalently under every model;
//! * a property test generalises the fixed seeds over random seeds, both
//!   algorithms and all models.

use bera_goofi::campaign::{run_fault_list, run_scifi_campaign_observed, CampaignConfig};
use bera_goofi::experiment::{golden_run, ExperimentRecord, FaultModel, FaultSpec, Provenance};
use bera_goofi::observer::NullObserver;
use bera_goofi::planner::records_equivalent;
use bera_goofi::workload::Workload;
use bera_tcpu::scan;
use proptest::prelude::*;

fn run(workload: &Workload, cfg: &CampaignConfig) -> Vec<ExperimentRecord> {
    run_scifi_campaign_observed(workload, cfg, &NullObserver).records
}

fn analytic_count(records: &[ExperimentRecord]) -> usize {
    records
        .iter()
        .filter(|r| r.provenance == Provenance::Analytic)
        .count()
}

/// Asserts record-for-record equivalence in the optimiser's sense:
/// identical classification, differing at most in provenance metadata.
fn assert_equivalent(batched: &[ExperimentRecord], scalar: &[ExperimentRecord]) {
    assert_eq!(batched.len(), scalar.len());
    for (i, (b, s)) in batched.iter().zip(scalar).enumerate() {
        assert!(
            records_equivalent(b, s),
            "fault index {i} diverges\nbatched: {b:?}\nscalar:  {s:?}"
        );
    }
}

fn batched_equivalence_500(workload: &Workload, seed: u64) {
    let mut cfg = CampaignConfig::quick(500, seed);
    cfg.threads = 0; // all cores; sharding is outcome-invariant
    let batched = run(workload, &cfg);
    cfg.prune = false;
    let scalar = run(workload, &cfg);
    assert_equivalent(&batched, &scalar);
    assert_eq!(analytic_count(&scalar), 0, "the scalar run simulates all");
    assert!(analytic_count(&batched) > 0, "the batched run must resolve");
}

#[test]
fn batched_algorithm_one_is_record_for_record_identical_to_scalar() {
    batched_equivalence_500(&Workload::algorithm_one(), 41);
}

#[test]
fn batched_algorithm_two_is_record_for_record_identical_to_scalar() {
    batched_equivalence_500(&Workload::algorithm_two(), 42);
}

#[test]
fn every_fault_model_matches_its_scalar_run() {
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
        let mut cfg = CampaignConfig::quick(120, 43);
        cfg.fault_model = model;
        let batched = run(&workload, &cfg);
        cfg.prune = false;
        let scalar = run(&workload, &cfg);

        assert_equivalent(&batched, &scalar);
        let json = |rs: &[ExperimentRecord]| -> Vec<String> {
            rs.iter()
                .map(|r| serde_json::to_string(r).expect("serialize"))
                .collect()
        };
        match model {
            // A non-quiescent injector re-asserts between trace samples,
            // so the trace walk is unsound and the eligibility gate must
            // route the whole campaign down the identical scalar path.
            FaultModel::Intermittent { .. } | FaultModel::StuckAt { .. } => {
                assert_eq!(json(&batched), json(&scalar), "{model:?} must bypass");
            }
            // The flip models resolve from the traces: the scalar run has
            // no analytic records, and the batched run must have some.
            FaultModel::SingleBit | FaultModel::AdjacentDoubleBit | FaultModel::Burst { .. } => {
                assert_eq!(analytic_count(&scalar), 0, "{model:?} scalar run");
                assert!(
                    analytic_count(&batched) > 0,
                    "{model:?} must resolve some faults from the traces"
                );
            }
        }
    }
}

/// A pinned fault list over the state the def/use trace cannot see —
/// PSR flags, the signature register, cache metadata, the store and fill
/// buffers — where resolution rides on the EDM-visibility trace. Under
/// every fault model the batched run must stay record-for-record
/// equivalent to its scalar twin, and for the multi-bit flip models the
/// visibility trace must actually resolve some of these faults.
#[test]
fn untraceable_locations_batch_equivalently_across_models() {
    let workload = Workload::algorithm_one();
    let base = CampaignConfig::quick(24, 47);
    let golden = golden_run(&workload, &base.loop_cfg);
    let faults: Vec<FaultSpec> = scan::catalog()
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

    let models = [
        FaultModel::SingleBit,
        FaultModel::AdjacentDoubleBit,
        FaultModel::Intermittent {
            reassert_iterations: 2,
        },
        FaultModel::StuckAt { value: false },
        FaultModel::Burst { width: 3 },
    ];
    for model in models {
        let mut cfg = base.clone();
        cfg.fault_model = model;
        let batched = run_fault_list(&workload, &cfg, &golden, &faults);
        cfg.prune = false;
        let scalar = run_fault_list(&workload, &cfg, &golden, &faults);
        assert_equivalent(&batched, &scalar);

        if matches!(
            model,
            FaultModel::AdjacentDoubleBit | FaultModel::Burst { .. }
        ) {
            assert_eq!(analytic_count(&scalar), 0, "{model:?} scalar run");
            assert!(
                analytic_count(&batched) > 0,
                "{model:?} must resolve some untraceable faults"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random-seed generalisation of the fixed-seed suites above, over
    /// both algorithms and every fault model: batched and scalar
    /// campaigns agree record for record.
    #[test]
    fn batching_is_outcome_invariant_for_random_seeds(
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
        let batched = run(&workload, &cfg);
        cfg.prune = false;
        let scalar = run(&workload, &cfg);
        prop_assert_eq!(batched.len(), scalar.len());
        for (b, s) in batched.iter().zip(&scalar) {
            prop_assert!(records_equivalent(b, s), "{:?} vs {:?}", b, s);
        }
    }
}
