//! Equivalence of the checkpointed campaign engine with from-reset replay.
//!
//! The fast path (golden-run checkpoints + convergence pruning, see
//! `DESIGN.md` § "Campaign execution engine") claims to be a pure
//! optimisation: for any fault, the classified outcome must be
//! bit-identical to re-executing the whole run from reset. These tests
//! check that claim through the differential oracle (`tests/oracle`) over
//! sampled fault lists on both workloads and every fault model, and over
//! paper-length pinned lists where trajectory recall ends runs early.
//! They also property-test the convergence check's soundness
//! precondition: a machine that differs from the golden checkpoint in
//! *any* scan-chain bit or memory word must never compare as converged.

mod oracle;

use bera_goofi::experiment::{golden_run, FaultModel, FaultSpec, LoopConfig};
use bera_goofi::workload::Workload;
use bera_tcpu::mem::{RAM_BASE, RAM_SIZE, STACK_BASE, STACK_SIZE};
use bera_tcpu::scan;
use oracle::{check, Campaign, Point};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Checkpoints every 5 iterations and convergence pruning, without the
/// fate resolver; the oracle requires one-shot models to prune.
const CHECKPOINTED: Point = Point::REFERENCE.stride(5).fast_replay(true);

#[test]
fn checkpointed_engine_matches_from_reset_algorithm_one() {
    let campaign = Campaign::sampled(Workload::algorithm_one(), FaultModel::SingleBit, 220, 17);
    check(&campaign, &[CHECKPOINTED]);
}

#[test]
fn checkpointed_engine_matches_from_reset_algorithm_two() {
    let campaign = Campaign::sampled(Workload::algorithm_two(), FaultModel::SingleBit, 220, 23);
    check(&campaign, &[CHECKPOINTED]);
}

#[test]
fn checkpointed_engine_matches_from_reset_double_bit_model() {
    let model = FaultModel::AdjacentDoubleBit;
    let campaign = Campaign::sampled(Workload::algorithm_one(), model, 200, 5);
    check(&campaign, &[CHECKPOINTED]);
}

#[test]
fn checkpointed_engine_matches_from_reset_intermittent_model() {
    // Re-assertions land at iteration boundaries counted from injection,
    // so they are stride-independent; once the budget is exhausted the
    // injector goes quiescent and pruning may resume. Equivalence must
    // hold either way, so the oracle does not require pruning here.
    let model = FaultModel::Intermittent {
        reassert_iterations: 2,
    };
    let campaign = Campaign::sampled(Workload::algorithm_one(), model, 150, 29);
    check(&campaign, &[CHECKPOINTED]);
}

#[test]
fn checkpointed_engine_matches_from_reset_burst_model() {
    let model = FaultModel::Burst { width: 4 };
    let campaign = Campaign::sampled(Workload::algorithm_one(), model, 150, 31);
    check(&campaign, &[CHECKPOINTED]);
}

#[test]
fn stuck_at_faults_are_never_pruned() {
    // A stuck-at fault re-applies at every iteration boundary, so the
    // machine can never be proven convergent with the golden run: the
    // injector never reports quiescent and pruning must never fire —
    // while stride equivalence still holds on the full unpruned replay.
    for value in [false, true] {
        let model = FaultModel::StuckAt { value };
        let campaign = Campaign::sampled(Workload::algorithm_one(), model, 60, 37);
        let runs = check(&campaign, &[CHECKPOINTED]);
        assert_eq!(runs[0].pruned(), 0, "{model:?}: pruning would be unsound");
    }
}

#[test]
fn intermittent_never_prunes_while_reassertable() {
    // A re-assertion budget larger than the run's iteration count means
    // the fault never goes quiescent inside the run: no record may prune.
    let model = FaultModel::Intermittent {
        reassert_iterations: 10_000,
    };
    let campaign = Campaign::sampled(Workload::algorithm_one(), model, 60, 41);
    let runs = check(&campaign, &[CHECKPOINTED]);
    assert_eq!(runs[0].pruned(), 0, "pruned while a re-assertion pends");
}

/// A paper-length campaign over `locations` × `instants` evenly spread
/// injection times, each with a twin a few instructions later. The
/// resolver is off, so twins that reach the same state both simulate and
/// the later one recalls the earlier, whatever its outputs did before.
/// Stride 0 has no checkpoints, so the reference never recalls.
fn recall_campaign(workload: Workload, model: FaultModel, locations: &[usize]) -> Campaign {
    const INSTANTS: u64 = 10;
    let total = golden_run(&workload, &LoopConfig::paper()).total_instructions;
    let faults: Vec<FaultSpec> = locations
        .iter()
        .flat_map(|&location_index| {
            (0..INSTANTS).flat_map(move |j| {
                let at = total * (2 * j + 1) / (2 * INSTANTS);
                [at, at + 5].map(|inject_at| FaultSpec {
                    location_index,
                    inject_at,
                })
            })
        })
        .collect();
    Campaign::listed(workload, model, faults).iterations(650)
}

#[test]
fn recalled_runs_match_full_execution_algorithm_one() {
    // Cache words and the stack bound that leave latent damage: the same
    // bit flipped at different instants often reaches the same state.
    let locations = [1108, 1146, 897, 1998];
    let campaign = recall_campaign(Workload::algorithm_one(), FaultModel::SingleBit, &locations);
    let runs = check(&campaign, &[Point::DEFAULT.prune(false)]);
    let recalled = runs[0].telemetry.recalled;
    assert!(recalled > 0, "no run was recalled: vacuous");
}

#[test]
fn recalled_runs_match_full_execution_double_bit_algorithm_two() {
    let locations = [1108, 750, 857, 1997];
    let model = FaultModel::AdjacentDoubleBit;
    let campaign = recall_campaign(Workload::algorithm_two(), model, &locations);
    let runs = check(&campaign, &[Point::DEFAULT.prune(false)]);
    let recalled = runs[0].telemetry.recalled;
    assert!(recalled > 0, "no run was recalled: vacuous");
}

/// Golden context shared by the property tests (built once: the properties
/// only need checkpoints to perturb, not fresh runs).
fn shared_golden() -> &'static bera_goofi::GoldenRun {
    static GOLDEN: OnceLock<bera_goofi::GoldenRun> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let mut cfg = LoopConfig::short(24);
        cfg.checkpoint_stride = 4;
        golden_run(&Workload::algorithm_one(), &cfg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Flipping any single scan-chain bit of a checkpoint machine must
    /// break both the exact-equality proof and the state digest, so
    /// convergence pruning can never fire against a state that differs in
    /// that bit.
    #[test]
    fn any_scan_bit_difference_defeats_convergence(
        raw_location in 0usize..1_000_000,
        raw_checkpoint in 0usize..1_000,
    ) {
        let golden = shared_golden();
        let ckpt = &golden.checkpoints[raw_checkpoint % golden.checkpoints.len()];
        let location = scan::catalog()[raw_location % scan::catalog().len()];
        let mut perturbed = ckpt.machine.clone();
        perturbed.scan_flip(location);
        prop_assert!(
            !perturbed.state_equals(&ckpt.machine),
            "scan flip of {location:?} must break state equality"
        );
        prop_assert_ne!(perturbed.state_digest(), ckpt.machine.state_digest());
    }

    /// Changing any RAM or stack word must likewise defeat both the
    /// equality proof and the state digest.
    #[test]
    fn any_memory_word_difference_defeats_convergence(
        raw_word in 0usize..1_000_000,
        raw_checkpoint in 0usize..1_000,
        xor in 1u32..u32::MAX,
    ) {
        let golden = shared_golden();
        let ckpt = &golden.checkpoints[raw_checkpoint % golden.checkpoints.len()];
        let ram_words = (RAM_SIZE / 4) as usize;
        let stack_words = (STACK_SIZE / 4) as usize;
        let idx = raw_word % (ram_words + stack_words);
        let addr = if idx < ram_words {
            RAM_BASE + (idx as u32) * 4
        } else {
            STACK_BASE + ((idx - ram_words) as u32) * 4
        };
        let mut perturbed = ckpt.machine.clone();
        let current = perturbed.memory().read_word(addr).expect("mapped data word").0;
        prop_assert!(perturbed.poke_word(addr, current ^ xor));
        prop_assert!(
            !perturbed.state_equals(&ckpt.machine),
            "memory poke at {addr:#x} must break state equality"
        );
        prop_assert_ne!(perturbed.state_digest(), ckpt.machine.state_digest());
    }
}
