//! Equivalence of the checkpointed campaign engine with from-reset replay.
//!
//! The fast path (golden-run checkpoints + convergence pruning, see
//! `DESIGN.md` § "Campaign execution engine") claims to be a pure
//! optimisation: for any fault, the classified outcome must be
//! bit-identical to re-executing the whole run from reset. These tests
//! check that claim directly over sampled fault lists on both workloads,
//! and property-test the convergence filter's soundness precondition: a
//! machine that differs from the golden checkpoint in *any* scan-chain bit
//! or memory word must never compare as converged.

use bera_goofi::campaign::{run_fault_list, run_fault_list_observed, CampaignConfig, FaultList};
use bera_goofi::experiment::{
    golden_run, run_experiment_with_model, FaultModel, FaultSpec, LoopConfig,
};
use bera_goofi::workload::Workload;
use bera_goofi::{records_equivalent, Telemetry};
use bera_tcpu::mem::{RAM_BASE, RAM_SIZE, STACK_BASE, STACK_SIZE};
use bera_tcpu::scan;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Runs `faults` sampled faults under both engines and asserts every
/// observable field of every record is identical. When `require_prunes`
/// is set, the fault set must exercise convergence pruning (so the fast
/// path is actually tested); models that legitimately never converge —
/// stuck-at, or intermittents whose re-assertions outlive the run — pass
/// `false`. Returns how many checkpointed records pruned.
fn assert_equivalent(
    workload: &Workload,
    faults: usize,
    seed: u64,
    model: FaultModel,
    require_prunes: bool,
) -> usize {
    let mut from_reset = LoopConfig::short(60);
    from_reset.checkpoint_stride = 0;
    let mut checkpointed = LoopConfig::short(60);
    checkpointed.checkpoint_stride = 5;

    let golden_plain = golden_run(workload, &from_reset);
    let golden_ckpt = golden_run(workload, &checkpointed);
    assert_eq!(
        golden_plain.outputs, golden_ckpt.outputs,
        "checkpoint capture must not perturb the golden run"
    );
    assert_eq!(
        golden_plain.total_instructions,
        golden_ckpt.total_instructions
    );
    assert!(!golden_ckpt.checkpoints.is_empty());

    let list = FaultList::sample(faults, seed, golden_plain.total_instructions);
    let mut pruned = 0usize;
    for &fault in &list.faults {
        let slow =
            run_experiment_with_model(workload, &from_reset, &golden_plain, fault, model, true);
        let fast =
            run_experiment_with_model(workload, &checkpointed, &golden_ckpt, fault, model, true);
        assert_eq!(slow.outcome, fast.outcome, "fault {fault:?}");
        assert_eq!(slow.max_deviation, fast.max_deviation, "fault {fault:?}");
        assert_eq!(
            slow.first_strong_iteration, fast.first_strong_iteration,
            "fault {fault:?}"
        );
        assert_eq!(
            slow.detection_latency, fast.detection_latency,
            "fault {fault:?}"
        );
        assert_eq!(slow.outputs, fast.outputs, "fault {fault:?}");
        assert!(slow.pruned_at.is_none(), "stride 0 must never prune");
        pruned += usize::from(fast.pruned_at.is_some());
    }
    assert!(
        !require_prunes || pruned > 0,
        "the fault set must exercise convergence pruning, or this test is vacuous"
    );
    pruned
}

#[test]
fn checkpointed_engine_matches_from_reset_algorithm_one() {
    assert_equivalent(
        &Workload::algorithm_one(),
        220,
        17,
        FaultModel::SingleBit,
        true,
    );
}

#[test]
fn checkpointed_engine_matches_from_reset_algorithm_two() {
    assert_equivalent(
        &Workload::algorithm_two(),
        220,
        23,
        FaultModel::SingleBit,
        true,
    );
}

#[test]
fn checkpointed_engine_matches_from_reset_double_bit_model() {
    assert_equivalent(
        &Workload::algorithm_one(),
        200,
        5,
        FaultModel::AdjacentDoubleBit,
        true,
    );
}

#[test]
fn checkpointed_engine_matches_from_reset_intermittent_model() {
    // Re-assertions land at iteration boundaries counted from injection,
    // so they are stride-independent; once the budget is exhausted the
    // injector goes quiescent and pruning may resume. Equivalence must
    // hold either way, so pruning is not required here.
    assert_equivalent(
        &Workload::algorithm_one(),
        150,
        29,
        FaultModel::Intermittent {
            reassert_iterations: 2,
        },
        false,
    );
}

#[test]
fn checkpointed_engine_matches_from_reset_burst_model() {
    assert_equivalent(
        &Workload::algorithm_one(),
        150,
        31,
        FaultModel::Burst { width: 4 },
        true,
    );
}

#[test]
fn stuck_at_faults_are_never_pruned() {
    // A stuck-at fault re-applies at every iteration boundary, so the
    // machine can never be proven convergent with the golden run: the
    // injector never reports quiescent and pruning must never fire —
    // while stride equivalence still holds on the full unpruned replay.
    for value in [false, true] {
        let pruned = assert_equivalent(
            &Workload::algorithm_one(),
            60,
            37,
            FaultModel::StuckAt { value },
            false,
        );
        assert_eq!(
            pruned, 0,
            "stuck-at({value}) faults can still re-assert; pruning would be unsound"
        );
    }
}

#[test]
fn intermittent_never_prunes_while_reassertable() {
    // A re-assertion budget larger than the run's iteration count means
    // the fault never goes quiescent inside the run: no record may prune.
    let pruned = assert_equivalent(
        &Workload::algorithm_one(),
        60,
        41,
        FaultModel::Intermittent {
            reassert_iterations: 10_000,
        },
        false,
    );
    assert_eq!(
        pruned, 0,
        "pruning while a re-assertion is pending would diverge from from-reset replay"
    );
}

/// Runs a paper-length campaign over `locations` × `instants` evenly
/// spread injection times, each with a twin a few instructions later,
/// checkpointed and at stride 0, and asserts the records are equivalent.
/// Returns how many runs the checkpointed campaign ended by trajectory
/// recall. Stride 0 has no checkpoints, so it never recalls: every one of
/// its records comes from a full execution. The planner is off, so twins
/// that reach the same state both simulate and the later one recalls the
/// earlier, whatever its outputs did before.
fn assert_recall_equivalent(
    workload: &Workload,
    model: FaultModel,
    locations: &[usize],
    instants: u64,
) -> usize {
    let mut cfg = CampaignConfig::paper(0, 0);
    cfg.threads = 1;
    cfg.detail = true;
    cfg.prune = false;
    cfg.fault_model = model;
    let mut reference = cfg.clone();
    reference.loop_cfg.checkpoint_stride = 0;
    let golden = golden_run(workload, &cfg.loop_cfg);
    let golden_plain = golden_run(workload, &reference.loop_cfg);
    let faults: Vec<FaultSpec> = locations
        .iter()
        .flat_map(|&location_index| {
            (0..instants).flat_map(move |j| {
                let at = golden.total_instructions * (2 * j + 1) / (2 * instants);
                [at, at + 5].map(|inject_at| FaultSpec {
                    location_index,
                    inject_at,
                })
            })
        })
        .collect();
    let telemetry = Telemetry::new(faults.len());
    let fast = run_fault_list_observed(workload, &cfg, &golden, &faults, &telemetry);
    let slow = run_fault_list(workload, &reference, &golden_plain, &faults);
    for (f, s) in fast.iter().zip(&slow) {
        assert!(records_equivalent(f, s), "{f:?}\n  differs from\n{s:?}");
    }
    assert_eq!(fast.len(), faults.len());
    telemetry.snapshot().recalled
}

#[test]
fn recalled_runs_match_full_execution_algorithm_one() {
    // Cache words and the stack bound that leave latent damage: the same
    // bit flipped at different instants often reaches the same state.
    let recalled = assert_recall_equivalent(
        &Workload::algorithm_one(),
        FaultModel::SingleBit,
        &[1108, 1146, 897, 1998],
        10,
    );
    assert!(
        recalled > 0,
        "no run was recalled: this test would be vacuous"
    );
}

#[test]
fn recalled_runs_match_full_execution_double_bit_algorithm_two() {
    let recalled = assert_recall_equivalent(
        &Workload::algorithm_two(),
        FaultModel::AdjacentDoubleBit,
        &[1108, 750, 857, 1997],
        10,
    );
    assert!(
        recalled > 0,
        "no run was recalled: this test would be vacuous"
    );
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
    /// break both the exact-equality proof and the digest filter, so
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
    /// equality proof and the digest filter.
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
