//! The fast-replay (predecoded block execution) equivalence suite.
//!
//! The block engine's contract (`DESIGN.md` § 8j) is that fast replay is a
//! pure wall-clock optimisation: a campaign run with the predecoded block
//! cache, the dirty-delta arena restore and the sparse convergence compare
//! produces records **byte-identical** to the same campaign stepping every
//! instruction through the scalar path. These tests drive that contract
//! end to end:
//!
//! * fixed-seed campaigns on both algorithms under all five fault models
//!   are compared record for record — serialized JSON, so *every* field
//!   (outcome, deviation, latency, provenance, outputs) must match;
//! * the single-bit campaign is additionally pinned under the `--no-prune`
//!   layer configuration, so the equivalence does not lean on the pruner
//!   masking a divergence;
//! * property tests show (a) the dirty-delta arena restore lands on the
//!   same architectural state as a deep clone, byte for byte, and (b) a
//!   host write into program text invalidates the predecoded image and
//!   the machine falls back to the scalar path with identical outcomes;
//! * a store aimed at program text raises the same trap on both paths —
//!   the self-modifying-store escape hatch of the block engine.

use bera_goofi::campaign::{run_scifi_campaign, CampaignConfig};
use bera_goofi::experiment::FaultModel;
use bera_goofi::workload::Workload;
use bera_tcpu::asm::assemble;
use bera_tcpu::machine::{Machine, RunExit};
use bera_tcpu::mem;
use proptest::prelude::*;

const MODELS: [FaultModel; 5] = [
    FaultModel::SingleBit,
    FaultModel::AdjacentDoubleBit,
    FaultModel::Intermittent {
        reassert_iterations: 2,
    },
    FaultModel::StuckAt { value: true },
    FaultModel::Burst { width: 3 },
];

/// Runs the campaign and serializes every record — byte-level identity is
/// the equivalence the block engine promises, so nothing weaker than the
/// full JSON encoding will do.
fn records_json(workload: &Workload, cfg: &CampaignConfig) -> Vec<String> {
    run_scifi_campaign(workload, cfg)
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("records serialize"))
        .collect()
}

/// Asserts that `cfg` classifies identically with fast replay on and off.
fn assert_fastpath_identical(workload: &Workload, cfg: &CampaignConfig, label: &str) {
    let mut fast_cfg = cfg.clone();
    fast_cfg.loop_cfg.fast_replay = true;
    let mut scalar_cfg = cfg.clone();
    scalar_cfg.loop_cfg.fast_replay = false;
    let fast = records_json(workload, &fast_cfg);
    let scalar = records_json(workload, &scalar_cfg);
    assert_eq!(fast.len(), scalar.len(), "{label}: record counts differ");
    for (i, (f, s)) in fast.iter().zip(&scalar).enumerate() {
        assert_eq!(f, s, "{label}: fault index {i} diverges");
    }
}

#[test]
fn both_algorithms_all_models_are_bit_identical() {
    for workload in [Workload::algorithm_one(), Workload::algorithm_two()] {
        for model in MODELS {
            let mut cfg = CampaignConfig::quick(60, 41);
            cfg.fault_model = model;
            assert_fastpath_identical(&workload, &cfg, &format!("{} / {model:?}", workload.name()));
        }
    }
}

#[test]
fn single_bit_is_bit_identical_across_layer_configurations() {
    let workload = Workload::algorithm_one();
    let base = CampaignConfig::quick(300, 42);

    assert_fastpath_identical(&workload, &base, "default layers");

    let mut no_prune = base.clone();
    no_prune.prune = false;
    assert_fastpath_identical(&workload, &no_prune, "--no-prune");
}

// ---------------------------------------------------------------------------
// Machine-level properties: arena restore and block invalidation.
// ---------------------------------------------------------------------------

/// A small self-contained loop in the test ISA: memory traffic, a call, a
/// compare-and-branch and a periodic `yield`, so both the block engine and
/// the dirty log see realistic churn.
const LOOP_SRC: &str = r#"
    .data 0x10000
    acc: .word 1
    .text
    start:
        li r1, 0x10000
        li r2, 0
        li r3, 25
    loop:
        ld r4, [r1+0]
        addi r4, r4, 3
        mul r5, r4, r4
        and r5, r5, r4
        st r4, [r1+0]
        call bump
        cmp r2, r3
        blt loop
        yield
        li r2, 0
        jmp loop
    bump:
        addi r2, r2, 1
        ret
"#;

fn loop_machine() -> Machine {
    let program = assemble(LOOP_SRC).expect("test program assembles");
    let mut m = Machine::new();
    m.load_program(&program);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Dirty-delta restore equals deep-clone restore: an arena machine
    /// that diverged arbitrarily from its resident checkpoint, restored
    /// onto a later golden checkpoint by undoing only its dirty set plus
    /// the golden write window, is architecturally identical to a deep
    /// clone of that checkpoint — and replays bit-identically afterwards.
    #[test]
    fn dirty_delta_restore_equals_deep_clone(
        warmup in 1u64..2_000,
        diverge in 1u64..2_000,
        advance in 1u64..2_000,
        poke_slot in 0u32..64,
        poke_word in any::<u32>(),
    ) {
        let mut golden = loop_machine();
        golden.run(warmup);
        let resident = golden.clone();

        // The arena diverges from the resident checkpoint: one poked word
        // (any value — traps along the way are fine) plus its own run.
        let mut arena = resident.clone();
        arena.begin_dirty_log();
        prop_assert!(arena.poke_word(mem::RAM_BASE + poke_slot * 4, poke_word));
        arena.run(diverge);

        // The golden run advances to a later checkpoint; its dirty log is
        // exactly the write window `restore_delta_from` expects.
        let mut later = resident.clone();
        later.begin_dirty_log();
        later.run(advance);
        let window: Vec<u32> = later.dirty_words().expect("log active").to_vec();

        arena.restore_delta_from(&later, &[window]);
        prop_assert!(arena.state_equals(&later));
        prop_assert_eq!(arena.instr_count(), later.instr_count());

        // The restored machine is indistinguishable from a deep clone.
        let mut deep = later.clone();
        prop_assert_eq!(arena.run(3_000), deep.run(3_000));
        prop_assert!(arena.state_equals(&deep));
        prop_assert_eq!(arena.instr_count(), deep.instr_count());
    }

    /// (b) A host write into program text invalidates the predecoded
    /// image: the fast machine refuses to replay another block (its block
    /// counter freezes) and falls back to the scalar path, staying
    /// bit-identical to an always-scalar twin through and past the patch.
    #[test]
    fn rom_patch_invalidates_blocks_and_falls_back_scalar(
        pre in 1u64..1_500,
        post in 1u64..3_000,
        slot in 0u32..24,
        patch_sel in 0usize..3,
    ) {
        let patch = [0xFFFF_FFFFu32, 0, 0x0000_0001][patch_sel];
        let mut fast = loop_machine();
        let mut scalar = loop_machine();
        scalar.set_fast_replay(false);

        prop_assert_eq!(fast.run(pre), scalar.run(pre));
        prop_assert!(fast.state_equals(&scalar));

        // Patch the same ROM word on both machines. Whether or not the
        // slot is on the executed path, and whether or not the word still
        // decodes, behaviour must stay identical — the fast machine just
        // stops replaying blocks.
        let addr = mem::ROM_BASE + slot * 4;
        fast.poke_rom_word(addr, patch);
        scalar.poke_rom_word(addr, patch);
        let blocks_at_patch = fast.block_instructions();

        prop_assert_eq!(fast.run(post), scalar.run(post));
        prop_assert!(fast.state_equals(&scalar));
        prop_assert_eq!(fast.instr_count(), scalar.instr_count());
        prop_assert_eq!(
            fast.block_instructions(),
            blocks_at_patch,
            "a stale table must not replay another block"
        );
    }
}

/// A store aimed at program text — the self-modifying-store case — raises
/// the same trap at the same instruction on both paths: ROM is not
/// writable data memory, so the EDM fires instead of silently desyncing
/// the predecoded image.
#[test]
fn store_into_program_text_traps_identically_on_both_paths() {
    const SELF_MOD_SRC: &str = r#"
        .text
        start:
            li r1, 0x1000
            li r4, 7
            st r4, [r1+0]
            yield
    "#;
    let program = assemble(SELF_MOD_SRC).expect("test program assembles");
    let mut fast = Machine::new();
    fast.load_program(&program);
    let mut scalar = Machine::new();
    scalar.load_program(&program);
    scalar.set_fast_replay(false);

    let fast_exit = fast.run(100);
    let scalar_exit = scalar.run(100);
    assert_eq!(fast_exit, scalar_exit);
    assert!(
        matches!(fast_exit, RunExit::Trap(_)),
        "a ROM store must trap, got {fast_exit:?}"
    );
    assert!(fast.state_equals(&scalar));
    assert_eq!(fast.instr_count(), scalar.instr_count());
}
