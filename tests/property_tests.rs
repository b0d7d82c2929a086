//! Property-based tests over the core data structures and invariants.

use bera::core::bitflip::{flip_bit_f32, flip_bit_f64, flip_bit_u32};
use bera::core::controller::{Controller, Limits, PiGains};
use bera::core::{PiController, ProtectedPiController};
use bera::goofi::classify::{Classifier, Severity};
use bera::goofi::experiment::FaultModel;
use bera::stats::proportion::{Confidence, Proportion};
use bera::stats::summary::Summary;
use bera::tcpu::asm::assemble;
use bera::tcpu::isa::{self, Opcode};
use bera::tcpu::machine::Machine;
use bera::tcpu::scan;
use proptest::prelude::*;

/// Every fault-model variant, with representative parameter ranges.
fn any_fault_model() -> impl Strategy<Value = FaultModel> {
    prop_oneof![
        Just(FaultModel::SingleBit),
        Just(FaultModel::AdjacentDoubleBit),
        (1usize..1000).prop_map(|reassert_iterations| FaultModel::Intermittent {
            reassert_iterations,
        }),
        any::<bool>().prop_map(|value| FaultModel::StuckAt { value }),
        (1usize..100).prop_map(|width| FaultModel::Burst { width }),
    ]
}

proptest! {
    #[test]
    fn fault_model_cluster_is_in_range_and_deduplicated(
        model in any_fault_model(),
        index in 0usize..1_000_000,
        n in 1usize..5000,
    ) {
        let cluster = model.cluster(index, n);
        prop_assert!(!cluster.is_empty(), "{model}: cluster must be non-empty");
        prop_assert!(
            cluster.iter().all(|&b| b < n),
            "{model}: cluster {cluster:?} escapes population of {n}"
        );
        let mut sorted = cluster.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(
            sorted.len(),
            cluster.len(),
            "{}: cluster {:?} holds duplicates", model, cluster
        );
        // The sampled index itself is always perturbed.
        prop_assert!(cluster.contains(&(index % n)));
    }

    #[test]
    fn fault_model_single_location_models_perturb_exactly_the_index(
        index in 0usize..1_000_000,
        n in 1usize..5000,
        reassert in 1usize..1000,
        value in any::<bool>(),
    ) {
        for model in [
            FaultModel::SingleBit,
            FaultModel::Intermittent { reassert_iterations: reassert },
            FaultModel::StuckAt { value },
        ] {
            prop_assert_eq!(model.cluster(index, n), vec![index % n]);
        }
    }

    #[test]
    fn fault_model_double_bit_wraps_at_the_last_bit(n in 2usize..5000) {
        // The adjacent pair sampled at the last index wraps to bit 0
        // rather than escaping the population.
        let cluster = FaultModel::AdjacentDoubleBit.cluster(n - 1, n);
        prop_assert_eq!(cluster, vec![n - 1, 0]);
    }

    #[test]
    fn fault_model_burst_width_is_clamped(
        width in 1usize..200,
        index in 0usize..1_000_000,
        n in 1usize..100,
    ) {
        let cluster = FaultModel::Burst { width }.cluster(index, n);
        prop_assert!(
            (1..=width.min(n)).contains(&cluster.len()),
            "burst of width {width} produced {} bits over population {n}",
            cluster.len()
        );
        prop_assert!(cluster.iter().all(|&b| b < n));
    }

    #[test]
    fn fault_model_locations_stay_inside_the_scan_catalog(
        model in any_fault_model(),
        index in 0usize..1_000_000,
    ) {
        let catalog_len = scan::catalog().len();
        let locations = model.locations(index % catalog_len);
        prop_assert!(!locations.is_empty());
        prop_assert!(locations.iter().all(|&i| i < catalog_len));
    }

    #[test]
    fn fault_model_spelling_roundtrips(model in any_fault_model()) {
        let spelled = model.to_string();
        let parsed: FaultModel = spelled.parse().expect("display form parses");
        prop_assert_eq!(parsed, model);
    }

    #[test]
    fn bitflip_involutive_f64(v in any::<f64>(), bit in 0u32..64) {
        let flipped = flip_bit_f64(v, bit);
        prop_assert_eq!(flip_bit_f64(flipped, bit).to_bits(), v.to_bits());
        prop_assert_ne!(flipped.to_bits(), v.to_bits());
    }

    #[test]
    fn bitflip_involutive_f32(v in any::<f32>(), bit in 0u32..32) {
        let flipped = flip_bit_f32(v, bit);
        prop_assert_eq!(flip_bit_f32(flipped, bit).to_bits(), v.to_bits());
    }

    #[test]
    fn bitflip_involutive_u32(v in any::<u32>(), bit in 0u32..32) {
        prop_assert_eq!(flip_bit_u32(flip_bit_u32(v, bit), bit), v);
    }

    #[test]
    fn limits_clamp_always_in_range(lo in -1.0e6f64..0.0, hi in 0.0f64..1.0e6, v in any::<f64>()) {
        let l = Limits::new(lo, hi);
        let c = l.clamp(v);
        prop_assert!(c >= lo && c <= hi);
        prop_assert!(l.contains(c));
    }

    #[test]
    fn pi_output_always_within_limits(
        x0 in -1.0e15f64..1.0e15,
        r in -1.0e4f64..1.0e4,
        y in -1.0e4f64..1.0e4,
    ) {
        let mut c = PiController::paper();
        c.set_x(x0);
        let u = c.step(r, y);
        prop_assert!((0.0..=70.0).contains(&u), "u = {u}");
    }

    #[test]
    fn protected_pi_state_stays_recoverable(
        corruption in any::<f64>(),
        steps in 1usize..50,
    ) {
        let mut c = ProtectedPiController::paper();
        for _ in 0..20 {
            c.step(2000.0, 1900.0);
        }
        c.set_state(0, corruption);
        for _ in 0..steps {
            let u = c.step(2000.0, 1900.0);
            prop_assert!((0.0..=70.0).contains(&u));
        }
        // After at least one iteration the live state is back in range
        // (either it was plausible or recovery replaced it).
        let x = c.x();
        prop_assert!((0.0..=70.0).contains(&x) || x.is_finite());
    }

    #[test]
    fn anti_windup_never_grows_x_outward(
        x0 in 0.0f64..70.0,
        e in 0.0f64..1.0e4,
    ) {
        // With a large positive error and output saturated high, x must not
        // integrate upwards.
        let mut c = PiController::new(PiGains::paper(), Limits::throttle());
        c.set_x(x0);
        let before = c.x();
        c.step(e, 0.0);
        let after = c.x();
        let u = e * PiGains::paper().kp + before;
        if u > 70.0 {
            prop_assert!(after <= before, "windup: {before} -> {after}");
        }
    }

    #[test]
    fn proportion_ci_contains_estimate(successes in 0u64..1000, extra in 0u64..1000) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let p = Proportion::new(successes, trials);
        let ci = p.normal_ci95();
        prop_assert!(ci.lo <= p.estimate() && p.estimate() <= ci.hi);
        let w = p.wilson_ci(Confidence::P95);
        prop_assert!(w.lo >= 0.0 && w.hi <= 1.0);
    }

    #[test]
    fn summary_merge_matches_sequential(xs in prop::collection::vec(-1.0e6f64..1.0e6, 1..100), split in 0usize..100) {
        let split = split.min(xs.len());
        let all: Summary = xs.iter().copied().collect();
        let mut a: Summary = xs[..split].iter().copied().collect();
        let b: Summary = xs[split..].iter().copied().collect();
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-6);
    }

    #[test]
    fn isa_encode_decode_roundtrip_r(op_bits in 0x09u32..0x18, rd in 0u8..16, ra in 0u8..16, rb in 0u8..16) {
        let op = Opcode::from_bits(op_bits).unwrap();
        let word = isa::encode_r(op, rd, ra, rb);
        let d = isa::decode(word).unwrap();
        prop_assert_eq!(d.op, op);
        prop_assert_eq!(d.rd, rd);
        prop_assert_eq!(d.ra, ra);
        prop_assert_eq!(d.rb, rb);
    }

    #[test]
    fn isa_decode_never_panics(word in any::<u32>()) {
        let _ = isa::decode(word);
        let _ = isa::disassemble(word);
    }

    #[test]
    fn scan_flip_involutive_on_random_locations(indices in prop::collection::vec(0usize..2400, 1..20)) {
        let catalog = scan::catalog();
        let before = Machine::new();
        let mut m = before.clone();
        for &i in &indices {
            m.scan_flip(catalog[i % catalog.len()]);
        }
        for &i in indices.iter().rev() {
            m.scan_flip(catalog[i % catalog.len()]);
        }
        prop_assert_eq!(m.scan_diff_count(&before), 0);
        // k distinct bits flipped once each differ in exactly k bits.
        let distinct: std::collections::BTreeSet<usize> =
            indices.iter().map(|&i| i % catalog.len()).collect();
        for &i in &distinct {
            m.scan_flip(catalog[i]);
        }
        prop_assert_eq!(m.scan_diff_count(&before), distinct.len());
    }

    #[test]
    fn classifier_identical_sequences_are_never_failures(us in prop::collection::vec(0.0f64..70.0, 10..100)) {
        let c = Classifier::paper();
        let bits: Vec<u32> = us.iter().map(|&u| (u as f32).to_bits()).collect();
        prop_assert_eq!(c.classify_bits(&bits, &bits.clone()), None);
    }

    #[test]
    fn classifier_sub_threshold_is_insignificant(
        us in prop::collection::vec(1.0f64..69.0, 10..100),
        noise in prop::collection::vec(-0.09f64..0.09, 100),
    ) {
        let c = Classifier::paper();
        let observed: Vec<f64> = us
            .iter()
            .zip(noise.iter().cycle())
            .map(|(u, n)| u + n)
            .collect();
        prop_assume!(us.iter().zip(observed.iter()).any(|(a, b)| a != b));
        prop_assert_eq!(c.classify_values(&us, &observed), Severity::Insignificant);
    }

    #[test]
    fn assembler_rejects_garbage_without_panicking(src in "[a-z0-9 ,\\[\\]+._:-]{0,120}") {
        let _ = assemble(&src);
    }

    #[test]
    fn machine_never_panics_on_random_single_flips(
        loc in 0usize..2400,
        steps in 1u64..2000,
    ) {
        let program = assemble(
            ".text\nstart:\n li r1, 0x10000\n ld r2, [r1+0]\n st r2, [r1+4]\n yield\nloop:\n jmp start\n",
        ).unwrap();
        let mut m = Machine::new();
        m.load_program(&program);
        let catalog = scan::catalog();
        m.run(steps % 37);
        m.scan_flip(catalog[loc % catalog.len()]);
        // Whatever happens — yield, trap, budget — it must not panic.
        let _ = m.run(steps);
    }
}
