//! The generated code must be **bit-for-bit output-equivalent** to the
//! hand-written workloads: same model, same arithmetic order, same
//! closed-loop trajectory.

use bera_goofi::experiment::{exchange, start_loop, LoopConfig};
use bera_goofi::workload::Workload;
use bera_rtw::codegen::{compile_with, CodegenOptions};
use bera_rtw::{algorithm_one_model, algorithm_two_model};
use bera_tcpu::asm::Program;
use bera_tcpu::machine::{Machine, RunExit};

/// Drives `program` in the closed loop of `cfg` and returns its outputs;
/// `before(k, machine)` runs at the start of every iteration `k`.
fn drive(
    program: &Program,
    cfg: &LoopConfig,
    mut before: impl FnMut(usize, &mut Machine),
) -> Vec<f32> {
    let mut m = Machine::new();
    m.load_program(program);
    let mut env = start_loop(&mut m, cfg);
    (0..cfg.iterations)
        .map(|k| {
            before(k, &mut m);
            assert_eq!(m.run(1_000_000), RunExit::Yield, "iteration {k}");
            exchange(&mut m, cfg, &mut env)
        })
        .collect()
}

fn run_closed_loop(program: &Program, iterations: usize) -> Vec<u32> {
    drive(program, &LoopConfig::short(iterations), |_, _| {})
        .iter()
        .map(|u| u.to_bits())
        .collect()
}

fn options() -> CodegenOptions {
    CodegenOptions {
        runtime_epilogue: true,
        log_vars: vec!["u_lim".to_string(), "e".to_string()],
    }
}

#[test]
fn generated_algorithm_one_is_bit_identical_to_handwritten() {
    let generated = compile_with(&algorithm_one_model(), &options()).unwrap();
    let gen_out = run_closed_loop(&generated.program, 650);
    let hand_out = run_closed_loop(Workload::algorithm_one().program(), 650);
    assert_eq!(gen_out, hand_out, "same arithmetic, same outputs");
}

#[test]
fn generated_algorithm_two_is_bit_identical_to_handwritten() {
    let generated = compile_with(&algorithm_two_model(), &options()).unwrap();
    let gen_out = run_closed_loop(&generated.program, 650);
    let hand_out = run_closed_loop(Workload::algorithm_two().program(), 650);
    assert_eq!(gen_out, hand_out);
}

#[test]
fn generated_algorithm_two_recovers_corrupted_state() {
    let generated = compile_with(&algorithm_two_model(), &options()).unwrap();
    let x_addr = generated.layout.address_of("x").unwrap();
    let outputs = drive(&generated.program, &LoopConfig::short(300), |k, m| {
        if k == 150 {
            assert!(m.scan_write_cached(x_addr, 5.0e8f32.to_bits()));
        }
    });
    for (k, &u) in outputs.iter().enumerate().skip(153) {
        assert!(u < 70.0, "no lock-up after recovery (iteration {k})");
    }
}

#[test]
fn generated_algorithm_three_matches_handwritten() {
    let generated = compile_with(&bera_rtw::algorithm_three_model(), &options()).unwrap();
    let gen_out = run_closed_loop(&generated.program, 650);
    let hand_out = run_closed_loop(Workload::algorithm_three().program(), 650);
    assert_eq!(gen_out, hand_out);
}

#[test]
fn generated_algorithm_three_catches_in_range_jump() {
    // The figure-10 scenario: x forced to an in-range but physically
    // impossible value; the generated rate assertion recovers it.
    let generated = compile_with(&bera_rtw::algorithm_three_model(), &options()).unwrap();
    let x_addr = generated.layout.address_of("x").unwrap();
    let cfg = LoopConfig::paper();
    let golden = drive(&generated.program, &cfg, |_, _| {});
    let faulty = drive(&generated.program, &cfg, |k, m| {
        if k == 390 {
            assert!(m.scan_write_cached(x_addr, 69.0f32.to_bits()));
        }
    });
    let max_dev_after = golden
        .iter()
        .zip(&faulty)
        .skip(393)
        .map(|(&g, &u)| (f64::from(u) - f64::from(g)).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_dev_after < 1.0,
        "rate assertion must confine the figure-10 jump, got {max_dev_after}"
    );
}
