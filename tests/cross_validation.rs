//! Cross-validation between the three implementations of the same
//! algorithms: native Rust controllers, the generic Section 4.3 wrapper,
//! and the tcpu assembly workloads running on the CPU simulator.

use bera::core::controller::Limits;
use bera::core::{Controller, PiController, Protected, ProtectedPiController, Siso};
use bera::goofi::experiment::{exchange, start_loop, LoopConfig};
use bera::plant::{ClosedLoop, FnController};
use bera::tcpu::machine::{Machine, RunExit};

fn native_loop<C: Controller>(ctrl: C, cfg: &LoopConfig) -> ClosedLoop<C> {
    ClosedLoop::with_interval(cfg.engine.clone(), ctrl, cfg.sample_interval)
}

fn run_native<C: Controller>(mut ctrl: C, iterations: usize) -> Vec<f64> {
    let cfg = LoopConfig::short(iterations);
    // Quantise through f32 exactly as the tcpu I/O ports do.
    let quantised =
        FnController::new(move |r, y| ctrl.step(f64::from(r as f32), f64::from(y as f32)));
    native_loop(quantised, &cfg)
        .run(&cfg.profiles, iterations)
        .outputs()
}

fn run_tcpu(workload: &bera::goofi::Workload, iterations: usize) -> Vec<f64> {
    workload
        .run_closed_loop(&LoopConfig::short(iterations))
        .expect("the fault-free loop yields every iteration")
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn three_implementations_of_algorithm_two_agree() {
    let n = 650;
    let native = run_native(ProtectedPiController::paper(), n);
    let generic = run_native(
        Siso::new(
            Protected::uniform(PiController::paper(), Limits::throttle()),
            Limits::throttle(),
        ),
        n,
    );
    let tcpu = run_tcpu(&bera::goofi::Workload::algorithm_two(), n);

    assert_eq!(
        max_abs_diff(&native, &generic),
        0.0,
        "hand-written and generic Algorithm II are bit-identical"
    );
    assert!(
        max_abs_diff(&native, &tcpu) < 0.5,
        "f32 target tracks the f64 reference: {}",
        max_abs_diff(&native, &tcpu)
    );
}

#[test]
fn algorithm_one_tcpu_vs_native() {
    let n = 650;
    let native = run_native(PiController::paper(), n);
    let tcpu = run_tcpu(&bera::goofi::Workload::algorithm_one(), n);
    assert!(max_abs_diff(&native, &tcpu) < 0.5);
}

#[test]
fn corrupted_state_recovery_agrees_between_native_and_tcpu() {
    // Force the same out-of-range state corruption into the native
    // controller and the cache-resident x of the tcpu workload; both
    // Algorithm II implementations must avoid a permanent lock-up.
    let cfg = LoopConfig::short(300);
    let kick = 200; // iteration of the corruption

    // Native.
    let mut native = native_loop(ProtectedPiController::paper(), &cfg);
    let native_out: Vec<f64> = (0..cfg.iterations)
        .map(|k| {
            if k == kick {
                native.controller_mut().set_state(0, 2.0e9);
            }
            native.step(&cfg.profiles).u
        })
        .collect();

    // tcpu.
    let workload = bera::goofi::Workload::algorithm_two();
    let mut m = Machine::new();
    m.load_program(workload.program());
    let mut env = start_loop(&mut m, &cfg);
    let tcpu_out: Vec<f64> = (0..cfg.iterations)
        .map(|k| {
            if k == kick {
                assert!(m.scan_write_cached(workload.x_address(), 2.0e9f32.to_bits()));
            }
            assert_eq!(m.run(1_000_000), RunExit::Yield);
            f64::from(exchange(&mut m, &cfg, &mut env))
        })
        .collect();

    for (label, out) in [("native", &native_out), ("tcpu", &tcpu_out)] {
        let locked = out[kick + 2..].iter().filter(|&&u| u >= 70.0).count();
        assert_eq!(locked, 0, "{label}: no permanent lock after recovery");
    }
}
