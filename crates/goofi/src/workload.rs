//! The target workloads: Algorithm I and Algorithm II compiled for the
//! Thor-like CPU.
//!
//! The paper generated its controller code from a Simulink model with the
//! Real-Time Workshop Ada Coder; here the same two algorithms are written
//! in tcpu assembly (structured exactly like the paper's pseudo-code) and
//! assembled by [`bera_tcpu::asm`]. The unit tests in this module
//! cross-validate the assembly against the native Rust controllers of
//! [`bera_core`] in a fault-free closed loop.

use crate::experiment::{exchange, start_loop, LoopConfig};
use bera_tcpu::asm::{assemble, Program};
use bera_tcpu::machine::{Machine, RunExit};
use std::fmt;

/// A workload failed outside any fault-injection experiment: either its
/// source does not assemble, or a fault-free closed-loop run did not yield
/// where it should. Typed so harness code can report the failure instead
/// of unwinding a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The workload source failed to assemble.
    Assemble {
        /// Workload name.
        name: String,
        /// Assembler diagnostic.
        message: String,
    },
    /// A fault-free closed-loop run trapped or exhausted its instruction
    /// budget at `iteration` — a workload bug, not an experiment outcome.
    Run {
        /// Workload name.
        name: String,
        /// Zero-based loop iteration that failed.
        iteration: usize,
        /// How the run exited (trap or budget).
        detail: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Assemble { name, message } => {
                write!(f, "workload {name} failed to assemble: {message}")
            }
            WorkloadError::Run {
                name,
                iteration,
                detail,
            } => {
                write!(
                    f,
                    "workload {name} failed at iteration {iteration}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Source text of the Algorithm I workload.
pub const ALGORITHM_1_SOURCE: &str = include_str!("../workloads/algorithm1.s");
/// Source text of the Algorithm II workload.
pub const ALGORITHM_2_SOURCE: &str = include_str!("../workloads/algorithm2.s");
/// Ablation variant: backups co-located with `x` in cache line 0.
pub const ALGORITHM_2_COLOCATED_SOURCE: &str = include_str!("../workloads/algorithm2_colocated.s");
/// Ablation variant: state backed up before it is asserted.
pub const ALGORITHM_2_ASSERT_AFTER_SOURCE: &str =
    include_str!("../workloads/algorithm2_assert_after.s");
/// Extension: Algorithm II plus a rate assertion on the state
/// ("Algorithm III", the paper's future-work direction).
pub const ALGORITHM_3_SOURCE: &str = include_str!("../workloads/algorithm3.s");

/// A workload ready to load into the target: name, source and assembled
/// program.
#[derive(Debug, Clone)]
pub struct Workload {
    name: &'static str,
    source: &'static str,
    program: Program,
}

impl Workload {
    /// Assembles an arbitrary named workload source, reporting assembler
    /// diagnostics as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Assemble`] when the source does not
    /// assemble.
    pub fn from_source(name: &'static str, source: &'static str) -> Result<Self, WorkloadError> {
        match assemble(source) {
            Ok(program) => Ok(Workload {
                name,
                source,
                program,
            }),
            Err(e) => Err(WorkloadError::Assemble {
                name: name.to_string(),
                message: e.to_string(),
            }),
        }
    }

    /// Algorithm I: the plain PI controller.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble (a build-time bug).
    #[must_use]
    pub fn algorithm_one() -> Self {
        Workload {
            name: "Algorithm I",
            source: ALGORITHM_1_SOURCE,
            program: assemble(ALGORITHM_1_SOURCE).expect("algorithm1.s must assemble"),
        }
    }

    /// Algorithm II: executable assertions + best effort recovery.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble (a build-time bug).
    #[must_use]
    pub fn algorithm_two() -> Self {
        Workload {
            name: "Algorithm II",
            source: ALGORITHM_2_SOURCE,
            program: assemble(ALGORITHM_2_SOURCE).expect("algorithm2.s must assemble"),
        }
    }

    /// Ablation: Algorithm II with the backups sharing `x`'s cache line.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble (a build-time bug).
    #[must_use]
    pub fn algorithm_two_colocated_backup() -> Self {
        Workload {
            name: "Algorithm II (co-located backup)",
            source: ALGORITHM_2_COLOCATED_SOURCE,
            program: assemble(ALGORITHM_2_COLOCATED_SOURCE)
                .expect("algorithm2_colocated.s must assemble"),
        }
    }

    /// Ablation: Algorithm II with the backup made *before* the assertion.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble (a build-time bug).
    #[must_use]
    pub fn algorithm_two_assert_after_backup() -> Self {
        Workload {
            name: "Algorithm II (assert after backup)",
            source: ALGORITHM_2_ASSERT_AFTER_SOURCE,
            program: assemble(ALGORITHM_2_ASSERT_AFTER_SOURCE)
                .expect("algorithm2_assert_after.s must assemble"),
        }
    }

    /// Extension ("Algorithm III"): Algorithm II plus a rate assertion on
    /// the state, catching in-range corruptions like Figure 10's.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble (a build-time bug).
    #[must_use]
    pub fn algorithm_three() -> Self {
        Workload {
            name: "Algorithm III",
            source: ALGORITHM_3_SOURCE,
            program: assemble(ALGORITHM_3_SOURCE).expect("algorithm3.s must assemble"),
        }
    }

    /// Resolves a CLI workload key (`alg1`, `alg2`, `alg2-colocated`,
    /// `alg2-assert-after`, `alg3`) to its workload. Returns `None` for an
    /// unknown key so callers can print their own usage message.
    #[must_use]
    pub fn by_key(key: &str) -> Option<Workload> {
        match key {
            "alg1" => Some(Workload::algorithm_one()),
            "alg2" => Some(Workload::algorithm_two()),
            "alg2-colocated" => Some(Workload::algorithm_two_colocated_backup()),
            "alg2-assert-after" => Some(Workload::algorithm_two_assert_after_backup()),
            "alg3" => Some(Workload::algorithm_three()),
            _ => None,
        }
    }

    /// All workloads in report order.
    #[must_use]
    pub fn all() -> Vec<Workload> {
        vec![
            Workload::algorithm_one(),
            Workload::algorithm_two(),
            Workload::algorithm_two_colocated_backup(),
            Workload::algorithm_two_assert_after_backup(),
            Workload::algorithm_three(),
        ]
    }

    /// Workload name as used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The assembly source.
    #[must_use]
    pub fn source(&self) -> &'static str {
        self.source
    }

    /// The assembled program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A disassembly listing of the assembled program, one line per word.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, &word) in self.program.code.iter().enumerate() {
            let addr = self.program.code_base + (i as u32) * 4;
            out.push_str(&format!(
                "{addr:#07x}  {word:08x}  {}\n",
                bera_tcpu::isa::disassemble(word)
            ));
        }
        out
    }

    /// Address of the controller state variable `x` in data memory.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not define `x_state`.
    #[must_use]
    pub fn x_address(&self) -> u32 {
        self.program
            .symbol("x_state")
            .expect("workload must define x_state")
    }

    /// Drives the workload fault-free in closed loop under `cfg` and
    /// returns the controller outputs, the same ones
    /// [`golden_run`](crate::experiment::golden_run) logs. A trap or budget
    /// exhaustion is a reportable [`WorkloadError`], not a panic — a
    /// workload bug must not take a harness down with it.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Run`] if any iteration ends in anything
    /// but a clean yield.
    pub fn run_closed_loop(&self, cfg: &LoopConfig) -> Result<Vec<f64>, WorkloadError> {
        let mut m = Machine::new();
        m.load_program(self.program());
        m.set_cache_parity(cfg.parity_cache);
        let mut env = start_loop(&mut m, cfg);
        let mut outputs = Vec::with_capacity(cfg.iterations);
        while env.iteration() < cfg.iterations {
            match m.run(1_000_000) {
                RunExit::Yield => outputs.push(f64::from(exchange(&mut m, cfg, &mut env))),
                other => {
                    return Err(WorkloadError::Run {
                        name: self.name.to_string(),
                        iteration: env.iteration(),
                        detail: format!("{other:?}"),
                    })
                }
            }
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bera_core::{Controller, PiController, ProtectedPiController};
    use bera_plant::{ClosedLoop, FnController};

    fn run_closed_loop_tcpu(workload: &Workload, iterations: usize) -> Vec<f64> {
        workload
            .run_closed_loop(&LoopConfig::short(iterations))
            .expect("fault-free reference run must succeed")
    }

    /// `ctrl` in the same closed loop, its inputs quantised through `f32`
    /// as the tcpu ports quantise them.
    fn run_closed_loop_native<C: Controller>(mut ctrl: C, iterations: usize) -> Vec<f64> {
        let cfg = LoopConfig::short(iterations);
        let quantised =
            FnController::new(move |r, y| ctrl.step(f64::from(r as f32), f64::from(y as f32)));
        ClosedLoop::with_interval(cfg.engine.clone(), quantised, cfg.sample_interval)
            .run(&cfg.profiles, iterations)
            .outputs()
    }

    #[test]
    fn bad_source_is_a_typed_assemble_error() {
        let err = Workload::from_source("Broken", "this is not assembly\n")
            .expect_err("nonsense must not assemble");
        match &err {
            WorkloadError::Assemble { name, message } => {
                assert_eq!(name, "Broken");
                assert!(!message.is_empty());
            }
            other => panic!("expected Assemble error, got {other:?}"),
        }
        assert!(err.to_string().contains("failed to assemble"));
    }

    #[test]
    fn non_yielding_workload_is_a_typed_run_error() {
        // A workload that spins forever burns the per-iteration budget and
        // must surface as a reportable error, not a panic.
        let w = Workload::from_source("Spinner", "spin:\n    jmp spin\n")
            .expect("the spinner assembles");
        let err = w
            .run_closed_loop(&LoopConfig::short(3))
            .expect_err("spinner never yields");
        match &err {
            WorkloadError::Run {
                name,
                iteration,
                detail,
            } => {
                assert_eq!(name, "Spinner");
                assert_eq!(*iteration, 0);
                assert!(detail.contains("Budget"), "{detail}");
            }
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn both_workloads_assemble() {
        let a1 = Workload::algorithm_one();
        let a2 = Workload::algorithm_two();
        assert!(a1.program().code_len() > 30);
        assert!(a2.program().code_len() > a1.program().code_len());
    }

    #[test]
    fn x_lives_in_cache_line_zero() {
        for w in [Workload::algorithm_one(), Workload::algorithm_two()] {
            assert_eq!(w.x_address(), 0x10000);
            assert_eq!(bera_tcpu::cache::index_of(w.x_address()), 0);
        }
    }

    #[test]
    fn backups_live_in_a_different_cache_line_than_x() {
        let w = Workload::algorithm_two();
        let x_old = w.program().symbol("x_old").unwrap();
        assert_ne!(
            bera_tcpu::cache::index_of(w.x_address()),
            bera_tcpu::cache::index_of(x_old),
            "a single flip must never hit a variable and its backup"
        );
    }

    #[test]
    fn algorithm_one_matches_native_controller() {
        let tcpu = run_closed_loop_tcpu(&Workload::algorithm_one(), 650);
        let native = run_closed_loop_native(PiController::paper(), 650);
        let max_diff = tcpu
            .iter()
            .zip(native.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        // f32 target vs f64 reference, amplified by the closed loop: allow
        // a modest tolerance but demand the same trajectory.
        assert!(max_diff < 0.5, "max |tcpu - native| = {max_diff}");
    }

    #[test]
    fn algorithm_two_matches_native_protected_controller() {
        let tcpu = run_closed_loop_tcpu(&Workload::algorithm_two(), 650);
        let native = run_closed_loop_native(ProtectedPiController::paper(), 650);
        let max_diff = tcpu
            .iter()
            .zip(native.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 0.5, "max |tcpu - native| = {max_diff}");
    }

    #[test]
    fn algorithms_identical_fault_free() {
        let a1 = run_closed_loop_tcpu(&Workload::algorithm_one(), 650);
        let a2 = run_closed_loop_tcpu(&Workload::algorithm_two(), 650);
        let max_diff = a1
            .iter()
            .zip(a2.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert_eq!(max_diff, 0.0, "fault-free outputs must be identical");
    }

    #[test]
    fn all_variant_workloads_assemble_and_run_fault_free() {
        for w in Workload::all() {
            let outputs = run_closed_loop_tcpu(&w, 100);
            assert_eq!(outputs.len(), 100, "{} must run", w.name());
            assert!(
                outputs.iter().all(|u| (0.0..=70.0).contains(u)),
                "{} outputs in range",
                w.name()
            );
        }
    }

    #[test]
    fn variants_match_algorithm_two_fault_free() {
        let reference = run_closed_loop_tcpu(&Workload::algorithm_two(), 650);
        for w in [
            Workload::algorithm_two_colocated_backup(),
            Workload::algorithm_two_assert_after_backup(),
            Workload::algorithm_three(),
        ] {
            let outputs = run_closed_loop_tcpu(&w, 650);
            let max_diff = outputs
                .iter()
                .zip(reference.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert_eq!(max_diff, 0.0, "{} must be identical fault-free", w.name());
        }
    }

    #[test]
    fn colocated_variant_really_colocates() {
        let w = Workload::algorithm_two_colocated_backup();
        let x_old = w.program().symbol("x_old").unwrap();
        assert_eq!(
            bera_tcpu::cache::index_of(w.x_address()),
            bera_tcpu::cache::index_of(x_old)
        );
    }

    #[test]
    fn run_closed_loop_equals_the_golden_outputs() {
        let cfg = LoopConfig::paper();
        for w in [
            Workload::algorithm_one(),
            Workload::algorithm_two(),
            Workload::algorithm_three(),
        ] {
            let golden = crate::experiment::golden_run(&w, &cfg);
            let outputs: Vec<u64> = w
                .run_closed_loop(&cfg)
                .expect("fault-free reference run must succeed")
                .iter()
                .map(|u| u.to_bits())
                .collect();
            let expect: Vec<u64> = golden
                .outputs
                .iter()
                .map(|&b| f64::from(f32::from_bits(b)).to_bits())
                .collect();
            assert_eq!(outputs, expect, "{}", w.name());
        }
    }

    #[test]
    fn closed_loop_tracks_reference() {
        let outputs = run_closed_loop_tcpu(&Workload::algorithm_one(), 650);
        // The output settles at a plausible throttle angle (Figure 5 shape).
        let tail = &outputs[620..];
        for u in tail {
            assert!((5.0..45.0).contains(u), "settled throttle angle: {u}");
        }
    }
}
