//! Error-propagation analysis — GOOFI's *detail mode*.
//!
//! The paper (Section 3.3.3): "The detail mode operation is used to produce
//! an execution trace, allowing the error propagation to be analyzed in
//! detail." This module runs the golden and the faulty machine in lockstep,
//! one instruction at a time, and reports how the single flipped bit
//! spreads through the processor state, when it first reaches an output,
//! and whether a detection mechanism ends the experiment.

use crate::experiment::{exchange, start_loop, FaultSpec, LoopConfig};
use crate::workload::Workload;
use bera_plant::Environment;
use bera_tcpu::edm::Trap;
use bera_tcpu::machine::{Machine, RunExit, StepEvent, PORT_U};
use bera_tcpu::scan::{self, BitLocation};
use serde::{Deserialize, Serialize};

/// How far the fault propagated within the analysis window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PropagationReport {
    /// The injected fault.
    pub fault: FaultSpec,
    /// The flipped state element.
    pub location: BitLocation,
    /// Differing scan bits immediately after injection (always ≥ 1).
    pub initial_diff: usize,
    /// First instruction (dynamic index) at which the corruption spread
    /// beyond the originally flipped element.
    pub spread_at: Option<u64>,
    /// First instruction at which the output port `u_lim` differed.
    pub output_diverged_at: Option<u64>,
    /// Trap that ended the faulty run inside the window, if any.
    pub detected: Option<Trap>,
    /// Differing scan bits at the end of the window (0 = fully healed).
    pub final_diff: usize,
    /// Instructions actually analysed.
    pub steps_analysed: u64,
}

impl PropagationReport {
    /// `true` when no trace of the fault remained at the end of the window
    /// and the output never diverged.
    #[must_use]
    pub fn healed(&self) -> bool {
        self.final_diff == 0 && self.output_diverged_at.is_none() && self.detected.is_none()
    }
}

/// One machine plus its own plant, advanced instruction by instruction.
struct Lockstep {
    machine: Machine,
    env: Environment,
}

impl Lockstep {
    fn new(workload: &Workload, cfg: &LoopConfig) -> Self {
        let mut machine = Machine::new();
        machine.load_program(workload.program());
        machine.set_cache_parity(cfg.parity_cache);
        let env = start_loop(&mut machine, cfg);
        Lockstep { machine, env }
    }

    fn step(&mut self, cfg: &LoopConfig) -> Result<(), Trap> {
        if self.machine.step()? == StepEvent::Yield {
            exchange(&mut self.machine, cfg, &mut self.env);
        }
        Ok(())
    }
}

/// Runs the golden and faulty machines in lockstep and reports the fault's
/// propagation over a window of `window` instructions after injection.
///
/// # Panics
///
/// Panics if `fault.location_index` is out of range or the golden run traps
/// (a workload bug).
#[must_use]
pub fn analyze(
    workload: &Workload,
    cfg: &LoopConfig,
    fault: FaultSpec,
    window: u64,
) -> PropagationReport {
    let location = scan::catalog()[fault.location_index];
    let mut golden = Lockstep::new(workload, cfg);
    let mut faulty = Lockstep::new(workload, cfg);

    // Advance both to the injection point.
    for m in [&mut golden, &mut faulty] {
        let exit = loop {
            if m.machine.instr_count() >= fault.inject_at {
                break None;
            }
            match m.step(cfg) {
                Ok(()) => {}
                Err(t) => break Some(t),
            }
        };
        assert!(exit.is_none(), "pre-injection run must be fault-free");
    }

    faulty.machine.scan_flip(location);
    let initial_diff = faulty.machine.scan_diff_count(&golden.machine);

    let mut spread_at = None;
    let mut output_diverged_at = None;
    let mut detected = None;
    let mut steps = 0u64;
    let mut final_diff = initial_diff;

    for _ in 0..window {
        let idx = golden.machine.instr_count();
        golden.step(cfg).expect("golden run must stay fault-free");
        match faulty.step(cfg) {
            Ok(()) => {}
            Err(trap) => {
                detected = Some(trap);
                steps += 1;
                break;
            }
        }
        steps += 1;
        let diff = faulty.machine.scan_diff_count(&golden.machine);
        final_diff = diff;
        if spread_at.is_none() && diff > initial_diff {
            spread_at = Some(idx);
        }
        if output_diverged_at.is_none()
            && faulty.machine.port_out(PORT_U) != golden.machine.port_out(PORT_U)
        {
            output_diverged_at = Some(idx);
        }
        if diff == 0 && output_diverged_at.is_none() {
            // Fully healed; nothing more can happen deterministically.
            break;
        }
    }

    PropagationReport {
        fault,
        location,
        initial_diff,
        spread_at,
        output_diverged_at,
        detected,
        final_diff,
        steps_analysed: steps,
    }
}

/// Convenience: trace the faulty run instruction-by-instruction from the
/// injection point (GOOFI's detail-mode log) for `window` instructions.
#[must_use]
pub fn detail_trace(
    workload: &Workload,
    cfg: &LoopConfig,
    fault: FaultSpec,
    window: u64,
) -> (Vec<bera_tcpu::trace::TraceEntry>, RunExit) {
    let location = scan::catalog()[fault.location_index];
    let mut m = Lockstep::new(workload, cfg);
    while m.machine.instr_count() < fault.inject_at {
        m.step(cfg).expect("pre-injection run must be fault-free");
    }
    m.machine.scan_flip(location);
    bera_tcpu::trace::trace_run(&mut m.machine, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::golden_run;
    use bera_tcpu::scan::catalog;

    fn find(pred: impl Fn(&BitLocation) -> bool) -> usize {
        catalog().iter().position(pred).expect("location exists")
    }

    #[test]
    fn dead_state_fault_never_spreads() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(10);
        let fault = FaultSpec {
            location_index: find(|l| matches!(l, BitLocation::Save { index: 0, bit: 3 })),
            inject_at: 100,
        };
        let report = analyze(&w, &cfg, fault, 2_000);
        assert_eq!(report.initial_diff, 1);
        assert_eq!(report.spread_at, None, "supervisor save regs are dead");
        assert_eq!(report.output_diverged_at, None);
        assert_eq!(report.final_diff, 1, "the flip stays latent");
    }

    #[test]
    fn x_corruption_spreads_and_reaches_the_output() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(20);
        let golden = golden_run(&w, &cfg);
        let fault = FaultSpec {
            location_index: find(|l| matches!(l, BitLocation::CacheData { line: 0, bit: 30 })),
            inject_at: golden.total_instructions / 3,
        };
        let report = analyze(&w, &cfg, fault, 5_000);
        assert!(report.spread_at.is_some(), "corrupted x must propagate");
        assert!(
            report.output_diverged_at.is_some() || report.detected.is_some(),
            "a high exponent bit of x must reach the output or trap: {report:?}"
        );
        if let (Some(spread), Some(out)) = (report.spread_at, report.output_diverged_at) {
            assert!(spread <= out, "state corruption precedes output corruption");
        }
    }

    #[test]
    fn scratch_fault_heals() {
        // A flip in a scrub register right at an iteration boundary gets
        // overwritten by the next scrub prologue.
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(10);
        let fault = FaultSpec {
            location_index: find(|l| matches!(l, BitLocation::Reg { index: 10, bit: 7 })),
            inject_at: 3,
        };
        let report = analyze(&w, &cfg, fault, 3_000);
        assert!(
            report.healed(),
            "scrub register flip must be overwritten: {report:?}"
        );
    }

    #[test]
    fn pc_fault_is_detected_in_window() {
        // A PC flip heals if the very next instruction is a taken control
        // transfer (which rewrites the PC); anywhere in straight-line code
        // it is caught when the prefetch from the wild address is consumed.
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(10);
        let location_index = find(|l| matches!(l, BitLocation::Pc { bit: 22 }));
        let detections = (5..25)
            .map(|inject_at| {
                analyze(
                    &w,
                    &cfg,
                    FaultSpec {
                        location_index,
                        inject_at,
                    },
                    2_000,
                )
            })
            .filter(|r| r.detected.is_some())
            .count();
        assert!(
            detections > 10,
            "most wild PCs must be caught: {detections}"
        );
    }

    #[test]
    fn detail_trace_starts_at_injection() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(10);
        let fault = FaultSpec {
            location_index: 0,
            inject_at: 40,
        };
        let (entries, _) = detail_trace(&w, &cfg, fault, 50);
        assert_eq!(entries.first().unwrap().index, 40);
        // The trace ends at the window or at the next yield, whichever
        // comes first.
        assert!(!entries.is_empty() && entries.len() <= 50);
    }
}
