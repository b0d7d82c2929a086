//! Pre-runtime software-implemented fault injection (SWIFI) on the native
//! controllers.
//!
//! GOOFI supports two techniques: SCIFI (scan chains, [`crate::campaign`])
//! and **SWIFI**, which corrupts workload variables directly in memory.
//! Here SWIFI flips one bit of one controller state variable between two
//! control iterations of the *native* Rust controllers — a fast,
//! CPU-model-free view of the same question: *what does a corrupted state
//! variable do to the controlled object, and how much does the protection
//! of Algorithm II help?*

use crate::classify::{Classifier, Severity};
use crate::experiment::{FaultModel, LoopConfig};
use bera_core::bitflip::flip_bit_f64;
use bera_core::Controller;
use bera_plant::ClosedLoop;
use bera_stats::sampling::UniformSampler;
use serde::{Deserialize, Serialize};

/// Configuration of a SWIFI campaign.
#[derive(Debug, Clone)]
pub struct SwifiConfig {
    /// Number of faults to inject.
    pub faults: usize,
    /// RNG seed.
    pub seed: u64,
    /// Control iterations per run (650 in the paper).
    pub iterations: usize,
    /// The fault model, applied over the 64 bits of the targeted state
    /// variable's `f64` representation (the paper uses single bit-flips).
    pub model: FaultModel,
}

impl SwifiConfig {
    /// The paper-shaped configuration.
    #[must_use]
    pub fn paper(faults: usize, seed: u64) -> Self {
        SwifiConfig {
            faults,
            seed,
            iterations: 650,
            model: FaultModel::SingleBit,
        }
    }
}

/// One SWIFI fault: which state variable, which bit, before which
/// iteration, under which fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwifiFault {
    /// Index of the controller state variable.
    pub state_index: usize,
    /// Anchor bit of the `f64` representation (0–63); multi-bit models
    /// cluster around it.
    pub bit: u32,
    /// The fault is injected before this iteration.
    pub iteration: usize,
    /// The fault model governing the perturbation and any re-assertions.
    pub model: FaultModel,
}

/// Forces one bit of an `f64`'s representation to `value`.
fn force_bit_f64(v: f64, bit: u32, value: bool) -> f64 {
    if ((v.to_bits() >> bit) & 1 != 0) == value {
        v
    } else {
        flip_bit_f64(v, bit)
    }
}

/// Applies a fault's perturbation to one state value: every bit of the
/// model's cluster is flipped (or forced, for stuck-at). Used both for the
/// initial injection and for re-assertions, which by construction apply
/// the identical perturbation.
fn perturb(state: f64, fault: &SwifiFault) -> f64 {
    let mut v = state;
    for b in fault.model.cluster(fault.bit as usize, 64) {
        v = match fault.model {
            FaultModel::StuckAt { value } => force_bit_f64(v, b as u32, value),
            _ => flip_bit_f64(v, b as u32),
        };
    }
    v
}

/// The record of one SWIFI experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwifiRecord {
    /// The injected fault.
    pub fault: SwifiFault,
    /// Value-failure severity; `None` when the output sequence was
    /// identical to the golden run (the flip never became visible).
    pub severity: Option<Severity>,
    /// Largest absolute output deviation (degrees).
    pub max_deviation: f64,
}

/// Aggregate of a SWIFI campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwifiResult {
    /// Per-experiment records.
    pub records: Vec<SwifiRecord>,
}

impl SwifiResult {
    /// Number of experiments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no experiments were run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of experiments with the given severity.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.records
            .iter()
            .filter(|r| r.severity == Some(severity))
            .count()
    }

    /// Count of severe value failures (permanent + semi-permanent).
    #[must_use]
    pub fn severe(&self) -> usize {
        self.count(Severity::Permanent) + self.count(Severity::SemiPermanent)
    }

    /// Count of experiments whose output never differed.
    #[must_use]
    pub fn masked(&self) -> usize {
        self.records.iter().filter(|r| r.severity.is_none()).count()
    }
}

/// Runs `ctrl` in closed loop against `plant`'s engine, profiles and
/// sample interval for `cfg.iterations` and returns its commands,
/// corrupting its state through [`ClosedLoop::controller_mut`] as `fault`
/// says.
fn run_loop<C: Controller>(
    ctrl: C,
    plant: &LoopConfig,
    cfg: &SwifiConfig,
    fault: Option<SwifiFault>,
) -> Vec<f64> {
    let mut cl = ClosedLoop::with_interval(plant.engine.clone(), ctrl, plant.sample_interval);
    let mut outputs = Vec::with_capacity(cfg.iterations);
    let mut injected = false;
    let mut reasserts_left = 0usize;
    for k in 0..cfg.iterations {
        if let Some(f) = fault {
            let ctrl = cl.controller_mut();
            if !injected && f.iteration == k {
                let states = ctrl.state();
                ctrl.set_state(f.state_index, perturb(states[f.state_index], &f));
                injected = true;
                reasserts_left = f.model.reassert_budget();
            } else if injected && reasserts_left > 0 {
                // Intermittent faults re-flip at the next N iteration
                // starts; stuck-at faults re-force forever (their budget
                // is effectively unbounded and force is idempotent).
                reasserts_left = reasserts_left.saturating_sub(1);
                let states = ctrl.state();
                ctrl.set_state(f.state_index, perturb(states[f.state_index], &f));
            }
        }
        outputs.push(cl.step(&plant.profiles).u);
    }
    outputs
}

/// Runs a SWIFI campaign on a controller. `make` builds a fresh controller
/// for every run (the pre-runtime download of the workload).
#[must_use]
pub fn run_swifi<C: Controller, F: Fn() -> C>(make: F, cfg: &SwifiConfig) -> SwifiResult {
    let classifier = Classifier::paper();
    let plant = LoopConfig::paper();
    let golden = run_loop(make(), &plant, cfg, None);
    let num_states = make().state().len();
    assert!(num_states > 0, "controller must expose state for SWIFI");

    let mut sampler = UniformSampler::with_seed(cfg.seed);
    let mut records = Vec::with_capacity(cfg.faults);
    for _ in 0..cfg.faults {
        let fault = SwifiFault {
            state_index: sampler.draw_index(num_states),
            bit: sampler.draw_index(64) as u32,
            iteration: sampler.draw_index(cfg.iterations),
            model: cfg.model,
        };
        let observed = run_loop(make(), &plant, cfg, Some(fault));
        let max_deviation = golden
            .iter()
            .zip(observed.iter())
            .map(|(g, o)| {
                if o.is_finite() {
                    (g - o).abs()
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0, f64::max);
        let severity = if golden
            .iter()
            .zip(observed.iter())
            .all(|(g, o)| g.to_bits() == o.to_bits())
        {
            None
        } else {
            Some(classifier.classify_values(&golden, &observed))
        };
        records.push(SwifiRecord {
            fault,
            severity,
            max_deviation,
        });
    }
    SwifiResult { records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bera_core::{PiController, ProtectedPiController};

    #[test]
    fn swifi_is_reproducible() {
        let cfg = SwifiConfig {
            faults: 30,
            seed: 9,
            iterations: 100,
            model: FaultModel::SingleBit,
        };
        let a = run_swifi(PiController::paper, &cfg);
        let b = run_swifi(PiController::paper, &cfg);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn plain_controller_shows_severe_failures() {
        let cfg = SwifiConfig {
            faults: 200,
            seed: 1,
            iterations: 200,
            model: FaultModel::SingleBit,
        };
        let r = run_swifi(PiController::paper, &cfg);
        assert_eq!(r.len(), 200);
        assert!(
            r.severe() > 0,
            "high exponent flips of x must cause severe failures"
        );
    }

    #[test]
    fn protected_controller_has_no_permanent_failures() {
        let cfg = SwifiConfig {
            faults: 300,
            seed: 2,
            iterations: 200,
            model: FaultModel::SingleBit,
        };
        let r = run_swifi(ProtectedPiController::paper, &cfg);
        assert_eq!(
            r.count(Severity::Permanent),
            0,
            "Algorithm II eliminates permanent failures"
        );
    }

    #[test]
    fn protection_reduces_severe_share() {
        let cfg = SwifiConfig {
            faults: 400,
            seed: 3,
            iterations: 250,
            model: FaultModel::SingleBit,
        };
        let plain = run_swifi(PiController::paper, &cfg);
        let protected = run_swifi(ProtectedPiController::paper, &cfg);
        assert!(
            protected.severe() < plain.severe(),
            "severe: protected {} vs plain {}",
            protected.severe(),
            plain.severe()
        );
    }

    #[test]
    fn counts_partition_the_records() {
        let cfg = SwifiConfig {
            faults: 100,
            seed: 4,
            iterations: 120,
            model: FaultModel::SingleBit,
        };
        let r = run_swifi(PiController::paper, &cfg);
        let total = r.masked()
            + r.count(Severity::Permanent)
            + r.count(Severity::SemiPermanent)
            + r.count(Severity::Transient)
            + r.count(Severity::Insignificant);
        assert_eq!(total, r.len());
    }

    /// A controller that just exposes its single state variable as the
    /// output, so the loop's injection schedule is directly observable.
    struct ProbeController {
        x: f64,
    }

    impl Controller for ProbeController {
        fn step(&mut self, _r: f64, _y: f64) -> f64 {
            self.x
        }
        fn reset(&mut self) {
            self.x = 0.0;
        }
        fn state(&self) -> Vec<f64> {
            vec![self.x]
        }
        fn set_state(&mut self, _index: usize, value: f64) {
            self.x = value;
        }
        fn limits(&self) -> bera_core::controller::Limits {
            bera_core::controller::Limits::new(0.0, 70.0)
        }
    }

    fn probe_outputs(model: FaultModel, bit: u32, at: usize, iterations: usize) -> Vec<f64> {
        let cfg = SwifiConfig {
            faults: 0,
            seed: 0,
            iterations,
            model,
        };
        let fault = SwifiFault {
            state_index: 0,
            bit,
            iteration: at,
            model,
        };
        run_loop(
            ProbeController { x: 1.0 },
            &LoopConfig::paper(),
            &cfg,
            Some(fault),
        )
    }

    #[test]
    fn single_bit_swifi_flips_once_and_stays() {
        // Probe holds its state, so a transient flip of the sign bit shows
        // from the injection iteration onward and is never re-applied.
        let out = probe_outputs(FaultModel::SingleBit, 63, 3, 8);
        assert_eq!(&out[..3], &[1.0, 1.0, 1.0]);
        assert!(out[3..].iter().all(|&u| u == -1.0), "{out:?}");
    }

    #[test]
    fn intermittent_swifi_reflips_for_its_budget() {
        // Each re-assertion flips the sign bit again, so the output
        // alternates for `reassert_iterations` iterations, then holds.
        let out = probe_outputs(
            FaultModel::Intermittent {
                reassert_iterations: 3,
            },
            63,
            2,
            9,
        );
        assert_eq!(out, vec![1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn stuck_at_swifi_forces_the_bit_every_iteration() {
        // Stuck-at-1 on the sign bit pins the state negative for the rest
        // of the run, no matter that the force is re-applied idempotently.
        let out = probe_outputs(FaultModel::StuckAt { value: true }, 63, 4, 10);
        assert_eq!(&out[..4], &[1.0; 4]);
        assert!(out[4..].iter().all(|&u| u == -1.0), "{out:?}");
        // Stuck-at the bit's existing value is fully masked.
        let masked = probe_outputs(FaultModel::StuckAt { value: false }, 63, 4, 10);
        assert!(masked.iter().all(|&u| u == 1.0), "{masked:?}");
    }

    #[test]
    fn burst_width_one_swifi_equals_single_bit() {
        let cfg_single = SwifiConfig {
            faults: 40,
            seed: 12,
            iterations: 120,
            model: FaultModel::SingleBit,
        };
        let cfg_burst = SwifiConfig {
            model: FaultModel::Burst { width: 1 },
            ..cfg_single.clone()
        };
        let single = run_swifi(PiController::paper, &cfg_single);
        let burst = run_swifi(PiController::paper, &cfg_burst);
        for (a, b) in single.records.iter().zip(burst.records.iter()) {
            assert_eq!(a.severity, b.severity);
            assert_eq!(a.max_deviation.to_bits(), b.max_deviation.to_bits());
            assert_eq!(a.fault.bit, b.fault.bit);
        }
    }

    #[test]
    fn richer_models_run_and_are_reproducible() {
        for model in [
            FaultModel::Intermittent {
                reassert_iterations: 4,
            },
            FaultModel::StuckAt { value: true },
            FaultModel::Burst { width: 3 },
        ] {
            let cfg = SwifiConfig {
                faults: 25,
                seed: 8,
                iterations: 100,
                model,
            };
            let a = run_swifi(PiController::paper, &cfg);
            let b = run_swifi(PiController::paper, &cfg);
            assert_eq!(a.records, b.records, "{model}");
            assert!(a.records.iter().all(|r| r.fault.model == model));
        }
    }
}

// ---------------------------------------------------------------------
// MIMO SWIFI — the paper's future-work direction.
// ---------------------------------------------------------------------

use bera_core::StateController;
use bera_plant::turbojet::MimoPlant;

/// Configuration of a MIMO SWIFI campaign.
#[derive(Debug, Clone)]
pub struct MimoSwifiConfig {
    /// Number of faults to inject.
    pub faults: usize,
    /// RNG seed.
    pub seed: u64,
    /// Control iterations per run.
    pub iterations: usize,
    /// Reference vector for the first half of the run.
    pub r_initial: Vec<f64>,
    /// Reference vector after the mid-run step.
    pub r_final: Vec<f64>,
}

impl MimoSwifiConfig {
    /// A two-output study shaped like the paper's scenario: hold, then
    /// step both references at mid-run.
    #[must_use]
    pub fn demo(faults: usize, seed: u64) -> Self {
        MimoSwifiConfig {
            faults,
            seed,
            iterations: 650,
            r_initial: vec![0.45, 0.40],
            r_final: vec![0.65, 0.55],
        }
    }
}

fn run_mimo_loop<C: StateController, P: MimoPlant + Clone>(
    ctrl: &mut C,
    plant: &P,
    cfg: &MimoSwifiConfig,
    mut fault: Option<SwifiFault>,
) -> Vec<Vec<f64>> {
    let mut plant = plant.clone();
    plant.reset();
    let m = ctrl.num_outputs();
    let mut u = vec![0.0; m];
    let mut outputs: Vec<Vec<f64>> = vec![Vec::with_capacity(cfg.iterations); m];
    for k in 0..cfg.iterations {
        if let Some(f) = fault {
            if f.iteration == k {
                let mut states = ctrl.states();
                states[f.state_index] = flip_bit_f64(states[f.state_index], f.bit);
                ctrl.set_states(&states);
                fault = None;
            }
        }
        let r = if k < cfg.iterations / 2 {
            &cfg.r_initial
        } else {
            &cfg.r_final
        };
        let y = plant.measure();
        let e: Vec<f64> = r.iter().zip(y.iter()).map(|(r, y)| r - y).collect();
        ctrl.compute(&e, &mut u);
        for (j, &uj) in u.iter().enumerate() {
            outputs[j].push(uj);
        }
        // The actuators reject non-finite commands at their lower stop.
        let act: Vec<f64> = u
            .iter()
            .map(|&v| if v.is_finite() { v } else { 0.0 })
            .collect();
        plant.step(&act);
    }
    outputs
}

/// Runs a SWIFI campaign over a MIMO controller in closed loop against
/// `plant`. Each fault flips one bit of one controller state variable
/// before one iteration; the outcome is the worst severity over all
/// output channels.
///
/// # Panics
///
/// Panics if the controller exposes no state, or the reference dimensions
/// do not match the plant.
#[must_use]
pub fn run_swifi_mimo<C, P, F>(make: F, plant: &P, cfg: &MimoSwifiConfig) -> SwifiResult
where
    C: StateController,
    P: MimoPlant + Clone,
    F: Fn() -> C,
{
    assert_eq!(
        cfg.r_initial.len(),
        plant.num_outputs(),
        "reference dimension must match the plant"
    );
    let classifier = Classifier {
        // The actuators are normalised to [0, 1]; scale the paper's 0.1°
        // threshold (of a 70° range) proportionally.
        threshold: 0.1 / 70.0,
        lo: 0.0,
        hi: 1.0,
        limit_eps: 1e-5,
        transient_horizon: 32,
    };
    let mut golden_ctrl = make();
    let golden = run_mimo_loop(&mut golden_ctrl, plant, cfg, None);
    let num_states = make().num_states();
    assert!(num_states > 0, "controller must expose state for SWIFI");

    let mut sampler = UniformSampler::with_seed(cfg.seed);
    let mut records = Vec::with_capacity(cfg.faults);
    for _ in 0..cfg.faults {
        let fault = SwifiFault {
            state_index: sampler.draw_index(num_states),
            bit: sampler.draw_index(64) as u32,
            iteration: sampler.draw_index(cfg.iterations),
            // The MIMO study keeps the paper's transient single-bit model.
            model: FaultModel::SingleBit,
        };
        let mut ctrl = make();
        let observed = run_mimo_loop(&mut ctrl, plant, cfg, Some(fault));

        let mut worst: Option<Severity> = None;
        let mut max_deviation = 0.0f64;
        for (g, o) in golden.iter().zip(observed.iter()) {
            let identical = g
                .iter()
                .zip(o.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if identical {
                continue;
            }
            let sev = classifier.classify_values(g, o);
            let dev = g
                .iter()
                .zip(o.iter())
                .map(|(a, b)| {
                    if b.is_finite() {
                        (a - b).abs()
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(0.0, f64::max);
            max_deviation = max_deviation.max(dev);
            worst = Some(match worst {
                None => sev,
                Some(prev) => worst_of(prev, sev),
            });
        }
        records.push(SwifiRecord {
            fault,
            severity: worst,
            max_deviation,
        });
    }
    SwifiResult { records }
}

/// Orders severities from worst to mildest.
fn worst_of(a: Severity, b: Severity) -> Severity {
    use Severity::*;
    let rank = |s: Severity| match s {
        Permanent => 0,
        SemiPermanent => 1,
        Transient => 2,
        Insignificant => 3,
    };
    if rank(a) <= rank(b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod mimo_tests {
    use super::*;
    use bera_core::controller::Limits;
    use bera_core::{MimoController, Protected, StateSpace};
    use bera_plant::Turbojet;

    fn controller() -> MimoController {
        MimoController::new(
            StateSpace::jet_engine_demo(),
            vec![Limits::new(0.0, 1.0); 2],
        )
    }

    #[test]
    fn golden_mimo_loop_tracks_references() {
        let cfg = MimoSwifiConfig::demo(0, 1);
        let mut ctrl = controller();
        let outputs = run_mimo_loop(&mut ctrl, &Turbojet::demo(), &cfg, None);
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[0].len(), cfg.iterations);
        // The loop must not be saturated or dead at the end.
        let tail0 = *outputs[0].last().unwrap();
        assert!(tail0 > 0.0 && tail0 < 1.0, "u0 tail {tail0}");
    }

    #[test]
    fn mimo_swifi_runs_and_is_reproducible() {
        let cfg = MimoSwifiConfig {
            iterations: 200,
            ..MimoSwifiConfig::demo(25, 5)
        };
        let jet = Turbojet::demo();
        let a = run_swifi_mimo(controller, &jet, &cfg);
        let b = run_swifi_mimo(controller, &jet, &cfg);
        assert_eq!(a.records, b.records);
        assert_eq!(a.len(), 25);
    }

    fn rate_protected() -> Protected<MimoController> {
        use bera_core::assertion::{All, Assertion, RangeAssertion, RateAssertion};
        // Tight physical envelope (the integrator holds the actuator value,
        // which is bounded) plus a rate assertion: the integrator cannot
        // physically move faster than B·e_max per sample.
        let state: Vec<Box<dyn Assertion<f64> + Send + Sync>> = (0..2)
            .map(|_| {
                Box::new(All::new(
                    RangeAssertion::new(Limits::new(-0.5, 1.5)),
                    RateAssertion::new(0.05),
                )) as Box<dyn Assertion<f64> + Send + Sync>
            })
            .collect();
        let output: Vec<Box<dyn Assertion<f64> + Send + Sync>> = (0..2)
            .map(|_| {
                Box::new(RangeAssertion::new(Limits::new(0.0, 1.0)))
                    as Box<dyn Assertion<f64> + Send + Sync>
            })
            .collect();
        Protected::with_assertions(controller(), state, output)
    }

    #[test]
    fn range_protection_reduces_mimo_severity() {
        let cfg = MimoSwifiConfig {
            iterations: 300,
            ..MimoSwifiConfig::demo(150, 6)
        };
        let jet = Turbojet::demo();
        let plain = run_swifi_mimo(controller, &jet, &cfg);
        let protected = run_swifi_mimo(
            || Protected::uniform(controller(), Limits::new(-0.5, 1.5)),
            &jet,
            &cfg,
        );
        assert!(
            protected.severe() < plain.severe(),
            "protected {} vs plain {}",
            protected.severe(),
            plain.severe()
        );
    }

    #[test]
    fn rate_assertions_eliminate_mimo_permanents() {
        // A pure range assertion cannot stop *in-range* corruptions of a
        // slow MIMO integrator from pinning an actuator for longer than
        // the observation window — the rate assertion can.
        let cfg = MimoSwifiConfig {
            iterations: 300,
            ..MimoSwifiConfig::demo(150, 6)
        };
        let jet = Turbojet::demo();
        let protected = run_swifi_mimo(rate_protected, &jet, &cfg);
        assert_eq!(
            protected.count(Severity::Permanent),
            0,
            "range + rate assertions must eliminate permanent MIMO failures"
        );
    }
}
