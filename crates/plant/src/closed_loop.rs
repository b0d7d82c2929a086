//! The closed-loop driver: controller ↔ engine, one exchange per sample.
//!
//! This mirrors the paper's experimental setup, where the environment
//! simulator on the host exchanges data with the target system at the end
//! of every loop iteration. [`Environment`] is the host's side of that
//! exchange, declared once: the sample instant `k·dt`, the actuator law
//! and the plant step.

use crate::engine::Engine;
use crate::profiles::Profiles;
use crate::trace::{Sample, Trace};
use bera_core::controller::{Controller, Limits};
use bera_core::PiGains;

/// The sample instant of iteration `k`, `t = k·dt`. Computed from the
/// count rather than accumulated, so no rounding builds up over a run.
#[must_use]
pub fn sample_instant(k: usize, dt: f64) -> f64 {
    k as f64 * dt
}

/// The actuator law: the throttle saturates at its mechanical stops, so a
/// finite command is clamped to [`Limits::throttle`], and a non-finite
/// one (a corrupted command word) falls to the lower stop. Unlike
/// [`Limits::clamp`], `+∞` goes to 0, not 70.
#[must_use]
pub fn actuate(u: f64) -> f64 {
    let Limits { lo, hi } = Limits::throttle();
    if u.is_finite() {
        u.clamp(lo, hi)
    } else {
        lo
    }
}

/// The host's side of the loop, the paper's environment simulator: the
/// engine at the start of control iteration `k`. Every closed loop, native
/// ([`ClosedLoop`]) or on Thor, ends an iteration with [`Environment::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    engine: Engine,
    iteration: usize,
}

impl Environment {
    /// The environment at iteration 0, with the engine in `engine`'s state.
    #[must_use]
    pub fn new(engine: Engine) -> Self {
        Environment {
            engine,
            iteration: 0,
        }
    }

    /// The iteration `k` the environment is in.
    #[must_use]
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The engine (plant) state; its speed is iteration `k`'s measurement.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Ends iteration `k` under command `u`: the engine advances by `dt`
    /// with the throttle at [`actuate`]`(u)` against the load at
    /// [`sample_instant`]`(k, dt)`, and the environment moves to
    /// iteration `k + 1`. Returns the load torque applied.
    pub fn step(&mut self, u: f64, profiles: &Profiles, dt: f64) -> f64 {
        let load = profiles.load(sample_instant(self.iteration, dt));
        self.engine.advance(actuate(u), load, dt);
        self.iteration += 1;
        load
    }
}

/// Runs a [`Controller`] against an [`Engine`] under given [`Profiles`].
///
/// # Example
///
/// ```
/// use bera_core::ProtectedPiController;
/// use bera_plant::{ClosedLoop, Engine, Profiles};
/// let mut cl = ClosedLoop::new(Engine::paper(), ProtectedPiController::paper());
/// let trace = cl.run(&Profiles::paper(), 650);
/// assert_eq!(trace.len(), 650);
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoop<C> {
    env: Environment,
    controller: C,
    sample_interval: f64,
}

impl<C: Controller> ClosedLoop<C> {
    /// Creates a closed loop with the paper's 15.4 ms sample interval.
    #[must_use]
    pub fn new(engine: Engine, controller: C) -> Self {
        Self::with_interval(engine, controller, PiGains::PAPER_SAMPLE_INTERVAL)
    }

    /// Creates a closed loop with an explicit sample interval (s).
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is not positive and finite.
    #[must_use]
    pub fn with_interval(engine: Engine, controller: C, sample_interval: f64) -> Self {
        assert!(
            sample_interval.is_finite() && sample_interval > 0.0,
            "sample interval must be positive"
        );
        ClosedLoop {
            env: Environment::new(engine),
            controller,
            sample_interval,
        }
    }

    /// The engine (plant) state.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.env.engine()
    }

    /// The controller.
    #[must_use]
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Mutable controller access — the hook SWIFI uses to corrupt state
    /// between iterations.
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Elapsed simulated time (s): the sample instant of the next
    /// iteration.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        sample_instant(self.env.iteration(), self.sample_interval)
    }

    /// Executes one control iteration: sample the profiles, run the
    /// controller, actuate the engine, and return the recorded sample.
    /// The sample's `u` is the controller's command, before [`actuate`].
    pub fn step(&mut self, profiles: &Profiles) -> Sample {
        let t = self.elapsed();
        let r = profiles.reference(t);
        let y = self.env.engine().speed_rpm();
        let u = self.controller.step(r, y);
        let load = self.env.step(u, profiles, self.sample_interval);
        Sample { t, r, y, u, load }
    }

    /// Runs `iterations` control iterations and returns the trace.
    pub fn run(&mut self, profiles: &Profiles, iterations: usize) -> Trace {
        (0..iterations).map(|_| self.step(profiles)).collect()
    }
}

/// Adapts a closure `(r, y) -> u_lim` into a [`Controller`], so a control
/// law with no state of its own can be driven by [`ClosedLoop`].
///
/// # Example
///
/// ```
/// use bera_plant::{ClosedLoop, Engine, FnController, Profiles};
/// // A bang-bang controller as a closure.
/// let ctrl = FnController::new(|r, y| if y < r { 70.0 } else { 0.0 });
/// let mut cl = ClosedLoop::new(Engine::paper(), ctrl);
/// let trace = cl.run(&Profiles::constant(2500.0), 100);
/// assert_eq!(trace.len(), 100);
/// ```
pub struct FnController<F> {
    f: F,
    limits: Limits,
}

impl<F: FnMut(f64, f64) -> f64> FnController<F> {
    /// Wraps the closure with throttle limits.
    #[must_use]
    pub fn new(f: F) -> Self {
        FnController {
            f,
            limits: Limits::throttle(),
        }
    }
}

impl<F: FnMut(f64, f64) -> f64> Controller for FnController<F> {
    fn step(&mut self, r: f64, y: f64) -> f64 {
        (self.f)(r, y)
    }

    fn reset(&mut self) {}

    fn state(&self) -> Vec<f64> {
        Vec::new()
    }

    fn set_state(&mut self, _index: usize, _value: f64) {
        panic!("FnController exposes no state");
    }

    fn limits(&self) -> Limits {
        self.limits
    }
}

impl<F> std::fmt::Debug for FnController<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnController")
            .field("limits", &self.limits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bera_core::{PiController, ProtectedPiController};

    #[test]
    fn paper_loop_tracks_first_reference() {
        let mut cl = ClosedLoop::new(Engine::paper(), PiController::paper());
        let trace = cl.run(&Profiles::paper(), 325); // first 5 s
                                                     // Check the settled window before the first load hill (2 s < t < 3 s);
                                                     // during the hill the paper's own Figure 3 shows the speed dipping.
        let settled: Vec<_> = trace
            .samples()
            .iter()
            .filter(|s| s.t > 2.0 && s.t < 3.0)
            .collect();
        assert!(!settled.is_empty());
        for s in settled {
            assert!(
                (s.y - 2000.0).abs() < 60.0,
                "settled near 2000 rpm at t={}: y={}",
                s.t,
                s.y
            );
        }
    }

    #[test]
    fn paper_loop_tracks_step_to_3000() {
        let mut cl = ClosedLoop::new(Engine::paper(), PiController::paper());
        let trace = cl.run(&Profiles::paper(), 650);
        let last = trace.samples().last().unwrap();
        assert!(
            (last.y - 3000.0).abs() < 50.0,
            "settled near 3000 rpm: {}",
            last.y
        );
    }

    #[test]
    fn load_hills_cause_speed_dips() {
        let mut cl = ClosedLoop::new(Engine::paper(), PiController::paper());
        let trace = cl.run(&Profiles::paper(), 650);
        // During the first hill (3 < t < 4) the speed drops measurably below
        // the reference.
        let dip = trace
            .samples()
            .iter()
            .filter(|s| s.t > 3.0 && s.t < 4.0)
            .map(|s| s.r - s.y)
            .fold(f64::MIN, f64::max);
        assert!(dip > 20.0, "visible dip under load, got {dip}");
        // And the controller opens the throttle to compensate.
        let u_flat = trace
            .samples()
            .iter()
            .filter(|s| s.t > 2.0 && s.t < 3.0)
            .map(|s| s.u)
            .fold(f64::MIN, f64::max);
        let u_hill = trace
            .samples()
            .iter()
            .filter(|s| s.t > 3.2 && s.t < 4.0)
            .map(|s| s.u)
            .fold(f64::MIN, f64::max);
        assert!(u_hill > u_flat + 2.0, "throttle opens on the hill");
    }

    #[test]
    fn protected_controller_identical_fault_free() {
        let mut a = ClosedLoop::new(Engine::paper(), PiController::paper());
        let mut b = ClosedLoop::new(Engine::paper(), ProtectedPiController::paper());
        let ta = a.run(&Profiles::paper(), 650);
        let tb = b.run(&Profiles::paper(), 650);
        assert_eq!(tb.max_output_deviation(&ta), 0.0);
    }

    #[test]
    fn outputs_stay_within_throttle_range() {
        let mut cl = ClosedLoop::new(Engine::paper(), PiController::paper());
        let trace = cl.run(&Profiles::paper(), 650);
        assert!(trace.outputs().iter().all(|&u| (0.0..=70.0).contains(&u)));
    }

    #[test]
    fn elapsed_time_advances() {
        let mut cl = ClosedLoop::new(Engine::paper(), PiController::paper());
        cl.run(&Profiles::paper(), 650);
        assert!((cl.elapsed() - 10.01).abs() < 0.01, "650 × 15.4 ms ≈ 10 s");
    }

    #[test]
    fn fn_controller_drives_loop() {
        let ctrl = FnController::new(|r: f64, y: f64| ((r - y) * 0.1).clamp(0.0, 70.0));
        let mut cl = ClosedLoop::new(Engine::paper(), ctrl);
        let trace = cl.run(&Profiles::constant(2200.0), 200);
        assert_eq!(trace.len(), 200);
    }

    #[test]
    fn actuator_law() {
        for (u, want) in [
            (-1.0, 0.0),
            (35.0, 35.0),
            (100.0, 70.0),
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.0),
            (f64::NEG_INFINITY, 0.0),
        ] {
            assert_eq!(actuate(u).to_bits(), f64::to_bits(want), "{u}");
        }
        // The difference from the controller's own output limit.
        assert_eq!(Limits::throttle().clamp(f64::INFINITY), 70.0);
    }

    #[test]
    fn the_loop_actuates_what_it_records_unactuated() {
        // The engine clamps a finite throttle itself; only the actuator
        // law sends a non-finite command to the lower stop.
        let profiles = Profiles::constant(2000.0);
        let mut stopped = Environment::new(Engine::paper());
        stopped.step(0.0, &profiles, PiGains::PAPER_SAMPLE_INTERVAL);
        for u in [f64::INFINITY, f64::NAN] {
            let mut cl = ClosedLoop::new(Engine::paper(), FnController::new(move |_, _| u));
            assert_eq!(cl.step(&profiles).u.to_bits(), u.to_bits());
            assert_eq!(cl.engine(), stopped.engine(), "{u}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = ClosedLoop::with_interval(Engine::paper(), PiController::paper(), 0.0);
    }
}
