//! The engine model — the controlled object of Figure 1.
//!
//! The model captures the three phenomena that matter for the paper's
//! failure classification:
//!
//! 1. the engine responds to the throttle angle with a lag (so one-iteration
//!    output glitches are naturally absorbed — the inherent robustness the
//!    paper observes);
//! 2. speed-dependent losses give a well-defined equilibrium throttle for
//!    each speed (so a locked throttle drives the speed far from the
//!    reference — the severe failures);
//! 3. an external load torque disturbs the loop (Figure 4), producing the
//!    speed dips of Figure 3.
//!
//! Torque production is `k_t · θ · (1 − ω/ω_max)` filtered through a
//! first-order intake lag; rotation obeys `J·dω/dt = T_engine − T_load − b·ω`.

use serde::{Deserialize, Serialize};

/// Conversion factor: rad/s → rpm.
pub const RADS_TO_RPM: f64 = 60.0 / (2.0 * std::f64::consts::PI);

/// Physical parameters of the engine model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineParams {
    /// Torque gain: N·m of low-speed torque per degree of throttle.
    pub torque_per_degree: f64,
    /// Speed at which torque production collapses to zero (rad/s).
    pub omega_max: f64,
    /// Intake/combustion lag time constant (s).
    pub intake_tau: f64,
    /// Crankshaft + driveline inertia (kg·m²).
    pub inertia: f64,
    /// Viscous friction coefficient (N·m per rad/s).
    pub friction: f64,
    /// Integration sub-step used inside one controller sample (s).
    pub dt: f64,
}

impl EngineParams {
    /// Parameters tuned to give the paper's operating range: ~10–30° of
    /// throttle holds 2000–3000 rpm, full throttle reaches > 4000 rpm.
    #[must_use]
    pub fn paper() -> Self {
        EngineParams {
            torque_per_degree: 1.7,
            omega_max: 600.0,
            intake_tau: 0.05,
            inertia: 0.2,
            friction: 0.05,
            dt: 0.00154, // 10 sub-steps per 15.4 ms control interval
        }
    }
}

/// The engine: consumes a throttle angle each control interval, produces a
/// measured speed in rpm.
///
/// # Example
///
/// ```
/// use bera_plant::Engine;
/// let mut e = Engine::paper();
/// // Full throttle, no external load, from 2000 rpm: the engine speeds up.
/// let before = e.speed_rpm();
/// e.advance(70.0, 0.0, 0.0154);
/// assert!(e.speed_rpm() > before);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Engine {
    params: EngineParams,
    /// Angular speed (rad/s).
    omega: f64,
    /// Delivered engine torque after the intake lag (N·m).
    torque: f64,
}

impl Engine {
    /// Creates an engine at rest (`start_rpm = 0`) with the given parameters.
    #[must_use]
    pub fn new(params: EngineParams, start_rpm: f64) -> Self {
        let omega = start_rpm / RADS_TO_RPM;
        // Start the torque state at the value that holds this speed with no
        // external load, so the trajectory has no artificial kick at t = 0.
        let torque = params.friction * omega;
        Engine {
            params,
            omega,
            torque,
        }
    }

    /// The paper's engine: tuned parameters, idling at 2000 rpm when the
    /// observed interval starts (Figure 3 begins on the reference).
    #[must_use]
    pub fn paper() -> Self {
        Engine::new(EngineParams::paper(), 2000.0)
    }

    /// Current engine speed in rpm — the measurement `y` fed back to the
    /// controller.
    #[must_use]
    pub fn speed_rpm(&self) -> f64 {
        self.omega * RADS_TO_RPM
    }

    /// Current angular speed in rad/s.
    #[must_use]
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Currently delivered engine torque (N·m).
    #[must_use]
    pub fn torque(&self) -> f64 {
        self.torque
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> EngineParams {
        self.params
    }

    /// Steady-state torque command for throttle `theta_deg` at speed
    /// `omega` — the engine's static torque map.
    #[must_use]
    pub fn torque_command(&self, theta_deg: f64, omega: f64) -> f64 {
        let theta = theta_deg.clamp(0.0, 70.0);
        let derate = (1.0 - omega / self.params.omega_max).max(0.0);
        self.params.torque_per_degree * theta * derate
    }

    /// Advances the engine by one control interval of length `interval`
    /// seconds, holding the throttle at `theta_deg` degrees against an
    /// external load torque `load` (N·m). Uses forward-Euler sub-steps of
    /// `params.dt`.
    pub fn advance(&mut self, theta_deg: f64, load: f64, interval: f64) {
        let p = self.params;
        let steps = (interval / p.dt).round().max(1.0) as usize;
        let dt = interval / steps as f64;
        for _ in 0..steps {
            let t_cmd = self.torque_command(theta_deg, self.omega);
            self.torque += (t_cmd - self.torque) / p.intake_tau * dt;
            let net = self.torque - load - p.friction * self.omega;
            self.omega += net / p.inertia * dt;
            if self.omega < 0.0 {
                self.omega = 0.0; // the engine cannot spin backwards
            }
        }
    }

    /// The throttle angle that holds speed `rpm` in steady state against
    /// `load` (N·m); useful for tests and for pre-warming controllers.
    #[must_use]
    pub fn equilibrium_throttle(&self, rpm: f64, load: f64) -> f64 {
        let omega = rpm / RADS_TO_RPM;
        let needed = self.params.friction * omega + load;
        let derate = (1.0 - omega / self.params.omega_max).max(1e-9);
        (needed / (self.params.torque_per_degree * derate)).clamp(0.0, 70.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_requested_speed() {
        let e = Engine::paper();
        assert!((e.speed_rpm() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn accelerates_under_full_throttle() {
        let mut e = Engine::paper();
        for _ in 0..650 {
            e.advance(70.0, 0.0, 0.0154);
        }
        assert!(
            e.speed_rpm() > 4000.0,
            "full throttle must exceed 4000 rpm, got {}",
            e.speed_rpm()
        );
    }

    #[test]
    fn decelerates_with_closed_throttle() {
        let mut e = Engine::paper();
        for _ in 0..650 {
            e.advance(0.0, 0.0, 0.0154);
        }
        assert!(
            e.speed_rpm() < 500.0,
            "closed throttle must coast down, got {}",
            e.speed_rpm()
        );
    }

    #[test]
    fn speed_never_negative() {
        let mut e = Engine::new(EngineParams::paper(), 100.0);
        for _ in 0..2000 {
            e.advance(0.0, 50.0, 0.0154); // heavy load, no throttle
        }
        assert!(e.speed_rpm() >= 0.0);
    }

    #[test]
    fn equilibrium_throttle_holds_speed() {
        let mut e = Engine::paper();
        let theta = e.equilibrium_throttle(2000.0, 0.0);
        assert!(theta > 5.0 && theta < 25.0, "plausible angle: {theta}");
        for _ in 0..2000 {
            e.advance(theta, 0.0, 0.0154);
        }
        assert!(
            (e.speed_rpm() - 2000.0).abs() < 30.0,
            "speed held near 2000: {}",
            e.speed_rpm()
        );
    }

    #[test]
    fn load_slows_the_engine_at_fixed_throttle() {
        let mut a = Engine::paper();
        let mut b = Engine::paper();
        let theta = a.equilibrium_throttle(2000.0, 0.0);
        for _ in 0..650 {
            a.advance(theta, 0.0, 0.0154);
            b.advance(theta, 15.0, 0.0154);
        }
        assert!(b.speed_rpm() < a.speed_rpm() - 100.0);
    }

    #[test]
    fn torque_derates_with_speed() {
        let e = Engine::paper();
        let low = e.torque_command(40.0, 100.0);
        let high = e.torque_command(40.0, 500.0);
        assert!(low > high);
        assert_eq!(e.torque_command(40.0, 700.0), 0.0, "beyond omega_max");
    }

    #[test]
    fn throttle_is_clamped_by_model() {
        let e = Engine::paper();
        assert_eq!(
            e.torque_command(1000.0, 0.0),
            e.torque_command(70.0, 0.0),
            "model saturates unphysical commands"
        );
        assert_eq!(e.torque_command(-5.0, 0.0), 0.0);
    }

    #[test]
    fn advance_is_deterministic() {
        let mut a = Engine::paper();
        let mut b = Engine::paper();
        for k in 0..100 {
            let th = 10.0 + (k % 7) as f64;
            a.advance(th, 3.0, 0.0154);
            b.advance(th, 3.0, 0.0154);
        }
        assert_eq!(a, b);
    }
}
