//! Multiple-input multiple-output (MIMO) controllers.
//!
//! The paper's conclusion announces future work on "multiple input and
//! multiple output control algorithms such as jet-engine controllers". This
//! module provides that extension: a discrete-time state-space controller
//!
//! ```text
//! x(k+1) = A·x(k) + B·e(k)
//! u(k)   = sat(C·x(k) + D·e(k))
//! ```
//!
//! which implements [`StateController`] and can therefore be wrapped with
//! [`Protected`](crate::Protected) to obtain executable assertions and best
//! effort recovery over every state and output — the paper's Section 4.3
//! recipe at full generality.

use crate::controller::Limits;
use crate::recovery::StateController;
use serde::{Deserialize, Serialize};

/// A dense matrix stored row-major, sized at construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// A `rows × cols` zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::new(rows, cols, vec![0.0; rows * cols])
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Computes `out += self · v`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    pub fn mul_add_vec(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (r, slot) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let acc: f64 = row.iter().zip(v).map(|(a, b)| a * b).sum();
            *slot += acc;
        }
    }
}

/// The `(A, B, C, D)` quadruple of a discrete-time state-space system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSpace {
    /// State transition matrix (n × n).
    pub a: Matrix,
    /// Input matrix (n × m).
    pub b: Matrix,
    /// Output matrix (p × n).
    pub c: Matrix,
    /// Feedthrough matrix (p × m).
    pub d: Matrix,
}

impl StateSpace {
    /// Validates dimensional consistency and constructs the system.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimensions are inconsistent.
    #[must_use]
    pub fn new(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Self {
        assert_eq!(a.rows(), a.cols(), "A must be square");
        assert_eq!(b.rows(), a.rows(), "B row count must match A");
        assert_eq!(c.cols(), a.rows(), "C column count must match A");
        assert_eq!(d.rows(), c.rows(), "D row count must match C");
        assert_eq!(d.cols(), b.cols(), "D column count must match B");
        StateSpace { a, b, c, d }
    }

    /// Number of state variables.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.a.rows()
    }

    /// Number of inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.c.rows()
    }

    /// A two-spool jet-engine-style demo controller: two PI loops with
    /// light cross-coupling, controlling fuel flow and nozzle area from two
    /// speed errors. Stable, diagonally dominant.
    #[must_use]
    pub fn jet_engine_demo() -> Self {
        // States: two integrators (one per loop).
        let a = Matrix::new(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::new(2, 2, vec![0.004, 0.0005, 0.0005, 0.003]);
        let c = Matrix::new(2, 2, vec![1.0, 0.05, 0.05, 1.0]);
        let d = Matrix::new(2, 2, vec![0.02, 0.002, 0.002, 0.015]);
        StateSpace::new(a, b, c, d)
    }
}

/// A discrete state-space controller with per-output saturation, intended
/// to be wrapped with [`Protected`](crate::Protected).
///
/// Inputs to [`StateController::compute`] are the error signals
/// `e_1 … e_m`; outputs are the limited actuator commands.
///
/// # Example
///
/// ```
/// use bera_core::{MimoController, StateSpace, Protected, StateController};
/// use bera_core::controller::Limits;
///
/// let sys = StateSpace::jet_engine_demo();
/// let ctrl = MimoController::new(sys, vec![Limits::new(0.0, 1.0); 2]);
/// let mut protected = Protected::uniform(ctrl, Limits::new(-10.0, 10.0));
/// let mut u = [0.0; 2];
/// protected.compute(&[0.3, -0.1], &mut u);
/// assert!(u.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MimoController {
    sys: StateSpace,
    limits: Vec<Limits>,
    x: Vec<f64>,
}

impl MimoController {
    /// Creates the controller with zero initial state.
    ///
    /// # Panics
    ///
    /// Panics if `limits.len() != sys.num_outputs()`.
    #[must_use]
    pub fn new(sys: StateSpace, limits: Vec<Limits>) -> Self {
        assert_eq!(
            limits.len(),
            sys.num_outputs(),
            "one limit per output signal"
        );
        let n = sys.num_states();
        MimoController {
            sys,
            limits,
            x: vec![0.0; n],
        }
    }

    /// The underlying state-space system.
    #[must_use]
    pub fn system(&self) -> &StateSpace {
        &self.sys
    }
}

impl StateController for MimoController {
    fn num_states(&self) -> usize {
        self.sys.num_states()
    }

    fn num_outputs(&self) -> usize {
        self.sys.num_outputs()
    }

    fn states(&self) -> Vec<f64> {
        self.x.clone()
    }

    fn set_states(&mut self, states: &[f64]) {
        assert_eq!(states.len(), self.x.len(), "state dimension mismatch");
        self.x.copy_from_slice(states);
    }

    fn compute(&mut self, inputs: &[f64], outputs: &mut [f64]) {
        assert_eq!(inputs.len(), self.sys.num_inputs(), "input dimension");
        assert_eq!(outputs.len(), self.sys.num_outputs(), "output dimension");

        // u = sat(C x + D e)
        outputs.iter_mut().for_each(|v| *v = 0.0);
        self.sys.c.mul_add_vec(&self.x, outputs);
        self.sys.d.mul_add_vec(inputs, outputs);
        for (u, lim) in outputs.iter_mut().zip(self.limits.iter()) {
            *u = lim.clamp(*u);
        }

        // x' = A x + B e
        let mut next = vec![0.0; self.x.len()];
        self.sys.a.mul_add_vec(&self.x, &mut next);
        self.sys.b.mul_add_vec(inputs, &mut next);
        self.x = next;
    }

    fn reset_states(&mut self) {
        self.x.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::Protected;

    #[test]
    fn matrix_mul_add() {
        let m = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![10.0, 20.0];
        m.mul_add_vec(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![16.0, 35.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn matrix_bad_data_panics() {
        let _ = Matrix::new(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn statespace_dimensions_validated() {
        let ok = StateSpace::jet_engine_demo();
        assert_eq!(ok.num_states(), 2);
        assert_eq!(ok.num_inputs(), 2);
        assert_eq!(ok.num_outputs(), 2);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn statespace_nonsquare_a_panics() {
        let _ = StateSpace::new(
            Matrix::zeros(2, 3),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
        );
    }

    #[test]
    fn pure_integrator_accumulates() {
        // A = I, B = I, C = I, D = 0: x accumulates the inputs.
        let sys = StateSpace::new(
            Matrix::new(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            Matrix::new(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            Matrix::new(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            Matrix::zeros(2, 2),
        );
        let mut c = MimoController::new(sys, vec![Limits::new(-100.0, 100.0); 2]);
        let mut u = [0.0; 2];
        c.compute(&[1.0, 2.0], &mut u);
        assert_eq!(u, [0.0, 0.0], "D = 0, x was 0");
        c.compute(&[1.0, 2.0], &mut u);
        assert_eq!(u, [1.0, 2.0], "outputs reflect accumulated state");
        assert_eq!(c.states(), vec![2.0, 4.0]);
    }

    #[test]
    fn outputs_are_saturated() {
        let sys = StateSpace::new(
            Matrix::new(1, 1, vec![1.0]),
            Matrix::new(1, 1, vec![0.0]),
            Matrix::new(1, 1, vec![0.0]),
            Matrix::new(1, 1, vec![1.0]),
        );
        let mut c = MimoController::new(sys, vec![Limits::new(0.0, 1.0)]);
        let mut u = [0.0];
        c.compute(&[55.0], &mut u);
        assert_eq!(u[0], 1.0);
    }

    #[test]
    fn protected_mimo_recovers_every_state() {
        let ctrl = MimoController::new(
            StateSpace::jet_engine_demo(),
            vec![Limits::new(0.0, 1.0); 2],
        );
        let mut p = Protected::uniform(ctrl, Limits::new(-10.0, 10.0));
        let mut u = [0.0; 2];
        for _ in 0..20 {
            p.compute(&[0.5, 0.2], &mut u);
        }
        let good = p.inner().states();
        // Corrupt the second state far out of range.
        let mut bad = good.clone();
        bad[1] = -8.0e12;
        p.inner_mut().set_states(&bad);
        p.compute(&[0.5, 0.2], &mut u);
        assert_eq!(p.report().state_recoveries, 1);
        let recovered = p.inner().states();
        assert!(
            recovered.iter().all(|v| v.abs() < 100.0),
            "all states recovered to plausible values: {recovered:?}"
        );
    }

    #[test]
    fn jet_engine_demo_is_stable_in_closed_loop() {
        // Crude closed loop: plant y = 0.5 * u (static), references step.
        let ctrl = MimoController::new(
            StateSpace::jet_engine_demo(),
            vec![Limits::new(0.0, 1.0); 2],
        );
        let mut p = Protected::uniform(ctrl, Limits::new(-50.0, 50.0));
        let mut y = [0.0f64; 2];
        let r = [0.3f64, 0.2];
        let mut u = [0.0f64; 2];
        for _ in 0..5000 {
            let e = [r[0] - y[0], r[1] - y[1]];
            p.compute(&e, &mut u);
            y[0] = 0.5 * u[0];
            y[1] = 0.5 * u[1];
        }
        assert!((y[0] - r[0]).abs() < 0.01, "loop 1 converged: {}", y[0]);
        assert!((y[1] - r[1]).abs() < 0.01, "loop 2 converged: {}", y[1]);
    }
}
