//! # bera-plant — the controlled object
//!
//! The paper's experimental setup splits the Simulink engine model in two:
//! the PI controller block executes on the Thor target, while **the rest of
//! the engine model** runs on the host workstation as an *environment
//! simulator*, exchanging `r`/`y`/`u_lim` with the target at every control
//! iteration. This crate is that environment simulator:
//!
//! * [`Engine`] — a nonlinear engine model (torque production with intake
//!   lag, rotational dynamics, speed-dependent losses);
//! * [`Profiles`] — the workload profiles of Figures 3 and 4: a reference
//!   speed step from 2000 to 3000 rpm at t = 5 s and load-torque
//!   disturbances in 3 s < t < 4 s and 7 s < t < 8 s;
//! * [`Environment`] — the host's side of one control iteration: the
//!   sample instant, the actuator law and the plant step;
//! * [`ClosedLoop`] — drives any [`bera_core::Controller`] against the
//!   engine through the [`Environment`] for the paper's 650 iterations of
//!   15.4 ms;
//! * [`blocks`] — a small Simulink-like block library (gain, sum,
//!   integrator, saturation, unit delay, first-order lag, lookup table,
//!   rate limiter) from which the same plant can be composed;
//! * [`Trace`] — recorded trajectories with CSV export and deviation
//!   metrics, used to regenerate the paper's figures.
//!
//! # Example
//!
//! ```
//! use bera_core::PiController;
//! use bera_plant::{ClosedLoop, Engine, Profiles};
//!
//! let mut cl = ClosedLoop::new(Engine::paper(), PiController::paper());
//! let trace = cl.run(&Profiles::paper(), 650);
//! // After the 2000->3000 rpm step the loop settles near the reference.
//! let last = trace.samples().last().unwrap();
//! assert!((last.y - 3000.0).abs() < 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod blocks;
pub mod closed_loop;
pub mod engine;
pub mod profiles;
pub mod trace;
pub mod turbojet;

pub use closed_loop::{ClosedLoop, Environment, FnController};
pub use engine::Engine;
pub use profiles::Profiles;
pub use trace::{Sample, Trace};
pub use turbojet::{MimoPlant, Turbojet};
