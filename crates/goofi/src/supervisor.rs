//! Supervised, self-healing experiment execution.
//!
//! A fault-injection harness must be more robust than the system it
//! injects faults into: one panicking or runaway experiment must not abort
//! a 10k-fault campaign and lose all in-flight work. The supervisor wraps
//! each experiment in three layers of containment:
//!
//! 1. **Panic isolation** — the experiment runs behind
//!    [`std::panic::catch_unwind`]; the simulated machine is rebuilt per
//!    attempt, so no shared state observes a broken invariant.
//! 2. **Wall-clock watchdog** — on top of the dynamic instruction cap (a
//!    *target*-side hang detector), an optional host-side deadline aborts
//!    the run at the next iteration boundary. The deadline never alters
//!    target execution, so every *classified* record stays
//!    bit-deterministic.
//! 3. **Retry, then quarantine** — a failed attempt is retried exactly
//!    once from reset (no checkpoints, no convergence pruning, in case the
//!    fast-forward path itself is implicated); a second failure produces a
//!    terminal [`Outcome::HarnessFailure`] record carrying the panic
//!    payload or deadline cause, which flows through the store, the
//!    observer events and the offline report like any other outcome.
//!
//! Every supervised experiment runs through here, whichever
//! start the plan gave it. The state machine per fault:
//!
//! ```text
//! attempt 1 (planned start: live instant or injection checkpoint) ──ok──▶ classified record
//!        │ panic / deadline
//!        ▼  (experiment_retried event)
//! attempt 2 (reset) ──ok──▶ classified record
//!        │ panic / deadline
//!        ▼
//! quarantine: Outcome::HarnessFailure(cause) record
//! ```
//!
//! [`ChaosHarness`] exists for testing the supervisor itself: it forces
//! panics or stalls at chosen fault indices *inside* the containment
//! boundary, so the quarantine suite can prove a campaign completes.

use crate::classify::{HarnessCause, Outcome};
use crate::experiment::{ExperimentRecord, FaultSpec, Start, WatchdogExpired};
use crate::observer::CampaignObserver;
use bera_tcpu::scan;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How campaign experiments are supervised.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Wall-clock budget per experiment *attempt*. `None` disables the
    /// watchdog; the dynamic instruction cap still bounds target progress.
    pub deadline: Option<Duration>,
    /// Fault-injection for the fault injector itself — forces panics or
    /// stalls at chosen indices so the containment path can be tested.
    /// `None` (the default) leaves experiments untouched.
    pub chaos: Option<Arc<ChaosHarness>>,
}

impl SupervisorConfig {
    /// Supervision with a per-attempt wall-clock deadline.
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> Self {
        SupervisorConfig {
            deadline: Some(deadline),
            ..SupervisorConfig::default()
        }
    }
}

/// Deliberately sabotages chosen experiments, from *inside* the
/// supervisor's containment boundary. Purely a test fixture: it lets the
/// quarantine suite prove that a campaign containing panicking and
/// deadline-blowing experiments still runs to completion.
#[derive(Debug, Default)]
pub struct ChaosHarness {
    /// Fault indices that panic on every attempt (quarantined).
    pub panic_on: BTreeSet<usize>,
    /// Fault indices that panic on the first attempt only (retry succeeds).
    pub panic_once_on: BTreeSet<usize>,
    /// Fault indices that stall for [`ChaosHarness::stall_for`] before
    /// running, tripping a short supervisor deadline on every attempt.
    pub stall_on: BTreeSet<usize>,
    /// How long stalled experiments sleep.
    pub stall_for: Duration,
    /// Indices that already panicked once (drives `panic_once_on`).
    tripped: Mutex<BTreeSet<usize>>,
}

impl ChaosHarness {
    /// A harness that panics unconditionally at `indices`.
    #[must_use]
    pub fn panicking(indices: impl IntoIterator<Item = usize>) -> Self {
        ChaosHarness {
            panic_on: indices.into_iter().collect(),
            ..ChaosHarness::default()
        }
    }

    /// A harness that panics on the *first* attempt only at `indices` —
    /// the retry from reset succeeds.
    #[must_use]
    pub fn panicking_once(indices: impl IntoIterator<Item = usize>) -> Self {
        ChaosHarness {
            panic_once_on: indices.into_iter().collect(),
            ..ChaosHarness::default()
        }
    }

    /// Adds indices that stall for `stall_for` on every attempt, tripping
    /// a supervisor deadline shorter than the stall.
    #[must_use]
    pub fn stalling(
        mut self,
        indices: impl IntoIterator<Item = usize>,
        stall_for: Duration,
    ) -> Self {
        self.stall_on = indices.into_iter().collect();
        self.stall_for = stall_for;
        self
    }

    /// Called at the start of every attempt; sabotages the experiment if
    /// its index is listed.
    fn before_attempt(&self, index: usize) {
        if self.panic_on.contains(&index) {
            panic!("chaos harness: forced panic at fault index {index}");
        }
        if self.panic_once_on.contains(&index) {
            // Decide while holding the lock, panic after releasing it —
            // panicking with the guard held would poison the set and turn
            // the one-shot panic into a persistent one.
            let first_time = {
                let mut tripped = self
                    .tripped
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                tripped.insert(index)
            };
            if first_time {
                panic!("chaos harness: forced one-shot panic at fault index {index}");
            }
        }
        if self.stall_on.contains(&index) {
            std::thread::sleep(self.stall_for);
        }
    }
}

/// Renders a caught panic payload for the quarantine record.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One supervised attempt: failpoint and chaos hook, then `run` from
/// `start` under the watchdog deadline, all behind the unwind boundary.
fn attempt(
    index: usize,
    start: Start,
    sup: &SupervisorConfig,
    run: &impl Fn(Start, Option<Instant>) -> Result<ExperimentRecord, WatchdogExpired>,
) -> Result<ExperimentRecord, (HarnessCause, String)> {
    let deadline = sup.deadline.map(|d| Instant::now() + d);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Inside the containment boundary: arming this with `panic` is the
        // CLI-reachable way to drive the retry/quarantine paths that the
        // ChaosHarness drives from tests (ASSURANCE.md).
        crate::fp_nofail!("experiment.attempt");
        if let Some(chaos) = &sup.chaos {
            chaos.before_attempt(index);
        }
        run(start, deadline)
    }));
    match outcome {
        Ok(Ok(record)) => Ok(record),
        Ok(Err(WatchdogExpired)) => {
            let budget = sup.deadline.expect("watchdog fired without a deadline");
            Err((
                HarnessCause::Deadline,
                format!("wall-clock deadline of {budget:?} exceeded"),
            ))
        }
        Err(payload) => Err((HarnessCause::Panic, panic_detail(payload.as_ref()))),
    }
}

/// Runs fault `index` under full supervision: panic isolation, watchdog
/// deadline, one retry from reset, then quarantine. `run` executes the
/// experiment from a start under a deadline; attempt 1 passes it `start`,
/// the retry [`Start::Reset`]. Always returns a record — by construction
/// this function cannot panic out of a worker thread for any
/// per-experiment failure.
///
/// # Panics
///
/// Panics only if `fault.location_index` is outside the scan catalog — a
/// campaign construction bug, not an experiment failure.
#[must_use]
pub(crate) fn run_supervised(
    fault: FaultSpec,
    index: usize,
    start: Start,
    observer: &dyn CampaignObserver,
    sup: &SupervisorConfig,
    run: impl Fn(Start, Option<Instant>) -> Result<ExperimentRecord, WatchdogExpired>,
) -> ExperimentRecord {
    let (cause, message) = match attempt(index, start, sup, &run) {
        Ok(record) => return record,
        Err(failure) => failure,
    };
    // A crash here models dying between a failed attempt and its retry:
    // no record was emitted, so the fault is a gap a resume must re-run.
    crate::fp_nofail!("supervisor.before-retry");
    observer.experiment_retried(index, cause);

    // Graceful degradation: replay from reset, in case the fast-forward /
    // pruning path is implicated. The checkpoint-equivalence suite proves
    // the reset record is bit-identical to the checkpointed one up to
    // `pruned_at`.
    let (cause, retry_message) = match attempt(index, Start::Reset, sup, &run) {
        Ok(record) => return record,
        Err(failure) => failure,
    };

    // Quarantine: a terminal record accounting for what could not be run.
    // A crash here models dying with the quarantine decision made but its
    // record not yet durable — the fault must re-run (healthy or not) on
    // resume rather than be lost.
    crate::fp_nofail!("supervisor.before-quarantine");
    let location = scan::catalog()[fault.location_index];
    let record = ExperimentRecord {
        fault,
        part: location.part(),
        location,
        outcome: Outcome::HarnessFailure(cause),
        max_deviation: 0.0,
        first_strong_iteration: None,
        detection_latency: None,
        outputs: None,
        pruned_at: None,
        provenance: crate::experiment::Provenance::Simulated,
        harness_error: Some(format!(
            "first attempt: {message}; retry from reset: {retry_message}"
        )),
    };
    observer.experiment_classified(index, &record);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{golden_run, run_from, FaultModel, GoldenRun, LoopConfig};
    use crate::observer::NullObserver;
    use crate::workload::Workload;

    fn setup() -> (Workload, LoopConfig, GoldenRun) {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(24);
        let golden = golden_run(&w, &cfg);
        (w, cfg, golden)
    }

    /// Single-bit fault `index` under `sup`, planned from injection.
    fn supervised(
        (w, cfg, golden): &(Workload, LoopConfig, GoldenRun),
        fault: FaultSpec,
        index: usize,
        sup: &SupervisorConfig,
    ) -> ExperimentRecord {
        run_supervised(
            fault,
            index,
            Start::Injection,
            &NullObserver,
            sup,
            |start, deadline| {
                run_from(
                    w,
                    cfg,
                    golden,
                    fault,
                    FaultModel::SingleBit,
                    false,
                    index,
                    &NullObserver,
                    start,
                    deadline,
                )
            },
        )
    }

    #[test]
    fn healthy_experiment_is_untouched_by_supervision() {
        let setup = setup();
        let (w, cfg, golden) = &setup;
        let fault = FaultSpec {
            location_index: 17,
            inject_at: golden.total_instructions / 3,
        };
        let supervised = supervised(&setup, fault, 0, &SupervisorConfig::default());
        let plain = crate::experiment::run_experiment(w, cfg, golden, fault, false);
        assert_eq!(
            serde_json::to_string(&supervised).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "supervision must not perturb a healthy experiment"
        );
    }

    #[test]
    fn persistent_panic_is_quarantined_with_the_payload() {
        let setup = setup();
        let fault = FaultSpec {
            location_index: 5,
            inject_at: 100,
        };
        let sup = SupervisorConfig {
            chaos: Some(Arc::new(ChaosHarness::panicking([3]))),
            ..SupervisorConfig::default()
        };
        let record = supervised(&setup, fault, 3, &sup);
        assert_eq!(record.outcome, Outcome::HarnessFailure(HarnessCause::Panic));
        let detail = record.harness_error.as_deref().unwrap();
        assert!(detail.contains("forced panic at fault index 3"), "{detail}");
        assert!(detail.contains("retry from reset"), "{detail}");
    }

    #[test]
    fn one_shot_panic_recovers_on_the_stride_zero_retry() {
        let setup = setup();
        let (w, cfg, golden) = &setup;
        let fault = FaultSpec {
            location_index: 11,
            inject_at: golden.total_instructions / 2,
        };
        let sup = SupervisorConfig {
            chaos: Some(Arc::new(ChaosHarness::panicking_once([7]))),
            ..SupervisorConfig::default()
        };
        let record = supervised(&setup, fault, 7, &sup);
        assert!(
            !record.outcome.is_harness_failure(),
            "the retry succeeds, so the fault classifies normally: {:?}",
            record.outcome
        );
        let plain = crate::experiment::run_experiment(w, cfg, golden, fault, false);
        assert_eq!(
            serde_json::to_string(&record).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "the retry from reset must reproduce the checkpointed record bit-for-bit"
        );
    }

    #[test]
    fn stalled_experiment_trips_the_deadline() {
        let setup = setup();
        let fault = FaultSpec {
            location_index: 2,
            inject_at: 50,
        };
        let sup = SupervisorConfig {
            deadline: Some(Duration::from_millis(5)),
            chaos: Some(Arc::new(
                ChaosHarness::panicking([]).stalling([4], Duration::from_millis(50)),
            )),
        };
        let record = supervised(&setup, fault, 4, &sup);
        assert_eq!(
            record.outcome,
            Outcome::HarnessFailure(HarnessCause::Deadline)
        );
        assert!(record
            .harness_error
            .as_deref()
            .unwrap()
            .contains("wall-clock deadline"));
    }
}
