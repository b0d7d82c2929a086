//! Diff replay of one experiment (DESIGN.md §8l): from its injection point
//! on, a one-shot flip fault runs as the golden run plus a sorted diff
//! ([`bera_tcpu::diff`]), executing only the instructions that touch the
//! diff, until its first event the diff cannot follow; from there the
//! interpreter carries on from golden's state plus the diff.
//!
//! The plant is never advanced while replaying: replay stops before the
//! harness could sample a differing actuator word, so outputs, and with
//! them the plant, are golden's. A run that goes back to replay a constant
//! offset off golden's instruction count follows golden's trace with
//! every instant of its own shifted by that offset. At every golden
//! checkpoint the diff is the whole state comparison that
//! [`end_at_checkpoint`](crate::experiment::end_at_checkpoint) decides
//! on. A run whose delta against golden is provably steady jumps to
//! golden's last checkpoint ([`crate::steady`]). A run replayed to its end
//! is classified from golden's end state plus the diff. Every record
//! equals the interpreter's.

use crate::experiment::{
    drive_from, end_at_checkpoint, exchange, AtCheckpoint, Decision, DriveEnd, DriveMode,
    DriveResult, FaultInjector, FaultModel, FaultSpec, GoldenRun, LoopConfig,
};
use crate::observer::CampaignObserver;
use crate::recall::{TrajectoryMemo, RECALL_EVERY};
use crate::steady::Steady;
use bera_plant::Environment;
use bera_tcpu::diff::{DiffReplay, Fallback, ReplayScratch};
use bera_tcpu::machine::{Machine, RunExit};
use bera_tcpu::scan::{self, BitLocation};
use std::cell::RefCell;
use std::time::Instant;

/// One experiment's fixed inputs.
pub(crate) struct Run<'a> {
    pub(crate) cfg: &'a LoopConfig,
    pub(crate) golden: &'a GoldenRun,
    pub(crate) fault: FaultSpec,
    pub(crate) model: FaultModel,
    pub(crate) index: usize,
    pub(crate) observer: &'a dyn CampaignObserver,
    pub(crate) cap: u64,
    pub(crate) deadline: Option<Instant>,
}

thread_local! {
    /// This worker's replay scratch, taken out for the length of a replay:
    /// a panic drops it and the next replay allocates a fresh one.
    static SCRATCH: RefCell<Option<Box<ReplayScratch>>> = const { RefCell::new(None) };
}

/// Drives experiment `run` on `machine`, restored to golden checkpoint
/// `resident` at or before the injection point with a fresh dirty log.
pub(crate) fn drive(
    run: &Run<'_>,
    machine: &mut Machine,
    mut resident: usize,
    memo: &mut TrajectoryMemo,
) -> DriveResult {
    let golden = run.golden;
    let ckpt = &golden.checkpoints[resident];
    let start = machine.instr_count();
    let mut position = ckpt.env.clone();
    advance(&mut position, run.cfg, machine, run.fault.inject_at);
    let locations: Vec<BitLocation> = run
        .model
        .locations(run.fault.location_index)
        .into_iter()
        .map(|i| scan::catalog()[i])
        .collect();
    // Until replay first falls back, the machine holds golden's state at
    // the injection point.
    let mut diff = machine.flip_diff(&locations);
    let mut golden_here = Some(position);
    run.observer.fault_injected(run.index, run.fault);
    run.observer.replay_started(run.index);
    let mut executed = machine.instr_count() - start;
    // Outputs logged before replay (re)started, where it starts, and the
    // run's instruction offset from golden's there.
    let (mut logged, mut from, mut after, mut offset) =
        (Vec::new(), run.fault.inject_at, resident, 0);
    // Debug builds' interpreted copy of a shifted re-entry's state.
    let mut witness: Option<Witness> = None;
    loop {
        let mut scratch = SCRATCH.with(|s| s.borrow_mut().take()).unwrap_or_default();
        let replayed = replay(run, &mut scratch, from, after, diff, offset, memo);
        SCRATCH.with(|s| *s.borrow_mut() = Some(scratch));
        if let Some(w) = witness.take() {
            w.check(run, offset, &replayed);
        }
        let (fallback, at_fallback) = match replayed {
            Ok(end) => {
                let until = match end {
                    DriveEnd::Converged { iteration } | DriveEnd::Recalled { iteration, .. } => {
                        iteration
                    }
                    _ => golden.outputs.len(),
                };
                let k = logged.len();
                logged.extend_from_slice(&golden.outputs[k..until]);
                return DriveResult {
                    outputs: logged,
                    end,
                    executed,
                    resident: Some(resident),
                };
            }
            Err(fell) => fell,
        };
        let at_run = fallback.at.saturating_add_signed(offset);
        run.observer
            .replay_fell_back(run.index, at_run, fallback.reason);
        // Golden's state at the fallback: the machine, while it still holds
        // golden's and no checkpoint lies between it and the fallback; the
        // last checkpoint before the fallback otherwise.
        let c = golden
            .checkpoint_index_before(fallback.at)
            .expect("the fallback follows the resident checkpoint");
        let mid_iteration = c == resident && golden_here.is_some();
        let at = match golden_here.take().filter(|_| mid_iteration) {
            Some(position) => position,
            None => {
                let ckpt = &golden.checkpoints[c];
                let (lo, hi) = (resident.min(c), resident.max(c));
                machine.restore_delta_from(&ckpt.machine, &golden.ckpt_data_deltas[lo..hi]);
                if !run.cfg.fast_replay {
                    machine.set_fast_replay(false);
                }
                resident = c;
                ckpt.env.clone()
            }
        };
        // Outputs before the restored iteration are golden's or were
        // logged by an earlier interpreted stretch.
        let mut outputs = Vec::with_capacity(run.cfg.iterations);
        outputs.extend_from_slice(&logged[..at.iteration().min(logged.len())]);
        let k = outputs.len();
        outputs.extend_from_slice(&golden.outputs[k..at.iteration()]);
        // The machine reaches the fallback at golden's instant; the run,
        // `offset` instructions off it.
        let result = drive_from(
            machine,
            run.cfg,
            at,
            outputs,
            Some(FaultInjector::diff(fallback.at, at_fallback)),
            run.cap,
            run.deadline,
            DriveMode::Prune {
                golden,
                resident,
                offset,
                recall: &mut *memo,
                // Back to replay later, unless a re-entry failed before
                // its first checkpoint.
                reenter: from == run.fault.inject_at || c > after,
                observer: run.observer,
                index: run.index,
            },
            mid_iteration,
            &mut || {},
        );
        executed += result.executed;
        resident = result
            .resident
            .expect("a pruned drive reports its resident checkpoint");
        match result.end {
            DriveEnd::Reenter {
                checkpoint,
                diff: carried,
                offset: shift,
            } => {
                if shift != 0 {
                    run.observer.shifted_reentry(run.index);
                    if cfg!(debug_assertions) {
                        witness = Some(Witness::new(run, machine, checkpoint, shift));
                    }
                }
                logged = result.outputs;
                (from, after, diff, offset) = (
                    golden.checkpoints[checkpoint].machine.instr_count(),
                    checkpoint,
                    carried,
                    shift,
                );
            }
            end => {
                return DriveResult {
                    end,
                    resident: Some(resident),
                    executed,
                    ..result
                }
            }
        }
    }
}

/// Debug builds' lockstep check of a shifted segment: the interpreted
/// state a re-entry at a non-zero offset left, carried on by the
/// interpreter alone and compared with where diff replay took the run.
struct Witness {
    machine: Machine,
    env: Environment,
    /// The run's instruction count is the witness machine's plus this.
    frame: i64,
    /// The run's offset from golden's instruction count, as the
    /// interpreter left it.
    shift: i64,
}

impl Witness {
    fn new(run: &Run<'_>, machine: &Machine, checkpoint: usize, shift: i64) -> Self {
        let ckpt = &run.golden.checkpoints[checkpoint];
        let count = |m: &Machine| i64::try_from(m.instr_count()).expect("counts fit i64");
        Witness {
            machine: machine.clone(),
            env: ckpt.env.clone(),
            frame: count(&ckpt.machine) + shift - count(machine),
            shift,
        }
    }

    /// The run's instruction count.
    fn count(&self) -> u64 {
        self.machine.instr_count().saturating_add_signed(self.frame)
    }

    /// Interprets up to golden's instant `at` (shifted) or the start of
    /// iteration `to`, whichever comes first, demanding golden's outputs.
    fn run(&mut self, run: &Run<'_>, at: u64, to: usize) {
        let stop = at
            .saturating_add_signed(self.shift)
            .min(run.cap)
            .saturating_add_signed(-self.frame);
        while self.env.iteration() < to && self.machine.instr_count() < stop {
            match self.machine.run_until(stop) {
                RunExit::Yield => {
                    let k = self.env.iteration();
                    let u = exchange(&mut self.machine, run.cfg, &mut self.env);
                    assert_eq!(
                        u.to_bits(),
                        run.golden.outputs[k],
                        "a shifted replay missed an output"
                    );
                }
                RunExit::Budget => {}
                RunExit::Trap(trap) => panic!("a shifted replay missed a trap: {trap:?}"),
            }
        }
    }

    /// Checks diff replay's `replayed` segment, which it took `offset`
    /// instructions off golden's count, against the interpreter.
    fn check(mut self, run: &Run<'_>, offset: i64, replayed: &Replayed) {
        let golden = run.golden;
        match replayed {
            Err((fallback, diff)) => {
                self.run(run, fallback.at, usize::MAX);
                assert_eq!(
                    self.count(),
                    fallback.at.saturating_add_signed(offset),
                    "a shifted replay falls back at another instruction count"
                );
                let ckpt = golden
                    .checkpoint_before(fallback.at)
                    .expect("the fallback follows a checkpoint");
                let (mut expected, mut env) = (ckpt.machine.clone(), ckpt.env.clone());
                advance(&mut env, run.cfg, &mut expected, fallback.at);
                expected.apply_diff(diff);
                assert!(
                    self.machine.state_equals(&expected) && self.env == env,
                    "a shifted replay fell back from a state the interpreter does not reach"
                );
            }
            Ok(DriveEnd::Completed { latent }) => {
                self.run(run, u64::MAX, run.cfg.iterations);
                let end = &golden.end_machine;
                assert_eq!(
                    self.count(),
                    golden.total_instructions.saturating_add_signed(offset),
                    "a shifted replay ends at another instruction count"
                );
                let differs = self.machine.scan_diff_count(end) != 0
                    || !self.machine.memory().data_equals(end.memory());
                assert_eq!(
                    *latent,
                    Some(differs),
                    "a shifted replay ends latent wrongly"
                );
            }
            Ok(DriveEnd::Converged { iteration }) => {
                self.run(run, u64::MAX, *iteration);
                let ckpt = &golden.checkpoints[iteration / run.cfg.checkpoint_stride];
                assert!(
                    self.machine.state_equals(&ckpt.machine),
                    "a shifted replay converged where the interpreter does not"
                );
            }
            Ok(_) => {}
        }
    }
}

/// Runs the golden machine, with the loop at `env`, to boundary `stop_at`,
/// closing the loop at each `yield` as [`drive_from`] does.
fn advance(env: &mut Environment, cfg: &LoopConfig, machine: &mut Machine, stop_at: u64) {
    while machine.instr_count() < stop_at {
        match machine.run_until(stop_at) {
            RunExit::Yield => {
                exchange(machine, cfg, env);
            }
            RunExit::Budget => {}
            RunExit::Trap(trap) => unreachable!("the golden prefix trapped: {trap:?}"),
        }
    }
}

/// How a replayed stretch ended: with the drive's end, or with the first
/// fallback and the diff at its golden instant.
type Replayed = Result<DriveEnd, (Fallback, Vec<(u32, u32)>)>;

/// Replays from golden's boundary `from`, where the state differs from
/// golden's by `diff` and the run's instruction count from golden's by
/// `offset`, over the golden checkpoints after index `after`: the drive's
/// end, or the first fallback with the diff at its golden instant. Where
/// the steady-delta rule allows it ([`Steady`]), replay jumps to golden's
/// last checkpoint and goes on from there.
#[allow(clippy::too_many_arguments)]
fn replay(
    run: &Run<'_>,
    scratch: &mut ReplayScratch,
    mut from: u64,
    mut after: usize,
    mut diff: Vec<(u32, u32)>,
    offset: i64,
    memo: &mut TrajectoryMemo,
) -> Replayed {
    let golden = run.golden;
    let (mut events, mut jumped) = (0, false);
    loop {
        let mut r = DiffReplay::new(&golden.trace, &golden.end_machine, scratch, from, diff);
        let walked = replay_checkpoints(run, &mut r, after, offset, memo);
        events += r.events();
        let end = match walked {
            Ok(Walk::Jump(last, at_last)) => {
                (from, after, diff) = (
                    golden.checkpoints[last].machine.instr_count(),
                    last,
                    at_last,
                );
                jumped = true;
                continue;
            }
            Ok(Walk::End(end)) => {
                if jumped && matches!(end, DriveEnd::Completed { .. }) {
                    run.observer.replay_steady(run.index, r.diff());
                }
                Ok(end)
            }
            Err(fallback) => Err((fallback, r.diff().to_vec())),
        };
        run.observer.replay_events(run.index, events);
        return end;
    }
}

/// How [`replay_checkpoints`] ended: with the drive's end, or with the
/// steady-delta jump to golden checkpoint `.0`, where the diff is `.1`.
enum Walk {
    End(DriveEnd),
    Jump(usize, Vec<(u32, u32)>),
}

/// [`replay`]'s walk over the golden checkpoints.
fn replay_checkpoints(
    run: &Run<'_>,
    r: &mut DiffReplay<'_>,
    after: usize,
    offset: i64,
    memo: &mut TrajectoryMemo,
) -> Result<Walk, Fallback> {
    let golden = run.golden;
    let mut steady = Steady::new(golden);
    // Replay follows golden's trace `offset` instructions off its count,
    // with golden's plant, and never re-enters itself.
    let mut end_at = |j: usize, diff: &[(u32, u32)]| {
        let ckpt = &golden.checkpoints[j];
        let at = AtCheckpoint {
            c: j,
            diff,
            instr_count: ckpt.machine.instr_count().saturating_add_signed(offset),
            env: &ckpt.env,
        };
        let decision = end_at_checkpoint(golden, run.cfg, run.cap, memo, &at, false)?;
        let Decision::End(end) = decision else {
            unreachable!("replay runs with golden's plant")
        };
        Some(end)
    };
    for (c, ckpt) in golden.checkpoints.iter().enumerate().skip(after + 1) {
        r.advance(ckpt.machine.instr_count())?;
        if run.deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Walk::End(DriveEnd::DeadlineExceeded));
        }
        let (diff, jump) = steady.at_checkpoint(c, r);
        if let Some(end) = end_at(c, diff) {
            return Ok(Walk::End(end));
        }
        if let Some(at_last) = jump {
            // The state at every checkpoint jumped over is known: the
            // boundary decision takes it as if replay had passed it. The
            // diff there is not empty, so only recall can end the run.
            let last = golden.checkpoints.len() - 1;
            for j in (c + 1..=last).filter(|j| j.is_multiple_of(RECALL_EVERY)) {
                if let Some(end) = steady.diff_at(j).and_then(|at_j| end_at(j, &at_j)) {
                    return Ok(Walk::End(end));
                }
            }
            return Ok(Walk::Jump(last, at_last));
        }
    }
    r.advance(golden.total_instructions)?;
    let end = &golden.end_machine;
    let latent = end.diff_is_latent(r.diff());
    debug_assert_eq!(latent, {
        let mut faulty = end.clone();
        faulty.apply_diff(r.diff());
        faulty.scan_diff_count(end) != 0 || !faulty.memory().data_equals(end.memory())
    });
    Ok(Walk::End(DriveEnd::Completed {
        latent: Some(latent),
    }))
}
