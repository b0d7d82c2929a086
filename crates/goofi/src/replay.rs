//! Diff replay of one experiment (DESIGN.md §8l): from its injection point
//! on, a one-shot flip fault runs as the golden run plus a sorted diff
//! ([`bera_tcpu::diff`]), executing only the instructions that touch the
//! diff, until its first event the diff cannot follow; from there the
//! interpreter carries on from golden's state plus the diff.
//!
//! The plant is never advanced while replaying: replay stops before the
//! harness could sample a differing actuator word, so outputs, and with
//! them the plant, are golden's. At every golden checkpoint the diff is
//! also the whole state comparison: empty means the run converged there,
//! and at every [`RECALL_EVERY`]-th checkpoint it is the trajectory memo's
//! key. A run whose delta against golden is provably steady jumps to
//! golden's last checkpoint ([`crate::steady`]). A run replayed to its end
//! is classified from golden's end state plus the diff. Every record
//! equals the interpreter's.

use crate::experiment::{
    drive_from, exchange, DriveEnd, DriveMode, DriveResult, FaultInjector, FaultModel, FaultSpec,
    GoldenRun, LoopConfig,
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
/// Returns the drive's result, the instructions the interpreter executed,
/// and the checkpoint the machine's dirty log is now relative to.
pub(crate) fn drive(
    run: &Run<'_>,
    machine: &mut Machine,
    mut resident: usize,
    memo: &mut TrajectoryMemo,
) -> (DriveResult, u64, Option<usize>) {
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
    // Outputs logged before replay (re)started, and where it starts.
    let (mut logged, mut from, mut after) = (Vec::new(), run.fault.inject_at, resident);
    loop {
        let mut scratch = SCRATCH.with(|s| s.borrow_mut().take()).unwrap_or_default();
        let replayed = replay(run, &mut scratch, from, after, diff, memo);
        SCRATCH.with(|s| *s.borrow_mut() = Some(scratch));
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
                let result = DriveResult {
                    outputs: logged,
                    end,
                };
                return (result, executed, Some(resident));
            }
            Err(fell) => fell,
        };
        run.observer
            .replay_fell_back(run.index, fallback.at, fallback.reason);
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
        let count = machine.instr_count();
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
                recall: Some(&mut *memo),
                // Back to replay later, unless a re-entry failed before
                // its first checkpoint.
                reenter: from == run.fault.inject_at || c > after,
            },
            mid_iteration,
            &mut || {},
        );
        executed += machine.instr_count() - count;
        match result.end {
            DriveEnd::Reenter {
                checkpoint,
                diff: carried,
            } => {
                logged = result.outputs;
                (from, after, diff) = (
                    golden.checkpoints[checkpoint].machine.instr_count(),
                    checkpoint,
                    carried,
                );
            }
            _ => return (result, executed, Some(resident)),
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

/// Replays from boundary `from`, where the state differs from golden's by
/// `diff`, over the golden checkpoints after index `after`: the drive's
/// end, or the first fallback with the diff at its instant. Where the
/// steady-delta rule allows it ([`Steady`]), replay jumps to golden's last
/// checkpoint and goes on from there.
fn replay(
    run: &Run<'_>,
    scratch: &mut ReplayScratch,
    mut from: u64,
    mut after: usize,
    mut diff: Vec<(u32, u32)>,
    memo: &mut TrajectoryMemo,
) -> Result<DriveEnd, (Fallback, Vec<(u32, u32)>)> {
    let golden = run.golden;
    let (mut events, mut jumped) = (0, false);
    loop {
        let mut r = DiffReplay::new(&golden.trace, &golden.end_machine, scratch, from, diff);
        let walked = replay_checkpoints(run, &mut r, after, memo);
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
    memo: &mut TrajectoryMemo,
) -> Result<Walk, Fallback> {
    let golden = run.golden;
    let mut steady = Steady::new(golden);
    for (c, ckpt) in golden.checkpoints.iter().enumerate().skip(after + 1) {
        r.advance(ckpt.machine.instr_count())?;
        if run.deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Walk::End(DriveEnd::DeadlineExceeded));
        }
        let iteration = ckpt.env.iteration();
        let (diff, jump) = steady.at_checkpoint(c, r);
        if diff.is_empty() {
            return Ok(Walk::End(DriveEnd::Converged { iteration }));
        }
        if c.is_multiple_of(RECALL_EVERY) {
            if let Some(tail) = memo.probe(diff, c, iteration, 0) {
                return Ok(Walk::End(DriveEnd::Recalled { iteration, tail }));
            }
        }
        if let Some(at_last) = jump {
            // The state at every checkpoint jumped over is known: recall
            // probes it as if replay had passed it.
            let last = golden.checkpoints.len() - 1;
            for j in (c + 1..=last).filter(|j| j.is_multiple_of(RECALL_EVERY)) {
                let Some(at_j) = steady.diff_at(j) else {
                    continue;
                };
                let iteration = golden.checkpoints[j].env.iteration();
                if let Some(tail) = memo.probe(&at_j, j, iteration, 0) {
                    return Ok(Walk::End(DriveEnd::Recalled { iteration, tail }));
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
