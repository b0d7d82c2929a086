//! Campaign observability: the [`CampaignObserver`] hook trait threaded
//! through campaign and experiment execution, plus the [`Telemetry`]
//! aggregator built on top of it.
//!
//! The campaign engine emits one event per phase of every experiment's
//! life cycle (sampled, started, injected, executed, classified,
//! completed). Observers run *inside* the worker threads, so an
//! implementation must be `Sync` and should be cheap: the streaming store
//! ([`crate::store::JsonlStore`]) serialises one line under a mutex, and
//! [`Telemetry`] folds each event into one locked counter record.

use crate::campaign::CampaignResult;
use crate::classify::{HarnessCause, Outcome};
use crate::experiment::{ExperimentRecord, FaultSpec, Provenance};
use crate::planner::PlanStats;
use bera_stats::rate::Ewma;
use bera_tcpu::diff::FallbackReason;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Hooks into the life cycle of a SCIFI campaign.
///
/// All methods have empty default bodies, so an observer only implements
/// the events it cares about. Events fire from the worker thread running
/// the experiment; `index` is the fault-list index, which is stable across
/// reruns and resumes of the same campaign configuration.
///
/// Records restored from a result store during a resume do **not** replay
/// their events: observers only see work actually executed in this process.
pub trait CampaignObserver: Sync {
    /// The fault list has been sampled (fires once, before any experiment).
    fn fault_list_sampled(&self, faults: &[FaultSpec]) {
        let _ = faults;
    }

    /// The campaign plan has been computed; `stats` carries the planner's
    /// per-rule hit counters and classification wall-clock (fires once,
    /// after [`fault_list_sampled`](CampaignObserver::fault_list_sampled)).
    fn plan_computed(&self, stats: &PlanStats) {
        let _ = stats;
    }

    /// The fate resolver's coverage of the planned fault list:
    /// `rejected_untraceable` faults are opaque to the golden traces and
    /// simulate from injection, `vis_admitted` were resolved only thanks
    /// to an EDM-visibility unit or value-level rule (at least one flipped
    /// bit outside the def/use units). Fires once per campaign, right after
    /// [`plan_computed`](CampaignObserver::plan_computed), with the same
    /// counts [`PlanStats::opaque`] and [`PlanStats::vis_resolved`] carry.
    fn batch_admission(&self, rejected_untraceable: usize, vis_admitted: usize) {
        let _ = (rejected_untraceable, vis_admitted);
    }

    /// An experiment is starting. `fast_forward_from` is the golden
    /// checkpoint iteration it resumes from (`None` when it replays from
    /// reset: checkpointing is disabled, no checkpoint precedes the
    /// injection, or this is the supervisor's retry).
    fn experiment_started(&self, index: usize, fault: FaultSpec, fast_forward_from: Option<usize>) {
        let _ = (index, fault, fast_forward_from);
    }

    /// The fault has been physically injected into the scan chain.
    fn fault_injected(&self, index: usize, fault: FaultSpec) {
        let _ = (index, fault);
    }

    /// An experiment's machine came out of the per-worker arena
    /// (DESIGN.md §8j): `copied_words` data words were rewritten by the
    /// dirty-delta restore, or the arena missed and fell back to a full
    /// checkpoint clone (`full_clone`, with `copied_words == 0`).
    fn arena_restored(&self, copied_words: usize, full_clone: bool) {
        let _ = (copied_words, full_clone);
    }

    /// An experiment's drive starts under diff replay (DESIGN.md §8l): from
    /// its injection point on, the run is carried as golden plus a diff.
    fn replay_started(&self, index: usize) {
        let _ = index;
    }

    /// Diff replay handed the run to the interpreter before instruction
    /// `at`, for `reason`: the interpreter carries it on from golden's
    /// state there plus the diff.
    fn replay_fell_back(&self, index: usize, at: u64, reason: FallbackReason) {
        let _ = (index, at, reason);
    }

    /// Diff replay processed `n` events for the run (see
    /// [`DiffReplay::events`](bera_tcpu::diff::DiffReplay::events)): once
    /// per replayed stretch, a fallback's or the run's end.
    fn replay_events(&self, index: usize, n: u64) {
        let _ = (index, n);
    }

    /// A diff replay of the run jumped over the checkpoint intervals its
    /// steady delta provably survives (DESIGN.md §8l) and replayed the tail
    /// to the end of the run, where its diff from golden's end state is
    /// `end` (in [`Machine::sparse_diff`](bera_tcpu::Machine::sparse_diff)'s
    /// form).
    fn replay_steady(&self, index: usize, end: &[(u32, u32)]) {
        let _ = (index, end);
    }

    /// The run's machine was golden's at a checkpoint while its plant was
    /// not, and its next `iterations` iterations were golden's CPU work:
    /// only the plant was stepped through them (DESIGN.md §8 "One boundary
    /// decision"). The stretch either ended the run or handed it back to
    /// the interpreter at a later golden checkpoint.
    fn plant_only(&self, index: usize, iterations: usize) {
        let _ = (index, iterations);
    }

    /// A run the interpreter carried went back to diff replay a non-zero
    /// number of instructions off golden's count (DESIGN.md §8l): replay
    /// follows golden's trace with every instant of the run shifted by it.
    fn shifted_reentry(&self, index: usize) {
        let _ = index;
    }

    /// An experiment's drive finished executing: it ran `instructions`
    /// dynamic instructions in this process, of which `block_instructions`
    /// went through the predecoded fast-replay block engine rather than
    /// the scalar fetch–decode–execute step. Diff replay's events are not
    /// instructions and are not counted: a replayed run counts only its
    /// fault-free prefix up to injection and whatever the interpreter ran
    /// after a fallback. Fires before
    /// [`experiment_classified`](CampaignObserver::experiment_classified),
    /// only for experiments that actually simulated here.
    fn experiment_executed(&self, index: usize, instructions: u64, block_instructions: u64) {
        let _ = (index, instructions, block_instructions);
    }

    /// The run's state at the start of `iteration` equals one an earlier
    /// run of this worker passed through (DESIGN.md §8k): the rest of the
    /// run was not executed, it ends as that run did. A recalled run that
    /// ends converged still carries
    /// [`pruned_at`](ExperimentRecord::pruned_at) in its record.
    fn trajectory_recalled(&self, index: usize, iteration: usize) {
        let _ = (index, iteration);
    }

    /// The experiment has been classified; `record` is final.
    fn experiment_classified(&self, index: usize, record: &ExperimentRecord) {
        let _ = (index, record);
    }

    /// The supervisor caught a harness failure (`cause`) on the first
    /// attempt and is retrying the experiment once from reset. Fires at
    /// most once per fault; a second failure produces a
    /// quarantined `experiment_classified` record instead.
    fn experiment_retried(&self, index: usize, cause: HarnessCause) {
        let _ = (index, cause);
    }

    /// All experiments are done and the result database is assembled.
    fn campaign_completed(&self, result: &CampaignResult) {
        let _ = result;
    }
}

/// An observer that ignores every event.
pub struct NullObserver;

impl CampaignObserver for NullObserver {}

/// Broadcasts every event to a list of observers, in registration order.
#[derive(Default)]
pub struct ObserverSet<'a> {
    observers: Vec<&'a dyn CampaignObserver>,
}

impl<'a> ObserverSet<'a> {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        ObserverSet::default()
    }

    /// Registers an observer; events reach observers in push order.
    pub fn push(&mut self, observer: &'a dyn CampaignObserver) {
        self.observers.push(observer);
    }
}

impl CampaignObserver for ObserverSet<'_> {
    fn fault_list_sampled(&self, faults: &[FaultSpec]) {
        for o in &self.observers {
            o.fault_list_sampled(faults);
        }
    }

    fn plan_computed(&self, stats: &PlanStats) {
        for o in &self.observers {
            o.plan_computed(stats);
        }
    }

    fn batch_admission(&self, rejected_untraceable: usize, vis_admitted: usize) {
        for o in &self.observers {
            o.batch_admission(rejected_untraceable, vis_admitted);
        }
    }

    fn experiment_started(&self, index: usize, fault: FaultSpec, fast_forward_from: Option<usize>) {
        for o in &self.observers {
            o.experiment_started(index, fault, fast_forward_from);
        }
    }

    fn fault_injected(&self, index: usize, fault: FaultSpec) {
        for o in &self.observers {
            o.fault_injected(index, fault);
        }
    }

    fn arena_restored(&self, copied_words: usize, full_clone: bool) {
        for o in &self.observers {
            o.arena_restored(copied_words, full_clone);
        }
    }

    fn replay_started(&self, index: usize) {
        for o in &self.observers {
            o.replay_started(index);
        }
    }

    fn replay_fell_back(&self, index: usize, at: u64, reason: FallbackReason) {
        for o in &self.observers {
            o.replay_fell_back(index, at, reason);
        }
    }

    fn replay_events(&self, index: usize, n: u64) {
        for o in &self.observers {
            o.replay_events(index, n);
        }
    }

    fn replay_steady(&self, index: usize, end: &[(u32, u32)]) {
        for o in &self.observers {
            o.replay_steady(index, end);
        }
    }

    fn plant_only(&self, index: usize, iterations: usize) {
        for o in &self.observers {
            o.plant_only(index, iterations);
        }
    }

    fn shifted_reentry(&self, index: usize) {
        for o in &self.observers {
            o.shifted_reentry(index);
        }
    }

    fn experiment_executed(&self, index: usize, instructions: u64, block_instructions: u64) {
        for o in &self.observers {
            o.experiment_executed(index, instructions, block_instructions);
        }
    }

    fn trajectory_recalled(&self, index: usize, iteration: usize) {
        for o in &self.observers {
            o.trajectory_recalled(index, iteration);
        }
    }

    fn experiment_classified(&self, index: usize, record: &ExperimentRecord) {
        for o in &self.observers {
            o.experiment_classified(index, record);
        }
    }

    fn experiment_retried(&self, index: usize, cause: HarnessCause) {
        for o in &self.observers {
            o.experiment_retried(index, cause);
        }
    }

    fn campaign_completed(&self, result: &CampaignResult) {
        for o in &self.observers {
            o.campaign_completed(result);
        }
    }
}

/// Exponentially-smoothed completion interval shared by the worker
/// threads. The interval is smoothed, not its inverse: analytic records
/// complete microseconds apart, and averaging `1/dt` over such bursts
/// reports rates hundreds of times the real one.
struct RateState {
    last_completion: Option<Instant>,
    interval: Ewma,
}

impl RateState {
    fn new() -> Self {
        RateState {
            last_completion: None,
            // Smooth over roughly the last ~40 completions.
            interval: Ewma::new(0.05),
        }
    }

    /// Notes one completion at `now`. The first only starts the clock.
    fn completed(&mut self, now: Instant) {
        if let Some(last) = self.last_completion.replace(now) {
            self.interval.update(now.duration_since(last).as_secs_f64());
        }
    }

    /// Completions per second at the smoothed interval.
    fn per_second(&self) -> Option<f64> {
        self.interval
            .value()
            .filter(|&dt| dt > 0.0)
            .map(|dt| 1.0 / dt)
    }
}

/// Live campaign counters: classification tallies, throughput, ETA,
/// checkpoint fast-forward hit-rate and convergence-prune rate.
///
/// The counts are one [`TelemetrySnapshot`] record under a mutex, next to
/// the smoothed-rate state; each hook is one fold step on that record,
/// and [`snapshot`](Telemetry::snapshot) copies it and fills in the
/// timing fields.
pub struct Telemetry {
    started: Instant,
    state: Mutex<State>,
}

/// What [`Telemetry`]'s mutex guards.
struct State {
    /// The counts; the timing fields stay at their defaults.
    counts: TelemetrySnapshot,
    rate: RateState,
}

impl Telemetry {
    /// New telemetry for a campaign of `total` faults.
    #[must_use]
    pub fn new(total: usize) -> Self {
        Telemetry {
            started: Instant::now(),
            state: Mutex::new(State {
                counts: TelemetrySnapshot {
                    total,
                    ..TelemetrySnapshot::default()
                },
                rate: RateState::new(),
            }),
        }
    }

    /// The guarded state. A panic elsewhere cannot leave a count half
    /// updated, so a poisoned lock is still read.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies one fold step to the counts.
    fn fold(&self, step: impl FnOnce(&mut TelemetrySnapshot)) {
        step(&mut self.state().counts);
    }

    /// Marks `n` experiments as already complete (restored from a result
    /// store during a resume). They count towards progress but not towards
    /// the throughput estimate.
    pub fn note_preloaded(&self, n: usize) {
        self.fold(|c| c.preloaded += n);
    }

    /// A point-in-time copy of all counters with derived rates.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let elapsed = self.started.elapsed().as_secs_f64();
        let (mut snap, smoothed) = {
            let state = self.state();
            (state.counts, state.rate.per_second())
        };
        snap.elapsed_seconds = elapsed;
        snap.throughput = snap.completed as f64 / elapsed.max(1e-9);
        snap.smoothed_throughput = smoothed;
        let remaining = snap.total.saturating_sub(snap.done());
        let rate = smoothed
            .filter(|&r| r > 0.0)
            .or(Some(snap.throughput).filter(|&r| r > 0.0));
        snap.eta_seconds = rate.map(|rate| remaining as f64 / rate);
        snap
    }
}

impl CampaignObserver for Telemetry {
    fn experiment_started(
        &self,
        _index: usize,
        _fault: FaultSpec,
        fast_forward_from: Option<usize>,
    ) {
        // A fast-forward from the iteration-0 checkpoint saves nothing, so
        // the hit-rate only counts resumes that skipped real work.
        if fast_forward_from.is_some_and(|k| k > 0) {
            self.fold(|c| c.fast_forwarded += 1);
        }
    }

    fn trajectory_recalled(&self, _index: usize, _iteration: usize) {
        self.fold(|c| c.recalled += 1);
    }

    fn plan_computed(&self, stats: &PlanStats) {
        self.fold(|c| {
            c.plan_micros += stats.plan_micros;
            c.vis_latent += stats.vis_latent;
            c.vis_overwritten += stats.vis_overwritten;
            c.sig_overwritten += stats.sig_overwritten;
            c.value_resolved += stats.value_resolved;
            c.batch_members += stats.resolved();
            c.split_offs += stats.live;
            c.batch_untraceable += stats.opaque;
            c.batch_vis_admitted += stats.vis_resolved();
        });
    }

    fn arena_restored(&self, copied_words: usize, full_clone: bool) {
        self.fold(|c| {
            if full_clone {
                c.arena_full_clones += 1;
            } else {
                c.arena_restores += 1;
                c.arena_dirty_words += copied_words as u64;
            }
        });
    }

    fn replay_started(&self, _index: usize) {
        self.fold(|c| c.replayed += 1);
    }

    fn replay_fell_back(&self, _index: usize, _at: u64, reason: FallbackReason) {
        self.fold(|c| {
            *match reason {
                FallbackReason::ControlState => &mut c.fallback_control_state,
                FallbackReason::Address => &mut c.fallback_address,
                FallbackReason::CacheControl => &mut c.fallback_cache_control,
                FallbackReason::Branch => &mut c.fallback_branch,
                FallbackReason::Trap => &mut c.fallback_trap,
                FallbackReason::Output => &mut c.fallback_output,
            } += 1;
        });
    }

    fn replay_events(&self, _index: usize, n: u64) {
        self.fold(|c| c.replay_events += n);
    }

    fn replay_steady(&self, _index: usize, _end: &[(u32, u32)]) {
        self.fold(|c| c.steady += 1);
    }

    fn plant_only(&self, _index: usize, iterations: usize) {
        self.fold(|c| c.plant_only_iterations += iterations);
    }

    fn shifted_reentry(&self, _index: usize) {
        self.fold(|c| c.shifted_reentries += 1);
    }

    fn experiment_executed(&self, _index: usize, instructions: u64, block_instructions: u64) {
        self.fold(|c| {
            c.sim_instructions += instructions;
            c.block_instructions += block_instructions;
        });
    }

    fn experiment_classified(&self, _index: usize, record: &ExperimentRecord) {
        let now = Instant::now();
        let mut state = self.state();
        let c = &mut state.counts;
        c.analytic += usize::from(record.provenance == Provenance::Analytic);
        *match record.outcome {
            Outcome::Detected(_) => &mut c.detected,
            Outcome::Hang => &mut c.hangs,
            Outcome::ValueFailure(s) if s.is_severe() => &mut c.severe,
            Outcome::ValueFailure(_) => &mut c.minor,
            Outcome::Latent => &mut c.latent,
            Outcome::Overwritten => &mut c.overwritten,
            Outcome::HarnessFailure(_) => &mut c.harness_failures,
        } += 1;
        c.pruned += usize::from(record.pruned_at.is_some());
        c.completed += 1;
        state.rate.completed(now);
    }

    fn experiment_retried(&self, _index: usize, _cause: HarnessCause) {
        self.fold(|c| c.retried += 1);
    }
}

/// A point-in-time view of a campaign's [`Telemetry`]. Serializable so a
/// campaign can persist its final snapshot as a machine-readable side
/// artifact for the offline `report` bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetrySnapshot {
    /// Campaign size (faults).
    pub total: usize,
    /// Records restored from a store (resume), not executed here.
    pub preloaded: usize,
    /// Experiments executed and classified by this process.
    pub completed: usize,
    /// Wall-clock seconds since the telemetry was created.
    pub elapsed_seconds: f64,
    /// Overall executed-experiment throughput (experiments per second).
    pub throughput: f64,
    /// Exponentially smoothed recent throughput, if any completions yet.
    pub smoothed_throughput: Option<f64>,
    /// Estimated seconds to completion at the recent rate.
    pub eta_seconds: Option<f64>,
    /// Detected errors (an EDM fired).
    pub detected: usize,
    /// Hangs ("other errors").
    pub hangs: usize,
    /// Severe undetected wrong results.
    pub severe: usize,
    /// Minor undetected wrong results.
    pub minor: usize,
    /// Latent errors.
    pub latent: usize,
    /// Overwritten errors.
    pub overwritten: usize,
    /// Experiments quarantined after a second harness failure.
    pub harness_failures: usize,
    /// Experiments retried once after a first harness failure.
    pub retried: usize,
    /// Experiments ended early by convergence pruning.
    pub pruned: usize,
    /// Experiments ended early by trajectory recall: their state matched
    /// one an earlier run of the same worker passed through.
    pub recalled: usize,
    /// Experiments that fast-forwarded past at least one checkpoint.
    pub fast_forwarded: usize,
    /// Records classified analytically from the golden access trace (no
    /// simulation executed).
    pub analytic: usize,
    /// Faults the fate resolver settled or placed from the golden traces
    /// (every fate but opaque).
    pub batch_members: usize,
    /// Of those, the live faults, which simulate.
    pub split_offs: usize,
    /// Wall-clock microseconds the planner spent classifying the fault
    /// list (def/use + visibility + value rules).
    pub plan_micros: u64,
    /// Analytic `Latent` verdicts from an EDM-visibility window.
    pub vis_latent: usize,
    /// Analytic `Overwritten` verdicts from an EDM-visibility window.
    pub vis_overwritten: usize,
    /// Signature faults proven overwritten by the write-first rule.
    pub sig_overwritten: usize,
    /// Operand-latch faults resolved by the value-level shift rule.
    pub value_resolved: usize,
    /// Flip-model faults opaque to the golden traces (the
    /// untraceable-must-simulate residue).
    pub batch_untraceable: usize,
    /// Resolved faults that needed the visibility trace.
    pub batch_vis_admitted: usize,
    /// Dynamic instructions executed by scalar experiment drives in this
    /// process (prefix fast-forward excluded — this is the simulated
    /// residue the fast-replay engine attacks).
    pub sim_instructions: u64,
    /// Of [`sim_instructions`](Self::sim_instructions), how many were
    /// executed by the predecoded block engine instead of the scalar
    /// fetch–decode–execute step.
    pub block_instructions: u64,
    /// Experiment machines obtained by dirty-delta restore from the
    /// per-worker arena (the checkpoint-clone fast path).
    pub arena_restores: usize,
    /// Data words copied by those dirty-delta restores, summed.
    pub arena_dirty_words: u64,
    /// Experiment machines obtained by a full checkpoint clone (arena
    /// empty, golden changed, or a poisoned slot after a panic).
    pub arena_full_clones: usize,
    /// Experiments whose drive started under diff replay.
    pub replayed: usize,
    /// Diff-replay events processed, summed over every replayed stretch.
    /// Absent from sidecars written before it existed.
    #[serde(default)]
    pub replay_events: u64,
    /// Replays that took the steady-delta jump and replayed the tail to
    /// the end of the run. Absent from sidecars written before it existed.
    #[serde(default)]
    pub steady: usize,
    /// Replayed experiments handed to the interpreter because the diff
    /// covered the PC, fetch latch or signature register.
    pub fallback_control_state: usize,
    /// ... because a load or store's base register was diffed.
    pub fallback_address: usize,
    /// ... because an access consulted a diffed cache tag or flag.
    pub fallback_cache_control: usize,
    /// ... because a branch or return diverged.
    pub fallback_branch: usize,
    /// ... because the faulty instruction trapped.
    pub fallback_trap: usize,
    /// ... because the harness sampled a diffed output port.
    pub fallback_output: usize,
    /// Iterations whose CPU work was golden's while the plant was not, so
    /// only the plant was stepped. Absent from sidecars written before it
    /// existed.
    #[serde(default)]
    pub plant_only_iterations: usize,
    /// Re-entries into diff replay at a non-zero instruction offset from
    /// golden's. Absent from sidecars written before it existed.
    #[serde(default)]
    pub shifted_reentries: usize,
}

impl TelemetrySnapshot {
    /// `completed + preloaded`: faults with a final record.
    #[must_use]
    pub fn done(&self) -> usize {
        self.completed + self.preloaded
    }

    /// Fraction of simulated experiments that fast-forwarded from a
    /// golden checkpoint beyond iteration 0 (analytic records never touch
    /// the simulator, so they are excluded).
    #[must_use]
    pub fn checkpoint_hit_rate(&self) -> f64 {
        self.fast_forwarded as f64 / (self.simulated().max(1)) as f64
    }

    /// Fraction of simulated experiments pruned by convergence.
    #[must_use]
    pub fn prune_rate(&self) -> f64 {
        self.pruned as f64 / (self.simulated().max(1)) as f64
    }

    /// Records classified by actually running the simulator in this
    /// process (`completed` minus the analytic records).
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.completed.saturating_sub(self.analytic)
    }

    /// Fraction of resolved faults that are live (the rest were settled
    /// analytically).
    #[must_use]
    pub fn split_off_rate(&self) -> f64 {
        self.split_offs as f64 / (self.batch_members.max(1)) as f64
    }

    /// Total analytic verdicts attributable to the visibility/value layer
    /// (everything the def/use planner alone could not classify).
    #[must_use]
    pub fn vis_analytic(&self) -> usize {
        self.vis_latent + self.vis_overwritten + self.sig_overwritten + self.value_resolved
    }

    /// Fraction of simulated-residue instructions executed by the
    /// predecoded block engine (the block-cache hit rate).
    #[must_use]
    pub fn block_hit_rate(&self) -> f64 {
        self.block_instructions as f64 / (self.sim_instructions.max(1)) as f64
    }

    /// Replay fallbacks by reason, in [`FallbackReason::ALL`] order.
    #[must_use]
    pub fn fallbacks(&self) -> [(FallbackReason, usize); 6] {
        let n = [
            self.fallback_control_state,
            self.fallback_address,
            self.fallback_cache_control,
            self.fallback_branch,
            self.fallback_trap,
            self.fallback_output,
        ];
        std::array::from_fn(|i| (FallbackReason::ALL[i], n[i]))
    }

    /// Mean data words copied per dirty-delta arena restore.
    #[must_use]
    pub fn mean_dirty_words(&self) -> f64 {
        self.arena_dirty_words as f64 / (self.arena_restores.max(1)) as f64
    }

    /// Folds another worker's snapshot into this one — the farm-level
    /// aggregation: every count is summed, wall-clock is the maximum (the
    /// workers ran concurrently), and the overall throughput is re-derived
    /// from the summed completions. The rate estimators that only make
    /// sense for a single live process (smoothed throughput, ETA) are
    /// cleared rather than invented.
    ///
    /// Each shard's *final* sidecar is written by the worker that finished
    /// it, so summing one sidecar per shard counts every fault exactly
    /// once: records a crashed worker persisted before dying appear in the
    /// finishing worker's `preloaded` tally, and every
    /// [`run_shard`](crate::campaign::PreparedCampaign::run_shard) call
    /// plans its whole range, preloaded indices included, so the planning
    /// counters are the range's too.
    pub fn accumulate(&mut self, other: &TelemetrySnapshot) {
        self.total += other.total;
        self.preloaded += other.preloaded;
        self.completed += other.completed;
        self.elapsed_seconds = self.elapsed_seconds.max(other.elapsed_seconds);
        self.throughput = self.completed as f64 / self.elapsed_seconds.max(1e-9);
        self.smoothed_throughput = None;
        self.eta_seconds = None;
        self.detected += other.detected;
        self.hangs += other.hangs;
        self.severe += other.severe;
        self.minor += other.minor;
        self.latent += other.latent;
        self.overwritten += other.overwritten;
        self.harness_failures += other.harness_failures;
        self.retried += other.retried;
        self.pruned += other.pruned;
        self.recalled += other.recalled;
        self.fast_forwarded += other.fast_forwarded;
        self.analytic += other.analytic;
        self.plan_micros += other.plan_micros;
        self.vis_latent += other.vis_latent;
        self.vis_overwritten += other.vis_overwritten;
        self.sig_overwritten += other.sig_overwritten;
        self.value_resolved += other.value_resolved;
        self.batch_members += other.batch_members;
        self.split_offs += other.split_offs;
        self.batch_untraceable += other.batch_untraceable;
        self.batch_vis_admitted += other.batch_vis_admitted;
        self.sim_instructions += other.sim_instructions;
        self.block_instructions += other.block_instructions;
        self.arena_restores += other.arena_restores;
        self.arena_dirty_words += other.arena_dirty_words;
        self.arena_full_clones += other.arena_full_clones;
        self.replayed += other.replayed;
        self.replay_events += other.replay_events;
        self.steady += other.steady;
        self.fallback_control_state += other.fallback_control_state;
        self.fallback_address += other.fallback_address;
        self.fallback_cache_control += other.fallback_cache_control;
        self.fallback_branch += other.fallback_branch;
        self.fallback_trap += other.fallback_trap;
        self.fallback_output += other.fallback_output;
        self.plant_only_iterations += other.plant_only_iterations;
        self.shifted_reentries += other.shifted_reentries;
    }
}

/// `n` for a summary line: in millions, to two decimals, from a million.
fn count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.2} M", n as f64 / 1e6)
    } else {
        n.to_string()
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = 100.0 * self.done() as f64 / self.total.max(1) as f64;
        write!(f, "{}/{} ({pct:.1}%)", self.done(), self.total)?;
        // The recent rate while running; the overall one once done.
        let rate = match self.smoothed_throughput {
            Some(recent) if self.done() < self.total => recent,
            _ => self.throughput,
        };
        write!(f, " | {rate:.1} exp/s")?;
        match self.eta_seconds {
            Some(eta) if self.done() < self.total => write!(f, ", ETA {eta:.0} s")?,
            _ => {}
        }
        write!(
            f,
            " | det {} hang {} sev {} min {} lat {} ovw {}",
            self.detected, self.hangs, self.severe, self.minor, self.latent, self.overwritten
        )?;
        if self.harness_failures > 0 || self.retried > 0 {
            write!(f, " quar {} retry {}", self.harness_failures, self.retried)?;
        }
        write!(
            f,
            " | ff {:.0}% prune {:.0}% recall {}",
            100.0 * self.checkpoint_hit_rate(),
            100.0 * self.prune_rate(),
            self.recalled
        )?;
        if self.analytic > 0 {
            write!(f, " | sim {} an {}", self.simulated(), self.analytic)?;
        }
        if self.batch_members > 0 {
            write!(
                f,
                " | fate resolved {} live {:.0}%",
                self.batch_members,
                100.0 * self.split_off_rate()
            )?;
        }
        if self.vis_analytic() > 0 || self.batch_vis_admitted > 0 {
            write!(
                f,
                " | vis lat {} ovw {} sig {} val {} adm {} opq {}",
                self.vis_latent,
                self.vis_overwritten,
                self.sig_overwritten,
                self.value_resolved,
                self.batch_vis_admitted,
                self.batch_untraceable
            )?;
        }
        if self.sim_instructions > 0 {
            write!(
                f,
                " | blk {:.0}% dirty {:.0}w/{} full {}",
                100.0 * self.block_hit_rate(),
                self.mean_dirty_words(),
                self.arena_restores,
                self.arena_full_clones
            )?;
        }
        if self.replayed > 0 {
            let fallbacks = self.fallbacks();
            let total: usize = fallbacks.iter().map(|(_, n)| n).sum();
            write!(
                f,
                " | replay {} ({} events, steady {}, shifted {}), fallback {total}",
                self.replayed,
                count(self.replay_events),
                self.steady,
                self.shifted_reentries
            )?;
            let by_reason: Vec<String> = fallbacks
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(r, n)| format!("{} {n}", r.label()))
                .collect();
            if !by_reason.is_empty() {
                write!(f, " ({})", by_reason.join(", "))?;
            }
        }
        if self.plant_only_iterations > 0 {
            write!(f, " | plant-only {} it", self.plant_only_iterations)?;
        }
        if self.plan_micros > 0 {
            write!(f, " | plan {} µs", self.plan_micros)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_scifi_campaign_observed, CampaignConfig};
    use crate::experiment::FaultModel;
    use crate::workload::Workload;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The counters [`Telemetry`] derives from the records alone: the
    /// seven outcome buckets, `analytic`, `pruned` and `completed`.
    fn record_counters(s: &TelemetrySnapshot) -> [usize; 10] {
        [
            s.detected,
            s.hangs,
            s.severe,
            s.minor,
            s.latent,
            s.overwritten,
            s.harness_failures,
            s.analytic,
            s.pruned,
            s.completed,
        ]
    }

    /// [`record_counters`], recounted from `records`.
    fn recount(records: &[ExperimentRecord]) -> [usize; 10] {
        let n = |f: &dyn Fn(&ExperimentRecord) -> bool| records.iter().filter(|r| f(r)).count();
        [
            n(&|r| matches!(r.outcome, Outcome::Detected(_))),
            n(&|r| r.outcome == Outcome::Hang),
            n(&|r| matches!(r.outcome, Outcome::ValueFailure(s) if s.is_severe())),
            n(&|r| matches!(r.outcome, Outcome::ValueFailure(s) if !s.is_severe())),
            n(&|r| r.outcome == Outcome::Latent),
            n(&|r| r.outcome == Outcome::Overwritten),
            n(&|r| r.outcome.is_harness_failure()),
            n(&|r| r.provenance == Provenance::Analytic),
            n(&|r| r.pruned_at.is_some()),
            records.len(),
        ]
    }

    #[test]
    fn telemetry_counts_partition_the_campaign() {
        let w = Workload::algorithm_one();
        // A pruned one-shot model, and a stuck-at model, which bypasses
        // the pruner.
        for model in [FaultModel::SingleBit, FaultModel::StuckAt { value: false }] {
            let mut cfg = CampaignConfig::quick(40, 11);
            cfg.fault_model = model;
            let telemetry = Telemetry::new(40);
            let result = run_scifi_campaign_observed(&w, &cfg, &telemetry);
            let snap = telemetry.snapshot();
            assert_eq!(
                record_counters(&snap),
                recount(&result.records),
                "{model}: every record-derived counter matches a recount"
            );
            assert_eq!(snap.done(), 40);
            assert_eq!(
                record_counters(&snap)[..7].iter().sum::<usize>(),
                40,
                "{model}: every record lands in exactly one outcome bucket"
            );
            assert_eq!(snap.harness_failures, 0, "healthy campaign: no quarantine");
            assert_eq!(snap.retried, 0, "healthy campaign: no retries");
            if model == FaultModel::SingleBit {
                assert!(
                    snap.analytic > 0 && snap.pruned > 0,
                    "{model}: the pruner ran"
                );
                assert!(
                    0 < snap.steady && snap.steady <= snap.replayed,
                    "{model}: some replays end by the steady-delta jump"
                );
            } else {
                assert_eq!(snap.analytic + snap.pruned, 0, "{model}");
            }
            assert!(snap.throughput > 0.0);
            assert!(snap.eta_seconds.is_some());
        }
    }

    #[test]
    fn observer_set_broadcasts_in_order() {
        struct Counter(AtomicUsize);
        impl CampaignObserver for Counter {
            fn experiment_classified(&self, _i: usize, _r: &ExperimentRecord) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let a = Counter(AtomicUsize::new(0));
        let b = Counter(AtomicUsize::new(0));
        let mut set = ObserverSet::new();
        set.push(&a);
        set.push(&b);
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(10, 3);
        let _ = run_scifi_campaign_observed(&w, &cfg, &set);
        assert_eq!(a.0.load(Ordering::Relaxed), 10);
        assert_eq!(b.0.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn smoothed_rate_follows_uneven_intervals() {
        // Bursts of nine completions 1 µs apart, then a 10 ms gap: the
        // analytic-then-simulated rhythm of a planned campaign. The true
        // rate is ten completions per 10.009 ms, about 1 000/s.
        let mut rate = RateState::new();
        let mut now = Instant::now();
        for _ in 0..50 {
            for _ in 0..9 {
                now += std::time::Duration::from_micros(1);
                rate.completed(now);
            }
            now += std::time::Duration::from_millis(10);
            rate.completed(now);
        }
        let per_second = rate.per_second().expect("completions were noted");
        assert!(
            (500.0..2_000.0).contains(&per_second),
            "smoothed rate {per_second:.1}/s is far from the true ~1 000/s"
        );
    }

    #[test]
    fn finished_campaign_reports_its_overall_throughput() {
        let mut snap = Telemetry::new(1).snapshot();
        snap.completed = 1;
        snap.throughput = 2_580.0;
        snap.smoothed_throughput = Some(410_649.9);
        assert!(snap.to_string().contains(" 2580.0 exp/s"), "{snap}");
        snap.total = 2;
        assert!(snap.to_string().contains(" 410649.9 exp/s"), "{snap}");
    }

    #[test]
    fn sidecars_without_replay_events_still_parse() {
        let mut snap = Telemetry::new(3).snapshot();
        snap.replay_events = 7;
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.replay_events, 7);
        let older = json.replace(",\"replay_events\":7", "");
        assert_ne!(older, json, "{json}");
        let back: TelemetrySnapshot = serde_json::from_str(&older).unwrap();
        assert_eq!(back.replay_events, 0);
        // Sidecars of builds that replicated class members and fell back
        // on dense events carry three counters no build writes now.
        let oldest = json.replacen('{', "{\"replicated\":2,\"vis_replicated\":1,", 1);
        let oldest = oldest.replacen('}', ",\"fallback_dense\":1}", 1);
        let back: TelemetrySnapshot = serde_json::from_str(&oldest).unwrap();
        assert_eq!(back, serde_json::from_str(&json).unwrap());
    }

    #[test]
    fn preloaded_counts_toward_done_but_not_throughput() {
        let t = Telemetry::new(100);
        t.note_preloaded(60);
        let snap = t.snapshot();
        assert_eq!(snap.done(), 60);
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.preloaded, 60);
        assert!(snap.eta_seconds.is_none(), "no executed completions yet");
        // Display must not panic on a fresh snapshot.
        let _ = snap.to_string();
    }

    #[test]
    fn events_fire_for_every_life_cycle_stage() {
        #[derive(Default)]
        struct Probe {
            sampled: AtomicUsize,
            started: AtomicUsize,
            injected: AtomicUsize,
            classified: AtomicUsize,
            completed: AtomicUsize,
        }
        impl CampaignObserver for Probe {
            fn fault_list_sampled(&self, faults: &[FaultSpec]) {
                self.sampled.fetch_add(faults.len(), Ordering::Relaxed);
            }
            fn experiment_started(&self, _: usize, _: FaultSpec, _: Option<usize>) {
                self.started.fetch_add(1, Ordering::Relaxed);
            }
            fn fault_injected(&self, _: usize, _: FaultSpec) {
                self.injected.fetch_add(1, Ordering::Relaxed);
            }
            fn experiment_classified(&self, _: usize, _: &ExperimentRecord) {
                self.classified.fetch_add(1, Ordering::Relaxed);
            }
            fn campaign_completed(&self, result: &CampaignResult) {
                self.completed
                    .fetch_add(result.records.len(), Ordering::Relaxed);
            }
        }
        let probe = Probe::default();
        let w = Workload::algorithm_one();
        // The planner skips started/injected for analytically classified
        // faults; disable it so this test keeps documenting the full
        // per-experiment life cycle.
        let mut cfg = CampaignConfig::quick(15, 7);
        cfg.prune = false;
        let _ = run_scifi_campaign_observed(&w, &cfg, &probe);
        assert_eq!(probe.sampled.load(Ordering::Relaxed), 15);
        assert_eq!(probe.started.load(Ordering::Relaxed), 15);
        assert_eq!(
            probe.injected.load(Ordering::Relaxed),
            15,
            "the fault-free prefix never traps, so every fault is injected"
        );
        assert_eq!(probe.classified.load(Ordering::Relaxed), 15);
        assert_eq!(probe.completed.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn pruned_campaign_classifies_everything_but_simulates_a_subset() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(40, 11);
        let telemetry = Telemetry::new(40);
        let result = run_scifi_campaign_observed(&w, &cfg, &telemetry);
        let snap = telemetry.snapshot();
        assert_eq!(snap.completed, 40, "every fault gets a classified record");
        assert_eq!(snap.simulated() + snap.analytic, 40);
        assert!(
            snap.analytic > 0,
            "a uniform scan-chain sample always hits overwritten/unused state"
        );
        for r in &result.records {
            use crate::experiment::Provenance;
            match r.provenance {
                Provenance::Analytic => assert!(
                    matches!(r.outcome, Outcome::Overwritten | Outcome::Latent),
                    "analytic classification only ever emits overwritten/latent"
                ),
                Provenance::Simulated => {}
                Provenance::Replicated => panic!("no run classifies a replicated record"),
            }
        }
        let analytic = result
            .records
            .iter()
            .filter(|r| r.provenance == crate::experiment::Provenance::Analytic)
            .count();
        assert_eq!(snap.analytic, analytic);
    }
}
