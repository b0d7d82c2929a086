//! Campaign observability: the [`CampaignObserver`] hook trait threaded
//! through campaign and experiment execution, plus the lock-light
//! [`Telemetry`] aggregator built on top of it.
//!
//! The campaign engine emits one event per phase of every experiment's
//! life cycle (sampled, started, injected, detected / spliced, classified,
//! completed). Observers run *inside* the worker threads, so an
//! implementation must be `Sync` and should be cheap: the streaming store
//! ([`crate::store::JsonlStore`]) serialises one line under a mutex, and
//! [`Telemetry`] touches a handful of atomics.

use crate::campaign::CampaignResult;
use crate::classify::{HarnessCause, Outcome};
use crate::experiment::{ExperimentRecord, FaultSpec};
use crate::planner::PlanStats;
use bera_stats::rate::Ewma;
use bera_tcpu::edm::ErrorMechanism;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

    /// An experiment's drive finished executing: it ran `instructions`
    /// dynamic instructions in this process, of which `block_instructions`
    /// went through the predecoded fast-replay block engine rather than
    /// the scalar fetch–decode–execute step. Fires before
    /// [`experiment_classified`](CampaignObserver::experiment_classified),
    /// only for experiments that actually simulated here.
    fn experiment_executed(&self, index: usize, instructions: u64, block_instructions: u64) {
        let _ = (index, instructions, block_instructions);
    }

    /// A hardware error detection mechanism fired `latency` dynamic
    /// instructions after injection.
    fn error_detected(&self, index: usize, mechanism: ErrorMechanism, latency: u64) {
        let _ = (index, mechanism, latency);
    }

    /// Convergence pruning proved the run rejoined the golden trajectory
    /// and spliced the golden tail at `iteration`.
    fn convergence_spliced(&self, index: usize, iteration: usize) {
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

    fn experiment_executed(&self, index: usize, instructions: u64, block_instructions: u64) {
        for o in &self.observers {
            o.experiment_executed(index, instructions, block_instructions);
        }
    }

    fn error_detected(&self, index: usize, mechanism: ErrorMechanism, latency: u64) {
        for o in &self.observers {
            o.error_detected(index, mechanism, latency);
        }
    }

    fn convergence_spliced(&self, index: usize, iteration: usize) {
        for o in &self.observers {
            o.convergence_spliced(index, iteration);
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

/// Exponentially-smoothed completion rate shared by the worker threads.
struct RateState {
    last_completion: Instant,
    per_second: Ewma,
}

/// Live campaign counters: classification tallies, throughput, ETA,
/// checkpoint fast-forward hit-rate and convergence-prune rate.
///
/// All counters are atomics, so observing a heavily parallel campaign
/// costs a few uncontended fetch-adds per experiment; only the smoothed
/// throughput estimate takes a (short) mutex.
pub struct Telemetry {
    total: usize,
    started: Instant,
    preloaded: AtomicUsize,
    completed: AtomicUsize,
    detected: AtomicUsize,
    hangs: AtomicUsize,
    severe: AtomicUsize,
    minor: AtomicUsize,
    latent: AtomicUsize,
    overwritten: AtomicUsize,
    harness_failures: AtomicUsize,
    retried: AtomicUsize,
    pruned: AtomicUsize,
    fast_forwarded: AtomicUsize,
    analytic: AtomicUsize,
    replicated: AtomicUsize,
    batch_members: AtomicUsize,
    split_offs: AtomicUsize,
    plan_micros: AtomicUsize,
    vis_latent: AtomicUsize,
    vis_overwritten: AtomicUsize,
    sig_overwritten: AtomicUsize,
    value_resolved: AtomicUsize,
    vis_replicated: AtomicUsize,
    batch_untraceable: AtomicUsize,
    batch_vis_admitted: AtomicUsize,
    sim_instructions: AtomicUsize,
    block_instructions: AtomicUsize,
    arena_restores: AtomicUsize,
    arena_dirty_words: AtomicUsize,
    arena_full_clones: AtomicUsize,
    rate: Mutex<RateState>,
}

impl Telemetry {
    /// New telemetry for a campaign of `total` faults.
    #[must_use]
    pub fn new(total: usize) -> Self {
        Telemetry {
            total,
            started: Instant::now(),
            preloaded: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            detected: AtomicUsize::new(0),
            hangs: AtomicUsize::new(0),
            severe: AtomicUsize::new(0),
            minor: AtomicUsize::new(0),
            latent: AtomicUsize::new(0),
            overwritten: AtomicUsize::new(0),
            harness_failures: AtomicUsize::new(0),
            retried: AtomicUsize::new(0),
            pruned: AtomicUsize::new(0),
            fast_forwarded: AtomicUsize::new(0),
            analytic: AtomicUsize::new(0),
            replicated: AtomicUsize::new(0),
            batch_members: AtomicUsize::new(0),
            split_offs: AtomicUsize::new(0),
            plan_micros: AtomicUsize::new(0),
            vis_latent: AtomicUsize::new(0),
            vis_overwritten: AtomicUsize::new(0),
            sig_overwritten: AtomicUsize::new(0),
            value_resolved: AtomicUsize::new(0),
            vis_replicated: AtomicUsize::new(0),
            batch_untraceable: AtomicUsize::new(0),
            batch_vis_admitted: AtomicUsize::new(0),
            sim_instructions: AtomicUsize::new(0),
            block_instructions: AtomicUsize::new(0),
            arena_restores: AtomicUsize::new(0),
            arena_dirty_words: AtomicUsize::new(0),
            arena_full_clones: AtomicUsize::new(0),
            rate: Mutex::new(RateState {
                last_completion: Instant::now(),
                // Smooth over roughly the last ~40 completions.
                per_second: Ewma::new(0.05),
            }),
        }
    }

    /// Marks `n` experiments as already complete (restored from a result
    /// store during a resume). They count towards progress but not towards
    /// the throughput estimate.
    pub fn note_preloaded(&self, n: usize) {
        self.preloaded.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters with derived rates.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);
        let completed = load(&self.completed);
        let preloaded = load(&self.preloaded);
        let elapsed = self.started.elapsed().as_secs_f64();
        let throughput = completed as f64 / elapsed.max(1e-9);
        let smoothed = self
            .rate
            .lock()
            .map(|r| r.per_second.value())
            .unwrap_or(None);
        let done = completed + preloaded;
        let remaining = self.total.saturating_sub(done);
        let eta_seconds = match smoothed.filter(|&r| r > 0.0).or(if throughput > 0.0 {
            Some(throughput)
        } else {
            None
        }) {
            Some(rate) if remaining > 0 => Some(remaining as f64 / rate),
            Some(_) => Some(0.0),
            None => None,
        };
        TelemetrySnapshot {
            total: self.total,
            preloaded,
            completed,
            elapsed_seconds: elapsed,
            throughput,
            smoothed_throughput: smoothed,
            eta_seconds,
            detected: load(&self.detected),
            hangs: load(&self.hangs),
            severe: load(&self.severe),
            minor: load(&self.minor),
            latent: load(&self.latent),
            overwritten: load(&self.overwritten),
            harness_failures: load(&self.harness_failures),
            retried: load(&self.retried),
            pruned: load(&self.pruned),
            fast_forwarded: load(&self.fast_forwarded),
            analytic: load(&self.analytic),
            replicated: load(&self.replicated),
            batch_members: load(&self.batch_members),
            split_offs: load(&self.split_offs),
            plan_micros: load(&self.plan_micros) as u64,
            vis_latent: load(&self.vis_latent),
            vis_overwritten: load(&self.vis_overwritten),
            sig_overwritten: load(&self.sig_overwritten),
            value_resolved: load(&self.value_resolved),
            vis_replicated: load(&self.vis_replicated),
            batch_untraceable: load(&self.batch_untraceable),
            batch_vis_admitted: load(&self.batch_vis_admitted),
            sim_instructions: load(&self.sim_instructions) as u64,
            block_instructions: load(&self.block_instructions) as u64,
            arena_restores: load(&self.arena_restores),
            arena_dirty_words: load(&self.arena_dirty_words) as u64,
            arena_full_clones: load(&self.arena_full_clones),
        }
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
            self.fast_forwarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn convergence_spliced(&self, _index: usize, _iteration: usize) {
        self.pruned.fetch_add(1, Ordering::Relaxed);
    }

    fn plan_computed(&self, stats: &PlanStats) {
        let add = |c: &AtomicUsize, n: usize| {
            c.fetch_add(n, Ordering::Relaxed);
        };
        add(
            &self.plan_micros,
            usize::try_from(stats.plan_micros).unwrap_or(usize::MAX),
        );
        add(&self.vis_latent, stats.vis_latent);
        add(&self.vis_overwritten, stats.vis_overwritten);
        add(&self.sig_overwritten, stats.sig_overwritten);
        add(&self.value_resolved, stats.value_resolved);
        add(&self.vis_replicated, stats.vis_replicated);
        add(&self.batch_members, stats.resolved());
        add(&self.split_offs, stats.live);
        add(&self.batch_untraceable, stats.opaque);
        add(&self.batch_vis_admitted, stats.vis_resolved());
    }

    fn arena_restored(&self, copied_words: usize, full_clone: bool) {
        if full_clone {
            self.arena_full_clones.fetch_add(1, Ordering::Relaxed);
        } else {
            self.arena_restores.fetch_add(1, Ordering::Relaxed);
            self.arena_dirty_words
                .fetch_add(copied_words, Ordering::Relaxed);
        }
    }

    fn experiment_executed(&self, _index: usize, instructions: u64, block_instructions: u64) {
        self.sim_instructions
            .fetch_add(instructions as usize, Ordering::Relaxed);
        self.block_instructions
            .fetch_add(block_instructions as usize, Ordering::Relaxed);
    }

    fn experiment_classified(&self, _index: usize, record: &ExperimentRecord) {
        match record.provenance {
            crate::experiment::Provenance::Simulated => {}
            crate::experiment::Provenance::Analytic => {
                self.analytic.fetch_add(1, Ordering::Relaxed);
            }
            crate::experiment::Provenance::Replicated => {
                self.replicated.fetch_add(1, Ordering::Relaxed);
            }
        }
        match record.outcome {
            Outcome::Detected(_) => &self.detected,
            Outcome::Hang => &self.hangs,
            Outcome::ValueFailure(s) if s.is_severe() => &self.severe,
            Outcome::ValueFailure(_) => &self.minor,
            Outcome::Latent => &self.latent,
            Outcome::Overwritten => &self.overwritten,
            Outcome::HarnessFailure(_) => &self.harness_failures,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut rate) = self.rate.lock() {
            let now = Instant::now();
            let dt = now.duration_since(rate.last_completion).as_secs_f64();
            rate.last_completion = now;
            if dt > 0.0 {
                rate.per_second.update(1.0 / dt);
            }
        }
    }

    fn experiment_retried(&self, _index: usize, _cause: HarnessCause) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time view of a campaign's [`Telemetry`]. Serializable so a
/// campaign can persist its final snapshot as a machine-readable side
/// artifact for the offline `report` bin.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
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
    /// Experiments that fast-forwarded past at least one checkpoint.
    pub fast_forwarded: usize,
    /// Records classified analytically from the golden access trace (no
    /// simulation executed).
    pub analytic: usize,
    /// Records replicated from a def/use equivalence-class representative.
    pub replicated: usize,
    /// Faults the fate resolver settled or placed from the golden traces
    /// (every fate but opaque).
    pub batch_members: usize,
    /// Of those, the live faults: class representatives resume from their
    /// live instant, members replicate.
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
    /// Live faults merged into a class via a visibility window.
    pub vis_replicated: usize,
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
}

impl TelemetrySnapshot {
    /// `completed + preloaded`: faults with a final record.
    #[must_use]
    pub fn done(&self) -> usize {
        self.completed + self.preloaded
    }

    /// Fraction of simulated experiments that fast-forwarded from a
    /// golden checkpoint beyond iteration 0 (analytic and replicated
    /// records never touch the simulator, so they are excluded).
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
    /// process (`completed` minus the analytic and replicated records).
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.completed
            .saturating_sub(self.analytic)
            .saturating_sub(self.replicated)
    }

    /// Fraction of this process's records that skipped simulation
    /// entirely (analytic plus replicated) — the def/use pruning rate.
    #[must_use]
    pub fn defuse_prune_rate(&self) -> f64 {
        (self.analytic + self.replicated) as f64 / (self.completed.max(1)) as f64
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
    /// finishing worker's `preloaded` tally.
    ///
    /// Planning counters (`vis_latent`, `vis_overwritten`,
    /// `sig_overwritten`, `value_resolved`, `vis_replicated` and the
    /// resolver's `batch_members`, `split_offs`, `batch_untraceable`,
    /// `batch_vis_admitted`) are **not** summed: every worker plans the
    /// same full fault list deterministically, so each shard's counters
    /// already equal the exact global counts and the merge takes the
    /// maximum instead (shards that resumed fully-preloaded report
    /// zeros). `plan_micros` stays a sum —
    /// it measures real aggregate planning CPU, which every worker spends.
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
        self.fast_forwarded += other.fast_forwarded;
        self.analytic += other.analytic;
        self.replicated += other.replicated;
        self.plan_micros += other.plan_micros;
        self.vis_latent = self.vis_latent.max(other.vis_latent);
        self.vis_overwritten = self.vis_overwritten.max(other.vis_overwritten);
        self.sig_overwritten = self.sig_overwritten.max(other.sig_overwritten);
        self.value_resolved = self.value_resolved.max(other.value_resolved);
        self.vis_replicated = self.vis_replicated.max(other.vis_replicated);
        self.batch_members = self.batch_members.max(other.batch_members);
        self.split_offs = self.split_offs.max(other.split_offs);
        self.batch_untraceable = self.batch_untraceable.max(other.batch_untraceable);
        self.batch_vis_admitted = self.batch_vis_admitted.max(other.batch_vis_admitted);
        self.sim_instructions += other.sim_instructions;
        self.block_instructions += other.block_instructions;
        self.arena_restores += other.arena_restores;
        self.arena_dirty_words += other.arena_dirty_words;
        self.arena_full_clones += other.arena_full_clones;
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = 100.0 * self.done() as f64 / self.total.max(1) as f64;
        write!(f, "{}/{} ({pct:.1}%)", self.done(), self.total)?;
        let rate = self.smoothed_throughput.unwrap_or(self.throughput);
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
            " | ff {:.0}% prune {:.0}%",
            100.0 * self.checkpoint_hit_rate(),
            100.0 * self.prune_rate()
        )?;
        if self.analytic > 0 || self.replicated > 0 {
            write!(
                f,
                " | sim {} an {} rep {}",
                self.simulated(),
                self.analytic,
                self.replicated
            )?;
        }
        if self.batch_members > 0 {
            write!(
                f,
                " | fate resolved {} live {:.0}%",
                self.batch_members,
                100.0 * self.split_off_rate()
            )?;
        }
        if self.vis_analytic() > 0 || self.vis_replicated > 0 || self.batch_vis_admitted > 0 {
            write!(
                f,
                " | vis lat {} ovw {} sig {} val {} rep {} adm {} opq {}",
                self.vis_latent,
                self.vis_overwritten,
                self.sig_overwritten,
                self.value_resolved,
                self.vis_replicated,
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
    use crate::workload::Workload;

    #[test]
    fn telemetry_counts_partition_the_campaign() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(40, 11);
        let telemetry = Telemetry::new(40);
        let result = run_scifi_campaign_observed(&w, &cfg, &telemetry);
        let snap = telemetry.snapshot();
        assert_eq!(snap.completed, 40);
        assert_eq!(snap.done(), 40);
        assert_eq!(
            snap.detected
                + snap.hangs
                + snap.severe
                + snap.minor
                + snap.latent
                + snap.overwritten
                + snap.harness_failures,
            40,
            "every record lands in exactly one telemetry bucket"
        );
        assert_eq!(snap.harness_failures, 0, "healthy campaign: no quarantine");
        assert_eq!(snap.retried, 0, "healthy campaign: no retries");
        let pruned = result
            .records
            .iter()
            .filter(|r| r.pruned_at.is_some())
            .count();
        assert_eq!(snap.pruned, pruned);
        assert!(snap.throughput > 0.0);
        assert!(snap.eta_seconds.is_some());
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
        assert_eq!(snap.simulated() + snap.analytic + snap.replicated, 40);
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
                Provenance::Simulated | Provenance::Replicated => {}
            }
        }
        let analytic = result
            .records
            .iter()
            .filter(|r| r.provenance == crate::experiment::Provenance::Analytic)
            .count();
        let replicated = result
            .records
            .iter()
            .filter(|r| r.provenance == crate::experiment::Provenance::Replicated)
            .count();
        assert_eq!(snap.analytic, analytic);
        assert_eq!(snap.replicated, replicated);
    }
}
