//! Single fault-injection experiments: golden reference execution and the
//! inject–run–classify cycle.

use crate::classify::{Classifier, Outcome};
use crate::observer::{CampaignObserver, NullObserver};
use crate::recall::{Tail, TrajectoryMemo, RECALL_EVERY};
use crate::steady::IntervalClasses;
use crate::workload::Workload;
use bera_plant::closed_loop::sample_instant;
use bera_plant::{Engine, Environment, Profiles};
use bera_tcpu::access::AccessTrace;
use bera_tcpu::machine::{Machine, RunExit, PORT_R, PORT_U, PORT_Y};
use bera_tcpu::scan::{self, BitLocation, CpuPart};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The closed-loop configuration an experiment runs under.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Number of control iterations (650 in the paper: 10 s at 15.4 ms).
    pub iterations: usize,
    /// Sample interval in seconds.
    pub sample_interval: f64,
    /// Input profiles (reference speed and load torque).
    pub profiles: Profiles,
    /// Initial engine (plant) state.
    pub engine: Engine,
    /// Run the target with a parity-protected data cache (the hardware
    /// alternative of Section 4.3; used by the ablation study).
    pub parity_cache: bool,
    /// Capture a golden-run checkpoint every this many iterations. Each
    /// experiment then fast-forwards by cloning the nearest checkpoint at
    /// or before its injection point, and prunes its tail once the faulty
    /// state provably rejoins the golden trajectory. `0` disables both:
    /// every experiment replays from reset. Outcomes are bit-identical
    /// either way; the stride only trades checkpoint memory for campaign
    /// speed.
    pub checkpoint_stride: usize,
    /// Execute experiments through the predecoded fast-replay block engine
    /// (see `Machine::set_fast_replay` and DESIGN.md §8j). Outcomes are
    /// bit-identical with it on or off — the block engine falls back to the
    /// scalar step on any state a scan flip or ROM change could have
    /// perturbed — so this switch exists for the equivalence suite and for
    /// perf A/B runs, not for correctness.
    pub fast_replay: bool,
}

impl LoopConfig {
    /// The paper's configuration: 650 iterations of 15.4 ms against the
    /// paper's engine and profiles.
    #[must_use]
    pub fn paper() -> Self {
        LoopConfig {
            iterations: 650,
            sample_interval: 0.0154,
            profiles: Profiles::paper(),
            engine: Engine::paper(),
            parity_cache: false,
            checkpoint_stride: 4,
            fast_replay: true,
        }
    }

    /// A reduced-length configuration for fast tests.
    #[must_use]
    pub fn short(iterations: usize) -> Self {
        LoopConfig {
            iterations,
            ..LoopConfig::paper()
        }
    }
}

/// The fault model of a campaign (GOOFI's set-up phase selects it).
///
/// The paper's headline numbers use [`FaultModel::SingleBit`] transients;
/// the remaining models probe how the assertion/recovery conclusions shift
/// under richer fault behaviour (multi-cell upsets, marginal cells that
/// re-assert, hard stuck-at defects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FaultModel {
    /// A single bit-flip — the paper's model for CPU transients.
    #[default]
    SingleBit,
    /// A multi-cell upset: two *adjacent* scan-chain bits flip together,
    /// as caused by one particle striking neighbouring cells. This is the
    /// model under which the placement of Algorithm II's backups in a
    /// separate cache line matters.
    AdjacentDoubleBit,
    /// An intermittent fault: the bit flips at injection and the *same*
    /// flip re-asserts at the next `reassert_iterations` control-iteration
    /// boundaries (a marginal cell that keeps glitching before going
    /// quiet). A run cannot be convergence-pruned until the last
    /// re-assertion has been delivered.
    Intermittent {
        /// How many iteration boundaries after injection re-flip the bit.
        reassert_iterations: usize,
    },
    /// A stuck-at hard fault: the bit is forced to `value` at injection and
    /// re-forced at every subsequent iteration boundary through the scan
    /// interface, so no target write can durably clear it. Stuck-at runs
    /// are never convergence-pruned — the fault remains assertable to the
    /// end of the run.
    StuckAt {
        /// The level the bit is stuck at (`false` = stuck-at-0).
        value: bool,
    },
    /// A burst upset: a contiguous cluster of scan-chain bits flips
    /// together. The cluster width varies per sampled location,
    /// deterministically, between 1 and `width` bits (clamped to the
    /// catalog size).
    Burst {
        /// Maximum cluster width in bits.
        width: usize,
    },
}

/// One sampled fault: a scan-chain bit and an injection time, expressed as
/// a dynamic-instruction index ("the point in time when a machine
/// instruction is to be executed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Index into [`bera_tcpu::scan::catalog`].
    pub location_index: usize,
    /// Dynamic instruction count at which the bit is flipped.
    pub inject_at: u64,
}

impl FaultModel {
    /// The scan-catalog indices this model perturbs for a sampled location.
    #[must_use]
    pub fn locations(&self, location_index: usize) -> Vec<usize> {
        self.cluster(location_index, scan::catalog().len())
    }

    /// The indices (mod `n`) this model perturbs for a sampled index, over
    /// a state population of `n` bits — shared by SCIFI (`n` = scan-catalog
    /// length) and SWIFI (`n` = 64 bits of an `f64` state variable). The
    /// result is always non-empty, in-range and free of duplicates;
    /// clusters wider than the population are clamped to it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — there is no state to perturb.
    #[must_use]
    pub fn cluster(&self, index: usize, n: usize) -> Vec<usize> {
        assert!(n > 0, "cannot sample a fault from an empty population");
        match *self {
            FaultModel::SingleBit
            | FaultModel::Intermittent { .. }
            | FaultModel::StuckAt { .. } => vec![index % n],
            FaultModel::AdjacentDoubleBit => {
                if n == 1 {
                    vec![0]
                } else {
                    vec![index % n, (index + 1) % n]
                }
            }
            FaultModel::Burst { width } => {
                let max = width.clamp(1, n);
                // Derive this cluster's width from the location itself, so
                // one campaign deterministically exercises the whole
                // 1..=width range. A contiguous run of fewer than `n`
                // indices mod `n` cannot repeat, so no dedup pass is
                // needed.
                let mut h = bera_tcpu::Fnv64::new();
                h.write_u64(index as u64);
                let w = 1 + (h.finish() as usize) % max;
                (0..w).map(|i| (index + i) % n).collect()
            }
        }
    }

    /// How many iteration boundaries after injection the fault re-asserts
    /// at; `usize::MAX` for a stuck-at fault (every boundary to the end of
    /// the run), zero for the one-shot transient models.
    #[must_use]
    pub fn reassert_budget(&self) -> usize {
        match self {
            FaultModel::Intermittent {
                reassert_iterations,
            } => *reassert_iterations,
            FaultModel::StuckAt { .. } => usize::MAX,
            _ => 0,
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModel::SingleBit => f.write_str("single"),
            FaultModel::AdjacentDoubleBit => f.write_str("double"),
            FaultModel::Intermittent {
                reassert_iterations,
            } => write!(f, "intermittent:{reassert_iterations}"),
            FaultModel::StuckAt { value } => write!(f, "stuck{}", u8::from(*value)),
            FaultModel::Burst { width } => write!(f, "burst:{width}"),
        }
    }
}

impl std::str::FromStr for FaultModel {
    type Err = String;

    /// Parses the CLI spellings: `single`, `double`, `intermittent:N`,
    /// `stuck0`, `stuck1`, `burst:W`. The spellings round-trip through
    /// [`FaultModel`]'s `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let number = |name: &str, v: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|e| format!("{name} expects a number, got `{v}`: {e}"))
        };
        match s {
            "single" => Ok(FaultModel::SingleBit),
            "double" => Ok(FaultModel::AdjacentDoubleBit),
            "stuck0" => Ok(FaultModel::StuckAt { value: false }),
            "stuck1" => Ok(FaultModel::StuckAt { value: true }),
            _ => {
                if let Some(v) = s.strip_prefix("intermittent:") {
                    Ok(FaultModel::Intermittent {
                        reassert_iterations: number("intermittent:N", v)?,
                    })
                } else if let Some(v) = s.strip_prefix("burst:") {
                    let width = number("burst:W", v)?;
                    if width == 0 {
                        return Err("burst:W requires a width of at least 1".to_string());
                    }
                    Ok(FaultModel::Burst { width })
                } else {
                    Err(format!(
                        "unknown fault model `{s}` (expected single, double, \
                         intermittent:N, stuck0, stuck1 or burst:W)"
                    ))
                }
            }
        }
    }
}

/// The fault-free reference execution logged before a campaign
/// (GOOFI's fault injection phase starts with exactly this run).
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Controller output bit patterns, one per iteration.
    pub outputs: Vec<u32>,
    /// Plant speed trajectory (rpm), one sample per iteration.
    pub speeds: Vec<f64>,
    /// Total dynamic instructions executed.
    pub total_instructions: u64,
    /// The machine at the end of the run (the latent test compares
    /// against its scan-chain bits and memory).
    pub end_machine: Machine,
    /// Periodic snapshots of the whole loop (see [`Checkpoint`]); one per
    /// [`LoopConfig::checkpoint_stride`] iterations, starting at iteration
    /// 0. Empty when checkpointing is disabled.
    pub checkpoints: Vec<Checkpoint>,
    /// Per-unit access trace recorded while the run executed (see
    /// [`bera_tcpu::access`]): for every traceable state unit — def/use
    /// state and the state asynchronous observers (pipeline fetch,
    /// branch-condition check, cache hit check, EDM sample) consult — the
    /// ordered dynamic-instruction indices of its reads and full-width
    /// writes, plus the operand-latch shift instants. Drives the campaign
    /// planner's fate resolver ([`crate::planner`]). Deterministic for a
    /// given workload and loop configuration, like everything else in the
    /// golden run.
    pub trace: AccessTrace,
    /// Process-unique token identifying this golden run to the per-worker
    /// machine arenas (DESIGN.md §8j). A worker's resident machine is only
    /// delta-restored when its token matches; otherwise the arena falls
    /// back to a full checkpoint clone. The supervisor's retry runs from
    /// reset, so it never reaches the arena at all.
    pub arena_token: u64,
    /// For each pair of consecutive checkpoints, the dense data-memory
    /// word keys (see `Memory::data_diff_keys`) at which the two images
    /// differ: `ckpt_data_deltas[j]` covers `checkpoints[j]` →
    /// `checkpoints[j + 1]`. Lets the arena restore a machine across
    /// checkpoints by copying only words the golden run itself touched,
    /// and lets `drive_from`'s convergence check compare memory sparsely.
    pub ckpt_data_deltas: Vec<Vec<u32>>,
    /// Per unit of the trace, its class in each checkpoint interval, for
    /// diff replay's steady-delta jump ([`crate::steady`]).
    pub(crate) classes: IntervalClasses,
}

impl GoldenRun {
    /// The last checkpoint whose instruction count does not exceed
    /// `inject_at` — the state an experiment may legally resume from, since
    /// the fault-free prefix up to the injection point is bit-identical to
    /// the golden run.
    #[must_use]
    pub fn checkpoint_before(&self, inject_at: u64) -> Option<&Checkpoint> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.machine.instr_count() <= inject_at)
    }

    /// Index of [`GoldenRun::checkpoint_before`]'s result within
    /// `checkpoints`, for arena bookkeeping.
    #[must_use]
    pub fn checkpoint_index_before(&self, inject_at: u64) -> Option<usize> {
        self.checkpoints
            .iter()
            .rposition(|c| c.machine.instr_count() <= inject_at)
    }

    /// Digest identifying this golden run across processes: outputs,
    /// speeds, instruction count and end-of-run machine state. Two golden
    /// runs of the same workload and loop configuration always agree
    /// (execution is deterministic); any difference in workload, iteration
    /// count, profiles or plant shows up here. The checkpoint stride is
    /// deliberately excluded — it does not perturb the run (proven by
    /// `tests/checkpoint_equivalence.rs`), so result stores written under
    /// one stride may be resumed under another.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = bera_tcpu::Fnv64::new();
        h.write_u32_slice(&self.outputs);
        for &s in &self.speeds {
            h.write_u64(s.to_bits());
        }
        h.write_u64(self.total_instructions);
        h.write_u64(self.end_machine.state_digest());
        h.finish()
    }
}

/// A snapshot of the whole closed loop at the start of one control
/// iteration: machine (input ports already loaded for that iteration)
/// and plant.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Machine state, with [`set_ports`] for iteration `k` already applied.
    pub machine: Machine,
    /// The plant at iteration `k`, after `k` control intervals: when this
    /// state is live, the golden run has logged `outputs[..k]` and
    /// `speeds[..=k]`.
    pub env: Environment,
}

/// How an [`ExperimentRecord`]'s classification was obtained. Provenance
/// metadata only: a record's semantic fields (outcome, deviations,
/// latency, outputs) are identical whichever path produced them — that is
/// the contract `tests/prune_equivalence.rs` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Provenance {
    /// The fault was injected into the simulator and the run executed.
    #[default]
    Simulated,
    /// Classified from the golden access trace alone (the first
    /// post-injection access to the faulted unit was a full-width write,
    /// or the unit was never accessed again); no faulty run was executed.
    Analytic,
    /// Copied from another simulated fault on the same bit that went live
    /// at the same instant, with the detection latency re-based to this
    /// fault's injection time. Earlier builds wrote it; stores holding it
    /// still load, but no campaign produces it now.
    Replicated,
}

impl Provenance {
    /// Stable lower-case label (`simulated` / `analytic` / `replicated`)
    /// for telemetry and machine-readable artifacts.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Provenance::Simulated => "simulated",
            Provenance::Analytic => "analytic",
            Provenance::Replicated => "replicated",
        }
    }
}

/// The record of one completed experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Which part of the CPU the fault hit (table column).
    pub part: CpuPart,
    /// The concrete state element hit.
    pub location: BitLocation,
    /// Final classification.
    pub outcome: Outcome,
    /// Largest absolute output deviation (degrees) over the run; 0 when the
    /// run trapped before completing.
    pub max_deviation: f64,
    /// First iteration whose output deviated by more than the threshold
    /// (`None` when no iteration did).
    pub first_strong_iteration: Option<usize>,
    /// Instructions from injection to detection (`None` unless detected) —
    /// the error-detection latency.
    pub detection_latency: Option<u64>,
    /// Full output sequence (bit patterns); populated only in detail mode.
    pub outputs: Option<Vec<u32>>,
    /// Iteration at which convergence pruning ended the run early, the
    /// golden tail being provably identical (`None` when the run executed
    /// to its natural termination). Metadata only: the classification is
    /// unaffected by pruning.
    pub pruned_at: Option<usize>,
    /// How this classification was obtained: simulated directly or
    /// derived analytically from the golden access trace (stores of
    /// earlier builds may also hold replicated records). Metadata only
    /// (see [`Provenance`]).
    pub provenance: Provenance,
    /// Human-readable detail when `outcome` is
    /// [`Outcome::HarnessFailure`]: the caught panic payload or the
    /// watchdog deadline description. `None` for every target outcome.
    pub harness_error: Option<String>,
}

/// How a closed-loop drive ended.
pub(crate) enum DriveEnd {
    /// All iterations ran. `latent` is known when diff replay carried the
    /// run to its end; otherwise the caller reads it off the machine.
    Completed {
        latent: Option<bool>,
    },
    Trapped(bera_tcpu::edm::Trap),
    Hang,
    /// The faulty state provably rejoined the golden trajectory at the
    /// start of this iteration; the remaining iterations were not executed
    /// because they would replay the golden tail bit-for-bit.
    Converged {
        iteration: usize,
    },
    /// The wall-clock watchdog deadline expired at an iteration boundary —
    /// a harness abort, not a target outcome.
    DeadlineExceeded,
    /// The state at the start of this iteration equals one an earlier run
    /// passed through (see [`crate::recall`]); the run ends as that one
    /// did, after golden's outputs up to its end.
    Recalled {
        iteration: usize,
        tail: Tail,
    },
    /// At golden checkpoint `checkpoint`'s boundary, `offset` instructions
    /// after golden reached it, the state differs from golden's by `diff`,
    /// which diff replay can carry on (see [`crate::replay`]).
    Reenter {
        checkpoint: usize,
        diff: Vec<(u32, u32)>,
        offset: i64,
    },
}

/// How a classified run's trajectory ended: what classification needs
/// from a drive, and what the trajectory memo files.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ending {
    /// All iterations ran. `latent`: the end state differs from golden's.
    /// It is computed only where some reader can see it — when the outputs
    /// from the start, or from a boundary the memo files, equal golden's —
    /// and is `false` otherwise.
    Completed {
        latent: bool,
    },
    Trapped(bera_tcpu::edm::Trap),
    Hang,
    /// The state rejoined golden's at the start of this iteration.
    Converged {
        iteration: usize,
    },
}

/// Applies a [`FaultModel`] to a running machine: the initial scan-chain
/// perturbation once the dynamic instruction count reaches the injection
/// point, plus any re-assertions at later iteration boundaries
/// (intermittent and stuck-at models).
pub(crate) struct FaultInjector {
    inject_at: u64,
    locations: Vec<BitLocation>,
    kind: InjectKind,
    injected: bool,
}

enum InjectKind {
    /// One-shot flip at injection (single-bit, double-bit, burst).
    Flip,
    /// Re-flip at the next `remaining` iteration boundaries after
    /// injection.
    Reassert { remaining: usize },
    /// Force the bit(s) to `value` at injection and at every iteration
    /// boundary after it.
    Stuck { value: bool },
    /// Deposit the faulty state diff replay carried to this instant (see
    /// [`crate::replay`]): the flips were delivered long before.
    Diff(Vec<(u32, u32)>),
}

impl FaultInjector {
    pub(crate) fn new(model: FaultModel, fault: FaultSpec) -> Self {
        let locations = model
            .locations(fault.location_index)
            .into_iter()
            .map(|i| scan::catalog()[i])
            .collect();
        let kind = match model {
            FaultModel::Intermittent {
                reassert_iterations,
            } => InjectKind::Reassert {
                remaining: reassert_iterations,
            },
            FaultModel::StuckAt { value } => InjectKind::Stuck { value },
            FaultModel::SingleBit | FaultModel::AdjacentDoubleBit | FaultModel::Burst { .. } => {
                InjectKind::Flip
            }
        };
        FaultInjector {
            inject_at: fault.inject_at,
            locations,
            kind,
            injected: false,
        }
    }

    /// An injector that, at instant `at`, replaces the golden state with
    /// golden's plus `diff`, in [`Machine::sparse_diff`]'s position space.
    pub(crate) fn diff(at: u64, diff: Vec<(u32, u32)>) -> Self {
        FaultInjector {
            inject_at: at,
            locations: Vec::new(),
            kind: InjectKind::Diff(diff),
            injected: false,
        }
    }

    /// Where the current `run_until` must stop: the injection point while
    /// the fault is pending, the hang cap afterwards.
    fn stop_at(&self, instr_cap: u64) -> u64 {
        if self.injected {
            instr_cap
        } else {
            self.inject_at.min(instr_cap)
        }
    }

    /// Delivers the initial perturbation.
    fn inject(&mut self, machine: &mut Machine) {
        match &self.kind {
            &InjectKind::Stuck { value } => {
                for &loc in &self.locations {
                    machine.scan_set(loc, value);
                }
            }
            InjectKind::Diff(diff) => machine.apply_diff(diff),
            InjectKind::Flip | InjectKind::Reassert { .. } => {
                for &loc in &self.locations {
                    machine.scan_flip(loc);
                }
            }
        }
        self.injected = true;
    }

    /// Called at every iteration boundary: re-asserts the fault if the
    /// model still has re-assertions pending. Keyed on the iteration index
    /// only, so the schedule is identical under from-reset replay and
    /// checkpoint fast-forward.
    fn at_boundary(&mut self, machine: &mut Machine) {
        if !self.injected {
            return;
        }
        match &mut self.kind {
            InjectKind::Flip | InjectKind::Diff(_) => {}
            InjectKind::Reassert { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    for &loc in &self.locations {
                        machine.scan_flip(loc);
                    }
                }
            }
            InjectKind::Stuck { value } => {
                let value = *value;
                for &loc in &self.locations {
                    machine.scan_set(loc, value);
                }
            }
        }
    }

    /// `true` once the fault has been delivered in full and can never
    /// perturb the machine again — the precondition for convergence
    /// pruning. Stuck-at faults are never quiescent.
    fn quiescent(&self) -> bool {
        self.injected
            && match self.kind {
                InjectKind::Flip | InjectKind::Diff(_) => true,
                InjectKind::Reassert { remaining } => remaining == 0,
                InjectKind::Stuck { .. } => false,
            }
    }
}

pub(crate) struct DriveResult {
    pub(crate) outputs: Vec<u32>,
    pub(crate) end: DriveEnd,
    /// Instructions the interpreter executed.
    pub(crate) executed: u64,
    /// Under [`DriveMode::Prune`], the golden checkpoint the machine's
    /// dirty-word log is now relative to.
    pub(crate) resident: Option<usize>,
}

/// What [`drive_from`] does at checkpoint-stride iteration boundaries.
pub(crate) enum DriveMode<'a> {
    /// Plain closed-loop drive: no capture, no convergence pruning.
    Plain,
    /// Golden run: log the plant speed at the start of every iteration
    /// after the first, and capture a [`Checkpoint`] at every stride
    /// boundary.
    Capture {
        checkpoints: &'a mut Vec<Checkpoint>,
        speeds: &'a mut Vec<f64>,
    },
    /// Experiment: at each golden checkpoint's boundary, once the fault is
    /// quiescent and while the plant or the machine equals golden's, take
    /// the machine's sparse diff against the checkpoint and go on as
    /// [`end_at_checkpoint`] decides, with `recall` as the memo and
    /// `reenter` as its permission to re-enter. `resident` is the
    /// checkpoint the machine's dirty-word log was started from; the run's
    /// instruction count is the machine's plus `offset` (non-zero once the
    /// machine was restored from a golden checkpoint the run reached off
    /// golden's count). Plant-only stretches are reported to `observer`
    /// as run `index`'s.
    Prune {
        golden: &'a GoldenRun,
        resident: usize,
        offset: i64,
        recall: &'a mut TrajectoryMemo,
        reenter: bool,
        observer: &'a dyn CampaignObserver,
        index: usize,
    },
}

/// Worst-case dynamic instructions one control iteration may execute; used
/// to budget the golden run's hang cap before the true per-run instruction
/// count is known. The workloads execute a few hundred instructions per
/// iteration, so this is a generous bound.
const WORST_CASE_ITERATION_INSTRUCTIONS: u64 = 10_000;

/// Hang-detection instruction cap for a run expected to execute
/// `expected_instructions`: 100% headroom for fault-induced detours plus a
/// fixed allowance so very short runs are not capped too tightly. The
/// golden run and every experiment derive their caps from this one helper
/// (they previously used two different formulas, which made hang
/// classification depend on which path computed the cap).
#[must_use]
pub fn instruction_cap(expected_instructions: u64) -> u64 {
    expected_instructions * 2 + 20_000
}

/// The port map: loads iteration `k`'s inputs into the machine, the
/// reference at [`sample_instant`]`(k)` into `PORT_R` and the plant speed
/// `y` (rpm) into `PORT_Y`, each quantised to the `f32` the port holds.
pub fn set_ports(machine: &mut Machine, cfg: &LoopConfig, k: usize, y: f64) {
    let r = cfg
        .profiles
        .reference(sample_instant(k, cfg.sample_interval));
    machine.set_port_f32(PORT_R, r as f32);
    machine.set_port_f32(PORT_Y, y as f32);
}

/// Starts the closed loop on `machine`: the plant in `cfg`'s initial
/// state at iteration 0, with that iteration's inputs in the ports.
pub fn start_loop(machine: &mut Machine, cfg: &LoopConfig) -> Environment {
    let env = Environment::new(cfg.engine.clone());
    set_ports(machine, cfg, 0, env.engine().speed_rpm());
    env
}

/// The host's side of a `yield`, which ends iteration `env`'s `k`: reads
/// u_lim from `PORT_U`, records that read in the golden trace (a no-op on
/// a machine that is not tracing), steps the plant under the command and
/// loads iteration `k + 1`'s ports, unless `k` was the last. Returns the
/// u_lim the harness read.
pub fn exchange(machine: &mut Machine, cfg: &LoopConfig, env: &mut Environment) -> f32 {
    machine.trace_harness_port_read(PORT_U);
    let u = machine.port_out_f32(PORT_U);
    env.step(f64::from(u), &cfg.profiles, cfg.sample_interval);
    if env.iteration() < cfg.iterations {
        set_ports(machine, cfg, env.iteration(), env.engine().speed_rpm());
    }
    u
}

/// A run at golden checkpoint `c`'s boundary, with its fault quiescent:
/// what [`end_at_checkpoint`] decides on.
pub(crate) struct AtCheckpoint<'a> {
    pub(crate) c: usize,
    /// The machine's sparse diff against the checkpoint's
    /// ([`Machine::sparse_diff`]).
    pub(crate) diff: &'a [(u32, u32)],
    /// The run's dynamic instruction count.
    pub(crate) instr_count: u64,
    /// The run's plant.
    pub(crate) env: &'a Environment,
}

/// How a run goes on from a golden checkpoint's boundary, where
/// [`end_at_checkpoint`] decides anything.
pub(crate) enum Decision {
    /// The drive ends here.
    End(DriveEnd),
    /// The plant-only arm: up to iteration `to` the run does golden's CPU
    /// work under its own plant, which is `env` there. With `end`, the run
    /// ends at `to`; without, it goes on from golden's checkpoint at `to`
    /// with plant `env` and the instruction offset it has here.
    PlantOnly {
        to: usize,
        env: Environment,
        end: Option<DriveEnd>,
    },
}

/// The word the speed port holds while the plant is in `env`.
fn speed_port(env: &Environment) -> u32 {
    (env.engine().speed_rpm() as f32).to_bits()
}

/// The one decision at golden checkpoint `at.c`'s boundary, for a run
/// whose fault is quiescent. The interpreter ([`drive_from`]'s
/// [`DriveMode::Prune`]) and diff replay ([`crate::replay`]) both go on
/// through it. Execution never reads the instruction count, so a run in
/// golden's state `δ` instructions off golden's count (`at.instr_count`
/// against the checkpoint's) follows golden's trajectory with every
/// instant shifted by `δ`; the golden tail from here keeps it within the
/// hang cap `instr_cap` iff `golden.total_instructions + δ` does. In
/// order:
///
/// * **Plant-only** (the plant is not golden's): the diff is empty and the
///   tail keeps the run within the cap. While the plant's speed rounds to
///   golden's `f32`, the run's next iteration is golden's CPU work, so
///   only its plant is stepped, under golden's outputs: to the end of the
///   run (it completes as golden does, not latent), to a checkpoint where
///   the plant equals golden's (converged there), or to the first
///   iteration `m` whose speed port differs. The run then goes on from
///   golden's last checkpoint at or before `m`, later than this one.
/// * **Converged**: the diff is empty and the tail keeps the run within
///   the cap. A from-reset run then replays the golden tail bit for bit;
///   one that the tail would take past the cap executes on, so it hangs
///   where the from-reset run does.
/// * **Recalled**: at every [`RECALL_EVERY`]-th checkpoint, `memo` holds
///   the state under the same checkpoint, offset and diff (DESIGN.md
///   §8k). The run ends as the filed one did; on a miss the memo notes
///   the state as passed.
/// * **Re-enter**: with `reenter`, a state whose diff replay can carry
///   ([`bera_tcpu::diff::carries`]) and whose tail keeps it within the
///   cap goes back to diff replay at offset `δ` (DESIGN.md §8l).
///
/// `None`: the run goes on, with nothing allocated.
pub(crate) fn end_at_checkpoint(
    golden: &GoldenRun,
    cfg: &LoopConfig,
    instr_cap: u64,
    memo: &mut TrajectoryMemo,
    at: &AtCheckpoint<'_>,
    reenter: bool,
) -> Option<Decision> {
    let ckpt = &golden.checkpoints[at.c];
    let iteration = ckpt.env.iteration();
    let offset = i128::from(at.instr_count) - i128::from(ckpt.machine.instr_count());
    let tail_fits = i128::from(golden.total_instructions) + offset <= i128::from(instr_cap);
    if *at.env != ckpt.env {
        return if at.diff.is_empty() && tail_fits {
            plant_only(golden, cfg, at.env)
        } else {
            None
        };
    }
    if at.diff.is_empty() && tail_fits {
        return Some(Decision::End(DriveEnd::Converged { iteration }));
    }
    if at.c.is_multiple_of(RECALL_EVERY) {
        if let Some(tail) = memo.probe(at.diff, at.c, iteration, offset) {
            return Some(Decision::End(DriveEnd::Recalled { iteration, tail }));
        }
    }
    let offset = i64::try_from(offset).ok()?;
    (reenter && tail_fits && bera_tcpu::diff::carries(at.diff)).then(|| {
        Decision::End(DriveEnd::Reenter {
            checkpoint: at.c,
            diff: at.diff.to_vec(),
            offset,
        })
    })
}

/// [`end_at_checkpoint`]'s plant-only arm from plant `env`, the machine
/// being golden's.
fn plant_only(golden: &GoldenRun, cfg: &LoopConfig, env: &Environment) -> Option<Decision> {
    let stride = cfg.checkpoint_stride;
    let mut env = env.clone();
    let mut resume = None;
    loop {
        let u = f32::from_bits(golden.outputs[env.iteration()]);
        env.step(f64::from(u), &cfg.profiles, cfg.sample_interval);
        let k = env.iteration();
        let end = if k == cfg.iterations {
            Some(DriveEnd::Completed {
                latent: Some(false),
            })
        } else if k.is_multiple_of(stride) && env == golden.checkpoints[k / stride].env {
            Some(DriveEnd::Converged { iteration: k })
        } else {
            None
        };
        if end.is_some() {
            return Some(Decision::PlantOnly { to: k, env, end });
        }
        if k.is_multiple_of(stride) {
            resume = Some((k, env.clone()));
        }
        if speed_port(&env) != (golden.speeds[k] as f32).to_bits() {
            return resume.map(|(to, env)| Decision::PlantOnly { to, env, end: None });
        }
    }
}

/// Golden data-memory write keys from a machine's resident checkpoint up
/// to the boundary under test, extended lazily from
/// [`GoldenRun::ckpt_data_deltas`] as a drive advances. Outside these
/// keys and the machine's own dirty set, both memory images still equal
/// the resident checkpoint, so the sparse diff walks only them.
/// The same hot words repeat in window after window, so a membership
/// bitmap (lazily sized to the data-word universe) keeps the key list
/// duplicate-free: the sparse diff then walks each distinct word once and
/// the list stays bounded by the universe instead of growing per window.
struct GoldenDeltas {
    keys: Vec<u32>,
    seen: Vec<u64>,
    /// The next window to absorb.
    cursor: usize,
}

impl GoldenDeltas {
    /// No keys yet, for a machine resident at checkpoint `resident`.
    fn new(resident: usize) -> Self {
        GoldenDeltas {
            keys: Vec::new(),
            seen: Vec::new(),
            cursor: resident,
        }
    }

    /// Absorbs the windows up to checkpoint `c`.
    fn extend_to(&mut self, golden: &GoldenRun, c: usize) {
        while self.cursor < c {
            if let Some(w) = golden.ckpt_data_deltas.get(self.cursor) {
                if self.seen.is_empty() {
                    self.seen = vec![0u64; bera_tcpu::mem::NUM_DATA_WORDS.div_ceil(64)];
                }
                for &key in w {
                    let (slot, bit) = (key as usize / 64, 1u64 << (key % 64));
                    if self.seen[slot] & bit == 0 {
                        self.seen[slot] |= bit;
                        self.keys.push(key);
                    }
                }
            }
            self.cursor += 1;
        }
    }
}

/// Drives the machine in closed loop from the state the caller prepared:
/// `env` in iteration `k`, with `set_ports(k)` already applied, and
/// `outputs` holding the first `k` logged outputs. The machine sits at
/// the start of iteration `k`, or inside it when `mid_iteration` is set
/// (the boundary is then past). Every `yield` is one [`exchange`].
/// `injector` perturbs scan-chain bits when the machine's dynamic
/// instruction count reaches its injection point (and re-asserts at later
/// iteration boundaries for intermittent/stuck-at models); `instr_cap`
/// bounds the run's total instruction count to detect hangs; `deadline` is
/// the wall-clock watchdog, checked at iteration boundaries only so target
/// execution stays deterministic; `mode` selects the checkpoint behaviour
/// at stride boundaries. `on_inject` fires once, at the moment the initial
/// scan-chain perturbation lands (the observer's "fault injected" event).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_from(
    machine: &mut Machine,
    cfg: &LoopConfig,
    mut env: Environment,
    mut outputs: Vec<u32>,
    mut injector: Option<FaultInjector>,
    instr_cap: u64,
    deadline: Option<Instant>,
    mut mode: DriveMode<'_>,
    mid_iteration: bool,
    on_inject: &mut dyn FnMut(),
) -> DriveResult {
    let stride = cfg.checkpoint_stride;
    let mut frame = match &mode {
        DriveMode::Prune {
            resident, offset, ..
        } => Frame::new(machine, Some(*resident), *offset),
        _ => Frame::new(machine, None, 0),
    };
    let mut diff: Vec<(u32, u32)> = Vec::new();
    // Set when execution sits at the start of iteration `k` (function entry
    // and after every completed iteration); cleared once the boundary has
    // been processed so mid-iteration injection resumes don't repeat it.
    let mut at_boundary = !mid_iteration;
    let end = loop {
        // The hang cap in the machine's instruction count.
        let cap = instr_cap.saturating_add_signed(-frame.offset);
        if env.iteration() >= cfg.iterations {
            break DriveEnd::Completed { latent: None };
        }
        if at_boundary {
            let k = env.iteration();
            at_boundary = false;
            // Re-assert the fault first so checkpoint capture/pruning below
            // observes the boundary state a from-reset run would have.
            if let Some(inj) = injector.as_mut() {
                inj.at_boundary(machine);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break DriveEnd::DeadlineExceeded;
            }
            if stride > 0 && k.is_multiple_of(stride) {
                match &mut mode {
                    DriveMode::Plain => {}
                    DriveMode::Capture { checkpoints, .. } => {
                        let (machine, env) = (machine.clone(), env.clone());
                        checkpoints.push(Checkpoint { machine, env });
                    }
                    DriveMode::Prune {
                        golden,
                        recall,
                        reenter,
                        observer,
                        index,
                        ..
                    } => {
                        // A decision needs the fault delivered in full
                        // (before injection the run *is* golden's; while
                        // re-assertions are pending it can diverge again).
                        // Off golden's plant only an empty diff decides
                        // anything, and the short-circuiting state compare
                        // rules out most non-empty ones without building
                        // the diff.
                        let c = k / stride;
                        let quiescent = injector.as_ref().is_some_and(FaultInjector::quiescent);
                        let Some(ckpt) = golden.checkpoints.get(c).filter(|ckpt| {
                            quiescent
                                && (ckpt.env == env
                                    || speed_port(&ckpt.env) == speed_port(&env)
                                        && machine.state_equals(&ckpt.machine))
                        }) else {
                            continue;
                        };
                        frame.deltas.extend_to(golden, c);
                        machine.sparse_diff(&ckpt.machine, &frame.deltas.keys, &mut diff);
                        debug_assert_eq!(
                            diff.is_empty(),
                            machine.state_equals(&ckpt.machine)
                                && machine.state_digest() == ckpt.machine.state_digest(),
                            "the sparse diff, the full walk and the digest must agree"
                        );
                        let count = machine.instr_count().saturating_add_signed(frame.offset);
                        let at = AtCheckpoint {
                            c,
                            diff: &diff,
                            instr_count: count,
                            env: &env,
                        };
                        let Some(decision) =
                            end_at_checkpoint(golden, cfg, instr_cap, recall, &at, *reenter)
                        else {
                            continue;
                        };
                        let (to, there, end) = match decision {
                            Decision::End(end) => break end,
                            Decision::PlantOnly { to, env, end } => (to, env, end),
                        };
                        observer.plant_only(*index, to - k);
                        outputs.extend_from_slice(&golden.outputs[k..to]);
                        // Debug builds interpret the stretch on a copy
                        // and check where the arm takes the run against it.
                        let witness = cfg!(debug_assertions).then(|| {
                            let (m, e) = interpret_golden(machine, &env, cfg, golden, to, cap);
                            (m.instr_count() - machine.instr_count(), m, e)
                        });
                        let reaches = |state: &Machine, plant: &Environment| {
                            witness.as_ref().is_none_or(|(n, m, e)| {
                                m.state_equals(state)
                                    && e == plant
                                    && *n == state.instr_count() - ckpt.machine.instr_count()
                            })
                        };
                        if let Some(end) = end {
                            let golden_at = match end {
                                DriveEnd::Converged { .. } => {
                                    &golden.checkpoints[to / stride].machine
                                }
                                _ => &golden.end_machine,
                            };
                            debug_assert!(
                                reaches(golden_at, &there),
                                "a plant-only stretch does not end in golden's state"
                            );
                            break end;
                        }
                        // Golden's state at `to`, with the run's plant and
                        // instruction offset.
                        let offset = i128::from(count) - i128::from(ckpt.machine.instr_count());
                        let offset = i64::try_from(offset).expect("an instruction offset fits i64");
                        frame.restore(machine, golden, cfg, to / stride, offset);
                        env = there;
                        set_ports(machine, cfg, to, env.engine().speed_rpm());
                        debug_assert!(
                            reaches(machine, &env),
                            "a plant-only stretch restores a state the run does not reach"
                        );
                        // The restored boundary's decision was this one.
                        continue;
                    }
                }
            }
        }
        let stop = injector.as_ref().map_or(cap, |inj| inj.stop_at(cap));
        match machine.run_until(stop) {
            RunExit::Yield => {
                outputs.push(exchange(machine, cfg, &mut env).to_bits());
                if let DriveMode::Capture { speeds, .. } = &mut mode {
                    if env.iteration() < cfg.iterations {
                        speeds.push(env.engine().speed_rpm());
                    }
                }
                at_boundary = true;
            }
            RunExit::Trap(mut trap) => {
                trap.at_instruction = trap.at_instruction.saturating_add_signed(frame.offset);
                break DriveEnd::Trapped(trap);
            }
            RunExit::Budget => match injector.as_mut() {
                Some(inj) if !inj.injected && machine.instr_count() < cap => {
                    inj.inject(machine);
                    on_inject();
                }
                _ => break DriveEnd::Hang,
            },
        }
    };
    DriveResult {
        outputs,
        end,
        executed: frame.executed + machine.instr_count() - frame.restored_at,
        resident: frame.resident,
    }
}

/// Where a drive's machine stands against the golden run: the checkpoint
/// its dirty-word log is relative to and the golden writes since, the
/// run's instruction count as the machine's plus `offset`, and the
/// instructions the machine executed before it was last restored (at
/// count `restored_at`).
struct Frame {
    resident: Option<usize>,
    deltas: GoldenDeltas,
    offset: i64,
    executed: u64,
    restored_at: u64,
}

impl Frame {
    fn new(machine: &Machine, resident: Option<usize>, offset: i64) -> Self {
        Frame {
            resident,
            deltas: GoldenDeltas::new(resident.unwrap_or(0)),
            offset,
            executed: 0,
            restored_at: machine.instr_count(),
        }
    }

    /// Restores `machine` to golden checkpoint `r`, with the run `offset`
    /// instructions off golden's count there.
    fn restore(
        &mut self,
        machine: &mut Machine,
        golden: &GoldenRun,
        cfg: &LoopConfig,
        r: usize,
        offset: i64,
    ) {
        let from = self
            .resident
            .expect("a pruned drive has a resident checkpoint");
        let (lo, hi) = (from.min(r), from.max(r));
        let executed = self.executed + machine.instr_count() - self.restored_at;
        let ckpt = &golden.checkpoints[r].machine;
        machine.restore_delta_from(ckpt, &golden.ckpt_data_deltas[lo..hi]);
        if !cfg.fast_replay {
            machine.set_fast_replay(false);
        }
        *self = Frame {
            executed,
            ..Frame::new(machine, Some(r), offset)
        };
    }
}

/// Debug builds' lockstep check of a plant-only stretch: interprets a copy
/// of `machine`, with plant `env`, up to the start of iteration `to` or
/// the machine count `instr_cap`, demanding golden's output at every
/// iteration; returns the copy and its plant.
fn interpret_golden(
    machine: &Machine,
    env: &Environment,
    cfg: &LoopConfig,
    golden: &GoldenRun,
    to: usize,
    instr_cap: u64,
) -> (Machine, Environment) {
    let (mut m, mut e) = (machine.clone(), env.clone());
    while e.iteration() < to {
        let k = e.iteration();
        assert!(
            matches!(m.run_until(instr_cap), RunExit::Yield),
            "a plant-only stretch skipped an iteration that does not yield"
        );
        assert_eq!(
            exchange(&mut m, cfg, &mut e).to_bits(),
            golden.outputs[k],
            "a plant-only stretch skipped an output that is not golden's"
        );
    }
    (m, e)
}

/// Executes the fault-free reference run and logs the golden state.
///
/// # Panics
///
/// Panics if `cfg` asks for no iterations ([`LoopConfig::iterations`] is
/// 0: there is no run to log), or if the workload traps or hangs without
/// any fault injected — that would be a workload bug, not an experiment
/// outcome.
#[must_use]
pub fn golden_run(workload: &Workload, cfg: &LoopConfig) -> GoldenRun {
    assert!(
        cfg.iterations > 0,
        "LoopConfig::iterations must be at least 1"
    );
    let mut machine = Machine::new();
    machine.load_program(workload.program());
    machine.set_cache_parity(cfg.parity_cache);
    machine.start_access_trace();
    let env = start_loop(&mut machine, cfg);
    let mut speeds = Vec::with_capacity(cfg.iterations);
    speeds.push(env.engine().speed_rpm());
    let cap = instruction_cap(cfg.iterations as u64 * WORST_CASE_ITERATION_INSTRUCTIONS);
    let mut checkpoints = Vec::new();
    let mode = DriveMode::Capture {
        checkpoints: &mut checkpoints,
        speeds: &mut speeds,
    };
    let result = drive_from(
        &mut machine,
        cfg,
        env,
        Vec::with_capacity(cfg.iterations),
        None,
        cap,
        None,
        mode,
        false,
        &mut || {},
    );
    match result.end {
        DriveEnd::Completed { .. } => {}
        DriveEnd::Trapped(t) => panic!("golden run trapped: {t:?}"),
        DriveEnd::Hang => panic!("golden run exceeded the instruction cap"),
        DriveEnd::Converged { .. } | DriveEnd::Recalled { .. } | DriveEnd::Reenter { .. } => {
            unreachable!("golden run never prunes")
        }
        DriveEnd::DeadlineExceeded => unreachable!("golden run has no deadline"),
    }
    let trace = machine
        .take_access_trace()
        .expect("the golden machine was tracing");
    let ckpt_data_deltas = checkpoints
        .windows(2)
        .map(|pair| {
            pair[0]
                .machine
                .memory()
                .data_diff_keys(pair[1].machine.memory())
        })
        .collect();
    GoldenRun {
        outputs: result.outputs,
        speeds,
        total_instructions: machine.instr_count(),
        end_machine: machine,
        checkpoints,
        trace,
        arena_token: NEXT_ARENA_TOKEN.fetch_add(1, Ordering::Relaxed),
        ckpt_data_deltas,
        classes: IntervalClasses::default(),
    }
}

/// Source of [`GoldenRun::arena_token`] values. Starts at 1 so 0 can act as
/// "no golden" in arena slots.
static NEXT_ARENA_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A worker thread's reusable experiment machine (DESIGN.md §8j): the
/// machine left over from the thread's previous experiment, plus where it
/// was left. Checking out restores it to the next experiment's checkpoint
/// by copying only the words either run touched since the two states last
/// coincided, replacing the per-experiment deep clone with an O(touched)
/// delta restore. The slot also keeps the thread's trajectory memo
/// (DESIGN.md §8k), which belongs to the same golden run.
struct ArenaSlot {
    machine: Machine,
    /// [`GoldenRun::arena_token`] of the run the machine and memo belong to.
    token: u64,
    /// Checkpoint index the machine's dirty-word log was started from.
    resident: usize,
    recall: TrajectoryMemo,
}

thread_local! {
    static ARENA: RefCell<Option<ArenaSlot>> = const { RefCell::new(None) };
}

/// Checks a machine out of this worker's arena, positioned exactly at
/// `golden.checkpoints[ckpt_index]` with a fresh dirty-word log, together
/// with the worker's trajectory memo for `golden`. Returns the machine, the
/// memo, the number of data words copied, and whether the arena missed
/// (full checkpoint clone, empty memo). The slot is left empty while the
/// experiment runs: if classification panics, the machine and memo unwind
/// with the stack and the next checkout starts from a clean clone, so a
/// poisoned intermediate state can never leak into a later record.
fn arena_checkout(golden: &GoldenRun, ckpt_index: usize) -> (Machine, TrajectoryMemo, usize, bool) {
    let ckpt = &golden.checkpoints[ckpt_index];
    let slot = ARENA.with(|a| a.borrow_mut().take());
    match slot {
        Some(slot) if slot.token == golden.arena_token => {
            let mut machine = slot.machine;
            // The resident machine's memory differs from the target
            // checkpoint by its own dirty set (logged) plus whatever the
            // golden run wrote between the two checkpoints (precomputed).
            let lo = slot.resident.min(ckpt_index);
            let hi = slot.resident.max(ckpt_index);
            let copied =
                machine.restore_delta_from(&ckpt.machine, &golden.ckpt_data_deltas[lo..hi]);
            (machine, slot.recall, copied, false)
        }
        _ => {
            let mut machine = ckpt.machine.clone();
            machine.begin_dirty_log();
            (machine, TrajectoryMemo::default(), 0, true)
        }
    }
}

/// Returns an experiment's machine and memo to this worker's arena for the
/// next checkout, recording which checkpoint the dirty log is relative to.
fn arena_release(machine: Machine, recall: TrajectoryMemo, golden: &GoldenRun, ckpt_index: usize) {
    ARENA.with(|a| {
        *a.borrow_mut() = Some(ArenaSlot {
            machine,
            token: golden.arena_token,
            resident: ckpt_index,
            recall,
        });
    });
}

/// Runs one fault-injection experiment against a previously logged golden
/// run and classifies the outcome.
///
/// # Panics
///
/// Panics if `fault.location_index` is outside the scan catalog.
#[must_use]
pub fn run_experiment(
    workload: &Workload,
    cfg: &LoopConfig,
    golden: &GoldenRun,
    fault: FaultSpec,
    detail: bool,
) -> ExperimentRecord {
    run_experiment_with_model(workload, cfg, golden, fault, FaultModel::SingleBit, detail)
}

/// Like [`run_experiment`], with an explicit [`FaultModel`].
///
/// # Panics
///
/// Panics if `fault.location_index` is outside the scan catalog.
#[must_use]
pub fn run_experiment_with_model(
    workload: &Workload,
    cfg: &LoopConfig,
    golden: &GoldenRun,
    fault: FaultSpec,
    model: FaultModel,
    detail: bool,
) -> ExperimentRecord {
    run_from(
        workload,
        cfg,
        golden,
        fault,
        model,
        detail,
        0,
        &NullObserver,
        Start::Injection,
        None,
    )
    .expect("no deadline was set")
}

/// Where an experiment's drive starts. Every kind runs the identical
/// inject–run–classify pipeline of [`run_from`] and yields the identical
/// record (up to `pruned_at`, which only [`Start::Reset`] never sets);
/// they differ only in how much of the run they skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Start {
    /// As [`Start::Injection`], but from the injection point on the run is
    /// carried by diff replay ([`crate::replay`]) until its first event
    /// the diff cannot follow. One-shot flip models only; without golden
    /// checkpoints it is [`Start::Injection`].
    Replay,
    /// The nearest golden checkpoint at or before the injection point —
    /// the fault-free prefix is bit-identical to the golden run — or reset
    /// when the golden run has no checkpoints.
    Injection,
    /// From reset, ignoring the checkpoints and never pruning a converged
    /// tail: the supervisor's retry, in case the fast-forward path itself
    /// is implicated.
    Reset,
}

/// The wall-clock watchdog deadline expired before the experiment reached a
/// target outcome. The run is abandoned without classification (and without
/// an `experiment_classified` event) — the supervisor decides whether to
/// retry or quarantine.
#[derive(Debug)]
pub(crate) struct WatchdogExpired;

/// Runs one experiment from `start` and classifies it, reporting each
/// life-cycle stage (restored, started, injected, executed, classified)
/// to `observer`; `index` is the fault-list index carried on every event
/// and does not affect execution. Aborts with
/// [`WatchdogExpired`] if the wall-clock `deadline` passes first. The
/// deadline is checked at iteration boundaries only, so target execution
/// (and hence every classified record) stays bit-deterministic regardless
/// of host timing.
///
/// # Panics
///
/// Panics if `fault.location_index` is outside the scan catalog.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_from(
    workload: &Workload,
    cfg: &LoopConfig,
    golden: &GoldenRun,
    fault: FaultSpec,
    model: FaultModel,
    detail: bool,
    index: usize,
    observer: &dyn CampaignObserver,
    start: Start,
    deadline: Option<Instant>,
) -> Result<ExperimentRecord, WatchdogExpired> {
    let location = scan::catalog()[fault.location_index];
    let cap = instruction_cap(golden.total_instructions);

    // Fast-forward: resume from a golden checkpoint instead of
    // re-executing the fault-free prefix (which is bit-identical to the
    // golden run by determinism). The checkpoint state comes out of this
    // worker's machine arena — a delta restore when the previous
    // experiment ran against the same golden, a full clone otherwise. A
    // run from reset never touches the arena.
    let ckpt_index = match start {
        Start::Replay | Start::Injection => golden.checkpoint_index_before(fault.inject_at),
        Start::Reset => None,
    };
    let (mut machine, mut recall, env, prefix_outputs) = match ckpt_index {
        Some(ci) => {
            let ckpt = &golden.checkpoints[ci];
            let (machine, recall, copied, full_clone) = arena_checkout(golden, ci);
            observer.arena_restored(copied, full_clone);
            // Size the log for the whole drive up front so the per-
            // iteration pushes never reallocate.
            let mut prefix_outputs = Vec::with_capacity(cfg.iterations);
            prefix_outputs.extend_from_slice(&golden.outputs[..ckpt.env.iteration()]);
            (machine, Some(recall), ckpt.env.clone(), prefix_outputs)
        }
        None => {
            let mut machine = Machine::new();
            machine.load_program(workload.program());
            machine.set_cache_parity(cfg.parity_cache);
            let env = start_loop(&mut machine, cfg);
            (machine, None, env, Vec::with_capacity(cfg.iterations))
        }
    };
    if !cfg.fast_replay {
        machine.set_fast_replay(false);
    }
    observer.experiment_started(
        index,
        fault,
        ckpt_index.map(|ci| golden.checkpoints[ci].env.iteration()),
    );

    let start_block_instructions = machine.block_instructions();
    let replay = start == Start::Replay && ckpt_index.is_some();
    let result = match (replay, ckpt_index, recall.as_mut()) {
        (true, Some(ci), Some(memo)) => {
            let run = crate::replay::Run {
                cfg,
                golden,
                fault,
                model,
                index,
                observer,
                cap,
                deadline,
            };
            crate::replay::drive(&run, &mut machine, ci, memo)
        }
        _ => {
            let mode = match (ckpt_index, recall.as_mut()) {
                (Some(resident), Some(recall)) => DriveMode::Prune {
                    golden,
                    resident,
                    offset: 0,
                    recall,
                    reenter: false,
                    observer,
                    index,
                },
                _ => DriveMode::Plain,
            };
            drive_from(
                &mut machine,
                cfg,
                env,
                prefix_outputs,
                Some(FaultInjector::new(model, fault)),
                cap,
                deadline,
                mode,
                false,
                &mut || observer.fault_injected(index, fault),
            )
        }
    };
    observer.experiment_executed(
        index,
        result.executed,
        machine
            .block_instructions()
            .saturating_sub(start_block_instructions),
    );
    let DriveResult {
        mut outputs,
        end,
        resident,
        ..
    } = result;
    let ending = match end {
        DriveEnd::DeadlineExceeded => None,
        DriveEnd::Reenter { .. } => unreachable!("only diff replay hands runs back to itself"),
        DriveEnd::Trapped(trap) => Some(Ending::Trapped(trap)),
        DriveEnd::Hang => Some(Ending::Hang),
        DriveEnd::Converged { iteration } => Some(Ending::Converged { iteration }),
        DriveEnd::Recalled { iteration, tail } => {
            observer.trajectory_recalled(index, iteration);
            outputs.extend_from_slice(&golden.outputs[iteration..tail.outputs]);
            Some(tail.ending)
        }
        DriveEnd::Completed { latent } => {
            // Latent iff any machine or memory state differs from the
            // golden end state.
            let from = crate::recall::golden_from(&outputs, &golden.outputs);
            let seen = from == 0 || recall.as_ref().is_some_and(|m| m.files_from(from));
            let latent = seen
                && latent.unwrap_or_else(|| {
                    machine.scan_diff_count(&golden.end_machine) != 0
                        || !machine.memory().data_equals(golden.end_machine.memory())
                });
            Some(Ending::Completed { latent })
        }
    };
    if let Some(memo) = recall.as_mut() {
        memo.finish(ending.map(|e| (outputs.as_slice(), golden.outputs.as_slice(), e)));
    }
    let record = ending
        .map(|e| classify(e, outputs, golden, fault, location, detail, index, observer))
        .ok_or(WatchdogExpired);
    if let (Some(ci), Some(recall)) = (resident, recall) {
        arena_release(machine, recall, golden, ci);
    }
    record
}

/// `fault`'s run interpreted from injection to its end without pruning:
/// its end state's sparse diff against golden's, or `None` when the run
/// does not complete. The paranoid audit's reference for the end diff of
/// a replay that took the steady-delta jump.
pub(crate) fn interpreted_end_diff(
    cfg: &LoopConfig,
    golden: &GoldenRun,
    fault: FaultSpec,
    model: FaultModel,
) -> Option<Vec<(u32, u32)>> {
    let ckpt = golden.checkpoint_before(fault.inject_at)?;
    let mut machine = ckpt.machine.clone();
    let mut outputs = Vec::with_capacity(cfg.iterations);
    outputs.extend_from_slice(&golden.outputs[..ckpt.env.iteration()]);
    let result = drive_from(
        &mut machine,
        cfg,
        ckpt.env.clone(),
        outputs,
        Some(FaultInjector::new(model, fault)),
        instruction_cap(golden.total_instructions),
        None,
        DriveMode::Plain,
        false,
        &mut || {},
    );
    matches!(result.end, DriveEnd::Completed { .. }).then(|| {
        // A clone keeps no dirty log: the diff sweeps all of memory.
        let mut diff = Vec::new();
        machine.sparse_diff(&golden.end_machine, &[], &mut diff);
        diff
    })
}

/// Classifies a finished run into the final [`ExperimentRecord`] and
/// fires the classified observer event.
#[allow(clippy::too_many_arguments)]
fn classify(
    ending: Ending,
    mut outputs: Vec<u32>,
    golden: &GoldenRun,
    fault: FaultSpec,
    location: BitLocation,
    detail: bool,
    index: usize,
    observer: &dyn CampaignObserver,
) -> ExperimentRecord {
    let classifier = Classifier::paper();
    let mut detection_latency = None;
    let mut pruned_at = None;
    // A run that logged every output is a value failure unless they all
    // equal golden's; otherwise it ends as `settled` says.
    let value_or = |outputs: &[u32], settled: Outcome| {
        let (max_dev, first) = deviation_stats(&golden.outputs, outputs, classifier.threshold);
        match classifier.classify_bits(&golden.outputs, outputs) {
            Some(severity) => (Outcome::ValueFailure(severity), max_dev, first),
            None => (settled, 0.0, None),
        }
    };
    let (outcome, max_deviation, first_strong) = match ending {
        Ending::Trapped(trap) => {
            let latency = trap.at_instruction.saturating_sub(fault.inject_at);
            detection_latency = Some(latency);
            (Outcome::Detected(trap.mechanism), 0.0, None)
        }
        Ending::Hang => (Outcome::Hang, 0.0, None),
        Ending::Completed { latent: true } => value_or(&outputs, Outcome::Latent),
        Ending::Completed { latent: false } => value_or(&outputs, Outcome::Overwritten),
        Ending::Converged { iteration } => {
            // The run provably rejoined the golden trajectory at this
            // boundary: splice the golden tail in place of executing it.
            // The spliced sequence equals what a from-reset run would have
            // produced, so the value-failure classification is unchanged.
            // Convergence proved the machine and plant equal to the golden
            // checkpoint, so the run would end in exactly the golden end
            // state: no latent damage is possible.
            pruned_at = Some(iteration);
            outputs.extend_from_slice(&golden.outputs[iteration..]);
            value_or(&outputs, Outcome::Overwritten)
        }
    };

    let record = ExperimentRecord {
        fault,
        part: location.part(),
        location,
        outcome,
        max_deviation,
        first_strong_iteration: first_strong,
        detection_latency,
        outputs: detail.then_some(outputs),
        pruned_at,
        provenance: Provenance::Simulated,
        harness_error: None,
    };
    observer.experiment_classified(index, &record);
    record
}

fn deviation_stats(golden: &[u32], observed: &[u32], threshold: f64) -> (f64, Option<usize>) {
    let mut max_dev = 0.0f64;
    let mut first = None;
    for (k, (&g, &o)) in golden.iter().zip(observed.iter()).enumerate() {
        let gv = f64::from(f32::from_bits(g));
        let ov = f64::from(f32::from_bits(o));
        let d = if ov.is_finite() {
            (gv - ov).abs()
        } else {
            f64::INFINITY
        };
        if d > max_dev {
            max_dev = d;
        }
        if first.is_none() && d > threshold {
            first = Some(k);
        }
    }
    (max_dev, first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Severity;
    use bera_tcpu::scan::catalog;

    fn find_location(pred: impl Fn(&BitLocation) -> bool) -> usize {
        catalog().iter().position(pred).expect("location exists")
    }

    #[test]
    fn golden_run_completes_and_is_deterministic() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(50);
        let a = golden_run(&w, &cfg);
        let b = golden_run(&w, &cfg);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.total_instructions, b.total_instructions);
        assert_eq!(a.outputs.len(), 50);
        assert_eq!(a.end_machine.scan_diff_count(&b.end_machine), 0);
        assert_eq!(a.trace, b.trace);
        // The one recorder holds def/use events, visibility events and
        // the operand-latch shift instants of the same run.
        use bera_tcpu::{TraceUnit, VisUnit};
        assert!(!a.trace.accesses(TraceUnit::Reg(1)).is_empty());
        assert!(!a.trace.accesses(TraceUnit::Vis(VisUnit::Psr(0))).is_empty());
        assert!(a.trace.nth_shift_at_or_after(0, 0).is_some());
    }

    #[test]
    fn unused_save_register_fault_is_latent() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(30);
        let golden = golden_run(&w, &cfg);
        let loc = find_location(|l| matches!(l, BitLocation::Save { index: 1, bit: 7 }));
        let rec = run_experiment(
            &w,
            &cfg,
            &golden,
            FaultSpec {
                location_index: loc,
                inject_at: golden.total_instructions / 2,
            },
            false,
        );
        assert_eq!(rec.outcome, Outcome::Latent);
    }

    #[test]
    fn x_sign_flip_is_a_value_failure() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(100);
        let golden = golden_run(&w, &cfg);
        // x sits at bytes 0..4 of cache line 0; bit 31 is its sign.
        let loc = find_location(|l| matches!(l, BitLocation::CacheData { line: 0, bit: 31 }));
        let rec = run_experiment(
            &w,
            &cfg,
            &golden,
            FaultSpec {
                location_index: loc,
                inject_at: golden.total_instructions / 2,
            },
            true,
        );
        assert!(
            rec.outcome.is_value_failure(),
            "sign flip of cached x must corrupt the output: {:?}",
            rec.outcome
        );
        assert!(rec.max_deviation > 0.1);
        assert!(rec.outputs.is_some(), "detail mode records outputs");
    }

    #[test]
    fn x_high_exponent_flip_is_severe_under_algorithm_one() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(200);
        let golden = golden_run(&w, &cfg);
        // Bit 29 of the f32 x: a high exponent bit; mid-range value ~20
        // becomes astronomically large -> throttle pinned at 70.
        let loc = find_location(|l| matches!(l, BitLocation::CacheData { line: 0, bit: 29 }));
        let rec = run_experiment(
            &w,
            &cfg,
            &golden,
            FaultSpec {
                location_index: loc,
                inject_at: golden.total_instructions / 2,
            },
            false,
        );
        match rec.outcome {
            Outcome::ValueFailure(s) => assert!(s.is_severe(), "got {s}"),
            other => panic!("expected a severe value failure, got {other:?}"),
        }
    }

    #[test]
    fn same_fault_is_recovered_by_algorithm_two() {
        let w = Workload::algorithm_two();
        let cfg = LoopConfig::short(200);
        let golden = golden_run(&w, &cfg);
        let loc = find_location(|l| matches!(l, BitLocation::CacheData { line: 0, bit: 29 }));
        let rec = run_experiment(
            &w,
            &cfg,
            &golden,
            FaultSpec {
                location_index: loc,
                inject_at: golden.total_instructions / 2,
            },
            false,
        );
        assert!(
            !matches!(rec.outcome, Outcome::ValueFailure(Severity::Permanent)),
            "Algorithm II must prevent permanent failures from huge x: {:?}",
            rec.outcome
        );
        // The assertion catches the corrupted state, so at worst a minor
        // failure remains.
        if let Outcome::ValueFailure(s) = rec.outcome {
            assert!(!s.is_severe(), "recovered fault must be minor, got {s}");
        }
    }

    #[test]
    fn pc_corruption_is_detected() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(30);
        let golden = golden_run(&w, &cfg);
        let loc = find_location(|l| matches!(l, BitLocation::Pc { bit: 20 }));
        let rec = run_experiment(
            &w,
            &cfg,
            &golden,
            FaultSpec {
                location_index: loc,
                inject_at: golden.total_instructions / 3,
            },
            false,
        );
        assert!(
            matches!(rec.outcome, Outcome::Detected(_)),
            "PC high-bit flip must be detected, got {:?}",
            rec.outcome
        );
    }

    #[test]
    fn injection_at_time_zero_and_near_end_work() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(20);
        let golden = golden_run(&w, &cfg);
        let loc = find_location(|l| matches!(l, BitLocation::Reg { index: 9, bit: 0 }));
        for at in [0, golden.total_instructions - 1] {
            let rec = run_experiment(
                &w,
                &cfg,
                &golden,
                FaultSpec {
                    location_index: loc,
                    inject_at: at,
                },
                false,
            );
            // Any classification is fine; the run must just terminate.
            let _ = rec.outcome;
        }
    }

    #[test]
    fn experiments_are_reproducible() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(60);
        let golden = golden_run(&w, &cfg);
        let loc = find_location(|l| matches!(l, BitLocation::CacheData { line: 0, bit: 24 }));
        let f = FaultSpec {
            location_index: loc,
            inject_at: golden.total_instructions / 4,
        };
        let a = run_experiment(&w, &cfg, &golden, f, false);
        let b = run_experiment(&w, &cfg, &golden, f, false);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.max_deviation, b.max_deviation);
    }

    /// A run at a checkpoint of a short golden run: its fresh memo, hang
    /// cap, and a carriable diff (one RAM word of the checkpoint changed).
    struct Boundary {
        cfg: LoopConfig,
        golden: GoldenRun,
        memo: TrajectoryMemo,
        cap: u64,
        c: usize,
        diff: Vec<(u32, u32)>,
    }

    impl Boundary {
        fn new(c: usize) -> Self {
            Boundary::with_iterations(c, 40)
        }

        fn with_iterations(c: usize, iterations: usize) -> Self {
            let cfg = LoopConfig::short(iterations);
            let golden = golden_run(&Workload::algorithm_one(), &cfg);
            let cap = instruction_cap(golden.total_instructions);
            let ckpt = &golden.checkpoints[c].machine;
            let mut faulty = ckpt.clone();
            faulty.begin_dirty_log();
            assert!(faulty.poke_word(bera_tcpu::mem::RAM_BASE + 0x400, 5));
            let mut diff = Vec::new();
            faulty.sparse_diff(ckpt, &[], &mut diff);
            assert!(!diff.is_empty() && bera_tcpu::diff::carries(&diff));
            let memo = TrajectoryMemo::default();
            Boundary {
                cfg,
                golden,
                memo,
                cap,
                c,
                diff,
            }
        }

        /// Golden's instruction count at the checkpoint.
        fn n(&self) -> u64 {
            self.golden.checkpoints[self.c].machine.instr_count()
        }

        /// The golden tail's instructions from the checkpoint.
        fn tail(&self) -> u64 {
            self.golden.total_instructions - self.n()
        }

        /// The decision for a run with `diff`, count `n` and plant `env`.
        fn decide(
            &mut self,
            diff: &[(u32, u32)],
            n: u64,
            env: &Environment,
            reenter: bool,
        ) -> Option<Decision> {
            let at = AtCheckpoint {
                c: self.c,
                diff,
                instr_count: n,
                env,
            };
            end_at_checkpoint(
                &self.golden,
                &self.cfg,
                self.cap,
                &mut self.memo,
                &at,
                reenter,
            )
        }

        /// The decision for a run with golden's plant, which only ends a
        /// drive or lets it go on.
        fn end(&mut self, diff: &[(u32, u32)], n: u64, reenter: bool) -> Option<DriveEnd> {
            let env = self.golden.checkpoints[self.c].env.clone();
            self.decide(diff, n, &env, reenter).map(|d| match d {
                Decision::End(end) => end,
                Decision::PlantOnly { .. } => panic!("golden's plant took the plant-only arm"),
            })
        }

        /// A plant off golden's at the checkpoint: golden's, with the
        /// command of the iteration before changed by `du`.
        fn plant_off_golden(&self, du: f32) -> Environment {
            let mut env = self.golden.checkpoints[self.c - 1].env.clone();
            let k = self.golden.checkpoints[self.c].env.iteration();
            while env.iteration() < k {
                let mut u = f32::from_bits(self.golden.outputs[env.iteration()]);
                if env.iteration() + 1 == k {
                    u += du;
                }
                env.step(f64::from(u), &self.cfg.profiles, self.cfg.sample_interval);
            }
            assert_ne!(env, self.golden.checkpoints[self.c].env);
            env
        }

        /// The first iteration after the checkpoint at which `env`, stepped
        /// under golden's outputs, puts a word other than golden's in the
        /// speed port; `None` if none does.
        fn first_port_off_golden(&self, env: &Environment) -> Option<usize> {
            let mut env = env.clone();
            while env.iteration() + 1 < self.cfg.iterations {
                let u = f32::from_bits(self.golden.outputs[env.iteration()]);
                env.step(f64::from(u), &self.cfg.profiles, self.cfg.sample_interval);
                let k = env.iteration();
                if speed_port(&env) != (self.golden.speeds[k] as f32).to_bits() {
                    return Some(k);
                }
            }
            None
        }
    }

    #[test]
    fn an_empty_diff_in_step_with_golden_converges() {
        let mut b = Boundary::new(5);
        let end = b.end(&[], b.n(), true);
        assert!(matches!(end, Some(DriveEnd::Converged { iteration: 20 })));
    }

    #[test]
    fn an_empty_diff_goes_on_where_the_golden_tail_would_cross_the_hang_cap() {
        let mut b = Boundary::new(5);
        let (cap, tail) = (b.cap, b.tail());
        // The tail ends exactly at the cap: converged.
        let end = b.end(&[], cap - tail, true);
        assert!(matches!(end, Some(DriveEnd::Converged { .. })));
        // One instruction later it would cross it: the run executes on.
        assert!(b.end(&[], cap - tail + 1, true).is_none());
    }

    #[test]
    fn recall_probes_only_every_recall_every_th_checkpoint() {
        for (c, probed) in [(8usize, true), (5, false)] {
            assert_eq!(c.is_multiple_of(RECALL_EVERY), probed);
            let mut b = Boundary::new(c);
            let (diff, n) = (b.diff.clone(), b.n());
            // A first run passes the state and completes with golden's
            // outputs; a second run reaches the same state.
            assert!(b.end(&diff, n, false).is_none());
            let end = Ending::Completed { latent: true };
            b.memo
                .finish(Some((&b.golden.outputs, &b.golden.outputs, end)));
            let end = b.end(&diff, n, false);
            if probed {
                let Some(DriveEnd::Recalled { iteration, tail }) = end else {
                    panic!("checkpoint {c}'s state was not recalled");
                };
                assert_eq!(iteration, b.golden.checkpoints[c].env.iteration());
                assert!(matches!(tail.ending, Ending::Completed { latent: true }));
            } else {
                assert!(end.is_none(), "checkpoint {c} probed the memo");
            }
        }
    }

    #[test]
    fn recall_tells_states_apart_by_their_instruction_offset() {
        // A run passes a state 3 instructions behind golden's count and
        // traps later; a second run reaches the same state and diff in step
        // with golden. Its trap, and with it its detection latency, would
        // come 3 instructions earlier: it must not be recalled.
        let mut b = Boundary::new(8);
        let (diff, n) = (b.diff.clone(), b.n());
        assert!(b.end(&diff, n + 3, false).is_none());
        let trap = bera_tcpu::edm::Trap {
            mechanism: bera_tcpu::edm::ErrorMechanism::AddressError,
            at_instruction: n + 500,
            pc: 0,
        };
        let outputs = &b.golden.outputs[..b.golden.checkpoints[8].env.iteration() + 2];
        b.memo
            .finish(Some((outputs, &b.golden.outputs, Ending::Trapped(trap))));
        assert!(b.end(&diff, n, false).is_none(), "recalled across offsets");
        let Some(DriveEnd::Recalled { tail, .. }) = b.end(&diff, n + 3, false) else {
            panic!("the state was not recalled at its own offset");
        };
        assert!(matches!(tail.ending, Ending::Trapped(t) if t == trap));
    }

    #[test]
    fn a_carriable_diff_in_step_with_golden_reenters() {
        let mut b = Boundary::new(5);
        let (diff, n) = (b.diff.clone(), b.n());
        let Some(DriveEnd::Reenter {
            checkpoint,
            diff: carried,
            offset,
        }) = b.end(&diff, n, true)
        else {
            panic!("the run did not re-enter");
        };
        assert_eq!((checkpoint, carried, offset), (5, diff, 0));
    }

    #[test]
    fn a_carriable_diff_off_golden_count_reenters_with_its_offset() {
        let mut b = Boundary::new(5);
        let (diff, n) = (b.diff.clone(), b.n());
        for delta in [3i64, -2] {
            let Some(DriveEnd::Reenter {
                checkpoint,
                diff: carried,
                offset,
            }) = b.end(&diff, n.saturating_add_signed(delta), true)
            else {
                panic!("the run did not re-enter at offset {delta}");
            };
            assert_eq!((checkpoint, carried, offset), (5, diff.clone(), delta));
        }
    }

    #[test]
    fn reentry_is_refused_past_the_hang_cap_for_sig_and_when_not_allowed() {
        let mut b = Boundary::new(5);
        let (diff, n, cap, tail) = (b.diff.clone(), b.n(), b.cap, b.tail());
        // An offset whose golden tail ends exactly at the cap re-enters;
        // one more instruction and the tail would cross it.
        let at_cap = i64::try_from(cap - b.golden.total_instructions).unwrap();
        assert!(matches!(
            b.end(&diff, cap - tail, true),
            Some(DriveEnd::Reenter { offset, .. }) if offset == at_cap
        ));
        assert!(b.end(&diff, cap - tail + 1, true).is_none());
        // A diff holding the signature register, which replay cannot
        // carry, in step with golden or not.
        let (sig, _) = BitLocation::SigReg { bit: 0 }.word_bit();
        let sig_diff = [(sig as u32, 1)];
        assert!(!bera_tcpu::diff::carries(&sig_diff));
        assert!(b.end(&sig_diff, n, true).is_none());
        assert!(b.end(&sig_diff, n + 3, true).is_none());
        // Re-entry not allowed.
        assert!(b.end(&diff, n, false).is_none());
        assert!(b.end(&diff, n + 3, false).is_none());
    }

    #[test]
    fn a_plant_only_stretch_runs_to_the_end() {
        let mut b = Boundary::with_iterations(5, 39);
        // The last command off by a few ulp: the plant is not golden's,
        // but its speed port stays golden's to the end of the run.
        let env = b.plant_off_golden(5e-7);
        assert_eq!(b.first_port_off_golden(&env), None);
        let n = b.n() + 7;
        let Some(Decision::PlantOnly {
            to,
            env: end_env,
            end,
        }) = b.decide(&[], n, &env, true)
        else {
            panic!("no plant-only stretch");
        };
        assert_eq!(to, 39);
        assert_eq!(end_env.iteration(), 39);
        assert!(matches!(
            end,
            Some(DriveEnd::Completed {
                latent: Some(false)
            })
        ));
        // Not with a machine diff, nor where golden's tail would take the
        // run past the hang cap.
        let (diff, cap, tail) = (b.diff.clone(), b.cap, b.tail());
        assert!(b.decide(&diff, n, &env, true).is_none());
        assert!(b.decide(&[], cap - tail + 1, &env, true).is_none());
    }

    #[test]
    fn a_plant_only_stretch_ends_at_golden_checkpoint_at_or_before_the_first_port_off_golden() {
        let mut b = Boundary::new(5);
        let env = b.plant_off_golden(1e-5);
        // The speed port is golden's at the checkpoint, so the machine can
        // be, and leaves it at iteration m = 34.
        assert_eq!(speed_port(&env), (b.golden.speeds[20] as f32).to_bits());
        let m = b.first_port_off_golden(&env);
        assert_eq!(m, Some(34));
        let n = b.n() - 4;
        let Some(Decision::PlantOnly {
            to,
            env: there,
            end,
        }) = b.decide(&[], n, &env, true)
        else {
            panic!("no plant-only stretch");
        };
        // Golden's checkpoint at iteration 32, where the run's plant is
        // still not golden's.
        assert_eq!((to, end.is_none()), (32, true));
        let mut stepped = env.clone();
        while stepped.iteration() < to {
            let u = f32::from_bits(b.golden.outputs[stepped.iteration()]);
            stepped.step(f64::from(u), &b.cfg.profiles, b.cfg.sample_interval);
        }
        assert_eq!(there, stepped);
        assert_ne!(there, b.golden.checkpoints[8].env);
    }
}

#[cfg(test)]
mod fault_model_tests {
    use super::*;
    use crate::workload::Workload;
    use bera_tcpu::scan;

    #[test]
    fn single_bit_model_flips_one_location() {
        assert_eq!(FaultModel::SingleBit.locations(5), vec![5]);
    }

    #[test]
    fn double_bit_model_flips_adjacent_locations() {
        assert_eq!(FaultModel::AdjacentDoubleBit.locations(5), vec![5, 6]);
        // Wraps at the end of the catalog.
        let n = scan::catalog().len();
        assert_eq!(
            FaultModel::AdjacentDoubleBit.locations(n - 1),
            vec![n - 1, 0]
        );
    }

    #[test]
    fn double_bit_experiments_run_and_classify() {
        let w = Workload::algorithm_one();
        let cfg = LoopConfig::short(40);
        let golden = golden_run(&w, &cfg);
        for loc in [0usize, 100, 700, 1500] {
            let rec = run_experiment_with_model(
                &w,
                &cfg,
                &golden,
                FaultSpec {
                    location_index: loc,
                    inject_at: golden.total_instructions / 2,
                },
                FaultModel::AdjacentDoubleBit,
                false,
            );
            let _ = rec.outcome; // must terminate with a classification
        }
    }
}
