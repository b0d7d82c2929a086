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
    /// At golden checkpoint `checkpoint`'s boundary, in step with golden,
    /// the state differs from golden's by `diff`, which diff replay can
    /// carry on (see [`crate::replay`]).
    Reenter {
        checkpoint: usize,
        diff: Vec<(u32, u32)>,
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
    /// Experiment: once the fault has been injected, take the sparse diff
    /// against the golden checkpoint of the same iteration (whenever the
    /// plant equals golden's) and stop early when it is empty. `resident`
    /// is the index of the checkpoint the machine's dirty-word log was
    /// started from, so the diff walks only the words the experiment or
    /// the golden run touched since (see [`converged`]). With a `recall`
    /// memo, every [`RECALL_EVERY`]-th checkpoint also stops on a state an
    /// earlier run passed through, keyed by that diff, and notes the state
    /// otherwise. With `reenter`, a state diff replay can carry, reached in
    /// step with golden, ends the drive to hand the run back to replay.
    Prune {
        golden: &'a GoldenRun,
        resident: usize,
        recall: Option<&'a mut TrajectoryMemo>,
        reenter: bool,
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

/// Proven convergence test at an iteration boundary whose plant equals
/// golden's: the machine's sparse `diff` against the checkpoint is empty,
/// and the hang cap holds. `true` means a from-reset run of this
/// experiment would finish by replaying the golden tail bit-for-bit, so
/// executing the tail is unnecessary.
///
/// The diff walks memory only over the keys that can differ: outside the
/// golden run's own writes since the machine's resident checkpoint and the
/// experiment's dirty set, both images provably still equal the resident
/// checkpoint. Debug builds cross-check a positive match against the
/// machines' state digests.
fn converged(
    machine: &Machine,
    diff: &[(u32, u32)],
    ckpt: &Checkpoint,
    golden: &GoldenRun,
    instr_cap: u64,
) -> bool {
    debug_assert_eq!(
        diff.is_empty(),
        machine.state_equals(&ckpt.machine),
        "sparse convergence equality must agree with the full walk"
    );
    if !diff.is_empty() {
        return false;
    }
    debug_assert_eq!(
        machine.state_digest(),
        ckpt.machine.state_digest(),
        "equal states must agree on the state digest"
    );
    // The golden tail from this checkpoint executes a known number of
    // further instructions. Prune only if the faulty run's counter stays
    // under the hang cap for the whole tail; otherwise keep executing so a
    // genuine from-reset Hang classification is reproduced exactly.
    let tail = golden.total_instructions - ckpt.machine.instr_count();
    machine.instr_count() + tail <= instr_cap
}

/// Golden data-memory write keys from a machine's resident checkpoint up
/// to the boundary under test, extended lazily from
/// [`GoldenRun::ckpt_data_deltas`] as a drive advances (see [`converged`]).
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

/// The prune checks of a quiescent experiment at the start of iteration
/// `k`, checkpoint `c`'s stride boundary: when golden's checkpoint sits
/// there and the plant equals golden's, one sparse diff against it decides
/// convergence, at every [`RECALL_EVERY`]-th checkpoint keys the trajectory
/// memo, and with `reenter` hands a state diff replay can carry back to it.
fn prune_at(
    (machine, env, c, instr_cap): (&Machine, &Environment, usize, u64),
    golden: &GoldenRun,
    (memo, reenter): (Option<&mut TrajectoryMemo>, bool),
    deltas: &mut GoldenDeltas,
    diff: &mut Vec<(u32, u32)>,
) -> Option<DriveEnd> {
    let k = env.iteration();
    let ckpt = golden
        .checkpoints
        .get(c)
        .filter(|ckpt| ckpt.env.iteration() == k)?;
    deltas.extend_to(golden, c);
    if *env != ckpt.env {
        return None;
    }
    machine.sparse_diff(&ckpt.machine, &deltas.keys, diff);
    if converged(machine, diff, ckpt, golden, instr_cap) {
        return Some(DriveEnd::Converged { iteration: k });
    }
    let offset = i128::from(machine.instr_count()) - i128::from(ckpt.machine.instr_count());
    if let Some(memo) = memo.filter(|_| c.is_multiple_of(RECALL_EVERY)) {
        if let Some(tail) = memo.probe(diff, c, k, offset) {
            return Some(DriveEnd::Recalled { iteration: k, tail });
        }
    }
    (reenter && offset == 0 && bera_tcpu::diff::carries(diff)).then(|| DriveEnd::Reenter {
        checkpoint: c,
        diff: diff.clone(),
    })
}

/// Drives the machine in closed loop from the state the caller prepared:
/// `env` in iteration `k`, with `set_ports(k)` already applied, and
/// `outputs` holding the first `k` logged outputs. The machine sits at
/// the start of iteration `k`, or inside it when `mid_iteration` is set
/// (the boundary is then past). Every `yield` is one [`exchange`]. `injector` perturbs scan-chain bits when the
/// dynamic instruction count reaches its injection point (and re-asserts
/// at later iteration boundaries for intermittent/stuck-at models);
/// `instr_cap` bounds the total instruction count to detect hangs;
/// `deadline` is the wall-clock watchdog, checked at iteration boundaries
/// only so target execution stays deterministic; `mode` selects the
/// checkpoint behaviour at stride boundaries. `on_inject` fires once, at the moment the initial
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
    let mut deltas = GoldenDeltas {
        keys: Vec::new(),
        seen: Vec::new(),
        cursor: match &mode {
            DriveMode::Prune { resident, .. } => *resident,
            _ => 0,
        },
    };
    let mut diff: Vec<(u32, u32)> = Vec::new();
    // Set when execution sits at the start of iteration `k` (function entry
    // and after every completed iteration); cleared once the boundary has
    // been processed so mid-iteration injection resumes don't repeat it.
    let mut at_boundary = !mid_iteration;
    while env.iteration() < cfg.iterations {
        if at_boundary {
            let k = env.iteration();
            at_boundary = false;
            // Re-assert the fault first so checkpoint capture/pruning below
            // observes the boundary state a from-reset run would have.
            if let Some(inj) = injector.as_mut() {
                inj.at_boundary(machine);
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return DriveResult {
                        outputs,
                        end: DriveEnd::DeadlineExceeded,
                    };
                }
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
                        ..
                    } => {
                        // Convergence is only meaningful once the fault has
                        // been delivered in full: before injection the run
                        // *is* the golden run, and while re-assertions are
                        // pending the state can still diverge again.
                        if injector.as_ref().is_some_and(FaultInjector::quiescent) {
                            let memo = recall.as_deref_mut();
                            let at = (&*machine, &env, k / stride, instr_cap);
                            let checks = (memo, *reenter);
                            if let Some(end) = prune_at(at, golden, checks, &mut deltas, &mut diff)
                            {
                                return DriveResult { outputs, end };
                            }
                        }
                    }
                }
            }
        }
        let stop = injector
            .as_ref()
            .map_or(instr_cap, |inj| inj.stop_at(instr_cap));
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
            RunExit::Trap(trap) => {
                return DriveResult {
                    outputs,
                    end: DriveEnd::Trapped(trap),
                };
            }
            RunExit::Budget => match injector.as_mut() {
                Some(inj) if !inj.injected && machine.instr_count() < instr_cap => {
                    inj.inject(machine);
                    on_inject();
                }
                _ => {
                    return DriveResult {
                        outputs,
                        end: DriveEnd::Hang,
                    };
                }
            },
        }
    }
    DriveResult {
        outputs,
        end: DriveEnd::Completed { latent: None },
    }
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
    let (result, instructions, resident) = match (replay, ckpt_index, recall.as_mut()) {
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
            let start_instructions = machine.instr_count();
            let mode = match start {
                Start::Reset => DriveMode::Plain,
                Start::Replay | Start::Injection => DriveMode::Prune {
                    golden,
                    resident: ckpt_index.unwrap_or(0),
                    recall: recall.as_mut(),
                    reenter: false,
                },
            };
            let result = drive_from(
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
            );
            let executed = machine.instr_count().saturating_sub(start_instructions);
            (result, executed, ckpt_index)
        }
    };
    observer.experiment_executed(
        index,
        instructions,
        machine
            .block_instructions()
            .saturating_sub(start_block_instructions),
    );
    let DriveResult {
        mut outputs, end, ..
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
