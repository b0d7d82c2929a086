//! Single fault-injection experiments: golden reference execution and the
//! inject–run–classify cycle.

use crate::classify::{Classifier, Outcome};
use crate::observer::{CampaignObserver, NullObserver};
use crate::workload::Workload;
use bera_plant::{Engine, Profiles};
use bera_tcpu::access::AccessTrace;
use bera_tcpu::machine::{Machine, RunExit, PORT_R, PORT_U, PORT_Y};
use bera_tcpu::scan::{self, BitLocation, CpuPart, ScanSnapshot};
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
    /// Scan-chain state at the end of the run.
    pub end_scan: ScanSnapshot,
    /// The machine at the end of the run (for memory comparison).
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
/// iteration: machine (input ports already loaded for that iteration),
/// plant, and a digest for cheap convergence filtering.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Iteration index `k`: when this state is live, the golden run has
    /// logged `outputs[..k]` and `speeds[..=k]`.
    pub iteration: usize,
    /// Machine state, with `set_ports` for iteration `k` already applied.
    pub machine: Machine,
    /// Plant state after `k` control intervals.
    pub engine: Engine,
    /// Combined machine + plant digest (see [`Machine::state_digest`]).
    pub digest: u64,
}

impl Checkpoint {
    fn capture(iteration: usize, machine: &Machine, engine: &Engine) -> Self {
        Checkpoint {
            iteration,
            machine: machine.clone(),
            engine: engine.clone(),
            digest: loop_digest(machine, engine),
        }
    }
}

/// Digest of the combined machine + plant state at an iteration boundary.
fn loop_digest(machine: &Machine, engine: &Engine) -> u64 {
    let mut h = bera_tcpu::Fnv64::new();
    h.write_u64(machine.state_digest());
    h.write_u64(engine.state_digest());
    h.finish()
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
    /// Copied from the simulated representative of this fault's def/use
    /// equivalence class (same unit, same first post-injection read), with
    /// the detection latency re-based to this fault's injection time.
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
    /// How this classification was obtained: simulated directly, derived
    /// analytically from the golden access trace, or replicated from an
    /// equivalence-class representative. Metadata only (see
    /// [`Provenance`]).
    pub provenance: Provenance,
    /// Human-readable detail when `outcome` is
    /// [`Outcome::HarnessFailure`]: the caught panic payload or the
    /// watchdog deadline description. `None` for every target outcome.
    pub harness_error: Option<String>,
}

/// How a closed-loop drive ended.
enum DriveEnd {
    Completed,
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
}

/// Applies a [`FaultModel`] to a running machine: the initial scan-chain
/// perturbation once the dynamic instruction count reaches the injection
/// point, plus any re-assertions at later iteration boundaries
/// (intermittent and stuck-at models).
struct FaultInjector {
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
}

impl FaultInjector {
    fn new(model: FaultModel, fault: FaultSpec) -> Self {
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

    /// An injector for a fault resumed from its live instant: the
    /// surviving flips were already deposited on the restored checkpoint,
    /// so this injector starts quiescent — it never perturbs the machine,
    /// it only reports the fault as delivered (enabling convergence
    /// pruning from the first boundary, exactly as a scalar run of the
    /// same fault would be by its live instant).
    fn pre_injected(fault: FaultSpec) -> Self {
        FaultInjector {
            inject_at: fault.inject_at,
            locations: Vec::new(),
            kind: InjectKind::Flip,
            injected: true,
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
        match self.kind {
            InjectKind::Stuck { value } => {
                for &loc in &self.locations {
                    machine.scan_set(loc, value);
                }
            }
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
            InjectKind::Flip => {}
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
                InjectKind::Flip => true,
                InjectKind::Reassert { remaining } => remaining == 0,
                InjectKind::Stuck { .. } => false,
            }
    }
}

struct DriveResult {
    outputs: Vec<u32>,
    speeds: Vec<f64>,
    end: DriveEnd,
}

/// What [`drive_from`] does at checkpoint-stride iteration boundaries.
enum DriveMode<'a> {
    /// Plain closed-loop drive: no capture, no convergence pruning.
    Plain,
    /// Golden run: capture a [`Checkpoint`] at every stride boundary.
    Capture(&'a mut Vec<Checkpoint>),
    /// Experiment: once the fault has been injected, test for convergence
    /// against the golden checkpoint of the same iteration and stop early
    /// on a proven match. `resident` is the index of the checkpoint the
    /// machine's dirty-word log was started from, so the convergence
    /// compare can walk only the words the experiment or the golden run
    /// touched since (see [`converged`]).
    Prune {
        golden: &'a GoldenRun,
        resident: usize,
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

fn set_ports(machine: &mut Machine, cfg: &LoopConfig, k: usize, engine: &Engine) {
    let t = k as f64 * cfg.sample_interval;
    machine.set_port_f32(PORT_R, cfg.profiles.reference(t) as f32);
    machine.set_port_f32(PORT_Y, engine.speed_rpm() as f32);
}

/// Converts a (possibly corrupted) actuator word into the physical throttle
/// angle: the actuator hardware saturates at its mechanical limits and
/// rejects non-finite bit patterns at the lower stop.
fn actuate(u: f32) -> f64 {
    let u = f64::from(u);
    if u.is_finite() {
        u.clamp(0.0, 70.0)
    } else {
        0.0
    }
}

/// Proven convergence test at an iteration boundary: exact plant and
/// machine equality first, then the hang-cap guard. `true` means a
/// from-reset run of this experiment would finish by replaying the golden
/// tail bit-for-bit, so executing the tail is unnecessary.
///
/// Equality is checked directly rather than via the digest: comparing two
/// resident states is a short-circuiting memcmp (nanoseconds on the common
/// diverged path), while hashing the faulty state costs a full pass over
/// memory every checked boundary. The stored digest still identifies the
/// checkpoint across runs; here it only cross-checks a positive match.
///
/// When the machine carries a dirty-word log (the arena path), memory is
/// compared sparsely: outside `delta_keys` — the golden run's own writes
/// between the machine's resident checkpoint and `ckpt` — plus the
/// experiment's dirty set, both images provably still equal the resident
/// checkpoint, so only the union of the two key sets needs a look.
fn converged(
    machine: &Machine,
    engine: &Engine,
    ckpt: &Checkpoint,
    golden: &GoldenRun,
    instr_cap: u64,
    delta_keys: &[u32],
) -> bool {
    if *engine != ckpt.engine {
        return false;
    }
    let state_eq = match machine.state_equals_sparse(&ckpt.machine, delta_keys) {
        Some(eq) => {
            debug_assert_eq!(
                eq,
                machine.state_equals(&ckpt.machine),
                "sparse convergence equality must agree with the full walk"
            );
            eq
        }
        None => machine.state_equals(&ckpt.machine),
    };
    if !state_eq {
        return false;
    }
    debug_assert_eq!(
        loop_digest(machine, engine),
        ckpt.digest,
        "equal states must agree on the checkpoint digest"
    );
    // The golden tail from this checkpoint executes a known number of
    // further instructions. Prune only if the faulty run's counter stays
    // under the hang cap for the whole tail; otherwise keep executing so a
    // genuine from-reset Hang classification is reproduced exactly.
    let tail = golden.total_instructions - ckpt.machine.instr_count();
    machine.instr_count() + tail <= instr_cap
}

/// Drives the machine in closed loop from the state the caller prepared:
/// iteration index `k` with `set_ports(k)` already applied, `outputs`
/// holding the first `k` logged outputs and `speeds` the first `k + 1`
/// speed samples. `injector` perturbs scan-chain bits when the dynamic
/// instruction count reaches its injection point (and re-asserts at later
/// iteration boundaries for intermittent/stuck-at models); `instr_cap`
/// bounds the total instruction count to detect hangs; `deadline` is the
/// wall-clock watchdog, checked at iteration boundaries only so target
/// execution stays deterministic; `mode` selects the checkpoint behaviour
/// at stride boundaries. `on_inject` fires once, at the moment the initial
/// scan-chain perturbation lands (the observer's "fault injected" event).
#[allow(clippy::too_many_arguments)]
fn drive_from(
    machine: &mut Machine,
    cfg: &LoopConfig,
    mut engine: Engine,
    mut k: usize,
    mut outputs: Vec<u32>,
    mut speeds: Vec<f64>,
    mut injector: Option<FaultInjector>,
    instr_cap: u64,
    deadline: Option<Instant>,
    mut mode: DriveMode<'_>,
    on_inject: &mut dyn FnMut(),
) -> DriveResult {
    let stride = cfg.checkpoint_stride;
    // Accumulated golden data-memory write keys from the machine's resident
    // checkpoint up to the boundary under test, extended lazily from
    // `GoldenRun::ckpt_data_deltas` as the drive advances. Only the Prune
    // mode uses these (see `converged`). The same hot words repeat in
    // window after window, so a membership bitmap (lazily sized to the
    // data-word universe) keeps the key list duplicate-free: the sparse
    // convergence compare then walks each distinct word once and the list
    // stays bounded by the universe instead of growing per window.
    let mut golden_delta_keys: Vec<u32> = Vec::new();
    let mut delta_seen: Vec<u64> = Vec::new();
    let mut delta_cursor = match &mode {
        DriveMode::Prune { resident, .. } => *resident,
        _ => 0,
    };
    // Set when execution sits at the start of iteration `k` (function entry
    // and after every completed iteration); cleared once the boundary has
    // been processed so mid-iteration injection resumes don't repeat it.
    let mut at_boundary = true;
    while k < cfg.iterations {
        if at_boundary {
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
                        speeds,
                        end: DriveEnd::DeadlineExceeded,
                    };
                }
            }
            if stride > 0 && k.is_multiple_of(stride) {
                match &mut mode {
                    DriveMode::Plain => {}
                    DriveMode::Capture(into) => {
                        into.push(Checkpoint::capture(k, machine, &engine));
                    }
                    DriveMode::Prune { golden, .. } => {
                        // Convergence is only meaningful once the fault has
                        // been delivered in full: before injection the run
                        // *is* the golden run, and while re-assertions are
                        // pending the state can still diverge again.
                        if injector.as_ref().is_some_and(FaultInjector::quiescent) {
                            if let Some(ckpt) = golden.checkpoints.get(k / stride) {
                                if ckpt.iteration == k {
                                    while delta_cursor < k / stride {
                                        if let Some(w) = golden.ckpt_data_deltas.get(delta_cursor) {
                                            if delta_seen.is_empty() {
                                                delta_seen = vec![
                                                    0u64;
                                                    bera_tcpu::mem::NUM_DATA_WORDS
                                                        .div_ceil(64)
                                                ];
                                            }
                                            for &key in w {
                                                let slot = key as usize / 64;
                                                let bit = 1u64 << (key % 64);
                                                if delta_seen[slot] & bit == 0 {
                                                    delta_seen[slot] |= bit;
                                                    golden_delta_keys.push(key);
                                                }
                                            }
                                        }
                                        delta_cursor += 1;
                                    }
                                    if converged(
                                        machine,
                                        &engine,
                                        ckpt,
                                        golden,
                                        instr_cap,
                                        &golden_delta_keys,
                                    ) {
                                        return DriveResult {
                                            outputs,
                                            speeds,
                                            end: DriveEnd::Converged { iteration: k },
                                        };
                                    }
                                }
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
                // The harness observing the actuator port is a semantic
                // read of that port: record it in the access trace (a
                // no-op unless this machine is the tracing golden run).
                machine.trace_harness_port_read(PORT_U);
                let u = machine.port_out_f32(PORT_U);
                outputs.push(u.to_bits());
                let t = k as f64 * cfg.sample_interval;
                engine.advance(actuate(u), cfg.profiles.load(t), cfg.sample_interval);
                k += 1;
                if k < cfg.iterations {
                    speeds.push(engine.speed_rpm());
                    set_ports(machine, cfg, k, &engine);
                }
                at_boundary = true;
            }
            RunExit::Trap(trap) => {
                return DriveResult {
                    outputs,
                    speeds,
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
                        speeds,
                        end: DriveEnd::Hang,
                    };
                }
            },
        }
    }
    DriveResult {
        outputs,
        speeds,
        end: DriveEnd::Completed,
    }
}

/// Executes the fault-free reference run and logs the golden state.
///
/// # Panics
///
/// Panics if the workload traps or hangs without any fault injected —
/// that would be a workload bug, not an experiment outcome.
#[must_use]
pub fn golden_run(workload: &Workload, cfg: &LoopConfig) -> GoldenRun {
    let mut machine = Machine::new();
    machine.load_program(workload.program());
    machine.set_cache_parity(cfg.parity_cache);
    machine.start_access_trace();
    let engine = cfg.engine.clone();
    let speeds = vec![engine.speed_rpm()];
    set_ports(&mut machine, cfg, 0, &engine);
    let cap = instruction_cap(cfg.iterations as u64 * WORST_CASE_ITERATION_INSTRUCTIONS);
    let mut checkpoints = Vec::new();
    let mode = if cfg.checkpoint_stride > 0 {
        DriveMode::Capture(&mut checkpoints)
    } else {
        DriveMode::Plain
    };
    let result = drive_from(
        &mut machine,
        cfg,
        engine,
        0,
        Vec::with_capacity(cfg.iterations),
        speeds,
        None,
        cap,
        None,
        mode,
        &mut || {},
    );
    match result.end {
        DriveEnd::Completed => {}
        DriveEnd::Trapped(t) => panic!("golden run trapped: {t:?}"),
        DriveEnd::Hang => panic!("golden run exceeded the instruction cap"),
        DriveEnd::Converged { .. } => unreachable!("golden run never prunes"),
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
        speeds: result.speeds,
        total_instructions: machine.instr_count(),
        end_scan: machine.scan_snapshot(),
        end_machine: machine,
        checkpoints,
        trace,
        arena_token: NEXT_ARENA_TOKEN.fetch_add(1, Ordering::Relaxed),
        ckpt_data_deltas,
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
/// delta restore.
struct ArenaSlot {
    machine: Machine,
    /// [`GoldenRun::arena_token`] of the run the machine belongs to.
    token: u64,
    /// Checkpoint index the machine's dirty-word log was started from.
    resident: usize,
}

thread_local! {
    static ARENA: RefCell<Option<ArenaSlot>> = const { RefCell::new(None) };
}

/// Checks a machine out of this worker's arena, positioned exactly at
/// `golden.checkpoints[ckpt_index]` with a fresh dirty-word log. Returns
/// the machine, the number of data words copied, and whether the arena
/// missed (full checkpoint clone). The slot is left empty while the
/// experiment runs: if classification panics, the machine unwinds with the
/// stack and the next checkout starts from a clean clone, so a poisoned
/// intermediate state can never leak into a later record.
fn arena_checkout(golden: &GoldenRun, ckpt_index: usize) -> (Machine, usize, bool) {
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
            (machine, copied, false)
        }
        _ => {
            let mut machine = ckpt.machine.clone();
            machine.begin_dirty_log();
            (machine, 0, true)
        }
    }
}

/// Returns an experiment's machine to this worker's arena for the next
/// checkout, recording which checkpoint its dirty log is relative to.
fn arena_release(machine: Machine, golden: &GoldenRun, ckpt_index: usize) {
    ARENA.with(|a| {
        *a.borrow_mut() = Some(ArenaSlot {
            machine,
            token: golden.arena_token,
            resident: ckpt_index,
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
#[derive(Debug, Clone, Copy)]
pub(crate) enum Start<'a> {
    /// The nearest golden checkpoint at or before the injection point —
    /// the fault-free prefix is bit-identical to the golden run — or reset
    /// when the golden run has no checkpoints.
    Injection,
    /// A live fault's live instant (see [`crate::planner::Fate::Live`]):
    /// the last golden checkpoint at or before `at`, with the surviving
    /// `flips` applied and the injector pre-fired. The prefix between
    /// injection and that checkpoint is never executed; by the resolver's
    /// invariant (no surviving flipped unit is accessed in that window,
    /// every killed one was overwritten with its golden value) the
    /// materialized state is bit-identical to what [`Start::Injection`]
    /// computes there. Chosen by [`start_for`] only.
    Live { at: u64, flips: &'a [BitLocation] },
    /// From reset, ignoring the checkpoints and never pruning a converged
    /// tail: the supervisor's retry, in case the fast-forward path itself
    /// is implicated.
    Reset,
}

/// The start of a fault the plan may resume at `resume` (its live instant
/// and surviving flips, [`crate::planner::CampaignPlan::resume_point`]):
/// [`Start::Live`] only when a golden checkpoint lies in `[inject_at, at]`.
/// Without one, resuming would either deposit the flips before injection
/// or skip nothing, so the fault starts from [`Start::Injection`].
pub(crate) fn start_for<'a>(
    golden: &GoldenRun,
    fault: FaultSpec,
    resume: Option<(u64, &'a [BitLocation])>,
) -> Start<'a> {
    match resume {
        Some((at, flips))
            if golden
                .checkpoint_before(at)
                .is_some_and(|c| c.machine.instr_count() >= fault.inject_at) =>
        {
            Start::Live { at, flips }
        }
        _ => Start::Injection,
    }
}

/// The wall-clock watchdog deadline expired before the experiment reached a
/// target outcome. The run is abandoned without classification (and without
/// an `experiment_classified` event) — the supervisor decides whether to
/// retry or quarantine.
#[derive(Debug)]
pub(crate) struct WatchdogExpired;

/// Runs one experiment from `start` and classifies it, reporting each
/// life-cycle stage (restored, started, injected, detected / spliced,
/// classified) to `observer`; `index` is the fault-list index carried on
/// every event and does not affect execution. Aborts with
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
    start: Start<'_>,
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
        Start::Injection => golden.checkpoint_index_before(fault.inject_at),
        Start::Live { at, .. } => Some(
            golden
                .checkpoint_index_before(at)
                .expect("a live start has a checkpoint at or before its instant"),
        ),
        Start::Reset => None,
    };
    let (mut machine, engine, start_k, prefix_outputs, prefix_speeds) = match ckpt_index {
        Some(ci) => {
            let ckpt = &golden.checkpoints[ci];
            let (machine, copied, full_clone) = arena_checkout(golden, ci);
            observer.arena_restored(copied, full_clone);
            // Size the logs for the whole drive up front so the per-
            // iteration pushes never reallocate.
            let mut prefix_outputs = Vec::with_capacity(cfg.iterations);
            prefix_outputs.extend_from_slice(&golden.outputs[..ckpt.iteration]);
            let mut prefix_speeds = Vec::with_capacity(cfg.iterations + 1);
            prefix_speeds.extend_from_slice(&golden.speeds[..=ckpt.iteration]);
            (
                machine,
                ckpt.engine.clone(),
                ckpt.iteration,
                prefix_outputs,
                prefix_speeds,
            )
        }
        None => {
            let mut machine = Machine::new();
            machine.load_program(workload.program());
            machine.set_cache_parity(cfg.parity_cache);
            let engine = cfg.engine.clone();
            let speeds = vec![engine.speed_rpm()];
            set_ports(&mut machine, cfg, 0, &engine);
            (
                machine,
                engine,
                0,
                Vec::with_capacity(cfg.iterations),
                speeds,
            )
        }
    };
    if !cfg.fast_replay {
        machine.set_fast_replay(false);
    }
    observer.experiment_started(
        index,
        fault,
        ckpt_index.map(|ci| golden.checkpoints[ci].iteration),
    );
    let prune = DriveMode::Prune {
        golden,
        resident: ckpt_index.unwrap_or(0),
    };
    let (injector, mode) = match start {
        Start::Injection => (FaultInjector::new(model, fault), prune),
        Start::Live { flips, .. } => {
            for &bit in flips {
                machine.scan_flip(bit);
            }
            observer.fault_injected(index, fault);
            (FaultInjector::pre_injected(fault), prune)
        }
        Start::Reset => (FaultInjector::new(model, fault), DriveMode::Plain),
    };
    let start_instructions = machine.instr_count();
    let start_block_instructions = machine.block_instructions();
    let result = drive_from(
        &mut machine,
        cfg,
        engine,
        start_k,
        prefix_outputs,
        prefix_speeds,
        Some(injector),
        cap,
        deadline,
        mode,
        &mut || observer.fault_injected(index, fault),
    );
    observer.experiment_executed(
        index,
        machine.instr_count().saturating_sub(start_instructions),
        machine
            .block_instructions()
            .saturating_sub(start_block_instructions),
    );
    let record = classify_drive(
        result, &machine, golden, fault, location, detail, index, observer,
    );
    if let Some(ci) = ckpt_index {
        arena_release(machine, golden, ci);
    }
    record
}

/// Classifies a finished drive into the final [`ExperimentRecord`] and
/// fires the detection / splice / classified observer events.
#[allow(clippy::too_many_arguments)]
fn classify_drive(
    result: DriveResult,
    machine: &Machine,
    golden: &GoldenRun,
    fault: FaultSpec,
    location: BitLocation,
    detail: bool,
    index: usize,
    observer: &dyn CampaignObserver,
) -> Result<ExperimentRecord, WatchdogExpired> {
    let classifier = Classifier::paper();
    let DriveResult {
        mut outputs, end, ..
    } = result;
    let mut detection_latency = None;
    let mut pruned_at = None;
    let (outcome, max_deviation, first_strong) = match end {
        DriveEnd::DeadlineExceeded => return Err(WatchdogExpired),
        DriveEnd::Trapped(trap) => {
            let latency = trap.at_instruction.saturating_sub(fault.inject_at);
            observer.error_detected(index, trap.mechanism, latency);
            detection_latency = Some(latency);
            (Outcome::Detected(trap.mechanism), 0.0, None)
        }
        DriveEnd::Hang => (Outcome::Hang, 0.0, None),
        DriveEnd::Completed => {
            let (max_dev, first) = deviation_stats(&golden.outputs, &outputs, classifier.threshold);
            match classifier.classify_bits(&golden.outputs, &outputs) {
                Some(severity) => (Outcome::ValueFailure(severity), max_dev, first),
                None => {
                    // Outputs identical: latent iff any machine or memory
                    // state differs from the golden end state.
                    let scan_differs = machine.scan_snapshot().diff_count(&golden.end_scan) != 0;
                    let mem_differs = !machine.memory().data_equals(golden.end_machine.memory());
                    if scan_differs || mem_differs {
                        (Outcome::Latent, 0.0, None)
                    } else {
                        (Outcome::Overwritten, 0.0, None)
                    }
                }
            }
        }
        DriveEnd::Converged { iteration } => {
            // The run provably rejoined the golden trajectory at this
            // boundary: splice the golden tail in place of executing it.
            // The spliced sequence equals what a from-reset run would have
            // produced, so the value-failure classification is unchanged.
            observer.convergence_spliced(index, iteration);
            pruned_at = Some(iteration);
            outputs.extend_from_slice(&golden.outputs[iteration..]);
            let (max_dev, first) = deviation_stats(&golden.outputs, &outputs, classifier.threshold);
            match classifier.classify_bits(&golden.outputs, &outputs) {
                Some(severity) => (Outcome::ValueFailure(severity), max_dev, first),
                // Convergence proved the machine and plant equal to the
                // golden checkpoint, so the run would end in exactly the
                // golden end state: no latent damage is possible.
                None => (Outcome::Overwritten, 0.0, None),
            }
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
    Ok(record)
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
        assert_eq!(a.end_scan.diff_count(&b.end_scan), 0);
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
