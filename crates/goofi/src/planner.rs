//! Campaign planner: one fate resolver over the golden run's access
//! trace.
//!
//! A SCIFI campaign samples (scan bit, injection time) pairs uniformly.
//! Most of those faults land in state the workload overwrites before
//! reading, or never touches again — their outcomes are fully determined
//! by the golden run's trace and need no simulation at all. For every
//! sampled fault the planner asks one question of [`resolve`]: *what is
//! the first event to touch these flips after injection?* The answer is a
//! [`Fate`]:
//!
//! * **every flipped unit is fully written before anything reads it** —
//!   the flips are deposited over with the values the fault-free run
//!   computes (execution up to each write never observed them, so it is
//!   bit-identical to the golden run): [`Fate::Overwritten`], emitted
//!   analytically as [`Outcome::Overwritten`];
//! * **no flipped unit is touched again** — the flips sit untouched until
//!   the end-of-run state diff and nothing else diverges:
//!   [`Fate::Latent`], emitted analytically as [`Outcome::Latent`];
//! * **a flipped unit is read first** (or partially written) — the fault
//!   is [`Fate::Live`] at that instant. The machine state there is exactly
//!   the golden state plus the surviving flips, so every fault with the
//!   same scan bit, live instant and surviving units shares its faulty
//!   trajectory: one simulation stands for the whole class (diff replay,
//!   DESIGN.md §8l, carries the representative to that instant without
//!   executing anything);
//! * **no trace covers the flips** — [`Fate::Opaque`]: simulate.
//!
//! Resolution applies only where the trace argument is sound: one-shot
//! flip models (intermittent re-assertions and stuck-at forcing perturb
//! state after injection — they bypass the planner exactly like the
//! convergence pruner's quiescence gate) and campaigns without the
//! parity-protected cache (the parity checker reads cache data on every
//! access without being part of the trace). Soundness arguments are in
//! DESIGN.md § 8e.
//!
//! The planned campaign is provably outcome-equivalent to the unplanned
//! (`prune: false`) one (`tests/prune_equivalence.rs`), and `--paranoid N`
//! re-simulates `N` members per equivalence class at run time as a
//! continuous cross-check.

use crate::campaign::CampaignConfig;
use crate::classify::Outcome;
use crate::experiment::{ExperimentRecord, FaultModel, FaultSpec, GoldenRun, Provenance};
use bera_tcpu::scan::{self, BitLocation};
use bera_tcpu::{Access, AccessTrace, Fnv64, TraceUnit, VisUnit};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// What the golden traces prove about one set of one-shot flips injected
/// at one instruction boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// No flipped unit is touched again: the flips survive, untouched and
    /// unobserved, to the end-of-run state diff.
    Latent,
    /// Every flipped unit was fully written with its golden value before
    /// being observed; the state is golden once the instruction at
    /// `killed_at` retires.
    Overwritten {
        /// Dynamic instruction index of the write that killed the last
        /// surviving flip.
        killed_at: u64,
    },
    /// A flipped unit is read (or partially written) during instruction
    /// `at`. Up to that instruction the state is exactly the golden state
    /// plus the `surviving` flips.
    Live {
        /// Dynamic instruction index of the first observation.
        at: u64,
        /// Bit mask over the resolved flip slice: bit `i` is set when
        /// `flips[i]` is still live at `at` (its unit was not killed
        /// before `at`).
        surviving: u64,
    },
    /// No trace covers one of the flips: only simulation can tell.
    Opaque,
}

/// Resolves the fate of `flips` injected at instruction boundary
/// `inject_at` by walking the golden access `trace` — def/use and
/// EDM-visibility units alike. The walk repeatedly takes the earliest
/// event touching any surviving flipped unit: if every unit touched by
/// that instruction is first fully written there, those units die (their
/// flips are overwritten with golden values) and the walk continues;
/// otherwise the fault is live there. Per-unit rules:
///
/// * a partial write counts as a use;
/// * within one instruction, a read before a write keeps the flip live,
///   a write before a read kills it (each unit's events keep execution
///   order);
/// * the signature register is folded by every instruction, so
///   `golden ⊕ flip` stops describing it immediately: only a full write
///   that comes first (a control transfer's zeroing) settles it, and while
///   it survives the fault is [`Fate::Opaque`] rather than latent or live;
/// * operand-latch flips (single flips only) resolve by the latch's shift
///   count: slot A is overwritten by the first register read, slot B by
///   the second;
/// * the fetch-valid bit, which no trace unit covers, is opaque.
///
/// Clusters of more than 64 flips are opaque (the surviving set is a
/// 64-bit mask).
#[must_use]
pub fn resolve(flips: &[BitLocation], inject_at: u64, trace: &AccessTrace) -> Fate {
    if let [bit @ (BitLocation::OperandA { .. } | BitLocation::OperandB { .. })] = flips {
        // The operand latch is a two-slot shift register (`a ← b`,
        // `b ← clean value` on every register read) that nothing reads: a
        // flip in slot A is deposited over by the first shift, one in slot
        // B migrates bit-identically into A and dies at the second.
        let nth = usize::from(matches!(bit, BitLocation::OperandB { .. }));
        return match trace.nth_shift_at_or_after(inject_at, nth) {
            Some(killed_at) => Fate::Overwritten { killed_at },
            None => Fate::Latent,
        };
    }
    if flips.len() > 64 {
        return Fate::Opaque;
    }
    // (unit, mask of the flips living in it)
    let mut units: Vec<(TraceUnit, u64)> = Vec::with_capacity(flips.len());
    for (i, &bit) in flips.iter().enumerate() {
        let Some(unit) = bit.trace_unit() else {
            return Fate::Opaque;
        };
        match units.iter_mut().find(|(u, _)| *u == unit) {
            Some((_, mask)) => *mask |= 1 << i,
            None => units.push((unit, 1 << i)),
        }
    }
    let sig_survives = |units: &[(TraceUnit, u64)]| {
        units
            .iter()
            .any(|(u, _)| *u == TraceUnit::Vis(VisUnit::Sig))
    };
    let mut cursor = inject_at;
    loop {
        let next: Vec<Option<Access>> = units
            .iter()
            .map(|(u, _)| trace.first_at_or_after(*u, cursor))
            .collect();
        let Some(at) = next.iter().flatten().map(|a| a.at).min() else {
            return if sig_survives(&units) {
                Fate::Opaque
            } else {
                Fate::Latent
            };
        };
        let killed = |a: &Option<Access>| a.is_some_and(|a| a.at == at && a.kind.is_full_write());
        let live = next
            .iter()
            .any(|a| a.is_some_and(|a| a.at == at) && !killed(a));
        if live {
            return if sig_survives(&units) {
                Fate::Opaque
            } else {
                Fate::Live {
                    at,
                    surviving: units.iter().fold(0, |m, (_, bits)| m | bits),
                }
            };
        }
        let mut dead = next.iter().map(killed);
        units.retain(|_| !dead.next().unwrap_or(false));
        if units.is_empty() {
            return Fate::Overwritten { killed_at: at };
        }
        cursor = at + 1;
    }
}

/// The planner's decision for one fault-list index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Inject and run this fault on the simulator (it is either a live
    /// equivalence-class representative or opaque to the traces).
    Simulate,
    /// Emit the record analytically: the outcome follows from the golden
    /// traces alone.
    Analytic(Outcome),
    /// Copy the outcome of the simulated representative at fault-list
    /// index `representative` (always a lower index than this fault's).
    Replicate {
        /// Fault-list index of this class's simulated representative.
        representative: usize,
    },
}

/// Per-rule hit counters and timing for one planner invocation — pure
/// telemetry (never consulted for classification), surfaced through the
/// campaign observer, the telemetry sidecar and `report`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Analytic `Latent` verdicts from def/use units alone.
    pub defuse_latent: usize,
    /// Analytic `Overwritten` verdicts from def/use units alone.
    pub defuse_overwritten: usize,
    /// Analytic `Latent` verdicts that needed an EDM-visibility window
    /// (some flipped unit is outside the def/use units).
    pub vis_latent: usize,
    /// Analytic `Overwritten` verdicts that needed an EDM-visibility
    /// window.
    pub vis_overwritten: usize,
    /// Signature-register faults proven `Overwritten` by the write-first
    /// rule (a control transfer zeroes the register before any compare).
    pub sig_overwritten: usize,
    /// Operand-latch faults resolved by the value-level shift rule
    /// (either displaced off the latch or migrated bit-identically).
    pub value_resolved: usize,
    /// [`Fate::Live`] faults (class representatives and members).
    pub live: usize,
    /// Of [`live`](Self::live), those carrying a flip outside the def/use
    /// units (resolved through a visibility window).
    pub vis_live: usize,
    /// Live class members (not representatives) carrying a flip outside
    /// the def/use units.
    pub vis_replicated: usize,
    /// [`Fate::Opaque`] faults: no trace covers them, so they simulate
    /// from injection.
    pub opaque: usize,
    /// Wall-clock microseconds spent planning (classification only).
    pub plan_micros: u64,
}

impl PlanStats {
    /// Total analytic verdicts attributable to the visibility/value layer
    /// (everything the def/use units alone could not classify).
    #[must_use]
    pub fn vis_analytic(&self) -> usize {
        self.vis_latent + self.vis_overwritten + self.sig_overwritten + self.value_resolved
    }

    /// Faults the resolver settled or placed (every fate but
    /// [`Fate::Opaque`]).
    #[must_use]
    pub fn resolved(&self) -> usize {
        self.defuse_latent + self.defuse_overwritten + self.vis_analytic() + self.live
    }

    /// Resolved faults that needed a visibility unit or value-level rule.
    #[must_use]
    pub fn vis_resolved(&self) -> usize {
        self.vis_analytic() + self.vis_live
    }

    /// Attributes one fault's fate to its rule.
    fn tally(&mut self, fate: Fate, flips: &[BitLocation]) {
        let needs_vis = needs_vis(flips);
        let counter = match fate {
            Fate::Opaque => &mut self.opaque,
            Fate::Live { .. } => {
                if needs_vis {
                    self.vis_live += 1;
                }
                &mut self.live
            }
            _ if flips.iter().any(|b| {
                matches!(
                    b,
                    BitLocation::OperandA { .. } | BitLocation::OperandB { .. }
                )
            }) =>
            {
                &mut self.value_resolved
            }
            Fate::Overwritten { .. }
                if flips
                    .iter()
                    .any(|b| matches!(b, BitLocation::SigReg { .. })) =>
            {
                &mut self.sig_overwritten
            }
            Fate::Latent if needs_vis => &mut self.vis_latent,
            Fate::Latent => &mut self.defuse_latent,
            Fate::Overwritten { .. } if needs_vis => &mut self.vis_overwritten,
            Fate::Overwritten { .. } => &mut self.defuse_overwritten,
        };
        *counter += 1;
    }
}

/// `true` when some flip lies outside the def/use units: in a visibility
/// unit, or in state only the value-level rules cover.
fn needs_vis(flips: &[BitLocation]) -> bool {
    flips.iter().any(|b| {
        b.trace_unit()
            .is_none_or(|u| matches!(u, TraceUnit::Vis(_)))
    })
}

/// One action per fault-list index, which carries the class structure
/// needed for replication and paranoid cross-checking.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    actions: Vec<PlanAction>,
    stats: PlanStats,
}

impl CampaignPlan {
    /// A plan that simulates every fault from injection (pruning disabled
    /// or ineligible).
    #[must_use]
    pub fn simulate_all(n: usize) -> Self {
        CampaignPlan {
            actions: vec![PlanAction::Simulate; n],
            stats: PlanStats::default(),
        }
    }

    /// Per-rule planner telemetry for this plan.
    #[must_use]
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The action for fault-list index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the planned fault list.
    #[must_use]
    pub fn action(&self, i: usize) -> PlanAction {
        self.actions[i]
    }

    /// All actions, in fault-list order.
    #[must_use]
    pub fn actions(&self) -> &[PlanAction] {
        &self.actions
    }

    /// Number of faults that will be simulated.
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.count(|a| matches!(a, PlanAction::Simulate))
    }

    /// Number of faults classified analytically.
    #[must_use]
    pub fn analytic(&self) -> usize {
        self.count(|a| matches!(a, PlanAction::Analytic(_)))
    }

    /// Number of faults replicated from a class representative.
    #[must_use]
    pub fn replicated(&self) -> usize {
        self.count(|a| matches!(a, PlanAction::Replicate { .. }))
    }

    fn count(&self, pred: impl Fn(&PlanAction) -> bool) -> usize {
        self.actions.iter().filter(|a| pred(a)).count()
    }

    /// The equivalence classes with at least one replicated member:
    /// `(representative index, member indices)`, ordered by representative.
    #[must_use]
    pub fn classes(&self) -> Vec<(usize, Vec<usize>)> {
        let mut by_rep: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, a) in self.actions.iter().enumerate() {
            if let PlanAction::Replicate { representative } = *a {
                by_rep.entry(representative).or_default().push(i);
            }
        }
        let mut classes: Vec<_> = by_rep.into_iter().collect();
        classes.sort_unstable_by_key(|(rep, _)| *rep);
        classes
    }
}

/// `true` when `cfg` is eligible for planning at all: pruning enabled, a
/// one-shot flip fault model (anything that re-asserts or forces perturbs
/// state the traces do not model), and no parity cache (its checker reads
/// cache data outside the trace hooks).
#[must_use]
pub fn prune_eligible(cfg: &CampaignConfig) -> bool {
    cfg.prune
        && matches!(
            cfg.fault_model,
            FaultModel::SingleBit | FaultModel::AdjacentDoubleBit | FaultModel::Burst { .. }
        )
        && !cfg.loop_cfg.parity_cache
}

/// Plans the campaign: one [`PlanAction`] per fault of `faults`, from the
/// [`resolve`]d fate of each. Live faults form equivalence classes keyed
/// on `(scan-catalog index, live instant, surviving flips)`; the lowest
/// fault index of a class is its representative. The plan is a pure
/// function of the fault list, the configuration and the golden run, so
/// resumed and sharded campaigns recompute the identical plan (and hence
/// identical representatives).
///
/// # Panics
///
/// Panics if a fault's `location_index` is outside the scan catalog.
#[must_use]
pub fn plan_campaign(
    faults: &[FaultSpec],
    cfg: &CampaignConfig,
    golden: &GoldenRun,
) -> CampaignPlan {
    if !prune_eligible(cfg) {
        return CampaignPlan::simulate_all(faults.len());
    }
    let started = std::time::Instant::now();
    let catalog = scan::catalog();
    let mut stats = PlanStats::default();
    let mut class_reps: HashMap<(usize, u64, u64), usize> = HashMap::new();
    let actions = faults
        .iter()
        .enumerate()
        .map(|(i, fault)| {
            let flips: Vec<BitLocation> = cfg
                .fault_model
                .locations(fault.location_index)
                .into_iter()
                .map(|j| catalog[j])
                .collect();
            // A fault scheduled at or past the end of the run is never
            // injected (the drive loop completes first); no trace says
            // anything about it.
            let fate = if fault.inject_at < golden.total_instructions {
                resolve(&flips, fault.inject_at, &golden.trace)
            } else {
                Fate::Opaque
            };
            stats.tally(fate, &flips);
            match fate {
                Fate::Opaque => PlanAction::Simulate,
                Fate::Latent => PlanAction::Analytic(Outcome::Latent),
                Fate::Overwritten { .. } => PlanAction::Analytic(Outcome::Overwritten),
                Fate::Live { at, surviving } => {
                    match class_reps.entry((fault.location_index, at, surviving)) {
                        Entry::Occupied(e) => {
                            if needs_vis(&flips) {
                                stats.vis_replicated += 1;
                            }
                            PlanAction::Replicate {
                                representative: *e.get(),
                            }
                        }
                        Entry::Vacant(e) => {
                            e.insert(i);
                            PlanAction::Simulate
                        }
                    }
                }
            }
        })
        .collect();
    stats.plan_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    CampaignPlan { actions, stats }
}

/// Builds the record of an analytically classified fault. Matches what a
/// simulated run of the same fault produces field-for-field (outcome,
/// zero deviation, no detection, golden outputs), except for the pure
/// provenance metadata (`provenance`, `pruned_at`).
///
/// # Panics
///
/// Panics if `fault.location_index` is outside the scan catalog.
#[must_use]
pub fn analytic_record(
    fault: FaultSpec,
    outcome: Outcome,
    golden: &GoldenRun,
    detail: bool,
) -> ExperimentRecord {
    let location = scan::catalog()[fault.location_index];
    ExperimentRecord {
        fault,
        part: location.part(),
        location,
        outcome,
        max_deviation: 0.0,
        first_strong_iteration: None,
        detection_latency: None,
        outputs: detail.then(|| golden.outputs.clone()),
        pruned_at: None,
        provenance: Provenance::Analytic,
        harness_error: None,
    }
}

/// Builds the record of a replicated class member from its simulated
/// representative. Everything outcome-determined is copied verbatim (the
/// trajectories are identical); the detection latency is re-based from
/// the representative's injection time to the member's — both faults
/// become visible at the same first read, and any trap fires at the same
/// absolute instruction.
#[must_use]
pub fn replicated_record(fault: FaultSpec, rep: &ExperimentRecord) -> ExperimentRecord {
    debug_assert_eq!(
        fault.location_index, rep.fault.location_index,
        "replication across different scan bits is unsound"
    );
    let detection_latency = rep
        .detection_latency
        .map(|l| rep.fault.inject_at + l - fault.inject_at);
    ExperimentRecord {
        fault,
        part: rep.part,
        location: rep.location,
        outcome: rep.outcome,
        max_deviation: rep.max_deviation,
        first_strong_iteration: rep.first_strong_iteration,
        detection_latency,
        outputs: rep.outputs.clone(),
        pruned_at: None,
        provenance: Provenance::Replicated,
        harness_error: None,
    }
}

/// Semantic equality of two records of the *same fault*: everything the
/// simulation determines (outcome, deviation, first strong iteration,
/// detection latency, outputs) must agree bit-for-bit; provenance
/// metadata (`provenance`, `pruned_at`, `harness_error`) is excluded, as
/// it records *how* the classification was obtained, not what it is.
/// This is the equivalence the pruned-vs-unpruned suite and the paranoid
/// cross-check both enforce.
#[must_use]
pub fn records_equivalent(a: &ExperimentRecord, b: &ExperimentRecord) -> bool {
    a.fault == b.fault
        && a.location == b.location
        && a.part == b.part
        && a.outcome == b.outcome
        && a.max_deviation.to_bits() == b.max_deviation.to_bits()
        && a.first_strong_iteration == b.first_strong_iteration
        && a.detection_latency == b.detection_latency
        && a.outputs == b.outputs
}

/// Deterministically picks up to `n` members of an equivalence class for
/// paranoid re-simulation. The choice is *content-addressed*: keyed on
/// the campaign seed, the store's golden digest and the representative's
/// fault spec (never its fault-list position), over a sorted member
/// pool — so two runs of the same campaign, a resumed run, and a CI
/// cross-check all re-simulate exactly the same members regardless of
/// the order in which the class structure was assembled.
#[must_use]
pub fn paranoid_members(
    members: &[usize],
    n: usize,
    seed: u64,
    golden_digest: u64,
    representative: FaultSpec,
) -> Vec<usize> {
    if n == 0 || members.is_empty() {
        return Vec::new();
    }
    let mut picked: Vec<usize> = Vec::new();
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_u64(golden_digest);
    h.write_u64(representative.location_index as u64);
    h.write_u64(representative.inject_at);
    let mut state = h.finish();
    let mut pool: Vec<usize> = members.to_vec();
    pool.sort_unstable();
    while picked.len() < n && !pool.is_empty() {
        // FNV-chained index selection: cheap, deterministic, seed-mixed.
        let mut step = Fnv64::new();
        step.write_u64(state);
        state = step.finish();
        let at = (state as usize) % pool.len();
        picked.push(pool.swap_remove(at));
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::experiment::golden_run;
    use crate::workload::Workload;
    use bera_tcpu::AccessKind;

    fn quick_plan_inputs() -> (CampaignConfig, GoldenRun, Vec<FaultSpec>) {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(64, 5);
        let golden = golden_run(&w, &cfg.loop_cfg);
        let faults =
            crate::campaign::FaultList::sample(64, cfg.seed, golden.total_instructions).faults;
        (cfg, golden, faults)
    }

    #[test]
    fn plan_partitions_the_fault_list() {
        let (cfg, golden, faults) = quick_plan_inputs();
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.actions().len(), faults.len());
        assert_eq!(
            plan.simulated() + plan.analytic() + plan.replicated(),
            faults.len()
        );
        assert!(
            plan.analytic() > 0,
            "a uniform sample over the scan chain always hits state that \
             is overwritten or never used"
        );
    }

    #[test]
    fn representatives_precede_their_members() {
        let (cfg, golden, faults) = quick_plan_inputs();
        let plan = plan_campaign(&faults, &cfg, &golden);
        for (i, a) in plan.actions().iter().enumerate() {
            if let PlanAction::Replicate { representative } = *a {
                assert!(
                    representative < i,
                    "member {i} precedes rep {representative}"
                );
                assert_eq!(plan.action(representative), PlanAction::Simulate);
                assert_eq!(
                    faults[representative].location_index, faults[i].location_index,
                    "a class never spans scan bits"
                );
            }
        }
    }

    #[test]
    fn ineligible_configs_simulate_everything() {
        let (mut cfg, golden, faults) = quick_plan_inputs();
        cfg.fault_model = FaultModel::StuckAt { value: false };
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());

        cfg.fault_model = FaultModel::SingleBit;
        cfg.prune = false;
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());

        cfg.prune = true;
        cfg.loop_cfg.parity_cache = true;
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());
    }

    #[test]
    fn injection_past_the_run_end_is_opaque() {
        let (cfg, golden, mut faults) = quick_plan_inputs();
        for f in &mut faults {
            f.inject_at = golden.total_instructions;
        }
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());
    }

    #[test]
    fn a_partial_write_neither_kills_nor_merges_with_the_full_write_class() {
        // Build a synthetic trace: unit written fully at 100.
        let (cfg, mut golden, _) = quick_plan_inputs();
        let catalog = scan::catalog();
        let loc_index = catalog
            .iter()
            .position(|l| l.trace_unit().is_some())
            .expect("some location is traceable");
        let unit = catalog[loc_index].trace_unit().unwrap();
        golden.trace = AccessTrace::new();
        golden.trace.record(unit, 100, AccessKind::Write, 0);
        let fault = FaultSpec {
            location_index: loc_index,
            inject_at: 50,
        };
        let plan = plan_campaign(&[fault], &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));

        // Narrow the write: the kill evaporates, the fault becomes live.
        golden
            .trace
            .set_kind_for_test(unit, 0, AccessKind::PartialWrite);
        let plan = plan_campaign(&[fault], &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
    }

    #[test]
    fn an_extra_read_defeats_class_merging() {
        let (cfg, mut golden, _) = quick_plan_inputs();
        let catalog = scan::catalog();
        let loc_index = catalog
            .iter()
            .position(|l| l.trace_unit().is_some())
            .expect("some location is traceable");
        let unit = catalog[loc_index].trace_unit().unwrap();
        golden.trace = AccessTrace::new();
        golden.trace.record(unit, 200, AccessKind::Read, 0);
        let faults = [
            FaultSpec {
                location_index: loc_index,
                inject_at: 10,
            },
            FaultSpec {
                location_index: loc_index,
                inject_at: 150,
            },
        ];
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Replicate { representative: 0 });

        // A read between the two injection times splits the class: the
        // earlier fault is now first observed by a different access.
        golden.trace.insert_for_test(
            unit,
            Access {
                at: 100,
                kind: AccessKind::Read,
            },
        );
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Simulate, "class must split");
    }

    #[test]
    fn paranoid_member_choice_is_deterministic_and_bounded() {
        let members = vec![3, 9, 14, 20, 31];
        let rep = FaultSpec {
            location_index: 7,
            inject_at: 123,
        };
        let a = paranoid_members(&members, 3, 42, 0xDEAD, rep);
        let b = paranoid_members(&members, 3, 42, 0xDEAD, rep);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|m| members.contains(m)));
        let all = paranoid_members(&members, 10, 42, 0xDEAD, rep);
        assert_eq!(all.len(), members.len(), "capped at the class size");
        assert!(paranoid_members(&members, 0, 42, 0xDEAD, rep).is_empty());
        // Different seeds generally pick different subsets (not asserted
        // strictly — just that the seed participates).
        let _ = paranoid_members(&members, 3, 43, 0xDEAD, rep);
    }

    #[test]
    fn paranoid_member_choice_is_independent_of_assembly_order() {
        // The pool is sorted internally, so the picks are a function of
        // the class *contents* — not of the iteration order (e.g. a
        // HashMap walk) that produced the member list.
        let rep = FaultSpec {
            location_index: 7,
            inject_at: 123,
        };
        let forward = vec![3, 9, 14, 20, 31];
        let shuffled = vec![20, 3, 31, 9, 14];
        assert_eq!(
            paranoid_members(&forward, 3, 42, 0xDEAD, rep),
            paranoid_members(&shuffled, 3, 42, 0xDEAD, rep),
        );
        // And the golden digest participates: a different workload store
        // cross-checks a different sample.
        assert_ne!(
            paranoid_members(&forward, 2, 42, 0xDEAD, rep),
            paranoid_members(&forward, 2, 42, 0xBEEF, rep),
            "digest must perturb the sample for this fixture"
        );
    }

    fn catalog_index(pred: impl Fn(&BitLocation) -> bool) -> usize {
        scan::catalog()
            .iter()
            .position(pred)
            .expect("catalog holds the requested location")
    }

    #[test]
    fn vis_windows_classify_the_untraceable_population() {
        let (cfg, golden, _) = quick_plan_inputs();
        // PSR bits 2..8 are never consulted by this ISA: latent.
        let psr7 = catalog_index(|l| matches!(l, BitLocation::Psr { bit: 7 }));
        // The trap bookkeeping registers are written only by the (never
        // taken in golden) trap path: latent.
        let epc = catalog_index(|l| matches!(l, BitLocation::Epc { bit: 0 }));
        let faults = [
            FaultSpec {
                location_index: psr7,
                inject_at: 10,
            },
            FaultSpec {
                location_index: epc,
                inject_at: 10,
            },
        ];
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Latent));
        assert_eq!(plan.action(1), PlanAction::Analytic(Outcome::Latent));
        assert_eq!(plan.stats().vis_latent, 2);
    }

    #[test]
    fn signature_faults_use_only_the_write_first_rule() {
        let (cfg, golden, _) = quick_plan_inputs();
        let sig = catalog_index(|l| matches!(l, BitLocation::SigReg { bit: 3 }));
        let sig_slot = golden.trace.accesses(TraceUnit::Vis(VisUnit::Sig));
        assert!(
            !sig_slot.is_empty(),
            "the workload loops, so control transfers zero the signature"
        );
        // Find an injection instant whose first signature event is a
        // write (a control-transfer zeroing): provably overwritten. A
        // `sig` compare's zeroing write trails its same-instant sampling
        // read, so only a write that *leads* its instant qualifies.
        let first_write = sig_slot
            .iter()
            .enumerate()
            .find(|(i, a)| a.kind.is_full_write() && (*i == 0 || sig_slot[i - 1].at < a.at))
            .expect("some transfer zeroes the signature")
            .1
            .at;
        let plan = plan_campaign(
            &[FaultSpec {
                location_index: sig,
                inject_at: first_write,
            }],
            &cfg,
            &golden,
        );
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.stats().sig_overwritten, 1);

        // Past the last event the register is folded to the end of run:
        // no latent claim is sound, so the planner must simulate.
        let last = sig_slot.last().unwrap().at;
        if last + 1 < golden.total_instructions {
            let plan = plan_campaign(
                &[FaultSpec {
                    location_index: sig,
                    inject_at: last + 1,
                }],
                &cfg,
                &golden,
            );
            assert_eq!(plan.action(0), PlanAction::Simulate);
        }
    }

    #[test]
    fn operand_latch_faults_resolve_by_shift_count() {
        let (cfg, golden, _) = quick_plan_inputs();
        let op_a = catalog_index(|l| matches!(l, BitLocation::OperandA { bit: 4 }));
        let op_b = catalog_index(|l| matches!(l, BitLocation::OperandB { bit: 4 }));
        // Early in the run there are plenty of register reads left: both
        // slots are displaced with clean values.
        let early = [
            FaultSpec {
                location_index: op_a,
                inject_at: 5,
            },
            FaultSpec {
                location_index: op_b,
                inject_at: 5,
            },
        ];
        let plan = plan_campaign(&early, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.action(1), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.stats().value_resolved, 2);
        // Past the final shift nothing displaces the latch: latent.
        let last_shift_plus = golden.total_instructions - 1;
        if golden
            .trace
            .nth_shift_at_or_after(last_shift_plus, 0)
            .is_none()
        {
            let plan = plan_campaign(
                &[FaultSpec {
                    location_index: op_a,
                    inject_at: last_shift_plus,
                }],
                &cfg,
                &golden,
            );
            assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Latent));
        }
    }

    #[test]
    fn fetch_valid_faults_always_simulate() {
        let (cfg, golden, _) = quick_plan_inputs();
        let fv = catalog_index(|l| matches!(l, BitLocation::FetchValid));
        let plan = plan_campaign(
            &[FaultSpec {
                location_index: fv,
                inject_at: 10,
            }],
            &cfg,
            &golden,
        );
        assert_eq!(plan.action(0), PlanAction::Simulate);
    }

    #[test]
    fn vis_live_faults_merge_on_the_sampling_position() {
        let (cfg, mut golden, _) = quick_plan_inputs();
        assert!(golden.total_instructions > 300);
        let psr0 = catalog_index(|l| matches!(l, BitLocation::Psr { bit: 0 }));
        // Synthetic windows: a cmp deposits the EQ flag at 100, a branch
        // consults it at 200. Two flips landing inside (100, 200] are
        // first observed by the same consult — one class; a flip before
        // the deposit is erased by it.
        let psr0_unit = TraceUnit::Vis(VisUnit::Psr(0));
        golden.trace = AccessTrace::new();
        golden.trace.record(psr0_unit, 100, AccessKind::Write, 0);
        golden.trace.record(psr0_unit, 200, AccessKind::Read, 0);
        let faults = [
            FaultSpec {
                location_index: psr0,
                inject_at: 150,
            },
            FaultSpec {
                location_index: psr0,
                inject_at: 200,
            },
            FaultSpec {
                location_index: psr0,
                inject_at: 50,
            },
        ];
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Replicate { representative: 0 });
        assert_eq!(plan.action(2), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.stats().vis_replicated, 1);
        assert_eq!(plan.stats().vis_overwritten, 1);

        // Adversarial: one extra EDM sample inside the window splits the
        // class — the earlier fault is now observed by a different read.
        golden.trace.insert_for_test(
            psr0_unit,
            Access {
                at: 170,
                kind: AccessKind::Read,
            },
        );
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Simulate, "class must split");
    }

    // ---------------------------------------------------------------------
    // The resolver on synthetic traces.
    // ---------------------------------------------------------------------

    const REG3_BIT: BitLocation = BitLocation::Reg { index: 3, bit: 5 };
    const REG4_BIT: BitLocation = BitLocation::Reg { index: 4, bit: 0 };
    const PSR1_BIT: BitLocation = BitLocation::Psr { bit: 1 };
    const REG3: TraceUnit = TraceUnit::Reg(3);
    const REG4: TraceUnit = TraceUnit::Reg(4);
    const PSR1: TraceUnit = TraceUnit::Vis(VisUnit::Psr(1));
    const SIG: TraceUnit = TraceUnit::Vis(VisUnit::Sig);

    fn trace_with(entries: &[(TraceUnit, u64, AccessKind)]) -> AccessTrace {
        let mut t = AccessTrace::new();
        for &(u, at, kind) in entries {
            t.record(u, at, kind, 0);
        }
        t
    }

    #[test]
    fn untouched_flips_are_latent() {
        let t = trace_with(&[(REG3, 10, AccessKind::Read)]);
        assert_eq!(resolve(&[REG3_BIT], 11, &t), Fate::Latent);
    }

    #[test]
    fn a_read_is_live_and_a_full_write_kills() {
        let t = trace_with(&[(REG3, 10, AccessKind::Write), (REG3, 20, AccessKind::Read)]);
        assert_eq!(
            resolve(&[REG3_BIT], 5, &t),
            Fate::Overwritten { killed_at: 10 }
        );
        assert_eq!(
            resolve(&[REG3_BIT], 15, &t),
            Fate::Live {
                at: 20,
                surviving: 0b1
            }
        );
    }

    #[test]
    fn a_partial_write_counts_as_a_use() {
        let t = trace_with(&[(REG3, 10, AccessKind::PartialWrite)]);
        assert_eq!(
            resolve(&[REG3_BIT], 5, &t),
            Fate::Live {
                at: 10,
                surviving: 0b1
            }
        );
    }

    #[test]
    fn within_one_instant_the_first_event_decides() {
        // `add r3, r3, r0`: the read observes the flip before the write.
        let read_first = trace_with(&[(REG3, 10, AccessKind::Read), (REG3, 10, AccessKind::Write)]);
        assert!(matches!(
            resolve(&[REG3_BIT], 5, &read_first),
            Fate::Live { at: 10, .. }
        ));
        // The write lands first from clean inputs, so the read sees golden.
        let write_first =
            trace_with(&[(REG3, 10, AccessKind::Write), (REG3, 10, AccessKind::Read)]);
        assert_eq!(
            resolve(&[REG3_BIT], 5, &write_first),
            Fate::Overwritten { killed_at: 10 }
        );
    }

    #[test]
    fn a_multi_unit_fault_shrinks_then_goes_live_with_the_survivors() {
        let t = trace_with(&[(REG3, 10, AccessKind::Write), (REG4, 30, AccessKind::Read)]);
        // r3's flip dies at 10; only r4's (flip 1) survives to the read.
        assert_eq!(
            resolve(&[REG3_BIT, REG4_BIT], 5, &t),
            Fate::Live {
                at: 30,
                surviving: 0b10
            }
        );
        // Both killed: overwritten at the last kill.
        let t = trace_with(&[(REG3, 10, AccessKind::Write), (REG4, 30, AccessKind::Write)]);
        assert_eq!(
            resolve(&[REG3_BIT, REG4_BIT], 5, &t),
            Fate::Overwritten { killed_at: 30 }
        );
    }

    #[test]
    fn a_kill_and_a_use_in_one_instruction_leave_both_flips_live() {
        // One instruction fully writes r3 but reads r4: r4's flip is
        // observed, and r3 still holds its flip until that write retires.
        let t = trace_with(&[(REG3, 10, AccessKind::Write), (REG4, 10, AccessKind::Read)]);
        assert_eq!(
            resolve(&[REG3_BIT, REG4_BIT], 5, &t),
            Fate::Live {
                at: 10,
                surviving: 0b11
            }
        );
    }

    #[test]
    fn a_vis_unit_mixes_with_a_trace_unit() {
        // The register flip dies at 10; the PSR flag is consulted at 30.
        let t = trace_with(&[(REG3, 10, AccessKind::Write), (PSR1, 30, AccessKind::Read)]);
        assert_eq!(
            resolve(&[REG3_BIT, PSR1_BIT], 5, &t),
            Fate::Live {
                at: 30,
                surviving: 0b10
            }
        );
    }

    #[test]
    fn vis_units_resolve_from_the_visibility_trace() {
        // A cmp deposits the flag at 10, a branch consults it at 20.
        let t = trace_with(&[(PSR1, 10, AccessKind::Write), (PSR1, 20, AccessKind::Read)]);
        assert_eq!(
            resolve(&[PSR1_BIT], 5, &t),
            Fate::Overwritten { killed_at: 10 }
        );
        assert!(matches!(
            resolve(&[PSR1_BIT], 15, &t),
            Fate::Live { at: 20, .. }
        ));
        assert_eq!(resolve(&[PSR1_BIT], 21, &t), Fate::Latent);
    }

    #[test]
    fn a_signature_flip_without_write_first_stays_opaque() {
        const SIG_BIT: BitLocation = BitLocation::SigReg { bit: 2 };
        let sig_events = [
            (SIG, 10, AccessKind::Read),
            (SIG, 10, AccessKind::Write),
            (SIG, 20, AccessKind::Write),
        ];
        let mut t = trace_with(&sig_events);
        t.record(REG3, 12, AccessKind::Read, 0);
        // A compare samples the folded value first: no sound claim.
        assert_eq!(resolve(&[SIG_BIT], 5, &t), Fate::Opaque);
        // A transfer zeroes it first: overwritten.
        assert_eq!(
            resolve(&[SIG_BIT], 11, &t),
            Fate::Overwritten { killed_at: 20 }
        );
        // Folded to the end of the run: no latent claim either.
        assert_eq!(resolve(&[SIG_BIT], 21, &t), Fate::Opaque);
        // Another flip goes live while the signature still carries its
        // morphed value: the state is not golden ⊕ flips, so opaque.
        assert_eq!(resolve(&[REG3_BIT, SIG_BIT], 11, &t), Fate::Opaque);
        // Once the zeroing has landed the survivor resumes exactly.
        let mut late_read = trace_with(&sig_events);
        late_read.record(REG3, 25, AccessKind::Read, 0);
        assert_eq!(
            resolve(&[REG3_BIT, SIG_BIT], 11, &late_read),
            Fate::Live {
                at: 25,
                surviving: 0b01
            }
        );
    }

    #[test]
    fn fetch_valid_and_multi_flip_operand_latch_faults_are_opaque() {
        let t = AccessTrace::new();
        assert_eq!(resolve(&[BitLocation::FetchValid], 0, &t), Fate::Opaque);
        let op = BitLocation::OperandA { bit: 0 };
        assert_eq!(resolve(&[op], 0, &t), Fate::Latent);
        assert_eq!(resolve(&[op, REG3_BIT], 0, &t), Fate::Opaque);
    }

    #[test]
    fn multi_bit_classes_key_on_the_survivors_and_the_lowest_index_leads() {
        let (mut cfg, golden, _) = quick_plan_inputs();
        cfg.fault_model = FaultModel::AdjacentDoubleBit;
        let faults = crate::campaign::FaultList::sample(2000, 9, golden.total_instructions).faults;
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert!(plan.analytic() > 0, "double flips resolve analytically too");
        let fate = |i: usize| {
            let flips: Vec<BitLocation> = cfg
                .fault_model
                .locations(faults[i].location_index)
                .into_iter()
                .map(|j| scan::catalog()[j])
                .collect();
            resolve(&flips, faults[i].inject_at, &golden.trace)
        };
        let classes = plan.classes();
        assert!(!classes.is_empty(), "the sample holds a replicated class");
        for (rep, members) in classes {
            assert_eq!(plan.action(rep), PlanAction::Simulate);
            assert!(matches!(fate(rep), Fate::Live { .. }), "a rep is live");
            for m in members {
                assert!(rep < m);
                assert_eq!(faults[rep].location_index, faults[m].location_index);
                assert_eq!(
                    fate(m),
                    fate(rep),
                    "a class shares its instant and survivors"
                );
            }
        }
        for (i, a) in plan.actions().iter().enumerate() {
            if faults[i].inject_at >= golden.total_instructions {
                continue; // never injected: the plan simulates it unresolved
            }
            if let Fate::Live { at, surviving } = fate(i) {
                assert!(matches!(
                    a,
                    PlanAction::Simulate | PlanAction::Replicate { .. }
                ));
                assert!(at >= faults[i].inject_at);
                assert!(surviving != 0 && surviving.count_ones() <= 2);
            }
        }
    }
}
