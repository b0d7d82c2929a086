//! Campaign orchestration: fault-list sampling, parallel experiment
//! execution, and the result database.

use crate::classify::Outcome;
use crate::experiment::{
    golden_run, interpreted_end_diff, run_from, ExperimentRecord, FaultModel, FaultSpec, GoldenRun,
    LoopConfig, Provenance, Start,
};
use crate::observer::{CampaignObserver, NullObserver, ObserverSet};
use crate::planner::{
    analytic_record, paranoid_members, plan_campaign, prune_eligible, records_equivalent,
    PlanAction,
};
use crate::supervisor::{run_supervised, SupervisorConfig};
use crate::workload::Workload;
use bera_stats::sampling::UniformSampler;
use bera_tcpu::scan;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration of one SCIFI campaign (GOOFI's set-up phase).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of faults to inject (the paper uses 9290 for Algorithm I and
    /// 2372 for Algorithm II).
    pub faults: usize,
    /// RNG seed for the fault list; campaigns are reproducible.
    pub seed: u64,
    /// The closed-loop workload configuration.
    pub loop_cfg: LoopConfig,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Record full output sequences for every experiment (large!).
    pub detail: bool,
    /// The fault model (single bit-flip by default, as in the paper).
    pub fault_model: FaultModel,
    /// Supervised execution (panic isolation, watchdog, retry-then-
    /// quarantine). `None` runs experiments bare: a panic aborts the
    /// campaign, as a debugging aid.
    pub supervisor: Option<SupervisorConfig>,
    /// Fault-space pruning by the fate resolver (see [`crate::planner`]):
    /// classify faults whose outcome follows from the golden traces
    /// without simulating them, and simulate the rest carried by diff
    /// replay from injection (DESIGN.md §8l). On by default; outcomes are
    /// bit-identical either way (`tests/prune_equivalence.rs`), so this
    /// only trades a planning pass for campaign wall-clock. `false` is the
    /// reference path: every fault is interpreted from injection.
    /// Automatically bypassed for the re-asserting fault models
    /// (intermittent, stuck-at) and parity-cache runs.
    pub prune: bool,
    /// Paranoid audit: re-run up to this many diff-replayed experiments on
    /// the interpreter alone and panic on any record mismatch, compare up
    /// to this many steady-delta jumped runs' end diffs with the
    /// interpreter's, and re-run up to this many runs with a plant-only
    /// stretch and as many with a shifted re-entry from reset, with no
    /// checkpoint decision at all. `0` (the default) disables the audits;
    /// they exist to check the soundness arguments on live campaigns.
    pub paranoid: usize,
}

impl CampaignConfig {
    /// The paper's campaign shape with a configurable fault count.
    #[must_use]
    pub fn paper(faults: usize, seed: u64) -> Self {
        CampaignConfig {
            faults,
            seed,
            loop_cfg: LoopConfig::paper(),
            threads: 0,
            detail: false,
            fault_model: FaultModel::SingleBit,
            supervisor: Some(SupervisorConfig::default()),
            prune: true,
            paranoid: 0,
        }
    }

    /// A small single-threaded campaign over a shortened run, for tests.
    #[must_use]
    pub fn quick(faults: usize, seed: u64) -> Self {
        CampaignConfig {
            faults,
            seed,
            loop_cfg: LoopConfig::short(60),
            threads: 1,
            detail: false,
            fault_model: FaultModel::SingleBit,
            supervisor: Some(SupervisorConfig::default()),
            prune: true,
            paranoid: 0,
        }
    }
}

/// The sampled fault list (location, time) pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultList {
    /// The sampled faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultList {
    /// Samples `n` faults uniformly over the scan catalog and the dynamic
    /// instructions of the golden run.
    #[must_use]
    pub fn sample(n: usize, seed: u64, total_instructions: u64) -> Self {
        let mut sampler = UniformSampler::with_seed(seed);
        let catalog_len = scan::catalog().len();
        let faults = sampler
            .draw_fault_list(n, catalog_len, total_instructions)
            .into_iter()
            .map(|(location_index, inject_at)| FaultSpec {
                location_index,
                inject_at,
            })
            .collect();
        FaultList { faults }
    }
}

/// Everything a campaign produced: per-experiment records plus the golden
/// context needed to interpret them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Workload name ("Algorithm I" / "Algorithm II").
    pub workload: String,
    /// Seed the fault list was drawn with.
    pub seed: u64,
    /// Number of scannable state elements (fault location population).
    pub total_locations: usize,
    /// Dynamic instructions of the golden run (fault time population).
    pub total_instructions: u64,
    /// Golden output bit patterns, one per iteration.
    pub golden_outputs: Vec<u32>,
    /// Golden plant speed trajectory (rpm).
    pub golden_speeds: Vec<f64>,
    /// One record per injected fault.
    pub records: Vec<ExperimentRecord>,
}

impl CampaignResult {
    /// Serialises the full result database as pretty JSON (the analogue of
    /// GOOFI's SQL database dump).
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation fails (it cannot for this type,
    /// but the signature is honest).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

/// A campaign whose golden run and fault list exist but whose experiments
/// have not run yet — the point at which a result store header can be
/// built and an interrupted store validated, before committing to the
/// (expensive) injection phase.
pub struct PreparedCampaign<'w> {
    workload: &'w Workload,
    cfg: CampaignConfig,
    golden: GoldenRun,
    list: FaultList,
}

/// Executes the campaign's set-up phase: golden reference run plus
/// fault-list sampling.
///
/// # Panics
///
/// Panics as [`golden_run`] does, naming [`LoopConfig::iterations`] when
/// it is 0.
#[must_use]
pub fn prepare_campaign<'w>(workload: &'w Workload, cfg: &CampaignConfig) -> PreparedCampaign<'w> {
    let golden = golden_run(workload, &cfg.loop_cfg);
    let list = FaultList::sample(cfg.faults, cfg.seed, golden.total_instructions);
    PreparedCampaign {
        workload,
        cfg: cfg.clone(),
        golden,
        list,
    }
}

impl PreparedCampaign<'_> {
    /// The logged golden reference run.
    #[must_use]
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The sampled fault list.
    #[must_use]
    pub fn faults(&self) -> &[FaultSpec] {
        &self.list.faults
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Runs every experiment and assembles the result database.
    #[must_use]
    pub fn run(self, observer: &dyn CampaignObserver) -> CampaignResult {
        self.run_resumed(Vec::new(), observer)
    }

    /// Runs only the fault indices in `shard` (a farm worker's slice of
    /// the campaign), producing records **byte-identical** to what a full
    /// single-process run would produce for those indices — including
    /// their provenance tags.
    ///
    /// Every record is a function of its own fault and the golden run, so
    /// the shard plans, executes and reports only its own range, preloaded
    /// indices included in the plan: the planning counters `observer`
    /// sees are exactly the range's.
    ///
    /// `completed` follows the [`PreparedCampaign::run_resumed`] contract
    /// (empty, or one slot per fault of the whole campaign); out-of-shard
    /// slots must be `None`. The returned vector has one slot per fault of
    /// the whole campaign with `Some` exactly at the shard's indices.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of bounds for the fault list or
    /// `completed` has the wrong length.
    #[must_use]
    pub fn run_shard(
        &self,
        shard: std::ops::Range<usize>,
        completed: Vec<Option<ExperimentRecord>>,
        observer: &dyn CampaignObserver,
    ) -> Vec<Option<ExperimentRecord>> {
        assert!(
            shard.start <= shard.end && shard.end <= self.list.faults.len(),
            "shard {}..{} out of bounds for a {}-fault campaign",
            shard.start,
            shard.end,
            self.list.faults.len()
        );
        assert!(
            completed.is_empty() || completed.len() == self.list.faults.len(),
            "resume state covers {} faults but the campaign has {}",
            completed.len(),
            self.list.faults.len()
        );
        observer.fault_list_sampled(&self.list.faults);
        run_fault_list_scoped(
            self.workload,
            &self.cfg,
            &self.golden,
            &self.list.faults,
            shard,
            completed,
            observer,
        )
    }

    /// Like [`PreparedCampaign::run`], but skipping fault indices whose
    /// records were already completed by an interrupted run. `completed`
    /// must be empty (fresh campaign) or hold exactly one slot per fault;
    /// `Some` slots are adopted verbatim and do **not** replay their
    /// observer events, `None` slots are executed.
    ///
    /// # Panics
    ///
    /// Panics when `completed` is non-empty but its length does not match
    /// the fault list — that is two different campaigns.
    #[must_use]
    pub fn run_resumed(
        self,
        completed: Vec<Option<ExperimentRecord>>,
        observer: &dyn CampaignObserver,
    ) -> CampaignResult {
        assert!(
            completed.is_empty() || completed.len() == self.list.faults.len(),
            "resume state covers {} faults but the campaign has {}",
            completed.len(),
            self.list.faults.len()
        );
        observer.fault_list_sampled(&self.list.faults);
        let records = run_fault_list_resumed(
            self.workload,
            &self.cfg,
            &self.golden,
            &self.list.faults,
            completed,
            observer,
        );
        // The golden run is no longer needed once the experiments are done:
        // move its logged vectors into the result instead of cloning them.
        let GoldenRun {
            outputs: golden_outputs,
            speeds: golden_speeds,
            total_instructions,
            ..
        } = self.golden;
        let result = CampaignResult {
            workload: self.workload.name().to_string(),
            seed: self.cfg.seed,
            total_locations: scan::catalog().len(),
            total_instructions,
            golden_outputs,
            golden_speeds,
            records,
        };
        observer.campaign_completed(&result);
        result
    }
}

/// Runs a full SCIFI campaign: golden run, fault-list sampling, then one
/// experiment per fault (in parallel across threads).
#[must_use]
pub fn run_scifi_campaign(workload: &Workload, cfg: &CampaignConfig) -> CampaignResult {
    run_scifi_campaign_observed(workload, cfg, &NullObserver)
}

/// Like [`run_scifi_campaign`], reporting every life-cycle event to
/// `observer` (streaming store, telemetry, progress displays).
#[must_use]
pub fn run_scifi_campaign_observed(
    workload: &Workload,
    cfg: &CampaignConfig,
    observer: &dyn CampaignObserver,
) -> CampaignResult {
    prepare_campaign(workload, cfg).run(observer)
}

/// Runs an explicit fault list (used by ablations and figure scripts).
#[must_use]
pub fn run_fault_list(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
) -> Vec<ExperimentRecord> {
    run_fault_list_observed(workload, cfg, golden, faults, &NullObserver)
}

/// Like [`run_fault_list`], reporting every life-cycle event to `observer`.
#[must_use]
pub fn run_fault_list_observed(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
    observer: &dyn CampaignObserver,
) -> Vec<ExperimentRecord> {
    run_fault_list_resumed(workload, cfg, golden, faults, Vec::new(), observer)
}

/// Runs the fault indices of `faults` whose `completed` slot is `None`
/// (all of them when `completed` is empty), reporting events to
/// `observer`; pre-completed records are adopted without re-execution.
///
/// Execution is plan-driven ([`plan_campaign`]): analytically classified
/// faults are emitted up front without touching the simulator, and
/// plan-`Simulate` indices go through the (possibly parallel) experiment
/// scheduler.
fn run_fault_list_resumed(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
    completed: Vec<Option<ExperimentRecord>>,
    observer: &dyn CampaignObserver,
) -> Vec<ExperimentRecord> {
    let scope = 0..faults.len();
    run_fault_list_scoped(workload, cfg, golden, faults, scope, completed, observer)
        .into_iter()
        .map(|slot| slot.expect("every fault index was run or preloaded"))
        .collect()
}

/// Runs fault `i` from injection: under diff replay when the campaign
/// prunes (one-shot flip models without a parity cache), on the
/// interpreter otherwise. The experiment runs supervised (panic isolation,
/// watchdog, retry, quarantine) when the config carries a
/// [`SupervisorConfig`], bare otherwise.
fn run_planned(
    i: usize,
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
    observer: &dyn CampaignObserver,
) -> ExperimentRecord {
    let fault = faults[i];
    let start = if prune_eligible(cfg) {
        Start::Replay
    } else {
        Start::Injection
    };
    let run = |start, deadline| {
        run_from(
            workload,
            &cfg.loop_cfg,
            golden,
            fault,
            cfg.fault_model,
            cfg.detail,
            i,
            observer,
            start,
            deadline,
        )
    };
    match &cfg.supervisor {
        Some(sup) => run_supervised(fault, i, start, observer, sup, run),
        None => run(start, None).expect("no deadline was set"),
    }
}

/// The scoped engine behind [`run_fault_list_resumed`] (full scope) and
/// [`PreparedCampaign::run_shard`] (a farm worker's slice). Only the
/// in-scope indices are planned, executed, reported and filled.
fn run_fault_list_scoped(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
    scope: std::ops::Range<usize>,
    completed: Vec<Option<ExperimentRecord>>,
    observer: &dyn CampaignObserver,
) -> Vec<Option<ExperimentRecord>> {
    let mut slots: Vec<Option<ExperimentRecord>> = if completed.is_empty() {
        let mut v = Vec::new();
        v.resize_with(faults.len(), || None);
        v
    } else {
        completed
    };
    // The paranoid audit also checks the end diffs of the runs diff replay
    // ended by the steady-delta jump, and the runs with a plant-only
    // stretch or a shifted re-entry.
    let pools = AuditPools::default();
    let mut audited = ObserverSet::new();
    audited.push(observer);
    audited.push(&pools);
    let observer: &dyn CampaignObserver = if cfg.paranoid > 0 { &audited } else { observer };
    let plan = plan_campaign(&faults[scope.clone()], cfg, golden);
    let stats = plan.stats();
    observer.plan_computed(&stats);
    observer.batch_admission(stats.opaque, stats.vis_resolved());
    // Plan-`Simulate` in-scope indices.
    let simulate = |i: usize| {
        scope.contains(&i) && matches!(plan.action(i - scope.start), PlanAction::Simulate)
    };

    // Analytic records first: they cost nothing and leave the work list
    // below with simulations only.
    for (i, action) in scope.clone().zip(plan.actions()) {
        if slots[i].is_some() {
            continue;
        }
        if let PlanAction::Analytic(outcome) = *action {
            let record = analytic_record(faults[i], outcome, golden, cfg.detail);
            observer.experiment_classified(i, &record);
            slots[i] = Some(record);
        }
    }

    // The simulated residue in golden-time order: consecutive runs restore
    // from the same or the next checkpoint, so the arena machine copies
    // only the words golden changed in between, and diff replay's trace
    // cursors move forward a short way. Records land in their index slots,
    // so the order shows only in a one-thread store's line order.
    let mut order: Vec<usize> = scope
        .clone()
        .filter(|&i| slots[i].is_none() && simulate(i))
        .collect();
    order.sort_unstable_by_key(|&i| (faults[i].inject_at, i));
    let run_index = |i: usize| run_planned(i, workload, cfg, golden, faults, observer);
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        cfg.threads
    };
    if threads <= 1 || order.len() < 2 {
        for &i in &order {
            crate::fp_nofail!("campaign.claim");
            slots[i] = Some(run_index(i));
        }
    } else {
        // Dynamic work distribution: experiment run times vary by orders of
        // magnitude (a detected fault traps within microseconds, a hang burns
        // the whole instruction cap), so static chunking leaves threads idle
        // behind the slowest chunk. Each worker instead claims the next
        // entry of the work list from a shared atomic counter and records
        // the index with its result, so the merged record order is exactly
        // the fault-list order regardless of which worker ran what. Each
        // worker's own runs still start in golden-time order.
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let order = &order;
                    let run_index = &run_index;
                    scope.spawn(move || {
                        let mut ran = Vec::new();
                        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                            // A `panic` here kills the worker with claims
                            // in flight (the self-heal path); a `crash`
                            // kills the process mid-campaign.
                            crate::fp_nofail!("campaign.claim");
                            ran.push((i, run_index(i)));
                        }
                        ran
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(ran) => {
                        for (i, record) in ran {
                            slots[i] = Some(record);
                        }
                    }
                    // The supervisor contains per-experiment failures, so a
                    // worker can only die of something outside an experiment
                    // (or of supervision being disabled). Unsupervised runs
                    // propagate the panic as before; supervised campaigns
                    // self-heal below by re-running the lost claims serially.
                    Err(payload) => {
                        if cfg.supervisor.is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
            }
        });
        if cfg.supervisor.is_some() {
            // A crash here models dying after workers died but before
            // their lost claims were re-run: the store keeps every record
            // that classified, and the claims stay a resumable gap.
            crate::fp_nofail!("campaign.self-heal");
            for &i in &order {
                if slots[i].is_none() {
                    slots[i] = Some(run_index(i));
                }
            }
        }
    }

    // Paranoid audit: re-run sampled replayed experiments on the
    // interpreter alone and demand the same record. Observer-silent — the
    // checks are audits, not campaign work.
    if cfg.paranoid > 0 && prune_eligible(cfg) {
        let golden_digest = golden.digest();
        let simulated: Vec<usize> = scope.clone().filter(|&i| simulate(i)).collect();
        // Anchored on the fault list's first fault, so the choice is a
        // function of the campaign's content and the scope alone.
        let anchor = faults.first().copied().unwrap_or(FaultSpec {
            location_index: 0,
            inject_at: 0,
        });
        for i in paranoid_members(&simulated, cfg.paranoid, cfg.seed, golden_digest, anchor) {
            let Some(replayed) = slots[i].as_ref().filter(|r| {
                r.provenance == Provenance::Simulated
                    && !matches!(r.outcome, Outcome::HarnessFailure(_))
            }) else {
                continue; // preloaded or quarantined
            };
            let interpreted = run_from(
                workload,
                &cfg.loop_cfg,
                golden,
                faults[i],
                cfg.fault_model,
                cfg.detail,
                i,
                &NullObserver,
                Start::Injection,
                None,
            )
            .expect("no deadline was set");
            assert!(
                records_equivalent(&interpreted, replayed)
                    && interpreted.pruned_at == replayed.pruned_at,
                "paranoid replay audit failed at fault index {i}: interpreted \
                 {interpreted:?} disagrees with replayed {replayed:?}"
            );
        }
        let AuditPools {
            steady,
            plant_only,
            shifted,
        } = pools;
        // The boundary decision's plant-only and shifted arms, against the
        // interpreter alone: from reset, with no decision at all.
        let arms = [("plant-only", plant_only), ("shifted re-entry", shifted)];
        for (arm, pool) in arms {
            let pool = pool.into_inner().expect("no audit observer panics");
            let pool: Vec<usize> = pool.into_iter().collect();
            for i in paranoid_members(&pool, cfg.paranoid, cfg.seed, golden_digest, anchor) {
                let Some(decided) = slots[i]
                    .as_ref()
                    .filter(|r| !matches!(r.outcome, Outcome::HarnessFailure(_)))
                else {
                    continue; // quarantined
                };
                let interpreted = run_from(
                    workload,
                    &cfg.loop_cfg,
                    golden,
                    faults[i],
                    cfg.fault_model,
                    cfg.detail,
                    i,
                    &NullObserver,
                    Start::Reset,
                    None,
                )
                .expect("no deadline was set");
                assert!(
                    records_equivalent(&interpreted, decided),
                    "paranoid {arm} audit failed at fault index {i}: interpreted \
                     {interpreted:?} disagrees with {decided:?}"
                );
            }
        }
        // A wrong delta that stays latent leaves the record as it was, so
        // the jumped runs' end diffs are audited themselves.
        let ends = steady.into_inner().expect("no audit observer panics");
        let jumped: Vec<usize> = ends.keys().copied().collect();
        for i in paranoid_members(&jumped, cfg.paranoid, cfg.seed, golden_digest, anchor) {
            let interpreted =
                interpreted_end_diff(&cfg.loop_cfg, golden, faults[i], cfg.fault_model);
            assert!(
                interpreted.as_ref() == Some(&ends[&i]),
                "paranoid steady-delta audit failed at fault index {i}: the \
                 interpreter ends {interpreted:?}, the jumped replay {:?}",
                ends[&i]
            );
        }
    }

    slots
}

/// What the paranoid audit draws from, by fault index: the end diffs of
/// the runs diff replay ended by the steady-delta jump, and the runs with
/// a plant-only stretch or a shifted re-entry.
#[derive(Default)]
struct AuditPools {
    steady: Mutex<HashMap<usize, Vec<(u32, u32)>>>,
    plant_only: Mutex<BTreeSet<usize>>,
    shifted: Mutex<BTreeSet<usize>>,
}

impl CampaignObserver for AuditPools {
    fn replay_steady(&self, index: usize, end: &[(u32, u32)]) {
        let mut ends = self.steady.lock().expect("no audit observer panics");
        ends.insert(index, end.to_vec());
    }

    fn plant_only(&self, index: usize, _iterations: usize) {
        let mut runs = self.plant_only.lock().expect("no audit observer panics");
        runs.insert(index);
    }

    fn shifted_reentry(&self, index: usize) {
        let mut runs = self.shifted.lock().expect("no audit observer panics");
        runs.insert(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Outcome;

    #[test]
    #[should_panic(expected = "LoopConfig::iterations must be at least 1")]
    fn zero_iterations_are_refused_by_name() {
        let cfg = CampaignConfig {
            loop_cfg: LoopConfig::short(0),
            ..CampaignConfig::paper(10, 1)
        };
        let _ = prepare_campaign(&Workload::algorithm_one(), &cfg);
    }

    #[test]
    fn fault_list_is_reproducible() {
        let a = FaultList::sample(100, 7, 30_000);
        let b = FaultList::sample(100, 7, 30_000);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 100);
        let catalog_len = scan::catalog().len();
        assert!(a
            .faults
            .iter()
            .all(|f| f.location_index < catalog_len && f.inject_at < 30_000));
    }

    #[test]
    fn quick_campaign_classifies_every_fault() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(40, 11);
        let r = run_scifi_campaign(&w, &cfg);
        assert_eq!(r.records.len(), 40);
        assert_eq!(r.golden_outputs.len(), 60);
        // Every record has a definite outcome; sanity: not everything can
        // be overwritten.
        let overwritten = r
            .records
            .iter()
            .filter(|rec| rec.outcome == Outcome::Overwritten)
            .count();
        assert!(overwritten < 40);
    }

    /// Records `(thread, index, inject_at)` of every simulated run's start.
    #[derive(Default)]
    struct Starts(Mutex<Vec<(std::thread::ThreadId, usize, u64)>>);

    impl CampaignObserver for Starts {
        fn experiment_started(&self, index: usize, fault: FaultSpec, _: Option<usize>) {
            let me = std::thread::current().id();
            self.0.lock().unwrap().push((me, index, fault.inject_at));
        }
    }

    impl Starts {
        /// Asserts every thread started its runs in golden-time order, and
        /// returns how many runs started.
        fn assert_time_ordered(self) -> usize {
            let starts = self.0.into_inner().unwrap();
            let mut by_thread: HashMap<_, Vec<_>> = HashMap::new();
            for (thread, index, at) in &starts {
                by_thread.entry(thread).or_default().push((at, index));
            }
            for runs in by_thread.values() {
                assert!(
                    runs.windows(2).all(|w| w[0] <= w[1]),
                    "runs must start in golden-time order: {runs:?}"
                );
            }
            starts.len()
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let w = Workload::algorithm_one();
        let mut cfg = CampaignConfig::quick(24, 3);
        cfg.threads = 1;
        let starts = Starts::default();
        let serial = run_scifi_campaign_observed(&w, &cfg, &starts);
        let simulated = starts.assert_time_ordered();
        cfg.threads = 4;
        let starts = Starts::default();
        let parallel = run_scifi_campaign_observed(&w, &cfg, &starts);
        assert_eq!(starts.assert_time_ordered(), simulated);
        assert!(simulated >= 2, "the order check needs simulated runs");
        assert_eq!(
            serde_json::to_string(&serial.records).unwrap(),
            serde_json::to_string(&parallel.records).unwrap(),
            "sharding must not change results"
        );
    }

    #[test]
    fn json_export_roundtrips() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(5, 1);
        let r = run_scifi_campaign(&w, &cfg);
        let json = r.to_json().unwrap();
        let back: CampaignResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records.len(), 5);
        assert_eq!(back.workload, "Algorithm I");
    }
}
