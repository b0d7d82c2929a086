//! The differential oracle shared by the engine-equivalence suites.
//!
//! Every campaign optimisation — the fate resolver, diff replay,
//! trajectory recall, checkpoints and convergence pruning, the block
//! engine, supervision, resume and the farm — promises the records the
//! plain interpreter yields. The oracle holds that promise in one place.
//! It runs each fault once on the plain reference ([`Point::REFERENCE`]:
//! stride 0, no pruning, scalar interpreter, unsupervised, one thread,
//! full output detail), memoized per test binary, and checks every
//! lattice [`Point`] against it:
//!
//! * each point's records are `planner::records_equivalent` to the
//!   reference's: pruning and checkpoints may change only `provenance`
//!   and `pruned_at`;
//! * points that differ only in byte-preserving axes — fast replay,
//!   supervision, threads, paranoid audits, resume, farm shards, and
//!   pruning where the resolver must bypass the campaign — agree byte for
//!   byte;
//! * the lattice is not vacuous: prune points of sampled flip-model
//!   campaigns produce analytic records, checkpointed points of sampled
//!   one-shot campaigns produce `pruned_at`, resume points preload what
//!   their cut kept.
//!
//! A suite pulls it in with `mod oracle;` and calls [`check`].

#![allow(dead_code)] // each suite uses its own slice of the oracle

use bera_goofi::campaign::{
    prepare_campaign, run_fault_list, run_fault_list_observed, CampaignConfig, CampaignResult,
    FaultList,
};
use bera_goofi::experiment::{golden_run, ExperimentRecord, FaultModel, FaultSpec, Provenance};
use bera_goofi::farm::{init_farm, merge_farm, run_worker, LeasePolicy};
use bera_goofi::observer::{Telemetry, TelemetrySnapshot};
use bera_goofi::planner::{prune_eligible, records_equivalent};
use bera_goofi::store::{load_store, JsonlStore, StoreHeader};
use bera_goofi::supervisor::SupervisorConfig;
use bera_goofi::workload::Workload;
use bera_goofi::Outcome;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Every fault model, with both stuck-at polarities.
pub const MODELS: [FaultModel; 6] = [
    FaultModel::SingleBit,
    FaultModel::AdjacentDoubleBit,
    FaultModel::Intermittent {
        reassert_iterations: 2,
    },
    FaultModel::StuckAt { value: false },
    FaultModel::StuckAt { value: true },
    FaultModel::Burst { width: 3 },
];

/// The scan locations the def/use trace cannot see — PSR flags, the
/// signature register, cache tag/valid/dirty metadata, the store and fill
/// buffers — where classification rides on the EDM-visibility units.
pub fn untraceable_locations() -> Vec<usize> {
    use bera_tcpu::scan::{catalog, BitLocation::*};
    let untraceable = |l: &_| {
        matches!(
            l,
            Psr { .. }
                | SigReg { .. }
                | CacheTag { .. }
                | CacheValid { .. }
                | CacheDirty { .. }
                | StoreBufAddr { .. }
                | StoreBufData { .. }
                | StoreBufValid
                | FillBufAddr { .. }
                | FillBufData { .. }
                | FillBufParity
                | FillBufValid
        )
    };
    (0..catalog().len())
        .filter(|&i| untraceable(&catalog()[i]))
        .collect()
}

/// The faults a campaign injects.
#[derive(Debug, Clone)]
pub enum Faults {
    /// `count` faults sampled with `seed`: the campaign's own fault list.
    Sampled { count: usize, seed: u64 },
    /// A pinned fault list.
    Listed(Vec<FaultSpec>),
}

/// What every point of one check runs: workload, fault model, loop
/// length and faults.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub workload: Workload,
    pub model: FaultModel,
    pub iterations: usize,
    pub parity_cache: bool,
    pub faults: Faults,
}

impl Campaign {
    /// `count` faults sampled with `seed` over a 60-iteration run.
    pub fn sampled(workload: Workload, model: FaultModel, count: usize, seed: u64) -> Self {
        Campaign {
            workload,
            model,
            iterations: 60,
            parity_cache: false,
            faults: Faults::Sampled { count, seed },
        }
    }

    /// A pinned fault list over a 60-iteration run.
    pub fn listed(workload: Workload, model: FaultModel, faults: Vec<FaultSpec>) -> Self {
        let faults = Faults::Listed(faults);
        Campaign {
            faults,
            ..Campaign::sampled(workload, model, 0, 0)
        }
    }

    pub fn iterations(self, iterations: usize) -> Self {
        Campaign { iterations, ..self }
    }

    fn fault_list(&self, total_instructions: u64) -> Vec<FaultSpec> {
        match &self.faults {
            Faults::Sampled { count, seed } => {
                FaultList::sample(*count, *seed, total_instructions).faults
            }
            Faults::Listed(list) => list.clone(),
        }
    }

    /// Names the campaign in failure messages.
    fn label(&self) -> String {
        let faults = match &self.faults {
            Faults::Sampled { count, seed } => format!("{count} faults, seed {seed}"),
            Faults::Listed(list) => format!("{} pinned faults", list.len()),
        };
        let parity = if self.parity_cache { " / parity" } else { "" };
        let (name, model, n) = (self.workload.name(), self.model, self.iterations);
        format!("{name} / {model:?} / {n} iterations{parity} / {faults}")
    }

    fn config(&self, point: &Point) -> CampaignConfig {
        let (count, seed) = match self.faults {
            Faults::Sampled { count, seed } => (count, seed),
            Faults::Listed(_) => (0, 0),
        };
        let mut cfg = CampaignConfig::quick(count, seed);
        cfg.loop_cfg.iterations = self.iterations;
        cfg.loop_cfg.parity_cache = self.parity_cache;
        cfg.loop_cfg.checkpoint_stride = point.stride;
        cfg.loop_cfg.fast_replay = point.fast_replay;
        cfg.fault_model = self.model;
        cfg.prune = point.prune;
        cfg.supervisor = point.supervised.then(SupervisorConfig::default);
        cfg.threads = point.threads;
        cfg.paranoid = point.paranoid;
        cfg.detail = true;
        cfg
    }
}

/// How a point's records come about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Via {
    /// One in-process campaign.
    Direct,
    /// A one-shot campaign streamed into a store (sampled faults only),
    /// then for each `(k, torn)` cut in turn: the store truncated to its
    /// header and first `k` record lines, `torn` bytes torn off the last,
    /// and resumed to completion.
    Resume(&'static [(usize, usize)]),
    /// An in-process farm of this many shards (sampled faults only):
    /// init, one worker, merge. A farm worker runs the manifest's
    /// campaign, which fixes fast replay and supervision on and records
    /// no outputs.
    Farm(usize),
}

/// One lattice point: the engine configuration a campaign runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub prune: bool,
    pub stride: usize,
    pub fast_replay: bool,
    pub supervised: bool,
    pub threads: usize,
    pub paranoid: usize,
    pub via: Via,
}

impl Point {
    /// The plain reference: every fault interpreted from reset.
    pub const REFERENCE: Point = Point {
        prune: false,
        stride: 0,
        fast_replay: false,
        supervised: false,
        threads: 1,
        paranoid: 0,
        via: Via::Direct,
    };

    /// The default engine, every optimisation on.
    pub const DEFAULT: Point = Point {
        prune: true,
        stride: 4,
        fast_replay: true,
        supervised: true,
        ..Point::REFERENCE
    };

    pub const fn prune(self, prune: bool) -> Self {
        Point { prune, ..self }
    }

    pub const fn stride(self, stride: usize) -> Self {
        Point { stride, ..self }
    }

    pub const fn fast_replay(self, on: bool) -> Self {
        Point {
            fast_replay: on,
            ..self
        }
    }

    pub const fn supervised(self, on: bool) -> Self {
        Point {
            supervised: on,
            ..self
        }
    }

    pub const fn threads(self, threads: usize) -> Self {
        Point { threads, ..self }
    }

    pub const fn paranoid(self, paranoid: usize) -> Self {
        Point { paranoid, ..self }
    }

    pub const fn resume(self, cuts: &'static [(usize, usize)]) -> Self {
        let via = Via::Resume(cuts);
        Point { via, ..self }
    }

    pub const fn farm(self, shards: usize) -> Self {
        let via = Via::Farm(shards);
        Point { via, ..self }
    }

    fn detail(&self) -> bool {
        !matches!(self.via, Via::Farm(_))
    }
}

/// One point's outcome.
pub struct Run {
    pub point: Point,
    /// The records; for resume and farm points, as loaded from the final
    /// store.
    pub result: CampaignResult,
    /// The campaign's telemetry (empty for resume and farm points).
    pub telemetry: TelemetrySnapshot,
}

impl Run {
    pub fn count(&self, provenance: Provenance) -> usize {
        let records = self.result.records.iter();
        records.filter(|r| r.provenance == provenance).count()
    }

    pub fn pruned(&self) -> usize {
        let records = self.result.records.iter();
        records.filter(|r| r.pruned_at.is_some()).count()
    }
}

/// Runs `points` on `campaign` and checks them against the plain
/// reference and each other (see the module docs). Returns the runs in
/// `points` order, for a suite's own assertions.
///
/// # Panics
///
/// On any divergence or vacuous point, naming the campaign and point.
pub fn check(campaign: &Campaign, points: &[Point]) -> Vec<Run> {
    let reference = reference(campaign);
    let runs: Vec<Run> = points.iter().map(|p| run(campaign, p)).collect();
    let budget = campaign.model.reassert_budget();
    let resolves = |p: &Point| prune_eligible(&campaign.config(p));
    for (i, run) in runs.iter().enumerate() {
        let (point, records) = (&run.point, &run.result.records);
        let at = format!("{} at {point:?}", campaign.label());
        assert_eq!(records.len(), reference.len(), "{at}: record count");
        for (j, (r, e)) in records.iter().zip(&reference).enumerate() {
            let e = with_outputs(e, point.detail());
            let outputs = if r.outputs == e.outputs {
                "equal"
            } else {
                "differ"
            };
            assert!(
                records_equivalent(r, &e),
                "{at}: fault index {j} diverges from the plain reference (outputs {outputs})\n\
                 point:     {:?}\nreference: {:?}",
                with_outputs(r, false),
                with_outputs(&e, false)
            );
        }

        // Non-vacuity holds for sampled campaigns; a pinned list asserts
        // what it was pinned for itself.
        let sampled = matches!(campaign.faults, Faults::Sampled { .. });
        let analytic = run.count(Provenance::Analytic);
        if resolves(point) {
            assert!(
                analytic > 0 || !sampled,
                "{at}: no fault resolved from the trace"
            );
            assert!(
                records.iter().all(|r| r.provenance != Provenance::Analytic
                    || matches!(r.outcome, Outcome::Latent | Outcome::Overwritten)),
                "{at}: an analytic record claims an outcome the trace cannot prove"
            );
        } else {
            assert_eq!(
                analytic, 0,
                "{at}: a bypassed campaign simulates every fault"
            );
        }
        if point.stride == 0 || budget >= campaign.iterations {
            assert_eq!(
                run.pruned(),
                0,
                "{at}: no checkpoint, or a re-assertion pends"
            );
        } else if budget == 0 && sampled && !resolves(point) {
            assert!(run.pruned() > 0, "{at}: convergence pruning never fired");
        }

        // Byte identity with the first earlier run (or the reference) that
        // differs only in byte-preserving axes.
        let key = |p: &Point| (resolves(p), p.stride);
        let leader = runs[..i]
            .iter()
            .find(|r| key(&r.point) == key(point))
            .map(|r| (&r.result.records[..], r.point.detail()))
            .or_else(|| (key(point) == (false, 0)).then_some((&reference[..], true)));
        if let Some((leader, leader_detail)) = leader {
            let detail = leader_detail && point.detail();
            assert!(
                json(leader, detail) == json(records, detail),
                "{at}: records differ in bytes from a point that differs only in \
                 byte-preserving axes"
            );
        }
    }
    runs
}

/// The plain-reference records of `campaign`'s faults, each computed
/// once per test binary: a sampled list is a prefix of a longer one drawn
/// with the same seed, so such campaigns share the reference work.
fn reference(campaign: &Campaign) -> Vec<ExperimentRecord> {
    type Memo = Mutex<HashMap<(usize, u64), ExperimentRecord>>;
    static MEMOS: OnceLock<Mutex<HashMap<String, Arc<Memo>>>> = OnceLock::new();
    // One memo per campaign up to its sampled length, so campaigns that
    // can share faults share it and others compute in parallel.
    let faults = match &campaign.faults {
        Faults::Sampled { seed, .. } => format!("seed {seed}"),
        Faults::Listed(list) => format!("{list:?}"),
    };
    let (name, model, n) = (
        campaign.workload.name(),
        campaign.model,
        campaign.iterations,
    );
    let key = format!("{name} {model:?} {n} {} {faults}", campaign.parity_cache);
    let memos = MEMOS.get_or_init(Mutex::default);
    let memo = Arc::clone(memos.lock().expect("memo lock").entry(key).or_default());
    let mut memo = memo.lock().expect("reference lock");
    let cfg = campaign.config(&Point::REFERENCE);
    let golden = golden_run(&campaign.workload, &cfg.loop_cfg);
    let faults = campaign.fault_list(golden.total_instructions);
    let spec = |f: &FaultSpec| (f.location_index, f.inject_at);
    let missing: Vec<FaultSpec> = faults
        .iter()
        .filter(|f| !memo.contains_key(&spec(f)))
        .copied()
        .collect();
    let computed = run_fault_list(&campaign.workload, &cfg, &golden, &missing);
    memo.extend(missing.iter().map(spec).zip(computed));
    faults.iter().map(|f| memo[&spec(f)].clone()).collect()
}

fn run(campaign: &Campaign, point: &Point) -> Run {
    let cfg = campaign.config(point);
    let telemetry = Telemetry::new(cfg.faults);
    let result = match point.via {
        Via::Direct => {
            let golden = golden_run(&campaign.workload, &cfg.loop_cfg);
            let faults = campaign.fault_list(golden.total_instructions);
            let records =
                run_fault_list_observed(&campaign.workload, &cfg, &golden, &faults, &telemetry);
            CampaignResult {
                workload: campaign.workload.name().to_string(),
                seed: cfg.seed,
                total_locations: bera_tcpu::scan::catalog().len(),
                total_instructions: golden.total_instructions,
                golden_outputs: golden.outputs,
                golden_speeds: golden.speeds,
                records,
            }
        }
        Via::Resume(cuts) => resume(campaign, &cfg, cuts),
        Via::Farm(shards) => farm(campaign, &cfg, shards),
    };
    let telemetry = telemetry.snapshot();
    let point = *point;
    Run {
        point,
        result,
        telemetry,
    }
}

/// A one-shot run into a store, then one resume per cut: every resumed
/// result and the final store must reproduce the one-shot bytes.
fn resume(campaign: &Campaign, cfg: &CampaignConfig, cuts: &[(usize, usize)]) -> CampaignResult {
    let run_into = |path: &Path, resume: bool| {
        let prepared = prepare_campaign(&campaign.workload, cfg);
        let header = StoreHeader::new(campaign.workload.name(), cfg, prepared.golden());
        let (store, preload) = if resume {
            let (store, loaded) = JsonlStore::open_resume(path, &header).expect("open_resume");
            (store, loaded.records)
        } else {
            (
                JsonlStore::create(path, &header).expect("create store"),
                Vec::new(),
            )
        };
        let records = prepared.run_resumed(preload, &store).records;
        store.finish().expect("finish store");
        json(&records, true)
    };
    let mut path = temp_path("one-shot");
    let one_shot = run_into(&path, false);
    for &(k, torn) in cuts {
        let text = std::fs::read_to_string(&path).expect("read store");
        let mut kept: String = text.lines().take(1 + k).map(|l| format!("{l}\n")).collect();
        kept.truncate(kept.len() - torn);
        let _ = std::fs::remove_file(&path);
        path = temp_path("cut");
        std::fs::write(&path, kept).expect("write cut store");

        let at = format!("{}: a cut at ({k}, {torn})", campaign.label());
        let preloaded = load_store(&path).expect("cut store loads").done();
        assert!(
            preloaded > 0 && preloaded == k - usize::from(torn > 0),
            "{at} preloads {preloaded}"
        );
        assert!(
            run_into(&path, true) == one_shot,
            "{at} resumes to different records"
        );
    }
    let stored = load_store(&path).expect("final store loads");
    let _ = std::fs::remove_file(&path);
    let stored = stored.into_result().expect("final store is complete");
    assert!(
        json(&stored.records, true) == one_shot,
        "the final store differs"
    );
    stored
}

/// An in-process farm: init with `shards`, one worker, merge; returns the
/// merged store.
fn farm(campaign: &Campaign, cfg: &CampaignConfig, shards: usize) -> CampaignResult {
    let name = campaign.workload.name();
    let key = ["alg1", "alg2", "alg3"]
        .into_iter()
        .find(|k| Workload::by_key(k).is_some_and(|w| w.name() == name))
        .expect("the workload has a farm key");
    let root = temp_path("farm");
    init_farm(&root, key, cfg, shards, LeasePolicy::default()).expect("init farm");
    run_worker(&root, "oracle", cfg.threads, &mut |_| {}).expect("worker completes");
    let merged = load_store(&merge_farm(&root).expect("merge completes").path);
    let _ = std::fs::remove_dir_all(&root);
    let merged = merged.expect("merged store loads");
    merged.into_result().expect("merged store is complete")
}

/// `r`, with its outputs cleared unless `detail`.
fn with_outputs(r: &ExperimentRecord, detail: bool) -> ExperimentRecord {
    let outputs = r.outputs.clone().filter(|_| detail);
    ExperimentRecord {
        outputs,
        ..r.clone()
    }
}

/// Serialized records, with outputs cleared unless `detail`.
fn json(records: &[ExperimentRecord], detail: bool) -> Vec<String> {
    let json = |r| serde_json::to_string(&with_outputs(r, detail)).expect("serialize");
    records.iter().map(json).collect()
}

fn temp_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU32 = AtomicU32::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let name = format!("oracle-{}-{tag}-{n}", std::process::id());
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}
