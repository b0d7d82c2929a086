//! `bera-bench`: runs one campaign workload for a fixed wall-clock budget
//! and prints one JSON result line on stdout (human-readable detail goes
//! to stderr).
//!
//! ```text
//! bera-bench --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! A run is a closed loop: one campaign in flight at a time, each started
//! when the previous one finished, after one untimed warm-up campaign.
//! The calibration kernel ([`Kernel`]) is timed between campaigns.
//! With `--trace 0` every campaign is timed with tracing off and the line
//! carries the end-to-end metrics. With `--trace 1` untraced and traced
//! campaigns alternate and the line carries the per-layer metrics. Either
//! way every campaign's records are checked (see [`Gate`]), and a failed
//! check exits non-zero naming the workload and the first bad fault index.

use bera_campaign_bench::counters::{self, Counters};
use bera_campaign_bench::kernel::{reference_seconds, Kernel};
use bera_campaign_bench::report::Report;
use bera_campaign_bench::spec::{DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use bera_campaign_bench::stats;
use bera_campaign_bench::trace::{Recorder, SpanTree};
use bera_goofi::campaign::{prepare_campaign, CampaignConfig, PreparedCampaign};
use bera_goofi::classify::Outcome;
use bera_goofi::experiment::{
    golden_run, run_experiment_with_model, ExperimentRecord, FaultModel, LoopConfig, Provenance,
};
use bera_goofi::farm::{init_farm, merge_farm, run_worker, segment_path, LeasePolicy};
use bera_goofi::observer::{CampaignObserver, NullObserver, Telemetry, TelemetrySnapshot};
use bera_goofi::planner::{plan_campaign, records_equivalent, PlanAction};
use bera_goofi::store::{encode_record, load_store};
use bera_goofi::table::tabulate;
use bera_goofi::workload::Workload;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: bera-bench --workload alg1-single|alg2-double \
                     [--seed S] [--seconds N] [--trace 0|1]";

/// Shards the farm check splits its campaign into, and the worker threads
/// that claim them.
const FARM_SHARDS: usize = 8;
const FARM_WORKERS: usize = 2;

/// Fault indices, at a fixed stride over the fault list, that the
/// correctness gate re-runs from reset.
const REFERENCE_SAMPLE: usize = 256;

/// The counters recorded at [`DEFAULT_SEED`], one entry per workload.
const COUNTERS_BASELINE: &str = include_str!("../counters.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed expects an unsigned integer: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds expects a non-negative number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One workload: its campaign and how it runs.
struct Bench {
    name: &'static str,
    /// Workload key for `Workload::by_key` and the farm manifest.
    key: &'static str,
    workload: Workload,
    cfg: CampaignConfig,
    /// Whether the run ends with the farm check: the same campaign, run
    /// untimed as a farm, must reproduce the records byte for byte.
    farm: bool,
}

impl Bench {
    /// The workload called `name`, with its fault list drawn from `seed`.
    /// Both run 650-iteration paper campaigns on one thread with the
    /// program's default settings; they differ in algorithm, fault model,
    /// size and execution path (see the README for why each was chosen).
    fn new(name: &str, seed: u64) -> Option<Self> {
        let (key, faults, model, farm) = match name {
            "alg1-single" => ("alg1", 9290, FaultModel::SingleBit, true),
            "alg2-double" => ("alg2", 6000, FaultModel::AdjacentDoubleBit, false),
            _ => return None,
        };
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        let mut cfg = CampaignConfig::paper(faults, seed);
        cfg.threads = 1;
        cfg.fault_model = model;
        Some(Bench {
            name,
            key,
            workload: Workload::by_key(key)?,
            cfg,
            farm,
        })
    }

    fn prepare(&self) -> PreparedCampaign<'_> {
        prepare_campaign(&self.workload, &self.cfg)
    }
}

/// One finished campaign.
struct Rep {
    /// Set-up through table, seconds.
    campaign_s: f64,
    /// `prepare_campaign`, seconds.
    setup_s: f64,
    records: Vec<ExperimentRecord>,
    /// The benchmark's call spans; index `run` is the
    /// `PreparedCampaign::run` container.
    tree: SpanTree,
    run: usize,
}

/// Runs one campaign: `prepare_campaign` + `PreparedCampaign::run` +
/// `tabulate`, with span times in seconds since `origin`.
fn run_rep(b: &Bench, observer: &dyn CampaignObserver, origin: Instant) -> Rep {
    let at = |t: Instant| t.duration_since(origin).as_secs_f64();
    let t0 = Instant::now();
    let prepared = b.prepare();
    let t1 = Instant::now();
    let result = prepared.run(observer);
    let t2 = Instant::now();
    black_box(tabulate(&result));
    let t3 = Instant::now();
    let mut tree = SpanTree::new(at(t0), at(t3));
    tree.add(0, "setup", None, at(t0), at(t1));
    let run = tree.add(0, "run", None, at(t1), at(t2));
    tree.add(0, "table", None, at(t2), at(t3));
    Rep {
        campaign_s: at(t3) - at(t0),
        setup_s: at(t1) - at(t0),
        records: result.records,
        tree,
        run,
    }
}

/// Runs one campaign that also records the engine's events and turns
/// them into layer spans, on the same time origin as its call spans.
fn traced_rep(b: &Bench) -> Rep {
    let origin = Instant::now();
    let recorder = Recorder::new(origin);
    let mut rep = run_rep(b, &recorder, origin);
    rep.tree.add_events(rep.run, &recorder.into_events());
    rep
}

/// The campaign run as a farm: `init_farm` + [`FARM_WORKERS`] concurrent
/// `run_worker` calls + `merge_farm` + `load_store` + `tabulate`.
struct FarmRep {
    records: Vec<ExperimentRecord>,
    /// The call spans (`run_worker` takes no observer).
    tree: SpanTree,
    /// Bytes of all shard segments.
    segment_bytes: u64,
}

fn farm_rep(b: &Bench, dir: &Path) -> Result<FarmRep, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing the farm directory: {e}"))?;
    }
    let origin = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_secs_f64();
    init_farm(dir, b.key, &b.cfg, FARM_SHARDS, LeasePolicy::default())
        .map_err(|e| format!("init_farm: {e}"))?;
    let t1 = Instant::now();
    let workers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..FARM_WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let start = Instant::now();
                    run_worker(dir, &format!("w{w}"), 1, &mut |_| {})
                        .map(|_| (start, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a farm worker thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    });
    let t2 = Instant::now();
    let workers = workers.map_err(|e| format!("run_worker: {e}"))?;
    let merged = merge_farm(dir).map_err(|e| format!("merge_farm: {e}"))?;
    let t3 = Instant::now();
    let result = load_store(&merged.path)
        .and_then(bera_goofi::store::LoadedCampaign::into_result)
        .map_err(|e| format!("load_store: {e}"))?;
    let t4 = Instant::now();
    black_box(tabulate(&result));
    let t5 = Instant::now();

    let mut tree = SpanTree::new(0.0, at(t5));
    tree.add(0, "farm.init", None, 0.0, at(t1));
    for (start, end) in workers {
        tree.add(0, "farm.worker", None, at(start), at(end));
    }
    tree.add(0, "farm.merge", None, at(t2), at(t3));
    tree.add(0, "store.load", None, at(t3), at(t4));
    tree.add(0, "table", None, at(t4), at(t5));
    let mut segment_bytes = 0;
    for shard in 0..FARM_SHARDS {
        segment_bytes += std::fs::metadata(segment_path(dir, shard))
            .map_err(|e| format!("sizing a segment: {e}"))?
            .len();
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing the farm directory: {e}"))?;
    Ok(FarmRep {
        records: result.records,
        tree,
        segment_bytes,
    })
}

/// The correctness gate. Every campaign must reproduce the warm-up's
/// records exactly (same semantic digest); the warm-up's records must
/// match a from-reset re-run of a fixed stride sample; where the workload
/// has the farm check, the farm's merged records must equal the
/// single-process ones byte for byte.
struct Gate {
    reference: Vec<ExperimentRecord>,
    digest: u64,
    failure: Option<String>,
}

impl Gate {
    fn new(reference: Vec<ExperimentRecord>) -> Self {
        let digest = counters::records_digest(&reference);
        Gate {
            reference,
            digest,
            failure: None,
        }
    }

    fn fail(&mut self, message: String) {
        self.failure.get_or_insert(message);
    }

    /// Checks a later campaign's records against the warm-up's.
    fn check_rep(&mut self, rep: usize, records: &[ExperimentRecord]) {
        if self.failure.is_some() || counters::records_digest(records) == self.digest {
            return;
        }
        let index = first_difference(&self.reference, records, |_, a, b| records_equivalent(a, b));
        self.fail(format!(
            "campaign {rep} disagrees with the warm-up campaign: first bad fault index {index}"
        ));
    }

    /// Re-runs every `len / REFERENCE_SAMPLE`-th fault from reset, against
    /// a golden run without checkpoints: no planner, batch, visibility,
    /// arena or convergence splice on that path.
    fn check_from_reset(&mut self, b: &Bench, prepared: &PreparedCampaign<'_>) {
        let faults = prepared.faults();
        let reset_loop = LoopConfig {
            checkpoint_stride: 0,
            ..b.cfg.loop_cfg.clone()
        };
        let golden = golden_run(&b.workload, &reset_loop);
        let stride = (faults.len() / REFERENCE_SAMPLE).max(1);
        for i in (0..faults.len()).step_by(stride).take(REFERENCE_SAMPLE) {
            let fresh = run_experiment_with_model(
                &b.workload,
                &reset_loop,
                &golden,
                faults[i],
                b.cfg.fault_model,
                b.cfg.detail,
            );
            if self
                .reference
                .get(i)
                .is_none_or(|r| !records_equivalent(&fresh, r))
            {
                self.fail(format!(
                    "first bad fault index {i}: its record differs from a from-reset re-run"
                ));
                return;
            }
        }
    }

    /// Compares the farm's merged records with the single-process ones,
    /// provenance included (store encodings must match).
    fn check_farm(&mut self, farm: &[ExperimentRecord]) {
        let index = first_difference(&self.reference, farm, |i, a, b| {
            encode_record(i, a) == encode_record(i, b)
        });
        if index < self.reference.len().max(farm.len()) {
            self.fail(format!(
                "first bad fault index {index}: the merged farm record differs from \
                 the single-process record"
            ));
        }
    }
}

/// The first index at which `same` fails, or where one list runs out;
/// the common length when the lists agree entirely.
fn first_difference(
    a: &[ExperimentRecord],
    b: &[ExperimentRecord],
    same: impl Fn(usize, &ExperimentRecord, &ExperimentRecord) -> bool,
) -> usize {
    a.iter()
        .zip(b)
        .enumerate()
        .position(|(i, (x, y))| !same(i, x, y))
        .unwrap_or(a.len().min(b.len()))
}

fn quarantined(records: &[ExperimentRecord]) -> u64 {
    records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::HarnessFailure(_)))
        .count() as u64
}

/// The exact work counters of one campaign, from its plan, golden run,
/// telemetry and records.
fn work_counters(
    prepared: &PreparedCampaign<'_>,
    t: &TelemetrySnapshot,
    records: &[ExperimentRecord],
    store_bytes: u64,
) -> Counters {
    let plan = plan_campaign(prepared.faults(), prepared.config(), prepared.golden());
    let actions =
        |f: fn(&PlanAction) -> bool| plan.actions().iter().filter(|a| f(a)).count() as u64;
    let simulated = || {
        records
            .iter()
            .filter(|r| r.provenance == Provenance::Simulated)
    };
    let n = |v: usize| v as u64;
    vec![
        ("golden.instructions", prepared.golden().total_instructions),
        ("golden.checkpoints", n(prepared.golden().checkpoints.len())),
        (
            "planner.analytic",
            actions(|a| matches!(a, PlanAction::Analytic(_))),
        ),
        (
            "planner.replicated",
            actions(|a| matches!(a, PlanAction::Replicate { .. })),
        ),
        (
            "planner.simulate",
            actions(|a| matches!(a, PlanAction::Simulate)),
        ),
        ("batch.members", n(t.batch_members)),
        ("batch.resolved", n(t.batch_members - t.split_offs)),
        ("batch.split_offs", n(t.split_offs)),
        ("batch.rejected", n(t.batch_untraceable)),
        ("restore.n", n(t.arena_restores + t.arena_full_clones)),
        ("restore.words", t.arena_dirty_words),
        ("restore.full_clones", n(t.arena_full_clones)),
        ("machine.instructions", t.sim_instructions),
        ("machine.block_instructions", t.block_instructions),
        (
            "machine.splices",
            n(simulated().filter(|r| r.pruned_at.is_some()).count()),
        ),
        ("experiment.n", n(simulated().count())),
        ("supervisor.retries", n(t.retried)),
        ("supervisor.quarantined", quarantined(records)),
        ("store.bytes", store_bytes),
        ("records.digest", counters::records_digest(records)),
    ]
}

fn counter(counters: &Counters, name: &str) -> f64 {
    counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer times of one traced campaign.
fn layer_times(tree: &SpanTree, golden_s: f64) -> Vec<(&'static str, f64)> {
    let experiment_us: Vec<f64> = tree
        .durations("experiment")
        .iter()
        .map(|d| d * 1e6)
        .collect();
    vec![
        ("golden.s", golden_s),
        ("planner.s", tree.layer_self("planner")),
        ("batch.s", tree.layer_self("batch")),
        ("restore.s", tree.layer_self("restore")),
        ("machine.ff_s", tree.layer_self("machine.ff")),
        ("machine.drive_s", tree.layer_self("machine.drive")),
        ("classify.s", tree.layer_self("classify")),
        ("experiment.p50_us", stats::median(&experiment_us)),
        (
            "experiment.p99_us",
            stats::tail(&experiment_us, 0.99).unwrap_or(0.0),
        ),
        ("replicate.s", tree.layer_self("replicate")),
        ("table.s", tree.layer_self("table")),
        ("ledger.unattributed_frac", tree.unattributed_frac()),
    ]
}

/// The per-layer times of the farm check; all 0 for a workload without
/// one.
fn farm_times(farm: Option<&SpanTree>) -> Vec<(&'static str, f64)> {
    let layer = |name| farm.map_or(0.0, |t| t.layer_self(name));
    let workers = farm.map_or_else(Vec::new, |t| t.durations("farm.worker"));
    let worker_max = workers.iter().copied().fold(0.0, f64::max);
    let worker_min = workers.iter().copied().reduce(f64::min).unwrap_or(0.0);
    // The slowest worker sets the farm's time; imbalance is how much
    // longer it ran than the fastest.
    let imbalance = if worker_min > 0.0 {
        worker_max / worker_min - 1.0
    } else {
        0.0
    };
    vec![
        ("farm.init_s", layer("farm.init")),
        ("farm.worker_s.max", worker_max),
        ("farm.worker_s.min", worker_min),
        ("farm.imbalance", imbalance),
        ("farm.merge_s", layer("farm.merge")),
        ("store.load_s", layer("store.load")),
    ]
}

/// Peak resident set size of this process in MiB: `getrusage`'s
/// `ru_maxrss`, Linux's high-water mark (VmHWM). Each run measures
/// one workload in a fresh process, so the mark needs no reset.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` has the size and layout of Linux's `struct
    // rusage` on 64-bit Linux, and `getrusage` writes only within the
    // struct it is given; the pointer is to a live, exclusively borrowed
    // local.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mib() -> f64 {
    panic!("peak_rss_mb is measured on 64-bit Linux only")
}

/// `<target dir>/bench`, next to the build's `release` directory, for
/// the farm's directories and the spans file.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable is not inside a cargo target directory")?;
    let dir = target.join("bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// What the measured loop produced.
#[derive(Default)]
struct Samples {
    /// Campaign wall seconds of the untraced campaigns.
    untraced_s: Vec<f64>,
    /// Set-up wall seconds of the untraced campaigns.
    setup_s: Vec<f64>,
    /// Kernel seconds, one timing after each untraced campaign.
    kernel_s: Vec<f64>,
    /// The untraced campaigns in reference seconds, against the mean of
    /// the kernel timings just before and just after each: campaign,
    /// set-up, and simulation (campaign minus set-up).
    ref_campaign_s: Vec<f64>,
    ref_setup_s: Vec<f64>,
    ref_simulation_s: Vec<f64>,
    /// Campaign seconds of the traced campaigns.
    traced_s: Vec<f64>,
    /// Each traced campaign's time over the untraced one just before it.
    trace_ratios: Vec<f64>,
    /// Per-layer times of each traced campaign.
    layers: Vec<Vec<(&'static str, f64)>>,
    /// Spans of the last traced campaign.
    last_tree: Option<SpanTree>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn count(&mut self, gate: &mut Gate, rep: &Rep) {
        self.attempted += rep.records.len() as u64;
        self.failed += quarantined(&rep.records);
        gate.check_rep(self.untraced_s.len() + self.traced_s.len(), &rep.records);
    }
}

/// Runs campaigns for `args.seconds` (at least one): all untraced, or
/// alternating untraced and traced with `--trace 1`. Every untraced
/// campaign has a kernel timing just before and just after it. A campaign
/// starts only while the average one so far would still end inside the
/// budget, so the run's length stays close to the budget.
fn measure(b: &Bench, args: &Args, kernel: &Kernel, gate: &mut Gate) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut before = kernel.time();
    loop {
        let rep = run_rep(b, &NullObserver, Instant::now());
        let after = kernel.time();
        s.count(gate, &rep);
        s.untraced_s.push(rep.campaign_s);
        s.setup_s.push(rep.setup_s);
        s.kernel_s.push(after);
        let reference = |wall_s| reference_seconds(wall_s, (before + after) / 2.0);
        s.ref_campaign_s.push(reference(rep.campaign_s));
        s.ref_setup_s.push(reference(rep.setup_s));
        s.ref_simulation_s
            .push(reference(rep.campaign_s - rep.setup_s));
        before = after;
        if args.trace {
            let t = Instant::now();
            black_box(golden_run(&b.workload, &b.cfg.loop_cfg));
            let golden_s = t.elapsed().as_secs_f64();
            let traced = traced_rep(b);
            s.count(gate, &traced);
            s.traced_s.push(traced.campaign_s);
            s.trace_ratios.push(traced.campaign_s / rep.campaign_s);
            s.layers.push(layer_times(&traced.tree, golden_s));
            s.last_tree = Some(traced.tree);
            before = kernel.time();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / s.untraced_s.len() as f64 > args.seconds {
            return s;
        }
    }
}

/// The end-to-end line, in reference seconds (see [`Kernel`] and the
/// README on host noise). The campaign time and the rate come from the
/// mean campaign of the run: the host's quiet and busy phases mix in it
/// by the share of the run each held, where the median jumps between
/// them. Set-up time is the median. The distributions go to stderr.
fn end_to_end_report(b: &Bench, s: &Samples, peak_rss: f64) -> Report {
    eprintln!("{}", stats::describe("wall campaign_s", "s", &s.untraced_s));
    eprintln!("{}", stats::describe("wall setup_s", "s", &s.setup_s));
    eprintln!("{}", stats::describe("wall kernel_s", "s", &s.kernel_s));
    eprintln!("{}", stats::describe("campaign_s", "s", &s.ref_campaign_s));
    eprintln!("{}", stats::describe("setup_s", "s", &s.ref_setup_s));
    eprintln!(
        "{}",
        stats::describe("simulation_s", "s", &s.ref_simulation_s)
    );
    let mut report = Report::new(&END_TO_END);
    report.set("campaign_s", stats::mean(&s.ref_campaign_s));
    report.set("setup_s", stats::median(&s.ref_setup_s));
    report.set(
        "experiments_per_s",
        b.cfg.faults as f64 / stats::mean(&s.ref_simulation_s),
    );
    report.set("peak_rss_mb", peak_rss);
    report
}

/// Counters copied into the per-layer line as they are.
const LAYER_COUNTS: [&str; 16] = [
    "golden.instructions",
    "golden.checkpoints",
    "planner.analytic",
    "planner.replicated",
    "planner.simulate",
    "batch.members",
    "batch.resolved",
    "batch.split_offs",
    "batch.rejected",
    "restore.n",
    "restore.words",
    "restore.full_clones",
    "machine.instructions",
    "experiment.n",
    "supervisor.retries",
    "supervisor.quarantined",
];

fn per_layer_report(
    b: &Bench,
    s: &Samples,
    farm: Option<&SpanTree>,
    counters: &Counters,
) -> Report {
    eprintln!(
        "{}",
        stats::describe("untraced campaign_s", "s", &s.untraced_s)
    );
    eprintln!("{}", stats::describe("traced campaign_s", "s", &s.traced_s));
    let mut report = Report::new(&PER_LAYER);
    let mut drive_s = 0.0;
    for (i, (name, _)) in s.layers[0].iter().enumerate() {
        let value = stats::median(&s.layers.iter().map(|l| l[i].1).collect::<Vec<_>>());
        if *name == "machine.drive_s" {
            drive_s = value;
        }
        report.set(name, value);
    }
    for (name, value) in farm_times(farm) {
        report.set(name, value);
    }
    let c = |name| counter(counters, name);
    for name in LAYER_COUNTS {
        report.set(name, c(name));
    }
    let faults = b.cfg.faults as f64;
    report.set(
        "planner.useful_ratio",
        (c("planner.analytic") + c("planner.replicated")) / faults,
    );
    report.set(
        "batch.useful_ratio",
        ratio(c("batch.resolved"), c("batch.members")),
    );
    report.set(
        "machine.block_share",
        ratio(c("machine.block_instructions"), c("machine.instructions")),
    );
    report.set(
        "machine.instr_per_s",
        ratio(c("machine.instructions"), drive_s),
    );
    report.set(
        "machine.converge_ratio",
        ratio(c("machine.splices"), c("experiment.n")),
    );
    report.set("farm.segment_bytes", c("store.bytes"));
    // Pairing each traced campaign with the untraced one just before it
    // keeps the host's slow phases, which span both, out of the ratio.
    report.set("trace.overhead_frac", stats::median(&s.trace_ratios) - 1.0);
    report
}

/// Prints the exact counters and, at the default seed, every one that
/// moved from `counters.json`. Informational: a moved counter is not a
/// failure.
fn report_counters(b: &Bench, seed: u64, counters: &Counters) -> Result<(), String> {
    eprintln!("counters {} {}", b.name, counters::to_json(counters));
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    match counters::baseline_for(COUNTERS_BASELINE, b.name)? {
        Some(baseline) => {
            for line in counters::changes(&baseline, counters) {
                eprintln!("{line}");
            }
        }
        None => eprintln!("counters.json has no baseline for {}", b.name),
    }
    Ok(())
}

/// Runs the workload and returns the result line and the gate's verdict.
fn run(b: &Bench, args: &Args) -> Result<(String, bool), String> {
    let scratch = scratch_dir()?;
    let farm_dir = scratch.join(format!("farm-{}", std::process::id()));
    eprintln!(
        "{}: seed {}, {} s budget, trace {}, closed loop of one campaign at a time, \
         1 thread ({} in the farm check), available parallelism {}",
        b.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if b.farm { FARM_WORKERS } else { 0 },
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    // Warm-up: untimed, observed by the program's own telemetry, which
    // supplies the work counters.
    let telemetry = Telemetry::new(b.cfg.faults);
    let warm = run_rep(b, &telemetry, Instant::now());
    // Like a `campaign` invocation, this process has now run one
    // campaign. Later campaigns add only allocator growth, by an amount
    // that depends on how many fit the time budget.
    let peak_rss = peak_rss_mib();
    let mut gate = Gate::new(warm.records);
    let kernel = Kernel::new();

    let samples = measure(b, args, &kernel, &mut gate);

    let farm = if b.farm {
        Some(farm_rep(b, &farm_dir)?)
    } else {
        None
    };
    let prepared = b.prepare();
    let counters = work_counters(
        &prepared,
        &telemetry.snapshot(),
        &gate.reference,
        farm.as_ref().map_or(0, |f| f.segment_bytes),
    );
    gate.check_from_reset(b, &prepared);
    if let Some(farm) = &farm {
        gate.check_farm(&farm.records);
    }
    report_counters(b, args.seed, &counters)?;

    let report = if args.trace {
        if let Some(tree) = &samples.last_tree {
            let path = scratch.join(format!("spans-{}.jsonl", b.name));
            std::fs::write(&path, tree.to_jsonl(b.name))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("spans of the last traced campaign: {}", path.display());
        }
        per_layer_report(b, &samples, farm.as_ref().map(|f| &f.tree), &counters)
    } else {
        end_to_end_report(b, &samples, peak_rss)
    };
    for (spec, value) in report.entries() {
        eprintln!("  {} = {value} {}", spec.name, spec.unit);
    }
    eprintln!(
        "attempted {} faults, {} quarantined",
        samples.attempted, samples.failed
    );
    let correct = match &gate.failure {
        None => {
            eprintln!("correctness gate passed");
            true
        }
        Some(message) => {
            eprintln!("error: correctness gate failed on {}: {message}", b.name);
            false
        }
    };
    Ok((
        report.render(correct, samples.attempted, samples.failed),
        correct,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(bench) = Bench::new(&args.workload, args.seed) else {
        eprintln!("error: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match run(&bench, &args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {}: {e}", bench.name);
            ExitCode::FAILURE
        }
    }
}
