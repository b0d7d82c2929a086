//! General-purpose campaign runner — GOOFI's command-line face.
//!
//! ```text
//! campaign [--workload alg1|alg2|alg2-colocated|alg2-assert-after|alg3]
//!          [--faults N] [--seed S] [--iterations K] [--threads T]
//!          [--parity-cache] [--checkpoint-stride K]
//!          [--fault-model single|double|intermittent:N|stuck0|stuck1|burst:W]
//!          [--deadline SECS] [--unsupervised] [--no-prune] [--paranoid N]
//!          [--json FILE] [--out FILE] [--resume] [--progress]
//!          [--failpoint id=action[@N]]...
//! campaign --farm-init DIR [--shards N] [--lease-heartbeat-ms MS]
//!          [--lease-expiry-ms MS] [campaign flags...]
//! campaign --worker DIR [--worker-id ID] [--threads T]
//! campaign --farm-tend DIR
//! campaign --farm-merge DIR
//! ```
//!
//! `--out` streams every record to a checksummed JSONL store as it
//! classifies; `--resume` picks an interrupted store back up (validating
//! that it belongs to this exact campaign) and runs only the missing
//! faults; `--progress` prints live telemetry (throughput, ETA,
//! classification counters, checkpoint hit-rate, prune rate) to stderr.
//!
//! Experiments run supervised by default: panics and (with `--deadline`)
//! wall-clock overruns are contained, retried once from reset, and
//! quarantined as harness failures rather than aborting the campaign.
//! `--unsupervised` disables the containment as a debugging aid.
//!
//! Flip-model campaigns (single, double, burst) prune the fault space by
//! default with one fate resolver over the golden run's access trace —
//! def/use events and EDM-visibility windows alike (`DESIGN.md` § 8e):
//! faults whose flipped state is overwritten before any read, or never
//! touched again, are classified analytically; every other fault is
//! simulated, carried by diff replay (`DESIGN.md` § 8l) from injection
//! until it needs the interpreter. `--no-prune` is the reference
//! configuration: it interprets every fault from injection. `--paranoid N`
//! re-runs up to N replayed experiments on the interpreter, compares up
//! to N steady-delta jumped runs' end diffs with the interpreter's, and
//! panics if any disagrees. Outcomes are bit-identical either way.
//!
//! Builds carrying the `failpoints` feature accept `--failpoint
//! id=action[@N]` (repeatable) to arm deterministic crash/error/panic/
//! delay injection at the campaign plane's durability boundaries — the
//! manual-repro face of the crash-recovery assurance suite
//! (`ASSURANCE.md`, `tests/crash_recovery.rs`).

use bera::goofi::campaign::{prepare_campaign, CampaignConfig};
use bera::goofi::experiment::{ExperimentRecord, FaultModel, LoopConfig};
use bera::goofi::failpoints;
use bera::goofi::farm;
use bera::goofi::observer::{CampaignObserver, ObserverSet, Telemetry};
use bera::goofi::planner::prune_eligible;
use bera::goofi::store::{write_telemetry_sidecar, JsonlStore, Reattached, StoreHeader};
use bera::goofi::table::tabulate;
use bera::goofi::workload::Workload;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    faults: usize,
    seed: u64,
    iterations: usize,
    threads: usize,
    parity_cache: bool,
    checkpoint_stride: usize,
    fault_model: FaultModel,
    deadline: Option<f64>,
    unsupervised: bool,
    no_prune: bool,
    paranoid: usize,
    json: Option<String>,
    out: Option<String>,
    resume: bool,
    progress: bool,
    failpoints: Vec<String>,
    farm_init: Option<String>,
    shards: usize,
    lease_heartbeat_ms: u64,
    lease_expiry_ms: u64,
    worker: Option<String>,
    worker_id: Option<String>,
    farm_merge: Option<String>,
    farm_tend: Option<String>,
    workload_key: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::algorithm_one(),
        faults: 2000,
        seed: 1,
        iterations: 650,
        threads: 0,
        parity_cache: false,
        checkpoint_stride: LoopConfig::paper().checkpoint_stride,
        fault_model: FaultModel::SingleBit,
        deadline: None,
        unsupervised: false,
        no_prune: false,
        paranoid: 0,
        json: None,
        out: None,
        resume: false,
        progress: false,
        failpoints: Vec::new(),
        farm_init: None,
        shards: 4,
        lease_heartbeat_ms: farm::LeasePolicy::default().heartbeat_ms,
        lease_expiry_ms: farm::LeasePolicy::default().expiry_ms,
        worker: None,
        worker_id: None,
        farm_merge: None,
        farm_tend: None,
        workload_key: "alg1".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let key = value("--workload")?;
                args.workload = Workload::by_key(&key)
                    .ok_or_else(|| format!("--workload: unknown workload `{key}`"))?;
                args.workload_key = key;
            }
            "--faults" => {
                args.faults = value("--faults")?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--iterations" => {
                args.iterations = value("--iterations")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?;
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--parity-cache" => args.parity_cache = true,
            "--checkpoint-stride" => {
                args.checkpoint_stride = value("--checkpoint-stride")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-stride: {e}"))?;
            }
            "--fault-model" => {
                args.fault_model = value("--fault-model")?
                    .parse()
                    .map_err(|e| format!("--fault-model: {e}"))?;
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|e| format!("--deadline: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline expects a positive number of seconds".to_string());
                }
                args.deadline = Some(secs);
            }
            "--unsupervised" => args.unsupervised = true,
            "--no-prune" => args.no_prune = true,
            "--paranoid" => {
                args.paranoid = value("--paranoid")?
                    .parse()
                    .map_err(|e| format!("--paranoid: {e}"))?;
            }
            "--json" => args.json = Some(value("--json")?),
            "--out" => args.out = Some(value("--out")?),
            "--resume" => args.resume = true,
            "--progress" => args.progress = true,
            "--failpoint" => args.failpoints.push(value("--failpoint")?),
            "--farm-init" => args.farm_init = Some(value("--farm-init")?),
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--lease-heartbeat-ms" => {
                args.lease_heartbeat_ms = value("--lease-heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--lease-heartbeat-ms: {e}"))?;
            }
            "--lease-expiry-ms" => {
                args.lease_expiry_ms = value("--lease-expiry-ms")?
                    .parse()
                    .map_err(|e| format!("--lease-expiry-ms: {e}"))?;
            }
            "--worker" => args.worker = Some(value("--worker")?),
            "--worker-id" => args.worker_id = Some(value("--worker-id")?),
            "--farm-merge" => args.farm_merge = Some(value("--farm-merge")?),
            "--farm-tend" => args.farm_tend = Some(value("--farm-tend")?),
            "--help" | "-h" => {
                return Err(String::new()); // triggers usage
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let farm_modes = [
        args.farm_init.is_some(),
        args.worker.is_some(),
        args.farm_merge.is_some(),
        args.farm_tend.is_some(),
    ]
    .iter()
    .filter(|&&m| m)
    .count();
    if farm_modes > 1 {
        return Err(
            "--farm-init, --worker, --farm-merge and --farm-tend are distinct \
             modes; pick one per invocation"
                .to_string(),
        );
    }
    if farm_modes > 0 && (args.out.is_some() || args.resume || args.json.is_some()) {
        return Err(
            "farm modes manage their own stores inside the farm directory; \
             drop --out/--resume/--json"
                .to_string(),
        );
    }
    if args.worker_id.is_some() && args.worker.is_none() {
        return Err("--worker-id only makes sense with --worker DIR".to_string());
    }
    if args.resume && args.out.is_none() {
        return Err("--resume requires --out FILE (the store to resume from)".to_string());
    }
    if args.unsupervised && args.deadline.is_some() {
        return Err("--deadline requires supervision; drop --unsupervised".to_string());
    }
    if args.no_prune && args.paranoid > 0 {
        return Err("--paranoid cross-checks the pruner; drop --no-prune".to_string());
    }
    if !args.failpoints.is_empty() && !failpoints::ENABLED {
        return Err(
            "--failpoint requires a build with the `failpoints` feature \
             (cargo run --features failpoints --bin campaign ...)"
                .to_string(),
        );
    }
    for spec in &args.failpoints {
        failpoints::configure(spec).map_err(|e| format!("--failpoint: {e}"))?;
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: campaign [--workload alg1|alg2|alg2-colocated|alg2-assert-after|alg3]\n\
         \t[--faults N] [--seed S] [--iterations K] [--threads T]\n\
         \t[--parity-cache] [--checkpoint-stride K]\n\
         \t[--fault-model single|double|intermittent:N|stuck0|stuck1|burst:W]\n\
         \t[--deadline SECS] [--unsupervised] [--no-prune] [--paranoid N]\n\
         \t[--json FILE] [--out FILE] [--resume] [--progress]\n\
         \n\
         --checkpoint-stride K  capture a golden checkpoint every K iterations\n\
         \t(experiments fast-forward from the nearest checkpoint and prune\n\
         \tconverged tails; 0 replays every experiment from reset)\n\
         --fault-model M  single bit-flip (default), adjacent double flip,\n\
         \tintermittent:N (re-asserts at the next N iteration boundaries),\n\
         \tstuck0/stuck1 (bit forced for the rest of the run), or\n\
         \tburst:W (random-width cluster of up to W adjacent bits)\n\
         --deadline SECS  wall-clock watchdog per experiment attempt; an\n\
         \toverrun is retried once from reset, then quarantined\n\
         --unsupervised   run experiments bare: a panicking experiment\n\
         \taborts the whole campaign (debugging aid)\n\
         --no-prune     the reference path: simulate every fault from\n\
         \tinjection (by default flip-model campaigns classify overwritten/\n\
         \tlatent faults analytically from the golden traces and diff-replay\n\
         \tthe rest from injection; outcomes are bit-identical either way)\n\
         --paranoid N   re-run up to N replayed experiments, and up to N\n\
         \tsteady-delta jumped end states, on the interpreter, as a\n\
         \truntime cross-check of diff replay\n\
         --out FILE     stream records to a checksummed JSONL result store\n\
         --resume       continue an interrupted store (validates that it\n\
         \tbelongs to this campaign; re-runs only the missing faults)\n\
         --progress     live telemetry on stderr (throughput, ETA, counters)\n\
         --failpoint id=action[@N]  arm a failpoint (builds with the\n\
         \t`failpoints` feature only): deterministic crash/error/panic/\n\
         \tdelay injection at the store/supervisor/claim boundaries, for\n\
         \tcrash-recovery testing and manual repro (see ASSURANCE.md);\n\
         \t@N fires from the Nth hit; repeat the flag to arm several\n\
         \n\
         multi-process farm modes (DESIGN.md \u{a7} 8i; one per invocation):\n\
         --farm-init DIR  split this campaign into --shards N lease-claimed\n\
         \tshards and publish the farm manifest under DIR\n\
         --shards N       shard count for --farm-init (default 4)\n\
         --lease-heartbeat-ms MS / --lease-expiry-ms MS  lease timing for\n\
         \t--farm-init (defaults 1000/10000; expiry must be \u{2265} 2\u{d7} heartbeat)\n\
         --worker DIR     claim and run shards of the farm at DIR until\n\
         \tevery shard is done ([--worker-id ID] names this worker)\n\
         --farm-tend DIR  coordinator loop: reclaim expired leases, report\n\
         \tprogress, and merge + print tables when all shards finish\n\
         --farm-merge DIR fold completed segments into DIR/merged.jsonl\n\
         \t(byte-identical to a single-process run) and print the tables"
    );
}

/// Prints a rate-limited telemetry line from inside the worker threads.
struct ProgressPrinter<'a> {
    telemetry: &'a Telemetry,
    every: Duration,
    last: Mutex<Instant>,
}

impl<'a> ProgressPrinter<'a> {
    fn new(telemetry: &'a Telemetry, every: Duration) -> Self {
        ProgressPrinter {
            telemetry,
            every,
            last: Mutex::new(Instant::now() - every),
        }
    }
}

impl CampaignObserver for ProgressPrinter<'_> {
    fn experiment_classified(&self, _index: usize, _record: &ExperimentRecord) {
        let mut last = self.last.lock().expect("progress lock poisoned");
        if last.elapsed() < self.every {
            return;
        }
        *last = Instant::now();
        eprintln!("progress: {}", self.telemetry.snapshot());
    }
}

/// The campaign configuration the parsed flags describe. Refuses flag
/// combinations that can only be judged against the built config.
fn campaign_config(args: &Args) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig::paper(args.faults, args.seed);
    cfg.loop_cfg = LoopConfig {
        iterations: args.iterations,
        parity_cache: args.parity_cache,
        checkpoint_stride: args.checkpoint_stride,
        ..LoopConfig::paper()
    };
    cfg.threads = args.threads;
    cfg.fault_model = args.fault_model;
    cfg.prune = !args.no_prune;
    cfg.paranoid = args.paranoid;
    cfg.supervisor = if args.unsupervised {
        None
    } else {
        Some(bera::goofi::supervisor::SupervisorConfig {
            deadline: args.deadline.map(Duration::from_secs_f64),
            ..Default::default()
        })
    };
    if cfg.paranoid > 0 && !prune_eligible(&cfg) {
        let bypass = if cfg.loop_cfg.parity_cache {
            "--parity-cache".to_string()
        } else {
            format!("--fault-model {}", cfg.fault_model)
        };
        return Err(format!(
            "--paranoid cross-checks the pruner, which {bypass} bypasses; drop --paranoid"
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let parsed = parse_args().and_then(|args| Ok((campaign_config(&args)?, args)));
    let (cfg, args) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    if let Some(dir) = args.farm_init.clone() {
        return farm_init_main(&args, &cfg, Path::new(&dir));
    }
    if let Some(dir) = args.worker.clone() {
        return farm_worker_main(&args, Path::new(&dir));
    }
    if let Some(dir) = args.farm_merge.clone() {
        return farm_merge_main(Path::new(&dir));
    }
    if let Some(dir) = args.farm_tend.clone() {
        return farm_tend_main(Path::new(&dir));
    }

    eprintln!(
        "running {} faults into `{}` ({} iterations, seed {}, checkpoint stride {})...",
        args.faults,
        args.workload.name(),
        args.iterations,
        args.seed,
        args.checkpoint_stride,
    );
    let started = std::time::Instant::now();
    let prepared = prepare_campaign(&args.workload, &cfg);

    // Attach the streaming store (fresh or resumed) before any experiment
    // runs, so every classified record is durable the moment it exists.
    let mut preloaded: Vec<Option<ExperimentRecord>> = Vec::new();
    let store = match &args.out {
        Some(path) => {
            let path = Path::new(path);
            let header = StoreHeader::new(args.workload.name(), &cfg, prepared.golden());
            let attached = if args.resume {
                JsonlStore::reattach(path, &header)
            } else {
                JsonlStore::create(path, &header).map(|store| (store, Reattached::Created))
            };
            match attached {
                Ok((store, Reattached::Created)) => store,
                Ok((store, Reattached::Remnant)) => {
                    eprintln!(
                        "note: {} was a headerless remnant (crash before the \
                         header was durable); started the store afresh",
                        path.display()
                    );
                    store
                }
                Ok((store, Reattached::Resumed(loaded))) => {
                    if loaded.torn_tail {
                        eprintln!(
                            "note: store had a torn final line (crash mid-write); \
                             that fault will be re-run"
                        );
                    }
                    eprintln!(
                        "resuming {}: {}/{} records already complete",
                        path.display(),
                        loaded.done(),
                        args.faults
                    );
                    preloaded = loaded.records;
                    store
                }
                Err(e) => {
                    let verb = if args.resume { "resume" } else { "create" };
                    eprintln!("error: cannot {verb} {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            // No store: run purely in memory as before.
            let telemetry = Telemetry::new(args.faults);
            let printer = ProgressPrinter::new(&telemetry, Duration::from_millis(500));
            let mut observers = ObserverSet::new();
            observers.push(&telemetry);
            if args.progress {
                observers.push(&printer);
            }
            let result = prepared.run(&observers);
            return finish(&args, result, &telemetry, started);
        }
    };

    let telemetry = Telemetry::new(args.faults);
    telemetry.note_preloaded(preloaded.iter().filter(|r| r.is_some()).count());
    let printer = ProgressPrinter::new(&telemetry, Duration::from_millis(500));
    let mut observers = ObserverSet::new();
    observers.push(&store);
    observers.push(&telemetry);
    if args.progress {
        observers.push(&printer);
    }
    let result = prepared.run_resumed(preloaded, &observers);
    drop(observers);
    if let Err(e) = store.finish() {
        eprintln!("error: result store failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.out {
        eprintln!("result store written to {path}");
    }
    finish(&args, result, &telemetry, started)
}

fn finish(
    args: &Args,
    result: bera::goofi::campaign::CampaignResult,
    telemetry: &Telemetry,
    started: std::time::Instant,
) -> ExitCode {
    let elapsed = started.elapsed();
    println!("{}", tabulate(&result).render());

    let snap = telemetry.snapshot();
    eprintln!(
        "{} faults in {:.2} s ({:.1} faults/s); telemetry: {snap}",
        result.records.len(),
        elapsed.as_secs_f64(),
        result.records.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    // A result store gets a telemetry sidecar: the snapshot holds the
    // execution-strategy counters (prune/splice/resolver fates) that the
    // records themselves don't carry, so `report` can show how a stored
    // campaign was run. Written atomically (temp file + rename) so a
    // crash mid-write cannot leave a truncated sidecar.
    if let Some(out) = &args.out {
        match write_telemetry_sidecar(Path::new(out), &snap) {
            Ok(side) => eprintln!("telemetry written to {}", side.display()),
            Err(e) => {
                eprintln!("error writing telemetry sidecar for {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.json {
        match result.to_json() {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("database written to {path}");
            }
            Err(e) => {
                eprintln!("error serialising results: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `--farm-init DIR`: publish a farm manifest for this campaign.
fn farm_init_main(args: &Args, cfg: &CampaignConfig, root: &Path) -> ExitCode {
    let lease = farm::LeasePolicy {
        heartbeat_ms: args.lease_heartbeat_ms,
        expiry_ms: args.lease_expiry_ms,
        ..farm::LeasePolicy::default()
    };
    match farm::init_farm(root, &args.workload_key, cfg, args.shards, lease) {
        Ok(manifest) => {
            eprintln!(
                "farm initialized at {}: {} faults across {} shard(s), \
                 heartbeat {} ms / expiry {} ms",
                root.display(),
                manifest.faults,
                manifest.shards.len(),
                manifest.lease.heartbeat_ms,
                manifest.lease.expiry_ms,
            );
            eprintln!(
                "start workers with: campaign --worker {} [--threads T]",
                root.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--worker DIR`: claim and run shards until the farm is finished.
fn farm_worker_main(args: &Args, root: &Path) -> ExitCode {
    let worker_id = args
        .worker_id
        .clone()
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    match farm::run_worker(root, &worker_id, args.threads, &mut |line| {
        eprintln!("{line}");
    }) {
        Ok(summary) => {
            eprintln!(
                "worker {worker_id} done: {} shard(s) completed, {} lease(s) lost",
                summary.completed.len(),
                summary.lost.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: worker {worker_id}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--farm-merge DIR`: fold completed segments into the canonical store
/// and print the paper tables from it.
fn farm_merge_main(root: &Path) -> ExitCode {
    let report = match farm::merge_farm(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "merged {} records into {}",
        report.records,
        report.path.display()
    );
    match bera::goofi::store::load_store(&report.path)
        .map_err(farm::FarmError::Store)
        .and_then(|loaded| loaded.into_result().map_err(farm::FarmError::Store))
    {
        Ok(result) => {
            println!("{}", tabulate(&result).render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: merged store does not read back: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--farm-tend DIR`: the coordinator loop — reclaim expired leases and
/// report progress until every shard is done, then merge.
fn farm_tend_main(root: &Path) -> ExitCode {
    let manifest = match farm::read_manifest(root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sweep = Duration::from_millis(manifest.lease.heartbeat_ms.max(100));
    loop {
        match farm::tend_once(root, &manifest) {
            Ok(n) if n > 0 => eprintln!("tend: reclaimed {n} expired lease(s)"),
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: tend sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        let assembly = match farm::assemble_farm(root) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let done_shards = assembly.shards.iter().filter(|s| s.done).count();
        eprintln!(
            "tend: {}/{} shards done, {}/{} records",
            done_shards,
            assembly.shards.len(),
            assembly.done(),
            assembly.manifest.faults
        );
        if assembly.shards.iter().all(|s| s.done) {
            break;
        }
        std::thread::sleep(sweep);
    }
    farm_merge_main(root)
}
