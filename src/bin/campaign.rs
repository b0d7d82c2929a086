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
//! to N steady-delta jumped runs' end diffs with the interpreter's,
//! re-runs up to N runs with a plant-only stretch and up to N with a
//! shifted re-entry from reset on the interpreter alone, and panics if
//! any disagrees. Outcomes are bit-identical either way.
//!
//! Builds carrying the `failpoints` feature accept `--failpoint
//! id=action[@N]` (repeatable) to arm deterministic crash/error/panic/
//! delay injection at the campaign plane's durability boundaries — the
//! manual-repro face of the crash-recovery assurance suite
//! (`ASSURANCE.md`, `tests/crash_recovery.rs`).

use bera::goofi::campaign::{prepare_campaign, CampaignConfig};
use bera::goofi::experiment::ExperimentRecord;
use bera::goofi::failpoints;
use bera::goofi::farm;
use bera::goofi::observer::{CampaignObserver, ObserverSet, Telemetry};
use bera::goofi::planner::prune_eligible;
use bera::goofi::store::{write_telemetry_sidecar, JsonlStore, Reattached, StoreHeader};
use bera::goofi::table::tabulate;
use bera::goofi::workload::Workload;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The parsed command line: the campaign it describes plus the mode and
/// I/O flags around it.
struct Args {
    workload: Workload,
    workload_key: String,
    cfg: CampaignConfig,
    json: Option<String>,
    out: Option<String>,
    resume: bool,
    progress: bool,
    farm_init: Option<String>,
    shards: usize,
    lease: farm::LeasePolicy,
    worker: Option<String>,
    worker_id: Option<String>,
    farm_merge: Option<String>,
    farm_tend: Option<String>,
}

/// Parses the arguments after the program name. Flags that set campaign
/// values write into `Args::cfg` as they are read; combinations that can
/// only be judged against the whole command line are refused at the end.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::algorithm_one(),
        workload_key: "alg1".to_string(),
        cfg: CampaignConfig::paper(2000, 1),
        json: None,
        out: None,
        resume: false,
        progress: false,
        farm_init: None,
        shards: 4,
        lease: farm::LeasePolicy::default(),
        worker: None,
        worker_id: None,
        farm_merge: None,
        farm_tend: None,
    };
    let cfg = &mut args.cfg;
    let mut deadline = None;
    let mut unsupervised = false;
    let mut failpoint_specs: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--workload" => {
                let key: String = value(it, &flag)?;
                args.workload = Workload::by_key(&key)
                    .ok_or_else(|| format!("--workload: unknown workload `{key}`"))?;
                args.workload_key = key;
            }
            "--faults" => cfg.faults = value(it, &flag)?,
            "--seed" => cfg.seed = value(it, &flag)?,
            "--iterations" => match value(it, &flag)? {
                0 => Err("--iterations expects at least one iteration")?,
                n => cfg.loop_cfg.iterations = n,
            },
            "--threads" => cfg.threads = value(it, &flag)?,
            "--parity-cache" => cfg.loop_cfg.parity_cache = true,
            "--checkpoint-stride" => cfg.loop_cfg.checkpoint_stride = value(it, &flag)?,
            "--fault-model" => cfg.fault_model = value(it, &flag)?,
            "--deadline" => {
                let secs: f64 = value(it, &flag)?;
                match Duration::try_from_secs_f64(secs) {
                    Ok(d) if secs > 0.0 => deadline = Some(d),
                    _ => Err("--deadline expects a positive number of seconds < 2^64")?,
                }
            }
            "--unsupervised" => unsupervised = true,
            "--no-prune" => cfg.prune = false,
            "--paranoid" => cfg.paranoid = value(it, &flag)?,
            "--json" => args.json = Some(value(it, &flag)?),
            "--out" => args.out = Some(value(it, &flag)?),
            "--resume" => args.resume = true,
            "--progress" => args.progress = true,
            "--failpoint" => failpoint_specs.push(value(it, &flag)?),
            "--farm-init" => args.farm_init = Some(value(it, &flag)?),
            "--shards" => args.shards = value(it, &flag)?,
            "--lease-heartbeat-ms" => args.lease.heartbeat_ms = value(it, &flag)?,
            "--lease-expiry-ms" => args.lease.expiry_ms = value(it, &flag)?,
            "--worker" => args.worker = Some(value(it, &flag)?),
            "--worker-id" => args.worker_id = Some(value(it, &flag)?),
            "--farm-merge" => args.farm_merge = Some(value(it, &flag)?),
            "--farm-tend" => args.farm_tend = Some(value(it, &flag)?),
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
    if unsupervised && deadline.is_some() {
        return Err("--deadline requires supervision; drop --unsupervised".to_string());
    }
    if !cfg.prune && cfg.paranoid > 0 {
        return Err("--paranoid cross-checks the pruner; drop --no-prune".to_string());
    }
    if !failpoint_specs.is_empty() && !failpoints::ENABLED {
        return Err(
            "--failpoint requires a build with the `failpoints` feature \
             (cargo run --features failpoints --bin campaign ...)"
                .to_string(),
        );
    }
    for spec in &failpoint_specs {
        failpoints::configure(spec).map_err(|e| format!("--failpoint: {e}"))?;
    }
    cfg.supervisor = if unsupervised {
        None
    } else {
        Some(bera::goofi::supervisor::SupervisorConfig {
            deadline,
            ..Default::default()
        })
    };
    if cfg.paranoid > 0 && !prune_eligible(cfg) {
        let bypass = if cfg.loop_cfg.parity_cache {
            "--parity-cache".to_string()
        } else {
            format!("--fault-model {}", cfg.fault_model)
        };
        return Err(format!(
            "--paranoid cross-checks the pruner, which {bypass} bypasses; drop --paranoid"
        ));
    }
    Ok(args)
}

/// The next argument, parsed as the value of `flag`.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let text = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
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
         --paranoid N   re-run up to N replayed experiments, up to N\n\
         \tsteady-delta jumped end states, and up to N runs with a\n\
         \tplant-only stretch and N with a shifted re-entry, on the\n\
         \tinterpreter, as a runtime cross-check of diff replay and the\n\
         \tcheckpoint decision\n\
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

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    if let Some(dir) = args.farm_init.clone() {
        return farm_init_main(&args, Path::new(&dir));
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

    let cfg = &args.cfg;
    eprintln!(
        "running {} faults into `{}` ({} iterations, seed {}, checkpoint stride {})...",
        cfg.faults,
        args.workload.name(),
        cfg.loop_cfg.iterations,
        cfg.seed,
        cfg.loop_cfg.checkpoint_stride,
    );
    let started = std::time::Instant::now();
    let prepared = prepare_campaign(&args.workload, cfg);

    // Attach the streaming store (fresh or resumed) before any experiment
    // runs, so every classified record is durable the moment it exists.
    let mut preloaded: Vec<Option<ExperimentRecord>> = Vec::new();
    let store = match &args.out {
        Some(path) => {
            let path = Path::new(path);
            let header = StoreHeader::new(args.workload.name(), cfg, prepared.golden());
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
                        cfg.faults
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
            let telemetry = Telemetry::new(cfg.faults);
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

    let telemetry = Telemetry::new(cfg.faults);
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
fn farm_init_main(args: &Args, root: &Path) -> ExitCode {
    match farm::init_farm(root, &args.workload_key, &args.cfg, args.shards, args.lease) {
        Ok(manifest) => {
            eprintln!(
                "farm initialized at {}: {} faults across {} shard(s), \
                 heartbeat {} ms / expiry {} ms",
                root.display(),
                manifest.header.faults,
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
    match farm::run_worker(root, &worker_id, args.cfg.threads, &mut |line| {
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
            assembly.manifest.header.faults
        );
        if assembly.shards.iter().all(|s| s.done) {
            break;
        }
        std::thread::sleep(sweep);
    }
    farm_merge_main(root)
}

#[cfg(test)]
mod tests {
    use super::parse_args;
    use proptest::prelude::*;
    use proptest::strategy::Just;

    /// Every flag `parse_args` knows.
    const FLAGS: [&str; 27] = [
        "--workload",
        "--faults",
        "--seed",
        "--iterations",
        "--threads",
        "--parity-cache",
        "--checkpoint-stride",
        "--fault-model",
        "--deadline",
        "--unsupervised",
        "--no-prune",
        "--paranoid",
        "--json",
        "--out",
        "--resume",
        "--progress",
        "--failpoint",
        "--farm-init",
        "--shards",
        "--lease-heartbeat-ms",
        "--lease-expiry-ms",
        "--worker",
        "--worker-id",
        "--farm-merge",
        "--farm-tend",
        "--help",
        "-h",
    ];

    /// A flag's value: one some flag accepts, one out of every flag's
    /// range, or arbitrary text or numbers.
    fn value() -> impl Strategy<Value = String> {
        const VALID: [&str; 10] = [
            "alg2",
            "alg3",
            "single",
            "double",
            "burst:3",
            "intermittent:2",
            "0",
            "7",
            "2000",
            "0.5",
        ];
        const OUT_OF_RANGE: [&str; 11] = [
            "-1",
            "1e300",
            "NaN",
            "inf",
            "-0",
            "18446744073709551616",
            "burst:0",
            "intermittent:x",
            "alg9",
            "",
            "x=panic@0",
        ];
        prop_oneof![
            (0..VALID.len()).prop_map(|i| VALID[i].to_string()),
            (0..OUT_OF_RANGE.len()).prop_map(|i| OUT_OF_RANGE[i].to_string()),
            "[a-z0-9:.=@-]{0,12}",
            any::<u64>().prop_map(|n| n.to_string()),
            any::<f64>().prop_map(|x| x.to_string()),
        ]
    }

    /// A stretch of command line: a flag and a value, a flag alone, or an
    /// arbitrary token.
    fn words() -> impl Strategy<Value = Vec<String>> {
        let flag = || (0..FLAGS.len()).prop_map(|i| FLAGS[i].to_string());
        let pair = move || (flag(), value()).prop_map(|(f, v)| vec![f, v]);
        prop_oneof![
            pair(),
            pair(),
            pair(),
            flag().prop_map(|f| vec![f]),
            value().prop_map(|v| vec![v]),
            Just(Vec::new()),
        ]
    }

    /// Values the parser once let through to a panic: a finite deadline
    /// too long for a `Duration` (found by the fuzz below), and zero
    /// iterations, which left fault sampling an empty time range.
    #[test]
    fn values_that_once_panicked_are_refused_by_name() {
        for (flag, v) in [
            ("--deadline", "1e300"),
            ("--deadline", "18446744073709551616"),
            ("--iterations", "0"),
        ] {
            let msg = parse_args([flag, v].map(String::from))
                .err()
                .unwrap_or_default();
            assert!(msg.starts_with(flag), "{flag} {v}: `{msg}`");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `parse_args` never panics, and every refusal but the empty one
        /// (`--help`) names a flag of the command line or quotes the token
        /// it could not place.
        #[test]
        fn parse_args_accepts_or_refuses_by_name(
            words in prop::collection::vec(words(), 0..12),
        ) {
            let argv: Vec<String> = words.into_iter().flatten().collect();
            if let Err(msg) = parse_args(argv.clone()) {
                let names_flag = FLAGS
                    .iter()
                    .any(|f| argv.iter().any(|t| t == f) && msg.contains(f));
                let quotes_token = argv.iter().any(|t| msg.contains(&format!("`{t}`")));
                prop_assert!(
                    msg.is_empty() || names_flag || quotes_token,
                    "`{msg}` names nothing of {argv:?}"
                );
            }
        }
    }
}
