//! Offline report generator — rebuilds the paper tables from a JSONL
//! result store, without re-running any campaign.
//!
//! ```text
//! report FILE                 render the paper table (Tables 2/3 layout)
//! report FILE1 FILE2          render Table 4 (Algorithm I vs II comparison)
//! report --by-model FILE...   render a per-fault-model breakdown, one
//!                             column per model found in the store headers
//! report --csv FILE...        export as CSV instead of rendered text
//!                             (single-campaign, two-file comparison,
//!                             and --by-model layouts all supported)
//! report --partial FILE       tabulate an incomplete store (missing faults
//!                             are simply absent from the counts)
//! report --artifact NAME ...  additionally write the rendering under
//!                             artifacts/NAME
//! ```
//!
//! The store's per-line checksums and header are validated on load, so a
//! truncated or corrupted database is reported rather than silently
//! mis-tabulated.
//!
//! Any FILE may also be a campaign-farm directory (one holding a
//! `manifest.json`, see `campaign --farm-init`): per-shard progress and
//! telemetry are printed to stderr, and the tables come from the merged
//! store when the farm is complete, or from the segments assembled in
//! place (use `--partial` mid-flight). Segment/manifest header mismatches
//! and records outside their segment's shard are refused with a precise
//! error.

use bera::goofi::campaign::CampaignResult;
use bera::goofi::farm;
use bera::goofi::observer::TelemetrySnapshot;
use bera::goofi::store::load_store;
use bera::goofi::table::{tabulate, ComparisonTable, ModelBreakdown};
use bera::repro;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    files: Vec<String>,
    csv: bool,
    partial: bool,
    by_model: bool,
    artifact: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        files: Vec::new(),
        csv: false,
        partial: false,
        by_model: false,
        artifact: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--csv" => args.csv = true,
            "--partial" => args.partial = true,
            "--by-model" => args.by_model = true,
            "--artifact" => {
                args.artifact = Some(
                    it.next()
                        .ok_or_else(|| "--artifact expects a name".to_string())?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            path => args.files.push(path.to_string()),
        }
    }
    if args.by_model {
        if args.files.is_empty() {
            return Err("--by-model expects at least one store file".to_string());
        }
        return Ok(args);
    }
    match args.files.len() {
        1 | 2 => {}
        0 => return Err("expected a result store file".to_string()),
        n => return Err(format!("expected 1 or 2 store files, got {n}")),
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: report [--csv] [--partial] [--by-model] [--artifact NAME] FILE...\n\
         \n\
         With one store file, renders that campaign's paper table; with two,\n\
         renders the Table 4 comparison (first store = Algorithm I column).\n\
         --by-model groups any number of stores by the fault model in their\n\
         headers and renders one breakdown column per model.\n\
         --csv exports any of the three layouts as CSV.\n\
         --partial tabulates an incomplete store instead of refusing it.\n\
         \n\
         A FILE may also be a campaign-farm directory (campaign --farm-init):\n\
         per-shard progress/telemetry print to stderr and the tables come\n\
         from the merged store, or from the assembled segments mid-flight\n\
         (with --partial)."
    );
}

/// Loads every store, groups results by the fault model recorded in their
/// headers (stores sharing a model are merged column-wise in file order),
/// and renders the per-model breakdown.
fn render_by_model(args: &Args) -> Result<String, String> {
    let mut groups: Vec<(String, CampaignResult)> = Vec::new();
    for path in &args.files {
        let loaded = load_store(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let label = loaded.header.fault_model.to_string();
        let result = if args.partial {
            loaded.into_partial_result()
        } else {
            loaded.into_result().map_err(|e| format!("{path}: {e}"))?
        };
        match groups.iter_mut().find(|(l, _)| *l == label) {
            Some((_, merged)) => merged.records.extend(result.records),
            None => groups.push((label, result)),
        }
    }
    let columns: Vec<(String, &CampaignResult)> = groups
        .iter()
        .map(|(label, result)| (label.clone(), result))
        .collect();
    let breakdown = ModelBreakdown::new(&columns);
    Ok(if args.csv {
        breakdown.to_csv()
    } else {
        breakdown.render()
    })
}

fn load(path: &str, partial: bool) -> Result<CampaignResult, String> {
    if farm::is_farm_dir(Path::new(path)) {
        return load_farm(Path::new(path), partial);
    }
    let loaded = load_store(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    if loaded.torn_tail {
        eprintln!("note: {path} has a torn final line; that record is ignored");
    }
    if partial {
        let done = loaded.done();
        let total = loaded.records.len();
        if done < total {
            eprintln!("note: {path} is partial ({done}/{total} records)");
        }
        Ok(loaded.into_partial_result())
    } else {
        loaded.into_result().map_err(|e| format!("{path}: {e}"))
    }
}

/// Loads a campaign-farm directory (DESIGN.md § 8i): per-shard progress
/// and telemetry go to stderr, and the records come from the canonical
/// merged store when the farm is complete and merged, otherwise from the
/// segments assembled in place (cross-validated against the manifest —
/// a header mismatch or a foreign index is refused, never papered
/// over).
fn load_farm(root: &Path, partial: bool) -> Result<CampaignResult, String> {
    let label = root.display();
    let assembly = farm::assemble_farm(root).map_err(|e| format!("{label}: {e}"))?;
    for s in &assembly.shards {
        let lease = match &s.lease {
            farm::LeaseState::Unclaimed => "unclaimed".to_string(),
            farm::LeaseState::Held { worker, age } => {
                format!(
                    "held by {worker} ({:.1} s since heartbeat)",
                    age.as_secs_f64()
                )
            }
            farm::LeaseState::Expired { worker, age } => {
                format!(
                    "EXPIRED lease of {worker} ({:.1} s stale)",
                    age.as_secs_f64()
                )
            }
        };
        eprintln!(
            "{label}: shard {} [{}..{}): {}/{} records, {}{}{}",
            s.spec.index,
            s.spec.start,
            s.spec.end,
            s.records,
            s.spec.len(),
            if s.done { "done, " } else { "" },
            lease,
            if s.torn { ", torn tail" } else { "" },
        );
        if let Some(t) = &s.telemetry {
            eprintln!("{label}: shard {} telemetry: {t}", s.spec.index);
        }
    }
    let merged = farm::merged_path(root);
    if merged.exists() && assembly.is_complete() {
        let loaded = load_store(&merged).map_err(|e| format!("{}: {e}", merged.display()))?;
        loaded
            .header
            .validate_against(&assembly.manifest.header)
            .map_err(|e| format!("{}: {e}", merged.display()))?;
        eprintln!("{label}: farm complete; reading the canonical merged store");
        return loaded
            .into_result()
            .map_err(|e| format!("{}: {e}", merged.display()));
    }
    let done = assembly.done();
    let total = assembly.manifest.faults;
    if assembly.is_complete() {
        eprintln!(
            "{label}: all shards complete but unmerged; tabulating assembled \
             segments (fold them with `campaign --farm-merge {label}`)"
        );
        return assembly
            .into_loaded()
            .into_result()
            .map_err(|e| format!("{label}: {e}"));
    }
    eprintln!("{label}: farm mid-flight ({done}/{total} records)");
    if partial {
        Ok(assembly.into_loaded().into_partial_result())
    } else {
        assembly
            .into_loaded()
            .into_result()
            .map_err(|e| format!("{label}: {e}"))
    }
}

/// Prints the execution-strategy counters from a campaign's telemetry
/// sidecar (`<store>.telemetry.json`, written by `campaign --out`), when
/// one exists. The records alone can't show *how* the campaign ran —
/// prune rate, convergence splices and the fate resolver's coverage live
/// only in the snapshot.
fn report_telemetry_sidecar(store_path: &str) {
    let side = format!("{store_path}.telemetry.json");
    let Ok(json) = std::fs::read_to_string(&side) else {
        return;
    };
    match serde_json::from_str::<TelemetrySnapshot>(&json) {
        Ok(snap) => eprintln!("{store_path}: run as {snap}"),
        Err(e) => eprintln!("note: {side} is unreadable ({e}); ignoring"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let rendered = if args.by_model {
        match render_by_model(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.files.len() == 2 {
        let first = match load(&args.files[0], args.partial) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let second = match load(&args.files[1], args.partial) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cmp = ComparisonTable::new(&first, &second);
        if args.csv {
            cmp.to_csv()
        } else {
            cmp.render()
        }
    } else {
        let result = match load(&args.files[0], args.partial) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let table = tabulate(&result);
        if args.csv {
            table.to_csv()
        } else {
            table.render()
        }
    };

    println!("{rendered}");
    for path in &args.files {
        if farm::is_farm_dir(Path::new(path)) {
            // A farm's campaign-level sidecar sits next to the merged
            // store (the per-shard ones were already printed above).
            report_telemetry_sidecar(&farm::merged_path(Path::new(path)).display().to_string());
        } else {
            report_telemetry_sidecar(path);
        }
    }
    if let Some(name) = &args.artifact {
        repro::write_artifact(name, &rendered);
    }
    ExitCode::SUCCESS
}
