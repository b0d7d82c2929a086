//! Shared plumbing for the experiment binaries that regenerate the paper's
//! tables and figures (`table2`, `table3`, `table4`, `figures`,
//! `ablations`, `swifi_report`).

use bera_goofi::campaign::{
    run_fault_list, run_scifi_campaign, CampaignConfig, CampaignResult, FaultList,
};
use bera_goofi::classify::{Outcome, Severity};
use bera_goofi::experiment::{ExperimentRecord, FaultSpec, GoldenRun};
use bera_goofi::workload::Workload;
use bera_plant::closed_loop::sample_instant;
use bera_tcpu::cache::{index_of, word_of};
use bera_tcpu::scan::BitLocation;
use std::fs;
use std::path::{Path, PathBuf};

/// Faults injected into Algorithm I in the paper's Table 2.
pub const ALG1_FAULTS: usize = 9290;
/// Faults injected into Algorithm II in the paper's Table 3.
pub const ALG2_FAULTS: usize = 2372;
/// The fixed seed all reported campaigns use, so every binary regenerates
/// identical numbers.
pub const CAMPAIGN_SEED: u64 = 20010701; // DSN 2001, Göteborg, July 2001

/// Directory where binaries drop their tables, CSV series and JSON
/// databases.
#[must_use]
pub fn artifacts_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    if let Err(e) = fs::create_dir_all(&dir) {
        panic!("cannot create artifacts directory {}: {e}", dir.display());
    }
    dir
}

/// Writes an artifact file and reports where it went.
///
/// Fails loudly — naming the path and the OS error — rather than letting
/// a benchmark or table run complete with its output silently missing.
pub fn write_artifact(name: &str, contents: &str) {
    let path = artifacts_dir().join(name);
    if let Err(e) = fs::write(&path, contents) {
        panic!("cannot write artifact {}: {e}", path.display());
    }
    println!("wrote {}", path.display());
}

/// Reads the fault-count override from the environment
/// (`BERA_FAULTS=<n>` scales campaigns down for smoke runs).
#[must_use]
pub fn fault_override(default: usize) -> usize {
    std::env::var("BERA_FAULTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs the canonical campaign for a workload with the paper's fault count
/// (scaled by `BERA_FAULTS` if set).
#[must_use]
pub fn canonical_campaign(workload: &Workload, faults: usize) -> CampaignResult {
    let cfg = CampaignConfig::paper(fault_override(faults), CAMPAIGN_SEED);
    run_scifi_campaign(workload, &cfg)
}

/// The Algorithm I sweep the Figure 7–9 exemplars are picked from:
/// `faults` single-bit faults, seeded apart from the table campaigns.
#[must_use]
pub fn exemplar_sweep(
    workload: &Workload,
    golden: &GoldenRun,
    faults: usize,
) -> Vec<ExperimentRecord> {
    let seed = CAMPAIGN_SEED + 7;
    let list = FaultList::sample(faults, seed, golden.total_instructions);
    run_fault_list(
        workload,
        &CampaignConfig::paper(faults, seed),
        golden,
        &list.faults,
    )
}

/// The exemplar failures of Figures 7, 8 and 9, in that order, picked
/// from a sweep's `records` by the paper's captions. Figures 7
/// (permanent) and 8 (semi-permanent) show a corrupted state variable:
/// each takes the first failure of its class whose flipped bit lies in
/// the cache word holding `x` (at `x_address`). Figure 9 takes the first
/// transient failure.
#[must_use]
pub fn figure_exemplars(records: &[ExperimentRecord], x_address: u32) -> [Option<FaultSpec>; 3] {
    let x_word = BitLocation::CacheData {
        line: index_of(x_address) as u8,
        bit: (word_of(x_address) * 32) as u8,
    }
    .word_bit()
    .0;
    let first = |severity: Severity, in_x: bool| {
        records
            .iter()
            .find(|r| {
                r.outcome == Outcome::ValueFailure(severity)
                    && (!in_x || r.location.word_bit().0 == x_word)
            })
            .map(|r| r.fault)
    };
    [
        first(Severity::Permanent, true),
        first(Severity::SemiPermanent, true),
        first(Severity::Transient, false),
    ]
}

/// Renders two aligned numeric series as CSV with a header.
#[must_use]
pub fn csv_two(header: &str, t: &[f64], values: &[f64]) -> String {
    assert_eq!(t.len(), values.len(), "series length mismatch");
    let mut out = format!("{header}\n");
    for (a, b) in t.iter().zip(values.iter()) {
        out.push_str(&format!("{a:.4},{b:.5}\n"));
    }
    out
}

/// Renders a golden-vs-faulty output comparison as CSV.
#[must_use]
pub fn csv_compare(golden: &[u32], faulty: &[u32], sample_interval: f64) -> String {
    assert_eq!(golden.len(), faulty.len(), "series length mismatch");
    let mut out = String::from("t,u_fault_free,u_faulty\n");
    for (k, (g, f)) in golden.iter().zip(faulty.iter()).enumerate() {
        out.push_str(&format!(
            "{:.4},{:.5},{:.5}\n",
            sample_instant(k, sample_interval),
            f32::from_bits(*g),
            f32::from_bits(*f)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bera_goofi::experiment::LoopConfig;

    #[test]
    fn csv_two_has_header_and_rows() {
        let s = csv_two("t,v", &[0.0, 1.0], &[2.0, 3.0]);
        assert!(s.starts_with("t,v\n"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn csv_compare_shape() {
        let g = vec![1.0f32.to_bits(); 4];
        let f = vec![2.0f32.to_bits(); 4];
        let s = csv_compare(&g, &f, 0.0154);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("u_faulty"));
    }

    #[test]
    fn figure_exemplars_are_pinned_and_follow_the_captions() {
        let alg1 = Workload::algorithm_one();
        let golden = bera_goofi::experiment::golden_run(&alg1, &LoopConfig::paper());
        let records = exemplar_sweep(&alg1, &golden, 4000);
        let chosen = figure_exemplars(&records, alg1.x_address());
        let at = |fault: Option<FaultSpec>| {
            let fault = fault.expect("the sweep has an exemplar");
            (
                bera_tcpu::scan::catalog()[fault.location_index],
                fault.inject_at,
            )
        };
        assert_eq!(
            chosen.map(at),
            [
                (BitLocation::CacheData { line: 0, bit: 26 }, 40_736),
                (BitLocation::CacheData { line: 0, bit: 22 }, 141_704),
                (BitLocation::CacheData { line: 1, bit: 83 }, 139_988),
            ]
        );
        // The sweep's first semi-permanent failure flips u_lim's exponent,
        // not `x`: the caption, not the order, picks Figure 8's.
        let first = records
            .iter()
            .find(|r| r.outcome == Outcome::ValueFailure(Severity::SemiPermanent))
            .map(|r| r.location);
        assert_eq!(first, Some(BitLocation::CacheData { line: 1, bit: 90 }));
    }

    #[test]
    fn artifacts_dir_exists() {
        assert!(artifacts_dir().is_dir());
    }
}
