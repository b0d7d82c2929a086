//! Shared plumbing for the experiment binaries that regenerate the paper's
//! tables and figures (`table2`, `table3`, `table4`, `figures`,
//! `ablations`, `swifi_report`).

use bera_goofi::campaign::{run_scifi_campaign, CampaignConfig, CampaignResult};
use bera_goofi::workload::Workload;
use bera_plant::closed_loop::sample_instant;
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
    fn artifacts_dir_exists() {
        assert!(artifacts_dir().is_dir());
    }
}
