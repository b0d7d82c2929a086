//! Exact work counters: deterministic for a workload and seed, so two
//! commits compare without noise. `counters.json` holds each workload's
//! counters at [`crate::spec::DEFAULT_SEED`]; a run at that seed reports
//! every counter that moved.

use bera_goofi::experiment::ExperimentRecord;
use bera_tcpu::Fnv64;
use std::hash::{Hash, Hasher};

/// A workload's counters, in a fixed order.
pub type Counters = Vec<(&'static str, u64)>;

/// Adapts the engine's FNV-1a digest to [`Hasher`], so record fields
/// hash through their derived `Hash`.
struct FnvHasher(Fnv64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.write_bytes(bytes);
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Semantic digest of a campaign's records: FNV-1a over exactly the
/// fields `bera_goofi::planner::records_equivalent` compares (fault,
/// location, part, outcome, deviation bits, first strong iteration,
/// detection latency, outputs). Provenance metadata is excluded, so the
/// digest names *what* the campaign found, not how.
#[must_use]
pub fn records_digest(records: &[ExperimentRecord]) -> u64 {
    let mut h = FnvHasher(Fnv64::new());
    for r in records {
        r.fault.location_index.hash(&mut h);
        r.fault.inject_at.hash(&mut h);
        r.location.hash(&mut h);
        r.part.hash(&mut h);
        r.outcome.hash(&mut h);
        r.max_deviation.to_bits().hash(&mut h);
        r.first_strong_iteration.hash(&mut h);
        r.detection_latency.hash(&mut h);
        r.outputs.hash(&mut h);
    }
    h.finish()
}

/// `{"name":value,…}` on one line, the form `counters.json` stores per
/// workload.
#[must_use]
pub fn to_json(counters: &Counters) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Wraps any JSON value, so `serde_json` can hand back the raw tree.
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

/// Parses JSON text into a value tree.
///
/// # Errors
///
/// Returns the parser's description of a syntax error.
pub fn parse_json(text: &str) -> Result<serde::Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// The committed counters of `workload` in the `counters.json` text
/// `baseline`; `Ok(None)` when the file has no entry for it.
///
/// # Errors
///
/// Malformed JSON, or an entry that is not a map of unsigned integers.
pub fn baseline_for(baseline: &str, workload: &str) -> Result<Option<Vec<(String, u64)>>, String> {
    let root = parse_json(baseline)?;
    let Ok(entry) = root.field(workload) else {
        return Ok(None);
    };
    let serde::Value::Map(fields) = entry else {
        return Err(format!("counters of `{workload}` are not a JSON object"));
    };
    fields
        .iter()
        .map(|(name, v)| match v {
            serde::Value::U64(n) => Ok((name.clone(), *n)),
            other => Err(format!(
                "counter `{workload}.{name}` is {other:?}, not a count"
            )),
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// One `counter changed: name a -> b` line per counter that differs
/// between `baseline` and `current` (`absent` where one side lacks it).
#[must_use]
pub fn changes(baseline: &[(String, u64)], current: &Counters) -> Vec<String> {
    let show = |v: Option<u64>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
    let mut names: Vec<&str> = baseline.iter().map(|(n, _)| n.as_str()).collect();
    names.extend(current.iter().map(|(n, _)| *n));
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| {
            let a = baseline.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let b = current.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            (a != b).then(|| format!("counter changed: {name} {} -> {}", show(a), show(b)))
        })
        .collect()
}
