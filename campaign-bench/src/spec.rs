//! What the benchmark measures: its workloads and every metric it prints,
//! with unit, direction and (end-to-end only) regression bound. The
//! repository's `BENCHMARK.json` must list exactly these; the
//! `metric_names` test holds the two together.

/// Seed used when `--seed` is absent, and the seed the committed work
/// counters (`counters.json`) were recorded at.
pub const DEFAULT_SEED: u64 = 20_010_701;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["alg1-single", "alg2-double"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, waste).
    Lower,
    /// Larger is better (throughput, useful ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed next to every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0` (tracing off). Times and
/// the rate are in reference seconds: wall time corrected by the
/// calibration kernel timed beside each campaign (see `kernel` and the
/// README on host noise). Campaign time and rate come from the run's mean
/// campaign, set-up time is the median. Memory is the peak after the
/// first campaign.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("campaign_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("experiments_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
];

/// Per-layer metrics, printed with `--trace 1`. Times are medians over
/// the run's traced campaigns; counts are exact for a seed. A layer a
/// workload does not exercise reads 0 (see the README's layer map).
pub const PER_LAYER: [MetricSpec; 41] = [
    layer("golden.s", "s", Lower),
    layer("golden.instructions", "count", Lower),
    layer("golden.checkpoints", "count", Lower),
    layer("planner.s", "s", Lower),
    layer("planner.analytic", "count", Higher),
    layer("planner.replicated", "count", Higher),
    layer("planner.simulate", "count", Lower),
    layer("planner.useful_ratio", "ratio", Higher),
    layer("batch.s", "s", Lower),
    layer("batch.members", "count", Higher),
    layer("batch.resolved", "count", Higher),
    layer("batch.split_offs", "count", Lower),
    layer("batch.rejected", "count", Lower),
    layer("batch.useful_ratio", "ratio", Higher),
    layer("restore.s", "s", Lower),
    layer("restore.n", "count", Lower),
    layer("restore.words", "count", Lower),
    layer("restore.full_clones", "count", Lower),
    layer("machine.ff_s", "s", Lower),
    layer("machine.drive_s", "s", Lower),
    layer("machine.instructions", "count", Lower),
    layer("machine.block_share", "ratio", Higher),
    layer("machine.instr_per_s", "1/s", Higher),
    layer("machine.converge_ratio", "ratio", Higher),
    layer("classify.s", "s", Lower),
    layer("experiment.p50_us", "us", Lower),
    layer("experiment.p99_us", "us", Lower),
    layer("experiment.n", "count", Lower),
    layer("replicate.s", "s", Lower),
    layer("supervisor.retries", "count", Lower),
    layer("supervisor.quarantined", "count", Lower),
    layer("farm.init_s", "s", Lower),
    layer("farm.worker_s.max", "s", Lower),
    layer("farm.worker_s.min", "s", Lower),
    layer("farm.imbalance", "ratio", Lower),
    layer("farm.merge_s", "s", Lower),
    layer("farm.segment_bytes", "B", Lower),
    layer("store.load_s", "s", Lower),
    layer("table.s", "s", Lower),
    layer("ledger.unattributed_frac", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// `true` when `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn is_valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}
