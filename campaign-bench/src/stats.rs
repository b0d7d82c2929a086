//! Order statistics for wall-clock samples.
//!
//! A timing is reported as its median with quartiles and sample count. A
//! tail percentile is reported only when at least [`TAIL_MIN_BEYOND`]
//! samples lie beyond it; with fewer, the "tail" would be one or two
//! outliers.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median, quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); 0 for
/// no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median with quartiles. Quartiles use the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), so a
/// spread computed here matches one computed from the printed values.
/// `None` for no samples.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let quartile = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        q1: quartile(1),
        median: median(&v),
        q3: quartile(3),
    })
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`TAIL_MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    // Counting the samples beyond the rank (rather than the rank itself)
    // keeps `0.99 * 1000` from rounding up past 990.
    let beyond = (((1.0 - q) * n as f64).floor() as usize).min(n);
    if beyond < TAIL_MIN_BEYOND || beyond == n {
        return None;
    }
    Some(v[n - beyond - 1])
}

/// One human-readable line for a timing: median, quartiles and n always,
/// plus p99 when [`tail`] allows it.
#[must_use]
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let Some(s) = summarize(samples) else {
        return format!("{name}: no samples (n 0)");
    };
    let mut line = format!(
        "{name}: median {:.6} {unit} (q1 {:.6}, q3 {:.6}, n {})",
        s.median, s.q1, s.q3, s.n
    );
    if let Some(p99) = tail(samples, 0.99) {
        line.push_str(&format!(", p99 {p99:.6} {unit}"));
    }
    line
}
