//! The result line: one JSON object with the run's verdict and every
//! metric of one [`crate::spec`] table, by name and with its unit.

use crate::spec::MetricSpec;

/// Metric values for one spec table. Every metric must be set exactly
/// once before [`Report::render`], so a printed line always carries the
/// whole table and nothing else.
pub struct Report {
    specs: &'static [MetricSpec],
    values: Vec<Option<f64>>,
}

impl Report {
    /// An empty report over `specs`.
    #[must_use]
    pub fn new(specs: &'static [MetricSpec]) -> Self {
        Report {
            specs,
            values: vec![None; specs.len()],
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table or was already set, or if
    /// `value` is not finite (JSON has no spelling for it).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's table"));
        assert!(self.values[i].is_none(), "metric `{name}` set twice");
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values[i] = Some(value);
    }

    /// The specs with their values, in table order.
    ///
    /// # Panics
    ///
    /// Panics if a metric was never set.
    #[must_use]
    pub fn entries(&self) -> Vec<(MetricSpec, f64)> {
        self.specs
            .iter()
            .zip(&self.values)
            .map(|(s, v)| {
                let v = v.unwrap_or_else(|| panic!("metric `{}` was never set", s.name));
                (*s, v)
            })
            .collect()
    }

    /// The result line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…},…}}`.
    /// Values print in Rust's shortest round-trip form, so every digit
    /// measured is kept.
    ///
    /// # Panics
    ///
    /// Panics if a metric was never set.
    #[must_use]
    pub fn render(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries()
            .iter()
            .map(|(s, v)| format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", s.name, s.unit))
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}
