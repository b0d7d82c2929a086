//! Every metric the benchmark prints is well named and listed in the
//! repository's `BENCHMARK.json` with the same unit, direction and bound,
//! and everything `BENCHMARK.json` lists is printed; the same for the
//! workloads.

use bera_campaign_bench::counters::parse_json;
use bera_campaign_bench::report::Report;
use bera_campaign_bench::spec::{is_valid_name, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(root: &'a Value, key: &str) -> &'a [Value] {
    match root.field(key) {
        Ok(Value::Seq(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.field(key) {
        Ok(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn keys(entry: &Value) -> Vec<&str> {
    match entry {
        Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `(name, unit, better, bound)` as `BENCHMARK.json` lists them.
fn listed(root: &Value, key: &str, with_bound: bool) -> Vec<(String, String, String, Option<f64>)> {
    entries(root, key)
        .iter()
        .map(|e| {
            let expected: &[&str] = if with_bound {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(e), expected, "keys of a `{key}` entry");
            let bound = with_bound.then(|| match e.field("bound") {
                Ok(Value::F64(b)) => *b,
                other => panic!("bound is not a number: {other:?}"),
            });
            (
                text(e, "name").to_string(),
                text(e, "unit").to_string(),
                text(e, "better").to_string(),
                bound,
            )
        })
        .collect()
}

fn printed(specs: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
    specs
        .iter()
        .map(|s| {
            (
                s.name.to_string(),
                s.unit.to_string(),
                s.better.as_str().to_string(),
                s.bound,
            )
        })
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_listed_ones() {
    let root = benchmark_json();
    assert_eq!(printed(&END_TO_END), listed(&root, "end_to_end", true));
    assert_eq!(printed(&PER_LAYER), listed(&root, "per_layer", false));
}

#[test]
fn workloads_are_exactly_the_listed_ones() {
    let root = benchmark_json();
    let names: Vec<&str> = entries(&root, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn names_and_units_are_well_formed() {
    let all = END_TO_END.iter().chain(PER_LAYER.iter());
    let mut seen = std::collections::HashSet::new();
    for s in all {
        assert!(is_valid_name(s.name), "bad metric name `{}`", s.name);
        assert!(seen.insert(s.name), "metric `{}` listed twice", s.name);
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !s.unit.is_empty() && s.unit.len() <= 16 && s.unit.chars().all(unit_ok),
            "bad unit `{}` of `{}`",
            s.unit,
            s.name
        );
    }
    for w in WORKLOADS {
        assert!(is_valid_name(w), "bad workload name `{w}`");
    }
    assert!(!is_valid_name("-leading-dash"));
    assert!(!is_valid_name("space in name"));
    assert!(!is_valid_name(""));
}

#[test]
fn setup_time_has_the_largest_bound() {
    let setup = END_TO_END
        .iter()
        .find(|s| s.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|s| s.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));
    assert!(largest <= 0.25);
}

#[test]
fn result_line_carries_every_metric_by_name_and_unit() {
    let tables: [&'static [MetricSpec]; 2] = [&END_TO_END, &PER_LAYER];
    for specs in tables {
        let mut report = Report::new(specs);
        for (i, s) in specs.iter().enumerate() {
            report.set(s.name, 0.25 + i as f64);
        }
        let line = parse_json(&report.render(true, 7, 0)).expect("the result line is JSON");
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.field("metrics").expect("metrics");
        assert_eq!(
            keys(metrics),
            specs.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        for s in specs {
            let m = metrics.field(s.name).expect("listed metric");
            assert_eq!(keys(m), ["value", "unit"]);
            assert_eq!(text(m, "unit"), s.unit);
        }
    }
}

#[test]
#[should_panic(expected = "was never set")]
fn an_unset_metric_is_never_printed() {
    let mut report = Report::new(&END_TO_END);
    report.set("campaign_s", 1.0);
    let _ = report.render(true, 1, 0);
}
