//! The percentile rule: a tail percentile is reported only when at least
//! ten samples lie beyond it, and the sample count is always printed.

use bera_campaign_bench::stats::{describe, mean, median, summarize, tail, TAIL_MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(TAIL_MIN_BEYOND, 10);
    // 999 samples: rank 990, only 9 beyond.
    assert_eq!(tail(&ramp(999), 0.99), None);
    // 1000 samples: rank 990, exactly 10 beyond.
    assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
    // A median always has enough samples beyond it once n >= 20.
    assert_eq!(tail(&ramp(20), 0.5), Some(10.0));
    assert_eq!(tail(&ramp(19), 0.5), None);
    assert_eq!(tail(&[], 0.99), None);
}

#[test]
fn tail_ignores_input_order() {
    let mut v = ramp(2000);
    v.reverse();
    assert_eq!(tail(&v, 0.99), Some(1980.0));
}

#[test]
fn description_always_carries_n_and_p99_only_when_allowed() {
    let short = describe("campaign_s", "s", &ramp(15));
    assert!(short.contains("n 15"), "{short}");
    assert!(!short.contains("p99"), "{short}");
    let long = describe("experiment", "us", &ramp(1000));
    assert!(long.contains("n 1000"), "{long}");
    assert!(long.contains("p99 990.000000 us"), "{long}");
    let empty = describe("campaign_s", "s", &[]);
    assert!(empty.contains("n 0"), "{empty}");
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let s = summarize(&ramp(10)).expect("non-empty");
    assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
    let s = summarize(&[3.0, 1.0, 4.0, 1.0, 5.0]).expect("non-empty");
    assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 4.5));
    let s = summarize(&[7.0]).expect("non-empty");
    assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
    assert_eq!(summarize(&[]), None);
    assert_eq!(median(&[2.0, 1.0]), 1.5);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    assert_eq!(mean(&[]), 0.0);
}
