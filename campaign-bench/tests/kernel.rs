//! The calibration kernel is the yardstick the end-to-end times are
//! measured against, so it must do the same work on every commit: its
//! checksum, step count and reference time are pinned here. Changing any
//! of them changes every reported time and must be its own change to the
//! benchmark.

use bera_campaign_bench::kernel::{reference_seconds, Kernel, REFERENCE_S, TIMED_STEPS};

#[test]
fn kernel_work_is_pinned() {
    assert_eq!(Kernel::new().run(1_000_000), 9_079_059_957_497_529_063);
    assert_eq!(TIMED_STEPS, 20_000_000);
    assert_eq!(REFERENCE_S, 0.030);
}

#[test]
fn reference_seconds_scale_by_host_speed() {
    // At the reference speed, reference seconds are wall seconds.
    assert_eq!(reference_seconds(1.5, REFERENCE_S), 1.5);
    // On a host running the kernel at half speed, a campaign that took
    // twice as long took the same reference time.
    assert_eq!(reference_seconds(3.0, 2.0 * REFERENCE_S), 1.5);
}
