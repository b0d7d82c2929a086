//! Shared helpers for the benchmark suite (see `benches/`).
//!
//! The benches quantify the paper's cost argument: executable assertions
//! and best effort recovery are a *software* mitigation whose per-iteration
//! overhead must be small compared to the control period (15.4 ms), unlike
//! hardware duplication.

use bera_goofi::experiment::LoopConfig;

/// A standard short loop configuration for campaign benches, with
/// checkpointing disabled — the from-reset baseline the paper-era campaign
/// engine used.
#[must_use]
pub fn bench_loop_config(iterations: usize) -> LoopConfig {
    LoopConfig {
        iterations,
        checkpoint_stride: 0,
        ..LoopConfig::paper()
    }
}

/// [`bench_loop_config`] with golden-run checkpointing enabled: experiments
/// fast-forward from the nearest checkpoint and prune converged tails.
#[must_use]
pub fn bench_loop_config_checkpointed(iterations: usize, stride: usize) -> LoopConfig {
    LoopConfig {
        checkpoint_stride: stride,
        ..bench_loop_config(iterations)
    }
}
