//! Criterion microbenchmarks (see `benches/`): controller step overhead
//! and simulator throughput.
//!
//! The benches quantify the paper's cost argument: executable assertions
//! and best effort recovery are a *software* mitigation whose per-iteration
//! overhead must be small compared to the control period (15.4 ms), unlike
//! hardware duplication. Whole campaigns are timed by `campaign-bench/`.
