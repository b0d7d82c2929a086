//! # bera-campaign-bench — the campaign benchmark
//!
//! Measures the fault-injection campaign engine the way its users meet
//! it: paper-scale campaigns, timed end to end as a distribution, with
//! every record checked, plus a per-layer ledger taken from outside the
//! engine (timed calls into its public functions and a
//! [`trace::Recorder`] observer). The `bera-bench` binary runs one
//! workload per invocation; see the README for workloads, metrics and the
//! layer map.

pub mod counters;
pub mod kernel;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
