//! # bera-goofi — the fault injection framework
//!
//! A Rust reconstruction of **GOOFI** (Generic Object-Oriented Fault
//! Injection tool), the framework the paper uses to run its campaigns. The
//! same four phases are implemented:
//!
//! 1. **Configuration** — choose the injection technique and target:
//!    [`campaign::CampaignConfig`] selects SCIFI on the Thor-like CPU
//!    simulator ([`bera_tcpu`]) or pre-runtime SWIFI on the native
//!    controllers ([`swifi`]);
//! 2. **Set-up** — sample fault locations uniformly over the scan-chain
//!    catalog and injection times uniformly over the dynamic instructions
//!    of the workload ([`campaign::FaultList`]);
//! 3. **Fault injection** — run a golden reference execution, then one
//!    experiment per fault: position the target at the breakpoint, flip the
//!    bit through the scan chain, and run to the termination condition
//!    (an error detection, 650 iterations, or a hang)
//!    ([`experiment`]);
//! 4. **Analysis** — classify every experiment into the paper's taxonomy
//!    (detected / severe / minor value failure / latent / overwritten,
//!    [`classify`]) and aggregate into the paper's tables with 95 %
//!    confidence intervals ([`table`]).
//!
//! Campaigns are observable and durable: an [`observer::CampaignObserver`]
//! receives every life-cycle event (sampled, started, injected, detected,
//! spliced, classified, completed), the [`store`] module streams records
//! to a checksummed JSONL database as they classify, and an interrupted
//! campaign resumes from that database, re-running only the gap
//! ([`campaign::PreparedCampaign::run_resumed`]).
//!
//! # Example
//!
//! ```
//! use bera_goofi::campaign::{run_scifi_campaign, CampaignConfig};
//! use bera_goofi::table::tabulate;
//! use bera_goofi::workload::Workload;
//!
//! let workload = Workload::algorithm_one();
//! let cfg = CampaignConfig::quick(50, 42); // 50 faults, fixed seed
//! let result = run_scifi_campaign(&workload, &cfg);
//! let table = tabulate(&result);
//! assert_eq!(table.total_faults(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod classify;
pub mod experiment;
pub mod failpoints;
pub mod farm;
pub mod observer;
pub mod planner;
pub mod propagation;
mod recall;
mod replay;
pub mod steady;
pub mod store;
pub mod supervisor;
pub mod swifi;
pub mod table;
pub mod workload;

pub use campaign::{
    prepare_campaign, run_scifi_campaign, run_scifi_campaign_observed, CampaignConfig,
    CampaignResult, PreparedCampaign,
};
pub use classify::{Classifier, HarnessCause, Outcome, Severity};
pub use experiment::{
    golden_run, instruction_cap, run_experiment, Checkpoint, ExperimentRecord, FaultModel,
    FaultSpec, GoldenRun, LoopConfig, Provenance,
};
pub use farm::{
    assemble_farm, init_farm, merge_farm, read_manifest, run_worker, FarmError, FarmManifest,
    LeasePolicy, ShardSpec,
};
pub use observer::{CampaignObserver, NullObserver, ObserverSet, Telemetry, TelemetrySnapshot};
pub use planner::{plan_campaign, records_equivalent, CampaignPlan, PlanAction};
pub use store::{load_store, JsonlStore, LoadedCampaign, StoreError, StoreHeader};
pub use supervisor::{ChaosHarness, SupervisorConfig};
pub use table::{tabulate, ComparisonTable, ModelBreakdown, PaperTable};
pub use workload::{Workload, WorkloadError};
