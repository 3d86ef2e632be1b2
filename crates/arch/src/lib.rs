//! Architecture models for the CAMA reproduction: the designs, the
//! mapping toolchain, and the timing/area/energy models behind every
//! evaluation table and figure.
//!
//! * [`designs`] — the evaluated architectures (CAMA-E/T, CA, 2-/4-stride
//!   Impala, eAP, AP, 2-stride CAMA);
//! * [`timing`] — stage delays, the area-proportional wire-delay model,
//!   and frequencies (Table IV);
//! * [`mapping`] — connected-component packing into switches/banks, RCB
//!   band checks with group alignment, mode fallback, and global-switch
//!   allocation (Table V);
//! * [`resources`] / [`area`] — the array inventory and chip area
//!   (Figure 10);
//! * [`energy`] — the per-cycle activity-driven energy model
//!   (Figures 11b, 11c, 12), observing any `cama_sim` session through
//!   its one observer protocol (`ShardObserver`; a flat run is shard 0);
//! * [`hardware`] — a functional model of the mapped hardware, tested
//!   report-equivalent to the plain simulator;
//! * [`report`] — per-(benchmark, design) rollups, including the strided
//!   designs of Figure 13, and serving: one setup and one serving loop
//!   behind [`evaluate_serving`], [`evaluate_serving_parallel`] and
//!   [`evaluate_serving_by_tenant`], for 1- and 2-stride designs alike;
//! * [`tenant`] — per-tenant accounting for serving: a tenant-demuxing
//!   observer over the energy model whose slices sum to the table-wide
//!   breakdown, plus [`evaluate_serving_by_tenant`].
//!
//! # Examples
//!
//! ```
//! use cama_arch::designs::DesignKind;
//! use cama_arch::report::evaluate;
//! use cama_core::regex;
//!
//! let nfa = regex::compile("(a|b)e*cd+")?;
//! let report = evaluate(DesignKind::CamaE, &nfa, b"beecddacdd");
//! assert!(report.area.total().value() > 0.0);
//! assert!(report.energy_per_byte_nj() > 0.0);
//! # Ok::<(), cama_core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod designs;
pub mod energy;
pub mod hardware;
pub mod mapping;
pub mod report;
pub mod resources;
pub mod tenant;
pub mod timing;

pub use area::{area_report, AreaReport};
pub use designs::DesignKind;
pub use energy::{EnergyBreakdown, EnergyObserver, HybridShardEnergy, SwapEpochEnergy};
pub use hardware::{BankHardware, CamaHardware};
pub use mapping::{
    map_design, map_design_profiled, map_strided, Mapping, Partition, PartitionMode,
};
pub use report::{
    evaluate, evaluate_serving, evaluate_serving_parallel, evaluate_strided, strided_weights,
    DesignReport, ServingReport,
};
pub use tenant::{evaluate_serving_by_tenant, TenantAccountant, TenantEnergy, TenantServingReport};
pub use timing::{stage_delays, timing_report, StageDelays, TimingReport};
