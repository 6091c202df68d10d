//! # adaptbf-model
//!
//! Shared domain types for the AdapTBF reproduction.
//!
//! This crate is the vocabulary every other crate speaks: identifiers for
//! jobs, OSTs, clients and rules ([`ids`]), a dense per-run JobId interner
//! for slot-indexed hot paths ([`interner`]), a nanosecond-resolution virtual
//! clock ([`time`]), the RPC unit of work ([`rpc`]), configuration presets
//! mirroring the paper's CloudLab testbed ([`config`]), and the observation /
//! allocation / time-series records exchanged between the statistics
//! trackers, the allocation algorithm, and the reporting layer ([`stats`]).
//!
//! The crate is deliberately dependency-light (only `serde`) and contains no
//! behaviour beyond small arithmetic helpers, so that the substrate
//! (`adaptbf-tbf`, `adaptbf-sim`) and the contribution (`adaptbf-core`)
//! stay decoupled.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod ids;
pub mod interner;
pub mod latency;
pub mod rpc;
pub mod stats;
pub mod time;

pub use config::{AdapTbfConfig, ForecastMode, NetworkConfig, OstConfig, TbfSchedulerConfig};
pub use error::ModelError;
pub use ids::{ClientId, JobId, OstId, ProcId, RpcId, RuleId};
pub use interner::JobSlots;
pub use latency::LatencyHistogram;
pub use rpc::{OpCode, Rpc};
pub use stats::{BucketSeries, CycleGate, JobAllocation, JobObservation, PerJobSeries};
pub use time::{SimDuration, SimTime};
