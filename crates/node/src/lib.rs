//! # adaptbf-node
//!
//! The **engine-agnostic node layer**: everything an OSS/OST needs to run
//! AdapTBF — the cluster [`Policy`], the per-OST control-plane assembly
//! ([`OstNode`]: NRS/TBF scheduler + `job_stats` + Rule Management Daemon +
//! `AllocationController`), the slot-indexed [`Metrics`] collector and the
//! common [`RunReport`] every executor emits.
//!
//! Two executors consume this crate and nothing in it knows which one is
//! calling:
//!
//! * `adaptbf-sim` drives [`OstNode`]s from a deterministic discrete-event
//!   loop (virtual time);
//! * `adaptbf-runtime` drives one [`OstNode`] per OS thread against the
//!   wall clock.
//!
//! Keeping the assembly here is what makes the paper's *decentralized
//! control* claim testable end to end: the exact same control plane that
//! the simulator validates at scale is what the live threads deploy, and
//! both executors fold into the same [`RunReport`] shape so the analysis
//! layer (`adaptbf-analysis`) cannot drift toward either engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod metrics;
pub mod node;
pub mod policy;
pub mod report;

pub use control::{ControllerDriver, ControllerOverhead};
pub use metrics::{Metrics, Timeline};
pub use node::{install_static_rules, OstNode};
pub use policy::Policy;
pub use report::{FaultStats, JobOutcome, RunReport};
