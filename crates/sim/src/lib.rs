//! # adaptbf-sim
//!
//! A deterministic discrete-event simulation of the full Lustre I/O path
//! the paper evaluates on (Figure 2, left): client processes with bounded
//! `max_rpcs_in_flight` windows → a latency-modelled network → an OSS whose
//! NRS/TBF scheduler feeds a pool of I/O threads → an OST disk model —
//! plus the AdapTBF control plane on top (job-stats tracker, System Stats
//! Controller loop, allocation algorithm, Rule Management Daemon).
//!
//! Three bandwidth-control policies are available ([`Policy`] — the
//! shared `adaptbf-node` type the live runtime takes too), exactly the
//! paper's baselines (Section IV-C):
//!
//! * **No BW** — no TBF rules; every RPC goes through the unruled fallback
//!   path and is served FCFS by idle I/O threads.
//! * **Static BW** — one TBF rule per job installed at t=0 with rate
//!   `T_i · p_x` from the *global* static priorities, never changed.
//! * **AdapTBF** — the full adaptive controller re-allocating every `Δt`.
//!
//! Everything is deterministic given a seed: RNG use is confined to
//! seeded [`rand::rngs::SmallRng`] instances (service-time and network
//! jitter), and event ties break on insertion order.
//!
//! Entry point: [`Experiment`] (one scenario × one policy × one seed →
//! [`RunReport`]), or [`Comparison`] to run all three policies and compute
//! the gain/loss tables the paper's Figures 4/6/8 report.
//!
//! The per-OST control plane itself — scheduler + `job_stats` + rule
//! daemon + controller — is the engine-agnostic [`adaptbf_node::OstNode`]
//! assembly; this crate drives one per simulated OST from its event loop,
//! and `adaptbf-runtime` drives the identical assembly from real threads.
//! Both executors fold into the same [`RunReport`] shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod engine;
pub mod experiment;
pub mod network;
pub mod ost;
pub mod report;
pub mod run_grid;
pub mod spec;

pub use adaptbf_node::{FaultStats, Policy, Timeline};
pub use adaptbf_workload::faults::{ChurnSpec, CrashSpec, DegradeSpec, FaultPlan, StallSpec};
pub use cluster::Cluster;
pub use experiment::{Comparison, Experiment, JobOutcome, RunReport};
pub use report::{frequency_sweep, report_body_digest, report_digest, FrequencyPoint};
pub use run_grid::RunGrid;
pub use spec::{plan_file_run, replay_cluster_config, replay_report, replay_report_with, FileRun};
