//! # adaptbf-tbf
//!
//! A faithful Rust model of the Lustre Network Request Scheduler's **Token
//! Bucket Filter (TBF)** policy — the substrate AdapTBF drives (paper
//! Section II-A, Figure 1).
//!
//! The pieces, mirroring Lustre:
//!
//! * [`TokenBucket`] — per-queue bucket refilled at a rule's rate, capped at
//!   a small depth (default 3) so a queue cannot inject an unbounded burst.
//! * [`RpcMatcher`] / [`TbfRule`] / [`RuleTable`] — an ordered rule list
//!   whose rules each name **one job**; the first rule naming a job
//!   governs it; rules are started, stopped and re-rated at runtime (this
//!   is the knob AdapTBF's Rule Management Daemon turns). Lustre's NID,
//!   opcode and conjunction rules are out — see [`matcher`] for why.
//! * [`TbfQueue`] — one FIFO of RPCs per ruled job with its bucket.
//! * [`DeadlineHeap`] — the indexed binary heap, one entry per schedulable
//!   queue, ordered by when it next holds a token to dispatch ("deadline").
//! * [`NrsTbfScheduler`] — ties it together. The invariant: a job's
//!   waiting RPCs are all in its queue if a rule names the job, else all
//!   in the unruled FCFS fallback queue, which is served opportunistically
//!   without any rate limit — exactly Lustre's starvation-freedom story.
//!   It serves the earliest-deadline token-ready queue (ties broken by
//!   rule weight, i.e. the hierarchy the daemon sets from job priority),
//!   and owns the crate's one job interner: a job's slot indexes its
//!   queue, its first rule, its fallback lane and its counters.
//! * [`RuleDaemon`] — turns a period's allocations into one rule
//!   transaction; it keeps no job→rule copy of its own.
//!
//! The scheduler is clock-agnostic: every method takes `now: SimTime`, so
//! the same code runs under the discrete-event simulator (`adaptbf-sim`)
//! and the live threaded runtime (`adaptbf-runtime`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod daemon;
mod fallback;
pub mod heap;
pub mod job_stats;
pub mod matcher;
pub mod queue;
pub mod rule;
pub mod scheduler;

pub use bucket::TokenBucket;
pub use daemon::RuleDaemon;
pub use heap::DeadlineHeap;
pub use job_stats::JobStatsTracker;
pub use matcher::RpcMatcher;
pub use queue::TbfQueue;
pub use rule::{RuleTable, TbfRule};
pub use scheduler::{NrsTbfScheduler, RuleSpec, SchedDecision, SchedulerStats};
