//! The common run-report shape both executors emit.
//!
//! A [`RunReport`] is what the reporting and analysis layers
//! (`adaptbf-analysis`, the CLI tables, the bench CSV writers) consume.
//! The simulator builds one from its deterministic event loop; the live
//! runtime folds its wall-clock counters into the *same* type — so
//! fairness/latency/resilience analysis can never drift toward one
//! executor.

use crate::control::ControllerOverhead;
use crate::metrics::Metrics;
use adaptbf_model::{JobId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Counters the fault machinery keeps so crash/failover accounting can be
/// audited: no RPC is ever *silently* dropped. Every RPC an OST crash
/// displaces is counted on exactly one path at its first displacement —
/// re-routed to a survivor on arrival, parked until recovery, or resent
/// after the client timeout — so `resent + rerouted + parked` is the
/// number of displaced RPCs. A resend the horizon ends before it can fire
/// is the one way a displaced RPC stays unserved, and it is counted too.
/// Both executors keep the partition: the simulator in its event loop,
/// the live runtime in the crashed OST's thread. (All zero on fault-free
/// runs.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// RPCs scheduled for a client resend (queued backlog drained at the
    /// crash instant plus RPCs lost mid-service).
    pub resent: u64,
    /// Of [`FaultStats::resent`], RPCs that were on an I/O thread when it
    /// died (their `ServiceDone` carried a stale crash epoch).
    pub lost_in_service: u64,
    /// First-hand arrivals addressed to a crashed OST and handed to the
    /// next surviving member of the issuing process's stripe set.
    pub rerouted: u64,
    /// First-hand arrivals with no surviving stripe member, parked until
    /// the crash window closes and redelivered at recovery.
    pub parked: u64,
    /// Displaced RPCs whose redelivery — a resend, or a parked arrival's
    /// recovery-time redelivery — was scheduled past the run horizon: the
    /// run ended before the client could get them back on an OST (a crash
    /// window flush against the end of the run). These RPCs stay
    /// unserved, by the same rule that ends any in-flight work at the
    /// horizon — but never uncounted.
    pub undelivered: u64,
}

impl FaultStats {
    /// Fold another shard's / OST thread's share of the partition into
    /// this one. Every displaced RPC is counted on exactly one path by
    /// exactly one owner, so the fold is a plain sum.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.resent += other.resent;
        self.lost_in_service += other.lost_in_service;
        self.rerouted += other.rerouted;
        self.parked += other.parked;
        self.undelivered += other.undelivered;
    }
}

/// Per-job outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// RPCs served.
    pub served: u64,
    /// RPCs its patterns released within the horizon.
    pub released: u64,
    /// Whether all released work completed.
    pub completed: bool,
    /// Completion instant, if completed.
    pub completion: Option<SimTime>,
    /// Achieved throughput in tokens (RPCs) per second over the job's
    /// makespan — completion time if it finished, the horizon otherwise.
    pub throughput_tps: f64,
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Run horizon.
    pub duration: SimDuration,
    /// Full series (timelines for the figures).
    pub metrics: Metrics,
    /// Per-job outcomes.
    pub per_job: BTreeMap<JobId, JobOutcome>,
    /// Control-plane overhead per OST (empty under baselines).
    pub overheads: Vec<ControllerOverhead>,
    /// Fault-machinery accounting (all zero on fault-free runs): how many
    /// RPCs a crash window displaced and by which path they survived.
    pub fault_stats: FaultStats,
}

impl RunReport {
    /// Fold a finished run's collected metrics into the common report:
    /// one [`JobOutcome`] per job in `jobs` (makespan throughput from the
    /// completion instant, falling back to the horizon). Both executors
    /// build their reports through here, so the shape cannot drift.
    pub fn from_run(
        scenario: impl Into<String>,
        policy: impl Into<String>,
        duration: SimDuration,
        metrics: Metrics,
        jobs: &[JobId],
        overheads: Vec<ControllerOverhead>,
        fault_stats: FaultStats,
    ) -> Self {
        let horizon_secs = duration.as_secs_f64();
        let mut per_job = BTreeMap::new();
        for &job in jobs {
            let served = metrics.served_of(job);
            let released = metrics.released_of(job);
            let completion = metrics.completion_of(job);
            let makespan = completion.map_or(horizon_secs, |t| t.as_secs_f64());
            per_job.insert(
                job,
                JobOutcome {
                    job,
                    served,
                    released,
                    completed: completion.is_some(),
                    completion,
                    throughput_tps: if makespan > 0.0 {
                        served as f64 / makespan
                    } else {
                        0.0
                    },
                },
            );
        }
        RunReport {
            scenario: scenario.into(),
            policy: policy.into(),
            duration,
            metrics,
            per_job,
            overheads,
            fault_stats,
        }
    }

    /// Aggregate throughput in RPC/s over the workload's makespan (the
    /// instant of the last disk completion) — so a run that finishes all
    /// its work early is not diluted by trailing idle time.
    pub fn overall_throughput_tps(&self) -> f64 {
        let served = self.metrics.total_served();
        if served == 0 {
            return 0.0;
        }
        let makespan = self.metrics.last_service.as_secs_f64();
        served as f64 / makespan.max(self.metrics.bucket.as_secs_f64())
    }

    /// One job's makespan throughput (0 for unknown jobs).
    pub fn job_throughput(&self, job: JobId) -> f64 {
        self.per_job.get(&job).map_or(0.0, |o| o.throughput_tps)
    }

    /// One job's served share of the total (0 when nothing was served).
    pub fn served_share(&self, job: JobId) -> f64 {
        let total = self.metrics.total_served();
        if total == 0 {
            0.0
        } else {
            self.metrics.served_of(job) as f64 / total as f64
        }
    }

    /// Fraction of the configured token ceiling actually used.
    pub fn utilization(&self, max_token_rate: f64) -> f64 {
        self.overall_throughput_tps() / max_token_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_run_computes_makespan_throughput() {
        let mut m = Metrics::new(SimDuration::from_millis(100));
        m.set_released(JobId(1), 2);
        m.set_released(JobId(2), 5);
        m.on_served(JobId(1), SimTime::from_millis(100));
        m.on_served(JobId(1), SimTime::from_millis(500));
        m.on_served(JobId(2), SimTime::from_millis(900));
        m.rebuild_completions();
        let r = RunReport::from_run(
            "tiny",
            "no_bw",
            SimDuration::from_secs(2),
            m,
            &[JobId(1), JobId(2)],
            Vec::new(),
            FaultStats::default(),
        );
        let j1 = r.per_job[&JobId(1)];
        assert!(j1.completed);
        assert_eq!(j1.completion, Some(SimTime::from_millis(500)));
        assert!((j1.throughput_tps - 4.0).abs() < 1e-9, "2 RPCs / 0.5 s");
        let j2 = r.per_job[&JobId(2)];
        assert!(!j2.completed);
        assert!((j2.throughput_tps - 0.5).abs() < 1e-9, "1 RPC / horizon");
        assert!((r.served_share(JobId(1)) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.served_share(JobId(9)), 0.0);
        assert!(r.overall_throughput_tps() > 0.0);
    }

    #[test]
    fn empty_run_reports_zeros() {
        let m = Metrics::new(SimDuration::from_millis(100));
        let r = RunReport::from_run(
            "empty",
            "no_bw",
            SimDuration::from_secs(1),
            m,
            &[JobId(1)],
            Vec::new(),
            FaultStats::default(),
        );
        assert_eq!(r.overall_throughput_tps(), 0.0);
        assert_eq!(r.job_throughput(JobId(1)), 0.0);
        assert_eq!(r.served_share(JobId(1)), 0.0);
    }
}
