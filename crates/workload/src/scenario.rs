//! A complete experiment description: jobs + duration + metadata.

use crate::job::JobSpec;
use adaptbf_model::{JobId, SimDuration};
use serde::{Deserialize, Serialize};

/// A full workload scenario, consumable by the simulator and the live
/// runtime alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Short name (used in reports and CSV paths).
    pub name: String,
    /// What the scenario exercises.
    pub description: String,
    /// The competing jobs.
    pub jobs: Vec<JobSpec>,
    /// Simulated duration.
    pub duration: SimDuration,
}

impl Scenario {
    /// New scenario; validates that job ids are unique and node counts
    /// positive.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        jobs: Vec<JobSpec>,
        duration: SimDuration,
    ) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for j in &jobs {
            assert!(seen.insert(j.id), "duplicate job id {}", j.id);
            assert!(j.nodes >= 1, "job {} must occupy at least one node", j.id);
            assert!(!j.processes.is_empty(), "job {} has no processes", j.id);
        }
        assert!(!duration.is_zero(), "scenario duration must be positive");
        Scenario {
            name: name.into(),
            description: description.into(),
            jobs,
            duration,
        }
    }

    /// The static priority `p_x = n_x / Σn` of every job, over *all* jobs
    /// in the scenario, in declaration order — what an administrator would
    /// configure for the Static BW baseline (Section IV-C). One pass sums
    /// the nodes, so scoring every job costs O(jobs), not O(jobs²).
    pub fn static_priorities(&self) -> Vec<(JobId, f64)> {
        let total: u64 = self.jobs.iter().map(|j| j.nodes).sum();
        let share = |j: &JobSpec| (j.id, j.nodes as f64 / total as f64);
        self.jobs.iter().map(share).collect()
    }

    /// One job's entry of [`Self::static_priorities`]; 0.0 for a job the
    /// scenario does not have.
    pub fn static_priority(&self, job: JobId) -> f64 {
        let mut priorities = self.static_priorities().into_iter();
        priorities.find(|&(j, _)| j == job).map_or(0.0, |(_, p)| p)
    }

    /// Node count for one job.
    pub fn nodes(&self, job: JobId) -> u64 {
        self.jobs
            .iter()
            .find(|j| j.id == job)
            .map_or(0, |j| j.nodes)
    }

    /// All job ids in declaration order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.iter().map(|j| j.id).collect()
    }

    /// `(job, nodes)` priority weights in declaration order (rule
    /// installation order matters for first-match-wins semantics).
    pub fn job_weights(&self) -> Vec<(JobId, u64)> {
        self.jobs.iter().map(|j| (j.id, j.nodes)).collect()
    }

    /// RPCs each job releases within the horizon, in declaration order —
    /// the completion-detection denominator both executors use
    /// ([`crate::ProcessSpec::released_within`] summed per job).
    pub fn released_by_job(&self) -> Vec<(JobId, u64)> {
        let released = |j: &JobSpec| {
            j.processes
                .iter()
                .map(|p| p.released_within(self.duration))
                .sum()
        };
        self.jobs.iter().map(|j| (j.id, released(j))).collect()
    }

    /// Total RPCs across all jobs (unbounded time).
    pub fn total_rpcs(&self) -> u64 {
        self.jobs.iter().map(|j| j.total_rpcs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ProcessSpec;

    fn job(id: u32, nodes: u64) -> JobSpec {
        JobSpec::uniform(JobId(id), nodes, 2, ProcessSpec::continuous(10))
    }

    #[test]
    fn static_priorities_use_all_jobs() {
        let s = Scenario::new(
            "t",
            "",
            vec![job(1, 1), job(2, 1), job(3, 3), job(4, 5)],
            SimDuration::from_secs(10),
        );
        assert!((s.static_priority(JobId(4)) - 0.5).abs() < 1e-9);
        assert!((s.static_priority(JobId(1)) - 0.1).abs() < 1e-9);
        assert_eq!(s.static_priority(JobId(99)), 0.0);
    }

    #[test]
    fn all_priorities_at_once_match_one_at_a_time() {
        let jobs = (1..=40)
            .map(|i| job(i * 3 % 41, u64::from(i % 7 + 1)))
            .collect();
        let s = Scenario::new("t", "", jobs, SimDuration::from_secs(1));
        let all = s.static_priorities();
        assert_eq!(all.iter().map(|p| p.0).collect::<Vec<_>>(), s.job_ids());
        for (job, p) in &all {
            assert_eq!(p.to_bits(), s.static_priority(*job).to_bits());
        }
        assert!((all.iter().map(|p| p.1).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accessors() {
        let s = Scenario::new(
            "t",
            "",
            vec![job(1, 2), job(7, 2)],
            SimDuration::from_secs(1),
        );
        assert_eq!(s.job_ids(), vec![JobId(1), JobId(7)]);
        assert_eq!(s.nodes(JobId(7)), 2);
        assert_eq!(s.total_rpcs(), 40);
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_rejected() {
        let _ = Scenario::new(
            "t",
            "",
            vec![job(1, 1), job(1, 1)],
            SimDuration::from_secs(1),
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Scenario::new("t", "", vec![job(1, 0)], SimDuration::from_secs(1));
    }
}
