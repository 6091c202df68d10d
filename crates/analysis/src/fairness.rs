//! Fairness metrics over bandwidth shares.
//!
//! The paper's fairness objective is *priority-proportional* sharing, so
//! the raw Jain index over throughputs is computed on **normalized**
//! shares `x_j = throughput_j / priority_j`: a perfectly
//! priority-proportional allocation scores 1.0 regardless of how unequal
//! the priorities themselves are.

use adaptbf_model::{JobId, PerJobSeries};
use adaptbf_sim::RunReport;
use adaptbf_workload::Scenario;
use std::collections::BTreeMap;

/// Jain's fairness index `(Σx)² / (n·Σx²)` ∈ (0, 1]. Empty or all-zero
/// inputs score 1.0 (vacuously fair).
pub fn jains_index(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq <= f64::EPSILON {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Priority-normalized Jain index for a run: 1.0 ⇔ every job's throughput
/// is exactly proportional to its node share.
pub fn priority_fairness(report: &RunReport, scenario: &Scenario) -> f64 {
    let normalized: Vec<f64> = scenario
        .static_priorities()
        .into_iter()
        .map(|(job, p)| report.job_throughput(job) / p.max(f64::EPSILON))
        .collect();
    jains_index(&normalized)
}

/// Mean absolute proportionality error: `Σ_j |share_j − priority_j| / n`
/// over jobs that were served at all. 0 ⇔ perfectly proportional.
pub fn proportionality_error(
    served: &BTreeMap<JobId, u64>,
    priorities: &BTreeMap<JobId, f64>,
) -> f64 {
    let total: u64 = served.values().sum();
    if total == 0 || priorities.is_empty() {
        return 0.0;
    }
    let n = priorities.len() as f64;
    priorities
        .iter()
        .map(|(job, p)| {
            let share = served.get(job).copied().unwrap_or(0) as f64 / total as f64;
            (share - p).abs()
        })
        .sum::<f64>()
        / n
}

/// Per-window proportionality error over a served timeline: for each
/// window of `window_buckets` buckets where *all* jobs are active, compute
/// the proportionality error of that window's shares. Returns
/// `(window_start_bucket, error)` pairs — the paper's adaptivity story is
/// that these errors stay small *at every instant*, not just on average.
pub fn windowed_proportionality(
    served: &PerJobSeries,
    priorities: &BTreeMap<JobId, f64>,
    window_buckets: usize,
) -> Vec<(usize, f64)> {
    assert!(window_buckets >= 1);
    let len = served.max_len();
    let jobs: Vec<JobId> = priorities.keys().copied().collect();
    let mut out = Vec::new();
    let mut start = 0;
    while start + window_buckets <= len {
        let mut counts: BTreeMap<JobId, u64> = BTreeMap::new();
        for job in &jobs {
            let sum: f64 = (start..start + window_buckets)
                .map(|i| served.get(*job).map_or(0.0, |s| s.get(i)))
                .sum();
            counts.insert(*job, sum.round() as u64);
        }
        // Only meaningful when every job had demand in the window.
        if counts.values().all(|c| *c > 0) {
            out.push((start, proportionality_error(&counts, priorities)));
        }
        start += window_buckets;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_perfect_equality() {
        assert!((jains_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_detects_skew() {
        // One job hogging everything among n: index = 1/n.
        let idx = jains_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
        let mild = jains_index(&[2.0, 1.0]);
        assert!(mild < 1.0 && mild > 0.25);
    }

    #[test]
    fn proportionality_error_zero_when_exact() {
        let served: BTreeMap<JobId, u64> = [(JobId(1), 10), (JobId(2), 30)].into();
        let prio: BTreeMap<JobId, f64> = [(JobId(1), 0.25), (JobId(2), 0.75)].into();
        assert!(proportionality_error(&served, &prio) < 1e-12);
    }

    #[test]
    fn proportionality_error_grows_with_skew() {
        let prio: BTreeMap<JobId, f64> = [(JobId(1), 0.5), (JobId(2), 0.5)].into();
        let fair: BTreeMap<JobId, u64> = [(JobId(1), 50), (JobId(2), 50)].into();
        let unfair: BTreeMap<JobId, u64> = [(JobId(1), 90), (JobId(2), 10)].into();
        assert!(proportionality_error(&unfair, &prio) > proportionality_error(&fair, &prio) + 0.3);
    }

    #[test]
    fn windowed_skips_inactive_windows() {
        use adaptbf_model::{SimDuration, SimTime};
        let mut series = PerJobSeries::new(SimDuration::from_millis(100));
        let prio: BTreeMap<JobId, f64> = [(JobId(1), 0.5), (JobId(2), 0.5)].into();
        // Window 0: both active, equal. Window 1: only job 1 active.
        series.add(JobId(1), SimTime::from_millis(0), 10.0);
        series.add(JobId(2), SimTime::from_millis(50), 10.0);
        series.add(JobId(1), SimTime::from_millis(150), 10.0);
        let windows = windowed_proportionality(&series, &prio, 1);
        assert_eq!(windows.len(), 1, "only the all-active window counts");
        assert_eq!(windows[0].0, 0);
        assert!(windows[0].1 < 1e-12);
    }
}
