//! Burst responsiveness: per-job end-to-end latency comparisons.
//!
//! Figures 5–6's qualitative claim — "AdapTBF serves bursts promptly while
//! No BW lets the hog's queue stretch them" — becomes a median/p99 latency
//! comparison per job.

use adaptbf_model::{JobId, LatencyHistogram, SimDuration};
use adaptbf_sim::{Comparison, RunReport};
use std::collections::BTreeMap;

/// Latency percentiles of one job under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLatency {
    /// Median end-to-end RPC latency.
    pub median: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Samples recorded.
    pub samples: u64,
}

impl JobLatency {
    /// Extract from a histogram.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        JobLatency {
            median: h.median(),
            p99: h.p99(),
            samples: h.count(),
        }
    }
}

/// Per-job latency across the three policies.
#[derive(Debug, Clone)]
pub struct LatencyComparison {
    /// `job → (no_bw, static_bw, adaptbf)` percentiles.
    pub per_job: BTreeMap<JobId, (JobLatency, JobLatency, JobLatency)>,
}

impl LatencyComparison {
    /// Build from a three-policy comparison.
    pub fn from_comparison(c: &Comparison) -> Self {
        let jobs: Vec<JobId> = c.no_bw.per_job.keys().copied().collect();
        let empty = LatencyHistogram::new();
        let get = |r: &RunReport, j: JobId| {
            JobLatency::from_histogram(r.metrics.latency_of(j).unwrap_or(&empty))
        };
        let per_job = jobs
            .into_iter()
            .map(|j| {
                (
                    j,
                    (get(&c.no_bw, j), get(&c.static_bw, j), get(&c.adaptbf, j)),
                )
            })
            .collect();
        LatencyComparison { per_job }
    }

    /// Median-latency speedup of AdapTBF over No BW for one job
    /// (`> 1` = AdapTBF faster).
    pub fn median_speedup_vs_no_bw(&self, job: JobId) -> f64 {
        match self.per_job.get(&job) {
            Some((no_bw, _, adaptbf)) if adaptbf.median.as_nanos() > 0 => {
                no_bw.median.as_nanos() as f64 / adaptbf.median.as_nanos() as f64
            }
            _ => 1.0,
        }
    }

    /// Render as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<8} {:>12} {:>12} {:>12} {:>10}\n",
            "job", "nobw_median", "stat_median", "adap_median", "speedup"
        );
        for (job, (n, s, a)) in &self.per_job {
            out.push_str(&format!(
                "{:<8} {:>12} {:>12} {:>12} {:>9.1}x\n",
                job.to_string(),
                n.median.to_string(),
                s.median.to_string(),
                a.median.to_string(),
                self.median_speedup_vs_no_bw(*job),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_latency_from_histogram() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(SimDuration::from_millis(2));
        }
        let l = JobLatency::from_histogram(&h);
        assert_eq!(l.samples, 100);
        assert!(l.median >= SimDuration::from_millis(2));
        assert!(l.p99 >= l.median);
    }

    #[test]
    fn speedup_defaults_to_one_for_unknown_jobs() {
        let lc = LatencyComparison {
            per_job: BTreeMap::new(),
        };
        assert_eq!(lc.median_speedup_vs_no_bw(JobId(9)), 1.0);
    }
}
