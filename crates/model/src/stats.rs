//! Records exchanged between the statistics tracker, the allocation
//! algorithm, and the reporting layer, plus time-bucketed series for the
//! paper's 100 ms-granularity timeline plots.

use crate::ids::JobId;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the System Stats Controller observed about one job during one
/// observation period `Δt` — the only inputs Eq (1)–(6) need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobObservation {
    /// The job.
    pub job: JobId,
    /// `n_x`: compute nodes allocated to the job (priority weight source).
    pub nodes: u64,
    /// `d_x`: RPCs the job issued to this OST during the period.
    pub demand_rpcs: u64,
}

impl JobObservation {
    /// Convenience constructor.
    pub fn new(job: JobId, nodes: u64, demand_rpcs: u64) -> Self {
        JobObservation {
            job,
            nodes,
            demand_rpcs,
        }
    }
}

/// The allocation the algorithm grants one job for the next period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobAllocation {
    /// The job.
    pub job: JobId,
    /// `α_x` after all three steps and integerization: whole tokens granted
    /// for the coming period.
    pub tokens: u64,
    /// The TBF rule rate implementing the grant, in tokens/second
    /// (`tokens / Δt`).
    pub rate_tps: f64,
}

/// A fault plan's verdict on one control cycle: what the System Stats
/// Controller gets to see of it. The plan decides (`FaultPlan::cycle_gate`
/// in `adaptbf-workload`), the node obeys (`OstNode::control_cycle` in
/// `adaptbf-node`); the type lives here because those two crates do not
/// know each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleGate {
    /// The cycle runs on the period's real statistics.
    Healthy,
    /// The `job_stats` read fails: the cycle runs over an empty active set.
    StatsLost,
    /// The OSS is down or its daemon hung: no collection, no allocation,
    /// no rule changes; statistics keep accumulating.
    Skip,
}

/// A fixed-width time-bucketed scalar series (e.g. RPCs served per 100 ms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSeries {
    /// Bucket width.
    pub bucket: SimDuration,
    /// One value per bucket, index 0 starting at `SimTime::ZERO`.
    pub values: Vec<f64>,
}

impl BucketSeries {
    /// New empty series with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        BucketSeries {
            bucket,
            values: Vec::new(),
        }
    }

    /// Add `amount` to the bucket containing `at`.
    pub fn add(&mut self, at: SimTime, amount: f64) {
        let idx = at.bucket_index(self.bucket);
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0.0);
        }
        self.values[idx] += amount;
    }

    /// Record an absolute value for the bucket containing `at` (last write
    /// wins; used for gauge-like series such as records).
    pub fn set(&mut self, at: SimTime, value: f64) {
        let idx = at.bucket_index(self.bucket);
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0.0);
        }
        self.values[idx] = value;
    }

    /// Sum of all bucket values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Value at bucket `i`, zero if beyond the recorded range.
    pub fn get(&self, i: usize) -> f64 {
        self.values.get(i).copied().unwrap_or(0.0)
    }

    /// Number of buckets recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no bucket has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A keyed family of [`BucketSeries`], one per job, in job order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PerJobSeries {
    series: BTreeMap<JobId, BucketSeries>,
    bucket: SimDuration,
}

impl PerJobSeries {
    /// New family with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        PerJobSeries {
            series: BTreeMap::new(),
            bucket,
        }
    }

    /// Add `amount` for `job` in the bucket containing `at`.
    pub fn add(&mut self, job: JobId, at: SimTime, amount: f64) {
        self.entry(job).add(at, amount);
    }

    /// Set the gauge value for `job` in the bucket containing `at`.
    pub fn set(&mut self, job: JobId, at: SimTime, value: f64) {
        self.entry(job).set(at, value);
    }

    fn entry(&mut self, job: JobId) -> &mut BucketSeries {
        let bucket = self.bucket;
        self.series
            .entry(job)
            .or_insert_with(|| BucketSeries::new(bucket))
    }

    /// Series for one job, if any activity was recorded.
    pub fn get(&self, job: JobId) -> Option<&BucketSeries> {
        self.series.get(&job)
    }

    /// Install a fully-built series for `job` (replacing any existing
    /// one). This is how slot-indexed collectors fold their flat storage
    /// back into the JobId-keyed report shape at read time.
    pub fn insert(&mut self, job: JobId, series: BucketSeries) {
        self.series.insert(job, series);
    }

    /// Iterate `(job, series)` in job order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &BucketSeries)> {
        self.series.iter().map(|(j, s)| (*j, s))
    }

    /// Jobs present in the family, in order.
    pub fn jobs(&self) -> Vec<JobId> {
        self.series.keys().copied().collect()
    }

    /// The longest recorded series length, in buckets.
    pub fn max_len(&self) -> usize {
        self.series.values().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Pad every job's series to a common length.
    pub fn align(&mut self) {
        let n = self.max_len();
        for s in self.series.values_mut() {
            if s.len() < n {
                s.values.resize(n, 0.0);
            }
        }
    }

    /// Sum across jobs per bucket (the "overall" line of the figures).
    pub fn aggregate(&self) -> BucketSeries {
        let mut out = BucketSeries::new(self.bucket);
        out.values = vec![0.0; self.max_len()];
        for s in self.series.values() {
            for (i, v) in s.values.iter().enumerate() {
                out.values[i] += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b100() -> SimDuration {
        SimDuration::from_millis(100)
    }

    #[test]
    fn add_accumulates_within_bucket() {
        let mut s = BucketSeries::new(b100());
        s.add(SimTime::from_millis(10), 1.0);
        s.add(SimTime::from_millis(90), 2.0);
        s.add(SimTime::from_millis(110), 5.0);
        assert_eq!(s.values, vec![3.0, 5.0]);
        assert_eq!(s.total(), 8.0);
        assert_eq!(s.get(99), 0.0, "past the end reads 0.0");
    }

    #[test]
    fn set_overwrites_gauge() {
        let mut s = BucketSeries::new(b100());
        s.set(SimTime::from_millis(50), 4.0);
        s.set(SimTime::from_millis(60), 7.0);
        assert_eq!(s.get(0), 7.0);
    }

    #[test]
    fn per_job_aggregate_sums_jobs() {
        let mut f = PerJobSeries::new(b100());
        f.add(JobId(1), SimTime::ZERO, 1.0);
        f.add(JobId(2), SimTime::ZERO, 2.0);
        f.add(JobId(2), SimTime::from_millis(150), 4.0);
        let agg = f.aggregate();
        assert_eq!(agg.values, vec![3.0, 4.0]);
    }

    #[test]
    fn align_pads_all_series() {
        let mut f = PerJobSeries::new(b100());
        f.add(JobId(1), SimTime::ZERO, 1.0);
        f.add(JobId(2), SimTime::from_millis(950), 1.0);
        f.align();
        assert_eq!(f.get(JobId(1)).unwrap().len(), 10);
        assert_eq!(f.get(JobId(2)).unwrap().len(), 10);
    }

    #[test]
    fn jobs_listed_in_order() {
        let mut f = PerJobSeries::new(b100());
        f.add(JobId(3), SimTime::ZERO, 1.0);
        f.add(JobId(1), SimTime::ZERO, 1.0);
        assert_eq!(f.jobs(), vec![JobId(1), JobId(3)]);
    }
}
