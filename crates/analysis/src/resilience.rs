//! Resilience summary: how a run behaves through a disturbance window and
//! how quickly per-job bandwidth shares converge back to their pre-fault
//! steady state — the evaluation axis of the fault & churn scenarios
//! (`ost_failover`, `churn_under_degradation`).
//!
//! The summary is computed purely from a [`RunReport`]'s served timeline,
//! so it works on live runs and replays alike and needs no extra hooks in
//! the simulator.

use adaptbf_model::{BucketSeries, JobId, SimTime};
use adaptbf_sim::RunReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One job's share trajectory through a disturbance window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResilience {
    /// Mean share of served RPCs per bucket over the pre-fault buckets.
    pub baseline_share: f64,
    /// Lowest share observed inside the fault window.
    pub dip_share: f64,
    /// First bucket start at/after the window's end where the job's share
    /// is back within tolerance of its baseline (`None` = never within
    /// the horizon).
    pub recovered_at: Option<SimTime>,
    /// Seconds from the window's end to [`JobResilience::recovered_at`].
    pub recovery_secs: Option<f64>,
}

/// Recovery-time summary of one run around one fault window.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceSummary {
    /// The disturbance window analyzed `[from, until)`.
    pub window: (SimTime, SimTime),
    /// Relative tolerance: a job counts as recovered once its share is at
    /// least `(1 - tolerance) × baseline`.
    pub tolerance: f64,
    /// Per-job trajectories (jobs with no pre-fault service are omitted).
    pub per_job: BTreeMap<JobId, JobResilience>,
}

impl ResilienceSummary {
    /// Whether every tracked job converged back within tolerance.
    pub fn all_recovered(&self) -> bool {
        self.per_job.values().all(|j| j.recovered_at.is_some())
    }

    /// The slowest recovery in seconds after the window's end (`None` if
    /// some job never recovered or nothing was tracked).
    pub fn worst_recovery_secs(&self) -> Option<f64> {
        let mut worst: f64 = 0.0;
        for j in self.per_job.values() {
            worst = worst.max(j.recovery_secs?);
        }
        if self.per_job.is_empty() {
            None
        } else {
            Some(worst)
        }
    }

    /// Render as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "resilience through {}..{} (tolerance {:.0}%):\n{:<8} {:>10} {:>10} {:>14}\n",
            self.window.0,
            self.window.1,
            self.tolerance * 100.0,
            "job",
            "baseline",
            "dip",
            "recovery_secs"
        );
        for (job, j) in &self.per_job {
            let _ = writeln!(
                out,
                "{:<8} {:>10.3} {:>10.3} {:>14}",
                job.to_string(),
                j.baseline_share,
                j.dip_share,
                j.recovery_secs
                    .map_or_else(|| "-".to_string(), |s| format!("{s:.1}")),
            );
        }
        out
    }
}

/// One run's resilience score: the dip/recovery summary collapsed to the
/// numbers a chaos campaign ranks runs by, plus the conservation audit of
/// the fault-stats partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunScore {
    /// Jobs with a pre-window baseline (dip/recovery are defined for
    /// these; 0 means the window started before any service).
    pub tracked_jobs: usize,
    /// Worst in-window share collapse across tracked jobs, as
    /// `dip_share / baseline_share` (1.0 when nothing is tracked, 0.0 when
    /// some job was starved outright).
    pub worst_dip_ratio: f64,
    /// Whether every tracked job converged back within tolerance.
    pub all_recovered: bool,
    /// Slowest recovery in seconds past the window (`None` when some job
    /// never recovered or nothing was tracked).
    pub worst_recovery_secs: Option<f64>,
    /// Whether the run's accounting invariants hold ([`conservation_ok`]).
    pub conservation_ok: bool,
}

impl RunScore {
    /// Whether this run counts as a resilience violation: broken
    /// conservation, or a tracked job that never converged back.
    pub fn violates(&self) -> bool {
        !self.conservation_ok || (self.tracked_jobs > 0 && !self.all_recovered)
    }
}

/// Score one run over the disturbance window `[from, until)`:
/// [`resilience`] collapsed to campaign-ranking numbers plus the
/// [`conservation_ok`] audit.
pub fn score_run(report: &RunReport, from: SimTime, until: SimTime, tolerance: f64) -> RunScore {
    let summary = resilience(report, from, until, tolerance);
    let mut worst_dip = 1.0f64;
    for j in summary.per_job.values() {
        if j.baseline_share > 0.0 {
            worst_dip = worst_dip.min(j.dip_share / j.baseline_share);
        }
    }
    RunScore {
        tracked_jobs: summary.per_job.len(),
        worst_dip_ratio: worst_dip,
        all_recovered: summary.all_recovered(),
        worst_recovery_secs: summary.worst_recovery_secs(),
        conservation_ok: conservation_ok(report),
    }
}

/// Audit a report's accounting invariants: the fault-stats partition
/// (`lost_in_service ≤ resent`, `undelivered ≤ resent + parked`) and
/// per-job conservation (`served ≤ released`). A healthy run — faulty or
/// not — always passes; a `false` here means the RPC bookkeeping itself
/// leaked and outranks any recovery-time finding.
pub fn conservation_ok(report: &RunReport) -> bool {
    let fs = &report.fault_stats;
    fs.lost_in_service <= fs.resent
        && fs.undelivered <= fs.resent + fs.parked
        && report.per_job.values().all(|o| o.served <= o.released)
}

/// Campaign-level aggregate over many scored runs: the worst numbers a
/// policy produced anywhere in a sweep. Chaos campaigns and the CI floor
/// check both consume this instead of re-folding [`RunScore`]s by hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scorecard {
    /// Runs absorbed.
    pub runs: usize,
    /// Deepest `dip/baseline` collapse across all runs (1.0 = no dip
    /// anywhere).
    pub worst_dip_ratio: f64,
    /// Slowest recovery observed across runs that did recover, seconds.
    pub worst_recovery_secs: f64,
    /// Runs where some tracked job never converged back.
    pub unrecovered_runs: usize,
    /// Runs whose accounting audit failed ([`conservation_ok`]).
    pub conservation_violations: usize,
}

impl Scorecard {
    /// An empty scorecard (identity of [`Scorecard::absorb`]).
    pub fn new() -> Self {
        Scorecard {
            runs: 0,
            worst_dip_ratio: 1.0,
            worst_recovery_secs: 0.0,
            unrecovered_runs: 0,
            conservation_violations: 0,
        }
    }

    /// Fold one run's score into the aggregate.
    pub fn absorb(&mut self, score: &RunScore) {
        self.runs += 1;
        self.worst_dip_ratio = self.worst_dip_ratio.min(score.worst_dip_ratio);
        if score.tracked_jobs > 0 && !score.all_recovered {
            self.unrecovered_runs += 1;
        } else if let Some(secs) = score.worst_recovery_secs {
            self.worst_recovery_secs = self.worst_recovery_secs.max(secs);
        }
        if !score.conservation_ok {
            self.conservation_violations += 1;
        }
    }

    /// Aggregate a whole set of scores at once.
    pub fn from_scores<'a>(scores: impl IntoIterator<Item = &'a RunScore>) -> Self {
        let mut card = Scorecard::new();
        for score in scores {
            card.absorb(score);
        }
        card
    }
}

impl Default for Scorecard {
    fn default() -> Self {
        Self::new()
    }
}

/// Summarize how `report`'s per-job served shares move through the fault
/// window `[from, until)` and when they return to within `tolerance` of
/// their pre-window baseline.
///
/// Shares are per 100 ms metrics bucket: `job served / total served` in
/// that bucket (buckets where nothing was served are skipped — shares are
/// undefined there). Jobs that never served before the window (e.g. they
/// start inside it) are not tracked, and a job that completed all its
/// released work counts as recovered at its completion instant — a
/// finished job has nothing left to converge.
pub fn resilience(
    report: &RunReport,
    from: SimTime,
    until: SimTime,
    tolerance: f64,
) -> ResilienceSummary {
    assert!(from < until, "empty fault window");
    assert!((0.0..1.0).contains(&tolerance), "tolerance is a fraction");
    let served = report.metrics.served();
    let bucket = report.metrics.bucket;
    let n = served.max_len();
    // Per-bucket all-jobs totals, computed once: the baseline/dip/recovery
    // loops below probe O(jobs × buckets) shares and must not re-sum the
    // whole job set on every probe.
    let totals = served.aggregate().values;
    let share_of = |series: &BucketSeries, i: usize| -> Option<f64> {
        if totals[i] <= 0.0 {
            return None;
        }
        Some(series.get(i) / totals[i])
    };
    let first_in_window = from.bucket_index(bucket);
    let first_after = until.as_nanos().div_ceil(bucket.as_nanos()) as usize;

    let mut per_job = BTreeMap::new();
    for (job, series) in served.iter() {
        // Baseline: mean share over pre-window buckets with service.
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..first_in_window.min(n) {
            if let Some(share) = share_of(series, i) {
                sum += share;
                count += 1;
            }
        }
        if count == 0 || sum <= 0.0 {
            continue; // no pre-fault service: recovery is undefined
        }
        let baseline = sum / count as f64;
        let mut dip = f64::INFINITY;
        for i in first_in_window..first_after.min(n) {
            if let Some(share) = share_of(series, i) {
                dip = dip.min(share);
            }
        }
        if !dip.is_finite() {
            dip = 0.0; // nothing served in the window at all
        }
        let mut recovered_at = None;
        for i in first_after..n {
            if let Some(share) = share_of(series, i) {
                if share >= (1.0 - tolerance) * baseline {
                    recovered_at = Some(SimTime(i as u64 * bucket.as_nanos()));
                    break;
                }
            }
        }
        // A job that finished all its released work has nothing left to
        // recover: it converged by completing (possibly before the window
        // even closed — its recovery cost is then zero).
        if recovered_at.is_none() {
            recovered_at = report
                .per_job
                .get(&job)
                .filter(|o| o.completed)
                .and_then(|o| o.completion)
                .map(|t| t.max(until));
        }
        per_job.insert(
            job,
            JobResilience {
                baseline_share: baseline,
                dip_share: dip,
                recovered_at,
                recovery_secs: recovered_at.map(|t| t.since(until).as_secs_f64()),
            },
        );
    }
    ResilienceSummary {
        window: (from, until),
        tolerance,
        per_job,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_sim::{Experiment, Policy};
    use adaptbf_workload::scenarios;

    #[test]
    fn healthy_run_recovers_instantly_from_a_nominal_window() {
        let report = Experiment::new(
            scenarios::token_allocation_scaled(1.0 / 16.0),
            Policy::adaptbf_default(),
        )
        .seed(3)
        .run();
        let summary = resilience(&report, SimTime::from_secs(1), SimTime::from_secs(2), 0.25);
        assert!(!summary.per_job.is_empty());
        assert!(summary.all_recovered(), "{}", summary.table());
        // Worst case is bounded by a job simply finishing its file later
        // in the run — still within the horizon.
        assert!(summary.worst_recovery_secs().unwrap() < 5.0);
        let table = summary.table();
        assert!(table.contains("recovery_secs"));
    }

    #[test]
    fn crash_window_dips_and_recovers() {
        let file = scenarios::ost_failover_scaled(0.25);
        let plan = adaptbf_sim::plan_file_run(&file).unwrap();
        let crash = file.faults.ost_crash.unwrap();
        let report = Experiment::new(plan.scenario, plan.policy)
            .seed(plan.seed)
            .cluster_config(plan.cluster)
            .run();
        let summary = resilience(&report, crash.from, crash.recovery_at(), 0.5);
        assert!(!summary.per_job.is_empty());
        // Shares converge back to steady state after the OST rejoins.
        assert!(summary.all_recovered(), "{}", summary.table());
    }

    #[test]
    fn jobs_without_prefault_service_are_skipped() {
        let report = Experiment::new(scenarios::token_allocation_scaled(1.0 / 32.0), Policy::NoBw)
            .seed(1)
            .run();
        // Window starting at t=0: no pre-fault buckets, nothing tracked.
        let summary = resilience(&report, SimTime::ZERO, SimTime::from_millis(100), 0.2);
        assert!(summary.per_job.is_empty());
        assert_eq!(summary.worst_recovery_secs(), None);
    }

    #[test]
    fn score_run_collapses_a_healthy_run_to_a_clean_score() {
        let report = Experiment::new(
            scenarios::token_allocation_scaled(1.0 / 16.0),
            Policy::adaptbf_default(),
        )
        .seed(3)
        .run();
        let score = score_run(&report, SimTime::from_secs(1), SimTime::from_secs(2), 0.25);
        assert!(score.tracked_jobs > 0);
        assert!(score.all_recovered);
        assert!(score.conservation_ok);
        assert!(!score.violates());
        assert!((0.0..=1.0).contains(&score.worst_dip_ratio));
        assert!(score.worst_recovery_secs.is_some());
    }

    #[test]
    fn conservation_audit_passes_the_fault_builtins() {
        for file in [
            scenarios::ost_failover_scaled(0.25),
            scenarios::churn_under_degradation_scaled(0.25),
        ] {
            let plan = adaptbf_sim::plan_file_run(&file).unwrap();
            let report = Experiment::new(plan.scenario, plan.policy)
                .seed(plan.seed)
                .cluster_config(plan.cluster)
                .run();
            assert!(conservation_ok(&report), "{}", report.scenario);
        }
    }

    #[test]
    fn scorecard_folds_worst_numbers_across_runs() {
        let clean = RunScore {
            tracked_jobs: 3,
            worst_dip_ratio: 0.8,
            all_recovered: true,
            worst_recovery_secs: Some(0.5),
            conservation_ok: true,
        };
        let stuck = RunScore {
            tracked_jobs: 2,
            worst_dip_ratio: 0.1,
            all_recovered: false,
            worst_recovery_secs: None,
            conservation_ok: true,
        };
        let leaky = RunScore {
            tracked_jobs: 2,
            worst_dip_ratio: 0.9,
            all_recovered: true,
            worst_recovery_secs: Some(1.5),
            conservation_ok: false,
        };
        assert!(!clean.violates());
        assert!(stuck.violates());
        assert!(leaky.violates());
        let card = Scorecard::from_scores([&clean, &stuck, &leaky]);
        assert_eq!(card.runs, 3);
        assert_eq!(card.worst_dip_ratio, 0.1);
        assert_eq!(card.worst_recovery_secs, 1.5);
        assert_eq!(card.unrecovered_runs, 1);
        assert_eq!(card.conservation_violations, 1);
        assert_eq!(
            Scorecard::from_scores(std::iter::empty::<&RunScore>()),
            Scorecard::new()
        );
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn rejects_empty_windows() {
        let report = Experiment::new(scenarios::token_allocation_scaled(1.0 / 32.0), Policy::NoBw)
            .seed(1)
            .run();
        let _ = resilience(&report, SimTime::from_secs(1), SimTime::from_secs(1), 0.2);
    }
}
