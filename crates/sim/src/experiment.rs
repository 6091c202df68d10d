//! Experiment runner and reports: one scenario × policy → [`RunReport`];
//! all three policies → [`Comparison`] with the gain/loss tables of
//! Figures 4/6/8.

use crate::cluster::{Cluster, ClusterConfig};
use adaptbf_model::JobId;
use adaptbf_node::Policy;
use adaptbf_workload::{FaultPlan, Scenario};

pub use adaptbf_node::{JobOutcome, RunReport};

/// One scenario × one policy × one seed.
#[derive(Debug, Clone)]
pub struct Experiment {
    scenario: Scenario,
    policy: Policy,
    seed: u64,
    cluster: ClusterConfig,
    shards: Option<usize>,
}

impl Experiment {
    /// New experiment with the default testbed wiring and seed 0.
    pub fn new(scenario: Scenario, policy: Policy) -> Self {
        Experiment {
            scenario,
            policy,
            seed: 0,
            cluster: ClusterConfig::default(),
            shards: None,
        }
    }

    /// Set the RNG seed (runs are fully deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shard the event loop ([`Cluster::shards`]). Purely an execution
    /// parameter: the report is byte-identical for every shard count.
    /// Unset, the cluster's `ADAPTBF_SHARDS` default applies.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Override the testbed wiring.
    pub fn cluster_config(mut self, cfg: ClusterConfig) -> Self {
        self.cluster = cfg;
        self
    }

    /// Inject a deterministic fault schedule (controller stalls, stats
    /// loss, device degradation).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cluster.faults = plan;
        self
    }

    /// Run to the horizon.
    pub fn run(self) -> RunReport {
        let mut cluster = Cluster::build_with(&self.scenario, self.policy, self.seed, self.cluster);
        if let Some(n) = self.shards {
            cluster = cluster.shards(n);
        }
        let jobs = self.scenario.job_ids();
        cluster
            .run()
            .into_report(self.scenario.name, self.policy, &jobs)
    }
}

/// One row of the paper's per-job comparison bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonRow {
    /// The job (`None` = the "overall" bar).
    pub job: Option<JobId>,
    /// Throughput under No BW, RPC/s.
    pub no_bw: f64,
    /// Throughput under Static BW, RPC/s.
    pub static_bw: f64,
    /// Throughput under AdapTBF, RPC/s.
    pub adaptbf: f64,
}

impl ComparisonRow {
    /// AdapTBF gain (positive) or loss (negative) vs No BW, as a fraction
    /// (the Figures 4(b)/6(b)/8(b) series).
    pub fn gain_vs_no_bw(&self) -> f64 {
        if self.no_bw <= 0.0 {
            0.0
        } else {
            (self.adaptbf - self.no_bw) / self.no_bw
        }
    }

    /// AdapTBF gain/loss vs Static BW.
    pub fn gain_vs_static(&self) -> f64 {
        if self.static_bw <= 0.0 {
            0.0
        } else {
            (self.adaptbf - self.static_bw) / self.static_bw
        }
    }
}

/// The three policies run on one scenario with one seed.
#[derive(Debug)]
pub struct Comparison {
    /// No BW baseline report.
    pub no_bw: RunReport,
    /// Static BW baseline report.
    pub static_bw: RunReport,
    /// AdapTBF report.
    pub adaptbf: RunReport,
}

impl Comparison {
    /// Run all three policies with the paper-default AdapTBF config.
    pub fn run(scenario: &Scenario, seed: u64) -> Self {
        Self::run_with(
            scenario,
            seed,
            Policy::adaptbf_default(),
            ClusterConfig::default(),
        )
    }

    /// Run with an explicit AdapTBF policy and testbed wiring. The three
    /// policy runs are independent and seed-deterministic, so they fan out
    /// over [`crate::RunGrid`] workers; results are identical to running
    /// them sequentially.
    pub fn run_with(
        scenario: &Scenario,
        seed: u64,
        adaptbf_policy: Policy,
        cluster: ClusterConfig,
    ) -> Self {
        assert!(
            matches!(adaptbf_policy, Policy::AdapTbf(_)),
            "third policy must be AdapTBF"
        );
        let mut reports = crate::RunGrid::new()
            .run(
                vec![Policy::NoBw, Policy::StaticBw, adaptbf_policy],
                |policy| {
                    Experiment::new(scenario.clone(), policy)
                        .seed(seed)
                        .cluster_config(cluster)
                        .run()
                },
            )
            .into_iter();
        Comparison {
            no_bw: reports.next().expect("three reports"),
            static_bw: reports.next().expect("three reports"),
            adaptbf: reports.next().expect("three reports"),
        }
    }

    /// Per-job rows in job order (Figures 4(a)/6(a)/8(a)).
    pub fn job_rows(&self) -> Vec<ComparisonRow> {
        self.no_bw
            .per_job
            .keys()
            .map(|job| ComparisonRow {
                job: Some(*job),
                no_bw: self.no_bw.job_throughput(*job),
                static_bw: self.static_bw.job_throughput(*job),
                adaptbf: self.adaptbf.job_throughput(*job),
            })
            .collect()
    }

    /// The "overall" row (aggregate throughput over the horizon).
    pub fn overall_row(&self) -> ComparisonRow {
        ComparisonRow {
            job: None,
            no_bw: self.no_bw.overall_throughput_tps(),
            static_bw: self.static_bw.overall_throughput_tps(),
            adaptbf: self.adaptbf.overall_throughput_tps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_workload::scenarios;

    #[test]
    fn run_report_totals_are_consistent() {
        let s = scenarios::token_allocation_scaled(1.0 / 64.0);
        let r = Experiment::new(s, Policy::NoBw).seed(3).run();
        let per_job_sum: u64 = r.per_job.values().map(|o| o.served).sum();
        assert_eq!(per_job_sum, r.metrics.total_served());
        assert!(r.overall_throughput_tps() > 0.0);
        assert!(r.utilization(1000.0) <= 1.2);
    }

    #[test]
    fn comparison_produces_rows_for_all_jobs() {
        let s = scenarios::token_allocation_scaled(1.0 / 64.0);
        let c = Comparison::run(&s, 5);
        assert_eq!(c.job_rows().len(), 4);
        let overall = c.overall_row();
        assert!(overall.no_bw > 0.0 && overall.adaptbf > 0.0);
    }

    #[test]
    fn gain_math() {
        let row = ComparisonRow {
            job: None,
            no_bw: 100.0,
            static_bw: 50.0,
            adaptbf: 120.0,
        };
        assert!((row.gain_vs_no_bw() - 0.2).abs() < 1e-12);
        assert!((row.gain_vs_static() - 1.4).abs() < 1e-12);
        let zero = ComparisonRow {
            job: None,
            no_bw: 0.0,
            static_bw: 0.0,
            adaptbf: 1.0,
        };
        assert_eq!(zero.gain_vs_no_bw(), 0.0);
    }

    #[test]
    fn completed_jobs_use_makespan_throughput() {
        let s = scenarios::token_allocation_scaled(1.0 / 64.0);
        let r = Experiment::new(s, Policy::NoBw).seed(3).run();
        for outcome in r.per_job.values() {
            assert!(outcome.completed, "tiny workload must finish");
            let makespan = outcome.completion.unwrap().as_secs_f64();
            let expect = outcome.served as f64 / makespan;
            assert!((outcome.throughput_tps - expect).abs() < 1e-9);
        }
    }
}
