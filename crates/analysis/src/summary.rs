//! One-call analysis of a scenario under all three policies.

use crate::fairness::{priority_fairness, proportionality_error};
use crate::latency::LatencyComparison;
use adaptbf_model::JobId;
use adaptbf_sim::{Comparison, RunReport};
use adaptbf_workload::Scenario;
use std::collections::BTreeMap;

/// The analysis of one policy's run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyAnalysis {
    /// Aggregate throughput over the makespan, RPC/s.
    pub throughput_tps: f64,
    /// Priority-normalized Jain fairness index (1.0 = perfectly
    /// priority-proportional).
    pub priority_fairness: f64,
    /// Mean absolute deviation of served shares from priorities.
    pub proportionality_error: f64,
}

fn analyze_one(report: &RunReport, scenario: &Scenario) -> PolicyAnalysis {
    let priorities: BTreeMap<JobId, f64> = scenario.static_priorities().into_iter().collect();
    PolicyAnalysis {
        throughput_tps: report.overall_throughput_tps(),
        priority_fairness: priority_fairness(report, scenario),
        proportionality_error: proportionality_error(&report.metrics.served_by_job(), &priorities),
    }
}

/// Full three-policy analysis: throughput, fairness, latency.
#[derive(Debug)]
pub struct ScenarioAnalysis {
    /// No BW numbers.
    pub no_bw: PolicyAnalysis,
    /// Static BW numbers.
    pub static_bw: PolicyAnalysis,
    /// AdapTBF numbers.
    pub adaptbf: PolicyAnalysis,
    /// Per-job latency percentiles across policies.
    pub latency: LatencyComparison,
}

impl ScenarioAnalysis {
    /// Render as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<10} {:>12} {:>10} {:>12}\n",
            "policy", "tput_tps", "fairness", "prop_error"
        );
        for (name, a) in [
            ("no_bw", &self.no_bw),
            ("static_bw", &self.static_bw),
            ("adaptbf", &self.adaptbf),
        ] {
            out.push_str(&format!(
                "{:<10} {:>12.1} {:>10.3} {:>12.3}\n",
                name, a.throughput_tps, a.priority_fairness, a.proportionality_error
            ));
        }
        out
    }
}

/// Run the three policies on `scenario` and analyze the results.
pub fn analyze(scenario: &Scenario, seed: u64) -> ScenarioAnalysis {
    let comparison = Comparison::run(scenario, seed);
    analyze_comparison(&comparison, scenario)
}

/// Analyze an already-completed comparison.
pub fn analyze_comparison(comparison: &Comparison, scenario: &Scenario) -> ScenarioAnalysis {
    ScenarioAnalysis {
        no_bw: analyze_one(&comparison.no_bw, scenario),
        static_bw: analyze_one(&comparison.static_bw, scenario),
        adaptbf: analyze_one(&comparison.adaptbf, scenario),
        latency: LatencyComparison::from_comparison(comparison),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_workload::scenarios;

    #[test]
    fn adaptbf_is_fairer_than_no_bw_on_the_allocation_scenario() {
        let scenario = scenarios::token_allocation_scaled(1.0 / 16.0);
        let analysis = analyze(&scenario, 42);
        assert!(
            analysis.adaptbf.priority_fairness > analysis.no_bw.priority_fairness,
            "adaptbf {:.3} must be fairer than no_bw {:.3}",
            analysis.adaptbf.priority_fairness,
            analysis.no_bw.priority_fairness
        );
        // Throughputs comparable.
        assert!(analysis.adaptbf.throughput_tps > 0.9 * analysis.no_bw.throughput_tps);
        // Table renders.
        let table = analysis.table();
        assert!(table.contains("adaptbf"));
    }

    #[test]
    fn latency_table_includes_all_jobs() {
        let scenario = scenarios::token_allocation_scaled(1.0 / 32.0);
        let analysis = analyze(&scenario, 1);
        assert_eq!(analysis.latency.per_job.len(), 4);
        let t = analysis.latency.table();
        assert!(t.contains("job1") && t.contains("job4"));
    }
}
