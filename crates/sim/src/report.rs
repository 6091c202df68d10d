//! Report rendering: CSV timelines, ASCII tables, and the allocation-
//! frequency sweep of Figure 9.

use crate::cluster::ClusterConfig;
use crate::experiment::{ComparisonRow, Experiment};
use adaptbf_model::{AdapTbfConfig, SimDuration};
use adaptbf_node::{Policy, Timeline};
use adaptbf_workload::Scenario;

/// One point of the Figure 9 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyPoint {
    /// The observation period `Δt`.
    pub period: SimDuration,
    /// Aggregate throughput achieved, RPC/s.
    pub throughput_tps: f64,
}

/// Figure 9: run the scenario under AdapTBF for each allocation period and
/// report aggregate throughput. The per-period runs are independent, so
/// they fan out over [`crate::RunGrid`] workers; points come back in
/// period order regardless of thread count.
pub fn frequency_sweep(
    scenario: &Scenario,
    seed: u64,
    base: AdapTbfConfig,
    periods: &[SimDuration],
) -> Vec<FrequencyPoint> {
    frequency_sweep_on(scenario, seed, base, periods, ClusterConfig::default())
}

/// [`frequency_sweep`] on an explicit testbed wiring (scenario files can
/// pin multi-OST clusters).
pub fn frequency_sweep_on(
    scenario: &Scenario,
    seed: u64,
    base: AdapTbfConfig,
    periods: &[SimDuration],
    cluster: ClusterConfig,
) -> Vec<FrequencyPoint> {
    crate::RunGrid::new().run(periods.to_vec(), |period| {
        let cfg = base.with_period(period);
        let report = Experiment::new(scenario.clone(), Policy::AdapTbf(cfg))
            .seed(seed)
            .cluster_config(cluster)
            .run();
        FrequencyPoint {
            period,
            throughput_tps: report.overall_throughput_tps(),
        }
    })
}

/// Deterministic digest of everything the reporting layer reads out of a
/// run: totals, per-job outcomes with latency percentiles, the audited
/// fault-stats partition, and all four series CSVs.
///
/// Two runs are behaviourally identical iff their digests are
/// byte-identical — the chaos lab uses this as its record/replay oracle
/// and golden tests pin it on disk.
pub fn report_digest(report: &crate::RunReport) -> String {
    let mut out = format!("== {} / {} ==\n", report.scenario, report.policy);
    write_body_digest(report, &mut out);
    out
}

/// [`report_digest`] without the scenario/policy header line — what
/// record/replay equality compares (a replayed report renames its
/// scenario, the behaviour underneath must not move).
pub fn report_body_digest(report: &crate::RunReport) -> String {
    let mut out = String::new();
    write_body_digest(report, &mut out);
    out
}

/// The body both digests share, appended to `out`.
fn write_body_digest(report: &crate::RunReport, out: &mut String) {
    use std::fmt::Write as _;
    let m = &report.metrics;
    let _ = writeln!(out, "total_served={}", m.total_served());
    let _ = writeln!(out, "last_service_ns={}", m.last_service.as_nanos());
    let fs = &report.fault_stats;
    let _ = writeln!(
        out,
        "fault_stats resent={} lost_in_service={} rerouted={} parked={} undelivered={}",
        fs.resent, fs.lost_in_service, fs.rerouted, fs.parked, fs.undelivered
    );
    for (job, outcome) in &report.per_job {
        let latency = m.latency_of(*job);
        let ns = |p: f64| latency.map_or(0, |l| l.percentile(p).as_nanos());
        let _ = writeln!(
            out,
            "{job} served={} released={} completed={} completion_ns={} \
             p50_ns={} p99_ns={}",
            outcome.served,
            outcome.released,
            outcome.completed,
            outcome
                .completion
                .map_or_else(|| "-".to_string(), |t| t.as_nanos().to_string()),
            ns(0.5),
            ns(0.99),
        );
    }
    for (title, family) in [
        ("served", Timeline::Served),
        ("demand", Timeline::Demand),
        ("records", Timeline::Records),
        ("allocations", Timeline::Allocations),
    ] {
        let _ = writeln!(out, "-- {title} --");
        m.write_csv(family, out);
        out.push('\n');
    }
}

/// Render the per-job comparison bars (Figures 4/6/8) as an ASCII table.
pub fn comparison_table(rows: &[ComparisonRow], overall: ComparisonRow) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>14}\n",
        "job", "no_bw_tps", "static_tps", "adaptbf_tps", "gain_vs_nobw"
    ));
    for row in rows.iter().chain(std::iter::once(&overall)) {
        let label = row
            .job
            .map_or_else(|| "overall".to_string(), |j| j.to_string());
        out.push_str(&format!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1} {:>+13.1}%\n",
            label,
            row.no_bw,
            row.static_bw,
            row.adaptbf,
            row.gain_vs_no_bw() * 100.0
        ));
    }
    out
}

/// Render the Figure 9 sweep as CSV.
pub fn frequency_csv(points: &[FrequencyPoint]) -> String {
    let mut out = String::from("period_ms,throughput_tps\n");
    for p in points {
        out.push_str(&format!(
            "{:.0},{:.1}\n",
            p.period.as_secs_f64() * 1e3,
            p.throughput_tps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::JobId;

    #[test]
    fn comparison_table_includes_overall() {
        let rows = vec![ComparisonRow {
            job: Some(JobId(1)),
            no_bw: 100.0,
            static_bw: 80.0,
            adaptbf: 110.0,
        }];
        let overall = ComparisonRow {
            job: None,
            no_bw: 400.0,
            static_bw: 300.0,
            adaptbf: 390.0,
        };
        let table = comparison_table(&rows, overall);
        assert!(table.contains("job1"));
        assert!(table.contains("overall"));
        assert!(table.contains("+10.0%"));
    }

    #[test]
    fn frequency_csv_format() {
        let pts = vec![FrequencyPoint {
            period: SimDuration::from_millis(100),
            throughput_tps: 987.6,
        }];
        assert_eq!(frequency_csv(&pts), "period_ms,throughput_tps\n100,987.6\n");
    }
}
