//! Golden report regression for the metrics fold path: every built-in
//! scenario × all three policies renders a report digest (per-job
//! outcomes, latency percentiles, timeline and gauge CSVs) that must stay
//! byte-identical across internal `sim::Metrics` representation changes.
//!
//! The checked-in goldens under `tests/golden/reports/` were generated
//! from the original BTreeMap-backed metrics implementation; the
//! slot-interned flat implementation must reproduce them exactly.
//! Regenerate (only for an *intentional* report change) with:
//!
//! ```bash
//! ADAPTBF_REGEN_GOLDEN=1 cargo test --test report_golden
//! ```

use adaptbf::model::SimDuration;
use adaptbf::sim::cluster::ClusterConfig;
use adaptbf::sim::{Experiment, Policy, RunReport, Timeline};
use adaptbf::workload::{scenarios, Scenario};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 11;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reports")
}

/// A fault built-in at digest scale: the scenario plus the wiring that
/// carries its fault plan (scaled so the windows land inside the short
/// golden horizon).
fn fault_case(
    name: &str,
    file: adaptbf::workload::ScenarioFile,
) -> (String, Scenario, ClusterConfig) {
    let plan = adaptbf::sim::plan_file_run(&file).expect("valid fault built-in");
    assert!(
        !plan.cluster.faults.is_none(),
        "{name} must inject its fault plan"
    );
    (name.to_string(), plan.scenario, plan.cluster)
}

/// The built-in scenarios at digest scale, with the wiring each runs on.
fn cases() -> Vec<(String, Scenario, ClusterConfig)> {
    let small = 1.0 / 32.0;
    let default = ClusterConfig::default();
    let striped = ClusterConfig {
        n_osts: 2,
        stripe_count: 2,
        ..ClusterConfig::default()
    };
    let wide = ClusterConfig {
        n_clients: 8,
        n_osts: 16,
        ..ClusterConfig::default()
    };
    vec![
        (
            "token_allocation".into(),
            scenarios::token_allocation_scaled(small),
            default,
        ),
        (
            "token_redistribution".into(),
            scenarios::token_redistribution_scaled(small),
            default,
        ),
        (
            "token_redistribution_2ost".into(),
            scenarios::token_redistribution_scaled(small),
            striped,
        ),
        (
            "token_recompensation".into(),
            scenarios::token_recompensation_scaled(small),
            default,
        ),
        (
            "hog_and_victim".into(),
            scenarios::hog_and_victim_scaled(small),
            default,
        ),
        (
            "job_churn".into(),
            scenarios::job_churn_scaled(small),
            default,
        ),
        (
            "scale_stress".into(),
            scenarios::scale_stress(24, 4),
            default,
        ),
        (
            "million_rpc_smoke".into(),
            scenarios::million_rpc_scaled(1.0 / 64.0),
            wide,
        ),
        fault_case("ost_failover", scenarios::ost_failover_scaled(1.0 / 8.0)),
        fault_case(
            "churn_under_degradation",
            scenarios::churn_under_degradation_scaled(1.0 / 10.0),
        ),
    ]
}

/// Everything the reporting layer reads out of a run, rendered
/// deterministically: if any fold/read-time view shifts, this shifts.
fn digest(report: &RunReport) -> String {
    let mut out = String::new();
    let m = &report.metrics;
    let _ = writeln!(
        out,
        "== {} / {} seed={SEED} ==",
        report.scenario, report.policy
    );
    let _ = writeln!(out, "total_served={}", m.total_served());
    let _ = writeln!(out, "last_service_ns={}", m.last_service.as_nanos());
    for (job, outcome) in &report.per_job {
        let (p50, p99) = m
            .latency_of(*job)
            .map_or((SimDuration::ZERO, SimDuration::ZERO), |l| {
                (l.median(), l.p99())
            });
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
            p50.as_nanos(),
            p99.as_nanos(),
        );
    }
    for (title, family) in [
        ("served", Timeline::Served),
        ("demand", Timeline::Demand),
        ("records", Timeline::Records),
        ("allocations", Timeline::Allocations),
    ] {
        let _ = writeln!(out, "-- {title} --");
        m.write_csv(family, &mut out);
        out.push('\n');
    }
    out
}

fn render_case(scenario: &Scenario, cluster: ClusterConfig) -> String {
    let mut out = String::new();
    for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
        let report = Experiment::new(scenario.clone(), policy)
            .seed(SEED)
            .cluster_config(cluster)
            .run();
        out.push_str(&digest(&report));
    }
    out
}

#[test]
fn report_output_matches_golden_for_all_builtins_and_policies() {
    let dir = golden_dir();
    let regen = std::env::var_os("ADAPTBF_REGEN_GOLDEN").is_some();
    if regen {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut checked = 0;
    for (name, scenario, cluster) in cases() {
        let rendered = render_case(&scenario, cluster);
        let path = dir.join(format!("{name}.txt"));
        if regen {
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            rendered, golden,
            "report digest for `{name}` diverged from the golden \
             (ADAPTBF_REGEN_GOLDEN=1 regenerates after an intentional change)"
        );
        checked += 1;
    }
    if !regen {
        assert_eq!(checked, cases().len());
    }
}

/// Goldens must stay short-horizon: a digest is a regression oracle, not a
/// benchmark — keep each case's scenario within a few simulated seconds.
#[test]
fn golden_cases_stay_small() {
    for (name, scenario, _) in cases() {
        assert!(
            scenario.duration <= SimDuration::from_secs(5),
            "{name} horizon too long for a golden case"
        );
    }
}
