//! Data-driven entry points: turn declarative scenario files and recorded
//! traces into runnable experiments.
//!
//! This is the glue between `adaptbf_workload::dsl` / `adaptbf_workload::trace`
//! (pure data) and the simulator's [`Policy`] / [`ClusterConfig`] /
//! [`RunReport`] types. The CLI (`run --scenario-file`, `record`, `replay`)
//! and the bench harness's replay grid both go through here, so file
//! semantics cannot drift between front ends.

use crate::cluster::{Cluster, ClusterConfig};
use crate::experiment::RunReport;
use adaptbf_model::config::paper;
use adaptbf_model::{AdapTbfConfig, JobId, SimDuration};
use adaptbf_node::Policy;
use adaptbf_workload::dsl::{DslError, ScenarioFile, TuningSpec};
use adaptbf_workload::faults::{validate_wiring, WiringError};
use adaptbf_workload::trace::Trace;
use adaptbf_workload::Scenario;

/// A fully resolved run plan from a scenario file: the workload plus the
/// policy/wiring its `run` block pins (paper defaults elsewhere).
#[derive(Debug, Clone)]
pub struct FileRun {
    /// The workload.
    pub scenario: Scenario,
    /// Policy (default: AdapTBF with the paper config).
    pub policy: Policy,
    /// Testbed wiring (default: the paper's 4-client single-OST testbed).
    pub cluster: ClusterConfig,
    /// RNG seed (default 42, the repo-wide default).
    pub seed: u64,
    /// Live-testbed knobs the file pins (`tuning` block). The simulator
    /// ignores them; the CLI's `--live` paths fold them into their
    /// `LiveTuning`.
    pub tuning: TuningSpec,
}

/// Resolve a parsed scenario file into a runnable plan.
pub fn plan_file_run(file: &ScenarioFile) -> Result<FileRun, DslError> {
    let scenario = file.to_scenario()?;
    let run = &file.run;
    let period = SimDuration::from_millis(run.period_ms.unwrap_or(100));
    if period.is_zero() {
        return Err(DslError("period_ms must be positive".into()));
    }
    let policy = policy_by_name(
        run.policy.as_deref().unwrap_or("adaptbf"),
        paper::adaptbf().with_period(period),
    )
    .ok_or_else(|| DslError(format!("unknown policy {:?}", run.policy)))?;
    let mut cluster = ClusterConfig::default();
    if let Some(n) = run.n_clients {
        cluster.n_clients = n;
    }
    if let Some(n) = run.n_osts {
        cluster.n_osts = n;
    }
    if let Some(n) = run.stripe_count {
        cluster.stripe_count = n;
    }
    // The file's `faults` block rides in the cluster wiring, so every
    // front end that runs the plan injects it automatically.
    validate_wiring(
        cluster.n_clients,
        cluster.n_osts,
        cluster.stripe_count,
        &file.faults,
    )
    .map_err(|e| match e {
        WiringError::Wiring(msg) => DslError(msg),
        WiringError::Fault(msg) => DslError(format!("faults: {msg}")),
    })?;
    cluster.faults = file.faults;
    file.tuning.validate().map_err(DslError)?;
    Ok(FileRun {
        scenario,
        policy,
        cluster,
        seed: run.seed.unwrap_or(42),
        tuning: file.tuning,
    })
}

/// Policy from its report name, using `acfg` for the adaptive case.
pub fn policy_by_name(name: &str, acfg: AdapTbfConfig) -> Option<Policy> {
    match name {
        "no_bw" => Some(Policy::NoBw),
        "static_bw" => Some(Policy::StaticBw),
        "adaptbf" => Some(Policy::AdapTbf(acfg)),
        _ => None,
    }
}

/// The wiring a trace was recorded under (paper defaults for everything
/// the header does not pin), including the fault plan active during the
/// recording. Replaying under this config with the recorded policy and
/// seed reproduces the recorded run exactly — faults and all.
pub fn replay_cluster_config(trace: &Trace) -> ClusterConfig {
    ClusterConfig {
        n_clients: trace.meta.n_clients,
        n_osts: trace.meta.n_osts,
        stripe_count: trace.meta.stripe_count,
        faults: trace.meta.faults,
        ..ClusterConfig::default()
    }
}

/// The policy a trace was recorded under.
pub fn recorded_policy(trace: &Trace) -> Option<Policy> {
    let period = SimDuration::from_millis(trace.meta.period_ms.unwrap_or(100));
    policy_by_name(&trace.meta.policy, paper::adaptbf().with_period(period))
}

/// Replay a trace and produce the same [`RunReport`] an [`crate::Experiment`]
/// yields, so all reporting/analysis layers work on replays unchanged.
pub fn replay_report(
    trace: &Trace,
    policy: Policy,
    seed: u64,
    cluster: ClusterConfig,
) -> RunReport {
    replay_report_with(trace, policy, seed, cluster, None)
}

/// [`replay_report`] with an explicit shard count ([`Cluster::shards`]);
/// `None` keeps the `ADAPTBF_SHARDS` default. Purely an execution
/// parameter — the report is identical at every shard count.
pub fn replay_report_with(
    trace: &Trace,
    policy: Policy,
    seed: u64,
    cluster: ClusterConfig,
    shards: Option<usize>,
) -> RunReport {
    let mut replay = Cluster::build_replay(trace, policy, seed, cluster);
    if let Some(n) = shards {
        replay = replay.shards(n);
    }
    let jobs: Vec<JobId> = trace.meta.jobs.iter().map(|&(job, _)| job).collect();
    let name = format!("{}_replay", trace.meta.scenario);
    replay.run().into_report(name, policy, &jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::JobId;
    use adaptbf_workload::scenarios;

    #[test]
    fn file_run_defaults_mirror_the_paper_testbed() {
        let file = ScenarioFile::from_scenario(&scenarios::token_allocation_scaled(1.0 / 64.0));
        let plan = plan_file_run(&file).unwrap();
        assert!(matches!(plan.policy, Policy::AdapTbf(_)));
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.cluster.n_clients, 4);
        assert_eq!(plan.cluster.n_osts, 1);
    }

    #[test]
    fn file_run_honors_run_block() {
        let mut file = ScenarioFile::from_scenario(&scenarios::token_allocation_scaled(1.0 / 64.0));
        file.run.policy = Some("static_bw".into());
        file.run.seed = Some(7);
        file.run.n_osts = Some(2);
        file.run.stripe_count = Some(2);
        let plan = plan_file_run(&file).unwrap();
        assert!(matches!(plan.policy, Policy::StaticBw));
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.cluster.n_osts, 2);
        assert_eq!(plan.cluster.stripe_count, 2);
        // Invalid striping is rejected.
        file.run.n_osts = Some(1);
        assert!(plan_file_run(&file).is_err());
    }

    #[test]
    fn file_run_carries_the_tuning_block() {
        let mut file = ScenarioFile::from_scenario(&scenarios::token_allocation_scaled(1.0 / 64.0));
        file.tuning = TuningSpec {
            payload_bytes: Some(8192),
            service_quantum_us: Some(500),
            send_batch: Some(128),
        };
        let plan = plan_file_run(&file).unwrap();
        assert_eq!(plan.tuning, file.tuning);
        file.tuning.payload_bytes = Some(0);
        assert!(plan_file_run(&file).is_err());
    }

    #[test]
    fn replay_report_carries_per_job_outcomes() {
        let scenario = scenarios::token_allocation_scaled(1.0 / 64.0);
        let policy = Policy::adaptbf_default();
        let (_, trace) = Cluster::build(&scenario, policy, 42).run_traced();
        assert_eq!(recorded_policy(&trace).unwrap().name(), "adaptbf");
        let report = replay_report(&trace, policy, 42, replay_cluster_config(&trace));
        assert_eq!(report.per_job.len(), 4);
        assert!(report.per_job[&JobId(4)].served > 0);
        assert_eq!(report.policy, "adaptbf");
        assert!(report.scenario.ends_with("_replay"));
    }
}
