//! The decentralization claim (paper Section II-B): independent per-OST
//! controllers using only local state must still produce globally
//! proportional bandwidth — plus determinism guarantees for the simulator
//! and smoke coverage for the live threaded runtime.

use adaptbf::model::config::paper;
use adaptbf::model::{AdapTbfConfig, JobId, SimDuration};
use adaptbf::runtime::{LiveCluster, LiveTuning};
use adaptbf::sim::cluster::{Cluster, ClusterConfig};
use adaptbf::sim::{Experiment, Policy};
use adaptbf::workload::{JobSpec, ProcessSpec, Scenario};

fn two_job_scenario(duration_s: u64) -> Scenario {
    // 8 processes per job so that even when striped across 4 OSTs each
    // job can fill its bandwidth share (a single process's 8-RPC window
    // caps out near 540 RPC/s against a 14.9 ms service time).
    Scenario::new(
        "decentral",
        "1-node vs 3-node job, both saturating",
        vec![
            JobSpec::uniform(JobId(1), 1, 8, ProcessSpec::continuous(100_000)),
            JobSpec::uniform(JobId(2), 3, 8, ProcessSpec::continuous(100_000)),
        ],
        SimDuration::from_secs(duration_s),
    )
}

#[test]
fn local_control_yields_global_proportionality() {
    // Four OSTs, each with its own controller seeing only its own traffic.
    let scenario = two_job_scenario(10);
    let cfg = ClusterConfig {
        n_osts: 4,
        ..ClusterConfig::default()
    };
    let out = Cluster::build_with(&scenario, Policy::adaptbf_default(), 42, cfg).run();
    assert_eq!(out.overheads.len(), 4, "one controller per OST");
    let j1 = out.metrics.served_by_job()[&JobId(1)] as f64;
    let j2 = out.metrics.served_by_job()[&JobId(2)] as f64;
    let share = j2 / (j1 + j2);
    assert!(
        (0.70..0.80).contains(&share),
        "global share must approach 3/4 from local decisions only: {share:.3}"
    );
}

#[test]
fn single_and_multi_ost_agree_on_shares() {
    let scenario = two_job_scenario(8);
    let single = Cluster::build_with(
        &scenario,
        Policy::adaptbf_default(),
        42,
        ClusterConfig::default(),
    )
    .run();
    let multi = Cluster::build_with(
        &scenario,
        Policy::adaptbf_default(),
        42,
        ClusterConfig {
            n_osts: 2,
            ..ClusterConfig::default()
        },
    )
    .run();
    let share = |m: &adaptbf::node::Metrics| {
        let j1 = m.served_by_job()[&JobId(1)] as f64;
        let j2 = m.served_by_job()[&JobId(2)] as f64;
        j2 / (j1 + j2)
    };
    let delta = (share(&single.metrics) - share(&multi.metrics)).abs();
    assert!(
        delta < 0.05,
        "share split must be OST-count invariant: Δ={delta:.3}"
    );
}

#[test]
fn simulator_is_deterministic_per_seed() {
    let scenario = two_job_scenario(5);
    for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
        let a = Experiment::new(scenario.clone(), policy).seed(7).run();
        let b = Experiment::new(scenario.clone(), policy).seed(7).run();
        assert_eq!(
            a.metrics.served_by_job(),
            b.metrics.served_by_job(),
            "{}",
            policy.name()
        );
        assert_eq!(a.metrics.served(), b.metrics.served(), "{}", policy.name());
        assert_eq!(
            a.metrics.records(),
            b.metrics.records(),
            "{}",
            policy.name()
        );
    }
}

#[test]
fn different_seeds_preserve_shape_not_bits() {
    let scenario = two_job_scenario(5);
    let a = Experiment::new(scenario.clone(), Policy::adaptbf_default())
        .seed(1)
        .run();
    let b = Experiment::new(scenario, Policy::adaptbf_default())
        .seed(2)
        .run();
    // Same macroscopic outcome…
    let share = |r: &adaptbf::sim::RunReport| {
        r.metrics.served_by_job()[&JobId(2)] as f64 / r.metrics.total_served() as f64
    };
    assert!((share(&a) - share(&b)).abs() < 0.03);
    // …from different microscopic histories.
    assert_ne!(a.metrics.served(), b.metrics.served());
}

#[test]
fn live_runtime_smoke() {
    // Short wall-clock run of the threaded deployment: controllers tick,
    // traffic flows, high-priority job wins.
    let scenario = Scenario::new(
        "live",
        "",
        vec![
            JobSpec::uniform(JobId(1), 1, 2, ProcessSpec::continuous(1_000_000)),
            JobSpec::uniform(JobId(2), 3, 2, ProcessSpec::continuous(1_000_000)),
        ],
        SimDuration::from_millis(500),
    );
    let cfg = AdapTbfConfig {
        period: SimDuration::from_millis(25),
        max_token_rate: 2000.0,
        ..paper::adaptbf()
    };
    // The live runtime takes the *same* Policy type as the simulator —
    // there is no live-only mirror to keep in sync.
    let report = LiveCluster::run(&scenario, Policy::AdapTbf(cfg), LiveTuning::fast_test(), 5);
    assert!(
        report.total_served() > 200,
        "traffic flowed: {}",
        report.total_served()
    );
    assert!(report.ticks_per_ost[0] > 5, "controller ran");
    assert!(
        report.served_share(JobId(2)) > 0.55,
        "priority respected in live mode"
    );
}
