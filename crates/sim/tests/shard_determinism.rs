//! Cross-shard determinism oracles: the shard count is an execution
//! parameter, never an input. For random scenarios and randomly sampled
//! fault plans, the full report digest — per-job counters, completions,
//! latency percentiles, timelines, gauges, and the fault-stat partition —
//! must be byte-identical at every shard count, including the unsharded
//! (single-queue) engine.

use adaptbf_model::SimDuration;
use adaptbf_sim::cluster::{Cluster, ClusterConfig};
use adaptbf_sim::{report_body_digest, Experiment, FaultStats, Policy};
use adaptbf_workload::{JobSpec, PlanBounds, ProcessSpec, Scenario};
use proptest::prelude::*;

/// A small random scenario: up to 4 jobs, mixed patterns, short horizon
/// (long enough that every sampled fault window can open *and* close).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let job = (1u64..8, 1usize..3, 10u64..150, 0u8..3);
    proptest::collection::vec(job, 1..4).prop_map(|jobs| {
        let specs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, procs, file, kind))| {
                let spec = match kind {
                    0 => ProcessSpec::continuous(file),
                    1 => ProcessSpec::bursty(
                        file,
                        SimDuration::from_millis(200),
                        SimDuration::from_millis(700),
                        (file / 4).max(1),
                    ),
                    _ => ProcessSpec::delayed(file, SimDuration::from_millis(500)),
                };
                JobSpec::uniform(adaptbf_model::JobId(i as u32 + 1), nodes, procs, spec)
            })
            .collect();
        Scenario::new("shard_prop", "", specs, SimDuration::from_secs(4))
    })
}

/// The digest of one run at a given shard count: everything the reporting
/// layer can observe, rendered canonically.
fn digest_at(
    scenario: &Scenario,
    policy: Policy,
    seed: u64,
    cfg: ClusterConfig,
    shards: usize,
) -> String {
    let report = Experiment::new(scenario.clone(), policy)
        .seed(seed)
        .cluster_config(cfg)
        .shards(shards)
        .run();
    report_body_digest(&report)
}

fn fault_stats_at(
    scenario: &Scenario,
    policy: Policy,
    seed: u64,
    cfg: ClusterConfig,
    shards: usize,
) -> FaultStats {
    Cluster::build_with(scenario, policy, seed, cfg)
        .shards(shards)
        .run()
        .fault_stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fault-free random scenarios on a striped 4-OST wiring (the coupled
    /// epoch path): digest identical at shards 1, 2, 4, 16.
    #[test]
    fn digest_is_shard_count_invariant(
        scenario in scenario_strategy(),
        seed in 0u64..32,
    ) {
        let cfg = ClusterConfig {
            n_osts: 4,
            stripe_count: 2,
            ..ClusterConfig::default()
        };
        for policy in [Policy::NoBw, Policy::adaptbf_default()] {
            let base = digest_at(&scenario, policy, seed, cfg, 1);
            for shards in [2usize, 4, 16] {
                let sharded = digest_at(&scenario, policy, seed, cfg, shards);
                prop_assert_eq!(
                    &base, &sharded,
                    "digest diverged at {} shards under {}", shards, policy.name()
                );
            }
        }
    }

    /// Randomly *sampled* fault plans (the chaos lab's own sampler, so the
    /// space matches what campaigns run): crash re-routes, parks, client
    /// resends, churn and degradation must all cross shard boundaries
    /// without perturbing the digest, and the fault-stat partition itself
    /// must be identical — every displaced RPC lands in exactly one
    /// category no matter which shard handled it.
    #[test]
    fn digest_and_fault_partition_survive_sampled_fault_plans(
        scenario in scenario_strategy(),
        plan_seed in 0u64..1_000_000,
        seed in 0u64..32,
    ) {
        let bounds = PlanBounds::new(SimDuration::from_secs(4), 2);
        let faults = bounds.sample_seeded(plan_seed);
        prop_assert!(faults.validate().is_ok(), "{faults:?}");
        let cfg = ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            faults,
            ..ClusterConfig::default()
        };
        let policy = Policy::adaptbf_default();
        let base = digest_at(&scenario, policy, seed, cfg, 1);
        let base_fs = fault_stats_at(&scenario, policy, seed, cfg, 1);
        prop_assert!(base_fs.lost_in_service <= base_fs.resent, "{base_fs:?}");
        prop_assert!(base_fs.undelivered <= base_fs.resent, "{base_fs:?}");
        for shards in [2usize, 4, 16] {
            let sharded = digest_at(&scenario, policy, seed, cfg, shards);
            prop_assert_eq!(
                &base, &sharded,
                "digest diverged at {} shards under {:?}", shards, faults
            );
            let fs = fault_stats_at(&scenario, policy, seed, cfg, shards);
            prop_assert_eq!(base_fs, fs, "fault partition diverged at {} shards", shards);
        }
    }
}

/// The solo fast path around a crash window, end to end: aligned stripes
/// would run shard-independent, but the crash forces every shard into the
/// coupled set. While both OSTs hold work the epochs are windowed; once
/// the short job (whose OST also crashes mid-run) drains, the long job's
/// shard must ride the solo drain for the rest of the run — with the same
/// digest as the single-queue engine (the fixed-window oracle's half of
/// this check lives with the oracle, in `src/cluster/tests.rs`).
#[test]
fn solo_drain_engages_around_a_crash_window() {
    let scenario = Scenario::new(
        "solo_crash",
        "long job on OST 0, short crashed job on OST 1",
        vec![
            JobSpec::uniform(adaptbf_model::JobId(1), 1, 1, ProcessSpec::continuous(400)),
            JobSpec::uniform(adaptbf_model::JobId(2), 1, 1, ProcessSpec::continuous(150)),
        ],
        SimDuration::from_secs(4),
    );
    let faults = adaptbf_sim::FaultPlan {
        ost_crash: Some(adaptbf_sim::CrashSpec {
            ost: 1,
            from: adaptbf_model::SimTime::from_millis(50),
            for_: SimDuration::from_millis(200),
            resend_after: SimDuration::from_millis(50),
        }),
        ..adaptbf_sim::FaultPlan::none()
    };
    let cfg = ClusterConfig {
        n_osts: 2,
        stripe_count: 1,
        faults,
        ..ClusterConfig::default()
    };
    let policy = Policy::NoBw;
    let base = digest_at(&scenario, policy, 31, cfg, 1);
    let sharded = digest_at(&scenario, policy, 31, cfg, 2);
    assert_eq!(base, sharded, "digest diverged at 2 shards");
    let out = Cluster::build_with(&scenario, policy, 31, cfg)
        .shards(2)
        .run();
    assert!(
        out.fault_stats.resent > 0,
        "the crash must displace the short job's traffic: {:?}",
        out.fault_stats
    );
    let stats = out.loop_stats;
    assert!(
        stats.solo_drains >= 1,
        "after the short job drains, the long shard must run solo: {stats:?}"
    );
    assert!(
        stats.epochs > stats.solo_drains,
        "while both OSTs hold work the epochs must be windowed: {stats:?}"
    );
    assert_eq!(
        stats.inbox_flushes, 0,
        "aligned stripes with a local park never cross shards: {stats:?}"
    );
}
