//! Tier-1 regression tests for the `adaptbf-trace` subsystem: golden
//! scenario files stay canonical and equivalent to their builders, and
//! replaying a recorded trace reproduces the original run exactly.

use adaptbf::model::JobId;
use adaptbf::sim::cluster::ClusterConfig;
use adaptbf::sim::{Cluster, Policy};
use adaptbf::workload::trace::Trace;
use adaptbf::workload::{scenarios, Scenario, ScenarioFile};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn scenario_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

fn read_scenario_file(name: &str) -> (String, ScenarioFile) {
    let path = scenario_dir().join(format!("{name}.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    (text, file)
}

/// Golden-file round trip: every checked-in scenario file is in canonical
/// form — parse → serialize reproduces it byte-for-byte.
#[test]
fn checked_in_scenario_files_are_canonical() {
    let entries = std::fs::read_dir(scenario_dir()).expect("examples/scenarios exists");
    let mut checked = 0;
    for entry in entries {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let (text, file) = read_scenario_file(&name);
        assert_eq!(
            file.render(),
            text,
            "{name}.json is not canonical; regenerate with `cargo run --example gen_scenarios`"
        );
        checked += 1;
    }
    assert!(checked >= 4, "expected the checked-in scenario files");
}

/// The builder-derived scenario files build exactly the scenarios their
/// builders produce — the declarative surface has not drifted.
#[test]
fn scenario_files_match_their_builders() {
    type Builder = fn() -> Scenario;
    let builders: [(&str, Builder); 3] = [
        ("token_allocation", scenarios::token_allocation),
        ("token_redistribution", scenarios::token_redistribution),
        ("hog_and_victim", scenarios::hog_and_victim),
    ];
    for (name, builder) in builders {
        let (_, file) = read_scenario_file(name);
        let from_file = file.to_scenario().unwrap();
        assert_eq!(from_file, builder(), "{name}.json drifted from its builder");
    }
    // The fault built-ins are themselves scenario files: the checked-in
    // JSON must equal the builder output exactly, fault block included.
    type FileBuilder = fn() -> ScenarioFile;
    let file_builders: [(&str, FileBuilder); 2] = [
        ("ost_failover", scenarios::ost_failover),
        (
            "churn_under_degradation",
            scenarios::churn_under_degradation,
        ),
    ];
    for (name, builder) in file_builders {
        let (_, file) = read_scenario_file(name);
        assert_eq!(file, builder(), "{name}.json drifted from its builder");
        assert!(!file.faults.is_none(), "{name}.json must declare faults");
    }
}

/// The acceptance path end to end: a scenario file with a `faults` block
/// (including an OST crash window) parses, is canonical, runs, records to
/// a trace whose header carries the plan, and replays byte-identically.
#[test]
fn fault_scenario_file_records_and_replays_byte_identically() {
    let (text, file) = read_scenario_file("ost_failover");
    assert_eq!(file.render(), text, "canonical renderer round trip");
    let plan = adaptbf::sim::plan_file_run(&file).unwrap();
    assert_eq!(plan.cluster.faults, file.faults, "faults ride the wiring");

    let (original, trace) =
        Cluster::build_with(&plan.scenario, plan.policy, plan.seed, plan.cluster).run_traced();
    assert_eq!(trace.meta.faults, file.faults, "faults ride the header");
    assert!(
        original.fault_stats.resent + original.fault_stats.rerouted > 0,
        "the crash window displaced traffic: {:?}",
        original.fault_stats
    );

    // Through the text form, as a user would store and replay it.
    let parsed = Trace::from_text(&trace.to_text()).expect("trace parses");
    assert_eq!(parsed, trace);
    let cfg = adaptbf::sim::replay_cluster_config(&parsed);
    assert_eq!(cfg.faults, file.faults);
    let replayed = Cluster::build_replay(&parsed, plan.policy, plan.seed, cfg).run();
    assert_eq!(
        original.metrics.served_by_job(),
        replayed.metrics.served_by_job(),
        "faulty replay must reproduce the recording"
    );
    assert_eq!(original.metrics.served(), replayed.metrics.served());
    assert_eq!(original.metrics.demand(), replayed.metrics.demand());
    assert_eq!(original.fault_stats, replayed.fault_stats);
}

/// The authored (non-builder) scenario file runs end-to-end through the
/// simulator: diurnal + timed + continuous jobs on a striped 2-OST
/// cluster.
#[test]
fn authored_diurnal_scenario_runs() {
    let (_, file) = read_scenario_file("diurnal_checkpoint");
    let plan = adaptbf::sim::plan_file_run(&file).unwrap();
    assert_eq!(plan.cluster.n_osts, 2);
    assert_eq!(plan.seed, 7);
    let out = Cluster::build_with(&plan.scenario, plan.policy, plan.seed, plan.cluster).run();
    assert!(out.metrics.total_served() > 0);
    // All three jobs make progress.
    for job in [1, 2, 3] {
        assert!(
            out.metrics
                .served_by_job()
                .get(&JobId(job))
                .copied()
                .unwrap_or(0)
                > 0,
            "job {job} starved"
        );
    }
}

fn served_bytes(metrics: &adaptbf::node::Metrics, rpc_size: u64) -> BTreeMap<JobId, u64> {
    metrics
        .served_by_job()
        .iter()
        .map(|(&job, &served)| (job, served * rpc_size))
        .collect()
}

/// The acceptance regression: record `token_redistribution`, replay the
/// trace, and the per-job served bytes match the original run exactly.
#[test]
fn replaying_token_redistribution_reproduces_served_bytes_exactly() {
    let scenario = scenarios::token_redistribution();
    let policy = Policy::adaptbf_default();
    let cfg = ClusterConfig::default();
    let (original, trace) = Cluster::build_with(&scenario, policy, 42, cfg).run_traced();
    assert!(trace.records.len() > 1000, "a real workload was recorded");

    // Round-trip through the serialized text form first, as a user would.
    let parsed = Trace::from_text(&trace.to_text()).expect("trace parses");
    assert_eq!(parsed, trace);

    let replayed = Cluster::build_replay(&parsed, policy, 42, cfg).run();
    let rpc_size = cfg.ost.rpc_size;
    assert_eq!(
        served_bytes(&original.metrics, rpc_size),
        served_bytes(&replayed.metrics, rpc_size),
        "replay must reproduce per-job served bytes exactly"
    );
    assert_eq!(original.metrics.served(), replayed.metrics.served());
    assert_eq!(original.metrics.demand(), replayed.metrics.demand());
}

/// Replay exactness holds across policies, seeds, and a striped multi-OST
/// wiring — not just the paper-default testbed.
#[test]
fn replay_is_exact_across_policies_and_wirings() {
    let scenario = scenarios::token_redistribution_scaled(1.0 / 16.0);
    let wirings = [
        ClusterConfig::default(),
        ClusterConfig {
            n_osts: 2,
            stripe_count: 2,
            ..ClusterConfig::default()
        },
    ];
    for cfg in wirings {
        for policy in [Policy::NoBw, Policy::StaticBw, Policy::adaptbf_default()] {
            for seed in [1, 42] {
                let (original, trace) =
                    Cluster::build_with(&scenario, policy, seed, cfg).run_traced();
                let replayed = Cluster::build_replay(&trace, policy, seed, cfg).run();
                assert_eq!(
                    original.metrics.served_by_job(),
                    replayed.metrics.served_by_job(),
                    "diverged: policy {} seed {seed} n_osts {}",
                    policy.name(),
                    cfg.n_osts
                );
            }
        }
    }
}

/// Shard count must never leak into the data surface: a trace recorded at
/// 16 shards is byte-identical to one recorded unsharded, and a recording
/// made at either shard count replays exactly at the other — including
/// under the `ost_failover` fault plan, where the replay regenerates
/// cross-shard resends and re-routes from the header.
#[test]
fn recording_and_replay_are_exact_across_shard_counts() {
    let (_, file) = read_scenario_file("ost_failover");
    let plan = adaptbf::sim::plan_file_run(&file).unwrap();

    let build = || Cluster::build_with(&plan.scenario, plan.policy, plan.seed, plan.cluster);
    let (out_1, trace_1) = build().shards(1).run_traced();
    let (out_16, trace_16) = build().shards(16).run_traced();
    assert_eq!(trace_1, trace_16, "shard count leaked into the trace");
    assert_eq!(
        trace_1.to_text(),
        trace_16.to_text(),
        "serialized traces must be byte-identical"
    );
    assert_eq!(out_1.fault_stats, out_16.fault_stats);

    // Recorded at 16 shards → replayed at 1, and vice versa: both must
    // reproduce the original run's every observable.
    let cfg = adaptbf::sim::replay_cluster_config(&trace_1);
    let rebuild = |trace: &Trace| Cluster::build_replay(trace, plan.policy, plan.seed, cfg);
    let replay_1 = rebuild(&trace_16).shards(1).run();
    let replay_16 = rebuild(&trace_1).shards(16).run();
    for (what, replayed) in [("16→1", &replay_1), ("1→16", &replay_16)] {
        assert_eq!(
            out_1.metrics.served_by_job(),
            replayed.metrics.served_by_job(),
            "served counts diverged replaying {what}"
        );
        assert_eq!(
            out_1.metrics.served(),
            replayed.metrics.served(),
            "served series diverged replaying {what}"
        );
        assert_eq!(
            out_1.metrics.demand(),
            replayed.metrics.demand(),
            "demand series diverged replaying {what}"
        );
        assert_eq!(
            out_1.fault_stats, replayed.fault_stats,
            "fault partition diverged replaying {what}"
        );
    }
}

/// Record → replay across executors: a *live* (wall-clock, faulty) run's
/// recorded arrivals replay in the deterministic simulator. The recording
/// itself carries scheduler noise, so the oracle is determinism of the
/// replay: two independent sim replays of the live trace — at different
/// shard counts — must agree byte-exactly on per-job served bytes, and the
/// replay's accounting must pass the same audits as any faulty sim run.
#[test]
fn live_recording_replays_deterministically_in_the_simulator() {
    use adaptbf::model::{SimDuration, SimTime};
    use adaptbf::runtime::{LiveCluster, LiveTuning};
    use adaptbf::workload::{CrashSpec, FaultPlan, JobSpec, ProcessSpec};

    let scenario = Scenario::new(
        "live_capture",
        "two continuous jobs on a striped pair with a mid-run crash",
        vec![
            JobSpec::uniform(JobId(1), 1, 2, ProcessSpec::continuous(1_000_000)),
            JobSpec::uniform(JobId(2), 3, 2, ProcessSpec::continuous(1_000_000)),
        ],
        SimDuration::from_millis(800),
    );
    let faults = FaultPlan {
        ost_crash: Some(CrashSpec {
            ost: 0,
            from: SimTime::from_millis(200),
            for_: SimDuration::from_millis(200),
            resend_after: SimDuration::from_millis(30),
        }),
        ..FaultPlan::none()
    };
    let tuning = LiveTuning {
        n_osts: 2,
        stripe_count: 2,
        ..LiveTuning::fast_test()
    };
    let (live, trace) =
        LiveCluster::record_with_faults(&scenario, Policy::NoBw, tuning, &faults, 11)
            .expect("crash plans record live");
    assert_eq!(trace.meta.recorded_by.as_deref(), Some("live"));
    assert_eq!(trace.meta.faults, faults, "the plan rides the header");
    assert!(
        trace.records.len() > 100,
        "a real workload was captured: {} records",
        trace.records.len()
    );
    let displaced = live.report.fault_stats;
    assert!(
        displaced.resent + displaced.rerouted + displaced.parked > 0,
        "the live crash displaced traffic: {displaced:?}"
    );

    // Through the text form, as a user would store it.
    let parsed = Trace::from_text(&trace.to_text()).expect("live trace parses");
    assert_eq!(parsed, trace);

    // Two independent simulator replays at different shard counts: the
    // per-job served bytes must be byte-exact between them.
    let cfg = adaptbf::sim::replay_cluster_config(&parsed);
    assert_eq!(cfg.faults, faults);
    let replay_a = Cluster::build_replay(&parsed, Policy::NoBw, 11, cfg)
        .shards(1)
        .run();
    let replay_b = Cluster::build_replay(&parsed, Policy::NoBw, 11, cfg)
        .shards(8)
        .run();
    let rpc_size = cfg.ost.rpc_size;
    assert_eq!(
        served_bytes(&replay_a.metrics, rpc_size),
        served_bytes(&replay_b.metrics, rpc_size),
        "replaying the live recording must be deterministic"
    );
    assert_eq!(replay_a.metrics.served(), replay_b.metrics.served());
    assert_eq!(replay_a.metrics.demand(), replay_b.metrics.demand());
    assert_eq!(replay_a.fault_stats, replay_b.fault_stats);

    // The replay regenerates the crash from the header: its own audited
    // accounting partition balances, and every job makes progress.
    let fs = replay_a.fault_stats;
    assert!(fs.lost_in_service <= fs.resent, "{fs:?}");
    assert!(fs.undelivered <= fs.resent + fs.parked, "{fs:?}");
    for job in scenario.job_ids() {
        assert!(
            replay_a
                .metrics
                .served_by_job()
                .get(&job)
                .copied()
                .unwrap_or(0)
                > 0,
            "{job} starved in the replay"
        );
    }
}

/// A trace converted back to a `Scenario` (open-loop `timed` processes)
/// is a valid workload for any policy — the data-driven path the issue's
/// SDN-QoS related work drives controllers with.
#[test]
fn trace_as_scenario_feeds_any_policy() {
    let scenario = scenarios::token_allocation_scaled(1.0 / 32.0);
    let (_, trace) = Cluster::build(&scenario, Policy::adaptbf_default(), 42).run_traced();
    let replay_scenario = trace.to_scenario();
    assert_eq!(replay_scenario.job_ids(), scenario.job_ids());
    for policy in [Policy::NoBw, Policy::adaptbf_default()] {
        let out = Cluster::build(&replay_scenario, policy, 7).run();
        assert!(
            out.metrics.total_served() > 0,
            "replay scenario runs under {}",
            policy.name()
        );
    }
}
