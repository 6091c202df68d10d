//! Beyond the paper's four-job evaluations: many concurrent jobs and a
//! churning active set, the conditions Section II-B argues the
//! decentralized design is built for.

use adaptbf::analysis::fairness::{jains_index, priority_fairness};
use adaptbf::model::config::paper;
use adaptbf::model::{ClientId, JobId, ProcId, Rpc, RpcId, SimTime, TbfSchedulerConfig};
use adaptbf::node::{ControllerOverhead, OstNode};
use adaptbf::sim::cluster::ClusterConfig;
use adaptbf::sim::{Comparison, Experiment, Policy, RunGrid, RunReport};
use adaptbf::workload::scenarios;

#[test]
fn thirty_two_jobs_share_proportionally() {
    let scenario = scenarios::many_jobs(32, 20);
    let report = Experiment::new(scenario.clone(), Policy::adaptbf_default())
        .seed(42)
        .run();
    // Every job with demand got service.
    let served_jobs = report.metrics.served_by_job().len();
    assert!(served_jobs >= 30, "only {served_jobs}/32 jobs served");
    // Priority-normalized fairness well above the FCFS baseline.
    let nobw = Experiment::new(scenario.clone(), Policy::NoBw)
        .seed(42)
        .run();
    let fair_adapt = priority_fairness(&report, &scenario);
    let fair_nobw = priority_fairness(&nobw, &scenario);
    assert!(
        fair_adapt > fair_nobw,
        "adaptbf fairness {fair_adapt:.3} must beat no_bw {fair_nobw:.3}"
    );
}

/// Section IV-G bounds the paper's release-grade cost at 30 µs per
/// allocated job; debug builds run 10-50x slower and tests share the
/// machine, so the ceiling scales accordingly.
fn assert_under_paper_ceiling(overhead: ControllerOverhead, what: &str) {
    let ceiling_ns = if cfg!(debug_assertions) {
        300_000.0
    } else {
        30_000.0
    };
    assert!(
        overhead.ns_per_job() < ceiling_ns,
        "{what}: per-job overhead {:.0} ns exceeds {:.0} ns",
        overhead.ns_per_job(),
        ceiling_ns
    );
}

#[test]
fn controller_overhead_stays_small_with_many_jobs() {
    let scenario = scenarios::many_jobs(64, 10);
    let report = Experiment::new(scenario, Policy::adaptbf_default())
        .seed(1)
        .run();
    let overhead = report.overheads[0];
    assert!(overhead.ticks > 50);
    assert_under_paper_ceiling(overhead, "64 steady jobs");

    // A steady job set over an empty fallback queue is the easy case. The
    // bound has to hold just as well when half the rules are replaced
    // every period while thousands of RPCs sit parked: a cycle's cost
    // must follow what changed, not what changed times what is parked
    // (the shape the benchmark's `node.ctl_us_per_job` row measures).
    for n in [64u32, 512, 2048] {
        let universe = n + n / 2;
        let jobs: Vec<_> = (1..=universe)
            .map(|j| (JobId(j), j as u64 % 16 + 1))
            .collect();
        let mut node = OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs,
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        );
        // 4096 RPCs of jobs that never turn active, two of every job that
        // does; nothing is served, so the backlog stands.
        let parked = (0..4096).map(|i| universe + 1 + i % 64);
        for (id, job) in parked
            .chain((0..2 * universe).map(|i| 1 + i % universe))
            .enumerate()
        {
            let rpc = Rpc::new(
                RpcId(id as u64),
                JobId(job),
                ClientId(0),
                ProcId(0),
                SimTime::ZERO,
            );
            node.scheduler.enqueue(rpc, SimTime::ZERO);
        }
        for cycle in 0..12u64 {
            // The first half always, then one of two pools in alternation.
            let pool = n / 2 + (cycle % 2) as u32 * (n / 2);
            for job in (1..=n / 2).chain(pool + 1..=pool + n / 2) {
                node.job_stats.record_arrival(JobId(job));
            }
            let out = node.tick(SimTime::from_millis(100 * (cycle + 1))).unwrap();
            assert_eq!(out.allocations.len(), n as usize);
        }
        assert_eq!(node.scheduler.rules().len(), n as usize);
        assert!(node.scheduler.pending_fallback() >= 4096, "backlog stands");
        assert_under_paper_ceiling(node.overhead().unwrap(), &format!("{n} churning jobs"));
    }
}

#[test]
fn churn_reallocates_as_jobs_come_and_go() {
    // Staggered lifetimes: whenever a new job's stream switches on, the
    // incumbent's allocation must shrink within a few periods.
    let scenario = scenarios::job_churn_scaled(0.25);
    let report = Experiment::new(scenario, Policy::adaptbf_default())
        .seed(42)
        .run();
    let alloc = &report.metrics.allocations();
    // Job 1 starts alone (full budget); once job 2 (6 nodes vs 2) arrives
    // at ~2 s scaled, job 1's allocation must drop hard.
    let j1 = alloc.get(JobId(1)).expect("job1 allocated");
    let early = j1.get(10); // ~1 s: alone
    let later = j1.get(35); // ~3.5 s: sharing with job 2
    assert!(early > 80.0, "sole job owns the budget: {early}");
    assert!(
        later < 0.5 * early,
        "allocation must shrink when the bigger job arrives: {early} → {later}"
    );
}

#[test]
fn churn_throughput_tracks_no_bw() {
    // With perfectly staggered continuous jobs there is almost always
    // demand; AdapTBF must stay work-conserving through every transition.
    let scenario = scenarios::job_churn_scaled(0.25);
    let comparison = Comparison::run(&scenario, 42);
    let adapt = comparison.adaptbf.overall_throughput_tps();
    let nobw = comparison.no_bw.overall_throughput_tps();
    assert!(
        adapt > 0.9 * nobw,
        "churn must not break work conservation: {adapt:.0} vs {nobw:.0}"
    );
}

/// Render a run's outcome as byte-comparable summary rows.
fn summary_rows(reports: &[RunReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!(
            "{},{},{:.6}\n",
            r.scenario,
            r.policy,
            r.overall_throughput_tps()
        ));
        for (job, served) in &r.metrics.served_by_job() {
            out.push_str(&format!("  {job}={served}\n"));
        }
    }
    out
}

#[test]
fn scale_stress_parallel_grid_is_deterministic() {
    // The threading work in RunGrid must never leak into results: the
    // same grid run twice in parallel and once single-threaded must
    // produce byte-identical served_by_job and summary rows.
    let scenario = scenarios::scale_stress(160, 5);
    let cfg = ClusterConfig {
        n_osts: 4,
        stripe_count: 2,
        ..ClusterConfig::default()
    };
    let run_grid = |threads: usize| -> String {
        let grid = RunGrid::with_threads(threads);
        let runs = vec![
            (Policy::NoBw, 1u64),
            (Policy::adaptbf_default(), 1),
            (Policy::adaptbf_default(), 2),
            (Policy::StaticBw, 2),
        ];
        let reports = grid.run(runs, |(policy, seed)| {
            Experiment::new(scenario.clone(), policy)
                .seed(seed)
                .cluster_config(cfg)
                .run()
        });
        summary_rows(&reports)
    };
    let parallel_a = run_grid(8);
    let parallel_b = run_grid(8);
    let sequential = run_grid(1);
    assert!(!parallel_a.is_empty());
    assert_eq!(parallel_a, parallel_b, "parallel grid must be reproducible");
    assert_eq!(
        parallel_a, sequential,
        "parallel grid must match the single-threaded runner byte-for-byte"
    );
}

#[test]
fn scale_stress_serves_nearly_every_job() {
    // Hundreds of rules on one scheduler: the classification fast path
    // and incremental reconcile must not drop anyone on the floor.
    let scenario = scenarios::scale_stress(200, 5);
    let report = Experiment::new(scenario, Policy::adaptbf_default())
        .seed(3)
        .run();
    let served_jobs = report.metrics.served_by_job().len();
    assert!(served_jobs >= 190, "only {served_jobs}/200 jobs served");
}

#[test]
fn jain_index_sanity_on_raw_shares() {
    // With equal node counts, raw Jain over throughputs ≈ priority Jain.
    let scenario = scenarios::token_recompensation_scaled(0.125);
    let report = Experiment::new(scenario.clone(), Policy::adaptbf_default())
        .seed(7)
        .run();
    let tputs: Vec<f64> = scenario
        .job_ids()
        .iter()
        .map(|j| report.job_throughput(*j))
        .collect();
    let raw = jains_index(&tputs);
    let prio = priority_fairness(&report, &scenario);
    assert!(
        (raw - prio).abs() < 1e-9,
        "equal priorities ⇒ identical indices"
    );
}
