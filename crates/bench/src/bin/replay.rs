//! Replay-driven bench grid: record the Section IV-E workload once, then
//! replay the identical RPC arrival stream under all three policies.
//!
//! Unlike `compare` (where each policy re-simulates its own client
//! feedback), replay holds the *traffic* fixed: every policy faces exactly
//! the arrivals the recorded run produced, isolating the scheduler/
//! controller response from client-side closed-loop effects. Artifacts:
//!
//! * `results/token_redistribution.trace` — the recorded trace (replayable
//!   via `adaptbf replay`),
//! * `results/replay_summary.csv` — per-job served RPCs per policy,
//! * `results/ost_failover.trace` + `results/replay_faults.csv` — the same
//!   grid over the `ost_failover` fault scenario: the crash window rides
//!   the trace header, so every policy replays the identical disturbed
//!   arrival stream (and the adaptbf replay reproduces the recording
//!   exactly, resends and all).

use adaptbf_bench::{write_artifact, Options};
use adaptbf_cli::exec::{execute, Executor};
use adaptbf_sim::{plan_file_run, replay_cluster_config, replay_report, FileRun, Policy, RunGrid};
use adaptbf_workload::{scenarios, ScenarioFile};

fn main() {
    let opts = Options::from_args();
    let plan = |file: &ScenarioFile| FileRun {
        seed: opts.seed,
        ..plan_file_run(file).expect("valid built-in")
    };
    let plain = ScenarioFile::from_scenario(&scenarios::token_redistribution_scaled(opts.scale));
    record_and_replay(&plan(&plain), "replay_summary.csv");

    // The same grid through an OST crash window.
    let faulty = scenarios::ost_failover_scaled(opts.scale);
    let crash = faulty
        .faults
        .ost_crash
        .expect("ost_failover crashes an OST");
    println!(
        "\nOST {} down {}..{}:",
        crash.ost,
        crash.from,
        crash.recovery_at()
    );
    record_and_replay(&plan(&faulty), "replay_faults.csv");
}

/// Record `plan` once, replay the identical arrival stream under all three
/// policies over the deterministic run grid, write the trace and the
/// per-job served table, and hold the replay to its contract: under the
/// recorded policy it reproduces the recording exactly — per-job served
/// counts and the resend/re-route accounting of whatever fault plan rode
/// the trace header.
fn record_and_replay(plan: &FileRun, csv_name: &str) {
    let name = &plan.scenario.name;
    println!("recording {name} (seed {})...", plan.seed);
    let ran = execute(plan, Executor::Sim { shards: None }, true).expect("simulated run");
    let (original, trace) = (ran.report, ran.trace.expect("recording run"));
    write_artifact(&format!("{name}.trace"), &trace.to_text());
    println!(
        "recorded {} RPC arrivals, {} served, fault stats {:?}",
        trace.records.len(),
        original.metrics.total_served(),
        original.fault_stats,
    );

    let cluster = replay_cluster_config(&trace);
    assert_eq!(
        cluster.faults, plan.cluster.faults,
        "the fault plan must ride the trace header"
    );
    let reports = RunGrid::new().run(vec![Policy::NoBw, Policy::StaticBw, plan.policy], |p| {
        replay_report(&trace, p, plan.seed, cluster)
    });

    let mut csv = String::from("job");
    let mut table = format!("{:<10}", "job");
    for r in &reports {
        csv.push_str(&format!(",{}_served", r.policy));
        table.push_str(&format!(" {:>12}", r.policy));
    }
    csv.push('\n');
    table.push('\n');
    let recorded = original.metrics.served_by_job();
    for &(job, _) in &trace.meta.jobs {
        csv.push_str(&job.to_string());
        table.push_str(&format!("{:<10}", job.to_string()));
        for r in &reports {
            let served = r.per_job.get(&job).map_or(0, |o| o.served);
            csv.push_str(&format!(",{served}"));
            table.push_str(&format!(" {served:>12}"));
        }
        csv.push('\n');
        table.push('\n');
        assert_eq!(
            recorded.get(&job).copied().unwrap_or(0),
            reports[2].per_job.get(&job).map_or(0, |o| o.served),
            "replay determinism violated for {job}"
        );
    }
    assert_eq!(
        original.fault_stats, reports[2].fault_stats,
        "replay must regenerate the identical resend/re-route accounting"
    );
    write_artifact(csv_name, &csv);
    println!("\nper-job served RPCs on the identical arrival stream:\n{table}");
    println!(
        "{} replay reproduced the recording exactly ✓",
        plan.policy.name()
    );
}
