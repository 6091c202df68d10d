//! One repetition of a simulator workload: input text → parse → plan →
//! build → run → report → analyse, timed at each boundary.

use crate::inputs::{scenario_text, Workload};
use crate::procfs;
use crate::sample::{fnv64, Sample};
use crate::spans::Spans;
use crate::RepOpts;
use adaptbf_analysis::fairness::priority_fairness;
use adaptbf_analysis::resilience::conservation_ok;
use adaptbf_model::config::paper;
use adaptbf_sim::cluster::ClusterConfig;
use adaptbf_sim::{plan_file_run, report_digest, Cluster, FileRun, Policy, RunReport};
use adaptbf_workload::dsl::ScenarioFile;
use std::time::Instant;

/// Input text to a runnable system, through the same three public calls
/// the CLI's `run --scenario-file` makes.
pub fn set_up(text: &str, opts: &RepOpts, spans: &mut Spans) -> (FileRun, Cluster) {
    let file = spans.scope("workload.parse", |_| {
        ScenarioFile::parse(text).expect("generated scenario text parses")
    });
    let plan = spans.scope("sim.plan", |_| {
        plan_file_run(&file).expect("generated scenario plans")
    });
    let cluster = spans.scope("sim.build", |_| {
        Cluster::build_with(
            &plan.scenario,
            policy_of(&plan, opts),
            plan.seed,
            plan.cluster,
        )
        .shards(opts.shards.unwrap_or(opts.workload.shards()))
    });
    (plan, cluster)
}

fn policy_of(plan: &FileRun, opts: &RepOpts) -> Policy {
    if opts.no_bw {
        Policy::NoBw
    } else {
        plan.policy
    }
}

/// The token ceiling utilisation is reported against: `T_i` per OST.
fn token_ceiling(cluster: &ClusterConfig) -> f64 {
    cluster.n_osts as f64 * paper::MAX_TOKEN_RATE
}

pub fn run_rep(opts: &RepOpts, spans: &mut Spans) -> Sample {
    let w: Workload = opts.workload;
    let text = scenario_text(w, opts.seed, opts.scale);
    let mut s = Sample::default();

    let request = Instant::now();
    let t = Instant::now();
    let (plan, cluster) = spans.scope("setup", |sp| set_up(&text, opts, sp));
    s.put("setup_s", t.elapsed().as_secs_f64());

    let cpu0 = procfs::process_cpu_ns();
    let t = Instant::now();
    let out = spans.scope("sim.run", |_| cluster.run());
    let wall = t.elapsed().as_secs_f64();
    let cpu = procfs::process_cpu_ns() - cpu0;

    let stats = out.loop_stats;
    let t = Instant::now();
    let report = spans.scope("node.report", |_| {
        RunReport::from_run(
            plan.scenario.name.clone(),
            policy_of(&plan, opts).name(),
            plan.scenario.duration,
            out.metrics,
            &plan.scenario.job_ids(),
            out.overheads,
            out.fault_stats,
        )
    });
    s.put("node.report_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let (fairness, utilization, conserved) = spans.scope("analysis.score", |_| {
        (
            priority_fairness(&report, &plan.scenario),
            report.utilization(token_ceiling(&plan.cluster)),
            conservation_ok(&report),
        )
    });
    s.put("analysis.score_ms", t.elapsed().as_secs_f64() * 1e3);
    s.put("request_ms", request.elapsed().as_secs_f64() * 1e3);

    let served = report.metrics.total_served();
    let released: u64 = report.per_job.values().map(|o| o.released).sum();
    s.put("wall_s", wall);
    s.put("served", served as f64);
    s.put("rpcs_per_s", served as f64 / wall);
    s.put("cpu_us_per_rpc", cpu as f64 / 1e3 / served.max(1) as f64);
    s.put("fairness", fairness);
    s.put("utilization", utilization);
    s.put("sim.events", stats.events as f64);
    s.put("sim.coalesced", stats.coalesced as f64);
    s.put("sim.peak_queue_depth", stats.peak_queue_depth as f64);
    s.put("sim.cluster.epochs", stats.epochs as f64);
    s.put("sim.cluster.solo_drains", stats.solo_drains as f64);
    s.put("sim.cluster.inbox_flushes", stats.inbox_flushes as f64);
    let ticks: u64 = report.overheads.iter().map(|o| o.ticks).sum();
    let ctl_ns: u64 = report.overheads.iter().map(|o| o.total_ns).sum();
    let ctl_jobs: u64 = report.overheads.iter().map(|o| o.jobs_allocated).sum();
    s.put("node.ctl_ticks", ticks as f64);
    s.put("node.ctl_ns", ctl_ns as f64);
    s.put("node.ctl_jobs", ctl_jobs as f64);

    // Failures: an RPC counts once, under the first rule that catches it.
    let unserved = if w.sized_to_finish() {
        released - served.min(released)
    } else {
        0
    };
    let failed = if conserved {
        (report.fault_stats.undelivered + unserved).min(released)
    } else {
        released
    };
    s.put("attempted", released as f64);
    s.put("failed", failed as f64);
    s.check(conserved, || "conservation_ok is false".into());
    if w.sized_to_finish() {
        s.check(served == released, || {
            format!("{}: served {served} != released {released}", w.name())
        });
    }
    match w {
        Workload::SimFlat if opts.shards.is_none() => s.check(stats.epochs == 0, || {
            format!(
                "sim_flat ran {} epochs; the window protocol must do none",
                stats.epochs
            )
        }),
        Workload::SimStriped if opts.shards.is_none() => {
            s.check(stats.epochs > 0 && stats.inbox_flushes > 0, || {
                format!(
                    "sim_striped ran {} epochs, {} inbox flushes; the window protocol must run",
                    stats.epochs, stats.inbox_flushes
                )
            })
        }
        _ => {}
    }
    s.text("digest", fnv64(&report_digest(&report)));
    s.put("peak_rss_mib", procfs::peak_rss_mib());
    s
}
