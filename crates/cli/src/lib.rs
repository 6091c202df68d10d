//! Implementation of the `adaptbf` command line (kept in a library so
//! the parsing and command logic are unit-testable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adaptbf_analysis::summary::analyze_comparison;
use adaptbf_model::config::paper;
use adaptbf_model::{AdapTbfConfig, SimDuration};
use adaptbf_sim::report::frequency_sweep_on;
use adaptbf_sim::report::{comparison_table, frequency_csv};
use adaptbf_sim::spec::{plan_file_run, policy_by_name, recorded_policy, replay_cluster_config};
use adaptbf_sim::{Comparison, FileRun, Policy, RunReport};
use adaptbf_workload::trace::Trace;
use adaptbf_workload::{scenarios, ScenarioFile};
use exec::{execute, Executor};
use std::fmt::Write as _;

pub mod exec;

/// Usage text shown on argument errors and by `help`.
pub const USAGE: &str = "usage: adaptbf <command> [options]\n\
  commands:\n\
    scenarios                      list built-in scenarios\n\
    run <scenario>                 run one policy, print the report\n\
    run <scenario> --live          same, on the live threaded runtime:\n\
                                   real OS threads per OST/process against\n\
                                   the wall clock (takes the scenario's\n\
                                   duration in real time); same report\n\
                                   shape. The full fault battery runs\n\
                                   live: time-indexed faults (ost_crash,\n\
                                   disk_degrade, job_churn) against the\n\
                                   wall clock, cycle-indexed faults\n\
                                   (controller_stall, stats_loss_every)\n\
                                   against per-OST controller cycle\n\
                                   counters. Crash runs print the audited\n\
                                   fault-accounting partition.\n\
    compare <scenario>             run all three policies, print gains\n\
    analyze <scenario>             fairness + latency analysis\n\
                                   (both accept --live: three back-to-back\n\
                                   wall-clock runs on the live runtime,\n\
                                   same tables)\n\
    sweep <scenario>               allocation-frequency sweep (Figure 9)\n\
    ledger <scenario>              final lending/borrowing records\n\
    record <scenario>              run + capture the RPC trace to a file\n\
    record <scenario> --live       capture the trace from a wall-clock run\n\
                                   on the threaded runtime; the file\n\
                                   replays in the simulator\n\
    replay <trace-file>            re-inject a recorded trace\n\
    help                           show this text\n\
  <scenario> is a built-in name, or `--scenario-file FILE` to run a\n\
  declarative scenario file (see docs/SCENARIOS.md; its `run` block sets\n\
  defaults that the options below override). A file's optional `faults`\n\
  block declares a deterministic disturbance schedule that is injected\n\
  automatically — controller_stall {every,duration} cycles,\n\
  stats_loss_every N cycles, disk_degrade {from_secs,for_secs,factor},\n\
  ost_crash {ost,from_secs,for_secs,resend_after_secs} (crashed OSTs stop\n\
  serving; queued/in-flight RPCs are resent to surviving stripe members\n\
  after the timeout; recovery rejoins with empty bucket state), and\n\
  job_churn {every_secs,offline_secs,stride} (rotating client churn).\n\
  Faults ride recorded trace headers, so `replay` reproduces faulty runs\n\
  byte-exactly. Built-ins `ost_failover` and `churn_under_degradation`\n\
  ship with fault plans; every fault runs under --live too. A file's\n\
  optional `tuning` block pins live-testbed knobs (payload_bytes,\n\
  service_quantum_us, send_batch); the simulator ignores it.\n\
  options:\n\
    --policy no_bw|static_bw|adaptbf   (run/record/replay; default adaptbf,\n\
                                        replay defaults to the recorded policy)\n\
    --seed N        RNG seed (default 42; replay: the recorded seed)\n\
    --scale F       workload scale factor (built-in scenarios only)\n\
    --period MS     AdapTBF observation period in ms (default 100)\n\
    --out FILE      trace output path for `record` (default <scenario>.trace)\n\
    --shards N      shard the simulator event loop (run/record/replay;\n\
                    default from ADAPTBF_SHARDS, else 1). Purely an\n\
                    execution parameter: results are byte-identical at\n\
                    every shard count\n\
    --live          run on the live threaded runtime\n\
                    (run/compare/analyze/record)";

/// CLI failure modes.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Bad arguments; the message explains what was wrong (printed with
    /// the full usage text).
    Usage(String),
    /// A file could not be read or written.
    Io(String),
    /// The arguments parsed fine but the run itself was refused (e.g. a
    /// sim-only fault plan under `--live`); printed without the usage
    /// dump so the explanation stays visible.
    Run(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// `--key value` options as given. Nothing is defaulted here: a scenario
/// file's `run` block (or a trace header) supplies what a flag leaves
/// unset, and the planner supplies the rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--scale F`.
    pub scale: Option<f64>,
    /// `--period MS`.
    pub period_ms: Option<u64>,
    /// `--policy NAME`.
    pub policy: Option<String>,
    /// `--out FILE`.
    pub out: Option<String>,
    /// `--shards N`: event-loop shard count; `None` keeps the simulator's
    /// `ADAPTBF_SHARDS` default. Execution parameter only — never changes
    /// results.
    pub shards: Option<usize>,
    /// `--live` (flag, no value).
    pub live: bool,
}

/// Parse trailing `--key value` pairs (plus the `--live` flag).
pub fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if key == "--live" {
            opts.live = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| usage(format!("{key} needs a value")))?;
        match key {
            "--seed" => {
                opts.seed = Some(
                    value
                        .parse()
                        .map_err(|_| usage("--seed takes an integer"))?,
                );
            }
            "--scale" => {
                let scale: f64 = value.parse().map_err(|_| usage("--scale takes a float"))?;
                if scale <= 0.0 {
                    return Err(usage("--scale must be positive"));
                }
                opts.scale = Some(scale);
            }
            "--period" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| usage("--period takes milliseconds"))?;
                if ms == 0 {
                    return Err(usage("--period must be positive"));
                }
                opts.period_ms = Some(ms);
            }
            "--policy" => {
                if policy_by_name(value, AdapTbfConfig::default()).is_none() {
                    return Err(usage(format!("unknown policy {value}")));
                }
                opts.policy = Some(value.clone());
            }
            "--out" => opts.out = Some(value.clone()),
            "--shards" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| usage("--shards takes an integer"))?;
                if n == 0 {
                    return Err(usage("--shards must be positive"));
                }
                opts.shards = Some(n);
            }
            other => return Err(usage(format!("unknown option {other}"))),
        }
        i += 2;
    }
    Ok(opts)
}

/// Resolve `<name> [opts]` or `--scenario-file FILE [opts]` into the run
/// plan. A built-in name and a file take the same path: a [`ScenarioFile`]
/// whose `run` block the explicit flags override, planned once.
fn load_target(command: &str, rest: &[String]) -> Result<(FileRun, Options), CliError> {
    let (mut file, opts) = match rest.first().map(String::as_str) {
        Some("--scenario-file") => {
            let path = rest
                .get(1)
                .ok_or_else(|| usage("--scenario-file needs a path"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            let file = ScenarioFile::parse(&text).map_err(|e| usage(e.to_string()))?;
            let opts = parse_options(&rest[2..])?;
            if opts.scale.is_some() {
                return Err(usage("--scale applies to built-in scenarios only"));
            }
            (file, opts)
        }
        Some(name) if !name.starts_with("--") => {
            let opts = parse_options(&rest[1..])?;
            let (_, build) = scenarios::BUILTINS
                .iter()
                .find(|(builtin, _)| *builtin == name)
                .ok_or_else(|| {
                    usage(format!("unknown scenario {name}; try `adaptbf scenarios`"))
                })?;
            (build(opts.scale.unwrap_or(1.0)), opts)
        }
        _ => {
            return Err(usage(format!(
                "{command} needs a scenario name or --scenario-file FILE"
            )))
        }
    };
    let run = &mut file.run;
    run.seed = opts.seed.or(run.seed);
    run.period_ms = opts.period_ms.or(run.period_ms);
    // Only `run` and `record` pick a policy. The other commands always run
    // AdapTBF (compare and analyze next to the two baselines), so they
    // plan the default policy at the resolved period.
    run.policy = match command {
        "run" | "record" => opts.policy.clone().or(run.policy.take()),
        _ => None,
    };
    let plan = plan_file_run(&file).map_err(|e| usage(e.to_string()))?;
    Ok((plan, opts))
}

/// Execute a full command line; returns the text to print.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    const LIVE_COMMANDS: &str = "--live only applies to `run`, `compare`, `analyze` and `record`";
    let command = args.first().map(String::as_str).unwrap_or("");
    match command {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "scenarios" => Ok(list_scenarios()),
        "run" | "compare" | "analyze" | "sweep" | "ledger" | "record" => {
            let (plan, opts) = load_target(command, &args[1..])?;
            if command != "record" && opts.out.is_some() {
                return Err(usage("--out only applies to `record`"));
            }
            if opts.live && matches!(command, "sweep" | "ledger") {
                return Err(usage(LIVE_COMMANDS));
            }
            let exec = match (opts.live, opts.shards) {
                (false, shards) => Executor::Sim { shards },
                (true, None) => Executor::Live,
                (true, Some(_)) => {
                    return Err(usage(
                        "`--shards` shards the simulator's event loop; \
                         it does not apply with `--live`",
                    ))
                }
            };
            match command {
                "run" => cmd_run(&plan, exec),
                "compare" => cmd_compare(&plan, exec),
                "analyze" => cmd_analyze(&plan, exec),
                "sweep" => Ok(cmd_sweep(&plan)),
                "ledger" => cmd_ledger(&plan, exec),
                _ => cmd_record(&plan, exec, opts.out),
            }
        }
        "replay" => {
            let path = args
                .get(1)
                .ok_or_else(|| usage("replay needs a trace file"))?;
            let opts = parse_options(&args[2..])?;
            if opts.scale.is_some() {
                return Err(usage("--scale does not apply to replay"));
            }
            if opts.out.is_some() {
                return Err(usage("--out only applies to `record`"));
            }
            if opts.live {
                return Err(usage(LIVE_COMMANDS));
            }
            cmd_replay(path, opts)
        }
        "" => Err(usage("missing command")),
        other => Err(usage(format!("unknown command {other}"))),
    }
}

fn list_scenarios() -> String {
    let mut plain = String::from("built-in scenarios:\n");
    let mut faulty = String::from("built-in fault scenarios (workload + fault schedule):\n");
    for (name, build) in scenarios::BUILTINS {
        let file = build(1.0);
        let s = file.to_scenario().expect("valid built-in");
        let line = format!(
            "  {:<22} {} jobs, {}  — {}",
            name,
            s.jobs.len(),
            s.duration,
            s.description
        );
        if file.faults.is_none() {
            let _ = writeln!(plain, "{line}");
        } else {
            // The live runtime runs the full fault battery; a plan is only
            // refused if it fails validation outright.
            let live = match file.faults.validate() {
                Ok(()) => "live: ok",
                Err(_) => "live: invalid fault plan",
            };
            let _ = writeln!(faulty, "{line} [{live}]");
        }
    }
    plain + &faulty
}

fn render_report(report: &RunReport, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} under {} (seed {}):\n",
        report.scenario, report.policy, seed
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>12} {:>12}",
        "job", "served", "released", "tput_tps", "completed"
    );
    for (job, o) in &report.per_job {
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>12.1} {:>12}",
            job.to_string(),
            o.served,
            o.released,
            o.throughput_tps,
            o.completion.map_or("-".into(), |t| t.to_string()),
        );
    }
    let _ = writeln!(
        out,
        "\noverall: {:.1} RPC/s over the makespan",
        report.overall_throughput_tps()
    );
    out
}

/// `run`: one policy, the per-job table. A live run adds its thread and
/// wall-clock header and, when faults moved RPCs, the audited
/// fault-accounting partition.
fn cmd_run(plan: &FileRun, exec: Executor) -> Result<String, CliError> {
    let ran = execute(plan, exec, false)?;
    let table = render_report(&ran.report, plan.seed);
    let Some(elapsed) = ran.elapsed else {
        return Ok(table);
    };
    let procs: usize = plan.scenario.jobs.iter().map(|j| j.processes.len()).sum();
    let mut out = format!(
        "live run: {} OST thread(s), {procs} process thread(s), wall time {elapsed:.2?}\n\n{table}",
        plan.cluster.n_osts,
    );
    let fs = ran.report.fault_stats;
    if fs != Default::default() {
        let _ = writeln!(
            out,
            "fault accounting: resent {} (lost in service {}), rerouted {}, \
             parked {}, undelivered {}",
            fs.resent, fs.lost_in_service, fs.rerouted, fs.parked, fs.undelivered,
        );
    }
    Ok(out)
}

/// `record`: run with the recorder on, then write the captured trace. Both
/// executors emit the same versioned format, so a wall-clock (faulty) run
/// re-injects deterministically with `replay` just like a simulated one.
fn cmd_record(plan: &FileRun, exec: Executor, out: Option<String>) -> Result<String, CliError> {
    let ran = execute(plan, exec, true)?;
    let trace = ran.trace.expect("a recording run yields its trace");
    let name = &plan.scenario.name;
    let path = out.unwrap_or_else(|| format!("{name}.trace"));
    std::fs::write(&path, trace.to_text())
        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    let wall = ran
        .elapsed
        .map_or(String::new(), |e| format!(", live, wall time {e:.2?}"));
    Ok(format!(
        "recorded {} RPCs ({} served) from {name} under {} (seed {}{wall})\n\
         wrote {path}\n\
         replay with: adaptbf replay {path}",
        trace.records.len(),
        ran.report.metrics.total_served(),
        plan.policy.name(),
        plan.seed,
    ))
}

fn cmd_replay(path: &str, opts: Options) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let trace = Trace::from_text(&text).map_err(|e| usage(e.to_string()))?;
    let seed = opts.seed.unwrap_or(trace.meta.seed);
    let policy = match (&opts.policy, opts.period_ms) {
        (None, None) => recorded_policy(&trace)
            .ok_or_else(|| usage(format!("trace has unknown policy {}", trace.meta.policy)))?,
        (name, period_ms) => {
            let period = period_ms.or(trace.meta.period_ms).unwrap_or(100);
            let acfg = paper::adaptbf().with_period(SimDuration::from_millis(period));
            policy_by_name(name.as_deref().unwrap_or(trace.meta.policy.as_str()), acfg)
                .ok_or_else(|| usage("unknown policy"))?
        }
    };
    let report = adaptbf_sim::replay_report_with(
        &trace,
        policy,
        seed,
        replay_cluster_config(&trace),
        opts.shards,
    );
    let mut out = format!(
        "replaying {path}: {} RPCs recorded from {} (seed {}, {})\n\n",
        trace.records.len(),
        trace.meta.scenario,
        trace.meta.seed,
        trace.meta.policy,
    );
    out.push_str(&render_report(&report, seed));
    Ok(out)
}

/// The plan under all three policies (its own being AdapTBF at the
/// resolved period), then `render` over the comparison. Wall-clock runs
/// (three back to back) say so in a one-line banner; the tables are the
/// same.
fn compared(
    command: &str,
    plan: &FileRun,
    exec: Executor,
    render: impl Fn(&Comparison) -> String,
) -> Result<String, CliError> {
    let mut runs = exec
        .grid()
        .run(
            vec![Policy::NoBw, Policy::StaticBw, plan.policy],
            |policy| {
                let plan = FileRun {
                    policy,
                    ..plan.clone()
                };
                execute(&plan, exec, false)
            },
        )
        .into_iter();
    let mut next = || runs.next().expect("three runs");
    let (no_bw, static_bw, adaptbf) = (next()?, next()?, next()?);
    let banner = match adaptbf.elapsed {
        Some(_) => format!(
            "live {command}: three wall-clock runs (seed {})\n\n",
            plan.seed
        ),
        None => String::new(),
    };
    let comparison = Comparison {
        no_bw: no_bw.report,
        static_bw: static_bw.report,
        adaptbf: adaptbf.report,
    };
    Ok(banner + &render(&comparison))
}

fn cmd_compare(plan: &FileRun, exec: Executor) -> Result<String, CliError> {
    compared("compare", plan, exec, |c| {
        comparison_table(&c.job_rows(), c.overall_row())
    })
}

fn cmd_analyze(plan: &FileRun, exec: Executor) -> Result<String, CliError> {
    compared("analyze", plan, exec, |c| {
        let analysis = analyze_comparison(c, &plan.scenario);
        format!("{}\n{}", analysis.table(), analysis.latency.table())
    })
}

fn cmd_sweep(plan: &FileRun) -> String {
    let periods = [100u64, 200, 500, 1000, 2000].map(SimDuration::from_millis);
    // The sweep sets each point's period itself, so it starts from the
    // paper config rather than the plan's.
    let points = frequency_sweep_on(
        &plan.scenario,
        plan.seed,
        paper::adaptbf(),
        &periods,
        plan.cluster,
    );
    frequency_csv(&points)
}

fn cmd_ledger(plan: &FileRun, exec: Executor) -> Result<String, CliError> {
    let report = execute(plan, exec, false)?.report;
    let mut out = String::from("final lending/borrowing records (positive = lent):\n");
    let records = report.metrics.records();
    for &job in report.per_job.keys() {
        let last = records
            .get(job)
            .and_then(|s| s.values.last().copied())
            .unwrap_or(0.0);
        let _ = writeln!(out, "  {job}: {last:+.0}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse_options(&[]).unwrap();
        assert_eq!(o, Options::default());
        let o = parse_options(&argv("--seed 7 --scale 0.5 --period 200 --policy no_bw")).unwrap();
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.scale, Some(0.5));
        assert_eq!(o.period_ms, Some(200));
        assert_eq!(o.policy.as_deref(), Some("no_bw"));
    }

    #[test]
    fn rejects_bad_options() {
        assert!(parse_options(&argv("--seed")).is_err());
        assert!(parse_options(&argv("--seed x")).is_err());
        assert!(parse_options(&argv("--scale -1 ")).is_err());
        assert!(parse_options(&argv("--period 0")).is_err());
        assert!(parse_options(&argv("--policy gift")).is_err());
        assert!(parse_options(&argv("--bogus 1")).is_err());
        assert!(parse_options(&argv("--shards 0")).is_err());
        assert!(parse_options(&argv("--shards four")).is_err());
    }

    /// `--shards` is an execution parameter: the rendered report is
    /// byte-identical to the unsharded run, faults included.
    #[test]
    fn shards_flag_never_changes_the_report() {
        assert_eq!(parse_options(&argv("--shards 4")).unwrap().shards, Some(4));
        let base = dispatch(&argv("run ost_failover --scale 0.125")).unwrap();
        for shards in [1, 4, 16] {
            let sharded = dispatch(&argv(&format!(
                "run ost_failover --scale 0.125 --shards {shards}"
            )))
            .unwrap();
            assert_eq!(base, sharded, "report diverged at {shards} shards");
        }
    }

    #[test]
    fn unknown_commands_and_scenarios_error() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&argv("run nope")).is_err());
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&argv("run")).is_err());
    }

    /// `adaptbf scenarios` is the built-in table: every entry once, in
    /// table order, plain mixes first and the fault drills — exactly the
    /// entries that carry a fault plan — tagged with their live capability.
    #[test]
    fn scenarios_lists_exactly_the_builtin_table() {
        let out = dispatch(&argv("scenarios")).unwrap();
        let listed: Vec<(&str, bool)> = out
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(|l| {
                let name = l.split_whitespace().next().unwrap();
                (name, l.ends_with(" [live: ok]"))
            })
            .collect();
        let table: Vec<(&str, bool)> = scenarios::BUILTINS
            .iter()
            .map(|(name, build)| (*name, !build(1.0).faults.is_none()))
            .collect();
        assert_eq!(listed, table, "{out}");
        assert_eq!(
            listed.iter().filter(|(_, live)| *live).count(),
            2,
            "ost_failover and churn_under_degradation ship with fault plans"
        );
        assert!(
            !out.contains("sim-only") && !out.contains("invalid"),
            "{out}"
        );
        // A fault drill is named after the file it builds.
        for (name, build) in scenarios::BUILTINS {
            let file = build(1.0);
            assert!(file.faults.is_none() || file.name == *name, "{name}");
        }
    }

    #[test]
    fn fault_builtins_run_with_their_fault_plans() {
        // Scaled runs keep the test fast; the fault windows scale with the
        // horizon, so the crash still lands mid-run.
        let out = dispatch(&argv("run ost_failover --scale 0.125")).unwrap();
        assert!(out.contains("ost_failover"), "{out}");
        assert!(out.contains("overall:"), "{out}");
        let out = dispatch(&argv("run churn_under_degradation --scale 0.1 --seed 3")).unwrap();
        assert!(out.contains("churn_under_degradation"), "{out}");
        // Explicit flags still override the file's run block.
        let out = dispatch(&argv("run ost_failover --scale 0.125 --policy no_bw")).unwrap();
        assert!(out.contains("under no_bw"), "{out}");
    }

    #[test]
    fn fault_builtin_record_replay_round_trips() {
        let path = std::env::temp_dir().join("adaptbf_cli_failover.trace");
        let path = path.to_str().unwrap().to_string();
        let out = dispatch(&[
            "record".into(),
            "ost_failover".into(),
            "--scale".into(),
            "0.125".into(),
            "--out".into(),
            path.clone(),
        ])
        .unwrap();
        assert!(out.contains("recorded"), "{out}");
        // The fault plan rides in the header…
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("fault_crash "), "{text}");
        // …so replay reproduces the faulty run.
        let replayed = dispatch(&["replay".into(), path.clone()]).unwrap();
        assert!(replayed.contains("ost_failover_replay"), "{replayed}");
        assert!(replayed.contains("overall:"), "{replayed}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_produces_report_table() {
        let out = dispatch(&argv("run token_allocation --scale 0.015625 --seed 1")).unwrap();
        assert!(out.contains("adaptbf"), "{out}");
        assert!(out.contains("job1"));
        assert!(out.contains("overall:"));
    }

    #[test]
    fn compare_produces_gain_table() {
        let out = dispatch(&argv("compare token_allocation --scale 0.015625")).unwrap();
        assert!(out.contains("gain_vs_nobw"));
        assert!(out.contains("overall"));
    }

    #[test]
    fn sweep_outputs_csv() {
        let out = dispatch(&argv("sweep token_recompensation --scale 0.05")).unwrap();
        assert!(out.starts_with("period_ms,throughput_tps"));
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn ledger_reports_records() {
        let out = dispatch(&argv("ledger token_recompensation --scale 0.05")).unwrap();
        assert!(out.contains("job4"));
    }

    #[test]
    fn analyze_reports_fairness() {
        let out = dispatch(&argv("analyze token_allocation --scale 0.015625")).unwrap();
        assert!(out.contains("fairness"));
        assert!(out.contains("adap_median"));
    }

    #[test]
    fn help_prints_usage() {
        for cmd in ["help", "--help", "-h"] {
            let out = dispatch(&argv(cmd)).unwrap();
            assert!(out.contains("record <scenario>"), "{cmd}: {out}");
            assert!(out.contains("--scenario-file"), "{cmd}: {out}");
        }
    }

    fn scenario_file(name: &str) -> String {
        format!(
            "{}/../../examples/scenarios/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    #[test]
    fn checked_in_scenario_files_run_end_to_end() {
        for name in [
            "token_allocation",
            "token_redistribution",
            "hog_and_victim",
            "diurnal_checkpoint",
            "ost_failover",
            "churn_under_degradation",
        ] {
            // Keep CI fast: a short seed-fixed run per file, overriding the
            // file's horizon-scale workload only through the option surface.
            let args = vec![
                "run".to_string(),
                "--scenario-file".to_string(),
                scenario_file(name),
                "--seed".to_string(),
                "3".to_string(),
                "--period".to_string(),
                "200".to_string(),
            ];
            let out = dispatch(&args).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert!(out.contains("adaptbf"), "{name}: {out}");
            assert!(out.contains("job1"), "{name}: {out}");
            assert!(out.contains("overall:"), "{name}: {out}");
        }
    }

    #[test]
    fn scenario_file_errors_are_reported() {
        assert!(matches!(
            dispatch(&argv("run --scenario-file /nonexistent.json")),
            Err(CliError::Io(_))
        ));
        assert!(dispatch(&argv("run --scenario-file")).is_err());
        let args = vec![
            "run".to_string(),
            "--scenario-file".to_string(),
            scenario_file("token_allocation"),
            "--scale".to_string(),
            "0.5".to_string(),
        ];
        assert!(dispatch(&args).is_err(), "--scale rejected for files");
    }

    #[test]
    fn record_then_replay_round_trips() {
        let path = std::env::temp_dir().join("adaptbf_cli_test.trace");
        let path = path.to_str().unwrap().to_string();
        let out = dispatch(&[
            "record".into(),
            "token_allocation".into(),
            "--scale".into(),
            "0.015625".into(),
            "--seed".into(),
            "5".into(),
            "--out".into(),
            path.clone(),
        ])
        .unwrap();
        assert!(out.contains("recorded"), "{out}");
        assert!(out.contains(&path), "{out}");

        // Replay with recorded defaults reproduces the run.
        let replayed = dispatch(&["replay".into(), path.clone()]).unwrap();
        assert!(replayed.contains("token_allocation_replay"), "{replayed}");
        assert!(replayed.contains("seed 5"), "{replayed}");
        assert!(replayed.contains("overall:"), "{replayed}");

        // What-if replay under a different policy also works.
        let what_if = dispatch(&[
            "replay".into(),
            path.clone(),
            "--policy".into(),
            "no_bw".into(),
        ])
        .unwrap();
        assert!(what_if.contains("under no_bw"), "{what_if}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn misplaced_options_are_rejected() {
        // --out is record-only.
        assert!(dispatch(&argv("run token_allocation --scale 0.015625 --out x.trace")).is_err());
        // replay takes neither --scale nor --out nor --live.
        assert!(dispatch(&argv("replay x.trace --scale 0.5")).is_err());
        assert!(dispatch(&argv("replay x.trace --out y.trace")).is_err());
        assert!(dispatch(&argv("replay x.trace --live")).is_err());
        // --live drives run/compare/analyze/record, nothing else.
        assert!(dispatch(&argv("sweep token_allocation --scale 0.015625 --live")).is_err());
        assert!(dispatch(&argv("ledger token_allocation --scale 0.015625 --live")).is_err());
        // --shards is the simulator's; the live executor has no shard count.
        for command in ["run", "record", "compare", "analyze"] {
            let args = argv(&format!("{command} token_allocation --live --shards 4"));
            match dispatch(&args) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("--shards"), "{msg}"),
                other => panic!("{command}: {other:?}"),
            }
        }
    }

    /// Write a short-horizon scenario file so the three wall-clock runs a
    /// live compare/analyze performs stay test-sized.
    fn short_live_scenario(name: &str) -> String {
        let mut file = ScenarioFile::from_scenario(&scenarios::token_allocation_scaled(1.0 / 64.0));
        file.duration_secs = 1.0;
        let path = std::env::temp_dir().join(format!("adaptbf_cli_{name}.json"));
        std::fs::write(&path, file.render()).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn compare_live_produces_the_same_gain_table() {
        // ~3 s wall clock: one 1 s live run per policy.
        let path = short_live_scenario("live_compare");
        let args = vec![
            "compare".to_string(),
            "--scenario-file".to_string(),
            path.clone(),
            "--live".to_string(),
        ];
        let out = dispatch(&args).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(out.contains("live compare"), "{out}");
        assert!(out.contains("gain_vs_nobw"), "{out}");
        assert!(out.contains("overall"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_live_produces_the_same_fairness_tables() {
        let path = short_live_scenario("live_analyze");
        let args = vec![
            "analyze".to_string(),
            "--scenario-file".to_string(),
            path.clone(),
            "--live".to_string(),
        ];
        let out = dispatch(&args).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(out.contains("live analyze"), "{out}");
        assert!(out.contains("fairness"), "{out}");
        assert!(out.contains("adap_median"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_live_produces_the_same_report_table() {
        // A ~3 s wall-clock run on the live threaded runtime: the output
        // must be the same per-job table the simulator path renders.
        let out = dispatch(&argv(
            "run token_allocation --scale 0.015625 --seed 1 --live",
        ))
        .unwrap();
        assert!(out.contains("live run:"), "{out}");
        assert!(out.contains("token_allocation under adaptbf"), "{out}");
        assert!(out.contains("job1") && out.contains("job4"), "{out}");
        assert!(out.contains("overall:"), "{out}");
    }

    #[test]
    fn run_live_runs_crash_fault_scenarios() {
        // ost_failover carries an ost_crash window: the live runtime now
        // runs it through the same crash-epoch/resend machinery the
        // simulator uses and prints the audited accounting partition.
        let out = dispatch(&argv("run ost_failover --scale 0.0625 --live"))
            .unwrap_or_else(|e| panic!("{e:?}"));
        assert!(out.contains("ost_failover under adaptbf"), "{out}");
        assert!(out.contains("overall:"), "{out}");
        assert!(out.contains("fault accounting: resent"), "{out}");
    }

    #[test]
    fn record_live_writes_a_sim_replayable_trace() {
        // `record --live` captures a wall-clock run into the same trace
        // format the simulator records — and `replay` re-injects it.
        let path = std::env::temp_dir().join("adaptbf_cli_live_record.trace");
        let path = path.to_str().unwrap().to_string();
        let scenario = short_live_scenario("live_record");
        let out = dispatch(&[
            "record".into(),
            "--scenario-file".into(),
            scenario.clone(),
            "--live".into(),
            "--out".into(),
            path.clone(),
        ])
        .unwrap_or_else(|e| panic!("{e:?}"));
        assert!(out.contains("recorded"), "{out}");
        assert!(out.contains("live"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("recorded_by live"), "{text}");
        let replayed = dispatch(&["replay".into(), path.clone()]).unwrap();
        assert!(replayed.contains("_replay"), "{replayed}");
        assert!(replayed.contains("overall:"), "{replayed}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&scenario);
    }

    #[test]
    fn run_live_honors_live_capable_fault_scenarios() {
        // churn_under_degradation injects only disk_degrade + job_churn —
        // both wall-clock-feasible, so --live must run it.
        let out = dispatch(&argv(
            "run churn_under_degradation --scale 0.1 --seed 3 --live",
        ))
        .unwrap_or_else(|e| panic!("{e:?}"));
        assert!(
            out.contains("churn_under_degradation under adaptbf"),
            "{out}"
        );
        assert!(out.contains("overall:"), "{out}");
    }

    #[test]
    fn analyze_and_ledger_honor_scenario_file_wiring() {
        // The diurnal file pins a 2-OST wiring; analyze/sweep/ledger must
        // run on it (not the default testbed) without erroring.
        for cmd in ["analyze", "ledger"] {
            let args = vec![
                cmd.to_string(),
                "--scenario-file".to_string(),
                scenario_file("diurnal_checkpoint"),
            ];
            let out = dispatch(&args).unwrap_or_else(|e| panic!("{cmd}: {e:?}"));
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn replay_rejects_garbage() {
        assert!(matches!(
            dispatch(&argv("replay /nonexistent.trace")),
            Err(CliError::Io(_))
        ));
        let path = std::env::temp_dir().join("adaptbf_cli_bad.trace");
        std::fs::write(&path, "not a trace\n").unwrap();
        let args = vec!["replay".to_string(), path.to_str().unwrap().to_string()];
        assert!(matches!(dispatch(&args), Err(CliError::Usage(_))));
        let _ = std::fs::remove_file(&path);
    }
}
