//! Implementation of the `adaptbf` command line (kept in a library so
//! the parsing and command logic are unit-testable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adaptbf_analysis::summary::analyze_comparison;
use adaptbf_analysis::LatencyComparison;
use adaptbf_model::config::paper;
use adaptbf_model::{AdapTbfConfig, JobId, SimDuration};
use adaptbf_runtime::{LiveCluster, LiveTuning};
use adaptbf_sim::cluster::ClusterConfig;
use adaptbf_sim::report::frequency_sweep_on;
use adaptbf_sim::report::{comparison_table, frequency_csv};
use adaptbf_sim::spec::{plan_file_run, policy_by_name, recorded_policy, replay_cluster_config};
use adaptbf_sim::{Cluster, Comparison, Experiment, Policy, RunReport};
use adaptbf_workload::trace::Trace;
use adaptbf_workload::{scenarios, Scenario, ScenarioFile, TuningSpec};
use std::fmt::Write as _;

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

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// RNG seed.
    pub seed: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// AdapTBF period in milliseconds.
    pub period_ms: u64,
    /// Policy for `run`/`record`/`replay`.
    pub policy: String,
    /// Trace output path for `record`.
    pub out: Option<String>,
    /// Event-loop shard count for `run`/`record`/`replay`; `None` keeps
    /// the simulator's `ADAPTBF_SHARDS` default. Execution parameter
    /// only — never changes results.
    pub shards: Option<usize>,
    /// Execute `run` on the live threaded runtime instead of the
    /// simulator.
    pub live: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 42,
            scale: 1.0,
            period_ms: 100,
            policy: "adaptbf".into(),
            out: None,
            shards: None,
            live: false,
        }
    }
}

/// `--key value` options as given, before defaults are applied — so a
/// scenario file's `run` block (or a trace header) can supply defaults
/// that explicit flags override.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawOptions {
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
    /// `--shards N`.
    pub shards: Option<usize>,
    /// `--live` (flag, no value).
    pub live: bool,
}

impl RawOptions {
    /// Parse trailing `--key value` pairs (plus the `--live` flag).
    pub fn parse(args: &[String]) -> Result<RawOptions, CliError> {
        let mut raw = RawOptions::default();
        let mut i = 0;
        while i < args.len() {
            let key = args[i].as_str();
            if key == "--live" {
                raw.live = true;
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| usage(format!("{key} needs a value")))?;
            match key {
                "--seed" => {
                    raw.seed = Some(
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
                    raw.scale = Some(scale);
                }
                "--period" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| usage("--period takes milliseconds"))?;
                    if ms == 0 {
                        return Err(usage("--period must be positive"));
                    }
                    raw.period_ms = Some(ms);
                }
                "--policy" => {
                    if policy_by_name(value, AdapTbfConfig::default()).is_none() {
                        return Err(usage(format!("unknown policy {value}")));
                    }
                    raw.policy = Some(value.clone());
                }
                "--out" => raw.out = Some(value.clone()),
                "--shards" => {
                    let n: usize = value
                        .parse()
                        .map_err(|_| usage("--shards takes an integer"))?;
                    if n == 0 {
                        return Err(usage("--shards must be positive"));
                    }
                    raw.shards = Some(n);
                }
                other => return Err(usage(format!("unknown option {other}"))),
            }
            i += 2;
        }
        Ok(raw)
    }

    /// Fill unset options from `base`.
    pub fn resolve(self, base: Options) -> Options {
        Options {
            seed: self.seed.unwrap_or(base.seed),
            scale: self.scale.unwrap_or(base.scale),
            period_ms: self.period_ms.unwrap_or(base.period_ms),
            policy: self.policy.unwrap_or(base.policy),
            out: self.out.or(base.out),
            shards: self.shards.or(base.shards),
            live: self.live || base.live,
        }
    }
}

/// Parse trailing `--key value` options against the built-in defaults.
pub fn parse_options(args: &[String]) -> Result<Options, CliError> {
    Ok(RawOptions::parse(args)?.resolve(Options::default()))
}

/// Built-in scenario names and builders.
pub fn scenario_by_name(name: &str, scale: f64) -> Result<Scenario, CliError> {
    match name {
        "token_allocation" => Ok(scenarios::token_allocation_scaled(scale)),
        "token_redistribution" => Ok(scenarios::token_redistribution_scaled(scale)),
        "token_recompensation" => Ok(scenarios::token_recompensation_scaled(scale)),
        "hog_and_victim" => Ok(scenarios::hog_and_victim_scaled(scale)),
        "job_churn" => Ok(scenarios::job_churn_scaled(scale)),
        "many_jobs" => Ok(scenarios::many_jobs(32, (30.0 * scale).max(5.0) as u64)),
        "million_rpc" => Ok(scenarios::million_rpc_scaled(scale)),
        other => Err(usage(format!(
            "unknown scenario {other}; try `adaptbf scenarios`"
        ))),
    }
}

/// Built-ins that are full scenario *files* (workload + run block + fault
/// schedule), listed by `adaptbf scenarios` alongside the plain mixes.
pub const FAULT_BUILTINS: &[&str] = &["ost_failover", "churn_under_degradation"];

/// Resolve one of [`FAULT_BUILTINS`]: they flow through the same
/// `plan_file_run` path as `--scenario-file`, so their faults and wiring
/// are injected automatically.
pub fn scenario_file_by_name(name: &str, scale: f64) -> Option<ScenarioFile> {
    match name {
        "ost_failover" => Some(scenarios::ost_failover_scaled(scale)),
        "churn_under_degradation" => Some(scenarios::churn_under_degradation_scaled(scale)),
        _ => None,
    }
}

fn adaptbf_config(opts: &Options) -> AdapTbfConfig {
    paper::adaptbf().with_period(SimDuration::from_millis(opts.period_ms))
}

/// A command's workload plus the options/wiring it resolved to.
struct Target {
    scenario: Scenario,
    opts: Options,
    cluster: ClusterConfig,
    /// Live-testbed knobs from the file's `tuning` block (defaults for
    /// built-ins); only the `--live` paths consume it.
    tuning: TuningSpec,
}

/// Resolve `<name> [opts]` or `--scenario-file FILE [opts]` into a
/// runnable target. A scenario file's `run` block supplies option
/// defaults; explicit flags override it.
fn load_target(command: &str, rest: &[String]) -> Result<Target, CliError> {
    match rest.first().map(String::as_str) {
        Some("--scenario-file") => {
            let path = rest
                .get(1)
                .ok_or_else(|| usage("--scenario-file needs a path"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            let file = ScenarioFile::parse(&text).map_err(|e| usage(e.to_string()))?;
            let raw = RawOptions::parse(&rest[2..])?;
            if raw.scale.is_some() {
                return Err(usage("--scale applies to built-in scenarios only"));
            }
            target_from_file(&file, raw)
        }
        Some(name) if !name.starts_with("--") => {
            let raw = RawOptions::parse(&rest[1..])?;
            // Fault built-ins are full scenario files (workload + wiring +
            // fault schedule) and resolve exactly like --scenario-file.
            if let Some(file) = scenario_file_by_name(name, raw.scale.unwrap_or(1.0)) {
                return target_from_file(&file, raw);
            }
            let opts = raw.resolve(Options::default());
            Ok(Target {
                scenario: scenario_by_name(name, opts.scale)?,
                opts,
                cluster: ClusterConfig::default(),
                tuning: TuningSpec::default(),
            })
        }
        _ => Err(usage(format!(
            "{command} needs a scenario name or --scenario-file FILE"
        ))),
    }
}

/// Resolve a parsed scenario file into a runnable target; its `run` block
/// supplies option defaults that the raw command-line flags override, and
/// its `faults` block rides in the cluster wiring.
fn target_from_file(file: &ScenarioFile, raw: RawOptions) -> Result<Target, CliError> {
    let plan = plan_file_run(file).map_err(|e| usage(e.to_string()))?;
    let opts = raw.resolve(Options {
        seed: plan.seed,
        scale: 1.0,
        period_ms: file.run.period_ms.unwrap_or(100),
        policy: file
            .run
            .policy
            .clone()
            .unwrap_or_else(|| "adaptbf".to_string()),
        out: None,
        shards: None,
        live: false,
    });
    Ok(Target {
        scenario: plan.scenario,
        opts,
        cluster: plan.cluster,
        tuning: plan.tuning,
    })
}

/// Execute a full command line; returns the text to print.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let command = args.first().map(String::as_str).unwrap_or("");
    match command {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "scenarios" => Ok(list_scenarios()),
        "run" | "compare" | "analyze" | "sweep" | "ledger" | "record" => {
            let target = load_target(command, &args[1..])?;
            let Target {
                scenario,
                opts,
                cluster,
                tuning,
            } = &target;
            if command != "record" && opts.out.is_some() {
                return Err(usage("--out only applies to `record`"));
            }
            if !matches!(command, "run" | "compare" | "analyze" | "record") && opts.live {
                return Err(usage(
                    "--live only applies to `run`, `compare`, `analyze` and `record`",
                ));
            }
            match command {
                "run" if opts.live => cmd_run_live(scenario, opts, *cluster, tuning),
                "run" => cmd_run(scenario, opts, *cluster),
                "compare" => cmd_compare(scenario, opts, *cluster, tuning),
                "analyze" => cmd_analyze(scenario, opts, *cluster, tuning),
                "sweep" => cmd_sweep(scenario, opts, *cluster),
                "ledger" => cmd_ledger(scenario, opts, *cluster),
                "record" if opts.live => cmd_record_live(scenario, opts, *cluster, tuning),
                "record" => cmd_record(scenario, opts, *cluster),
                _ => unreachable!(),
            }
        }
        "replay" => {
            let path = args
                .get(1)
                .ok_or_else(|| usage("replay needs a trace file"))?;
            let raw = RawOptions::parse(&args[2..])?;
            if raw.scale.is_some() {
                return Err(usage("--scale does not apply to replay"));
            }
            if raw.out.is_some() {
                return Err(usage("--out only applies to `record`"));
            }
            if raw.live {
                return Err(usage(
                    "--live only applies to `run`, `compare`, `analyze` and `record`",
                ));
            }
            cmd_replay(path, raw)
        }
        "" => Err(usage("missing command")),
        other => Err(usage(format!("unknown command {other}"))),
    }
}

fn list_scenarios() -> String {
    let names = [
        "token_allocation",
        "token_redistribution",
        "token_recompensation",
        "hog_and_victim",
        "job_churn",
        "many_jobs",
        "million_rpc",
    ];
    let mut out = String::from("built-in scenarios:\n");
    for n in names {
        let s = scenario_by_name(n, 1.0).expect("known name");
        let _ = writeln!(
            out,
            "  {:<22} {} jobs, {}  — {}",
            n,
            s.jobs.len(),
            s.duration,
            s.description
        );
    }
    out.push_str("built-in fault scenarios (workload + fault schedule):\n");
    for &n in FAULT_BUILTINS {
        let file = scenario_file_by_name(n, 1.0).expect("known name");
        let s = file.to_scenario().expect("valid built-in");
        // The live runtime runs the full fault battery; a plan is only
        // refused if it fails validation outright.
        let live = match file.faults.validate() {
            Ok(()) => "live: ok",
            Err(_) => "live: invalid fault plan",
        };
        let _ = writeln!(
            out,
            "  {:<22} {} jobs, {}  — {} [{}]",
            n,
            s.jobs.len(),
            s.duration,
            s.description,
            live,
        );
    }
    out
}

fn policy_from(opts: &Options) -> Policy {
    policy_by_name(&opts.policy, adaptbf_config(opts)).expect("policy names are checked at parse")
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

fn cmd_run(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
) -> Result<String, CliError> {
    let mut experiment = Experiment::new(scenario.clone(), policy_from(opts))
        .seed(opts.seed)
        .cluster_config(cluster);
    if let Some(n) = opts.shards {
        experiment = experiment.shards(n);
    }
    Ok(render_report(&experiment.run(), opts.seed))
}

/// The live-testbed analogue of a simulated wiring: same OST model, TBF
/// knobs and topology, with small payloads so emulated RPCs move real
/// bytes without shoveling 1 MiB each through memory. This is *the*
/// `ClusterConfig` → `LiveTuning` mapping, so live-vs-sim comparisons
/// cannot silently run on different hardware.
pub fn live_tuning_from(cluster: &ClusterConfig) -> LiveTuning {
    LiveTuning {
        ost: cluster.ost,
        tbf: cluster.tbf,
        n_osts: cluster.n_osts,
        n_clients: cluster.n_clients,
        stripe_count: cluster.stripe_count,
        static_rate_total: cluster.static_rate_total,
        bucket: cluster.bucket,
        payload_bytes: 4096,
        max_batch: 256,
        pin_threads: false,
    }
}

/// [`live_tuning_from`] with a scenario file's `tuning` block applied on
/// top. `service_quantum_us` pins the emulated disk's mean per-RPC service
/// time by re-deriving the device bandwidth (`quantum = rpc_size / (B/k)`,
/// solved for `B`), so the file controls wall-clock service pacing without
/// exposing raw bandwidth numbers.
pub fn live_tuning_with(cluster: &ClusterConfig, tuning: &TuningSpec) -> LiveTuning {
    let mut t = live_tuning_from(cluster);
    if let Some(bytes) = tuning.payload_bytes {
        t.payload_bytes = bytes as usize;
    }
    if let Some(us) = tuning.service_quantum_us {
        let quantum_secs = us as f64 / 1e6;
        t.ost.disk_bw_bytes_per_s =
            (t.ost.rpc_size as f64 * t.ost.n_io_threads as f64 / quantum_secs) as u64;
    }
    if let Some(batch) = tuning.send_batch {
        t.max_batch = batch as usize;
    }
    t
}

fn cmd_run_live(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
    tuning: &TuningSpec,
) -> Result<String, CliError> {
    let live = LiveCluster::run_with_faults(
        scenario,
        policy_from(opts),
        live_tuning_with(&cluster, tuning),
        &cluster.faults,
        opts.seed,
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    let mut out = format!(
        "live run: {} OST thread(s), {} process thread(s), wall time {:.2?}\n\n",
        live.records_per_ost.len(),
        live.procs.len(),
        live.elapsed,
    );
    out.push_str(&render_report(&live.report, opts.seed));
    let fs = live.report.fault_stats;
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

/// `record --live`: run the scenario on the threaded runtime with the
/// recorder hook on, then write the captured trace — the same versioned
/// format `record` emits from the simulator — so a wall-clock (faulty) run
/// can be re-injected deterministically with `replay`.
fn cmd_record_live(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
    tuning: &TuningSpec,
) -> Result<String, CliError> {
    let policy = policy_from(opts);
    let (live, trace) = LiveCluster::record_with_faults(
        scenario,
        policy,
        live_tuning_with(&cluster, tuning),
        &cluster.faults,
        opts.seed,
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.trace", scenario.name));
    std::fs::write(&path, trace.to_text())
        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    Ok(format!(
        "recorded {} RPCs ({} served) live from {} under {} (seed {}, wall time {:.2?})\n\
         wrote {path}\n\
         replay in the simulator with: adaptbf replay {path}",
        trace.records.len(),
        live.report.metrics.total_served(),
        scenario.name,
        policy.name(),
        opts.seed,
        live.elapsed,
    ))
}

fn cmd_record(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
) -> Result<String, CliError> {
    let policy = policy_from(opts);
    let mut recorder = Cluster::build_with(scenario, policy, opts.seed, cluster);
    if let Some(n) = opts.shards {
        recorder = recorder.shards(n);
    }
    let (out, trace) = recorder.run_traced();
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.trace", scenario.name));
    std::fs::write(&path, trace.to_text())
        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    Ok(format!(
        "recorded {} RPCs ({} served) from {} under {} (seed {})\n\
         wrote {path}\n\
         replay with: adaptbf replay {path}",
        trace.records.len(),
        out.metrics.total_served(),
        scenario.name,
        policy.name(),
        opts.seed,
    ))
}

fn cmd_replay(path: &str, raw: RawOptions) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let trace = Trace::from_text(&text).map_err(|e| usage(e.to_string()))?;
    let seed = raw.seed.unwrap_or(trace.meta.seed);
    let policy = match (&raw.policy, raw.period_ms) {
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
        raw.shards,
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

/// The `--live` analogue of `Comparison::run_with`: three back-to-back
/// wall-clock runs on the live threaded runtime, one per policy, folded
/// into the same `Comparison` the simulator path produces — so the
/// downstream gain/fairness/latency tables render unchanged.
fn live_comparison(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
    tuning: &TuningSpec,
) -> Result<Comparison, CliError> {
    let run = |policy: Policy| -> Result<RunReport, CliError> {
        let live = LiveCluster::run_with_faults(
            scenario,
            policy,
            live_tuning_with(&cluster, tuning),
            &cluster.faults,
            opts.seed,
        )
        .map_err(|e| CliError::Run(e.to_string()))?;
        Ok(live.report)
    };
    Ok(Comparison {
        no_bw: run(Policy::NoBw)?,
        static_bw: run(Policy::StaticBw)?,
        adaptbf: run(Policy::AdapTbf(adaptbf_config(opts)))?,
    })
}

fn comparison_for(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
    tuning: &TuningSpec,
) -> Result<Comparison, CliError> {
    if opts.live {
        live_comparison(scenario, opts, cluster, tuning)
    } else {
        Ok(Comparison::run_with(
            scenario,
            opts.seed,
            Policy::AdapTbf(adaptbf_config(opts)),
            cluster,
        ))
    }
}

fn cmd_compare(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
    tuning: &TuningSpec,
) -> Result<String, CliError> {
    let comparison = comparison_for(scenario, opts, cluster, tuning)?;
    let mut out = String::new();
    if opts.live {
        let _ = writeln!(
            out,
            "live compare: three wall-clock runs (seed {})\n",
            opts.seed
        );
    }
    out.push_str(&comparison_table(
        &comparison.job_rows(),
        comparison.overall_row(),
    ));
    Ok(out)
}

fn cmd_analyze(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
    tuning: &TuningSpec,
) -> Result<String, CliError> {
    let comparison = comparison_for(scenario, opts, cluster, tuning)?;
    let analysis = analyze_comparison(&comparison, scenario);
    let mut out = String::new();
    if opts.live {
        let _ = writeln!(
            out,
            "live analyze: three wall-clock runs (seed {})\n",
            opts.seed
        );
    }
    out.push_str(&analysis.table());
    out.push('\n');
    out.push_str(&analysis.latency.table());
    Ok(out)
}

fn cmd_sweep(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
) -> Result<String, CliError> {
    let periods: Vec<SimDuration> = [100u64, 200, 500, 1000, 2000]
        .map(SimDuration::from_millis)
        .to_vec();
    let points = frequency_sweep_on(scenario, opts.seed, adaptbf_config(opts), &periods, cluster);
    Ok(frequency_csv(&points))
}

fn cmd_ledger(
    scenario: &Scenario,
    opts: &Options,
    cluster: ClusterConfig,
) -> Result<String, CliError> {
    let report = Experiment::new(scenario.clone(), Policy::AdapTbf(adaptbf_config(opts)))
        .seed(opts.seed)
        .cluster_config(cluster)
        .run();
    let mut out = String::from("final lending/borrowing records (positive = lent):\n");
    let records = report.metrics.records();
    let jobs: Vec<JobId> = report.per_job.keys().copied().collect();
    for job in jobs {
        let last = records
            .get(job)
            .and_then(|s| s.values.last().copied())
            .unwrap_or(0.0);
        let _ = writeln!(out, "  {job}: {last:+.0}");
    }
    Ok(out)
}

/// Re-exported latency table type (used by `analyze`).
pub type Latency = LatencyComparison;

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
        assert_eq!(o.seed, 7);
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.period_ms, 200);
        assert_eq!(o.policy, "no_bw");
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

    #[test]
    fn scenarios_lists_all() {
        let out = dispatch(&argv("scenarios")).unwrap();
        for name in [
            "token_allocation",
            "job_churn",
            "many_jobs",
            "hog_and_victim",
            "ost_failover",
            "churn_under_degradation",
        ] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn fault_builtin_list_and_resolver_agree() {
        for &name in FAULT_BUILTINS {
            let file = scenario_file_by_name(name, 1.0)
                .unwrap_or_else(|| panic!("{name} listed but not resolvable"));
            assert_eq!(file.name, name);
            assert!(!file.faults.is_none(), "{name} must carry a fault plan");
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
    fn scenario_listing_tags_live_capability() {
        // Every built-in fault plan now runs on the live runtime.
        let out = dispatch(&argv("scenarios")).unwrap();
        assert!(out.contains("live: ok"), "{out}");
        assert!(!out.contains("sim-only"), "{out}");
    }

    #[test]
    fn live_tuning_applies_the_scenario_tuning_block() {
        let cluster = ClusterConfig::default();
        let tuning = TuningSpec {
            payload_bytes: Some(8192),
            service_quantum_us: Some(2000),
            send_batch: Some(32),
        };
        let t = live_tuning_with(&cluster, &tuning);
        assert_eq!(t.payload_bytes, 8192);
        assert_eq!(t.max_batch, 32);
        // A 2 ms quantum: the derived bandwidth must put the mean per-RPC
        // service time at exactly the requested quantum.
        assert!((t.ost.mean_service_secs() - 0.002).abs() < 1e-6);
        // An empty block is the identity.
        assert_eq!(
            live_tuning_with(&cluster, &TuningSpec::default()),
            live_tuning_from(&cluster)
        );
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
