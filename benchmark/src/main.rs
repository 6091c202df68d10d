//! Command line of the benchmark.
//!
//! ```text
//! adaptbf-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload; the last line of standard output is the result JSON
//!     (`--trace 0`: end-to-end metrics, `--trace 1`: per-layer metrics)
//! adaptbf-benchmark [--seed N] [--seconds S]
//!     all five workloads interleaved, then the traced run of each
//! adaptbf-benchmark --smoke     the same at a tenth of the size
//! adaptbf-benchmark --aa        the end-to-end set twice; exit 1 past a bound
//! ```

use adaptbf_benchmark::harness::{self, Measured, Plan, Traced};
use adaptbf_benchmark::inputs::{Workload, TIMED_THREADS, WORKLOADS};
use adaptbf_benchmark::metrics::{result_json, Better, END_TO_END, PER_LAYER};
use adaptbf_benchmark::spans::Spans;
use adaptbf_benchmark::{calibration, live_run, probes, procfs, sim_run, RepOpts};
use std::process::ExitCode;

/// Seconds of request time per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 16.0;
const DEFAULT_SEED: u64 = 42;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} takes a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{v}`")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value("--workload") {
            None => Ok(None),
            Some(name) => Workload::from_name(name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (known: {})", known.join(", "))
            }),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("adaptbf-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if let Some(mode) = args.value("--child") {
        return child(mode, args);
    }
    let smoke = args.flag("--smoke");
    let plan = Plan {
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: if smoke {
            0.0
        } else {
            args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS)
        },
        scale: if smoke { 0.1 } else { 1.0 },
        min_reps: if smoke { 2 } else { 5 },
        variant_reps: if smoke { 1 } else { 3 },
    };
    if args.flag("--aa") {
        return Ok(a_a(&plan));
    }
    match args.workload()? {
        Some(workload) => {
            let traced = match args.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            };
            Ok(one_workload(workload, traced, &plan))
        }
        None => Ok(everything(&plan)),
    }
}

/// One repetition or one probe set, in this process; results go to the
/// parent as `Sample` lines.
fn child(mode: &str, args: &Args) -> Result<ExitCode, String> {
    let opts = RepOpts {
        workload: args.workload()?.ok_or("--child needs --workload")?,
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        scale: args.parsed("--scale")?.unwrap_or(1.0),
        traced: args.flag("--traced"),
        shards: args.parsed("--shards")?,
        no_bw: args.flag("--no-bw"),
    };
    let sample = match mode {
        "probe" => probes::run_probes(&opts),
        "rep" => {
            let mut spans = Spans::new(opts.traced);
            // The calibration kernel brackets the request; its memory is
            // gone, and the high-water mark reset, before the request runs.
            let before = calibration::kernel_ns();
            procfs::reset_peak_rss();
            let mut sample = match opts.workload {
                Workload::LiveSat => live_run::run_sat(&opts, &mut spans),
                Workload::LiveOpen => live_run::run_open(&opts, &mut spans),
                _ => sim_run::run_rep(&opts, &mut spans),
            };
            let after = calibration::kernel_ns();
            sample.put("host_speed", calibration::speed_factor(before, after));
            if opts.traced {
                write_trace(&spans, &opts)?;
            }
            sample
        }
        other => return Err(format!("--child takes rep or probe, not `{other}`")),
    };
    print!("{}", sample.to_lines());
    Ok(ExitCode::SUCCESS)
}

/// `benchmark/out/trace-<workload>.json` from the root of a checkout,
/// `out/…` when run from inside the package.
fn write_trace(spans: &Spans, opts: &RepOpts) -> Result<(), String> {
    let dir = if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{}.json", opts.workload.name());
    std::fs::write(&path, spans.to_json(opts.workload.name(), opts.seed))
        .map_err(|e| format!("write {path}: {e}"))
}

fn print_failures(failures: &[String]) {
    for reason in failures {
        println!("CHECK FAILED: {reason}");
    }
}

fn print_end_to_end(m: &Measured) {
    println!(
        "== {} — {} repetitions, {} RPCs attempted, {} failed",
        m.workload.name(),
        m.reps.len(),
        m.attempted(),
        m.failed()
    );
    for (name, unit, value) in harness::end_to_end_rows(m) {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    if let Some(n) = m.reps.first().and_then(|s| s.nums.get("lat_samples")) {
        println!("  (latency percentiles over {n} RPCs per repetition)");
    }
    print_failures(&m.failures);
}

fn print_per_layer(workload: Workload, t: &Traced) {
    println!("== {} — traced run and probes", workload.name());
    for (m, value) in PER_LAYER.iter().zip(&t.values) {
        println!("  {:<32} {value:>16.6} {}", m.name, m.unit);
    }
    print_failures(&t.failures);
}

/// What was run, so a pasted result names its configuration.
fn print_header(plan: &Plan) {
    println!(
        "seed {}, scale {}, {} s per workload, nproc {}, children run with ADAPTBF_THREADS={} and no ADAPTBF_SHARDS",
        plan.seed,
        plan.scale,
        plan.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        TIMED_THREADS
    );
}

/// The contract's invocation: one workload, result JSON on the last line.
fn one_workload(workload: Workload, traced: bool, plan: &Plan) -> ExitCode {
    print_header(plan);
    let line = if traced {
        let t = harness::trace(workload, plan);
        print_per_layer(workload, &t);
        let rows: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .zip(&t.values)
            .map(|(m, v)| (m.name, m.unit, *v))
            .collect();
        result_json(t.correct(), t.attempted.max(1), t.failed, &rows)
    } else {
        let m = harness::measure(&[workload], plan).remove(0);
        print_end_to_end(&m);
        if m.reps.iter().any(|s| !s.nums.contains_key("request_ms")) {
            // A repetition died: there is no honest number to print.
            return ExitCode::FAILURE;
        }
        result_json(
            m.correct(),
            m.attempted().max(1),
            m.failed(),
            &harness::end_to_end_rows(&m),
        )
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// All workloads interleaved, then each workload's traced run.
fn everything(plan: &Plan) -> ExitCode {
    print_header(plan);
    let mut ok = true;
    for m in harness::measure(&WORKLOADS, plan) {
        print_end_to_end(&m);
        ok &= m.correct();
    }
    for workload in WORKLOADS {
        let t = harness::trace(workload, plan);
        print_per_layer(workload, &t);
        ok &= t.correct();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A: the same code measured twice. Prints each end-to-end metric's
/// relative change (positive = worse) beside its bound; past a bound the
/// benchmark cannot tell a regression of that size from its own noise.
fn a_a(plan: &Plan) -> ExitCode {
    print_header(plan);
    let first = harness::measure(&WORKLOADS, plan);
    let second = harness::measure(&WORKLOADS, plan);
    let mut ok = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        ok &= a.correct() && b.correct();
        print_failures(&a.failures);
        print_failures(&b.failures);
        for d in &END_TO_END {
            let (x, y) = (a.end_to_end(d.name), b.end_to_end(d.name));
            let worse = match d.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let past = worse > d.bound;
            ok &= !past;
            println!(
                "{:<12} {:<16} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%{}",
                a.workload.name(),
                d.name,
                worse * 100.0,
                d.bound * 100.0,
                if past { "  PAST BOUND" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
