//! The parent side: spawns one fresh child process per repetition with a
//! pinned environment, interleaves repetitions across workloads, checks
//! what must repeat exactly, and folds the samples into the metrics
//! `BENCHMARK.json` names.

use crate::inputs::{Workload, TIMED_THREADS};
use crate::live_run::OPEN_P90_LIMIT_MS;
use crate::metrics::{END_TO_END, PER_LAYER, SHARE_ERR_LIMIT};
use crate::sample::Sample;
use crate::stats::{self, median};
use crate::RepOpts;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// How much one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Measured request time per workload, seconds: repetitions are added
    /// until their request times sum to this.
    pub seconds: f64,
    pub scale: f64,
    /// Repetitions per workload at least (medians need a few).
    pub min_reps: usize,
    /// Repetitions per variant in the traced run.
    pub variant_reps: usize,
}

/// Run one child (`mode` is `rep` or `probe`): this same executable,
/// `--child`, environment pinned so
/// an ambient variable cannot change a number — `ADAPTBF_SHARDS` removed
/// (shard counts are set explicitly), `ADAPTBF_THREADS` set.
fn child(mode: &str, opts: &RepOpts, threads: usize) -> Sample {
    let exe = std::env::current_exe().expect("path of the running harness");
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(mode)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--scale", &format!("{:?}", opts.scale)])
        .env_remove("ADAPTBF_SHARDS")
        .env("ADAPTBF_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.traced {
        cmd.arg("--traced");
    }
    if let Some(n) = opts.shards {
        cmd.args(["--shards", &n.to_string()]);
    }
    if opts.no_bw {
        cmd.arg("--no-bw");
    }
    // `output` waits for the child and reaps it.
    let out = cmd.output().expect("spawn child process");
    let mut sample = Sample::from_lines(&String::from_utf8_lossy(&out.stdout));
    if !out.status.success() {
        sample.fail(format!(
            "{} child exited with {}",
            opts.workload.name(),
            out.status
        ));
    }
    sample
}

/// How the host-speed factor applies to a measured value.
#[derive(Debug, Clone, Copy)]
enum Scale {
    /// A CPU-bound duration: multiplied by the factor.
    Time,
    /// A CPU-bound rate: divided by it.
    Rate,
    /// Not CPU-bound: left as measured.
    None,
}

/// The repetitions of one workload and what the checks across them found.
#[derive(Debug)]
pub struct Measured {
    pub workload: Workload,
    pub reps: Vec<Sample>,
    pub failures: Vec<String>,
}

/// Every repetition's value of `name` (repetitions without one skipped).
fn column(reps: &[Sample], name: &str) -> Vec<f64> {
    reps.iter()
        .filter_map(|s| s.nums.get(name).copied())
        .collect()
}

impl Measured {
    fn column(&self, name: &str) -> Vec<f64> {
        column(&self.reps, name)
    }

    /// One end-to-end metric: the median over repetitions. Latency on a
    /// workload whose request is the whole repetition is read off the
    /// repetitions' request times; on `live_open` each repetition reports
    /// its own per-RPC percentiles and the median repetition is reported.
    ///
    /// CPU-bound times are in calibrated seconds (see
    /// [`crate::calibration`]): each repetition's value is scaled by the
    /// host-speed factor measured around it before the median is taken.
    /// Schedule-bound quantities stay raw — `live_open`'s delivered rate
    /// and per-RPC latencies (set by the send schedule, the OST loop's
    /// idle floor and the generator's poll), `live_sat`'s request time
    /// (its fixed horizon).
    pub fn end_to_end(&self, name: &str) -> f64 {
        let w = self.workload;
        let per_rpc = w == Workload::LiveOpen;
        let (source, scale) = match name {
            "setup_s" | "cpu_us_per_rpc" => (name, Scale::Time),
            "rpcs_per_s" if !per_rpc => (name, Scale::Rate),
            // Host-time utilisation moves with the host like the rate;
            // the simulator's is in simulated time.
            "utilization" if w == Workload::LiveSat => (name, Scale::Rate),
            "lat_p50_ms" | "lat_p90_ms" if w.is_sim() => ("request_ms", Scale::Time),
            "lat_p50_ms" | "lat_p90_ms" if !per_rpc => ("request_ms", Scale::None),
            _ => (name, Scale::None),
        };
        let mut v: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|s| {
                let speed = s.nums.get("host_speed").copied().unwrap_or(1.0);
                s.nums.get(source).map(|x| match scale {
                    Scale::Time => x * speed,
                    Scale::Rate => x / speed,
                    Scale::None => *x,
                })
            })
            .collect();
        if name == "lat_p90_ms" && !per_rpc {
            stats::sort(&mut v);
            stats::nearest_rank(&v, 90.0)
        } else {
            median(&v)
        }
    }

    pub fn attempted(&self) -> u64 {
        self.column("attempted").iter().sum::<f64>() as u64
    }

    pub fn failed(&self) -> u64 {
        self.column("failed").iter().sum::<f64>() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed() == 0
    }

    fn request_seconds(&self) -> f64 {
        self.column("request_ms").iter().sum::<f64>() / 1e3
    }

    /// `live_open` meets its latency limit; and counts that must repeat
    /// exactly for one input do — every repetition of a deterministic
    /// simulator run agrees with the first on them and on the report
    /// digest.
    fn check_across_reps(&mut self) {
        if self.workload == Workload::LiveOpen {
            let p90 = self.end_to_end("lat_p90_ms");
            if p90 > OPEN_P90_LIMIT_MS {
                self.failures.push(format!(
                    "live_open: p90 {p90:.3} ms is past the {OPEN_P90_LIMIT_MS} ms limit"
                ));
            }
        }
        if !self.workload.is_sim() {
            return;
        }
        let exact = PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .chain(["served"]);
        for name in exact {
            let col = self.column(name);
            if col.windows(2).any(|w| w[0] != w[1]) {
                self.failures.push(format!(
                    "{}: `{name}` differs across repetitions: {col:?}",
                    self.workload.name()
                ));
            }
        }
        let digests: Vec<&String> = self
            .reps
            .iter()
            .filter_map(|s| s.texts.get("digest"))
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            self.failures.push(format!(
                "{}: report digest differs across repetitions",
                self.workload.name()
            ));
        }
    }
}

fn rep_opts(workload: Workload, plan: &Plan) -> RepOpts {
    RepOpts {
        workload,
        seed: plan.seed,
        scale: plan.scale,
        traced: false,
        shards: None,
        no_bw: false,
    }
}

/// End-to-end measurement, tracing off: round-robin one repetition per
/// workload until each has its seconds and its minimum count.
pub fn measure(workloads: &[Workload], plan: &Plan) -> Vec<Measured> {
    let mut all: Vec<Measured> = workloads
        .iter()
        .map(|&workload| Measured {
            workload,
            reps: Vec::new(),
            failures: Vec::new(),
        })
        .collect();
    // The sharded run must report exactly what one untimed single-shard
    // run of the same input reports.
    let mut reference = BTreeMap::new();
    for m in all.iter().filter(|m| m.workload.shards() > 1) {
        let one = child(
            "rep",
            &RepOpts {
                shards: Some(1),
                ..rep_opts(m.workload, plan)
            },
            TIMED_THREADS,
        );
        reference.insert(m.workload.name(), one.texts.get("digest").cloned());
    }
    loop {
        let mut ran = false;
        for m in &mut all {
            if m.reps.len() >= plan.min_reps && m.request_seconds() >= plan.seconds {
                continue;
            }
            ran = true;
            let s = child("rep", &rep_opts(m.workload, plan), TIMED_THREADS);
            m.failures.extend(s.failures.iter().cloned());
            if let Some(want) = reference.get(m.workload.name()) {
                if s.texts.get("digest") != want.as_ref() {
                    m.failures.push(format!(
                        "{}: {}-shard report digest differs from the 1-shard run's",
                        m.workload.name(),
                        m.workload.shards()
                    ));
                }
            }
            // A child that died reports no request time; stop rather than
            // respawn it forever.
            let dead = !s.nums.contains_key("request_ms");
            m.reps.push(s);
            if dead {
                return all;
            }
        }
        if !ran {
            break;
        }
    }
    for m in &mut all {
        m.check_across_reps();
    }
    all
}

/// The variants the traced run compares; one child each, `variant_reps`
/// times, interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Variant {
    /// The workload as timed, spans recorded.
    Traced,
    /// The workload as timed.
    Plain,
    Shards1,
    Shards4,
    /// Four shards on two pooled workers.
    Threads2,
    NoBw,
}

impl Variant {
    /// The child's options and its `ADAPTBF_THREADS`.
    fn opts(self, workload: Workload, plan: &Plan) -> (RepOpts, usize) {
        let (traced, shards, no_bw, threads) = match self {
            Variant::Traced => (true, None, false, TIMED_THREADS),
            Variant::Plain => (false, None, false, TIMED_THREADS),
            Variant::Shards1 => (false, Some(1), false, TIMED_THREADS),
            Variant::Shards4 => (false, Some(4), false, TIMED_THREADS),
            Variant::Threads2 => (false, Some(4), false, 2),
            Variant::NoBw => (false, None, true, TIMED_THREADS),
        };
        let opts = RepOpts {
            traced,
            shards,
            no_bw,
            ..rep_opts(workload, plan)
        };
        (opts, threads)
    }
}

/// What the traced run of one workload found.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics, in `PER_LAYER` order.
    pub values: Vec<f64>,
    /// The reasons any check failed.
    pub failures: Vec<String>,
    /// RPCs attempted and failed over the traced and the plain variant.
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// The traced run: the workload with spans recorded, the variants it is
/// compared with, and the probes.
pub fn trace(workload: Workload, plan: &Plan) -> Traced {
    let variants: &[Variant] = if workload.is_sim() {
        &[
            Variant::Traced,
            Variant::Plain,
            Variant::Shards1,
            Variant::Shards4,
            Variant::Threads2,
            Variant::NoBw,
        ]
    } else {
        &[Variant::Traced, Variant::Plain]
    };
    let mut runs: BTreeMap<Variant, Vec<Sample>> = BTreeMap::new();
    let mut failures = Vec::new();
    for _ in 0..plan.variant_reps {
        for &v in variants {
            let (opts, threads) = v.opts(workload, plan);
            let s = child("rep", &opts, threads);
            failures.extend(s.failures.iter().cloned());
            runs.entry(v).or_default().push(s);
        }
    }
    let probe = child("probe", &rep_opts(workload, plan), TIMED_THREADS);
    failures.extend(probe.failures.iter().cloned());

    let med = |v: Variant, name: &str| -> f64 {
        let col = runs
            .get(&v)
            .map_or_else(Vec::new, |reps| column(reps, name));
        if col.is_empty() {
            0.0
        } else {
            median(&col)
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let plain = |name: &str| med(Variant::Plain, name);

    let mut out = BTreeMap::new();
    // Whatever the timed repetitions report by name, else the traced
    // ones (what only a traced run can observe), else the probes; a layer
    // the workload does not execute reads 0.
    let reported = |v: Variant, name: &str| runs[&v].iter().all(|s| s.nums.contains_key(name));
    for m in &PER_LAYER {
        let v = if reported(Variant::Plain, m.name) {
            plain(m.name)
        } else if reported(Variant::Traced, m.name) {
            med(Variant::Traced, m.name)
        } else {
            probe.nums.get(m.name).copied().unwrap_or(0.0)
        };
        out.insert(m.name, v);
    }
    // …and what is derived from several of them.
    let rates = column(&runs[&Variant::Plain], "rpcs_per_s");
    if !rates.is_empty() {
        let (lo, hi) = rates
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), r| (lo.min(*r), hi.max(*r)));
        out.insert("harness.rep_spread", ratio(hi - lo, median(&rates)));
    }
    out.insert("harness.reps", rates.len() as f64);
    out.insert("harness.host_speed", plain("host_speed"));
    out.insert("harness.raw_rpcs_per_s", plain("rpcs_per_s"));
    out.insert(
        "harness.trace_overhead",
        ratio(
            med(Variant::Traced, "cpu_us_per_rpc"),
            plain("cpu_us_per_rpc"),
        ),
    );
    if workload.is_sim() {
        let wall = plain("wall_s");
        out.insert("sim.run_wall_s", wall);
        out.insert(
            "sim.events_per_rpc",
            ratio(plain("sim.events"), plain("served")),
        );
        out.insert("sim.ns_per_event", ratio(wall * 1e9, plain("sim.events")));
        let (w1, w4) = (
            med(Variant::Shards1, "wall_s"),
            med(Variant::Shards4, "wall_s"),
        );
        out.insert("sim.cluster.shard_tax", ratio(w4, w1));
        out.insert(
            "sim.cluster.ns_per_epoch",
            ratio((w4 - w1) * 1e9, med(Variant::Shards4, "sim.cluster.epochs")),
        );
        out.insert(
            "sim.pool.t2_ratio",
            ratio(med(Variant::Threads2, "wall_s"), w4),
        );
        out.insert("node.ctl_share", ratio(plain("node.ctl_ns"), wall * 1e9));
        out.insert(
            "node.ctl_us_per_job",
            ratio(plain("node.ctl_ns") / 1e3, plain("node.ctl_jobs")),
        );
        out.insert("node.ctl_tax", ratio(wall, med(Variant::NoBw, "wall_s")));
    }
    if out["runtime.share_err_vs_sim"] > SHARE_ERR_LIMIT {
        failures.push(format!(
            "{}: live and simulated served shares differ by {:.4} (limit {SHARE_ERR_LIMIT})",
            workload.name(),
            out["runtime.share_err_vs_sim"]
        ));
    }
    let total = |name: &str| -> u64 {
        [Variant::Traced, Variant::Plain]
            .iter()
            .flat_map(|v| &runs[v])
            .filter_map(|s| s.nums.get(name))
            .sum::<f64>() as u64
    };
    Traced {
        values: PER_LAYER.iter().map(|m| out[m.name]).collect(),
        failures,
        attempted: total("attempted"),
        failed: total("failed"),
    }
}

/// `name unit value` rows of one workload's end-to-end metrics.
pub fn end_to_end_rows(m: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit, m.end_to_end(d.name)))
        .collect()
}
