//! # adaptbf-bench
//!
//! The harness that regenerates **every table and figure** of the paper's
//! evaluation (Section IV) and runs the chaos campaigns. Binaries under
//! `src/bin/` are thin callers into this library; CSV series land under
//! `results/`.
//!
//! | Binary | What it produces |
//! |---|---|
//! | `figs [--fig N]` | Figs. 3–9 — timelines, bars + gains, records & demand, frequency sweep (all of them without `--fig`) |
//! | `ablations` | design ablations of the allocation algorithm |
//! | `replay` | record once, replay under all three policies |
//! | `chaos` | seeded fault campaigns → `BENCH_chaos.json` + floors |
//!
//! Performance is measured elsewhere: the repository's one benchmark is
//! the standalone `benchmark/` package (see `benchmark/README.md`). That
//! includes §IV-G: its two bounds are asserted by
//! `tests/shape_frequency_and_overhead.rs` and
//! `tests/scalability_and_churn.rs`, and measured by the benchmark's
//! `core.step_us`, `core.step_ns_per_job`, `node.tick_us` and
//! `node.ctl_us_per_job` rows.
//!
//! Absolute numbers come from the simulated substrate (a calibrated model
//! of the paper's CloudLab testbed — see the "Reproduction scope" section
//! of the top-level README); the *shapes* — who wins, by what factor,
//! where crossovers sit — are the reproduction targets, asserted by the
//! integration tests in `tests/`.
//!
//! Comparison and sweep grids fan out over [`adaptbf_sim::RunGrid`]
//! worker threads; results are deterministic and identical to sequential
//! runs (see README "Hot paths & scaling").

pub mod chaos;

use adaptbf_model::{AdapTbfConfig, SimDuration};
use adaptbf_sim::report::frequency_csv;
use adaptbf_sim::{frequency_sweep, Comparison, FrequencyPoint, RunReport, Timeline};
use adaptbf_workload::{scenarios, Scenario};
use std::fs;
use std::path::{Path, PathBuf};

/// Default seed used by all figure binaries (override with `--seed N`).
pub const DEFAULT_SEED: u64 = 42;

/// Simple CLI options shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// RNG seed.
    pub seed: u64,
    /// Workload scale factor (1.0 = the paper's full-size runs).
    pub scale: f64,
}

impl Options {
    /// Parse `--seed N` and `--scale F` from argv (ignores anything else).
    pub fn from_args() -> Self {
        Options {
            seed: arg_value("--seed").unwrap_or(DEFAULT_SEED),
            scale: arg_value("--scale").unwrap_or(1.0),
        }
    }
}

/// The value following flag `name` on the command line, parsed — `None`
/// when the flag (or its value) is absent. Panics on an unparsable value.
pub fn arg_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let value = args.get(args.iter().position(|a| a == name)? + 1)?;
    let parsed = value.parse();
    Some(parsed.unwrap_or_else(|_| panic!("{name}: cannot parse {value:?}")))
}

/// The workspace root when run via cargo (else the working directory).
pub fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| Path::new(&d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Where `results/*.csv` land.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV artifact and echo its path.
pub fn write_artifact(name: &str, contents: &str) {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write artifact");
    println!("wrote {}", path.display());
}

/// One timeline family of a run as CSV.
fn csv(report: &RunReport, family: Timeline) -> String {
    let mut out = String::new();
    report.metrics.write_csv(family, &mut out);
    out
}

/// A figure built from one three-policy comparison.
pub struct ComparisonFig {
    /// The three policy reports.
    pub comparison: Comparison,
}

impl ComparisonFig {
    /// Run the given scenario under all three policies.
    pub fn run(scenario: Scenario, seed: u64) -> Self {
        let comparison = Comparison::run(&scenario, seed);
        ComparisonFig { comparison }
    }

    /// Dump the three throughput timelines (Figures 3/5 panels a-c).
    pub fn write_timelines(&self, prefix: &str) {
        for report in [
            &self.comparison.no_bw,
            &self.comparison.static_bw,
            &self.comparison.adaptbf,
        ] {
            write_artifact(
                &format!("{prefix}_{}_timeline.csv", report.policy),
                &csv(report, Timeline::Served),
            );
        }
        // AdapTBF's allocation gauge (the dashed "allocated" line of Fig 3c).
        write_artifact(
            &format!("{prefix}_adaptbf_allocations.csv"),
            &csv(&self.comparison.adaptbf, Timeline::Allocations),
        );
    }

    /// Dump the bars + gains (Figures 4/6/8) and return the printable table.
    pub fn write_summary(&self, prefix: &str) -> String {
        let rows = self.comparison.job_rows();
        let overall = self.comparison.overall_row();
        let mut csv = String::from("job,no_bw_tps,static_bw_tps,adaptbf_tps,gain_vs_nobw_pct\n");
        for row in rows.iter().chain(std::iter::once(&overall)) {
            let label = row.job.map_or_else(|| "overall".into(), |j| j.to_string());
            csv.push_str(&format!(
                "{label},{:.1},{:.1},{:.1},{:.2}\n",
                row.no_bw,
                row.static_bw,
                row.adaptbf,
                row.gain_vs_no_bw() * 100.0
            ));
        }
        write_artifact(&format!("{prefix}_summary.csv"), &csv);
        adaptbf_sim::report::comparison_table(&rows, overall)
    }
}

/// Figure 7's extra panels: per-job record and demand series from the
/// AdapTBF run.
pub fn write_fig7_series(fig: &ComparisonFig) {
    write_artifact(
        "fig7_records.csv",
        &csv(&fig.comparison.adaptbf, Timeline::Records),
    );
    write_artifact(
        "fig7_demand.csv",
        &csv(&fig.comparison.adaptbf, Timeline::Demand),
    );
}

/// The Figure 9 sweep periods (the paper sweeps 100 ms up to multiple
/// seconds).
pub fn fig9_periods() -> Vec<SimDuration> {
    [100u64, 200, 500, 1000, 2000, 5000]
        .map(SimDuration::from_millis)
        .to_vec()
}

/// Figure 9 driver: allocation-frequency sweep over the Section IV-F
/// workload.
pub fn fig9_sweep(opts: Options) -> Vec<FrequencyPoint> {
    let scenario = scenarios::token_recompensation_scaled(opts.scale);
    frequency_sweep(
        &scenario,
        opts.seed,
        AdapTbfConfig::default(),
        &fig9_periods(),
    )
}

/// Write + render the Figure 9 results.
pub fn write_fig9(points: &[FrequencyPoint]) -> String {
    write_artifact("fig9_frequency.csv", &frequency_csv(points));
    let mut out = String::from("period      throughput (RPC/s)\n");
    for p in points {
        out.push_str(&format!(
            "{:>8}    {:>10.1}\n",
            p.period.to_string(),
            p.throughput_tps
        ));
    }
    out
}
