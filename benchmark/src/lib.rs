//! The repository's benchmark: five workloads over both executors
//! (`adaptbf-sim`, `adaptbf-runtime`), end-to-end metrics measured with
//! tracing off, and per-layer probes measured in a separate traced run.
//! See `README.md` beside this package for the metric tables.

pub mod calibration;
pub mod harness;
pub mod inputs;
pub mod live_run;
pub mod metrics;
pub mod openloop;
pub mod probes;
pub mod procfs;
pub mod sample;
pub mod sim_run;
pub mod spans;
pub mod stats;

use inputs::Workload;

/// What one repetition (one child process) is asked to run.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    pub workload: Workload,
    pub seed: u64,
    /// 1.0 = the measured size; `--smoke` runs about a tenth.
    pub scale: f64,
    /// Record spans and write `out/trace-<workload>.json`.
    pub traced: bool,
    /// Shard count override (the traced run's 1-shard / 4-shard pair);
    /// `None` = the workload's own.
    pub shards: Option<usize>,
    /// Run under No BW instead of the file's policy (`node.ctl_tax`).
    pub no_bw: bool,
}
