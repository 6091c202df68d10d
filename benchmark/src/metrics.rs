//! Every metric the benchmark prints: name, unit, direction, and — for the
//! end-to-end ones — the share of the parent's median by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` repeats
//! these tables; `tests/contract.rs` fails when the two drift.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Measured with tracing off; median over the run's repetitions. CPU-bound
/// times are in calibrated seconds (see [`crate::calibration`]).
pub const END_TO_END: [EndToEnd; 8] = [
    // Input text to a runnable system: parse + plan + build (simulator),
    // parse + plan + spawn to the first token round trip (live). The
    // largest bound: sub-millisecond on four workloads, and what must not
    // slip through is work moved out of the run into set-up.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Served RPCs per host wall second of the timed run.
    EndToEnd {
        name: "rpcs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Process user+system CPU over the timed run per served RPC.
    EndToEnd {
        name: "cpu_us_per_rpc",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // `VmHWM` of the repetition's process at exit.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    // `live_open`: due time to completion token, per RPC. Elsewhere the
    // request is the whole repetition: input text in to scored report out.
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    // `analysis::priority_fairness` of the run's report. Deterministic
    // for one seed on the simulator; the bound covers what dealing the
    // priorities to other jobs moves it by (measured up to 6.3 % across seeds).
    EndToEnd {
        name: "fairness",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
    },
    // `RunReport::utilization` against the workload's token ceiling. On
    // `live_sat` it is the host-bound rate over a constant, and that
    // workload's run-to-run spread (8–16 %) sets this bound, the rate's
    // and the CPU cost's.
    EndToEnd {
        name: "utilization",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly for one input: asserted identical
    /// across the repetitions of a run.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

/// Measured in the traced run and its probes; unbounded and raw (not
/// calibrated). A metric reads 0 on a workload that does not execute its
/// layer.
pub const PER_LAYER: [PerLayer; 55] = [
    timing("workload.parse_ms", "ms"),
    PerLayer {
        name: "workload.parse_mib_per_s",
        unit: "MiB/s",
        better: Better::Higher,
        exact: false,
    },
    timing("workload.plan_ms", "ms"),
    PerLayer {
        name: "workload.trace_parse_mib_per_s",
        unit: "MiB/s",
        better: Better::Higher,
        exact: false,
    },
    timing("sim.build_ms", "ms"),
    timing("sim.run_wall_s", "s"),
    count("sim.events"),
    timing("sim.events_per_rpc", "ratio"),
    timing("sim.ns_per_event", "ns"),
    count("sim.coalesced"),
    count("sim.peak_queue_depth"),
    timing("sim.engine.hold_ns", "ns"),
    count("sim.cluster.epochs"),
    count("sim.cluster.solo_drains"),
    count("sim.cluster.inbox_flushes"),
    timing("sim.cluster.shard_tax", "ratio"),
    timing("sim.cluster.ns_per_epoch", "ns"),
    timing("sim.pool.t2_ratio", "ratio"),
    timing("tbf.enqueue_ns", "ns"),
    timing("tbf.next_ns", "ns"),
    timing("tbf.wait_share", "ratio"),
    timing("tbf.apply_updates_us", "us"),
    count("tbf.rules"),
    timing("core.step_us", "us"),
    timing("core.step_ns_per_job", "ns"),
    timing("node.tick_us", "us"),
    timing("node.tick_self_us", "us"),
    count("node.ctl_ticks"),
    timing("node.ctl_share", "ratio"),
    timing("node.ctl_us_per_job", "us"),
    timing("node.ctl_tax", "ratio"),
    timing("node.metrics.record_ns", "ns"),
    timing("node.metrics.fold_ms", "ms"),
    timing("node.report_ms", "ms"),
    timing("analysis.score_ms", "ms"),
    timing("runtime.spawn_ms", "ms"),
    timing("runtime.send_block_ms", "ms"),
    timing("runtime.ost_cpu_us_per_rpc", "us"),
    PerLayer {
        name: "runtime.batch_rpcs_mean",
        unit: "count",
        better: Better::Higher,
        exact: false,
    },
    PerLayer {
        name: "runtime.tokens_per_msg",
        unit: "count",
        better: Better::Higher,
        exact: false,
    },
    timing("runtime.ticks", "count"),
    timing("runtime.ctl_us_per_tick", "us"),
    timing("runtime.fold_ms", "ms"),
    timing("runtime.drain_ms", "ms"),
    timing("runtime.backlog_end", "count"),
    timing("runtime.lat_p99_ms", "ms"),
    timing("runtime.lat_p999_ms", "ms"),
    timing("runtime.gen_lag_p99_ms", "ms"),
    timing("runtime.gen_lag_max_ms", "ms"),
    timing("runtime.share_err_vs_sim", "ratio"),
    timing("harness.trace_overhead", "ratio"),
    timing("harness.rep_spread", "ratio"),
    timing("harness.reps", "count"),
    PerLayer {
        name: "harness.host_speed",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
    },
    PerLayer {
        name: "harness.raw_rpcs_per_s",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
];

/// Bound on `runtime.share_err_vs_sim` (absolute): past it the two
/// executors disagree on who was served and the run is incorrect.
pub const SHARE_ERR_LIMIT: f64 = 0.02;

/// One result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Values keep every digit
/// measured (`{:?}` is the shortest text that reads back the same `f64`).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(
                value.is_finite(),
                "metric {name} is not a finite number: {value}"
            );
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
