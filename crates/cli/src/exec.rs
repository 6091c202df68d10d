//! The one place that knows there are two executors.
//!
//! Every front end — the `adaptbf` commands, the chaos lab, the replay
//! grid — resolves its input to a [`FileRun`] and hands it to
//! [`execute`]; what comes back is the same [`RunReport`] either way, so
//! everything downstream (tables, scorecards, floors) is written once.

use crate::CliError;
use adaptbf_runtime::{LiveCluster, LiveTuning};
use adaptbf_sim::{Cluster, FileRun, RunGrid, RunReport};
use adaptbf_workload::trace::Trace;
use std::time::Duration;

/// Where a plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The deterministic simulator. `shards` shards its event loop
    /// (`None` keeps the `ADAPTBF_SHARDS` default) — an execution
    /// parameter only, results are byte-identical at every count.
    Sim {
        /// Event-loop shard count.
        shards: Option<usize>,
    },
    /// The live threaded runtime: real OS threads per OST and client
    /// process against the wall clock (a run takes the scenario's
    /// duration in real time).
    Live,
}

impl Executor {
    /// The grid a batch of independent runs fans out over. Simulated runs
    /// are pure functions of their plan, so they spread over the
    /// [`RunGrid`] workers; a live run already owns the machine's threads
    /// (clients, OST I/O pools, controllers), so overlapping several would
    /// contend for cores and distort every one — they go one at a time.
    pub fn grid(self) -> RunGrid {
        match self {
            Executor::Sim { .. } => RunGrid::new(),
            Executor::Live => RunGrid::with_threads(1),
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Ran {
    /// The report — the same shape from both executors.
    pub report: RunReport,
    /// The client-originated arrivals, when recording was asked for. Both
    /// executors emit the same versioned format, so either replays in the
    /// simulator.
    pub trace: Option<Trace>,
    /// Wall-clock time of a live run (`None` from the simulator, whose
    /// reports carry no wall-clock data).
    pub elapsed: Option<Duration>,
}

/// Run `plan` on `exec`, capturing the RPC trace when `record` is set.
pub fn execute(plan: &FileRun, exec: Executor, record: bool) -> Result<Ran, CliError> {
    let FileRun {
        scenario,
        policy,
        cluster,
        seed,
        ..
    } = plan;
    match exec {
        Executor::Sim { shards } => {
            let mut sim = Cluster::build_with(scenario, *policy, *seed, *cluster);
            if let Some(n) = shards {
                sim = sim.shards(n);
            }
            let (out, trace) = if record {
                let (out, trace) = sim.run_traced();
                (out, Some(trace))
            } else {
                (sim.run(), None)
            };
            let report = out.into_report(scenario.name.clone(), *policy, &scenario.job_ids());
            Ok(Ran {
                report,
                trace,
                elapsed: None,
            })
        }
        Executor::Live => {
            let tuning = live_tuning(plan);
            let faults = &cluster.faults;
            let (live, trace) = if record {
                LiveCluster::record_with_faults(scenario, *policy, tuning, faults, *seed)
                    .map(|(live, trace)| (live, Some(trace)))
            } else {
                LiveCluster::run_with_faults(scenario, *policy, tuning, faults, *seed)
                    .map(|live| (live, None))
            }
            .map_err(|e| CliError::Run(e.to_string()))?;
            Ok(Ran {
                report: live.report,
                trace,
                elapsed: Some(live.elapsed),
            })
        }
    }
}

/// The live-testbed analogue of a plan's simulated wiring: same OST model,
/// TBF knobs and topology, with small payloads so emulated RPCs move real
/// bytes without shoveling 1 MiB each through memory — *the*
/// `ClusterConfig` → `LiveTuning` mapping, so live-vs-sim comparisons
/// cannot silently run on different hardware — with the scenario file's
/// `tuning` block applied on top. `service_quantum_us` pins the emulated
/// disk's mean per-RPC service time by re-deriving the device bandwidth
/// (`quantum = rpc_size / (B/k)`, solved for `B`), so the file controls
/// wall-clock service pacing without exposing raw bandwidth numbers.
fn live_tuning(plan: &FileRun) -> LiveTuning {
    let cluster = &plan.cluster;
    let mut ost = cluster.ost;
    if let Some(us) = plan.tuning.service_quantum_us {
        let quantum_secs = us as f64 / 1e6;
        ost.disk_bw_bytes_per_s =
            (ost.rpc_size as f64 * ost.n_io_threads as f64 / quantum_secs) as u64;
    }
    LiveTuning {
        ost,
        tbf: cluster.tbf,
        n_osts: cluster.n_osts,
        n_clients: cluster.n_clients,
        stripe_count: cluster.stripe_count,
        static_rate_total: cluster.static_rate_total,
        bucket: cluster.bucket,
        payload_bytes: plan.tuning.payload_bytes.map_or(4096, |b| b as usize),
        max_batch: plan.tuning.send_batch.map_or(256, |b| b as usize),
        pin_threads: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_sim::cluster::ClusterConfig;
    use adaptbf_sim::{plan_file_run, report_digest, Experiment};
    use adaptbf_workload::{scenarios, TuningSpec};

    /// The seam adds nothing: for every built-in, `execute` on the
    /// simulator yields the report `Experiment` yields on the same plan,
    /// and recording yields the trace `Cluster::run_traced` yields.
    #[test]
    fn sim_execute_is_experiment_and_run_traced() {
        for &(name, build) in scenarios::BUILTINS {
            let plan = plan_file_run(&build(1.0 / 32.0)).unwrap_or_else(|e| panic!("{name}: {e}"));
            let want = Experiment::new(plan.scenario.clone(), plan.policy)
                .seed(plan.seed)
                .cluster_config(plan.cluster)
                .run();
            let sim = Executor::Sim { shards: None };
            let ran = execute(&plan, sim, false).unwrap();
            assert_eq!(report_digest(&ran.report), report_digest(&want), "{name}");
            assert!(ran.trace.is_none() && ran.elapsed.is_none(), "{name}");

            let (_, trace) =
                Cluster::build_with(&plan.scenario, plan.policy, plan.seed, plan.cluster)
                    .run_traced();
            let recorded = execute(&plan, sim, true).unwrap();
            assert_eq!(
                report_digest(&recorded.report),
                report_digest(&want),
                "{name}"
            );
            assert_eq!(recorded.trace.unwrap().to_text(), trace.to_text(), "{name}");
        }
    }

    #[test]
    fn live_tuning_applies_the_scenario_tuning_block() {
        let file = scenarios::BUILTINS[0].1(1.0 / 64.0);
        let mut plan = plan_file_run(&file).unwrap();
        // An empty block keeps the simulated wiring and the defaults.
        let base = live_tuning(&plan);
        assert_eq!(base.ost, ClusterConfig::default().ost);
        assert_eq!((base.payload_bytes, base.max_batch), (4096, 256));
        plan.tuning = TuningSpec {
            payload_bytes: Some(8192),
            service_quantum_us: Some(2000),
            send_batch: Some(32),
        };
        let t = live_tuning(&plan);
        assert_eq!(t.payload_bytes, 8192);
        assert_eq!(t.max_batch, 32);
        // A 2 ms quantum: the derived bandwidth must put the mean per-RPC
        // service time at exactly the requested quantum.
        assert!((t.ost.mean_service_secs() - 0.002).abs() < 1e-6);
    }
}
