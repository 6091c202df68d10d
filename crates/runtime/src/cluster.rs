//! Orchestration: scenario → OST threads + client threads → the common
//! [`RunReport`].
//!
//! [`LiveCluster`] speaks the same data surface as the simulator: it takes
//! a [`Scenario`] and the shared [`Policy`] (there is no live-only policy
//! mirror), runs the **full** [`FaultPlan`] battery on real threads —
//! time-indexed faults against the wall clock, cycle-indexed faults
//! against per-OST deterministic cycle counters, crash windows through the
//! same crash-epoch/resend machinery the simulator audits — and folds its
//! counters into the *same* slot-indexed report shape the simulator emits,
//! so the analysis layer and the CLI tables run unchanged on live output.
//! [`LiveCluster::record_with_faults`] additionally captures the run's
//! client-originated arrivals into the versioned `Trace` format, so a live
//! (faulty) run replays in the simulator.

use crate::client::{spawn_process, ProcFinal};
use crate::clock::WallClock;
use crate::metrics::LiveMetrics;
use crate::ost::{LiveBatch, LiveOst, OstFinal, OstWiring};
use adaptbf_model::{ClientId, JobId, OstConfig, ProcId, SimDuration, TbfSchedulerConfig};
use adaptbf_node::{FaultStats, OstNode, Policy, RunReport};
use adaptbf_workload::faults::{
    base_ost, client_of, stripe_ost, validate_wiring, FaultPlan, WiringError,
};
use adaptbf_workload::trace::{Trace, TraceMeta};
use adaptbf_workload::Scenario;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::BTreeMap;

/// Hardware tuning of the live testbed (the wall-clock analogue of the
/// simulator's `ClusterConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveTuning {
    /// OST model (threads, bandwidth, jitter).
    pub ost: OstConfig,
    /// TBF bucket depth.
    pub tbf: TbfSchedulerConfig,
    /// OSTs in the cluster (one independent controller each).
    pub n_osts: usize,
    /// Client nodes processes are spread over.
    pub n_clients: usize,
    /// Each process's sequential RPCs round-robin over this many OSTs
    /// (1 = file-per-OST, the default), exactly like the simulator.
    pub stripe_count: usize,
    /// `T_i` the Static BW baseline's fixed rule rates sum to.
    pub static_rate_total: f64,
    /// Metrics bucket width for the report timelines.
    pub bucket: SimDuration,
    /// Payload bytes per RPC (kept small so tests move real bytes without
    /// burning memory bandwidth).
    pub payload_bytes: usize,
    /// Largest RPC batch a client puts in one channel message (1 = the
    /// legacy one-message-per-RPC data path). Batching amortizes channel
    /// synchronization over `max_batch` RPCs; windows, striping, and
    /// per-RPC accounting are unchanged.
    pub max_batch: usize,
    /// Read by nothing. It stays only because the frozen
    /// `benchmark/src/live_run.rs` names it in a struct literal; it goes
    /// with the next benchmark revision (ROADMAP item 2(e)).
    pub pin_threads: bool,
}

impl LiveTuning {
    /// A fast test preset: ~4000 RPC/s of capacity from 8 emulated I/O
    /// threads at ~2 ms per RPC, with 4 KiB payloads and a 2000 tokens/s
    /// static ceiling.
    pub fn fast_test() -> Self {
        LiveTuning {
            ost: OstConfig {
                n_io_threads: 8,
                disk_bw_bytes_per_s: 4000 * 4096,
                service_jitter: 0.05,
                rpc_size: 4096,
            },
            tbf: TbfSchedulerConfig::default(),
            n_osts: 1,
            n_clients: 4,
            stripe_count: 1,
            static_rate_total: 2000.0,
            bucket: SimDuration::from_millis(100),
            payload_bytes: 4096,
            max_batch: 64,
            pin_threads: false,
        }
    }
}

/// Why a live run could not start: the wiring or the fault plan failed
/// the validation both executors share ([`validate_wiring`]).
pub type LiveError = WiringError;

/// Outcome of a live run: the common report plus live-only extras.
#[derive(Debug)]
pub struct LiveReport {
    /// The same slot-indexed report shape the simulator emits — feed it
    /// to `adaptbf-analysis` or the CLI tables unchanged.
    pub report: RunReport,
    /// Issued RPCs per job (client side; the live analogue of released
    /// work actually put on the wire).
    pub issued: BTreeMap<JobId, u64>,
    /// Final lending/borrowing records per job per OST.
    pub records_per_ost: Vec<BTreeMap<JobId, i64>>,
    /// Controller cycles executed per OST.
    pub ticks_per_ost: Vec<u64>,
    /// RPCs served per OST (each OST thread's own count — sums to the
    /// folded report's served total; the accounting-parity oracle).
    pub served_per_ost: Vec<u64>,
    /// Per-process issue/complete counters.
    pub procs: Vec<ProcFinal>,
    /// Wall-clock the run took.
    pub elapsed: std::time::Duration,
}

impl LiveReport {
    /// Total RPCs served.
    pub fn total_served(&self) -> u64 {
        self.report.metrics.total_served()
    }

    /// Served RPCs per job (across OSTs).
    pub fn served(&self) -> BTreeMap<JobId, u64> {
        self.report.metrics.served_by_job()
    }

    /// Served share of one job relative to the total.
    pub fn served_share(&self, job: JobId) -> f64 {
        self.report.served_share(job)
    }
}

/// A live, multi-threaded AdapTBF deployment.
pub struct LiveCluster;

impl LiveCluster {
    /// Run `scenario` under `policy` with the given tuning and no faults.
    /// Blocks for the scenario's (wall-clock) duration.
    pub fn run(scenario: &Scenario, policy: Policy, tuning: LiveTuning, seed: u64) -> LiveReport {
        Self::run_with_faults(scenario, policy, tuning, &FaultPlan::none(), seed)
            .expect("a fault-free plan is always live-feasible")
    }

    /// [`LiveCluster::run`] with a fault plan (any [`FaultPlan`] that
    /// passes validation and addresses OSTs inside the wiring).
    pub fn run_with_faults(
        scenario: &Scenario,
        policy: Policy,
        tuning: LiveTuning,
        faults: &FaultPlan,
        seed: u64,
    ) -> Result<LiveReport, LiveError> {
        Self::run_inner(scenario, policy, tuning, faults, seed, false).map(|(report, _)| report)
    }

    /// [`LiveCluster::run_with_faults`] with the arrival recorder armed:
    /// returns the run's report *and* its client-originated arrivals as a
    /// versioned [`Trace`] — recorded with the addressed OST before any
    /// crash re-routing, exactly like the simulator's recorder — so the
    /// live run replays in the simulator (`Cluster::build_replay`).
    pub fn record_with_faults(
        scenario: &Scenario,
        policy: Policy,
        tuning: LiveTuning,
        faults: &FaultPlan,
        seed: u64,
    ) -> Result<(LiveReport, Trace), LiveError> {
        Self::run_inner(scenario, policy, tuning, faults, seed, true)
            .map(|(report, trace)| (report, trace.expect("recording run yields a trace")))
    }

    fn run_inner(
        scenario: &Scenario,
        policy: Policy,
        tuning: LiveTuning,
        faults: &FaultPlan,
        seed: u64,
        record: bool,
    ) -> Result<(LiveReport, Option<Trace>), LiveError> {
        validate_wiring(tuning.n_clients, tuning.n_osts, tuning.stripe_count, faults)?;

        let clock = WallClock::start();
        // One issued-counter slot per client process, keyed back to its
        // job at fold time (scenario declaration order = spawn order).
        let proc_jobs: Vec<JobId> = scenario
            .jobs
            .iter()
            .flat_map(|job| job.processes.iter().map(move |_| job.id))
            .collect();
        let metrics = if record {
            LiveMetrics::recording(tuning.bucket, tuning.n_osts, proc_jobs)
        } else {
            LiveMetrics::new(tuning.bucket, tuning.n_osts, proc_jobs)
        };
        let horizon = adaptbf_model::SimTime::ZERO + scenario.duration;
        let started = std::time::Instant::now();

        // Released-work accounting: the same denominator the simulator's
        // builder uses, so completion detection cannot drift between
        // executors.
        for (job, released) in scenario.released_by_job() {
            metrics.set_released(job, released);
        }

        // All ingest channels exist before any thread starts, so the OST a
        // crash window targets can hand displaced work to its peers.
        let mut txs: Vec<Sender<LiveBatch>> = Vec::with_capacity(tuning.n_osts);
        let mut rxs: Vec<Receiver<LiveBatch>> = Vec::with_capacity(tuning.n_osts);
        for _ in 0..tuning.n_osts {
            let (tx, rx) = bounded::<LiveBatch>(4096);
            txs.push(tx);
            rxs.push(rx);
        }
        let payload = Bytes::from(vec![0xABu8; tuning.payload_bytes]);

        // One independent OST thread each, wrapping the shared per-OST
        // control-plane assembly — no state is shared between OSTs (the
        // crashed OST's peer senders carry displaced work, never state).
        let jobs = scenario.job_weights();
        let osts: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let node = OstNode::new(
                    policy,
                    tuning.tbf,
                    &jobs,
                    tuning.static_rate_total,
                    adaptbf_model::SimTime::ZERO,
                );
                // Only the OST a crash targets ever forwards; everyone
                // else keeps no peer senders, so fault-free shutdown
                // ordering is unchanged.
                let peers: Vec<Option<Sender<LiveBatch>>> =
                    if faults.ost_crash.is_some_and(|c| c.ost == i) {
                        (0..tuning.n_osts)
                            .map(|j| (j != i).then(|| txs[j].clone()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                LiveOst::spawn(
                    format!("ost{i}"),
                    txs[i].clone(),
                    rx,
                    tuning.ost,
                    node,
                    *faults,
                    OstWiring {
                        index: i,
                        n_osts: tuning.n_osts,
                        stripe_count: tuning.stripe_count,
                    },
                    peers,
                    horizon,
                    clock,
                    metrics.ost_shard(i),
                    seed ^ (0xA5 + i as u64),
                    payload.clone(),
                )
            })
            .collect();
        drop(txs); // handles + clients now own the only ingest senders

        // Client process threads, placed over clients and OSTs by the
        // same `client_of`/`base_ost`/`stripe_ost` rule as the simulator.
        let mut handles = Vec::new();
        let mut proc_idx = 0usize;
        for job in &scenario.jobs {
            for spec in &job.processes {
                let base = base_ost(proc_idx, tuning.n_osts);
                let ost_txs: Vec<_> = (0..tuning.stripe_count)
                    .map(|k| osts[stripe_ost(base, k, tuning.n_osts)].sender())
                    .collect();
                handles.push(spawn_process(
                    job.id,
                    ProcId(proc_idx as u32),
                    ClientId(client_of(proc_idx, tuning.n_clients) as u32),
                    spec.clone(),
                    horizon,
                    ost_txs,
                    *faults,
                    clock,
                    payload.clone(),
                    metrics.client_slot(proc_idx),
                    tuning.max_batch,
                ));
                proc_idx += 1;
            }
        }

        let procs: Vec<ProcFinal> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let issued = metrics.issued();
        let finals: Vec<OstFinal> = osts.into_iter().map(|o| o.shutdown()).collect();

        // The audited partition: each displaced RPC is counted on exactly
        // one path by exactly one OST thread; the fold is a plain sum.
        let mut fault_stats = FaultStats::default();
        let mut shards = Vec::with_capacity(finals.len());
        let mut records_per_ost = Vec::with_capacity(finals.len());
        let mut ticks_per_ost = Vec::with_capacity(finals.len());
        let mut served_per_ost = Vec::with_capacity(finals.len());
        let mut overheads = Vec::new();
        for f in finals {
            fault_stats.absorb(&f.fault_stats);
            records_per_ost.push(f.records);
            ticks_per_ost.push(f.ticks);
            served_per_ost.push(f.served);
            if let Some(o) = f.overhead {
                overheads.push(o);
            }
            shards.push(f.shard);
        }

        // The join-time fold: per-OST shards into the one collector the
        // common report shape expects, plus the recorder's arrivals.
        let (folded, trace_records) = metrics.fold(shards, horizon);

        let (policy_name, period_ms) = policy.trace_header();
        let trace = record.then(|| Trace {
            meta: TraceMeta {
                scenario: scenario.name.clone(),
                seed,
                policy: policy_name,
                period_ms,
                duration: scenario.duration,
                n_clients: tuning.n_clients,
                n_osts: tuning.n_osts,
                stripe_count: tuning.stripe_count,
                faults: *faults,
                recorded_by: Some("live".into()),
                jobs,
            },
            records: trace_records,
        });

        let report = RunReport::from_run(
            scenario.name.clone(),
            policy.name(),
            scenario.duration,
            folded,
            &scenario.job_ids(),
            overheads,
            fault_stats,
        );
        Ok((
            LiveReport {
                report,
                issued,
                records_per_ost,
                ticks_per_ost,
                served_per_ost,
                procs,
                elapsed: started.elapsed(),
            },
            trace,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{AdapTbfConfig, RpcId, SimDuration, SimTime};
    use adaptbf_workload::faults::{ChurnSpec, CrashSpec, DegradeSpec, StallSpec};
    use adaptbf_workload::{JobSpec, ProcessSpec};

    fn small_scenario(ms: u64) -> Scenario {
        Scenario::new(
            "live-smoke",
            "",
            vec![
                JobSpec::uniform(JobId(1), 1, 2, ProcessSpec::continuous(10_000)),
                JobSpec::uniform(JobId(2), 3, 2, ProcessSpec::continuous(10_000)),
            ],
            SimDuration::from_millis(ms),
        )
    }

    fn fast_adaptbf() -> AdapTbfConfig {
        AdapTbfConfig {
            period: SimDuration::from_millis(25),
            max_token_rate: 2000.0,
            ..adaptbf_model::config::paper::adaptbf()
        }
    }

    fn mid_crash(ms: u64) -> FaultPlan {
        FaultPlan {
            ost_crash: Some(CrashSpec {
                ost: 0,
                from: SimTime::from_millis(ms / 4),
                for_: SimDuration::from_millis(ms / 4),
                resend_after: SimDuration::from_millis(30),
            }),
            ..FaultPlan::none()
        }
    }

    #[test]
    fn no_bw_live_run_serves_traffic() {
        let report = LiveCluster::run(
            &small_scenario(250),
            Policy::NoBw,
            LiveTuning::fast_test(),
            1,
        );
        assert!(
            report.total_served() > 100,
            "served {}",
            report.total_served()
        );
        assert!(
            report.ticks_per_ost.iter().all(|t| *t == 0),
            "no controller under NoBW"
        );
        assert!(report.report.overheads.is_empty());
        assert_eq!(report.report.policy, "no_bw");
        assert_eq!(report.report.fault_stats, FaultStats::default());
    }

    #[test]
    fn adaptbf_live_run_allocates_by_priority() {
        // Jobs with 1 vs 3 nodes, both saturating: AdapTBF must steer the
        // shares toward 25/75 (generous tolerance: wall-clock test).
        let report = LiveCluster::run(
            &small_scenario(600),
            Policy::AdapTbf(fast_adaptbf()),
            LiveTuning::fast_test(),
            1,
        );
        assert!(report.ticks_per_ost[0] > 5, "controller must have run");
        assert!(!report.report.overheads.is_empty(), "overhead accounted");
        let share_high = report.served_share(JobId(2));
        assert!(
            share_high > 0.60,
            "high-priority job should get well above half; got {share_high:.2} \
             (served {:?})",
            report.served()
        );
    }

    #[test]
    fn multi_ost_runs_independent_controllers() {
        let tuning = LiveTuning {
            n_osts: 2,
            ..LiveTuning::fast_test()
        };
        let report = LiveCluster::run(
            &small_scenario(400),
            Policy::AdapTbf(fast_adaptbf()),
            tuning,
            3,
        );
        assert_eq!(report.records_per_ost.len(), 2);
        assert!(
            report.ticks_per_ost.iter().all(|t| *t > 3),
            "both controllers ticked"
        );
    }

    #[test]
    fn static_bw_caps_low_priority() {
        let report = LiveCluster::run(
            &small_scenario(400),
            Policy::StaticBw,
            LiveTuning::fast_test(),
            1,
        );
        // Static 25/75 split at 2000 tokens/s: job 1 must stay near a
        // quarter share.
        let share_low = report.served_share(JobId(1));
        assert!(share_low < 0.40, "static cap violated: {share_low:.2}");
    }

    #[test]
    fn striped_multi_ost_wiring_spreads_every_process() {
        let tuning = LiveTuning {
            n_osts: 2,
            stripe_count: 2,
            ..LiveTuning::fast_test()
        };
        let report = LiveCluster::run(&small_scenario(300), Policy::NoBw, tuning, 1);
        assert!(report.total_served() > 100);
        // With full striping both OSTs see every job's traffic, so both
        // record served work (shutdown reports per-OST records only under
        // AdapTBF; use the report's demand family instead).
        assert_eq!(report.report.metrics.demand().jobs().len(), 2);
    }

    #[test]
    fn live_crash_reroutes_to_the_surviving_ost() {
        // Two fully-striped OSTs; OST 0 down for the middle half of the
        // run. Every displaced RPC must land in exactly one FaultStats
        // category, nothing parks (a survivor always exists), and traffic
        // keeps flowing.
        let ms = 400;
        let tuning = LiveTuning {
            n_osts: 2,
            stripe_count: 2,
            ..LiveTuning::fast_test()
        };
        let report = LiveCluster::run_with_faults(
            &small_scenario(ms),
            Policy::NoBw,
            tuning,
            &mid_crash(ms),
            7,
        )
        .expect("crash plans run live now");
        let fs = report.report.fault_stats;
        assert!(
            fs.resent + fs.rerouted > 0,
            "a mid-run crash must displace work: {fs:?}"
        );
        assert_eq!(fs.parked, 0, "survivor exists, nothing parks: {fs:?}");
        assert!(fs.lost_in_service <= fs.resent, "{fs:?}");
        assert!(fs.undelivered <= fs.resent + fs.parked, "{fs:?}");
        assert!(report.total_served() > 100, "survivor keeps serving");
    }

    #[test]
    fn live_crash_on_single_ost_parks_until_recovery() {
        // One OST and a trickling (never window-bound) workload: arrivals
        // landing inside the window have no survivor, so they park and
        // land at recovery. Serving must resume after the window.
        let ms = 500u64;
        let chunks: Vec<adaptbf_workload::WorkChunk> = (0..ms / 20)
            .map(|k| adaptbf_workload::WorkChunk {
                at: SimTime::from_millis(k * 20),
                rpcs: 5,
            })
            .collect();
        let scenario = Scenario::new(
            "live-trickle",
            "",
            vec![JobSpec::uniform(
                JobId(1),
                1,
                2,
                ProcessSpec::timed(chunks).with_max_inflight(256),
            )],
            SimDuration::from_millis(ms),
        );
        let report = LiveCluster::run_with_faults(
            &scenario,
            Policy::NoBw,
            LiveTuning::fast_test(),
            &mid_crash(ms),
            7,
        )
        .expect("single-OST crash plans run live");
        let fs = report.report.fault_stats;
        assert!(fs.parked > 0, "no survivor: arrivals must park: {fs:?}");
        assert_eq!(fs.rerouted, 0, "nowhere to re-route to: {fs:?}");
        assert!(fs.undelivered <= fs.resent + fs.parked, "{fs:?}");
        assert!(
            report.total_served() > 50,
            "service must resume after recovery: served {}",
            report.total_served()
        );
    }

    #[test]
    fn live_cycle_indexed_faults_run() {
        // Stall 3 of every 4 cycles and lose stats every 2nd healthy one:
        // the controller keeps (cycle-counted) cadence and the run still
        // serves traffic.
        let plan = FaultPlan {
            controller_stall: Some(StallSpec {
                every: 4,
                duration: 3,
            }),
            stats_loss_every: Some(2),
            ..FaultPlan::none()
        };
        let report = LiveCluster::run_with_faults(
            &small_scenario(400),
            Policy::AdapTbf(fast_adaptbf()),
            LiveTuning::fast_test(),
            &plan,
            1,
        )
        .expect("cycle-indexed faults run live now");
        // ~16 cycle deadlines in 400 ms at 25 ms; 3/4 stalled.
        assert!(
            report.ticks_per_ost[0] >= 1,
            "some healthy cycles must tick: {:?}",
            report.ticks_per_ost
        );
        assert!(report.total_served() > 50, "traffic survives the stall");
        assert_eq!(report.report.fault_stats, FaultStats::default());
    }

    #[test]
    fn disk_degrade_slows_the_live_device() {
        // Degrade the whole run 4×: the served total must drop well below
        // the healthy run's.
        let scenario = small_scenario(300);
        let healthy = LiveCluster::run(&scenario, Policy::NoBw, LiveTuning::fast_test(), 1);
        let degraded = LiveCluster::run_with_faults(
            &scenario,
            Policy::NoBw,
            LiveTuning::fast_test(),
            &FaultPlan {
                disk_degrade: Some(DegradeSpec {
                    from: SimTime::ZERO,
                    for_: SimDuration::from_secs(10),
                    factor: 4.0,
                }),
                ..FaultPlan::none()
            },
            1,
        )
        .expect("degrade is live-feasible");
        assert!(
            (degraded.total_served() as f64) < healthy.total_served() as f64 * 0.6,
            "4x degrade must cut throughput: {} vs {}",
            degraded.total_served(),
            healthy.total_served()
        );
    }

    #[test]
    fn job_churn_pauses_issuance_live() {
        // Churn every process offline for the first 60% of each cycle:
        // issuance must drop relative to the healthy run.
        let scenario = small_scenario(400);
        let healthy = LiveCluster::run(&scenario, Policy::NoBw, LiveTuning::fast_test(), 1);
        let churned = LiveCluster::run_with_faults(
            &scenario,
            Policy::NoBw,
            LiveTuning::fast_test(),
            &FaultPlan {
                churn: Some(ChurnSpec {
                    every: SimDuration::from_millis(100),
                    offline: SimDuration::from_millis(60),
                    stride: 1,
                }),
                ..FaultPlan::none()
            },
            1,
        )
        .expect("churn is live-feasible");
        assert!(
            (churned.total_served() as f64) < healthy.total_served() as f64 * 0.8,
            "churn must cut served work: {} vs {}",
            churned.total_served(),
            healthy.total_served()
        );
    }

    #[test]
    fn recording_run_captures_a_replayable_trace() {
        let ms = 300;
        let tuning = LiveTuning {
            n_osts: 2,
            stripe_count: 2,
            ..LiveTuning::fast_test()
        };
        let (report, trace) = LiveCluster::record_with_faults(
            &small_scenario(ms),
            Policy::NoBw,
            tuning,
            &mid_crash(ms),
            5,
        )
        .expect("recording run starts");
        assert_eq!(trace.meta.recorded_by.as_deref(), Some("live"));
        assert_eq!(trace.meta.n_osts, 2);
        assert_eq!(trace.meta.faults, mid_crash(ms));
        assert!(
            !trace.records.is_empty(),
            "a serving run must record arrivals"
        );
        assert!(
            trace.records.windows(2).all(|w| w[0].at <= w[1].at),
            "records are chronological"
        );
        // Ids follow the simulator's rule — each process numbers its own
        // RPCs from 0 inside its own id range — so they are unique with no
        // counter shared between the client threads.
        let ids: std::collections::BTreeSet<RpcId> =
            trace.records.iter().map(|r| r.rpc.id).collect();
        assert_eq!(ids.len(), trace.records.len(), "ids are unique");
        for rec in &trace.records {
            let proc = rec.rpc.proc_id;
            let range = RpcId::for_process(proc, 0)..RpcId::for_process(ProcId(proc.0 + 1), 0);
            assert!(range.contains(&rec.rpc.id), "{} from {proc}", rec.rpc.id);
            assert!(
                ids.contains(&range.start),
                "{proc}'s first RPC is ordinal 0"
            );
        }
        // The round-trip through the text format is identity — the trace
        // is well-formed for the simulator's replay front end.
        let parsed = Trace::from_text(&trace.to_text()).expect("parses");
        assert_eq!(parsed, trace);
        assert!(report.total_served() > 0);
    }

    #[test]
    fn crash_outside_the_wiring_is_rejected() {
        let err = LiveCluster::run_with_faults(
            &small_scenario(100),
            Policy::NoBw,
            LiveTuning::fast_test(),
            &FaultPlan {
                ost_crash: Some(CrashSpec {
                    ost: 3,
                    from: SimTime::from_millis(20),
                    for_: SimDuration::from_millis(30),
                    resend_after: SimDuration::from_millis(10),
                }),
                ..FaultPlan::none()
            },
            1,
        )
        .expect_err("crash must address an OST inside the wiring");
        assert!(matches!(err, LiveError::Fault(_)), "{err:?}");
    }

    #[test]
    fn invalid_wiring_is_rejected() {
        let tuning = LiveTuning {
            stripe_count: 3,
            ..LiveTuning::fast_test()
        };
        let err = LiveCluster::run_with_faults(
            &small_scenario(100),
            Policy::NoBw,
            tuning,
            &FaultPlan::none(),
            1,
        )
        .expect_err("stripe wider than cluster");
        assert!(matches!(err, LiveError::Wiring(_)));
    }
}
