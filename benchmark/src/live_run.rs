//! One repetition of a live-runtime workload.
//!
//! `live_sat` hands the parsed scenario to `LiveCluster::run` — the
//! program's own client thread against one OST thread, closed loop.
//! `live_open` keeps the OST thread (`LiveOst::spawn`) and replaces the
//! client with the harness's single generator thread, which follows the
//! scenario's `timed` chunks open loop and times every RPC from its due
//! instant to the arrival of the completion token that covers it.

use crate::inputs::{scenario_text, Workload};
use crate::openloop::{Generator, Step};
use crate::procfs;
use crate::sample::Sample;
use crate::spans::Spans;
use crate::stats;
use crate::RepOpts;
use adaptbf_analysis::fairness::priority_fairness;
use adaptbf_analysis::resilience::conservation_ok;
use adaptbf_model::{ClientId, JobId, OpCode, OstConfig, ProcId, Rpc, RpcId, SimDuration, SimTime};
use adaptbf_node::{FaultStats, OstNode, Policy, RunReport};
use adaptbf_runtime::ost::OstFinal;
use adaptbf_runtime::{
    LiveBatch, LiveCluster, LiveMetrics, LiveOst, LiveOstHandle, LiveTuning, OstWiring, WallClock,
};
use adaptbf_sim::{plan_file_run, FileRun};
use adaptbf_workload::dsl::ScenarioFile;
use adaptbf_workload::FaultPlan;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Emulated I/O threads of the live OST (both live workloads).
const IO_THREADS: usize = 32;
/// How long `live_open` waits after its last send for outstanding tokens.
pub const DRAIN: Duration = Duration::from_millis(500);
/// The generator's idle sleep: it never spins, so token arrival instants
/// are read at this granularity (plus the kernel's timer slack).
const POLL: Duration = Duration::from_micros(100);
/// `live_open`'s latency limit on the reported p90 (the median
/// repetition's), milliseconds. Past it the offered rate is not one the
/// system sustains; the run then fails its check rather than report a
/// number for a regime it was not sized for.
pub const OPEN_P90_LIMIT_MS: f64 = 5.0;

/// Parse + plan, as for the simulator: one scenario file describes a
/// live experiment too (its `tuning` block carries the live-only knobs).
pub fn parse_plan(text: &str, spans: &mut Spans) -> FileRun {
    let file = spans.scope("workload.parse", |_| {
        ScenarioFile::parse(text).expect("generated scenario text parses")
    });
    spans.scope("sim.plan", |_| {
        plan_file_run(&file).expect("generated scenario plans")
    })
}

/// The live testbed the file describes: 32 emulated I/O threads at the
/// file's service quantum with zero jitter, and AdapTBF's token ceiling
/// lifted to the emulated device's rate so the controller runs every
/// cycle without being the deliberate throttle.
pub fn testbed(plan: &FileRun) -> (LiveTuning, Policy) {
    let quantum_us = plan
        .tuning
        .service_quantum_us
        .expect("tuning.service_quantum_us");
    let payload = plan.tuning.payload_bytes.expect("tuning.payload_bytes");
    let ost = OstConfig {
        n_io_threads: IO_THREADS,
        disk_bw_bytes_per_s: (payload as f64 * IO_THREADS as f64 * 1e6 / quantum_us as f64) as u64,
        service_jitter: 0.0,
        rpc_size: payload,
    };
    let ceiling = ost.max_token_rate();
    let tuning = LiveTuning {
        ost,
        tbf: plan.cluster.tbf,
        n_osts: plan.cluster.n_osts,
        n_clients: plan.cluster.n_clients,
        stripe_count: plan.cluster.stripe_count,
        static_rate_total: ceiling,
        bucket: plan.cluster.bucket,
        payload_bytes: payload as usize,
        max_batch: plan.tuning.send_batch.expect("tuning.send_batch") as usize,
        pin_threads: false,
    };
    let policy = match plan.policy {
        Policy::AdapTbf(cfg) => Policy::AdapTbf(cfg.with_max_token_rate(ceiling)),
        other => other,
    };
    (tuning, policy)
}

/// One spawned OST thread plus the harness's ends of its channels.
pub struct Rig {
    tx: Sender<LiveBatch>,
    handle: LiveOstHandle,
    metrics: LiveMetrics,
    clock: WallClock,
    payload: Bytes,
    /// One completion channel per logical process.
    reply: Vec<(Sender<u64>, Receiver<u64>)>,
    proc_jobs: Vec<JobId>,
    next_id: u64,
    horizon: SimTime,
}

impl Rig {
    /// Spawn the OST thread exactly as `LiveCluster` does for a one-OST
    /// wiring (same node assembly, channel depth, shard and seed mix) and
    /// send one RPC through it: the system is runnable once a first RPC
    /// has made the round trip. The thread serves until the scenario's
    /// horizon plus the drain and a margin.
    pub fn spawn(plan: &FileRun, tuning: LiveTuning, policy: Policy) -> Rig {
        let horizon =
            plan.scenario.duration + SimDuration::from_secs_f64(DRAIN.as_secs_f64() + 1.0);
        let clock = WallClock::start();
        let proc_jobs: Vec<JobId> = plan
            .scenario
            .jobs
            .iter()
            .flat_map(|job| job.processes.iter().map(move |_| job.id))
            .collect();
        let metrics = LiveMetrics::new(tuning.bucket, 1, proc_jobs.clone());
        let (tx, rx) = bounded::<LiveBatch>(4096);
        let payload = Bytes::from(vec![0xABu8; tuning.payload_bytes]);
        let jobs: Vec<(JobId, u64)> = plan.scenario.jobs.iter().map(|j| (j.id, j.nodes)).collect();
        let node = OstNode::new(
            policy,
            tuning.tbf,
            &jobs,
            tuning.static_rate_total,
            SimTime::ZERO,
        );
        let horizon = SimTime::ZERO + horizon;
        let handle = LiveOst::spawn(
            "ost0".into(),
            tx.clone(),
            rx,
            tuning.ost,
            node,
            FaultPlan::none(),
            OstWiring {
                index: 0,
                n_osts: 1,
                stripe_count: 1,
            },
            Vec::new(),
            horizon,
            clock,
            metrics.ost_shard(0),
            plan.seed ^ 0xA5,
            payload.clone(),
        );
        let reply = proc_jobs.iter().map(|_| bounded::<u64>(1 << 16)).collect();
        let mut rig = Rig {
            tx,
            handle,
            metrics,
            clock,
            payload,
            reply,
            proc_jobs,
            next_id: 0,
            horizon,
        };
        rig.send(0, 1);
        let n = rig
            .recv_token(0, Duration::from_secs(5))
            .expect("first completion token within 5 s");
        assert_eq!(n, 1, "one RPC sent, one acknowledged");
        rig
    }

    /// Put `n` RPCs of logical process `proc` on the wire as one batch.
    pub fn send(&mut self, proc: usize, n: u64) {
        let issued_at = self.clock.now();
        let rpcs = (0..n)
            .map(|k| Rpc {
                id: RpcId(self.next_id + k),
                job: self.proc_jobs[proc],
                client: ClientId(0),
                proc_id: ProcId(proc as u32),
                op: OpCode::Write,
                size_bytes: self.payload.len() as u64,
                issued_at,
            })
            .collect();
        self.next_id += n;
        self.tx
            .send(LiveBatch {
                rpcs,
                payload: self.payload.clone(),
                reply_to: self.reply[proc].0.clone(),
                handoff: false,
            })
            .expect("OST thread is running");
    }

    /// Block up to `timeout` for the next completion token of `proc`.
    pub fn recv_token(&self, proc: usize, timeout: Duration) -> Result<u64, RecvTimeoutError> {
        self.reply[proc].1.recv_timeout(timeout)
    }

    /// The next completion token of `proc`, if one is already waiting.
    pub fn try_token(&self, proc: usize) -> Option<u64> {
        self.reply[proc].1.try_recv()
    }

    /// Hang up and join the OST thread.
    pub fn shutdown(self) -> (OstFinal, LiveMetrics, SimTime) {
        let Rig {
            tx,
            handle,
            metrics,
            reply,
            horizon,
            ..
        } = self;
        drop(tx);
        let fin = handle.shutdown();
        drop(reply);
        (fin, metrics, horizon)
    }
}

/// Fairness, utilisation and the conservation audit of a live report.
fn score(
    report: &RunReport,
    plan: &FileRun,
    ceiling: f64,
    spans: &mut Spans,
    s: &mut Sample,
) -> bool {
    let t = Instant::now();
    let (fairness, utilization, conserved) = spans.scope("analysis.score", |_| {
        (
            priority_fairness(report, &plan.scenario),
            report.utilization(ceiling),
            conservation_ok(report),
        )
    });
    s.put("analysis.score_ms", t.elapsed().as_secs_f64() * 1e3);
    s.put("fairness", fairness);
    s.put("utilization", utilization);
    s.check(conserved, || "conservation_ok is false".into());
    conserved
}

/// Input text to a runnable live system, timed: parse + plan + spawn to
/// the first token round trip (`setup_s`, `runtime.spawn_ms`).
fn set_up(text: &str, spans: &mut Spans, s: &mut Sample) -> (FileRun, LiveTuning, Policy, Rig) {
    let t = Instant::now();
    spans.enter("setup");
    let plan = parse_plan(text, spans);
    let (tuning, policy) = testbed(&plan);
    let t_spawn = Instant::now();
    let rig = spans.scope("runtime.spawn", |_| Rig::spawn(&plan, tuning, policy));
    s.put("runtime.spawn_ms", t_spawn.elapsed().as_secs_f64() * 1e3);
    spans.exit();
    s.put("setup_s", t.elapsed().as_secs_f64());
    (plan, tuning, policy, rig)
}

/// `live_sat`: the set-up is timed on a rig of its own (spawn to first
/// round trip, then hung up), because `LiveCluster::run` spawns and runs
/// in one call; the timed run is that one call.
pub fn run_sat(opts: &RepOpts, spans: &mut Spans) -> Sample {
    let text = scenario_text(Workload::LiveSat, opts.seed, opts.scale);
    let mut s = Sample::default();
    let request = Instant::now();

    let (plan, tuning, policy, rig) = set_up(&text, spans, &mut s);
    rig.shutdown();

    // The traced run samples the OST thread's CPU clock from outside:
    // `LiveCluster::run` joins its threads before it returns.
    let sampler = opts.traced.then(OstCpuSampler::start);
    let cpu0 = procfs::process_cpu_ns();
    let live = spans.scope("runtime.run", |_| {
        LiveCluster::run(&plan.scenario, policy, tuning, plan.seed)
    });
    let cpu = procfs::process_cpu_ns() - cpu0;
    let ost_cpu = sampler.map_or(0, OstCpuSampler::stop);

    let horizon = plan.scenario.duration.as_secs_f64();
    let served = live.total_served();
    let issued: u64 = live.procs.iter().map(|p| p.issued).sum();
    let completed: u64 = live.procs.iter().map(|p| p.completed).sum();
    let window: u64 = plan
        .scenario
        .jobs
        .iter()
        .flat_map(|j| &j.processes)
        .map(|p| p.max_inflight as u64)
        .sum();
    let conserved = score(
        &live.report,
        &plan,
        tuning.ost.max_token_rate(),
        spans,
        &mut s,
    );
    s.put("request_ms", request.elapsed().as_secs_f64() * 1e3);

    s.put("wall_s", live.elapsed.as_secs_f64());
    s.put("served", served as f64);
    s.put("rpcs_per_s", served as f64 / horizon);
    s.put("cpu_us_per_rpc", cpu as f64 / 1e3 / served.max(1) as f64);
    s.put(
        "runtime.ticks",
        live.ticks_per_ost.iter().sum::<u64>() as f64,
    );
    s.put(
        "runtime.ctl_us_per_tick",
        live.report
            .overheads
            .first()
            .map_or(0.0, |o| o.ns_per_tick() / 1e3),
    );
    if opts.traced {
        s.put(
            "runtime.ost_cpu_us_per_rpc",
            ost_cpu as f64 / 1e3 / served.max(1) as f64,
        );
    }
    // Closed loop: what was issued is either served or still inside the
    // window when the horizon cut the run off.
    s.check(completed <= served && served <= issued && issued - served <= window, || {
        format!("live_sat: issued {issued}, served {served}, acknowledged {completed}, window {window}")
    });
    s.check(live.issued.values().sum::<u64>() == issued, || {
        "live_sat: collector and client issued counts differ".into()
    });
    s.put("attempted", issued as f64);
    s.put(
        "failed",
        if conserved {
            live.report.fault_stats.undelivered as f64
        } else {
            issued as f64
        },
    );
    s.put("peak_rss_mib", procfs::peak_rss_mib());
    s
}

/// Polls the `ost0` thread's on-CPU clock (`schedstat`) every 50 ms and
/// keeps the last reading: a third thread, so only the traced run starts
/// it — its cost shows in `harness.trace_overhead`.
struct OstCpuSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    join: std::thread::JoinHandle<u64>,
}

impl OstCpuSampler {
    fn start() -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let join = std::thread::spawn(move || {
            let mut last = 0;
            // SeqCst: the flag orders nothing else, the default is fine.
            while !flag.load(Ordering::SeqCst) {
                if let Some(ns) = procfs::thread_cpu_ns("ost0") {
                    last = ns;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            last
        });
        OstCpuSampler { stop, join }
    }

    fn stop(self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.join.join().expect("sampler thread")
    }
}

/// The scenario's `timed` chunks as send steps in due order.
pub fn steps_of(plan: &FileRun) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut proc = 0;
    for job in &plan.scenario.jobs {
        for spec in &job.processes {
            for c in spec
                .pattern
                .arrivals(spec.file_rpcs, plan.scenario.duration)
            {
                steps.push(Step {
                    due_ns: c.at.as_nanos(),
                    proc,
                    rpcs: c.rpcs,
                });
            }
            proc += 1;
        }
    }
    steps.sort_by_key(|s| (s.due_ns, s.proc));
    steps
}

pub fn run_open(opts: &RepOpts, spans: &mut Spans) -> Sample {
    run_open_with_report(opts, spans).0
}

/// [`run_open`], also handing back the folded report (the probes compare
/// its served shares with a simulator run of the same text).
pub fn run_open_with_report(opts: &RepOpts, spans: &mut Spans) -> (Sample, RunReport) {
    let text = scenario_text(Workload::LiveOpen, opts.seed, opts.scale);
    let mut s = Sample::default();
    let request = Instant::now();

    let (plan, tuning, policy, mut rig) = set_up(&text, spans, &mut s);

    let n_procs = rig.proc_jobs.len();
    let steps = steps_of(&plan);
    let mut released: Vec<(JobId, u64)> = plan.scenario.jobs.iter().map(|j| (j.id, 0)).collect();
    for step in &steps {
        released[step.proc].1 += step.rpcs; // one process per job
    }
    released[0].1 += 1; // the set-up round trip
    let mut gen = Generator::new(steps, n_procs);
    let offered = gen.offered();
    let send_window_ns = plan.scenario.duration.as_nanos();
    let give_up_ns = send_window_ns + DRAIN.as_nanos() as u64;
    let (mut batches, mut token_msgs, mut send_block_ns) = (0u64, 0u64, 0u64);
    let mut last_send_ns = 0u64;

    let cpu0 = procfs::process_cpu_ns();
    let start = Instant::now();
    let now_ns = |start: &Instant| start.elapsed().as_nanos() as u64;
    loop {
        let now = now_ns(&start);
        if gen.next_due_ns().is_some_and(|due| due <= now) {
            spans.enter("runtime.send");
            let due: Vec<Step> = gen.take_due(now).to_vec();
            let t = Instant::now();
            for step in &due {
                rig.send(step.proc, step.rpcs);
            }
            send_block_ns += t.elapsed().as_nanos() as u64;
            batches += due.len() as u64;
            last_send_ns = now_ns(&start);
            spans.exit();
        }
        let now = now_ns(&start);
        let mut drained = false;
        for proc in 0..n_procs {
            while let Some(n) = rig.try_token(proc) {
                if !drained {
                    spans.enter("runtime.token_drain");
                    drained = true;
                }
                gen.on_token(proc, n, now);
                token_msgs += 1;
            }
        }
        if drained {
            spans.exit();
        }
        if gen.done() || now >= give_up_ns {
            break;
        }
        let until_due = gen
            .next_due_ns()
            .map_or(POLL, |due| Duration::from_nanos(due.saturating_sub(now)));
        std::thread::sleep(until_due.min(POLL));
    }
    let cpu = procfs::process_cpu_ns() - cpu0;

    let acked = gen.acked;
    let backlog = gen.unacked();
    let ost_cpu = procfs::thread_cpu_ns("ost0").unwrap_or(0);
    let (fin, metrics, horizon) = spans.scope("runtime.shutdown", |_| rig.shutdown());
    for (job, n) in &released {
        metrics.set_released(*job, *n);
    }
    let t = Instant::now();
    let (folded, _) = spans.scope("runtime.fold", |_| metrics.fold(vec![fin.shard], horizon));
    s.put("runtime.fold_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let report = spans.scope("node.report", |_| {
        RunReport::from_run(
            plan.scenario.name.clone(),
            policy.name(),
            plan.scenario.duration,
            folded,
            &plan.scenario.job_ids(),
            fin.overhead.into_iter().collect(),
            FaultStats::default(),
        )
    });
    s.put("node.report_ms", t.elapsed().as_secs_f64() * 1e3);
    let ost_served = fin.served;
    s.put("runtime.ticks", fin.ticks as f64);
    s.put(
        "runtime.ctl_us_per_tick",
        fin.overhead.map_or(0.0, |o| o.ns_per_tick() / 1e3),
    );
    s.put(
        "runtime.ost_cpu_us_per_rpc",
        ost_cpu as f64 / 1e3 / ost_served.max(1) as f64,
    );
    let conserved = score(&report, &plan, tuning.ost.max_token_rate(), spans, &mut s);
    s.put("request_ms", request.elapsed().as_secs_f64() * 1e3);

    let mut lat = std::mem::take(&mut gen.latencies_ns);
    lat.sort_unstable();
    let mut lag = std::mem::take(&mut gen.lags_ns);
    lag.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    if lat.is_empty() {
        s.fail("live_open: no RPC was acknowledged");
        lat.push(0);
    }
    s.put("lat_p50_ms", ms(stats::nearest_rank(&lat, 50.0)));
    s.put("lat_p90_ms", ms(stats::nearest_rank(&lat, 90.0)));
    s.put("runtime.lat_p99_ms", ms(stats::nearest_rank(&lat, 99.0)));
    s.put("runtime.lat_p999_ms", ms(stats::nearest_rank(&lat, 99.9)));
    s.put("lat_samples", lat.len() as f64);
    // The tail percentiles are only as good as the samples beyond them.
    let supported = stats::highest_supported_percentile(lat.len()).unwrap_or(0.0);
    s.check(supported >= 99.9, || {
        format!(
            "live_open: {} latency samples support no percentile past p{supported}",
            lat.len()
        )
    });
    s.put(
        "runtime.gen_lag_p99_ms",
        ms(stats::nearest_rank(&lag, 99.0)),
    );
    s.put(
        "runtime.gen_lag_max_ms",
        ms(*lag.last().expect("at least one step")),
    );
    s.put(
        "runtime.drain_ms",
        ms(gen.last_token_ns.saturating_sub(last_send_ns)),
    );
    s.put("runtime.backlog_end", backlog as f64);
    s.put("runtime.send_block_ms", ms(send_block_ns));
    s.put(
        "runtime.batch_rpcs_mean",
        gen.sent as f64 / batches.max(1) as f64,
    );
    s.put(
        "runtime.tokens_per_msg",
        acked as f64 / token_msgs.max(1) as f64,
    );
    s.put("served", acked as f64);
    s.put("wall_s", gen.last_token_ns as f64 / 1e9);
    s.put(
        "rpcs_per_s",
        acked as f64 / (gen.last_token_ns.max(1) as f64 / 1e9),
    );
    s.put("cpu_us_per_rpc", cpu as f64 / 1e3 / acked.max(1) as f64);

    s.check(gen.sent == offered, || {
        format!("live_open: sent {} of {offered} offered", gen.sent)
    });
    s.check(backlog == 0 && gen.unmatched == 0, || {
        format!(
            "live_open: {backlog} RPCs unacknowledged after the drain, {} tokens unmatched",
            gen.unmatched
        )
    });
    s.check(ost_served == gen.sent + 1, || {
        format!(
            "live_open: OST served {ost_served}, harness sent {} + 1",
            gen.sent
        )
    });
    s.put("attempted", offered as f64);
    s.put(
        "failed",
        if conserved {
            (offered - gen.sent + backlog) as f64
        } else {
            offered as f64
        },
    );
    s.put("peak_rss_mib", procfs::peak_rss_mib());
    (s, report)
}
