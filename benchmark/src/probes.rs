//! Per-layer probes: each drives one layer's public functions in
//! isolation, on inputs taken from the workload under measurement — its
//! recorded arrivals, its job set, its mean active-job count per control
//! cycle, its peak event-queue depth. A probe's number says what that
//! layer costs *on this workload's input*; the predictions in the README
//! say which end-to-end metric it should move.

use crate::inputs::{scenario_text, SplitMix64, Workload};
use crate::live_run::{self, Rig};
use crate::sample::Sample;
use crate::sim_run;
use crate::spans::Spans;
use crate::stats::median;
use crate::RepOpts;
use adaptbf_core::AllocationController;
use adaptbf_model::{
    AdapTbfConfig, ClientId, JobId, JobObservation, OpCode, ProcId, Rpc, RpcId, RuleId,
    SimDuration, SimTime, TbfSchedulerConfig,
};
use adaptbf_node::{Metrics, OstNode, Policy, RunReport};
use adaptbf_sim::cluster::ClusterConfig;
use adaptbf_sim::engine::EventQueue;
use adaptbf_sim::{plan_file_run, Cluster, FileRun};
use adaptbf_tbf::{NrsTbfScheduler, RpcMatcher, SchedDecision};
use adaptbf_workload::dsl::ScenarioFile;
use adaptbf_workload::trace::{Trace, TraceRecord};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up phases are timed this many times; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Share of the measured size the arrival recording runs at: the probes
/// need the workload's arrival *pattern*, not all of its volume.
/// `sim_control` scales by job count, and its rule table is the point, so
/// it records at full size (it serves only ≈ 38 k RPCs anyway).
fn record_scale(workload: Workload) -> f64 {
    match workload {
        Workload::SimControl => 1.0,
        _ => 0.25,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the layer probes are fed, all taken from one workload.
struct ProbeInput {
    /// First-hand arrivals at the busiest OST, in arrival order.
    arrivals: Vec<TraceRecord>,
    /// `(job, nodes)` of the scenario, declaration order.
    jobs: Vec<(JobId, u64)>,
    /// Mean jobs allocated per control cycle in the recorded run.
    active_jobs: usize,
    /// Event-queue high-water mark of the recorded run.
    peak_depth: usize,
    controller: AdapTbfConfig,
}

impl ProbeInput {
    fn of(
        plan: &FileRun,
        arrivals: Vec<TraceRecord>,
        active_jobs: usize,
        peak_depth: usize,
    ) -> Self {
        let Policy::AdapTbf(controller) = plan.policy else {
            unreachable!("every workload runs AdapTBF")
        };
        ProbeInput {
            arrivals,
            jobs: plan.scenario.jobs.iter().map(|j| (j.id, j.nodes)).collect(),
            active_jobs,
            peak_depth,
            controller,
        }
    }
}

pub fn run_probes(opts: &RepOpts) -> Sample {
    let mut s = Sample::default();
    let text = scenario_text(opts.workload, opts.seed, opts.scale);
    setup_phases(&text, opts, &mut s);
    let input = match opts.workload {
        Workload::LiveSat => record_live_sat(opts, &mut s),
        Workload::LiveOpen => record_live_open(opts, &mut s),
        _ => record_sim(opts, &mut s),
    };
    s.put("tbf.rules", input.jobs.len() as f64);
    probe_tbf(&input, &mut s);
    probe_core(&input, &mut s);
    probe_node(&input, &mut s);
    probe_metrics(&input, &mut s);
    if opts.workload.is_sim() {
        probe_engine(&input, opts.seed, &mut s);
    }
    s
}

/// `workload.parse_ms`, `workload.parse_mib_per_s`, `workload.plan_ms`,
/// `sim.build_ms`: the set-up calls on the full-size text, repeated.
fn setup_phases(text: &str, opts: &RepOpts, s: &mut Sample) {
    let (mut parse, mut plan, mut build) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let file = ScenarioFile::parse(black_box(text)).expect("generated text parses");
        parse.push(ms(t.elapsed()));
        let t = Instant::now();
        let run = plan_file_run(&file).expect("generated scenario plans");
        plan.push(ms(t.elapsed()));
        if opts.workload.is_sim() {
            let t = Instant::now();
            black_box(Cluster::build_with(
                &run.scenario,
                run.policy,
                run.seed,
                run.cluster,
            ));
            build.push(ms(t.elapsed()));
        }
    }
    let parse_ms = median(&parse);
    s.put("workload.parse_ms", parse_ms);
    s.put(
        "workload.parse_mib_per_s",
        text.len() as f64 / (1 << 20) as f64 / (parse_ms / 1e3),
    );
    s.put("workload.plan_ms", median(&plan));
    s.put(
        "sim.build_ms",
        if build.is_empty() {
            0.0
        } else {
            median(&build)
        },
    );
}

fn busiest_ost(records: &[TraceRecord]) -> usize {
    let mut per_ost = std::collections::BTreeMap::new();
    for r in records {
        *per_ost.entry(r.ost).or_insert(0u64) += 1;
    }
    per_ost
        .into_iter()
        .max_by_key(|&(ost, n)| (n, std::cmp::Reverse(ost)))
        .map_or(0, |(ost, _)| ost)
}

/// `workload.trace_parse_mib_per_s` on the recording's own text.
fn probe_trace_parse(trace: &Trace, s: &mut Sample) {
    let text = trace.to_text();
    let t = Instant::now();
    let parsed = Trace::from_text(black_box(&text)).expect("recorded trace parses");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(parsed.records.len(), trace.records.len());
    s.put(
        "workload.trace_parse_mib_per_s",
        text.len() as f64 / (1 << 20) as f64 / secs,
    );
}

/// A simulator workload's arrivals: `Cluster::run_traced` on the same
/// generated mix at [`record_scale`] of the volume, one shard.
fn record_sim(opts: &RepOpts, s: &mut Sample) -> ProbeInput {
    let small = RepOpts {
        scale: opts.scale * record_scale(opts.workload),
        shards: Some(1),
        ..*opts
    };
    let text = scenario_text(small.workload, small.seed, small.scale);
    let (plan, cluster) = sim_run::set_up(&text, &small, &mut Spans::new(false));
    let (out, trace) = cluster.run_traced();
    probe_trace_parse(&trace, s);
    let ost = busiest_ost(&trace.records);
    let ticks: u64 = out.overheads.iter().map(|o| o.ticks).sum();
    let allocated: u64 = out.overheads.iter().map(|o| o.jobs_allocated).sum();
    ProbeInput::of(
        &plan,
        trace.records.into_iter().filter(|r| r.ost == ost).collect(),
        (allocated / ticks.max(1)).max(1) as usize,
        out.loop_stats.peak_queue_depth,
    )
}

/// `live_sat`'s arrivals: the runtime's own recorder on a tenth-length
/// run. Also the closed-loop send probe and the sim comparison.
fn record_live_sat(opts: &RepOpts, s: &mut Sample) -> ProbeInput {
    let text = scenario_text(Workload::LiveSat, opts.seed, opts.scale * 0.1);
    let plan = live_run::parse_plan(&text, &mut Spans::new(false));
    let (tuning, policy) = live_run::testbed(&plan);
    let (live, trace) = adaptbf_runtime::LiveCluster::record_with_faults(
        &plan.scenario,
        policy,
        tuning,
        &adaptbf_workload::FaultPlan::none(),
        plan.seed,
    )
    .expect("fault-free plan records");
    probe_trace_parse(&trace, s);
    share_err_vs_sim(&plan, &live.report, s);
    let full_text = scenario_text(Workload::LiveSat, opts.seed, opts.scale);
    closed_loop_send_probe(&live_run::parse_plan(&full_text, &mut Spans::new(false)), s);
    ProbeInput::of(&plan, trace.records, plan.scenario.jobs.len(), 0)
}

/// `live_open`'s arrivals are the harness's own sends: one record per RPC
/// of the schedule, at its due instant.
fn record_live_open(opts: &RepOpts, s: &mut Sample) -> ProbeInput {
    let small = RepOpts {
        scale: opts.scale * record_scale(opts.workload),
        traced: false,
        ..*opts
    };
    let text = scenario_text(Workload::LiveOpen, small.seed, small.scale);
    let plan = live_run::parse_plan(&text, &mut Spans::new(false));
    let mut arrivals = Vec::new();
    for step in live_run::steps_of(&plan) {
        let at = SimTime(step.due_ns);
        for _ in 0..step.rpcs {
            arrivals.push(TraceRecord {
                at,
                ost: 0,
                rpc: Rpc {
                    id: RpcId(arrivals.len() as u64),
                    job: plan.scenario.jobs[step.proc].id,
                    client: ClientId(0),
                    proc_id: ProcId(step.proc as u32),
                    op: OpCode::Write,
                    size_bytes: 4096,
                    issued_at: at,
                },
            });
        }
    }
    // The executors' agreement is checked on a short live repetition of
    // the same text and a simulator run of it.
    let (_, live) = live_run::run_open_with_report(&small, &mut Spans::new(false));
    share_err_vs_sim(&plan, &live, s);
    s.put("workload.trace_parse_mib_per_s", 0.0);
    ProbeInput::of(&plan, arrivals, plan.scenario.jobs.len(), 0)
}

/// `runtime.share_err_vs_sim`: the largest per-job served-share gap
/// between a live report and a simulator run of the same scenario on the
/// same emulated hardware.
fn share_err_vs_sim(plan: &FileRun, live: &RunReport, s: &mut Sample) {
    let (tuning, policy) = live_run::testbed(plan);
    let cluster = ClusterConfig {
        ost: tuning.ost,
        static_rate_total: tuning.static_rate_total,
        ..plan.cluster
    };
    let out = Cluster::build_with(&plan.scenario, policy, plan.seed, cluster)
        .shards(1)
        .run();
    let total = out.metrics.total_served().max(1) as f64;
    let err = plan
        .scenario
        .job_ids()
        .into_iter()
        .map(|j| (out.metrics.served_of(j) as f64 / total - live.served_share(j)).abs())
        .fold(0.0, f64::max);
    s.put("runtime.share_err_vs_sim", err);
}

/// `runtime.send_block_ms`, `runtime.batch_rpcs_mean`,
/// `runtime.tokens_per_msg` in the saturated regime: the harness stands in
/// for `live_sat`'s client thread (same window, batch and horizon),
/// because `LiveCluster::run` shows none of the three from outside.
fn closed_loop_send_probe(plan: &FileRun, s: &mut Sample) {
    let (tuning, policy) = live_run::testbed(plan);
    let window = plan.scenario.jobs[0].processes[0].max_inflight as u64;
    let batch = tuning.max_batch as u64;
    let mut rig = Rig::spawn(plan, tuning, policy);
    let (mut inflight, mut batches, mut sent) = (0u64, 0u64, 0u64);
    let (mut tokens, mut token_msgs) = (0u64, 0u64);
    let mut send_block = Duration::ZERO;
    let start = Instant::now();
    let horizon = Duration::from_nanos(plan.scenario.duration.as_nanos());
    while start.elapsed() < horizon {
        while inflight + batch <= window {
            let t = Instant::now();
            rig.send(0, batch);
            send_block += t.elapsed();
            inflight += batch;
            sent += batch;
            batches += 1;
        }
        if let Ok(n) = rig.recv_token(0, Duration::from_millis(1)) {
            let mut got = n;
            token_msgs += 1;
            while let Some(n) = rig.try_token(0) {
                got += n;
                token_msgs += 1;
            }
            inflight -= got;
            tokens += got;
        }
    }
    rig.shutdown();
    s.put("runtime.send_block_ms", ms(send_block));
    s.put(
        "runtime.batch_rpcs_mean",
        sent as f64 / batches.max(1) as f64,
    );
    s.put(
        "runtime.tokens_per_msg",
        tokens as f64 / token_msgs.max(1) as f64,
    );
}

fn scheduler_with_static_rules(input: &ProbeInput) -> (NrsTbfScheduler, Vec<RuleId>) {
    let mut sched = NrsTbfScheduler::new(TbfSchedulerConfig::default());
    sched.reserve_jobs(input.jobs.len());
    let total_nodes: u64 = input.jobs.iter().map(|j| j.1).sum();
    let ceiling = input.controller.max_token_rate;
    let ids = input
        .jobs
        .iter()
        .map(|&(job, nodes)| {
            sched.start_rule(
                job.label(),
                RpcMatcher::Job(job),
                ceiling * nodes as f64 / total_nodes as f64,
                nodes.min(u32::MAX as u64) as u32,
                SimTime::ZERO,
            )
        })
        .collect();
    (sched, ids)
}

/// `tbf.enqueue_ns`, `tbf.next_ns`, `tbf.wait_share`,
/// `tbf.apply_updates_us`: the recorded arrivals replayed, in blocks of
/// 256, into a bare scheduler holding one priority-share rule per job;
/// after each block `next` is called until the buckets run dry.
fn probe_tbf(input: &ProbeInput, s: &mut Sample) {
    let (mut sched, ids) = scheduler_with_static_rules(input);
    let (mut enq, mut next) = (Duration::ZERO, Duration::ZERO);
    let (mut next_calls, mut waits) = (0u64, 0u64);
    for block in input.arrivals.chunks(256) {
        let t = Instant::now();
        for r in block {
            sched.enqueue(r.rpc, r.at);
        }
        enq += t.elapsed();
        let now = block.last().expect("non-empty block").at;
        let t = Instant::now();
        loop {
            next_calls += 1;
            match sched.next(now) {
                SchedDecision::Serve(rpc) => {
                    black_box(rpc);
                }
                SchedDecision::WaitUntil(_) => {
                    waits += 1;
                    break;
                }
                SchedDecision::Idle => break,
            }
        }
        next += t.elapsed();
    }
    s.put(
        "tbf.enqueue_ns",
        enq.as_nanos() as f64 / input.arrivals.len().max(1) as f64,
    );
    s.put(
        "tbf.next_ns",
        next.as_nanos() as f64 / next_calls.max(1) as f64,
    );
    s.put("tbf.wait_share", waits as f64 / next_calls.max(1) as f64);

    // One control cycle's rule churn: the rules of the active set
    // re-rated, queues bound.
    const CYCLES: u32 = 100;
    let t = Instant::now();
    for cycle in 0..CYCLES {
        let updates: Vec<(RuleId, f64, u32)> = ids
            .iter()
            .take(input.active_jobs)
            .map(|id| (*id, 100.0 + cycle as f64, cycle % 9 + 1))
            .collect();
        sched
            .apply_updates(&updates, SimTime::from_millis(cycle as u64 * 100))
            .expect("rules exist");
    }
    s.put(
        "tbf.apply_updates_us",
        t.elapsed().as_secs_f64() * 1e6 / CYCLES as f64,
    );
}

/// The workload's mean active set, with demands that wobble cycle to
/// cycle so surplus, redistribution and re-compensation all run.
fn observations(input: &ProbeInput, cycle: u64) -> Vec<JobObservation> {
    input
        .jobs
        .iter()
        .take(input.active_jobs)
        .enumerate()
        .map(|(i, &(job, nodes))| {
            JobObservation::new(job, nodes, 1 + (i as u64 * 7 + cycle * 3) % 40)
        })
        .collect()
}

/// `core.step_us`, `core.step_ns_per_job`.
fn probe_core(input: &ProbeInput, s: &mut Sample) {
    const CYCLES: u64 = 200;
    let mut controller = AllocationController::new(input.controller);
    let mut total = Duration::ZERO;
    for cycle in 0..CYCLES {
        let obs = observations(input, cycle);
        let t = Instant::now();
        black_box(controller.step(black_box(&obs)));
        total += t.elapsed();
    }
    let step_us = total.as_secs_f64() * 1e6 / CYCLES as f64;
    s.put("core.step_us", step_us);
    s.put(
        "core.step_ns_per_job",
        step_us * 1e3 / input.active_jobs as f64,
    );
}

/// `node.tick_us`, `node.tick_self_us`: whole control cycles of an
/// assembled `OstNode` whose `job_stats` saw the active set's arrivals.
fn probe_node(input: &ProbeInput, s: &mut Sample) {
    const CYCLES: u64 = 200;
    let mut node = OstNode::new(
        Policy::AdapTbf(input.controller),
        TbfSchedulerConfig::default(),
        &input.jobs,
        input.controller.max_token_rate,
        SimTime::ZERO,
    );
    node.reserve_jobs(input.jobs.len());
    let period = input.controller.period;
    let mut total = Duration::ZERO;
    for cycle in 0..CYCLES {
        for o in observations(input, cycle) {
            for _ in 0..o.demand_rpcs {
                node.job_stats.record_arrival(o.job);
            }
        }
        let now = SimTime::ZERO + SimDuration(period.as_nanos() * (cycle + 1));
        let t = Instant::now();
        black_box(node.tick(now));
        total += t.elapsed();
    }
    let tick_us = total.as_secs_f64() * 1e6 / CYCLES as f64;
    s.put("node.tick_us", tick_us);
    // Three separately timed loops: on a one-job workload the difference
    // is inside their noise, and a negative cost would be nonsense.
    s.put(
        "node.tick_self_us",
        (tick_us - s.get("core.step_us") - s.get("tbf.apply_updates_us")).max(0.0),
    );
}

/// `node.metrics.record_ns`, `node.metrics.fold_ms`: every recorded
/// arrival goes through `on_arrival` and `on_served_at` of four shard
/// collectors, which are then folded.
fn probe_metrics(input: &ProbeInput, s: &mut Sample) {
    const SHARDS: usize = 4;
    let bucket = SimDuration::from_millis(100);
    let mut shards: Vec<Metrics> = (0..SHARDS)
        .map(|_| {
            let mut m = Metrics::new(bucket);
            m.reserve_jobs(input.jobs.len());
            m
        })
        .collect();
    let service = SimDuration::from_micros(500);
    let t = Instant::now();
    for (i, r) in input.arrivals.iter().enumerate() {
        let m = &mut shards[i % SHARDS];
        m.on_arrival(r.rpc.job, r.at);
        m.on_served_at(r.rpc.job, r.at + service, r.rpc.issued_at);
    }
    s.put(
        "node.metrics.record_ns",
        t.elapsed().as_nanos() as f64 / (2 * input.arrivals.len().max(1)) as f64,
    );
    let until = input
        .arrivals
        .last()
        .map_or(SimTime::ZERO, |r| r.at + service);
    let released: Vec<(JobId, u64)> = input.jobs.iter().map(|&(j, _)| (j, u64::MAX)).collect();
    let t = Instant::now();
    black_box(Metrics::fold_shards(bucket, shards, released, until));
    s.put("node.metrics.fold_ms", ms(t.elapsed()));
}

/// `sim.engine.hold_ns`: the classic hold model on `EventQueue` at the
/// workload's peak depth — pop the earliest event, push one a seeded
/// increment later; nine increments in ten land inside the calendar
/// window (a network hop or a service time), one beyond it (a controller
/// tick, a think time), which is the mix the cluster's events have.
fn probe_engine(input: &ProbeInput, seed: u64, s: &mut Sample) {
    const OPS: u64 = 1_000_000;
    let mut rng = SplitMix64::new(seed ^ 0xE7E7);
    let mut increment = move || {
        if rng.below(10) == 0 {
            40_000_000 + rng.below(60_000_000)
        } else {
            100_000 + rng.below(15_000_000)
        }
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..input.peak_depth.max(1) as u64 {
        q.push(SimTime(increment()), i);
    }
    let t = Instant::now();
    for _ in 0..OPS {
        let (at, payload) = q.pop().expect("hold model keeps the queue full");
        q.push(at + SimDuration(increment()), black_box(payload));
    }
    s.put(
        "sim.engine.hold_ns",
        t.elapsed().as_nanos() as f64 / OPS as f64,
    );
}
