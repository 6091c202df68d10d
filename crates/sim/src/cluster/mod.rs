//! The simulated cluster: wiring clients, network, OSS/OST and the control
//! plane into one deterministic event loop — or several.
//!
//! ## Sharded execution
//!
//! The cluster can be split into `N` *shards* ([`Cluster::shards`]): each
//! shard owns a contiguous range of OSTs (and the client processes whose
//! base OST falls in that range) together with its own calendar
//! [`EventQueue`]. A static *emits* analysis of the wiring decides, per
//! shard, whether it can ever send a cross-shard message (a stripe set
//! crossing a shard boundary, or any crash window — which can re-route
//! anything). Non-emitting shards never *receive* either (every receiver
//! is an emitter: arrivals are answered with replies, replies come from
//! boundary stripes), so they drain fully independently at full speed
//! while the emitting shards run a conservative epoch protocol with
//! **adaptive windows**: each epoch, every emitting shard's published
//! next-event time `t_i` doubles as its earliest-output promise
//! `eot_i = t_i + L` (`L` = minimum one-way network latency — nothing a
//! shard does before `t_i` exists, and any message it sends matures at
//! least `L` later). The shard holding the global minimum runs the window
//! bounded by the *second*-earliest promise — capped one lookahead past
//! its own earliest emission, which is what keeps a reply to a message it
//! just sent from landing behind it (`Shard::run_capped`); everyone
//! else is bounded by the first promise. When exactly one emitting shard
//! holds events, its hard bound is open (`∞`) and it drains **solo** — no
//! peer bound at all — until one lookahead past its first actual emission
//! ([`LoopStats::solo_drains`]). Cross-shard messages are buffered in
//! per-destination outboxes during the window and exchanged between
//! epochs. One thread drives the whole coupled group — its windows hold a
//! handful of events, far too few to pay for a barrier — while the
//! independent shards, which share nothing with it or each other, fan out
//! over [`crate::RunGrid`]. (The original static `[t_min, t_min + L)`
//! protocol survives only in this module's tests, as the oracle the
//! adaptive windows are checked against.)
//!
//! The code is split by responsibility: this file holds the configuration,
//! the [`Cluster`] blueprint and its builders; `shard` the per-shard event
//! state machine; `windows` the emits analysis and the epoch driver;
//! `merge` the fold of per-shard outputs into one [`RawRunOutput`].
//!
//! ## Why the shard count cannot change the run
//!
//! Three properties make `report_digest` byte-identical for any shard
//! count (pinned by the golden suite and `tests/shard_determinism.rs`):
//!
//! 1. **Canonical event keys.** Every event is pushed under a key
//!    `(lane << LANE_SHIFT) | lane_seq` assigned at the *push site* from
//!    the pushing entity's own counter (lane 0 = the builder, then one
//!    lane per OST, then one per process). Ties at equal timestamps
//!    resolve by key, and the key depends only on the pusher's private
//!    event history — never on how pushes from different entities
//!    interleave. One shard or sixteen, every event carries the same key,
//!    so the global `(time, key)` processing order is the same total
//!    order.
//! 2. **Per-entity RNG streams and id spaces.** Network latency draws
//!    come from per-process (forward hop) and per-OST (reply hop)
//!    streams, service jitter from per-OST streams, and RPC ids from
//!    per-process id spaces — state that only its owner touches.
//! 3. **Pure-function fault routing.** Whether an OST is inside its
//!    crash window is a function of `(ost, t)` on the immutable fault
//!    plan, so a *sender* can compute the destination shard of a message
//!    at push time and the receiver re-derives the same answer at
//!    delivery time, with no shared mutable "crashed" flag
//!    (`FaultPlan::crashed_at` / `FaultPlan::route` — the same functions
//!    the live runtime routes by).
//!

mod merge;
mod shard;
mod windows;

use crate::client::ProcessState;
use crate::engine::EventQueue;
use crate::network::min_latency;
use crate::ost::OstState;
use adaptbf_model::config::paper;
use adaptbf_model::{
    ClientId, JobId, NetworkConfig, OstConfig, ProcId, SimDuration, SimTime, TbfSchedulerConfig,
};
use adaptbf_node::{ControllerOverhead, FaultStats, Metrics, OstNode, Policy, RunReport};
use adaptbf_workload::faults::{base_ost, client_of, validate_wiring, FaultPlan};
use adaptbf_workload::trace::{Trace, TraceMeta};
use adaptbf_workload::Scenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use shard::{Event, Shard, Shared};

/// Static wiring of the simulated testbed (defaults mirror Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// OST disk/thread model.
    pub ost: OstConfig,
    /// Interconnect latency model.
    pub network: NetworkConfig,
    /// NRS TBF parameters (bucket depth).
    pub tbf: TbfSchedulerConfig,
    /// Client nodes processes are spread over (paper: 4).
    pub n_clients: usize,
    /// OSTs in the cluster; each runs its own independent controller.
    pub n_osts: usize,
    /// `T_i` used by the Static BW baseline's fixed rules.
    pub static_rate_total: f64,
    /// Metrics bucket width (paper observes at 100 ms).
    pub bucket: SimDuration,
    /// Lustre-style file striping: each process's sequential RPCs
    /// round-robin over this many OSTs (1 = file-per-OST, the default).
    pub stripe_count: usize,
    /// Deterministic failure injection (none by default).
    pub faults: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            ost: paper::ost(),
            network: paper::network(),
            tbf: TbfSchedulerConfig::default(),
            n_clients: 4,
            n_osts: 1,
            static_rate_total: paper::MAX_TOKEN_RATE,
            bucket: SimDuration::from_millis(100),
            stripe_count: 1,
            faults: FaultPlan::none(),
        }
    }
}

/// Counters the event loop keeps about itself (the benchmark reads
/// these; they cost one compare per event). On sharded
/// runs these are the [`LoopStats::absorb`] fold over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Events popped and handled. Invariant across shard counts: every
    /// shard count processes the same events.
    pub events: u64,
    /// Future-event-list population high-water mark, sampled at pop time.
    /// On sharded runs: the *sum* of per-shard peaks — an upper bound on
    /// the global population (shards need not peak at the same instant),
    /// deterministic for a given shard count.
    pub peak_queue_depth: usize,
    /// Always 0: the loop handles every event singly. The field stays only
    /// because the frozen `benchmark/src/sim_run.rs` names it; it goes with
    /// the next benchmark revision (ROADMAP item 2(e)).
    pub coalesced: u64,
    /// Epoch rounds the coupled protocol ran (0 when every shard drained
    /// independently). Deterministic for a given shard count, and
    /// identical for any worker count.
    pub epochs: u64,
    /// Times the solo fast path engaged: exactly one emitting shard held
    /// events before the global cross-shard horizon and drained with no
    /// peer bound — free-running until one lookahead past its first
    /// emission. Same determinism as `epochs`.
    pub solo_drains: u64,
    /// Non-empty outbox→inbox hand-offs: one per (sender, receiver, epoch)
    /// with traffic, however many messages the batch carried. Same
    /// determinism as `epochs`.
    pub inbox_flushes: u64,
}

impl LoopStats {
    /// Fold another shard's self-accounting into this one (see the field
    /// docs for the per-field semantics of the fold).
    pub fn absorb(&mut self, other: &LoopStats) {
        self.events += other.events;
        self.peak_queue_depth += other.peak_queue_depth;
        self.epochs += other.epochs;
        self.solo_drains += other.solo_drains;
        self.inbox_flushes += other.inbox_flushes;
    }
}

/// What one completed run hands back to the reporting layer.
#[derive(Debug)]
pub struct RawRunOutput {
    /// All collected series and counters.
    pub metrics: Metrics,
    /// Per-OST control-plane overhead (empty under the baselines).
    pub overheads: Vec<ControllerOverhead>,
    /// The horizon the run covered.
    pub end: SimTime,
    /// Event-loop self-accounting.
    pub loop_stats: LoopStats,
    /// Fault-machinery accounting (all zero on fault-free runs).
    pub fault_stats: FaultStats,
}

impl RawRunOutput {
    /// Fold into the common [`RunReport`], one outcome per job in `jobs`.
    pub fn into_report(self, scenario: String, policy: Policy, jobs: &[JobId]) -> RunReport {
        RunReport::from_run(
            scenario,
            policy.name(),
            self.end.since(SimTime::ZERO),
            self.metrics,
            jobs,
            self.overheads,
            self.fault_stats,
        )
    }
}

/// The assembled simulation, ready to [`Cluster::run`].
///
/// Internally a *blueprint*: global entity state plus the canonical
/// build-time event list. [`Cluster::run`] partitions it into
/// [`Cluster::shards`]-many shards and executes.
pub struct Cluster {
    policy: Policy,
    cfg: ClusterConfig,
    procs: Vec<ProcessState>,
    osts: Vec<OstState>,
    /// Build-time events in canonical order: their keys are
    /// `(lane 0 << LANE_SHIFT) | position`.
    build_events: Vec<(SimTime, Event)>,
    /// `(job, released)` pairs applied — in order, later wins — to the
    /// merged metrics before completion reconstruction.
    released: Vec<(JobId, u64)>,
    /// Header for recorded traces (wiring + policy + horizon of this run).
    trace_meta: TraceMeta,
    n_shards: usize,
}

impl Cluster {
    /// Build a cluster for `scenario` under `policy` with the default
    /// testbed wiring.
    pub fn build(scenario: &Scenario, policy: Policy, seed: u64) -> Self {
        Self::build_with(scenario, policy, seed, ClusterConfig::default())
    }

    /// Build with explicit wiring.
    pub fn build_with(scenario: &Scenario, policy: Policy, seed: u64, cfg: ClusterConfig) -> Self {
        check_wiring(&cfg);
        let mut build_events = crash_events(&cfg.faults);
        // Clients & processes: file-per-process, placed over clients and
        // OSTs by the shared `client_of`/`base_ost` rule.
        let mut procs = Vec::new();
        for job in &scenario.jobs {
            for spec in &job.processes {
                let idx = procs.len();
                let mut state = ProcessState::new(
                    job.id,
                    ProcId(idx as u32),
                    ClientId(client_of(idx, cfg.n_clients) as u32),
                    base_ost(idx, cfg.n_osts),
                    spec.max_inflight,
                    cfg.ost.rpc_size,
                );
                let chunks = spec.pattern.arrivals(spec.file_rpcs, scenario.duration);
                if let Some(think) = spec.pattern.think_spec() {
                    // Closed-loop burster: follow-on bursts are released
                    // at run time.
                    let statically_released: u64 = chunks.iter().map(|c| c.rpcs).sum();
                    state.think = Some(think);
                    state.unreleased = spec.file_rpcs - statically_released;
                }
                procs.push(state);
                build_events.extend(chunks.into_iter().map(|c| {
                    let rpcs = c.rpcs;
                    (c.at, Event::WorkArrival { proc: idx, rpcs })
                }));
            }
        }
        Self::assemble(
            &scenario.name,
            policy,
            seed,
            cfg,
            scenario.duration,
            scenario.job_weights(),
            procs,
            build_events,
            scenario.released_by_job(),
        )
    }

    /// Build a cluster that *replays* a recorded (or externally authored)
    /// trace: every recorded OSS arrival is re-injected at its recorded
    /// instant against its recorded OST, so the scheduler, controller and
    /// disk model face exactly the arrival sequence of the original run.
    /// There are no client processes in this mode (the trace *is* the
    /// client side).
    ///
    /// Replaying a recording with the same policy, seed and wiring as the
    /// recording reproduces its per-job served bytes exactly (asserted by
    /// `tests/trace_replay.rs`). A different policy/seed answers "what
    /// would this controller have done with that exact traffic?".
    pub fn build_replay(trace: &Trace, policy: Policy, seed: u64, cfg: ClusterConfig) -> Self {
        check_wiring(&cfg);
        assert!(
            cfg.n_osts >= trace.meta.n_osts,
            "replay wiring has {} OSTs but the trace targets {}",
            cfg.n_osts,
            trace.meta.n_osts
        );
        let mut build_events = crash_events(&cfg.faults);
        build_events.extend(trace.records.iter().map(|rec| {
            let (ost, rpc) = (rec.ost, rec.rpc);
            (rec.at, Event::ArriveAtOss { ost, rpc })
        }));
        // Released = what actually arrives during replay, so completion
        // detection and report tables stay meaningful.
        let mut released: Vec<(JobId, u64)> =
            trace.meta.jobs.iter().map(|&(job, _)| (job, 0)).collect();
        released.extend(trace.rpcs_per_job());
        Self::assemble(
            &trace.meta.scenario,
            policy,
            seed,
            cfg,
            trace.meta.duration,
            trace.meta.jobs.clone(),
            Vec::new(),
            build_events,
            released,
        )
    }

    /// The shared tail of both builders: one assembled [`OstNode`] per OST
    /// and, under AdapTBF, each OST's first control tick. `jobs` carries
    /// `(id, nodes)` in declaration order (rule installation order matters
    /// for first-match-wins semantics). The node assembly itself — static
    /// rule resolution, controller wiring — is the engine-agnostic
    /// [`OstNode::new`] the live runtime uses too; only the tick
    /// *scheduling* is executor-specific (events here, wall-clock
    /// deadlines there).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        scenario: &str,
        policy: Policy,
        seed: u64,
        cfg: ClusterConfig,
        duration: SimDuration,
        jobs: Vec<(JobId, u64)>,
        procs: Vec<ProcessState>,
        mut build_events: Vec<(SimTime, Event)>,
        released: Vec<(JobId, u64)>,
    ) -> Self {
        let osts = (0..cfg.n_osts)
            .map(|i| {
                let node =
                    OstNode::new(policy, cfg.tbf, &jobs, cfg.static_rate_total, SimTime::ZERO);
                let mut ost = OstState::new(cfg.ost, node, seed ^ (0xD15C << 8) ^ i as u64);
                ost.reserve_jobs(jobs.len());
                ost
            })
            .collect();
        if let Some(period) = policy.period() {
            let first = SimTime::ZERO + period;
            build_events.extend((0..cfg.n_osts).map(|ost| (first, Event::ControllerTick { ost })));
        }
        let (policy_name, period_ms) = policy.trace_header();
        Cluster {
            policy,
            cfg,
            procs,
            osts,
            build_events,
            released,
            trace_meta: TraceMeta {
                scenario: scenario.to_string(),
                seed,
                policy: policy_name,
                period_ms,
                duration,
                n_clients: cfg.n_clients,
                n_osts: cfg.n_osts,
                stripe_count: cfg.stripe_count,
                faults: cfg.faults,
                recorded_by: None,
                jobs,
            },
            // `ADAPTBF_SHARDS` if set, else 1: an execution parameter, not
            // wiring — see [`Cluster::shards`].
            n_shards: crate::run_grid::env_count("ADAPTBF_SHARDS").unwrap_or(1),
        }
    }

    /// Split the run over `n` event-loop shards (clamped to at least 1).
    ///
    /// Purely an execution parameter: reports, traces and digests are
    /// byte-identical for every shard count, so it never appears in
    /// `ClusterConfig` or trace headers. Defaults to the
    /// `ADAPTBF_SHARDS` environment variable (1 if unset), which lets
    /// whole test suites be re-run sharded without touching call sites.
    pub fn shards(mut self, n: usize) -> Self {
        self.n_shards = n.max(1);
        self
    }

    /// Execute the run to its horizon and return the collected metrics.
    pub fn run(self) -> RawRunOutput {
        self.execute(false, windows::run_sharded).0
    }

    /// Execute the run with the recorder hook enabled: every OSS arrival
    /// is captured, and the run hands back the [`Trace`] alongside its
    /// metrics. Feed the trace to [`Cluster::build_replay`] (or serialize
    /// it with [`Trace::to_text`]).
    pub fn run_traced(self) -> (RawRunOutput, Trace) {
        let (out, trace) = self.execute(true, windows::run_sharded);
        (out, trace.expect("recorder enabled"))
    }

    /// Partition the blueprint into shards and run them to the horizon,
    /// capturing every OSS arrival when `record` is set. `drive` runs a
    /// multi-shard partition and returns its epoch count — always
    /// [`windows::run_sharded`] outside this module's tests.
    fn execute(
        mut self,
        record: bool,
        drive: impl FnOnce(&Shared, &mut [Shard]) -> u64,
    ) -> (RawRunOutput, Option<Trace>) {
        let lookahead = min_latency(&self.cfg.network);
        // Which shards can ever touch cross-shard traffic? A static
        // analysis of the wiring: shards with no boundary stripe edge
        // neither send nor receive and drain independently. Shard counts
        // beyond the OST count are allowed — the surplus shards are
        // simply empty (nothing routes to them).
        let mut n_shards = self.n_shards;
        let mut emits = windows::compute_emits(
            n_shards,
            self.osts.len(),
            &self.procs,
            self.cfg.stripe_count,
            self.cfg.faults.ost_crash.is_some(),
        );
        // A coupled run with zero lookahead cannot make epoch progress;
        // degrade to one shard (plain drain) rather than livelock.
        if emits.iter().any(|&e| e) && lookahead == SimDuration::ZERO {
            n_shards = 1;
            emits = vec![false];
        }
        let released = std::mem::take(&mut self.released);
        let trace_meta = record.then(|| self.trace_meta.clone());
        let bucket = self.cfg.bucket;
        let (shared, mut shards) = self.partition(n_shards, lookahead, emits, record);

        let mut epochs = 0;
        if let [only] = &mut shards[..] {
            only.drain(&shared);
        } else {
            epochs = drive(&shared, &mut shards);
        }
        if shared.faults.ost_crash.is_some() {
            for shard in &mut shards {
                shard.count_undelivered_remainder();
            }
        }

        let (mut out, trace) =
            merge::merge_outputs(shards, &released, shared.end, bucket, trace_meta);
        out.loop_stats.epochs = epochs;
        (out, trace)
    }

    /// Distribute entities and build-time events over `n_shards` shards.
    /// OST ranges are contiguous (`s·n/N .. (s+1)·n/N`); each process
    /// lives with its base OST, so single-stripe traffic never leaves its
    /// shard. Entity seeds and key lanes use *global* indices — identical
    /// for every shard count.
    fn partition(
        mut self,
        n_shards: usize,
        lookahead: SimDuration,
        emits: Vec<bool>,
        record: bool,
    ) -> (Shared, Vec<Shard>) {
        let n_osts = self.osts.len();
        let n_procs = self.procs.len();
        let ost_shard = windows::ost_shard_map(n_osts, n_shards);
        let mut ost_local = vec![0u32; n_osts];
        let mut shard_osts: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (o, &s) in ost_shard.iter().enumerate() {
            let members = &mut shard_osts[s as usize];
            ost_local[o] = members.len() as u32;
            members.push(o);
        }
        let mut proc_shard = vec![0u32; n_procs];
        let mut proc_local = vec![0u32; n_procs];
        let mut shard_procs: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for p in 0..n_procs {
            let s = ost_shard[self.procs[p].ost] as usize;
            proc_shard[p] = s as u32;
            proc_local[p] = shard_procs[s].len() as u32;
            shard_procs[s].push(p);
        }

        let shared = Shared {
            policy: self.policy,
            end: SimTime::ZERO + self.trace_meta.duration,
            network: self.cfg.network,
            stripe_count: self.cfg.stripe_count,
            n_osts,
            faults: self.cfg.faults,
            // No client processes ⇔ the arrivals come from a trace.
            replay: self.procs.is_empty(),
            lookahead,
            emits,
            ost_shard,
            ost_local,
            proc_shard,
            proc_local,
        };

        // Route every build-time event once, up front: the per-shard
        // totals pre-size each shard's calendar spill heap exactly (the
        // build list *is* the far-future population — run-time pushes are
        // near-cursor), and the routes are reused by the push loop below.
        let build_events = std::mem::take(&mut self.build_events);
        let mut shard_load = vec![0usize; n_shards];
        let dests: Vec<u32> = build_events
            .iter()
            .map(|(at, ev)| {
                let dest = match ev {
                    Event::OstCrash { ost }
                    | Event::OstRecover { ost }
                    | Event::ControllerTick { ost } => shared.ost_shard[*ost] as usize,
                    Event::WorkArrival { proc, .. } => shared.proc_shard[*proc] as usize,
                    Event::ArriveAtOss { ost, rpc } => shared.dest_shard(*ost, *at, rpc),
                    _ => unreachable!("only build-time events appear here"),
                };
                shard_load[dest] += 1;
                dest as u32
            })
            .collect();

        let mut osts: Vec<Option<OstState>> = self.osts.into_iter().map(Some).collect();
        let mut procs: Vec<Option<ProcessState>> = self.procs.into_iter().map(Some).collect();
        let seed = self.trace_meta.seed;
        let mut shards: Vec<Shard> = (0..n_shards)
            .map(|s| {
                let ost_ids = std::mem::take(&mut shard_osts[s]);
                let proc_ids = std::mem::take(&mut shard_procs[s]);
                let mut metrics = Metrics::new(self.cfg.bucket);
                metrics.reserve_jobs(self.trace_meta.jobs.len());
                metrics.reserve_buckets(shared.end.bucket_index(self.cfg.bucket) + 1);
                let mut queue = EventQueue::new();
                queue.reserve(shard_load[s] + 2 * ost_ids.len() + 16);
                Shard {
                    id: s,
                    queue,
                    osts: ost_ids
                        .iter()
                        .map(|&o| osts[o].take().expect("each OST joins one shard"))
                        .collect(),
                    reply_rngs: ost_ids
                        .iter()
                        .map(|&o| SmallRng::seed_from_u64(seed ^ (0x2E70 << 16) ^ o as u64))
                        .collect(),
                    epochs: vec![0; ost_ids.len()],
                    cycles: vec![0; ost_ids.len()],
                    ost_seq: vec![0; ost_ids.len()],
                    procs: proc_ids
                        .iter()
                        .map(|&p| procs[p].take().expect("each proc joins one shard"))
                        .collect(),
                    proc_rngs: proc_ids
                        .iter()
                        .map(|&p| SmallRng::seed_from_u64(seed ^ (0x2E70 << 32) ^ p as u64))
                        .collect(),
                    proc_resume: vec![None; proc_ids.len()],
                    proc_seq: vec![0; proc_ids.len()],
                    ost_ids,
                    proc_ids,
                    metrics,
                    fault_stats: FaultStats::default(),
                    loop_stats: LoopStats::default(),
                    recorder: record.then(Vec::new),
                    issue_scratch: Vec::with_capacity(32),
                    outbox: (0..n_shards).map(|_| Vec::new()).collect(),
                    min_shipped_ns: u64::MAX,
                }
            })
            .collect();

        // Build-time events ride lane 0 with their position as the
        // sequence — the canonical order the single-queue builder pushed
        // them in, regardless of which shard queue each lands in.
        for (build_seq, ((at, ev), dest)) in build_events.into_iter().zip(dests).enumerate() {
            shards[dest as usize]
                .queue
                .push_keyed(at, build_seq as u64, ev);
        }
        (shared, shards)
    }
}

/// Reject malformed wirings and fault plans at build time (the
/// scenario-file surface reports the same conditions as parse errors).
fn check_wiring(cfg: &ClusterConfig) {
    if let Err(e) = validate_wiring(cfg.n_clients, cfg.n_osts, cfg.stripe_count, &cfg.faults) {
        panic!("{e}");
    }
}

/// The head of the build list: the fault plan's crash/recovery pair.
/// First in the list, so their lane-0 keys are the smallest of the run: at
/// identical timestamps the window flips *before* same-instant arrivals
/// are delivered — in the recording and in every replay alike.
fn crash_events(faults: &FaultPlan) -> Vec<(SimTime, Event)> {
    faults.ost_crash.map_or_else(Vec::new, |crash| {
        let ost = crash.ost;
        vec![
            (crash.from, Event::OstCrash { ost }),
            (crash.recovery_at(), Event::OstRecover { ost }),
        ]
    })
}

#[cfg(test)]
mod tests;
