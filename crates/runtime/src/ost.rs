//! One OST as a real OS thread wrapping the shared control-plane node.
//!
//! Decentralization is structural here: a [`LiveOst`] thread owns its
//! [`OstNode`] — NRS/TBF scheduler, local `job_stats`, and, under AdapTBF,
//! its **own** controller — behind a channel; nothing is shared with other
//! OSTs (paper Section II-B). The node is the exact same assembly
//! `adaptbf-sim` embeds per simulated OST; only the drive differs: an
//! emulated I/O thread pool against the wall clock instead of a
//! discrete-event loop.
//!
//! The data path is batched for rate: clients submit [`LiveBatch`]es of
//! RPCs, the thread drains its ingest channel in bursts (one blocking
//! receive, then a non-blocking sweep), completions are signaled as
//! *counted* tokens — one `u64` per client process per loop pass instead
//! of one message per RPC — and every metric lands in this thread's
//! private [`OstShard`]. Completions are stamped at their **emulated
//! finish instants**, and each drained service immediately catch-up
//! dispatches the freed emulated I/O slot *at that instant*, so the
//! emulated disk never idles on scheduler wake-up lag and sub-millisecond
//! service quanta sustain full rate without busy-spinning.
//!
//! The full `FaultPlan` battery runs here. Time-indexed faults
//! (`disk_degrade`, `ost_crash` windows, churn) key off the wall clock;
//! cycle-indexed faults (`controller_stall`, `stats_loss_every`) key off a
//! per-OST deterministic cycle counter, exactly like the simulator's
//! `cycles[l]`. A crash window drives [`OstNode::crash_reset`] /
//! [`OstNode::recover`] and the same audited `FaultStats` partition the
//! sim guarantees: in-flight RPCs die with the I/O threads
//! (`lost_in_service`, resent after the client timeout), the queued
//! backlog drains to resends, and first-hand arrivals re-route ring-order
//! to a surviving stripe member (`rerouted`) or park until recovery
//! (`parked`). Redeliveries the horizon cuts off count `undelivered`.

use crate::clock::WallClock;
use crate::metrics::OstShard;
use adaptbf_model::{OstConfig, Rpc, SimDuration, SimTime};
use adaptbf_node::{ControllerOverhead, FaultStats, OstNode};
use adaptbf_tbf::SchedDecision;
use adaptbf_workload::faults::{FaultPlan, Route};
use adaptbf_workload::trace::TraceRecord;
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::thread::JoinHandle;
use std::time::Duration;

/// A batch of RPCs on the wire: metadata + payload + the issuing
/// process's completion path. Client issue batches carry RPCs of a single
/// process; crash-window handoffs and redeliveries travel as singletons.
#[derive(Debug)]
pub struct LiveBatch {
    /// RPC metadata (job, size, …), all from the same issuing process.
    pub rpcs: Vec<Rpc>,
    /// Bulk payload (cheaply cloned slice of a shared buffer).
    pub payload: Bytes,
    /// Where to signal completions: counted tokens, each worth that many
    /// completed RPCs of the issuing process.
    pub reply_to: Sender<u64>,
    /// `true` for a crash-window handoff from another OST (re-route or
    /// resend): demand and fault accounting already happened at the
    /// addressed OST, so the receiver only enqueues.
    pub handoff: bool,
}

/// Where one OST sits in the cluster — what the crash re-route needs to
/// re-derive a displaced RPC's stripe set, exactly like the simulator's
/// pure routing.
#[derive(Debug, Clone, Copy)]
pub struct OstWiring {
    /// This OST's index.
    pub index: usize,
    /// OSTs in the cluster.
    pub n_osts: usize,
    /// Stripe width processes spread their RPCs over.
    pub stripe_count: usize,
}

/// Final state returned when a live OST shuts down.
#[derive(Debug)]
pub struct OstFinal {
    /// RPCs fully serviced.
    pub served: u64,
    /// Final lending/borrowing records (AdapTBF only).
    pub records: std::collections::BTreeMap<adaptbf_model::JobId, i64>,
    /// Controller cycles executed (AdapTBF only).
    pub ticks: u64,
    /// Control-plane overhead accounting (AdapTBF only).
    pub overhead: Option<ControllerOverhead>,
    /// This OST's share of the crash/failover accounting (all zero unless
    /// this OST is the one a crash window targets).
    pub fault_stats: FaultStats,
    /// The thread's sealed metrics shard, folded by the cluster at join.
    pub shard: crate::metrics::OstShardOut,
}

/// Handle to a spawned OST thread.
pub struct LiveOstHandle {
    tx: Option<Sender<LiveBatch>>,
    join: Option<JoinHandle<OstFinal>>,
}

impl LiveOstHandle {
    /// A sender clients use to submit RPC batches.
    pub fn sender(&self) -> Sender<LiveBatch> {
        self.tx.as_ref().expect("OST running").clone()
    }

    /// Drop the ingest channel and join the thread, returning final state.
    pub fn shutdown(mut self) -> OstFinal {
        self.tx = None; // close our end; thread drains and exits
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .expect("OST thread panicked")
    }
}

/// Spawner for live OST threads.
pub struct LiveOst;

impl LiveOst {
    /// Spawn one OST thread around an assembled control-plane `node`.
    ///
    /// `rx` is the ingest end of the OST's channel (the cluster creates
    /// all channels up front so a crash window can hand work to peers);
    /// `peers` carries senders to the *other* OSTs — non-empty only on the
    /// OST a crash targets, `None` at its own slot. `payload` is the
    /// cluster's shared payload template, cloned for forwarded handoffs.
    /// `shard` is this thread's private slice of the run's collector.
    /// The thread stops serving at `horizon` — queued work past it is
    /// dropped, exactly like the simulator's run cutoff.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        name: String,
        tx: Sender<LiveBatch>,
        rx: Receiver<LiveBatch>,
        ost_cfg: OstConfig,
        node: OstNode,
        faults: FaultPlan,
        wiring: OstWiring,
        peers: Vec<Option<Sender<LiveBatch>>>,
        horizon: SimTime,
        clock: WallClock,
        shard: OstShard,
        seed: u64,
        payload: Bytes,
    ) -> LiveOstHandle {
        let join = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                run_ost(
                    rx, ost_cfg, node, faults, wiring, peers, horizon, clock, shard, seed, payload,
                )
            })
            .expect("spawn OST thread");
        LiveOstHandle {
            tx: Some(tx),
            join: Some(join),
        }
    }
}

struct InService {
    finish: SimTime,
    seq: u64,
    rpc: Rpc,
}

impl PartialEq for InService {
    fn eq(&self, other: &Self) -> bool {
        self.finish == other.finish && self.seq == other.seq
    }
}
impl Eq for InService {}
impl PartialOrd for InService {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InService {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish
            .cmp(&other.finish)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A displaced RPC waiting for its client-timeout resend (or, post-park,
/// its recovery-time redelivery). The reply path is re-derived from the
/// per-process reply map at redelivery time.
struct Resend {
    at: SimTime,
    rpc: Rpc,
}

/// Floor on idle waits: with sub-millisecond service quanta the next
/// emulated finish is almost always "now", and honoring it with a
/// microsecond sleep would spin the core. The finish-instant catch-up
/// dispatch in [`drain_due`] makes a late wake harmless — the emulated
/// timeline is reconstructed exactly — so the loop never sleeps for less
/// than this.
const MIN_WAIT: Duration = Duration::from_micros(200);

/// Emulated service time for one RPC dispatched at `at`: the configured
/// mean, stretched by any active device-degradation window, jittered.
#[inline]
fn service_time(
    ost_cfg: &OstConfig,
    faults: &FaultPlan,
    rng: &mut SmallRng,
    at: SimTime,
) -> SimDuration {
    let mean = ost_cfg.mean_service_secs() * faults.disk_factor(at);
    let j = ost_cfg.service_jitter;
    let factor = if j > 0.0 {
        1.0 + rng.gen_range(-j..=j)
    } else {
        1.0
    };
    SimDuration::from_secs_f64(mean * factor)
}

/// Drain every emulated service due by `cutoff`, recording each at its
/// **finish instant** (not the loop's wake time — the wall-clock
/// accounting bug this replaces silently absorbed scheduler wake-up lag
/// into latency), and catch-up dispatch the freed I/O slot at that same
/// instant. The chain — finish, serve, dispatch, finish… — reconstructs
/// the emulated disk's timeline exactly however late the thread wakes,
/// which is what lets sub-millisecond quanta run at full rate on coarse
/// wakes. Returns the number served; completions accumulate as counted
/// tokens in `done`.
#[allow(clippy::too_many_arguments)]
fn drain_due(
    busy: &mut BinaryHeap<Reverse<InService>>,
    cutoff: SimTime,
    node: &mut OstNode,
    ost_cfg: &OstConfig,
    faults: &FaultPlan,
    my: usize,
    rng: &mut SmallRng,
    seq: &mut u64,
    shard: &mut OstShard,
    done: &mut HashMap<u32, u64>,
) -> u64 {
    let mut served = 0u64;
    while busy.peek().is_some_and(|Reverse(s)| s.finish <= cutoff) {
        let Reverse(s) = busy.pop().expect("peeked");
        served += 1;
        shard.on_served(s.rpc.job, s.finish, s.rpc.issued_at);
        *done.entry(s.rpc.proc_id.raw()).or_insert(0) += 1;
        // The slot freed at `finish` would have picked up queued work at
        // that instant; the token bucket treats past instants as no-op
        // refills, so this replays the dispatch the emulated disk would
        // have made. Never inside a crash window — the pool is down.
        if !faults.crashed_at(my, s.finish) {
            if let SchedDecision::Serve(rpc) = node.scheduler.next(s.finish) {
                let service = service_time(ost_cfg, faults, rng, s.finish);
                busy.push(Reverse(InService {
                    finish: s.finish + service,
                    seq: *seq,
                    rpc,
                }));
                *seq += 1;
            }
        }
    }
    served
}

/// Send the accumulated completion counts, one token per process. A gone
/// issuer (horizon race) is fine — the token is simply dropped.
fn flush_done(reply: &HashMap<u32, Sender<u64>>, done: &mut HashMap<u32, u64>) {
    if done.is_empty() {
        return;
    }
    for (proc, n) in done.drain() {
        if let Some(tx) = reply.get(&proc) {
            let _ = tx.send(n);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_ost(
    rx: Receiver<LiveBatch>,
    ost_cfg: OstConfig,
    mut node: OstNode,
    faults: FaultPlan,
    wiring: OstWiring,
    peers: Vec<Option<Sender<LiveBatch>>>,
    horizon: SimTime,
    clock: WallClock,
    mut shard: OstShard,
    seed: u64,
    payload: Bytes,
) -> OstFinal {
    let buckets = horizon.bucket_index(shard.metrics().bucket) + 1;
    shard.metrics().reserve_buckets(buckets);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut busy: BinaryHeap<Reverse<InService>> = BinaryHeap::new();
    // Completion path per client process: the process's reply sender
    // (learned from its first batch) and the counted tokens accumulated
    // since the last flush.
    let mut reply: HashMap<u32, Sender<u64>> = HashMap::new();
    let mut done: HashMap<u32, u64> = HashMap::new();
    let mut seq = 0u64;
    let mut served = 0u64;
    let mut fault_stats = FaultStats::default();

    let my = wiring.index;
    let crash = faults.ost_crash.filter(|c| c.ost == my);
    let mut crash_done = false;
    let mut recover_done = false;
    // Displaced RPCs waiting for their resend deadline, and first-hand
    // arrivals parked until recovery (no surviving stripe member).
    let mut resends: Vec<Resend> = Vec::new();
    let mut parked: Vec<Rpc> = Vec::new();
    // Deterministic control-cycle counter: `controller_stall` and
    // `stats_loss_every` are indexed by it, identically to the simulator.
    let mut cycle = 0u64;

    // The controller's tick cadence comes from the node's policy; the
    // wall-clock deadline is this executor's analogue of the simulator's
    // ControllerTick event.
    let period = node.policy().period();
    let mut next_tick: Option<SimTime> = period.map(|p| clock.now() + p);

    let mut disconnected = false;
    loop {
        let now = clock.now();

        // 0. Crash-window transitions. At the crash instant the I/O
        // threads die and the control plane resets; at recovery the node
        // rejoins with empty bucket state and parked arrivals land.
        if let Some(c) = crash {
            if !crash_done && now >= c.from {
                crash_done = true;
                // Services finished strictly before the crash still count
                // (no catch-up dispatch here: anything the freed slots
                // would have picked up dies in the backlog instead, which
                // the crash_reset below turns into resends).
                while busy.peek().is_some_and(|Reverse(s)| s.finish < c.from) {
                    let Reverse(s) = busy.pop().expect("peeked");
                    served += 1;
                    shard.on_served(s.rpc.job, s.finish, s.rpc.issued_at);
                    *done.entry(s.rpc.proc_id.raw()).or_insert(0) += 1;
                }
                // The timeout anchors at the loss — the crash instant —
                // like the simulator's; `max(now)` guards a lagging thread.
                let resend_at = (c.from + c.resend_after).max(now);
                // In-flight RPCs die with their threads: the client never
                // sees a reply and resends after its timeout. Then the
                // queued backlog drains. Clients resend in id order —
                // per-process issue order — like the simulator.
                let mut in_service: Vec<Rpc> = busy.drain().map(|Reverse(s)| s.rpc).collect();
                let mut queued = node.crash_reset();
                fault_stats.lost_in_service += in_service.len() as u64;
                fault_stats.resent += (in_service.len() + queued.len()) as u64;
                for lost in [&mut in_service, &mut queued] {
                    lost.sort_unstable_by_key(|r| r.id.raw());
                    resends.extend(lost.iter().map(|&rpc| Resend { at: resend_at, rpc }));
                }
            }
            if crash_done && !recover_done && now >= c.recovery_at() {
                recover_done = true;
                node.recover(now);
                for rpc in parked.drain(..) {
                    node.job_stats.record_arrival(rpc.job);
                    node.scheduler.enqueue(rpc, now);
                }
            }
        }
        let crashed = faults.crashed_at(my, now);

        // The horizon cuts the run off exactly like the simulator's: due
        // completions still count (drained at their finish instants, all
        // <= horizon), queued and in-flight work is dropped; displaced
        // RPCs the run ends before redelivering are tallied `undelivered`
        // after the loop.
        if now >= horizon {
            served += drain_due(
                &mut busy, horizon, &mut node, &ost_cfg, &faults, my, &mut rng, &mut seq,
                &mut shard, &mut done,
            );
            break;
        }

        // 1. Redeliver due resends: to a surviving stripe member while the
        // window is open (parking when none survives), locally otherwise.
        if resends.iter().any(|r| r.at <= now) {
            let (due, later): (Vec<_>, Vec<_>) = resends.drain(..).partition(|r| r.at <= now);
            resends = later;
            for r in due {
                let proc = r.rpc.proc_id.raw();
                match faults.route(my, proc as usize, wiring.n_osts, wiring.stripe_count, now) {
                    Route::Local => {
                        node.job_stats.record_arrival(r.rpc.job);
                        node.scheduler.enqueue(r.rpc, now);
                    }
                    Route::Reroute(target) => {
                        if !hand_off(&peers[target], r.rpc, &payload, &reply[&proc]) {
                            fault_stats.undelivered += 1;
                        }
                    }
                    Route::Park => parked.push(r.rpc),
                }
            }
        }

        // 2. Complete services that are due — at their emulated finish
        // instants, chaining catch-up dispatches — then flush the counted
        // completion tokens (one message per process per pass).
        served += drain_due(
            &mut busy, now, &mut node, &ost_cfg, &faults, my, &mut rng, &mut seq, &mut shard,
            &mut done,
        );
        flush_done(&reply, &mut done);

        // 3. Controller cycle (AdapTBF only) — the shared node runs the
        // fault-gated collect → allocate → apply → clear sequence of the
        // paper's Figure 2 and the gauge walk, identically to the
        // simulator. The cycle counter advances even through skipped
        // cycles, so cycle-indexed faults hit the same cycle numbers as in
        // the simulator.
        if let Some(tick_at) = next_tick {
            if now >= tick_at {
                let gate = faults.cycle_gate(cycle, crashed);
                cycle += 1;
                node.control_cycle(now, gate, shard.metrics());
                // Schedule from *now*, like the simulator's
                // schedule_next_tick: if the thread lagged past a whole
                // period, anchoring on tick_at would fire an immediate
                // catch-up tick on freshly-cleared stats, which stops
                // every rule until the next real cycle.
                next_tick = Some(now + period.expect("tick scheduled implies a period"));
            }
        }

        // 4. Dispatch onto idle emulated I/O threads (never inside a
        // crash window — the pool is down).
        let mut tbf_wait: Option<SimTime> = None;
        while !crashed && busy.len() < ost_cfg.n_io_threads {
            match node.scheduler.next(now) {
                SchedDecision::Serve(rpc) => {
                    let service = service_time(&ost_cfg, &faults, &mut rng, now);
                    busy.push(Reverse(InService {
                        finish: now + service,
                        seq,
                        rpc,
                    }));
                    seq += 1;
                }
                SchedDecision::WaitUntil(deadline) => {
                    tbf_wait = Some(deadline);
                    break;
                }
                SchedDecision::Idle => break,
            }
        }

        // 5. Work out how long to sleep (never past the horizon).
        let next_finish = busy.peek().map(|Reverse(s)| s.finish);
        let crash_edge = crash.and_then(|c| match (crash_done, recover_done) {
            (false, _) => Some(c.from),
            (true, false) => Some(c.recovery_at()),
            (true, true) => None,
        });
        let next_resend = resends.iter().map(|r| r.at).min();
        let wake = [next_finish, tbf_wait, next_tick, crash_edge, next_resend]
            .into_iter()
            .flatten()
            .fold(horizon, SimTime::min);

        // 6. Exit when the world has hung up and all work is drained.
        if disconnected
            && busy.is_empty()
            && node.scheduler.pending() == 0
            && resends.is_empty()
            && parked.is_empty()
        {
            break;
        }

        // 7. Wait for traffic or the next deadline. Sub-millisecond
        // deadlines are floored at MIN_WAIT — the finish-instant drain
        // above reconstructs anything that came due in the meantime.
        let timeout = clock.until(wake).max(MIN_WAIT);
        if disconnected {
            // The channel reports Disconnected instantly; sleep to the
            // deadline instead of spinning.
            std::thread::sleep(timeout.min(Duration::from_millis(50)));
            continue;
        }
        match rx.recv_timeout(timeout) {
            Ok(batch) => {
                // Burst-drain whatever else is already buffered: one wake
                // amortizes over every queued batch.
                let now = clock.now();
                let mut next = Some(batch);
                while let Some(batch) = next {
                    ingest(
                        batch,
                        now,
                        &mut node,
                        &mut shard,
                        &mut reply,
                        &mut parked,
                        &mut fault_stats,
                        &faults,
                        wiring,
                        &peers,
                    );
                    next = rx.try_recv();
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => disconnected = true,
        }
    }
    flush_done(&reply, &mut done);

    // Displaced RPCs whose redelivery the run ended before: unserved but
    // never uncounted (the simulator's `count_undelivered_remainder`).
    fault_stats.undelivered += (resends.len() + parked.len()) as u64;

    OstFinal {
        served,
        records: node.ledger_records(),
        ticks: node.ticks(),
        overhead: node.overhead(),
        fault_stats,
        shard: shard.finish(),
    }
}

/// Hand a displaced RPC to the surviving OST behind `peer`. `false` when
/// the survivor already shut down (horizon race): the caller books the RPC
/// `undelivered` — lost, but never uncounted.
fn hand_off(
    peer: &Option<Sender<LiveBatch>>,
    rpc: Rpc,
    payload: &Bytes,
    reply_to: &Sender<u64>,
) -> bool {
    let handoff = LiveBatch {
        rpcs: vec![rpc],
        payload: payload.clone(),
        reply_to: reply_to.clone(),
        handoff: true,
    };
    let peer = peer.as_ref().expect("crashed OST wired to peers");
    peer.send(handoff).is_ok()
}

/// Absorb one ingest batch at wall instant `now`: learn the issuing
/// process's reply path, then enqueue (handoffs) or run the first-hand
/// arrival path (record, demand, crash re-route/park) per RPC.
#[allow(clippy::too_many_arguments)]
fn ingest(
    batch: LiveBatch,
    now: SimTime,
    node: &mut OstNode,
    shard: &mut OstShard,
    reply: &mut HashMap<u32, Sender<u64>>,
    parked: &mut Vec<Rpc>,
    fault_stats: &mut FaultStats,
    faults: &FaultPlan,
    wiring: OstWiring,
    peers: &[Option<Sender<LiveBatch>>],
) {
    debug_assert!(!batch.payload.is_empty());
    let my = wiring.index;
    let LiveBatch {
        rpcs,
        payload,
        reply_to,
        handoff,
    } = batch;
    if let Some(first) = rpcs.first() {
        debug_assert!(
            rpcs.iter().all(|r| r.proc_id == first.proc_id),
            "a batch carries one process's RPCs"
        );
        reply.entry(first.proc_id.raw()).or_insert(reply_to);
    }
    if handoff {
        // A crash-window handoff from a peer: demand, trace and fault
        // accounting already happened at the addressed OST.
        for rpc in rpcs {
            node.job_stats.record_arrival(rpc.job);
            node.scheduler.enqueue(rpc, now);
        }
        return;
    }
    let recording = shard.is_recording();
    for rpc in rpcs {
        // First-hand (client-originated) arrival: recorded with the
        // *addressed* OST before any crash re-routing, exactly like the
        // simulator's recorder — replays re-derive the re-route from the
        // plan.
        if recording {
            shard.on_record(TraceRecord {
                at: now,
                ost: my,
                rpc,
            });
        }
        shard.on_arrival(rpc.job, now);
        let proc = rpc.proc_id.raw();
        match faults.route(my, proc as usize, wiring.n_osts, wiring.stripe_count, now) {
            Route::Local => {
                node.job_stats.record_arrival(rpc.job);
                node.scheduler.enqueue(rpc, now);
            }
            Route::Reroute(target) => {
                fault_stats.rerouted += 1;
                if !hand_off(&peers[target], rpc, &payload, &reply[&proc]) {
                    fault_stats.undelivered += 1;
                }
            }
            Route::Park => {
                fault_stats.parked += 1;
                parked.push(rpc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LiveMetrics;
    use adaptbf_model::{ClientId, JobId, OpCode, ProcId, RpcId, TbfSchedulerConfig};

    fn rpc(id: u64, issued_ms: u64) -> Rpc {
        Rpc {
            id: RpcId(id),
            job: JobId(1),
            client: ClientId(0),
            proc_id: ProcId(0),
            op: OpCode::Write,
            size_bytes: 4096,
            issued_at: SimTime::from_millis(issued_ms),
        }
    }

    /// The satellite regression: a deliberately coarse tick (the loop
    /// wakes 10 s late) must not inflate the live latency histogram or
    /// smear the served timeline — completions are stamped at their
    /// emulated finish instants, and the freed slots catch-up dispatch the
    /// queued backlog at those instants, not at the wake.
    #[test]
    fn drain_due_serves_at_finish_under_a_coarse_tick() {
        // 1 emulated I/O thread at exactly 1 ms per RPC, no jitter.
        let cfg = OstConfig {
            n_io_threads: 1,
            disk_bw_bytes_per_s: 1000 * 4096,
            service_jitter: 0.0,
            rpc_size: 4096,
        };
        let faults = FaultPlan::none();
        let metrics = LiveMetrics::new(SimDuration::from_millis(100), 1, Vec::new());
        let mut shard = metrics.ost_shard(0);
        let mut node = OstNode::unruled(TbfSchedulerConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seq = 2u64;
        let mut done: HashMap<u32, u64> = HashMap::new();

        // Two services already in flight, finishing at 10 and 20 ms…
        let mut busy: BinaryHeap<Reverse<InService>> = BinaryHeap::new();
        busy.push(Reverse(InService {
            finish: SimTime::from_millis(10),
            seq: 0,
            rpc: rpc(0, 0),
        }));
        busy.push(Reverse(InService {
            finish: SimTime::from_millis(20),
            seq: 1,
            rpc: rpc(1, 5),
        }));
        // …and three more queued behind them at t=0.
        for id in 2..5 {
            node.scheduler.enqueue(rpc(id, 0), SimTime::ZERO);
        }

        // The thread wakes a full 10 s late.
        let served = drain_due(
            &mut busy,
            SimTime::from_secs(10),
            &mut node,
            &cfg,
            &faults,
            0,
            &mut rng,
            &mut seq,
            &mut shard,
            &mut done,
        );
        assert_eq!(served, 5, "the whole chain drains: 2 in flight + 3 queued");
        assert_eq!(done[&0], 5, "counted completion tokens accumulate");
        assert!(busy.is_empty() && node.scheduler.pending() == 0);

        let (folded, _) = metrics.fold(vec![shard.finish()], SimTime::from_secs(10));
        assert_eq!(folded.served_of(JobId(1)), 5);
        let latency = folded.latency_of(JobId(1)).expect("job 1 served");
        assert_eq!(latency.count(), 5);
        // True latencies are 10–15 ms (chained finishes 10, 11, 12, 13 ms
        // plus the 20 ms finish issued at 5 ms); the histogram's
        // power-of-two buckets bound each at <2x. A wake-time stamp would
        // read ~10 s.
        assert!(
            latency.p99() < SimDuration::from_millis(100),
            "coarse tick inflated latency: p99 {:?}",
            latency.p99()
        );
        // All five land in the first 100 ms timeline bucket, not at 10 s.
        let served_series = folded.served();
        let s = served_series.get(JobId(1)).expect("job served");
        assert_eq!(s.get(0), 5.0, "serves attributed to their finish bucket");
        assert_eq!(
            s.values.iter().sum::<f64>(),
            5.0,
            "nothing attributed at the wake instant"
        );
    }

    /// The catch-up chain respects the token bucket: a rate-limited
    /// scheduler must not burst the whole backlog at the first freed slot.
    #[test]
    fn drain_due_catch_up_respects_tbf_rates() {
        let cfg = OstConfig {
            n_io_threads: 1,
            disk_bw_bytes_per_s: 1000 * 4096,
            service_jitter: 0.0,
            rpc_size: 4096,
        };
        let faults = FaultPlan::none();
        let metrics = LiveMetrics::new(SimDuration::from_millis(100), 1, Vec::new());
        let mut shard = metrics.ost_shard(0);
        // 100 tokens/s for job 1: ~1 dispatch per 10 ms.
        let mut node = OstNode::unruled(TbfSchedulerConfig::default());
        node.scheduler.start_rule(
            "cap",
            adaptbf_tbf::RpcMatcher::Job(JobId(1)),
            100.0,
            1,
            SimTime::ZERO,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seq = 1u64;
        let mut done: HashMap<u32, u64> = HashMap::new();
        let mut busy: BinaryHeap<Reverse<InService>> = BinaryHeap::new();
        busy.push(Reverse(InService {
            finish: SimTime::from_millis(1),
            seq: 0,
            rpc: rpc(0, 0),
        }));
        for id in 1..100 {
            node.scheduler.enqueue(rpc(id, 0), SimTime::ZERO);
        }
        // Waking 50 ms late must serve roughly rate * elapsed, not the
        // whole backlog.
        let served = drain_due(
            &mut busy,
            SimTime::from_millis(50),
            &mut node,
            &cfg,
            &faults,
            0,
            &mut rng,
            &mut seq,
            &mut shard,
            &mut done,
        );
        assert!(
            served <= 20,
            "rate cap must hold through catch-up dispatch: served {served}"
        );
        assert!(node.scheduler.pending() > 70);
    }
}
