//! One shard of the simulated cluster: the events it handles, the
//! read-only run context every shard shares, and the per-shard state
//! machine — RPC issue, crash-aware delivery, dispatch onto I/O threads,
//! the control tick, crash/recovery.

use super::LoopStats;
use crate::client::ProcessState;
use crate::engine::EventQueue;
use crate::network::draw_latency;
use crate::ost::OstState;
use adaptbf_model::{NetworkConfig, Rpc, SimDuration, SimTime};
use adaptbf_node::{FaultStats, Metrics, Policy};
use adaptbf_tbf::SchedDecision;
use adaptbf_workload::faults::{stripe_ost, FaultPlan, Route};
use adaptbf_workload::trace::TraceRecord;
use rand::rngs::SmallRng;

/// Bit position of the lane id inside a canonical event key; the low bits
/// are the pushing lane's private sequence number.
const LANE_SHIFT: u32 = 40;

#[derive(Debug, Clone)]
pub(super) enum Event {
    WorkArrival {
        proc: usize,
        rpcs: u64,
    },
    /// `ost` is the *addressed* OST (pre-re-route); the shard that owns
    /// the final destination receives the event and re-derives the route.
    ArriveAtOss {
        ost: usize,
        rpc: Rpc,
    },
    /// `epoch` snapshots the OST's crash epoch at service start: a crash
    /// bumps the epoch, so completions of RPCs the dead threads were
    /// holding arrive stale and are treated as lost (client resends).
    ServiceDone {
        ost: usize,
        rpc: Rpc,
        epoch: u32,
    },
    ThreadWake {
        ost: usize,
        at: SimTime,
    },
    ReplyAtClient {
        proc: usize,
    },
    ControllerTick {
        ost: usize,
    },
    /// The fault plan's OST crash window opens.
    OstCrash {
        ost: usize,
    },
    /// …and closes: the OST rejoins with empty bucket state.
    OstRecover {
        ost: usize,
    },
    /// A client resend / redelivery of an RPC the fault machinery
    /// displaced. Bypasses the recorder: a replay regenerates these
    /// deterministically from the fault plan in the trace header, so
    /// recording them too would double-inject on replay.
    FaultResend {
        ost: usize,
        rpc: Rpc,
    },
    /// A churned-offline process rejoins and resumes issuing.
    ProcResume {
        proc: usize,
    },
}

/// A cross-shard event in flight: buffered in the sender's outbox during
/// an epoch, delivered into the destination shard's queue before the next
/// one. The canonical key makes delivery order irrelevant — the queue
/// restores the exact global `(time, key)` order.
pub(super) struct Msg {
    pub(super) at: SimTime,
    pub(super) key: u64,
    pub(super) event: Event,
}

/// Immutable run-wide context shared (read-only) by every shard.
pub(super) struct Shared {
    pub(super) policy: Policy,
    pub(super) end: SimTime,
    pub(super) network: NetworkConfig,
    pub(super) stripe_count: usize,
    pub(super) n_osts: usize,
    pub(super) faults: FaultPlan,
    /// Replay mode: arrivals come from a trace, so there are no client
    /// processes and no reply path.
    pub(super) replay: bool,
    /// The conservative lookahead `L`: minimum one-way network latency.
    pub(super) lookahead: SimDuration,
    /// Per shard: whether it can ever send a cross-shard message (see
    /// `windows::compute_emits`). Non-emitting shards never receive
    /// either, so they drain independently.
    pub(super) emits: Vec<bool>,
    /// OST → owning shard.
    pub(super) ost_shard: Vec<u32>,
    /// OST → index within its shard.
    pub(super) ost_local: Vec<u32>,
    /// Process → owning shard (the shard of its base OST).
    pub(super) proc_shard: Vec<u32>,
    /// Process → index within its shard.
    pub(super) proc_local: Vec<u32>,
}

impl Shared {
    /// Where an RPC addressed to `ost` lands at `at` — the shared pure
    /// [`FaultPlan::route`], so a sender (computing the destination
    /// shard) and the receiver (delivering) agree with no shared flag.
    /// The crash/recovery events carry the smallest possible keys at
    /// their instants, so at `t == from` every same-instant event already
    /// sees the window open, and at recovery already sees it closed.
    #[inline]
    fn route(&self, ost: usize, rpc: &Rpc, at: SimTime) -> Route {
        let proc = rpc.proc_id.raw() as usize;
        self.faults
            .route(ost, proc, self.n_osts, self.stripe_count, at)
    }

    /// The shard that must handle a (re)delivery addressed to `ost` at
    /// `at`: the survivor's shard when the crash window re-routes, the
    /// addressed OST's own shard otherwise (including when the RPC will
    /// park there). Senders call this at push time; the handling shard
    /// re-derives the identical route at delivery time.
    pub(super) fn dest_shard(&self, ost: usize, at: SimTime, rpc: &Rpc) -> usize {
        match self.route(ost, rpc, at) {
            Route::Reroute(survivor) => self.ost_shard[survivor] as usize,
            Route::Local | Route::Park => self.ost_shard[ost] as usize,
        }
    }

    /// Canonical key lane of an OST.
    #[inline]
    fn ost_lane(&self, ost: usize) -> u64 {
        1 + ost as u64
    }

    /// Canonical key lane of a client process.
    #[inline]
    fn proc_lane(&self, proc: usize) -> u64 {
        1 + self.n_osts as u64 + proc as u64
    }
}

/// One shard: a contiguous range of OSTs, the processes based on them,
/// and a private event queue plus private metric/fault/loop accounting
/// (merged across shards at run end).
pub(super) struct Shard {
    pub(super) id: usize,
    pub(super) queue: EventQueue<Event>,
    /// Global ids of the OSTs this shard owns (ascending).
    pub(super) ost_ids: Vec<usize>,
    pub(super) osts: Vec<OstState>,
    /// Per-OST reply-latency stream — separate from the OST's service
    /// stream so replay (which draws no replies) keeps service draws in
    /// sync with the recording.
    pub(super) reply_rngs: Vec<SmallRng>,
    pub(super) epochs: Vec<u32>,
    /// Control cycles attempted per OST (including stalled ones).
    pub(super) cycles: Vec<u64>,
    /// Per-OST-lane key sequence counters.
    pub(super) ost_seq: Vec<u64>,
    /// Global ids of the processes this shard owns (ascending).
    pub(super) proc_ids: Vec<usize>,
    pub(super) procs: Vec<ProcessState>,
    /// Per-process forward-latency stream.
    pub(super) proc_rngs: Vec<SmallRng>,
    /// Per-process dedup of pending churn-resume events.
    pub(super) proc_resume: Vec<Option<SimTime>>,
    /// Per-proc-lane key sequence counters.
    pub(super) proc_seq: Vec<u64>,
    pub(super) metrics: Metrics,
    pub(super) fault_stats: FaultStats,
    pub(super) loop_stats: LoopStats,
    /// When `Some`, every OSS arrival is captured here with the event's
    /// canonical key, so per-shard captures merge back into the global
    /// processing order.
    pub(super) recorder: Option<Vec<(u64, TraceRecord)>>,
    /// Scratch buffer for issued RPCs (reused across every `try_issue`).
    pub(super) issue_scratch: Vec<Rpc>,
    /// Per-destination-shard buffers of cross-shard events produced this
    /// epoch.
    pub(super) outbox: Vec<Vec<Msg>>,
    /// Earliest maturity (nanos) shipped cross-shard in the current
    /// window — `u64::MAX` when nothing has been emitted yet. Reset by
    /// [`Shard::run_capped`]; [`Shard::ship`] lowers it on every outbox
    /// push. A shard running past its peers' promises must stop at
    /// `min_shipped_ns + L`: a message it sends can wake a peer earlier
    /// than that peer's published next-event time, and the earliest
    /// reply that wake-up can produce matures one lookahead after it.
    pub(super) min_shipped_ns: u64,
}

impl Shard {
    /// Next canonical key on a local OST's lane.
    #[inline]
    fn ost_key(&mut self, sh: &Shared, local: usize) -> u64 {
        let seq = self.ost_seq[local];
        self.ost_seq[local] += 1;
        (sh.ost_lane(self.ost_ids[local]) << LANE_SHIFT) | seq
    }

    /// Next canonical key on a local process's lane.
    #[inline]
    fn proc_key(&mut self, sh: &Shared, local: usize) -> u64 {
        let seq = self.proc_seq[local];
        self.proc_seq[local] += 1;
        (sh.proc_lane(self.proc_ids[local]) << LANE_SHIFT) | seq
    }

    /// Push locally or buffer for the owning shard.
    #[inline]
    fn ship(&mut self, dest: usize, at: SimTime, key: u64, event: Event) {
        if dest == self.id {
            self.queue.push_keyed(at, key, event);
        } else {
            self.outbox[dest].push(Msg { at, key, event });
            self.min_shipped_ns = self.min_shipped_ns.min(at.as_nanos());
        }
    }

    /// Deliver an epoch's incoming cross-shard events. Push order is
    /// irrelevant: the queue orders strictly by `(time, key)` and keys
    /// are globally unique.
    pub(super) fn deliver_inbox(&mut self, inbox: &mut Vec<Msg>) {
        for m in inbox.drain(..) {
            self.queue.push_keyed(m.at, m.key, m.event);
        }
    }

    #[inline]
    pub(super) fn note_pop(&mut self) {
        self.loop_stats.events += 1;
        let depth = self.queue.len() + 1;
        if depth > self.loop_stats.peak_queue_depth {
            self.loop_stats.peak_queue_depth = depth;
        }
    }

    /// Drain this shard to the horizon with no epoch windows — the
    /// independent mode for runs that provably generate no cross-shard
    /// traffic.
    pub(super) fn drain(&mut self, sh: &Shared) {
        let end = sh.end;
        while let Some((now, key, event)) = self.queue.pop_entry_if(|t, _| t <= end) {
            self.note_pop();
            self.handle(sh, event, now, key);
        }
        debug_assert!(
            self.outbox.iter().all(|o| o.is_empty()),
            "independent shard produced cross-shard traffic"
        );
    }

    /// Tally displaced RPCs the horizon cut off: a `FaultResend` still
    /// queued past the end is an RPC the run ended too early to
    /// redeliver.
    pub(super) fn count_undelivered_remainder(&mut self) {
        while let Some((_, event)) = self.queue.pop() {
            if matches!(event, Event::FaultResend { .. }) {
                self.fault_stats.undelivered += 1;
            }
        }
    }

    pub(super) fn handle(&mut self, sh: &Shared, event: Event, now: SimTime, key: u64) {
        match event {
            Event::WorkArrival { proc, rpcs } => {
                let l = sh.proc_local[proc] as usize;
                self.procs[l].add_work(rpcs);
                self.try_issue(sh, proc, now);
            }
            Event::ArriveAtOss { ost, rpc } => {
                // Recorded with the *addressed* OST, before any crash
                // re-routing: replays re-inject exactly these arrivals and
                // re-derive the re-route from the fault plan in the header.
                if let Some(records) = self.recorder.as_mut() {
                    records.push((key, TraceRecord { at: now, ost, rpc }));
                }
                self.metrics.on_arrival(rpc.job, now);
                self.deliver(sh, ost, rpc, now, true);
            }
            Event::FaultResend { ost, rpc } => {
                // A client resend or redelivery: demand was counted at the
                // first arrival and the RPC is already counted displaced,
                // so only the OSS-side bookkeeping repeats.
                self.deliver(sh, ost, rpc, now, false);
            }
            Event::ServiceDone { ost, rpc, epoch } => {
                let l = sh.ost_local[ost] as usize;
                if epoch != self.epochs[l] {
                    // The thread serving this RPC died with the OST: the
                    // client never sees a reply and resends after its
                    // timeout. The timeout anchors at the *loss* — the
                    // crash instant — like the drained backlog's; the
                    // `max` guards a service so long it outlives the whole
                    // timeout, and floors the resend one network hop out
                    // (a resend crosses the wire, and cross-shard delivery
                    // requires the lookahead).
                    self.fault_stats.lost_in_service += 1;
                    self.fault_stats.resent += 1;
                    let crash = sh
                        .faults
                        .ost_crash
                        .expect("stale epoch implies a crash window");
                    let at = (crash.from + crash.resend_after).max(now + sh.lookahead);
                    let key = self.ost_key(sh, l);
                    let dest = sh.dest_shard(ost, at, &rpc);
                    self.ship(dest, at, key, Event::FaultResend { ost, rpc });
                    return;
                }
                self.osts[l].end_service(&rpc);
                self.metrics.on_served_at(rpc.job, now, rpc.issued_at);
                // In replay mode the trace is the client side: there is no
                // process to reply to (and no window to open).
                if !sh.replay {
                    let latency = draw_latency(&sh.network, &mut self.reply_rngs[l]);
                    let key = self.ost_key(sh, l);
                    let proc = rpc.proc_id.raw() as usize;
                    let dest = sh.proc_shard[proc] as usize;
                    self.ship(dest, now + latency, key, Event::ReplyAtClient { proc });
                }
                self.dispatch(sh, l, now);
            }
            Event::ThreadWake { ost, at } => {
                let l = sh.ost_local[ost] as usize;
                if self.osts[l].pending_wake == Some(at) {
                    self.osts[l].pending_wake = None;
                    self.dispatch(sh, l, now);
                }
                // Otherwise stale: a nearer wake superseded this one (or a
                // duplicate for the same deadline already consumed it).
            }
            Event::ReplyAtClient { proc } => {
                let l = sh.proc_local[proc] as usize;
                self.procs[l].on_reply();
                self.try_issue(sh, proc, now);
                // Closed-loop bursters release their next burst `think`
                // after the current one fully completes.
                if let Some((think, rpcs)) = self.procs[l].take_next_burst() {
                    let key = self.proc_key(sh, l);
                    self.queue
                        .push_keyed(now + think, key, Event::WorkArrival { proc, rpcs });
                }
            }
            Event::ControllerTick { ost } => {
                self.controller_tick(sh, ost, now);
            }
            Event::OstCrash { ost } => {
                // The OST dies: thread pool, token buckets, rules and job
                // stats all vanish (and the daemon's rule bookkeeping with
                // them); the drained backlog is what the clients resend
                // once their RPC timeout expires.
                let l = sh.ost_local[ost] as usize;
                self.epochs[l] += 1;
                let mut lost = self.osts[l].crash_reset();
                // Clients resend in id order — per-process issue order,
                // processes ascending — regardless of how the dead
                // scheduler had them queued.
                lost.sort_unstable_by_key(|r| r.id.raw());
                self.fault_stats.resent += lost.len() as u64;
                let crash = sh
                    .faults
                    .ost_crash
                    .expect("crash event implies a crash window");
                let resend_at = (now + crash.resend_after).max(now + sh.lookahead);
                for rpc in lost {
                    let key = self.ost_key(sh, l);
                    let dest = sh.dest_shard(ost, resend_at, &rpc);
                    self.ship(dest, resend_at, key, Event::FaultResend { ost, rpc });
                }
            }
            Event::OstRecover { ost } => {
                // Rejoin with empty bucket state. AdapTBF reinstalls rules
                // on its next control cycle; Static BW's fixed rules must
                // come back now or the policy would silently degrade to
                // No BW on this OST for the rest of the run (the node
                // knows its policy and reinstalls them itself).
                let l = sh.ost_local[ost] as usize;
                self.osts[l].node.recover(now);
                self.dispatch(sh, l, now);
            }
            Event::ProcResume { proc } => {
                let l = sh.proc_local[proc] as usize;
                self.proc_resume[l] = None;
                self.try_issue(sh, proc, now);
            }
        }
    }

    /// Land `rpc` on its addressed OST, re-routing around a crash window:
    /// the next surviving member of the issuing process's stripe set takes
    /// it immediately (Lustre clients redirect striped I/O once an OST is
    /// marked inactive); with no survivor the RPC parks and is redelivered
    /// the instant the OST rejoins. `first` marks a first-hand
    /// (client-originated) arrival: only those count toward the
    /// re-route/park statistics, so every displaced RPC lands in exactly
    /// one `FaultStats` category. The sender already routed the event to
    /// the shard owning the *final* destination (park target = the
    /// addressed OST), so the re-derived route always lands locally.
    fn deliver(&mut self, sh: &Shared, ost: usize, rpc: Rpc, now: SimTime, first: bool) {
        let target = match sh.route(ost, &rpc, now) {
            Route::Local => ost,
            Route::Reroute(target) => {
                if first {
                    self.fault_stats.rerouted += 1;
                }
                target
            }
            Route::Park => {
                if first {
                    self.fault_stats.parked += 1;
                }
                let recover = sh
                    .faults
                    .ost_crash
                    .expect("crash window is open")
                    .recovery_at();
                // The park target is the addressed OST itself, owned
                // by this shard — and at recovery it is healthy, so
                // the redelivery stays local.
                let l = sh.ost_local[ost] as usize;
                let key = self.ost_key(sh, l);
                self.queue
                    .push_keyed(recover.max(now), key, Event::FaultResend { ost, rpc });
                return;
            }
        };
        debug_assert_eq!(
            sh.ost_shard[target] as usize, self.id,
            "sender misrouted an arrival"
        );
        let l = sh.ost_local[target] as usize;
        self.osts[l].node.job_stats.record_arrival(rpc.job);
        self.osts[l].node.scheduler.enqueue(rpc, now);
        self.dispatch(sh, l, now);
    }

    /// Issue whatever the process's window allows and ship it northbound,
    /// striping sequential RPCs over `stripe_count` OSTs.
    fn try_issue(&mut self, sh: &Shared, proc: usize, now: SimTime) {
        let l = sh.proc_local[proc] as usize;
        if let Some(until) = sh.faults.churn_offline_until(proc, now) {
            // Churned offline: work keeps accumulating client-side but
            // nothing is issued until the process rejoins. One resume
            // event per offline window.
            if self.proc_resume[l] != Some(until) {
                self.proc_resume[l] = Some(until);
                let key = self.proc_key(sh, l);
                self.queue
                    .push_keyed(until, key, Event::ProcResume { proc });
            }
            return;
        }
        let state = &mut self.procs[l];
        let base_ost = state.ost;
        let issued_before = state.issued;
        let mut rpcs = std::mem::take(&mut self.issue_scratch);
        rpcs.clear();
        state.issue_into(now, &mut rpcs);
        for (k, rpc) in rpcs.drain(..).enumerate() {
            let stripe = (issued_before as usize + k) % sh.stripe_count;
            let ost = stripe_ost(base_ost, stripe, sh.n_osts);
            let latency = draw_latency(&sh.network, &mut self.proc_rngs[l]);
            let at = now + latency;
            let key = self.proc_key(sh, l);
            let dest = sh.dest_shard(ost, at, &rpc);
            self.ship(dest, at, key, Event::ArriveAtOss { ost, rpc });
        }
        self.issue_scratch = rpcs;
    }

    /// Hand work to idle I/O threads until the pool is busy or the
    /// scheduler has nothing servable.
    fn dispatch(&mut self, sh: &Shared, l: usize, now: SimTime) {
        let ost = self.ost_ids[l];
        if sh.faults.crashed_at(ost, now) {
            return;
        }
        while self.osts[l].has_idle_thread() {
            match self.osts[l].node.scheduler.next(now) {
                SchedDecision::Serve(rpc) => {
                    let health = sh.faults.disk_factor(now);
                    let service = self.osts[l].begin_service_degraded(&rpc, health);
                    let epoch = self.epochs[l];
                    let key = self.ost_key(sh, l);
                    self.queue.push_keyed(
                        now + service,
                        key,
                        Event::ServiceDone { ost, rpc, epoch },
                    );
                }
                SchedDecision::WaitUntil(deadline) => {
                    if self.osts[l].pending_wake.is_none_or(|w| deadline < w) {
                        self.osts[l].pending_wake = Some(deadline);
                        let key = self.ost_key(sh, l);
                        self.queue.push_keyed(
                            deadline,
                            key,
                            Event::ThreadWake { ost, at: deadline },
                        );
                    }
                    break;
                }
                SchedDecision::Idle => break,
            }
        }
    }

    /// One control tick on one OST: the shared fault-gated cycle
    /// ([`adaptbf_node::OstNode::control_cycle`]), then this executor's
    /// share — schedule the next tick and re-dispatch.
    fn controller_tick(&mut self, sh: &Shared, ost: usize, now: SimTime) {
        let l = sh.ost_local[ost] as usize;
        let cycle = self.cycles[l];
        self.cycles[l] += 1;
        let gate = sh.faults.cycle_gate(cycle, sh.faults.crashed_at(ost, now));
        let ran = self.osts[l]
            .node
            .control_cycle(now, gate, &mut self.metrics);
        // Skipped cycles keep ticking: a crashed OSS resumes (and its
        // rules are recreated) after recovery, a hung daemon wakes up.
        self.schedule_next_tick(sh, l, now);
        if ran {
            // Rates changed: previously throttled queues may now be
            // servable.
            self.dispatch(sh, l, now);
        }
    }

    fn schedule_next_tick(&mut self, sh: &Shared, l: usize, now: SimTime) {
        if let Policy::AdapTbf(acfg) = sh.policy {
            let next = now + acfg.period;
            if next <= sh.end {
                let ost = self.ost_ids[l];
                let key = self.ost_key(sh, l);
                self.queue
                    .push_keyed(next, key, Event::ControllerTick { ost });
            }
        }
    }
}
