//! The NRS TBF scheduler: classification, deadline dispatch, fallback.
//!
//! This is the component in Figure 1 of the paper. A rule names one job
//! (see [`crate::matcher`]), and the invariant everything below rests on
//! is: **a job's waiting RPCs are all in its one ruled queue if a rule
//! names the job, else all in the fallback queue.** A ruled queue is a
//! FIFO whose token bucket enforces the rate of the first rule naming its
//! job. The **fallback queue** has no token limit and is served
//! opportunistically whenever no ruled queue is token-ready — Lustre's
//! guarantee that jobs without rules never starve.
//!
//! Dispatch order when an I/O thread asks for work ([`NrsTbfScheduler::next`]):
//!
//! 1. the token-ready ruled queue with the earliest deadline (ties broken by
//!    rule hierarchy weight, then arrival order);
//! 2. otherwise the head of the fallback queue;
//! 3. otherwise, if some ruled queue is waiting on tokens, tell the caller
//!    when to come back ([`SchedDecision::WaitUntil`]);
//! 4. otherwise [`SchedDecision::Idle`].
//!
//! ## One interner, one slot per job
//!
//! The scheduler owns the crate's only [`JobSlots`] interner. An enqueue
//! interns once, and the dense slot (assigned at first sight, stable for
//! the scheduler's lifetime) indexes everything the job has: its queue,
//! the first rule naming it (in [`RuleTable`]), its lane in the fallback
//! queue and its service counters — flat vectors, so the per-RPC path
//! costs array indexing rather than hash or ordered-map walks.
//! JobId-keyed shapes are folded only when
//! [`NrsTbfScheduler::stats`] is read, from counters that live on the
//! queues themselves, so the per-serve path performs no map updates.
//!
//! ## Rule changes move no RPC
//!
//! The daemon mutates every active job's rule once per observation
//! period, so the unit of mutation is the period's whole batch
//! ([`NrsTbfScheduler::transact`]). A rule names one job, so a rule change
//! never splits a queue; a job's waiting RPCs sit in one `VecDeque`
//! wherever they wait, so it never copies one either. A stop hands the
//! job's queue to the next rule naming the job, or parks the queue's deque
//! in the fallback queue as the job's lane, behind one new run; a start
//! takes the lane's deque back as its queue's FIFO and enters the queue in
//! the heap — O(1) each, whatever is parked (the `fallback` module); a
//! re-rate touches its job's one queue and re-keys its one heap entry. A
//! cycle costs O(rules changed) plus one rebuild of the rule table's
//! positions. The deadline heap is indexed by slot and holds exactly one
//! entry per schedulable queue: a queue that changes is re-keyed in place
//! and one that goes is taken out, so no entry is ever stale.

use crate::fallback::FallbackQueue;
use crate::heap::DeadlineHeap;
use crate::matcher::RpcMatcher;
use crate::queue::TbfQueue;
use crate::rule::{RuleTable, TbfRule};
use adaptbf_model::{JobId, JobSlots, ModelError, Rpc, RuleId, SimTime, TbfSchedulerConfig};
use std::collections::BTreeMap;
use std::mem::replace;

/// What the scheduler tells an idle I/O thread to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedDecision {
    /// Serve this RPC now.
    Serve(Rpc),
    /// No RPC is ready; one will be at the given instant.
    WaitUntil(SimTime),
    /// Nothing queued anywhere; sleep until an enqueue happens.
    Idle,
}

/// Service counters kept by the scheduler (a snapshot — see
/// [`NrsTbfScheduler::stats`]).
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// RPCs served from ruled (token-limited) queues.
    pub served_ruled: u64,
    /// RPCs served from the unruled fallback queue.
    pub served_fallback: u64,
    /// Per-job served counts (both paths).
    pub served_by_job: BTreeMap<JobId, u64>,
}

impl SchedulerStats {
    /// Total RPCs served.
    pub fn served_total(&self) -> u64 {
        self.served_ruled + self.served_fallback
    }
}

/// A rule to install: the arguments of [`NrsTbfScheduler::start_rule`] as
/// a value, so a transaction can carry any number of them.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpec {
    /// Human-readable rule name; `None` names the rule after its job's
    /// label (see [`TbfRule::name`]) without building the string.
    pub name: Option<String>,
    /// The job the rule names.
    pub matcher: RpcMatcher,
    /// Token refill rate in tokens/second.
    pub rate_tps: f64,
    /// Hierarchy weight.
    pub weight: u32,
}

/// The three rule parameters a queue actually binds to — a `Copy` view of
/// a [`TbfRule`] so the data path never clones the rule's name `String`
/// just to end a borrow of the rule table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RuleBinding {
    id: RuleId,
    weight: u32,
    rate_tps: f64,
}

impl From<&TbfRule> for RuleBinding {
    fn from(rule: &TbfRule) -> Self {
        RuleBinding {
            id: rule.id,
            weight: rule.weight,
            rate_tps: rule.rate_tps,
        }
    }
}

/// The Lustre-style NRS TBF scheduler for one OST.
#[derive(Debug)]
pub struct NrsTbfScheduler {
    config: TbfSchedulerConfig,
    rules: RuleTable,
    /// The crate's only job interner: every per-job vector below, the
    /// rule table's `first` and the fallback queue's lanes are indexed by
    /// its slots.
    slots: JobSlots,
    /// One optional queue per slot, bound to the first rule naming the
    /// job. Created by the job's first ruled RPC, dropped when its rule
    /// stops with no successor.
    queues: Vec<Option<TbfQueue>>,
    heap: DeadlineHeap,
    /// The RPCs of jobs no rule names.
    fallback: FallbackQueue,
    /// RPCs sitting in ruled queues (cheap pending() accounting).
    ruled_backlog: usize,
    // -- cold stats state: folded into `SchedulerStats` on read ----------
    served_ruled: u64,
    served_fallback: u64,
    /// Per-slot serves not counted on a live queue: from the fallback
    /// queue, and by queues that have since been removed.
    served_unqueued: Vec<u64>,
    /// Per-rule-position marks of the stops [`Self::validate`] is checking
    /// (scratch, all false between transactions).
    stopping: Vec<bool>,
}

impl NrsTbfScheduler {
    /// New scheduler with an empty rule table.
    pub fn new(config: TbfSchedulerConfig) -> Self {
        NrsTbfScheduler {
            config,
            rules: RuleTable::default(),
            slots: JobSlots::new(),
            queues: Vec::new(),
            heap: DeadlineHeap::default(),
            fallback: FallbackQueue::default(),
            ruled_backlog: 0,
            served_ruled: 0,
            served_fallback: 0,
            served_unqueued: Vec::new(),
            stopping: Vec::new(),
        }
    }

    /// Pre-size the per-job storage for about `jobs` concurrently known
    /// jobs (embedders that know the scenario call this once at build).
    pub fn reserve_jobs(&mut self, jobs: usize) {
        self.slots.reserve(jobs);
        self.queues.reserve(jobs);
        self.served_unqueued.reserve(jobs);
    }

    /// Intern `job` and grow every per-slot vector to cover its slot.
    #[inline]
    fn slot(&mut self, job: JobId) -> usize {
        let slot = self.slots.intern(job);
        if slot >= self.queues.len() {
            let n = slot + 1;
            self.queues.resize_with(n, || None);
            self.served_unqueued.resize(n, 0);
        }
        slot
    }

    // ---- rule management (the daemon's interface) -----------------------

    /// Apply one batch of rule mutations — what the Rule Management
    /// Daemon does once per observation period: stop `stops`, install
    /// `starts` (returning their ids, in order), then apply the
    /// `(rule, rate, weight)` `updates`.
    ///
    /// The outcome — every queue's contents and bucket, the fallback
    /// order, the dispatch order from here on — is exactly that of
    /// calling [`Self::stop_rule`] for each stop, [`Self::start_rule`] for
    /// each start and [`Self::apply_updates`] in that order; the cost is
    /// not. Each stop is O(1) and moves its job's queue whole — to the
    /// next rule naming the job, else into the fallback queue, deque and
    /// all — and the table re-derives its positions once for all of them.
    /// Each start is O(1) too: what is parked for its job becomes its
    /// queue's FIFO as the deque it is, and the queue enters the heap — in
    /// start order, which is the order the heap breaks deadline ties in
    /// and so the dispatch order.
    ///
    /// The whole batch is validated up front: a stop or update naming a
    /// rule that is not installed, a rule stopped twice, an update to a
    /// rule the same batch stops, or a rate that is not finite and
    /// non-negative leaves the scheduler completely untouched, never with
    /// half the batch applied.
    pub fn transact(
        &mut self,
        stops: &[RuleId],
        starts: impl IntoIterator<Item = RuleSpec>,
        updates: &[(RuleId, f64, u32)],
        now: SimTime,
    ) -> Result<Vec<RuleId>, ModelError> {
        let starts: Vec<RuleSpec> = starts.into_iter().collect();
        self.validate(stops, &starts, updates)?;

        for &id in stops {
            let (slot, successor) = self.rules.retire(id);
            let successor = successor.map(RuleBinding::from);
            self.release_queue(slot, id, successor, now);
        }
        if !stops.is_empty() {
            self.rules.compact();
        }

        // Lustre relinks queues when rules change: what is parked for a
        // job moves under its new rule (otherwise a newly ruled job's
        // early RPCs could starve behind saturated ruled queues forever).
        // Only a start can do that — stopping or re-rating a rule never
        // makes a parked RPC ruled.
        let mut started = Vec::with_capacity(starts.len());
        for spec in starts {
            let RpcMatcher::Job(job) = spec.matcher;
            let slot = self.slot(job);
            started.push(self.rules.start(slot, spec));
            // Nothing is parked for a job that was already ruled, or
            // named twice by this batch.
            let parked = self.fallback.take_job(slot);
            if !parked.is_empty() {
                self.ruled_backlog += parked.len();
                let queue = self.ruled_queue(slot, now);
                queue.expect("just named by a rule").put_fifo(parked);
                self.schedule(slot, now);
            }
        }

        for &(id, rate_tps, weight) in updates {
            let rule = self.rules.set(id, rate_tps, weight);
            let (slot, binding) = (rule.slot, RuleBinding::from(rule));
            if self.governs(id, slot) {
                self.rebind_queue(slot, binding, now);
            }
        }
        Ok(started)
    }

    /// The up-front check of [`Self::transact`] — the only place a
    /// batch's ids and rates are checked, in O(stops + starts + updates):
    /// each stop marks its rule, so a second stop or an update of a
    /// stopped rule finds the mark; the marks are wiped before returning.
    fn validate(
        &mut self,
        stops: &[RuleId],
        starts: &[RuleSpec],
        updates: &[(RuleId, f64, u32)],
    ) -> Result<(), ModelError> {
        self.stopping.resize(self.rules.len(), false);
        let (rules, stopping) = (&self.rules, &mut self.stopping);
        let mut mark = |id: &&RuleId| {
            rules
                .position(**id)
                .is_some_and(|p| !replace(&mut stopping[p], true))
        };
        let marked = stops.iter().take_while(&mut mark).count();
        let live = |id: &RuleId| rules.position(*id).is_some_and(|p| !stopping[p]);
        let bad = stops
            .get(marked)
            .or_else(|| updates.iter().map(|u| &u.0).find(|id| !live(id)));
        for id in &stops[..marked] {
            stopping[rules.position(*id).expect("marked above")] = false;
        }
        if let Some(&id) = bad {
            return Err(ModelError::not_found("rule", id));
        }
        let valid = |rate: f64| rate >= 0.0 && rate.is_finite();
        let rates = starts.iter().map(|s| s.rate_tps);
        let mut rates = rates.chain(updates.iter().map(|u| u.1));
        match rates.find(|&rate| !valid(rate)) {
            Some(rate) => Err(ModelError::invalid(
                "rate_tps",
                format!("{rate} is not a finite, non-negative token rate"),
            )),
            None => Ok(()),
        }
    }

    /// Install a rule; what is parked for its job moves under it at once.
    /// Panics on a rate [`Self::transact`] would reject.
    pub fn start_rule(
        &mut self,
        name: impl Into<String>,
        matcher: RpcMatcher,
        rate_tps: f64,
        weight: u32,
        now: SimTime,
    ) -> RuleId {
        let spec = RuleSpec {
            name: Some(name.into()),
            matcher,
            rate_tps,
            weight,
        };
        self.transact(&[], [spec], &[], now)
            .expect("a start is rejected only for its rate")[0]
    }

    /// Remove a rule; its job's backlog moves to the next rule naming the
    /// job, or to the fallback queue.
    pub fn stop_rule(&mut self, id: RuleId, now: SimTime) -> Result<(), ModelError> {
        self.transact(&[id], [], &[], now).map(drop)
    }

    /// Apply a batch of `(rule, rate, weight)` updates — a transaction of
    /// re-rates alone; affected queues pick the new rate up at once.
    pub fn apply_updates(
        &mut self,
        updates: &[(RuleId, f64, u32)],
        now: SimTime,
    ) -> Result<(), ModelError> {
        self.transact(&[], [], updates, now).map(drop)
    }

    /// Read-only view of the rule table.
    pub fn rules(&self) -> &RuleTable {
        &self.rules
    }

    /// The slot of `job`, if the scheduler has seen it.
    pub(crate) fn slot_of(&self, job: JobId) -> Option<usize> {
        self.slots.get(job)
    }

    // ---- data path -------------------------------------------------------

    /// Accept an RPC from the network: one interner lookup, then array
    /// loads whatever the number of rules and jobs.
    pub fn enqueue(&mut self, rpc: Rpc, now: SimTime) {
        let slot = self.slot(rpc.job);
        self.admit(slot, rpc, now);
    }

    /// Queue `rpc`, whose job sits at `slot`, where the invariant says it
    /// belongs: the job's ruled queue if a rule names the job, else the
    /// fallback queue.
    fn admit(&mut self, slot: usize, rpc: Rpc, now: SimTime) {
        let Some(queue) = self.ruled_queue(slot, now) else {
            return self.fallback.push_back(slot, rpc);
        };
        let was_empty = queue.is_empty();
        queue.push(rpc);
        self.ruled_backlog += 1;
        if was_empty {
            self.schedule(slot, now);
        }
    }

    /// The queue of the job at `slot` — created on demand, with a full
    /// bucket, under the first rule naming the job; `None` if no rule
    /// does.
    #[inline]
    fn ruled_queue(&mut self, slot: usize, now: SimTime) -> Option<&mut TbfQueue> {
        if self.queues[slot].is_none() {
            let (rule, depth) = (self.rules.first(slot)?, self.config.bucket_depth);
            let queue = TbfQueue::new(rule.id, rule.weight, rule.rate_tps, depth, now);
            self.queues[slot] = Some(queue);
        }
        self.queues[slot].as_mut()
    }

    /// Key the queue at `slot`, whose head or rule just changed, in the
    /// heap at its new deadline — or take it out when it is empty, or can
    /// never afford its head (zero rate, empty bucket) until a re-rate
    /// re-binds it.
    #[inline]
    fn schedule(&mut self, slot: usize, now: SimTime) {
        let queue = self.queues[slot].as_mut().expect("scheduled queue exists");
        match queue.deadline(now) {
            Some(deadline) => self.heap.set(slot, deadline, queue.weight),
            None => self.heap.remove(slot),
        }
    }

    /// Ask for the next unit of work at `now`.
    pub fn next(&mut self, now: SimTime) -> SchedDecision {
        // 1. earliest-deadline token-ready ruled queue.
        if let Some((slot, deadline)) = self.heap.peek() {
            if deadline <= now {
                let queue = self.queues[slot].as_mut().expect("heap entries are live");
                let rpc = queue
                    .try_serve(now)
                    .expect("queue with expired deadline must hold a token");
                self.ruled_backlog -= 1;
                self.schedule(slot, now);
                // Per-job accounting already happened inside try_serve
                // (the queue's own counter) — nothing else to update here.
                self.served_ruled += 1;
                return SchedDecision::Serve(rpc);
            }
            // 2. a ruled queue exists but is throttled: fallback is served
            // opportunistically in the meantime.
            let wait = SchedDecision::WaitUntil(deadline);
            return self.serve_fallback().unwrap_or(wait);
        }
        // 3. no ruled work at all: serve fallback.
        self.serve_fallback().unwrap_or(SchedDecision::Idle)
    }

    /// Serve the longest-parked RPC, if anything is parked.
    #[inline]
    fn serve_fallback(&mut self) -> Option<SchedDecision> {
        let (slot, rpc) = self.fallback.pop_front()?;
        self.served_fallback += 1;
        self.served_unqueued[slot] += 1;
        Some(SchedDecision::Serve(rpc))
    }

    // ---- moving queues when rules change ---------------------------------

    /// Whether rule `id` is the one the queue at `slot` is bound to — only
    /// the first rule naming a job has a queue to move.
    fn governs(&self, id: RuleId, slot: usize) -> bool {
        self.queues[slot].as_ref().is_some_and(|q| q.rule == id)
    }

    /// Rule `id`, which named the job at `slot`, has stopped: if the
    /// job's queue was bound to it, the queue moves whole — under
    /// `successor`, the next rule naming the job, else into the fallback
    /// queue.
    fn release_queue(
        &mut self,
        slot: usize,
        id: RuleId,
        successor: Option<RuleBinding>,
        now: SimTime,
    ) {
        if !self.governs(id, slot) {
            return;
        }
        let queue = self.queues[slot].as_mut().expect("governed queue exists");
        if let (Some(binding), false) = (successor, queue.is_empty()) {
            return self.rebind_queue(slot, binding, now);
        }
        // The queue goes: its backlog has no rule left, or it is idle —
        // Lustre drops idle queues when their rule goes away, and a later
        // RPC re-creates one under whatever rule then names the job. The
        // backlog parks as the deque it is, behind everything parked.
        let mut queue = self.queues[slot].take().expect("governed queue exists");
        self.ruled_backlog -= queue.len();
        self.fallback.park_job(slot, queue.take_fifo());
        self.heap.remove(slot);
        self.served_unqueued[slot] += queue.served();
    }

    /// The single re-binding primitive: move the queue at `slot` under
    /// `binding` (a rule naming its job) iff anything actually changed,
    /// re-keying its heap entry; an untouched queue keeps its entry.
    fn rebind_queue(&mut self, slot: usize, binding: RuleBinding, now: SimTime) {
        let queue = self.queues[slot].as_mut().expect("queue exists");
        let changed = queue.rule != binding.id
            || queue.weight != binding.weight
            || queue.bucket().rate_tps() != binding.rate_tps;
        if !changed {
            return;
        }
        queue.rebind(binding.id, binding.weight, binding.rate_tps, now);
        self.schedule(slot, now);
    }

    /// Empty every queue — ruled and fallback — returning the drained
    /// RPCs in deterministic order (ruled queues in JobId order, FIFO
    /// within each, then the fallback queue). This is the crash path:
    /// when an OST dies, its backlog is what the clients must resend
    /// elsewhere. Rules and all stats stay untouched; only backlogs go.
    pub fn drain_pending(&mut self) -> Vec<Rpc> {
        let mut out = Vec::with_capacity(self.pending());
        for (_job, slot) in self.slots.sorted_by_job() {
            if let Some(queue) = self.queues[slot].as_mut() {
                out.extend(queue.take_fifo());
            }
        }
        self.heap.clear();
        self.ruled_backlog = 0;
        out.extend(std::iter::from_fn(|| Some(self.fallback.pop_front()?.1)));
        out
    }

    // ---- introspection ---------------------------------------------------

    /// Total RPCs waiting (ruled + fallback).
    pub fn pending(&self) -> usize {
        self.ruled_backlog + self.fallback.len()
    }

    /// RPCs waiting in ruled queues.
    pub fn pending_ruled(&self) -> usize {
        self.ruled_backlog
    }

    /// RPCs waiting in the fallback queue.
    pub fn pending_fallback(&self) -> usize {
        self.fallback.len()
    }

    /// Backlog length of one job's ruled queue.
    pub fn queue_depth(&self, job: JobId) -> usize {
        self.slots
            .get(job)
            .and_then(|slot| self.queues[slot].as_ref())
            .map_or(0, |q| q.len())
    }

    /// Service counters, folded from the per-slot counters on demand —
    /// the serve path never touches a map, so reading stats does the
    /// (cold) aggregation work instead.
    pub fn stats(&self) -> SchedulerStats {
        let mut served_by_job = BTreeMap::new();
        for (job, slot) in self.slots.sorted_by_job() {
            let queue_served = self.queues[slot].as_ref().map_or(0, |q| q.served());
            let total = self.served_unqueued[slot] + queue_served;
            if total > 0 {
                served_by_job.insert(job, total);
            }
        }
        SchedulerStats {
            served_ruled: self.served_ruled,
            served_fallback: self.served_fallback,
            served_by_job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{ClientId, ProcId, RpcId};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn rpc(id: u64, job: u32) -> Rpc {
        Rpc::new(RpcId(id), JobId(job), ClientId(0), ProcId(0), t(0))
    }

    fn sched() -> NrsTbfScheduler {
        NrsTbfScheduler::new(TbfSchedulerConfig::default())
    }

    /// Assert the decision is `WaitUntil` of roughly `ms` (within the ns
    /// safety margin deadlines carry) and return the exact instant.
    fn expect_wait(d: SchedDecision, ms: u64) -> SimTime {
        match d {
            SchedDecision::WaitUntil(at) => {
                assert!(
                    at >= t(ms) && at.as_nanos() <= t(ms).as_nanos() + 2,
                    "expected wait ≈ {ms} ms, got {at:?}"
                );
                at
            }
            other => panic!("expected WaitUntil(≈{ms} ms), got {other:?}"),
        }
    }

    #[test]
    fn unruled_rpcs_go_to_fallback_fcfs() {
        let mut s = sched();
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 2), t(0));
        assert_eq!(s.pending_fallback(), 2);
        assert_eq!(s.next(t(0)), SchedDecision::Serve(rpc(1, 1)));
        assert_eq!(s.next(t(0)), SchedDecision::Serve(rpc(2, 2)));
        assert_eq!(s.next(t(0)), SchedDecision::Idle);
        assert_eq!(s.stats().served_fallback, 2);
    }

    #[test]
    fn ruled_queue_enforces_rate_after_initial_burst() {
        let mut s = sched();
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        for i in 0..5 {
            s.enqueue(rpc(i, 1), t(0));
        }
        // Initial burst: bucket depth 3.
        for _ in 0..3 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        // Throttled: next token at 100 ms.
        let d1 = expect_wait(s.next(t(0)), 100);
        assert!(matches!(s.next(d1), SchedDecision::Serve(_)));
        expect_wait(s.next(d1), 200);
    }

    #[test]
    fn fallback_served_while_ruled_throttled() {
        let mut s = sched();
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        for i in 0..4 {
            s.enqueue(rpc(i, 1), t(0));
        }
        s.enqueue(rpc(100, 2), t(0)); // unruled
        for _ in 0..3 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        // Job 1 throttled; the fallback RPC gets the idle capacity.
        assert_eq!(s.next(t(0)), SchedDecision::Serve(rpc(100, 2)));
        expect_wait(s.next(t(0)), 100);
    }

    #[test]
    fn earliest_deadline_across_queues() {
        let mut s = sched();
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        s.start_rule("j2", RpcMatcher::Job(JobId(2)), 20.0, 1, t(0));
        for i in 0..4 {
            s.enqueue(rpc(i, 1), t(0));
            s.enqueue(rpc(10 + i, 2), t(0));
        }
        // Drain both initial bursts (6 RPCs, interleaved by deadline).
        for _ in 0..6 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        // Job 2 refills at 20/s → ready at 50 ms; job 1 at 100 ms.
        let d = expect_wait(s.next(t(0)), 50);
        match s.next(d) {
            SchedDecision::Serve(r) => assert_eq!(r.job, JobId(2)),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn rate_change_takes_effect_immediately() {
        let mut s = sched();
        let id = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        for i in 0..10 {
            s.enqueue(rpc(i, 1), t(0));
        }
        for _ in 0..3 {
            s.next(t(0));
        }
        expect_wait(s.next(t(0)), 100);
        s.apply_updates(&[(id, 1000.0, 1)], t(0)).unwrap();
        // 1000 tps → next token at 1 ms (+ns margin).
        assert_eq!(s.next(t(2)), SchedDecision::Serve(rpc(3, 1)));
    }

    #[test]
    fn stop_rule_moves_backlog_to_fallback() {
        let mut s = sched();
        let id = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        for i in 0..5 {
            s.enqueue(rpc(i, 1), t(0));
        }
        for _ in 0..3 {
            s.next(t(0));
        }
        assert_eq!(s.pending_ruled(), 2);
        s.stop_rule(id, t(0)).unwrap();
        assert_eq!(s.pending_ruled(), 0);
        assert_eq!(s.pending_fallback(), 2);
        // Backlog now unthrottled.
        assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
    }

    #[test]
    fn zero_rate_rule_parks_queue_without_blocking_others() {
        let mut s = sched();
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 0.0, 1, t(0));
        for i in 0..5 {
            s.enqueue(rpc(i, 1), t(0));
        }
        // Initial burst of 3 still allowed, then parked forever.
        for _ in 0..3 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        assert_eq!(s.next(t(60_000)), SchedDecision::Idle);
        // Other traffic unaffected.
        s.enqueue(rpc(100, 2), t(60_000));
        assert!(matches!(s.next(t(60_000)), SchedDecision::Serve(_)));
    }

    #[test]
    fn weight_prefers_high_priority_on_tie() {
        let mut s = sched();
        s.start_rule("lo", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        s.start_rule("hi", RpcMatcher::Job(JobId(2)), 10.0, 9, t(0));
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 2), t(0));
        match s.next(t(0)) {
            SchedDecision::Serve(r) => assert_eq!(r.job, JobId(2), "higher weight first"),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn per_job_stats_accumulate() {
        let mut s = sched();
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 1000.0, 1, t(0));
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 9), t(0)); // fallback
        s.next(t(0));
        s.next(t(0));
        assert_eq!(s.stats().served_by_job[&JobId(1)], 1);
        assert_eq!(s.stats().served_by_job[&JobId(9)], 1);
        assert_eq!(s.stats().served_total(), 2);
    }

    #[test]
    fn stats_survive_queue_removal() {
        // Serve under a rule, stop the rule (queue dropped), then serve
        // more via fallback: the folded per-job counts must stay exact.
        let mut s = sched();
        let id = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 1000.0, 1, t(0));
        for i in 0..3 {
            s.enqueue(rpc(i, 1), t(0));
        }
        for _ in 0..3 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        s.stop_rule(id, t(0)).unwrap();
        s.enqueue(rpc(10, 1), t(0));
        assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        let stats = s.stats();
        assert_eq!(stats.served_by_job[&JobId(1)], 4);
        assert_eq!(stats.served_ruled, 3);
        assert_eq!(stats.served_fallback, 1);
    }

    #[test]
    fn fcfs_within_job_across_throttling() {
        let mut s = sched();
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 50.0, 1, t(0));
        for i in 0..8 {
            s.enqueue(rpc(i, 1), t(i * 2));
        }
        let mut served = Vec::new();
        let mut now = t(0);
        while served.len() < 8 {
            match s.next(now) {
                SchedDecision::Serve(r) => served.push(r.id.raw()),
                SchedDecision::WaitUntil(d) => now = d,
                SchedDecision::Idle => panic!("work remains"),
            }
        }
        let mut sorted = served.clone();
        sorted.sort_unstable();
        assert_eq!(served, sorted, "FCFS violated: {served:?}");
    }

    #[test]
    fn new_rule_captures_existing_fallback_backlog() {
        // Lustre relinks queues on rule changes: RPCs that arrived before
        // the rule existed move from the fallback queue under the new
        // rule, ahead of later arrivals (FIFO preserved).
        let mut s = sched();
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 2), t(0)); // different job: stays unruled
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 1000.0, 1, t(0));
        assert_eq!(s.pending_fallback(), 1, "job2's RPC stays in fallback");
        assert_eq!(s.pending_ruled(), 1, "job1's RPC now ruled");
        s.enqueue(rpc(3, 1), t(0));
        assert_eq!(s.queue_depth(JobId(1)), 2);
        // FIFO within job 1 across the migration.
        match s.next(t(0)) {
            SchedDecision::Serve(r) => assert_eq!(r.id, RpcId(1)),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn stop_rebinds_to_later_rule_naming_the_job() {
        // Two rules name job 1: the first governs; stopping it must
        // re-bind the queue to the second, not orphan it.
        let mut s = sched();
        let first = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        s.start_rule("j1b", RpcMatcher::Job(JobId(1)), 1000.0, 2, t(0));
        for i in 0..6 {
            s.enqueue(rpc(i, 1), t(0));
        }
        for _ in 0..3 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        expect_wait(s.next(t(0)), 100);
        s.stop_rule(first, t(0)).unwrap();
        assert_eq!(
            s.pending_ruled(),
            3,
            "queue stays ruled under the second rule"
        );
        assert_eq!(s.pending_fallback(), 0);
        // The second rule's 1000 tps rate applies going forward.
        assert!(matches!(s.next(t(2)), SchedDecision::Serve(_)));
    }

    #[test]
    fn a_queue_keeps_one_heap_entry_through_rebind_stop_and_restart() {
        // Serve, re-rate, stop (the queue goes) and restart job 1's rule:
        // the heap holds one entry exactly while the queue has work, keyed
        // at the deadline under its current rule.
        let mut s = sched();
        let a = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        for i in 0..4 {
            s.enqueue(rpc(i, 1), t(0));
        }
        for _ in 0..3 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        // Throttled: the entry was re-keyed to ~100 ms, not duplicated.
        expect_wait(s.next(t(0)), 100);
        assert_eq!(s.heap.len(), 1);
        s.apply_updates(&[(a, 1000.0, 1)], t(0)).unwrap();
        assert_eq!(s.heap.len(), 1);
        assert!(matches!(s.next(t(2)), SchedDecision::Serve(_)));
        assert!(s.heap.is_empty(), "an empty queue has no entry");
        // Stopping the rule removes the queue; a new rule re-creates it.
        s.stop_rule(a, t(2)).unwrap();
        s.start_rule("j1b", RpcMatcher::Job(JobId(1)), 10.0, 1, t(2));
        for i in 10..14 {
            s.enqueue(rpc(i, 1), t(2));
        }
        for _ in 0..3 {
            assert!(matches!(s.next(t(2)), SchedDecision::Serve(_)));
        }
        // The next token arrives at ~102 ms; the old queue's ~100 ms
        // deadline left the heap with its entry.
        match s.next(t(101)) {
            SchedDecision::WaitUntil(at) => assert!(at > t(101), "future deadline"),
            other => panic!("expected a wait, got {other:?}"),
        }
        assert_eq!(s.heap.len(), 1);
        assert!(matches!(s.next(t(103)), SchedDecision::Serve(_)));
        assert!(s.heap.is_empty());
    }

    /// After every step of a seeded random run — enqueues, serves, clock
    /// steps, starts (second rules for a job included), stops, re-rates
    /// (zero rates included) and drains — the heap holds exactly one entry
    /// per schedulable ruled queue: one that is non-empty and can afford
    /// its head some day.
    #[test]
    fn the_heap_holds_one_entry_per_schedulable_queue() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let mut s = sched();
        let mut now = t(0);
        for step in 0..5000u64 {
            let job = JobId(next(6) as u32);
            let rate = [0.0, 10.0, 1000.0][next(3) as usize];
            match next(12) {
                0..=3 => s.enqueue(rpc(step, job.raw()), now),
                4..=6 => drop(s.next(now)),
                7 => now = SimTime(now.as_nanos() + next(50_000_000)),
                8 => drop(s.start_rule("r", RpcMatcher::Job(job), rate, 1, now)),
                9 | 10 => match s.slot_of(job).and_then(|slot| s.rules.first(slot)) {
                    Some(&TbfRule { id, .. }) if next(2) == 0 => s.stop_rule(id, now).unwrap(),
                    Some(&TbfRule { id, .. }) => {
                        s.apply_updates(&[(id, rate, next(3) as u32)], now).unwrap()
                    }
                    None => {}
                },
                _ => drop(s.drain_pending()),
            }
            let mut schedulable = 0;
            for (slot, queue) in s.queues.iter().enumerate() {
                let live = queue.clone().is_some_and(|mut q| q.deadline(now).is_some());
                assert_eq!(s.heap.contains(slot), live, "step {step}, slot {slot}");
                schedulable += usize::from(live);
            }
            assert_eq!(s.heap.len(), schedulable, "step {step}");
        }
    }

    #[test]
    fn drain_pending_empties_all_queues_in_job_then_fallback_order() {
        let mut s = sched();
        s.start_rule("j2", RpcMatcher::Job(JobId(2)), 10.0, 1, t(0));
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        // Enqueue out of job order plus unruled traffic.
        s.enqueue(rpc(1, 2), t(0));
        s.enqueue(rpc(2, 1), t(0));
        s.enqueue(rpc(3, 2), t(0));
        s.enqueue(rpc(4, 9), t(0)); // fallback
        assert_eq!(s.pending(), 4);
        let drained = s.drain_pending();
        let order: Vec<(u32, u64)> = drained.iter().map(|r| (r.job.raw(), r.id.raw())).collect();
        // Ruled queues in JobId order (FIFO within), then fallback.
        assert_eq!(order, vec![(1, 2), (2, 1), (2, 3), (9, 4)]);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.pending_ruled(), 0);
        assert_eq!(s.pending_fallback(), 0);
        assert_eq!(s.next(t(1000)), SchedDecision::Idle);
        // Rules survive a drain; fresh traffic is still governed.
        s.enqueue(rpc(10, 1), t(1000));
        assert_eq!(s.pending_ruled(), 1);
    }

    fn job_spec(job: u32) -> RuleSpec {
        RuleSpec {
            name: Some(format!("j{job}")),
            matcher: RpcMatcher::Job(JobId(job)),
            rate_tps: 10.0,
            weight: 1,
        }
    }

    /// 40 jobs × 10 RPCs parked in arrival order.
    fn parked_400() -> NrsTbfScheduler {
        let mut s = sched();
        for i in 0..400 {
            s.enqueue(rpc(i, i as u32 % 40), t(0));
        }
        assert_eq!(s.pending_fallback(), 400);
        s
    }

    #[test]
    fn starting_k_job_rules_moves_no_rpc() {
        // A cycle starts rules for 16 of the 40 parked jobs: each job's
        // lane becomes its queue as the deque it is, and the other 240
        // parked RPCs are neither looked at nor moved.
        let mut s = parked_400();
        assert!(s.heap.is_empty());
        let ids = s
            .transact(&[], (0..16).rev().map(job_spec), &[], t(0))
            .unwrap();
        assert_eq!(ids.len(), 16);
        assert_eq!(s.fallback.rpcs_moved, 0);
        assert_eq!((s.pending_ruled(), s.pending_fallback()), (160, 240));
        assert!((0..16).all(|job| s.queue_depth(JobId(job)) == 10));
        // The uncaptured backlog kept its arrival order.
        let parked: Vec<u64> = s.fallback.iter().map(|r| r.id.raw()).collect();
        assert_eq!(parked.len(), 240);
        assert!(parked.windows(2).all(|w| w[0] < w[1]));
        assert!(s.fallback.iter().all(|r| r.job.raw() >= 16));
        // One heap entry per started job, keyed in start order: all 16
        // deadlines tie, and the heap breaks the tie by keying order.
        assert_eq!(s.heap.len(), 16);
        let served: Vec<u64> = (0..16)
            .map(|_| match s.next(t(0)) {
                SchedDecision::Serve(r) => r.id.raw(),
                other => panic!("expected serve, got {other:?}"),
            })
            .collect();
        assert_eq!(served, (0..16).rev().collect::<Vec<u64>>());
    }

    #[test]
    fn stopping_k_job_rules_moves_no_rpc() {
        let mut s = sched();
        let ids = s.transact(&[], (0..16).map(job_spec), &[], t(0)).unwrap();
        for i in 0..64 {
            s.enqueue(rpc(i, i as u32 % 16), t(0));
        }
        let before = s.rules.index_rebuilds;
        let stops: Vec<RuleId> = ids[..12].iter().rev().copied().collect();
        s.transact(&stops, [], &[], t(0)).unwrap();
        assert_eq!(s.rules.index_rebuilds - before, 1, "one compact");
        assert_eq!(s.fallback.rpcs_moved, 0);
        assert_eq!(s.rules().len(), 4);
        assert_eq!((s.pending_ruled(), s.pending_fallback()), (16, 48));
        // The fallback order is the order of the stops, FIFO within a job.
        let parked: Vec<(u32, u64)> = (s.fallback.iter())
            .map(|r| (r.job.raw(), r.id.raw()))
            .collect();
        let want: Vec<(u32, u64)> = (0..12u32)
            .rev()
            .flat_map(|job| (0..4).map(move |k| (job, u64::from(job) + 16 * k)))
            .collect();
        assert_eq!(parked, want);
    }

    #[test]
    fn overlapping_stops_keep_their_order() {
        // Job 1's queue sits under the first of two rules naming it;
        // stopped first, it hops under the second while job 2's backlog
        // is released, and only the last stop releases job 1's. Releasing
        // job 1 at the first stop would park it ahead of job 2 — the
        // batch must leave what the stops one at a time leave, and still
        // rebuilds the table once.
        let mut s = sched();
        let first = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        let two = s.start_rule("j2", RpcMatcher::Job(JobId(2)), 10.0, 1, t(0));
        let second = s.start_rule("j1b", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 2), t(0));
        let before = s.rules.index_rebuilds;
        s.transact(&[first, two, second], [], &[], t(0)).unwrap();
        assert_eq!(s.rules.index_rebuilds - before, 1);
        let released: Vec<u32> = s.fallback.iter().map(|r| r.job.raw()).collect();
        assert_eq!(released, vec![2, 1]);
    }

    #[test]
    fn a_bad_transaction_changes_nothing() {
        let mut s = sched();
        let a = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        let b = s.start_rule("j2", RpcMatcher::Job(JobId(2)), 10.0, 1, t(0));
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 3), t(0)); // parked: the rejected start names job 3
        assert!(matches!(s.next(t(0)), SchedDecision::Serve(r) if r.job == JobId(1)));
        s.enqueue(rpc(3, 1), t(0));
        let mut rejects = |stops: &[RuleId], start_rate: f64, updates: &[(RuleId, f64, u32)]| {
            let mut start = job_spec(3);
            start.rate_tps = start_rate;
            let err = s.transact(stops, [start], updates, t(0));
            assert!(err.is_err(), "{stops:?} {start_rate} {updates:?}");
            assert_eq!(s.rules().len(), 2, "nothing stopped, nothing started");
            assert_eq!(s.rules().get(a).unwrap().rate_tps, 10.0);
            assert_eq!(s.queue_depth(JobId(1)), 1);
            assert_eq!((s.pending_ruled(), s.pending_fallback()), (1, 1));
            assert_eq!(s.stats().served_by_job, BTreeMap::from([(JobId(1), 1)]));
            err.unwrap_err()
        };
        rejects(&[a, RuleId(9999)], 10.0, &[]); // unknown stop
        rejects(&[a, b, a], 10.0, &[]); // stopped twice
        rejects(&[a], 10.0, &[(a, 500.0, 7)]); // re-rating a rule it stops
        rejects(&[a], 10.0, &[(RuleId(9999), 1.0, 1)]); // unknown update
                                                        // A valid stop ahead of a start or re-rate no bucket could take:
                                                        // the stop must not have been applied when the rate is refused.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            for err in [rejects(&[a], bad, &[]), rejects(&[a], 10.0, &[(b, bad, 1)])] {
                assert!(
                    matches!(
                        err,
                        ModelError::InvalidConfig {
                            field: "rate_tps",
                            ..
                        }
                    ),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn apply_updates_with_bad_id_changes_nothing() {
        // The batch contains a valid update before the bad id: atomicity
        // demands the valid one is NOT applied.
        let mut s = sched();
        let good = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        let err = s.apply_updates(&[(good, 500.0, 7), (RuleId(9999), 1.0, 1)], t(0));
        assert!(err.is_err());
        let rule = s.rules().get(good).unwrap();
        assert_eq!(rule.rate_tps, 10.0, "partial batch must not apply");
        assert_eq!(rule.weight, 1);
    }

    #[test]
    fn apply_updates_batch_applies_all() {
        let mut s = sched();
        let a = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        let b = s.start_rule("j2", RpcMatcher::Job(JobId(2)), 10.0, 1, t(0));
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 2), t(0));
        s.apply_updates(&[(a, 111.0, 3), (b, 222.0, 4)], t(0))
            .unwrap();
        assert_eq!(s.rules().get(a).unwrap().rate_tps, 111.0);
        assert_eq!(s.rules().get(b).unwrap().weight, 4);
        // Queues picked the new rates up (both still serveable).
        assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
    }
}
