//! The NRS TBF scheduler: classification, deadline dispatch, fallback.
//!
//! This is the component in Figure 1 of the paper. Incoming RPCs are
//! classified against the ordered rule list; matched RPCs join their
//! class's FIFO queue (one per JobID under AdapTBF) whose token bucket
//! enforces the rule's rate. Unmatched RPCs join the **fallback queue**,
//! which has no token limit and is served opportunistically whenever no
//! ruled queue is token-ready — Lustre's guarantee that jobs without rules
//! never starve.
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
//! ## Hot-path design
//!
//! Rule mutations are **incremental** and **transactional**. Instead of
//! draining and rebuilding every queue and the whole deadline heap on each
//! change, the scheduler keeps a `rule → bound queues` reverse index and
//! touches only the queues a mutation affects. Heap entries of rebound
//! queues go stale via the queues' monotone stamps and are discarded
//! lazily on pop — the heap is never rebuilt wholesale.
//!
//! The daemon mutates every active job's rule once per observation
//! period, so the unit of mutation is the period's whole batch
//! ([`NrsTbfScheduler::transact`], which carries the ordering argument):
//! stopped rules leave the table with one index rebuild, and started
//! rules lift what they capture out of the fallback queue through its
//! per-job index (the `fallback` module), so a cycle costs O(rules changed +
//! queues they govern + RPCs they capture) — not that times the number of
//! rules changed, and not the number of RPCs parked for other jobs. (A
//! batch that starts a rule which is not purely job-based scans the
//! fallback queue instead, once.) The single-rule entry points are
//! one-element transactions.
//!
//! Per-job service counters live on the queues themselves and are folded
//! into [`SchedulerStats`] only when [`NrsTbfScheduler::stats`] is read,
//! so the per-serve path performs no map updates.
//!
//! All per-job state — the queues themselves, retired-stamp floors and
//! the folded service counters — is held in flat vectors indexed by a
//! dense job slot ([`JobSlots`], assigned at first sight, stable for the
//! scheduler's lifetime), so the enqueue/dispatch path costs array
//! indexing rather than hash or ordered-map walks; JobId-keyed shapes are
//! folded only when stats are read. The per-cycle reconcile reuses one
//! scratch buffer instead of collecting the affected-job set afresh on
//! every rule mutation.

use crate::fallback::FallbackQueue;
use crate::heap::DeadlineHeap;
use crate::matcher::RpcMatcher;
use crate::queue::TbfQueue;
use crate::rule::{RuleTable, TbfRule};
use adaptbf_model::{JobId, JobSlots, ModelError, Rpc, RuleId, SimTime, TbfSchedulerConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// Human-readable rule name.
    pub name: String,
    /// The classification predicate.
    pub matcher: RpcMatcher,
    /// Token refill rate in tokens/second.
    pub rate_tps: f64,
    /// Hierarchy weight.
    pub weight: u32,
}

/// The three rule parameters a queue actually binds to — a `Copy` view of
/// a [`TbfRule`] so the per-RPC data path never clones the rule's name
/// `String` or matcher just to end a borrow of the rule table.
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
    /// Dense job interner: every per-job vector below is indexed by its
    /// slots.
    slots: JobSlots,
    /// One optional queue per slot (`None` = the job has no ruled queue).
    queues: Vec<Option<TbfQueue>>,
    /// Reverse index: which jobs' queues are bound to each rule. Lets rule
    /// mutations touch only affected queues. `BTreeSet` so affected queues
    /// are always visited in deterministic JobId order.
    bound: HashMap<RuleId, BTreeSet<JobId>>,
    heap: DeadlineHeap,
    /// RPCs no installed rule matches — the invariant the fallback's
    /// per-job index relies on: rules only start through
    /// [`Self::transact`], which moves out everything they capture.
    fallback: FallbackQueue,
    /// RPCs sitting in ruled queues (cheap pending() accounting).
    ruled_backlog: usize,
    /// Scratch for the per-cycle reconcile: the affected-job set of the
    /// rule under mutation, reused across cycles (no per-cycle alloc).
    reconcile_scratch: Vec<JobId>,
    // -- cold stats state: folded into `SchedulerStats` on read ----------
    served_ruled: u64,
    served_fallback: u64,
    /// Per-slot counts of queues that have since been removed.
    folded_served: Vec<u64>,
    /// Per-slot stamp floor (+1) for re-created queues: a removed queue's
    /// heap entries are never purged (lazy invalidation), so the next
    /// queue for the same job must start its stamp *above* them or a
    /// leftover entry would read as valid once the new stamp caught up.
    /// 0 = no queue for this job was ever retired.
    retired_stamps: Vec<u64>,
    /// Per-slot fallback serve counts.
    fallback_served: Vec<u64>,
}

impl NrsTbfScheduler {
    /// New scheduler with an empty rule table.
    pub fn new(config: TbfSchedulerConfig) -> Self {
        NrsTbfScheduler {
            config,
            rules: RuleTable::new(),
            slots: JobSlots::new(),
            queues: Vec::new(),
            bound: HashMap::new(),
            heap: DeadlineHeap::new(),
            fallback: FallbackQueue::new(),
            ruled_backlog: 0,
            reconcile_scratch: Vec::new(),
            served_ruled: 0,
            served_fallback: 0,
            folded_served: Vec::new(),
            retired_stamps: Vec::new(),
            fallback_served: Vec::new(),
        }
    }

    /// Pre-size the per-job storage for about `jobs` concurrently known
    /// jobs (embedders that know the scenario call this once at build).
    pub fn reserve_jobs(&mut self, jobs: usize) {
        self.slots.reserve(jobs);
        self.queues.reserve(jobs);
        self.folded_served.reserve(jobs);
        self.retired_stamps.reserve(jobs);
        self.fallback_served.reserve(jobs);
        self.reconcile_scratch.reserve(jobs);
    }

    /// Intern `job` and grow every per-slot vector to cover its slot.
    #[inline]
    fn slot(&mut self, job: JobId) -> usize {
        let slot = self.slots.intern(job);
        if slot >= self.queues.len() {
            let n = slot + 1;
            self.queues.resize_with(n, || None);
            self.folded_served.resize(n, 0);
            self.retired_stamps.resize(n, 0);
            self.fallback_served.resize(n, 0);
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
    /// not. The stopped rules leave the table together and only their own
    /// queues move, and the started rules capture from the fallback queue
    /// together, not one scan per rule: a parked RPC matches no older
    /// rule, so the first started rule matching it is the one that
    /// captures it, and moving the captured RPCs rule by rule in start
    /// order (arrival order within a rule) replays the per-rule scans'
    /// enqueue sequence.
    ///
    /// The whole batch is validated up front: a stop or update naming a
    /// rule that is not installed, a rule stopped twice, or an update to a
    /// rule the same batch stops leaves the scheduler completely
    /// untouched, never with half the batch applied.
    pub fn transact(
        &mut self,
        stops: &[RuleId],
        starts: impl IntoIterator<Item = RuleSpec>,
        updates: &[(RuleId, f64, u32)],
        now: SimTime,
    ) -> Result<Vec<RuleId>, ModelError> {
        self.validate(stops, updates)?;
        // Stops taken together classify released backlogs against a table
        // that already lacks the *later* stops of the batch; one at a
        // time, a backlog could first hop under such a rule. That is only
        // possible when stopped rules can match each other's traffic.
        let together = if self.stops_are_disjoint(stops) {
            stops.len().max(1)
        } else {
            1
        };
        for group in stops.chunks(together) {
            self.rules.stop_rules(group).expect("batch validated above");
            for &id in group {
                self.release_queues(id, now);
            }
        }
        let started: Vec<RuleId> = starts
            .into_iter()
            .map(|r| {
                self.rules
                    .start_rule(r.name, r.matcher, r.rate_tps, r.weight)
            })
            .collect();
        if !started.is_empty() {
            self.recapture_fallback(&started, now);
        }
        for (id, rate, weight) in updates {
            self.rules
                .change_rate(*id, *rate)
                .expect("batch validated above");
            self.rules
                .change_weight(*id, *weight)
                .expect("batch validated above");
            self.refresh_bound_queues(*id, now);
        }
        Ok(started)
    }

    /// The up-front check of [`Self::transact`].
    fn validate(&self, stops: &[RuleId], updates: &[(RuleId, f64, u32)]) -> Result<(), ModelError> {
        let missing = |id: RuleId| Err(ModelError::not_found("rule", id));
        let mut stopped = stops.to_vec();
        stopped.sort_unstable();
        if let Some(twice) = stopped.windows(2).find(|w| w[0] == w[1]) {
            return missing(twice[0]);
        }
        if let Some(&id) = stops.iter().find(|id| self.rules.get(**id).is_none()) {
            return missing(id);
        }
        for (id, _, _) in updates {
            if self.rules.get(*id).is_none() || stopped.binary_search(id).is_ok() {
                return missing(*id);
            }
        }
        Ok(())
    }

    /// Whether no stopped rule can match traffic queued under another:
    /// every one is purely job-based and their job sets are pairwise
    /// disjoint (a queue holds one job's RPCs, bound to a rule selecting
    /// that job). Decided from the matchers alone.
    fn stops_are_disjoint(&mut self, stops: &[RuleId]) -> bool {
        if stops.len() < 2 {
            return true;
        }
        let mut jobs = std::mem::take(&mut self.reconcile_scratch);
        jobs.clear();
        let job_based = stops.iter().all(|id| {
            let rule = self.rules.get(*id).expect("batch validated above");
            rule.matcher
                .jobs()
                .map(|j| jobs.extend_from_slice(j))
                .is_some()
        });
        jobs.sort_unstable();
        let disjoint = job_based && jobs.windows(2).all(|w| w[0] != w[1]);
        self.reconcile_scratch = jobs;
        disjoint
    }

    /// Install a rule; queued traffic is re-classified immediately.
    ///
    /// Incremental: an appended rule matches *after* every existing rule,
    /// so already-ruled queues keep their bindings — only the fallback
    /// queue can hold RPCs the new rule captures.
    pub fn start_rule(
        &mut self,
        name: impl Into<String>,
        matcher: RpcMatcher,
        rate_tps: f64,
        weight: u32,
        now: SimTime,
    ) -> RuleId {
        let spec = RuleSpec {
            name: name.into(),
            matcher,
            rate_tps,
            weight,
        };
        self.transact(&[], [spec], &[], now)
            .expect("a batch of starts has nothing to reject")[0]
    }

    /// Remove a rule; its queues' backlogs move to later-matching rules or
    /// the fallback queue. Only queues bound to `id` are touched.
    pub fn stop_rule(&mut self, id: RuleId, now: SimTime) -> Result<(), ModelError> {
        self.transact(&[id], [], &[], now).map(drop)
    }

    /// Move the queues bound to the just-stopped rule `id` under whatever
    /// the table now says: a later-matching rule, or the fallback queue.
    fn release_queues(&mut self, id: RuleId, now: SimTime) {
        let jobs = self.bound.remove(&id).unwrap_or_default();
        for job in jobs {
            let slot = self.slots.get(job).expect("bound job is interned");
            let queue = self.queues[slot].as_mut().expect("bound queue exists");
            if queue.is_empty() {
                // Lustre drops idle queues when their rule goes away; a
                // later RPC re-creates one under whatever rule then matches.
                self.remove_queue(job);
                continue;
            }
            let head = *queue.head().expect("non-empty queue");
            match self.rules.classify(&head).map(RuleBinding::from) {
                Some(binding) => self.rebind_queue(job, binding, now),
                None => {
                    // The head is orphaned — but when non-job matchers
                    // split a job's traffic, later RPCs in the same queue
                    // can still match a live rule, so each drained RPC is
                    // re-classified individually: matches re-enter ruled
                    // queues (keeping their rate limits), the rest ride
                    // the fallback queue. This is exactly what the old
                    // full reconcile achieved via its fallback re-scan.
                    let queue = self.queues[slot].as_mut().expect("bound queue exists");
                    let drained: Vec<Rpc> = queue.drain().collect();
                    self.ruled_backlog -= drained.len();
                    self.remove_queue(job);
                    for rpc in drained {
                        match self.rules.classify(&rpc).map(RuleBinding::from) {
                            Some(binding) => self.enqueue_ruled(rpc, binding, now),
                            None => self.fallback.push_back(rpc),
                        }
                    }
                }
            }
        }
    }

    /// Change a rule's token rate; affected queues pick the rate up at once.
    pub fn change_rate(
        &mut self,
        id: RuleId,
        rate_tps: f64,
        now: SimTime,
    ) -> Result<(), ModelError> {
        self.rules.change_rate(id, rate_tps)?;
        self.refresh_bound_queues(id, now);
        Ok(())
    }

    /// Change a rule's hierarchy weight.
    pub fn change_weight(
        &mut self,
        id: RuleId,
        weight: u32,
        now: SimTime,
    ) -> Result<(), ModelError> {
        self.rules.change_weight(id, weight)?;
        self.refresh_bound_queues(id, now);
        Ok(())
    }

    /// Apply a batch of `(rule, rate, weight)` updates — a transaction of
    /// re-rates alone: a bad `RuleId` anywhere in it leaves the scheduler
    /// completely untouched, never with half the rates applied but queues
    /// unreconciled.
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

    // ---- data path -------------------------------------------------------

    /// Accept an RPC from the network and classify it (O(1) in the rule
    /// count for job-rule tables — see [`RuleTable::classify`]).
    pub fn enqueue(&mut self, rpc: Rpc, now: SimTime) {
        match self.rules.classify(&rpc).map(RuleBinding::from) {
            Some(binding) => self.enqueue_ruled(rpc, binding, now),
            None => self.fallback.push_back(rpc),
        }
    }

    fn enqueue_ruled(&mut self, rpc: Rpc, binding: RuleBinding, now: SimTime) {
        let job = rpc.job;
        let slot = self.slot(job);
        if self.queues[slot].is_some() {
            // Existing queue: re-binds if the governing rule changed (non-
            // job matchers can split one job's traffic across rules),
            // including the fresh heap entry the stamp bump requires.
            self.rebind_queue(job, binding, now);
        } else {
            let depth = self.config.bucket_depth;
            let mut queue = TbfQueue::new(
                job,
                binding.id,
                binding.weight,
                binding.rate_tps,
                depth,
                now,
            );
            let floor = self.retired_stamps[slot];
            if floor > 0 {
                queue.advance_stamp(floor);
            }
            self.queues[slot] = Some(queue);
            self.bound.entry(binding.id).or_default().insert(job);
        }
        let queue = self.queues[slot].as_mut().expect("just ensured");
        let was_empty = queue.is_empty();
        queue.push(rpc);
        self.ruled_backlog += 1;
        if was_empty {
            let weight = queue.weight;
            let stamp = queue.stamp();
            if let Some(deadline) = queue.deadline(now) {
                self.heap.push(job, deadline, weight, stamp);
            }
            // deadline == None (zero-rate rule): queue is parked until a
            // rate change reconciles it back into the heap.
        }
    }

    /// Ask for the next unit of work at `now`.
    pub fn next(&mut self, now: SimTime) -> SchedDecision {
        // 1. earliest-deadline token-ready ruled queue.
        let slots = &self.slots;
        let queues = &self.queues;
        let peek = self.heap.peek_valid(|j| {
            slots
                .get(j)
                .and_then(|s| queues[s].as_ref())
                .map(|q| q.stamp())
        });
        if let Some((job, deadline)) = peek {
            if deadline <= now {
                // The peek already discarded stale entries; the top is the
                // validated one — no second validation walk needed.
                self.heap.pop_top();
                let slot = self.slots.get(job).expect("valid heap entry");
                let queue = self.queues[slot].as_mut().expect("valid heap entry");
                let rpc = queue
                    .try_serve(now)
                    .expect("queue with expired deadline must hold a token");
                self.ruled_backlog -= 1;
                if !queue.is_empty() {
                    let weight = queue.weight;
                    let stamp = queue.stamp();
                    if let Some(next_deadline) = queue.deadline(now) {
                        self.heap.push(job, next_deadline, weight, stamp);
                    }
                }
                // Per-job accounting already happened inside try_serve
                // (the queue's own counter) — nothing else to update here.
                self.served_ruled += 1;
                return SchedDecision::Serve(rpc);
            }
            // 2. a ruled queue exists but is throttled: fallback is served
            // opportunistically in the meantime.
            if let Some(rpc) = self.fallback.pop_front() {
                self.serve_from_fallback(rpc.job);
                return SchedDecision::Serve(rpc);
            }
            return SchedDecision::WaitUntil(deadline);
        }
        // 3. no ruled work at all: serve fallback.
        if let Some(rpc) = self.fallback.pop_front() {
            self.serve_from_fallback(rpc.job);
            return SchedDecision::Serve(rpc);
        }
        SchedDecision::Idle
    }

    #[inline]
    fn serve_from_fallback(&mut self, job: JobId) {
        self.served_fallback += 1;
        let slot = self.slot(job);
        self.fallback_served[slot] += 1;
    }

    // ---- incremental reconciliation helpers ------------------------------

    /// Re-bind the queues bound to `id` after its rate/weight changed.
    fn refresh_bound_queues(&mut self, id: RuleId, now: SimTime) {
        let Some(jobs) = self.bound.get(&id) else {
            return;
        };
        let binding = RuleBinding::from(self.rules.get(id).expect("refreshed rule exists"));
        // The affected-job set is copied out because `rebind_queue` needs
        // `&mut self` — into a scratch buffer reused across cycles (the
        // daemon re-rates every rule once per observation period; a fresh
        // Vec per rule per cycle is pure allocator churn).
        let mut scratch = std::mem::take(&mut self.reconcile_scratch);
        scratch.clear();
        scratch.extend(jobs.iter().copied());
        for &job in &scratch {
            self.rebind_queue(job, binding, now);
        }
        self.reconcile_scratch = scratch;
    }

    /// The single re-binding primitive: move `job`'s queue under `binding`
    /// (which must match its traffic) iff anything actually changed.
    /// Rebinding bumps the queue's stamp — lazily invalidating its heap
    /// entries — so a fresh entry is pushed for a non-empty queue; an
    /// untouched queue keeps its still-valid entry.
    fn rebind_queue(&mut self, job: JobId, binding: RuleBinding, now: SimTime) {
        let slot = self.slots.get(job).expect("queue exists");
        let queue = self.queues[slot].as_mut().expect("queue exists");
        let old = queue.rule;
        let changed = old != binding.id
            || queue.weight != binding.weight
            || queue.bucket().rate_tps() != binding.rate_tps;
        if changed {
            queue.rebind(binding.id, binding.weight, binding.rate_tps, now);
            if !queue.is_empty() {
                let weight = queue.weight;
                let stamp = queue.stamp();
                if let Some(deadline) = queue.deadline(now) {
                    self.heap.push(job, deadline, weight, stamp);
                }
                // deadline == None (zero-rate rule): parked until a rate
                // change re-binds it back into the heap.
            }
        }
        if old != binding.id {
            if let Some(set) = self.bound.get_mut(&old) {
                set.remove(&job);
            }
            self.bound.entry(binding.id).or_default().insert(job);
        }
    }

    /// Drop `job`'s queue, folding its service counter into the stats
    /// base so `stats()` stays exact across queue churn, and recording
    /// the stamp floor a future queue for this job must start above
    /// (its heap entries stay behind, invalidated only lazily).
    fn remove_queue(&mut self, job: JobId) {
        let Some(slot) = self.slots.get(job) else {
            return;
        };
        if let Some(queue) = self.queues[slot].take() {
            self.folded_served[slot] += queue.served();
            self.retired_stamps[slot] = queue.stamp() + 1;
            if let Some(set) = self.bound.get_mut(&queue.rule) {
                set.remove(&job);
            }
        }
    }

    /// Lustre relinks queues when rules change: RPCs waiting in the
    /// fallback queue whose job now has a matching rule move under it
    /// (otherwise a newly ruled job's early RPCs could starve behind
    /// saturated ruled queues forever). Only called after rules started —
    /// stopping or re-rating a rule can never make an unmatched RPC match.
    ///
    /// A parked RPC matches no rule older than `started`, so which RPCs
    /// leave is decided by the started rules alone. When all of them are
    /// purely job-based — every batch the daemon issues; decided from the
    /// matchers, like [`Self::stops_are_disjoint`] — those are exactly the
    /// parked RPCs of the jobs they name, and only those are visited.
    /// Any other matcher can pick RPCs out of any job's backlog: the whole
    /// queue is scanned, once. Either way the captured RPCs then enter
    /// their queues rule by rule in start order (ids ascend in start
    /// order), in arrival order within a rule.
    fn recapture_fallback(&mut self, started: &[RuleId], now: SimTime) {
        let rules = &self.rules;
        let mut captured: Vec<(RuleId, u64, Rpc)> = Vec::new();
        let matchers = || {
            started
                .iter()
                .map(|id| &rules.get(*id).expect("just started").matcher)
        };
        if matchers().all(|m| m.jobs().is_some()) {
            for job in matchers().flat_map(|m| m.jobs().unwrap_or_default()) {
                // A job named twice finds nothing left the second time.
                self.fallback.take_job(*job, |pos, rpc| {
                    let rule = rules.classify(&rpc).expect("a started rule names the job");
                    captured.push((rule.id, pos, rpc));
                });
            }
        } else {
            self.fallback.retain(|pos, rpc| match rules.classify(rpc) {
                Some(rule) => {
                    captured.push((rule.id, pos, *rpc));
                    false
                }
                None => true,
            });
        }
        // Before the captured RPCs grow their ruled queues.
        self.fallback.trim();
        captured.sort_unstable_by_key(|&(rule, pos, _)| (rule, pos));
        for (rule, _, rpc) in captured {
            let binding = RuleBinding::from(self.rules.get(rule).expect("just classified"));
            self.enqueue_ruled(rpc, binding, now);
        }
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
                out.extend(queue.drain());
            }
        }
        self.ruled_backlog = 0;
        out.extend(self.fallback.drain());
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
            let total = self.folded_served[slot] + self.fallback_served[slot] + queue_served;
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

    fn rpc_from(id: u64, job: u32, client: u32) -> Rpc {
        Rpc::new(RpcId(id), JobId(job), ClientId(client), ProcId(0), t(0))
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
        s.change_rate(id, 1000.0, t(0)).unwrap();
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
    fn stop_rebinds_to_later_matching_rule() {
        // Two rules match job 1 (a specific one and a catch-all behind
        // it): stopping the first must re-bind the queue to the second,
        // not orphan it.
        let mut s = sched();
        let first = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        s.start_rule("any", RpcMatcher::Any, 1000.0, 2, t(0));
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
            "queue stays ruled under the catch-all"
        );
        assert_eq!(s.pending_fallback(), 0);
        // The catch-all's 1000 tps rate applies going forward.
        assert!(matches!(s.next(t(2)), SchedDecision::Serve(_)));
    }

    #[test]
    fn rebind_on_enqueue_keeps_queue_dispatchable() {
        // Non-job matchers can split one job's traffic across rules: the
        // first RPC binds the queue to the Job rule, the second (from
        // client 0) re-binds it to the earlier Client rule. The rebind
        // stales the queue's heap entry — a fresh one must be pushed or
        // the backlog livelocks (next() reporting Idle with work pending).
        let mut s = sched();
        s.start_rule("c0", RpcMatcher::Client(ClientId(0)), 1000.0, 1, t(0));
        s.start_rule("j1", RpcMatcher::Job(JobId(1)), 1000.0, 1, t(0));
        s.enqueue(rpc_from(1, 1, 1), t(0)); // Job rule
        s.enqueue(rpc_from(2, 1, 0), t(0)); // Client rule: triggers rebind
        assert_eq!(s.pending(), 2);
        assert!(matches!(s.next(t(1000)), SchedDecision::Serve(_)));
        assert!(matches!(s.next(t(1000)), SchedDecision::Serve(_)));
        assert_eq!(s.next(t(1000)), SchedDecision::Idle);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn stop_rule_reclassifies_each_orphaned_rpc() {
        // Queue bound to the Job rule holds a mix: one RPC that matches
        // nothing once the rule stops, one that matches the later Client
        // rule. The drain must re-classify per RPC — the client-0 RPC
        // stays rate-limited under its rule instead of escaping to the
        // unthrottled fallback queue.
        let mut s = sched();
        let a = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 1000.0, 1, t(0));
        s.start_rule("c0", RpcMatcher::Client(ClientId(0)), 1000.0, 1, t(0));
        s.enqueue(rpc_from(1, 1, 1), t(0)); // only matches the Job rule
        s.enqueue(rpc_from(2, 1, 0), t(0)); // also matches the Client rule
        assert_eq!(s.pending_ruled(), 2);
        s.stop_rule(a, t(0)).unwrap();
        assert_eq!(s.pending_fallback(), 1, "client-1 RPC is unmatched");
        assert_eq!(s.pending_ruled(), 1, "client-0 RPC stays under its rule");
        // Both still get served.
        assert!(matches!(s.next(t(1000)), SchedDecision::Serve(_)));
        assert!(matches!(s.next(t(1000)), SchedDecision::Serve(_)));
        assert_eq!(s.next(t(1000)), SchedDecision::Idle);
    }

    #[test]
    fn stale_heap_entries_never_alias_recreated_queues() {
        // A removed queue's heap entries are invalidated lazily, so a
        // re-created queue for the same job must start its stamp above
        // them. Without that, the buried entry below (stamp 3, deadline
        // ~100 ms) would read as valid once the new queue's stamp caught
        // up — popping a deadline whose token doesn't exist yet.
        let mut s = sched();
        let a = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        for i in 0..4 {
            s.enqueue(rpc(i, 1), t(0));
        }
        for _ in 0..3 {
            assert!(matches!(s.next(t(0)), SchedDecision::Serve(_)));
        }
        // Rebind buries the stamp-3 entry (deadline ~100 ms) as stale.
        s.change_rate(a, 1000.0, t(0)).unwrap();
        assert!(matches!(s.next(t(2)), SchedDecision::Serve(_)));
        // Queue now empty: stopping the rule removes it; the buried
        // entry stays behind.
        s.stop_rule(a, t(2)).unwrap();
        s.start_rule("j1b", RpcMatcher::Job(JobId(1)), 10.0, 1, t(2));
        for i in 10..14 {
            s.enqueue(rpc(i, 1), t(2));
        }
        // Serve the fresh burst: the new queue's serve count reaches the
        // buried entry's stamp value.
        for _ in 0..3 {
            assert!(matches!(s.next(t(2)), SchedDecision::Serve(_)));
        }
        // True next token arrives ~102 ms; the buried ~100 ms entry must
        // not be honored.
        match s.next(t(101)) {
            SchedDecision::WaitUntil(at) => assert!(at > t(101), "future deadline"),
            other => panic!("stale entry must not validate: got {other:?}"),
        }
        assert!(matches!(s.next(t(103)), SchedDecision::Serve(_)));
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
            name: format!("j{job}"),
            matcher: RpcMatcher::Job(JobId(job)),
            rate_tps: 10.0,
            weight: 1,
        }
    }

    /// 40 jobs × 10 RPCs parked in arrival order.
    fn parked_400() -> NrsTbfScheduler {
        let mut s = sched();
        for i in 0..400 {
            s.enqueue(rpc_from(i, i as u32 % 40, i as u32 % 7), t(0));
        }
        assert_eq!(s.pending_fallback(), 400);
        s.rules.classify_calls.set(0);
        s
    }

    #[test]
    fn starting_k_job_rules_classifies_each_captured_rpc_once() {
        // A cycle starts rules for 16 of the 40 parked jobs. The work is
        // one classification per *captured* RPC: the other 240 parked
        // RPCs are neither classified nor moved.
        let mut s = parked_400();
        let ids = s.transact(&[], (0..16).map(job_spec), &[], t(0)).unwrap();
        assert_eq!(ids.len(), 16);
        assert_eq!(s.rules.classify_calls.get(), 160);
        assert_eq!((s.pending_ruled(), s.pending_fallback()), (160, 240));
        // The uncaptured backlog kept its arrival order.
        let parked: Vec<u64> = s.fallback.iter().map(|r| r.id.raw()).collect();
        assert_eq!(parked.len(), 240);
        assert!(parked.windows(2).all(|w| w[0] < w[1]));
        assert!(s.fallback.iter().all(|r| r.job.raw() >= 16));
    }

    #[test]
    fn a_non_job_start_scans_the_fallback_and_equals_one_at_a_time() {
        // One `Client` rule among the job rules can capture RPCs of any
        // job, so the batch takes the full scan — one classification per
        // parked RPC — and must leave what single starts leave.
        let specs = || {
            let mut specs: Vec<RuleSpec> = (0..8).map(job_spec).collect();
            specs.insert(
                3,
                RuleSpec {
                    name: "c5".into(),
                    matcher: RpcMatcher::Client(ClientId(5)),
                    rate_tps: 10.0,
                    weight: 1,
                },
            );
            specs
        };
        let mut batch = parked_400();
        let ids = batch.transact(&[], specs(), &[], t(0)).unwrap();
        assert_eq!(batch.rules.classify_calls.get(), 400);
        let mut single = parked_400();
        let ids_single: Vec<RuleId> = specs()
            .into_iter()
            .map(|r| single.start_rule(r.name, r.matcher, r.rate_tps, r.weight, t(0)))
            .collect();
        assert_eq!(ids, ids_single);
        assert!(batch.fallback.iter().eq(single.fallback.iter()));
        assert!(batch.pending_ruled() > 80, "the client rule captured too");
        loop {
            let decision = batch.next(t(0));
            assert_eq!(decision, single.next(t(0)));
            if !matches!(decision, SchedDecision::Serve(_)) {
                break;
            }
        }
    }

    #[test]
    fn stopping_k_job_rules_rebuilds_the_index_once() {
        let mut s = sched();
        let ids = s.transact(&[], (0..16).map(job_spec), &[], t(0)).unwrap();
        for i in 0..64 {
            s.enqueue(rpc(i, i as u32 % 16), t(0));
        }
        let before = s.rules.index_rebuilds;
        s.transact(&ids[..12], [], &[], t(0)).unwrap();
        assert_eq!(s.rules.index_rebuilds - before, 1);
        assert_eq!(s.rules().len(), 4);
        assert_eq!((s.pending_ruled(), s.pending_fallback()), (16, 48));
    }

    #[test]
    fn overlapping_stops_keep_their_order() {
        // Job 1's queue sits under the job set; stopped first, it hops
        // under the later `Job(1)` rule while job 2's backlog is released,
        // and only the second stop releases job 1's. Taking both rules
        // out of the table at once would release job 1 first — so stops
        // whose matchers overlap (or are not job-based) go one at a time.
        let mut s = sched();
        let set = s.start_rule(
            "set",
            RpcMatcher::JobSet(vec![JobId(1), JobId(2)]),
            10.0,
            1,
            t(0),
        );
        let one = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        s.enqueue(rpc(1, 1), t(0));
        s.enqueue(rpc(2, 2), t(0));
        let before = s.rules.index_rebuilds;
        s.transact(&[set, one], [], &[], t(0)).unwrap();
        assert_eq!(s.rules.index_rebuilds - before, 2, "ordered stops");
        let released: Vec<u32> = s.fallback.iter().map(|r| r.job.raw()).collect();
        assert_eq!(released, vec![2, 1]);
    }

    #[test]
    fn a_bad_transaction_changes_nothing() {
        let mut s = sched();
        let a = s.start_rule("j1", RpcMatcher::Job(JobId(1)), 10.0, 1, t(0));
        let b = s.start_rule("j2", RpcMatcher::Job(JobId(2)), 10.0, 1, t(0));
        s.enqueue(rpc(1, 1), t(0));
        let mut rejects = |stops: &[RuleId], updates: &[(RuleId, f64, u32)]| {
            let err = s.transact(stops, [job_spec(3)], updates, t(0));
            assert!(err.is_err(), "{stops:?} {updates:?}");
            assert_eq!(s.rules().len(), 2, "nothing stopped, nothing started");
            assert_eq!(s.rules().get(a).unwrap().rate_tps, 10.0);
            assert_eq!(s.queue_depth(JobId(1)), 1);
        };
        rejects(&[a, RuleId(9999)], &[]); // unknown stop
        rejects(&[a, b, a], &[]); // stopped twice
        rejects(&[a], &[(a, 500.0, 7)]); // re-rating a rule it stops
        rejects(&[a], &[(RuleId(9999), 1.0, 1)]); // unknown update
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
