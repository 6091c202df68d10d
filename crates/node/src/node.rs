//! The per-OST control-plane assembly shared by both executors.
//!
//! An [`OstNode`] is everything one OSS/OST owns besides its disk model:
//! the NRS/TBF scheduler, the Lustre-style `job_stats` tracker and —
//! depending on the [`Policy`] — either nothing (No BW), a set of fixed
//! rules from the global static priorities (Static BW), or a full
//! [`ControllerDriver`] (AdapTBF). The simulator embeds one node per
//! simulated OST; the live runtime moves one node into each OST thread.
//! Decentralization is structural either way: a node never references
//! another node's state.
//!
//! [`OstNode::control_cycle`] is the whole per-period sequence both
//! executors run. The allocation's per-job diagnostics reach it through a
//! sink ([`ControllerDriver::tick_into`]) rather than as a returned
//! vector: the cycle keeps each job's grant for the allocation gauges,
//! reads the record gauges straight off the ledger, and — in debug builds
//! only — runs the paper's algebra as an audit over the same stream, so
//! every debug test run checks it on every cycle. Gauge cells go by the
//! handle resolved when the ledger first held the job
//! ([`Metrics::gauge_slot`]): a node writes to **one collector for life**.

use crate::control::{ControllerDriver, ControllerOverhead};
use crate::metrics::Metrics;
use crate::policy::Policy;
use adaptbf_core::{AllocationController, AllocationOutcome, AllocationTrace, JobTrace};
use adaptbf_model::{CycleGate, JobId, Rpc, SimTime, TbfSchedulerConfig};
use adaptbf_tbf::{JobStatsTracker, NrsTbfScheduler, RpcMatcher, RuleSpec};
use std::collections::BTreeMap;

/// One OST's complete control plane: scheduler + `job_stats` + (under
/// AdapTBF) its own allocation controller and rule daemon.
#[derive(Debug)]
pub struct OstNode {
    /// The NRS TBF scheduler in front of the I/O threads.
    pub scheduler: NrsTbfScheduler,
    /// The Lustre `job_stats` equivalent for this OST.
    pub job_stats: JobStatsTracker,
    /// The AdapTBF control loop (None under the baselines).
    driver: Option<ControllerDriver>,
    /// Kept so a crash can rebuild the scheduler with identical knobs.
    tbf: TbfSchedulerConfig,
    policy: Policy,
    /// `(id, nodes)` in scenario declaration order (rule installation
    /// order matters for first-match-wins semantics).
    jobs: Vec<(JobId, u64)>,
    /// `T_i` the Static BW baseline's fixed rule rates sum to.
    static_rate_total: f64,
    /// The jobs a cycle allocated to and their grants, between the sink
    /// that sees them and the gauge row they become (scratch).
    granted: Vec<(JobId, f64)>,
    /// The gauge handle of each ledger entry, by ledger slot: appended as
    /// the ledger grows, never re-resolved (neither is reset by a crash).
    handles: Vec<usize>,
}

impl OstNode {
    /// Assemble the control plane for one OST under `policy`.
    ///
    /// `jobs` carries `(id, nodes)` in declaration order; under Static BW
    /// one fixed rule per job is installed at `now` with rate
    /// `static_rate_total · n_x / Σn`, under AdapTBF a private
    /// [`ControllerDriver`] is created (the embedder schedules its ticks).
    pub fn new(
        policy: Policy,
        tbf: TbfSchedulerConfig,
        jobs: &[(JobId, u64)],
        static_rate_total: f64,
        now: SimTime,
    ) -> Self {
        let mut scheduler = NrsTbfScheduler::new(tbf);
        let mut driver = None;
        match policy {
            Policy::NoBw => {}
            Policy::StaticBw => {
                install_static_rules(&mut scheduler, jobs, static_rate_total, now);
            }
            Policy::AdapTbf(config) => driver = Some(ControllerDriver::new(config, jobs)),
        }
        OstNode {
            scheduler,
            job_stats: JobStatsTracker::new(),
            driver,
            tbf,
            policy,
            jobs: jobs.to_vec(),
            static_rate_total,
            granted: Vec::new(),
            handles: Vec::new(),
        }
    }

    /// A bare node with no rules and no controller (No BW with an empty
    /// job set) — the hand-wiring entry point tests and benches use.
    pub fn unruled(tbf: TbfSchedulerConfig) -> Self {
        Self::new(Policy::NoBw, tbf, &[], 0.0, SimTime::ZERO)
    }

    /// Pre-size all per-job state (scheduler queues, job-stats) for about
    /// `jobs` jobs.
    pub fn reserve_jobs(&mut self, jobs: usize) {
        self.scheduler.reserve_jobs(jobs);
        self.job_stats.reserve(jobs);
    }

    /// The policy this node was assembled under.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// One control cycle at `now`: collect stats, allocate, apply rules,
    /// clear stats. Returns `None` under the baselines (which have no
    /// controller to run).
    pub fn tick(&mut self, now: SimTime) -> Option<AllocationOutcome> {
        let driver = self.driver.as_mut()?;
        Some(driver.tick(&mut self.scheduler, &mut self.job_stats, now))
    }

    /// One fault-gated control cycle at `now`, plus the gauge walk that
    /// follows it — the whole per-period sequence both executors run.
    ///
    /// `gate` is the fault plan's verdict on this cycle: [`CycleGate::Skip`]
    /// leaves everything untouched (stats keep accumulating for the next
    /// healthy cycle), [`CycleGate::StatsLost`] wipes `job_stats` first so
    /// the controller allocates over an empty active set. After the tick,
    /// `metrics` — the same collector every time — gets the allocation
    /// gauges of every traced job and the record gauge of every ledger
    /// entry (idle jobs' records persist; their lines stay continuous).
    ///
    /// Returns whether a cycle ran — rule rates may have changed, so the
    /// embedder should re-dispatch. Always `false` under the baselines.
    pub fn control_cycle(&mut self, now: SimTime, gate: CycleGate, metrics: &mut Metrics) -> bool {
        let Some(driver) = self.driver.as_mut() else {
            return false;
        };
        match gate {
            CycleGate::Skip => return false,
            CycleGate::StatsLost => self.job_stats.clear(),
            CycleGate::Healthy => {}
        }
        let granted = &mut self.granted;
        granted.clear();
        let mut audit = Audit::default();
        let outcome = driver.tick_into(&mut self.scheduler, &mut self.job_stats, now, |jt| {
            granted.push((jt.job, jt.after_recompensation as f64));
            if cfg!(debug_assertions) {
                audit.job(jt);
            }
        });
        if cfg!(debug_assertions) {
            audit.cycle(&outcome.trace, &driver.controller);
        }
        let ledger = driver.controller.ledger();
        let handles = &mut self.handles;
        for slot in handles.len()..ledger.len() {
            handles.push(metrics.gauge_slot(ledger.job_at(slot)));
        }
        debug_assert!(
            (0..handles.len()).all(|s| metrics.gauge_job(handles[s]) == Some(ledger.job_at(s))),
            "a node writes to one collector for its life"
        );
        let handle_of = |job| handles[ledger.slot_of(job).expect("granted jobs are entered")];
        metrics.allocation_row(now, granted.iter().map(|&(job, v)| (handle_of(job), v)));
        // A traced job's ledger entry already holds its `record_after`, so
        // the ledger alone is the whole record row, idle jobs included.
        let records = ledger.entries().iter().map(|e| e.record as f64);
        metrics.record_row(now, handles.iter().copied().zip(records));
        true
    }

    /// The allocation controller, if this node runs one.
    pub fn controller(&self) -> Option<&AllocationController> {
        self.driver.as_ref().map(|d| &d.controller)
    }

    /// Control-plane overhead accounting, if this node runs a controller.
    pub fn overhead(&self) -> Option<ControllerOverhead> {
        self.driver.as_ref().map(|d| d.overhead())
    }

    /// Control cycles executed so far (0 under the baselines).
    pub fn ticks(&self) -> u64 {
        self.overhead().map_or(0, |o| o.ticks)
    }

    /// Final lending/borrowing records per job (empty under baselines).
    pub fn ledger_records(&self) -> BTreeMap<JobId, i64> {
        self.controller()
            .map(|c| c.ledger().iter().map(|(j, e)| (j, e.record)).collect())
            .unwrap_or_default()
    }

    /// The control plane crashes with its OST: the scheduler — rules,
    /// token buckets, queues — is replaced with a factory-fresh one and
    /// `job_stats` is wiped. The controller needs no reset: the lending
    /// ledger deliberately survives and the rule daemon keeps no rule ids
    /// (see [`ControllerDriver`]). The drained backlog (ruled queues in
    /// job order, then fallback) is returned so the embedder can model
    /// client resends.
    pub fn crash_reset(&mut self) -> Vec<Rpc> {
        let lost = self.scheduler.drain_pending();
        self.scheduler = NrsTbfScheduler::new(self.tbf);
        self.job_stats.clear();
        lost
    }

    /// The OST rejoins after a crash with empty bucket state. AdapTBF
    /// reinstalls rules on its next control cycle; Static BW's fixed rules
    /// must come back now or the policy would silently degrade to No BW on
    /// this OST for the rest of the run. No-op under No BW / AdapTBF.
    pub fn recover(&mut self, now: SimTime) {
        if matches!(self.policy, Policy::StaticBw) {
            install_static_rules(&mut self.scheduler, &self.jobs, self.static_rate_total, now);
        }
    }
}

/// The paper's algebra, checked on every control cycle of a debug build
/// through the sink that feeds the gauges — so every debug test run
/// (goldens, chaos smoke, churn) is an audit run, with no switch.
#[derive(Default)]
struct Audit {
    /// Σ final grants seen so far this cycle.
    granted: u64,
}

impl Audit {
    /// Per job: the grant never falls below its integerized floor — a job
    /// lends only what it was granted beyond its demand (Eq 4), and a
    /// reclaim takes at most what the job borrowed and holds (Eq 14) —
    /// and the carried remainder stays bounded: a floor-stage fraction
    /// (Eq 24) shifted by at most one fix-up token either way.
    fn job(&mut self, jt: &JobTrace) {
        self.granted += jt.after_recompensation;
        let owed = if jt.borrower {
            jt.record_after_redistribution.unsigned_abs()
        } else {
            0
        };
        assert!(
            jt.after_redistribution >= jt.initial.min(jt.demand)
                && jt.reclaimed <= owed.min(jt.after_redistribution)
                && jt.after_recompensation >= jt.after_redistribution - jt.reclaimed,
            "grant below its floor: {jt:?}"
        );
        assert!(
            jt.remainder_after.abs() < 2.0,
            "unbounded remainder: {jt:?}"
        );
    }

    /// Per cycle: `C ∈ [0, 1]` is the clamp of the raw Eq (13) value, the
    /// budget's carried fraction is one, and the grants sum to the
    /// period's integer budget and the records to zero (the two sums are
    /// exact only with the remainder machinery on: the floor-only ablation
    /// loses fractions by design).
    fn cycle(&self, trace: &AllocationTrace, controller: &AllocationController) {
        let (c, raw) = (trace.reclaim_coefficient, trace.reclaim_coefficient_raw);
        assert!(
            (0.0..=1.0).contains(&c) && c == raw.clamp(0.0, 1.0),
            "C = {c}, raw {raw}"
        );
        let carry = controller.budget_carry();
        assert!(
            (0.0..1.0).contains(&carry),
            "budget carry {carry} outside [0, 1)"
        );
        if controller.config().enable_remainders {
            assert_eq!(
                self.granted, trace.budget,
                "Σ grants ≠ budget in period {}",
                trace.period
            );
            assert_eq!(controller.ledger().record_sum(), 0, "Σ records ≠ 0");
        } else {
            assert!(self.granted <= trace.budget, "granted more than the budget");
        }
    }
}

/// Install the Static BW baseline's fixed rules (rate `T_i · p_x` from the
/// global static priorities `p_x = n_x / Σn`) on one scheduler, as one
/// rule transaction — at build time, and again when a crashed OST rejoins
/// with empty bucket state.
pub fn install_static_rules(
    scheduler: &mut NrsTbfScheduler,
    jobs: &[(JobId, u64)],
    rate_total: f64,
    now: SimTime,
) {
    let total: u64 = jobs.iter().map(|&(_, n)| n).sum();
    let specs = jobs.iter().map(|&(job, nodes)| RuleSpec {
        name: None,
        matcher: RpcMatcher::Job(job),
        rate_tps: rate_total * nodes as f64 / total as f64,
        weight: nodes.min(u32::MAX as u64) as u32,
    });
    scheduler
        .transact(&[], specs, &[], now)
        .expect("static rule rates are finite and non-negative");
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::config::paper;
    use adaptbf_model::{ClientId, ProcId, RpcId, RuleId, SimDuration};

    fn jobs() -> Vec<(JobId, u64)> {
        vec![(JobId(1), 1), (JobId(2), 3)]
    }

    fn rpc(job: u32, id: u64) -> Rpc {
        Rpc::new(RpcId(id), JobId(job), ClientId(0), ProcId(0), SimTime::ZERO)
    }

    #[test]
    fn no_bw_installs_nothing() {
        let node = OstNode::new(
            Policy::NoBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        assert_eq!(node.scheduler.rules().len(), 0);
        assert!(node.controller().is_none());
        assert_eq!(node.ticks(), 0);
        assert!(node.ledger_records().is_empty());
    }

    #[test]
    fn static_bw_installs_priority_proportional_rules() {
        let node = OstNode::new(
            Policy::StaticBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        assert_eq!(node.scheduler.rules().len(), 2);
        let r1 = node.scheduler.rules().get_by_name("app1.node1").unwrap();
        let r2 = node.scheduler.rules().get_by_name("app2.node2").unwrap();
        assert!((r1.rate_tps - 250.0).abs() < 1e-9);
        assert!((r2.rate_tps - 750.0).abs() < 1e-9);
        assert_eq!(r2.weight, 3);
        assert!(node.overhead().is_none());
    }

    #[test]
    fn adaptbf_ticks_allocate_and_ledger_is_readable() {
        let mut node = OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs(),
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        );
        for i in 0..50 {
            node.job_stats.record_arrival(JobId(2));
            node.scheduler.enqueue(rpc(2, i), SimTime::ZERO);
        }
        let out = node.tick(SimTime::from_millis(100)).expect("controller");
        assert_eq!(out.allocations.len(), 1);
        assert_eq!(node.scheduler.rules().len(), 1);
        assert_eq!(node.ticks(), 1);
        assert!(node.ledger_records().contains_key(&JobId(2)));
    }

    fn adaptbf_node() -> OstNode {
        OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs(),
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        )
    }

    fn offer(node: &mut OstNode, job: u32, n: u64, now: SimTime) {
        for i in 0..n {
            node.job_stats.record_arrival(JobId(job));
            node.scheduler.enqueue(rpc(job, i), now);
        }
    }

    #[test]
    fn skipped_cycle_touches_nothing() {
        // A stalled daemon or a crashed OSS: stats keep accumulating for
        // the next healthy cycle, no rule changes, no gauges.
        let mut node = adaptbf_node();
        let mut metrics = Metrics::new(SimDuration::from_millis(100));
        offer(&mut node, 2, 50, SimTime::ZERO);
        let now = SimTime::from_millis(100);
        assert!(!node.control_cycle(now, CycleGate::Skip, &mut metrics));
        assert_eq!(node.job_stats.period_total(), 50, "stats intact");
        assert_eq!((node.ticks(), node.scheduler.rules().len()), (0, 0));
        assert!(metrics.allocations().jobs().is_empty(), "no gauges");
        assert!(metrics.records().jobs().is_empty(), "no gauges");
        // The next healthy cycle sees the whole backlog of observations.
        assert!(node.control_cycle(SimTime::from_millis(200), CycleGate::Healthy, &mut metrics));
        assert_eq!(node.job_stats.period_total(), 0, "collected and cleared");
        assert_eq!(metrics.allocations().jobs(), vec![JobId(2)]);
    }

    #[test]
    fn stats_lost_cycle_allocates_over_an_empty_active_set() {
        let mut node = adaptbf_node();
        let mut metrics = Metrics::new(SimDuration::from_millis(100));
        offer(&mut node, 2, 50, SimTime::ZERO);
        assert!(node.control_cycle(SimTime::from_millis(100), CycleGate::Healthy, &mut metrics));
        assert_eq!(node.scheduler.rules().len(), 1, "job 2 is ruled");
        // The read fails although job 2 kept issuing: the controller sees
        // nobody and stops every rule until the next healthy cycle.
        offer(&mut node, 2, 50, SimTime::from_millis(150));
        assert!(node.control_cycle(
            SimTime::from_millis(200),
            CycleGate::StatsLost,
            &mut metrics
        ));
        assert_eq!(node.ticks(), 2, "the cycle ran");
        assert_eq!(node.job_stats.period_total(), 0);
        assert_eq!(node.scheduler.rules().len(), 0, "empty active set");
    }

    #[test]
    fn idle_jobs_keep_a_continuous_record_gauge() {
        let mut node = adaptbf_node();
        let mut metrics = Metrics::new(SimDuration::from_millis(100));
        // Cycle 1: both jobs active, so both enter the ledger.
        offer(&mut node, 1, 400, SimTime::ZERO);
        offer(&mut node, 2, 5, SimTime::ZERO);
        assert!(node.control_cycle(SimTime::from_millis(100), CycleGate::Healthy, &mut metrics));
        let ledger = node.ledger_records();
        assert!(ledger.contains_key(&JobId(2)), "{ledger:?}");
        // Cycles 2–3: job 2 idles. It is no longer traced, but its ledger
        // record persists — and so must its gauge line, bucket by bucket.
        for cycle in 2..=3u64 {
            offer(&mut node, 1, 400, SimTime::from_millis(cycle * 100 - 50));
            let now = SimTime::from_millis(cycle * 100);
            assert!(node.control_cycle(now, CycleGate::Healthy, &mut metrics));
        }
        let records = metrics.records();
        let idle = records.get(JobId(2)).expect("idle job keeps its gauge");
        let expected = node.ledger_records()[&JobId(2)] as f64;
        assert!(expected != 0.0, "job 2 lent its unused share");
        assert_eq!(idle.get(3), expected, "walked at the last cycle");
        assert_eq!(idle.get(2), expected, "…and the one before");
        let allocations = metrics.allocations();
        let granted = allocations.get(JobId(2)).expect("allocated once");
        assert_eq!(granted.get(3), 0.0, "idle jobs get no allocation gauge");
    }

    #[test]
    fn a_record_row_resolves_each_job_once() {
        // 4,080 jobs enter the ledger in the first cycle and 16 more after
        // a crash; lost, skipped and healthy cycles follow. Every cycle
        // that runs writes the whole ledger's record row, and the collector
        // is asked for a handle 4,096 times in all — not once per cell.
        let mut node = adaptbf_node();
        let mut metrics = Metrics::new(SimDuration::from_millis(100));
        let at = |cycle: u64| SimTime::from_millis(100 * cycle);
        for job in 1..=4080 {
            offer(&mut node, job, 1, SimTime::ZERO);
        }
        assert!(node.control_cycle(at(1), CycleGate::Healthy, &mut metrics));
        assert_eq!((node.handles.len(), metrics.gauge_lookups), (4080, 4080));
        offer(&mut node, 7, 5, at(1));
        assert!(node.control_cycle(at(2), CycleGate::StatsLost, &mut metrics));
        assert!(!node.control_cycle(at(3), CycleGate::Skip, &mut metrics));
        node.crash_reset();
        for job in 4075..=4096 {
            offer(&mut node, job, 1, at(3));
        }
        for cycle in 4..=6 {
            offer(&mut node, 9, 400, at(cycle - 1));
            assert!(node.control_cycle(at(cycle), CycleGate::Healthy, &mut metrics));
        }
        assert_eq!((node.handles.len(), metrics.gauge_lookups), (4096, 4096));
        // The handles outlived all of it: each job's line is its own.
        let (records, ledger) = (metrics.records(), node.ledger_records());
        assert_eq!(ledger.len(), 4096);
        for (job, record) in &ledger {
            let line = records.get(*job).expect("every entry has a gauge line");
            assert_eq!(line.get(6), *record as f64, "{job:?}");
            let entered = if job.raw() <= 4080 { 1 } else { 4 };
            assert_eq!(line.len(), 7, "{job:?}");
            assert!((0..entered).all(|b| line.get(b) == 0.0), "{job:?}");
        }
        assert!(ledger.values().any(|r| *r != 0));
        assert_eq!(records.get(JobId(7)).unwrap().get(3), 0.0, "skipped");
    }

    #[test]
    fn collect_sees_exactly_what_arrived_since_the_last_wipe() {
        // A lost read, then a crash, then re-arrivals from jobs old and
        // new: each wipe empties the period's stats, and the next read
        // returns exactly the non-zero counts, in job order.
        let mut node = adaptbf_node();
        let mut metrics = Metrics::new(SimDuration::from_millis(100));
        offer(&mut node, 2, 50, SimTime::ZERO);
        offer(&mut node, 1, 7, SimTime::ZERO);
        let lost = SimTime::from_millis(100);
        assert!(node.control_cycle(lost, CycleGate::StatsLost, &mut metrics));
        assert!(node.job_stats.collect().is_empty());
        offer(&mut node, 2, 3, SimTime::from_millis(150));
        assert_eq!(node.job_stats.collect(), vec![(JobId(2), 3)]);
        node.crash_reset();
        assert!(node.job_stats.collect().is_empty(), "wiped with the OST");
        offer(&mut node, 70_000, 2, SimTime::from_millis(250));
        offer(&mut node, 1, 4, SimTime::from_millis(250));
        let want = vec![(JobId(1), 4), (JobId(70_000), 2)];
        assert_eq!(node.job_stats.collect(), want);
        assert_eq!(node.job_stats.collect(), want, "reading does not consume");
        assert!(node.control_cycle(SimTime::from_millis(300), CycleGate::Healthy, &mut metrics));
        assert_eq!(metrics.allocations().jobs(), vec![JobId(1), JobId(70_000)]);
        assert!(node.job_stats.collect().is_empty(), "collected and cleared");
    }

    #[test]
    #[should_panic(expected = "Σ grants ≠ budget")]
    fn the_audit_catches_a_token_that_went_missing() {
        let mut node = adaptbf_node();
        offer(&mut node, 1, 400, SimTime::ZERO);
        offer(&mut node, 2, 400, SimTime::ZERO);
        let out = node.tick(SimTime::from_millis(100)).expect("controller");
        let mut audit = Audit::default();
        out.trace.jobs.iter().for_each(|jt| audit.job(jt));
        audit.cycle(&out.trace, node.controller().unwrap()); // balanced: passes
        audit.granted -= 1;
        audit.cycle(&out.trace, node.controller().unwrap());
    }

    #[test]
    fn baselines_never_run_a_cycle() {
        let mut node = OstNode::new(
            Policy::StaticBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        let mut metrics = Metrics::new(SimDuration::from_millis(100));
        offer(&mut node, 1, 3, SimTime::ZERO);
        assert!(!node.control_cycle(
            SimTime::from_millis(100),
            CycleGate::StatsLost,
            &mut metrics
        ));
        assert_eq!(node.job_stats.period_total(), 3, "nothing to blind");
    }

    #[test]
    fn baseline_tick_is_none() {
        let mut node = OstNode::new(
            Policy::StaticBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        assert!(node.tick(SimTime::from_millis(100)).is_none());
    }

    #[test]
    fn crash_reset_drains_and_recover_reinstalls_static_rules() {
        let mut node = OstNode::new(
            Policy::StaticBw,
            TbfSchedulerConfig::default(),
            &jobs(),
            1000.0,
            SimTime::ZERO,
        );
        let table = |node: &OstNode| -> Vec<(RuleId, String)> {
            let rules = node.scheduler.rules().rules();
            rules.iter().map(|r| (r.id, r.name())).collect()
        };
        let built = table(&node);
        assert_eq!(built[0], (RuleId(0), "app1.node1".to_string()));
        assert_eq!(built[1], (RuleId(1), "app2.node2".to_string()));
        for i in 0..4 {
            node.scheduler.enqueue(rpc(1, i), SimTime::ZERO);
        }
        let lost = node.crash_reset();
        assert_eq!(lost.len(), 4, "whole backlog drained");
        assert_eq!(node.scheduler.rules().len(), 0, "rules gone with the OST");
        assert_eq!(node.job_stats.period_total(), 0, "stats wiped");
        // What arrives at the rule-less scheduler parks in the fallback...
        node.scheduler.enqueue(rpc(2, 9), SimTime::from_millis(900));
        node.recover(SimTime::from_secs(1));
        // ...and the one transaction that reinstalls the rules — same ids,
        // same order as at build time — moves it under its rule.
        assert_eq!(table(&node), built, "static rules reinstalled");
        assert_eq!(node.scheduler.pending_fallback(), 0);
        assert_eq!(node.scheduler.queue_depth(JobId(2)), 1);
    }

    #[test]
    fn adaptbf_crash_keeps_ledger_but_resets_daemon() {
        let mut node = OstNode::new(
            Policy::adaptbf_default(),
            TbfSchedulerConfig::default(),
            &jobs(),
            paper::MAX_TOKEN_RATE,
            SimTime::ZERO,
        );
        node.job_stats.record_arrival(JobId(1));
        node.scheduler.enqueue(rpc(1, 0), SimTime::ZERO);
        node.tick(SimTime::from_millis(100));
        let ledger_before = node.ledger_records();
        node.crash_reset();
        assert_eq!(node.ledger_records(), ledger_before, "ledger survives");
        node.recover(SimTime::from_millis(200));
        assert_eq!(node.scheduler.rules().len(), 0, "AdapTBF waits for a tick");
        // The next cycle recreates rules against the fresh scheduler: the
        // daemon has no rule ids that could be stale.
        node.job_stats.record_arrival(JobId(1));
        node.scheduler.enqueue(rpc(1, 1), SimTime::from_millis(250));
        node.tick(SimTime::from_millis(300)).expect("controller");
        assert_eq!(node.scheduler.rules().len(), 1);
    }

    #[test]
    fn unruled_node_is_empty() {
        let node = OstNode::unruled(TbfSchedulerConfig::default());
        assert_eq!(node.scheduler.rules().len(), 0);
        assert!(matches!(node.policy(), Policy::NoBw));
    }
}
