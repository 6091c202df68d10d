//! The Rule Management Daemon (paper Section III-D): translates token
//! allocations into TBF rule operations against one OST's scheduler.
//!
//! Each control cycle it (1) stops rules of jobs that are no longer
//! active, (2) creates rules for newly active jobs, (3) applies the
//! computed token rate to every active job's rule, and (4) sets the rule
//! hierarchy weight from job priority so idle threads prefer high-priority
//! queues — handed to the scheduler as **one transaction**
//! ([`NrsTbfScheduler::transact`]), in which a stop and a start are O(1)
//! each whatever is parked (the backlog changes hands as one deque), and
//! a rule goes by its job's label without the string being built. Jobs
//! without rules are never starved — their RPCs ride the fallback queue.
//!
//! The daemon keeps no copy of which job has which rule: it reads that
//! off the scheduler's rule table each cycle, so the two cannot disagree
//! — a scheduler replaced after an OST crash simply has no rules, and the
//! next cycle creates them. A cycle costs O(rules + allocations): the
//! allocated jobs mark their scheduler slots, and one walk of the table
//! finds the rules whose job is unmarked.

use crate::matcher::RpcMatcher;
use crate::rule::TbfRule;
use crate::scheduler::{NrsTbfScheduler, RuleSpec};
use adaptbf_model::{JobAllocation, JobId, RuleId, SimTime};

/// The rule-operation translator for one OST.
#[derive(Debug, Default)]
pub struct RuleDaemon {
    ops_applied: u64,
    /// Per-cycle scratch (the daemon runs every observation period on
    /// every OST; these avoid a handful of allocations per cycle).
    stops: Vec<RuleId>,
    starts: Vec<(JobId, f64, u32)>,
    updates: Vec<(RuleId, f64, u32)>,
    /// `scheduler slot → the last cycle that allocated to its job`.
    allocated_in: Vec<u64>,
    cycle: u64,
}

impl RuleDaemon {
    /// New daemon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one period's allocations. `weights` supplies the hierarchy
    /// weight per job (the daemon derives it from job priority; callers
    /// pass node counts). Both `allocations` and `weights` must be
    /// ascending in JobId — which they are by construction: they flow
    /// from the job-stats snapshot, which collects in job order.
    ///
    /// Panics on an allocation whose rate is not finite and non-negative
    /// (the scheduler rejects the whole transaction, untouched): the
    /// controller configuration that produced it is invalid.
    pub fn apply(
        &mut self,
        scheduler: &mut NrsTbfScheduler,
        allocations: &[JobAllocation],
        weights: &[(JobId, u32)],
        now: SimTime,
    ) {
        // Real asserts, not debug: the weights are read by walking both
        // slices in step. O(active jobs) once per period — noise.
        assert!(
            allocations.windows(2).all(|w| w[0].job < w[1].job),
            "allocations must be ascending in JobId"
        );
        assert!(
            weights.windows(2).all(|w| w[0].0 < w[1].0),
            "weights must be ascending in JobId"
        );
        // 1. Create rules for newly active jobs; re-rate the rest; mark
        // the slot of every job that has an allocation this cycle.
        self.cycle += 1;
        self.starts.clear();
        self.updates.clear();
        let mut weights = weights.iter().peekable();
        for alloc in allocations {
            while weights.next_if(|w| w.0 < alloc.job).is_some() {}
            let weight = weights.next_if(|w| w.0 == alloc.job).map_or(1, |w| w.1);
            let slot = scheduler.slot_of(alloc.job);
            if let Some(slot) = slot {
                let len = self.allocated_in.len().max(slot + 1);
                self.allocated_in.resize(len, 0);
                self.allocated_in[slot] = self.cycle;
            }
            match slot.and_then(|slot| scheduler.rules().first(slot)) {
                Some(rule) => self.updates.push((rule.id, alloc.rate_tps, weight)),
                None => self.starts.push((alloc.job, alloc.rate_tps, weight)),
            }
        }

        // 2. Stop the rules of jobs with no allocation this cycle: one walk
        // of the table finds them in start order, and the few that went
        // idle are put in job order.
        let (rules, cycle, allocated_in) = (scheduler.rules(), self.cycle, &self.allocated_in);
        let idle = |rule: &&TbfRule| allocated_in.get(rule.slot) != Some(&cycle);
        let stops = &mut self.stops;
        stops.clear();
        stops.extend(rules.rules().iter().filter(idle).map(|rule| rule.id));
        let job_of = |id: RuleId| {
            let RpcMatcher::Job(job) = rules.get(id).expect("listed rule").matcher;
            job
        };
        stops.sort_unstable_by_key(|&id| (job_of(id), id));
        self.ops_applied += (stops.len() + self.starts.len() + 2 * self.updates.len()) as u64;

        // One transaction for the whole cycle: one table rebuild for the
        // stops, and no RPC moved by a stop or a start.
        let specs = self.starts.iter().map(|&(job, rate_tps, weight)| RuleSpec {
            name: None,
            matcher: RpcMatcher::Job(job),
            rate_tps,
            weight,
        });
        scheduler
            .transact(&self.stops, specs, &self.updates, now)
            .expect("allocated rates are finite and non-negative");
    }

    /// Total rule operations performed (overhead accounting).
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{ClientId, ProcId, Rpc, RpcId, TbfSchedulerConfig};

    fn alloc(job: u32, tokens: u64) -> JobAllocation {
        JobAllocation {
            job: JobId(job),
            tokens,
            rate_tps: tokens as f64 * 10.0,
        }
    }

    fn rule_of(s: &NrsTbfScheduler, job: u32) -> Option<&TbfRule> {
        s.rules().first(s.slot_of(JobId(job))?)
    }

    fn weights(pairs: &[(u32, u32)]) -> Vec<(JobId, u32)> {
        pairs.iter().map(|(j, w)| (JobId(*j), *w)).collect()
    }

    #[test]
    fn creates_rules_for_new_jobs() {
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        let mut d = RuleDaemon::new();
        d.apply(
            &mut s,
            &[alloc(1, 30), alloc(2, 70)],
            &weights(&[(1, 1), (2, 5)]),
            SimTime::ZERO,
        );
        assert_eq!(s.rules().len(), 2);
        let r = s.rules().get_by_name("app2.node2").unwrap();
        assert_eq!(r.rate_tps, 700.0);
        assert_eq!(r.weight, 5);
    }

    #[test]
    fn updates_existing_rules_in_place() {
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        let mut d = RuleDaemon::new();
        let w = weights(&[(1, 1)]);
        d.apply(&mut s, &[alloc(1, 30)], &w, SimTime::ZERO);
        let id_before = rule_of(&s, 1).unwrap().id;
        d.apply(&mut s, &[alloc(1, 90)], &w, SimTime::from_millis(100));
        assert_eq!(rule_of(&s, 1).unwrap().id, id_before, "no churn");
        assert_eq!(s.rules().get(id_before).unwrap().rate_tps, 900.0);
    }

    #[test]
    fn stops_rules_for_inactive_jobs() {
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        let mut d = RuleDaemon::new();
        d.apply(
            &mut s,
            &[alloc(1, 50), alloc(2, 50)],
            &weights(&[(1, 1), (2, 1)]),
            SimTime::ZERO,
        );
        d.apply(
            &mut s,
            &[alloc(2, 100)],
            &weights(&[(2, 1)]),
            SimTime::from_millis(100),
        );
        assert_eq!(s.rules().len(), 1);
        assert!(rule_of(&s, 1).is_none() && rule_of(&s, 2).is_some());
    }

    #[test]
    fn stops_are_issued_in_job_order_whatever_the_start_order() {
        // Job 3 is ruled a cycle before jobs 1 and 2, so the table lists
        // it first; all three go idle together. Each stop parks its job's
        // backlog, so the fallback order shows the order of the stops.
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        let mut d = RuleDaemon::new();
        let w = weights(&[(1, 1), (2, 1), (3, 1)]);
        d.apply(&mut s, &[alloc(3, 10)], &w, SimTime::ZERO);
        d.apply(
            &mut s,
            &[alloc(1, 10), alloc(2, 10), alloc(3, 10)],
            &w,
            SimTime::ZERO,
        );
        for (id, job) in [(0, 3), (1, 2), (2, 1)] {
            let rpc = Rpc::new(RpcId(id), JobId(job), ClientId(0), ProcId(0), SimTime::ZERO);
            s.enqueue(rpc, SimTime::ZERO);
        }
        d.apply(&mut s, &[], &[], SimTime::from_millis(100));
        let parked: Vec<u32> = s.drain_pending().iter().map(|r| r.job.raw()).collect();
        assert_eq!(parked, vec![1, 2, 3]);
    }

    #[test]
    fn a_replaced_scheduler_gets_its_rules_on_the_next_apply() {
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        let mut d = RuleDaemon::new();
        let w = weights(&[(1, 1)]);
        d.apply(&mut s, &[alloc(1, 30)], &w, SimTime::ZERO);
        // The OST crashes: the scheduler (and its rule table) is replaced.
        // The daemon holds no rule ids that could now be stale.
        let mut fresh = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        d.apply(&mut fresh, &[alloc(1, 50)], &w, SimTime::from_millis(100));
        assert_eq!(fresh.rules().len(), 1);
        assert_eq!(rule_of(&fresh, 1).unwrap().rate_tps, 500.0);
    }

    #[test]
    fn counts_operations() {
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        let mut d = RuleDaemon::new();
        d.apply(&mut s, &[alloc(1, 50)], &weights(&[(1, 1)]), SimTime::ZERO);
        assert_eq!(d.ops_applied(), 1); // one start
        d.apply(
            &mut s,
            &[alloc(1, 60)],
            &weights(&[(1, 1)]),
            SimTime::from_millis(100),
        );
        assert_eq!(d.ops_applied(), 3); // + rate & weight change
        d.apply(&mut s, &[], &weights(&[]), SimTime::from_millis(200));
        assert_eq!(d.ops_applied(), 4); // + stop
    }
}
