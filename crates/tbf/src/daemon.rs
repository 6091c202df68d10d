//! The Rule Management Daemon (paper Section III-D): translates token
//! allocations into TBF rule operations against one OST's scheduler.
//!
//! Each control cycle it (1) stops rules of jobs that are no longer
//! active, (2) creates rules for newly active jobs, (3) applies the
//! computed token rate to every active job's rule, and (4) sets the rule
//! hierarchy weight from job priority so idle threads prefer high-priority
//! queues — handed to the scheduler as **one transaction**
//! ([`NrsTbfScheduler::transact`]), so a cycle's cost follows what
//! changed, not what changed times what is parked. Jobs without rules are
//! never starved — their RPCs ride the fallback queue.

use crate::matcher::RpcMatcher;
use crate::scheduler::{NrsTbfScheduler, RuleSpec};
use adaptbf_model::{JobAllocation, JobId, RuleId, SimTime};
use std::collections::BTreeMap;

/// Rule bookkeeping for one OST.
#[derive(Debug, Default)]
pub struct RuleDaemon {
    rules_by_job: BTreeMap<JobId, RuleId>,
    ops_applied: u64,
    /// Per-cycle scratch (the daemon runs every observation period on
    /// every OST; these avoid a handful of allocations per cycle).
    stops_scratch: Vec<RuleId>,
    starts_scratch: Vec<(JobId, f64, u32)>,
    updates_scratch: Vec<(RuleId, f64, u32)>,
}

impl RuleDaemon {
    /// New daemon with no rules installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one period's allocations. `weights` supplies the hierarchy
    /// weight per job (the daemon derives it from job priority; callers
    /// pass node counts). Both `allocations` and `weights` must be
    /// ascending in JobId — which they are by construction: they flow
    /// from the job-stats snapshot, which collects in job order.
    pub fn apply(
        &mut self,
        scheduler: &mut NrsTbfScheduler,
        allocations: &[JobAllocation],
        weights: &[(JobId, u32)],
        now: SimTime,
    ) {
        // Real asserts, not debug: the stale-rule and weight lookups below
        // binary-search these slices, and silently wrong results in a
        // release build would stop live rules / reset token buckets. The
        // check is O(active jobs) once per observation period — noise.
        assert!(
            allocations.windows(2).all(|w| w[0].job < w[1].job),
            "allocations must be ascending in JobId"
        );
        assert!(
            weights.windows(2).all(|w| w[0].0 < w[1].0),
            "weights must be ascending in JobId"
        );
        // 1. Stop rules for jobs with no allocation this period.
        let mut stops = std::mem::take(&mut self.stops_scratch);
        stops.clear();
        self.rules_by_job.retain(|job, id| {
            let live = allocations.binary_search_by_key(job, |a| a.job).is_ok();
            if !live {
                stops.push(*id);
            }
            live
        });

        // 2/3. Create rules for newly active jobs; re-rate the rest.
        let mut starts = std::mem::take(&mut self.starts_scratch);
        let mut updates = std::mem::take(&mut self.updates_scratch);
        starts.clear();
        updates.clear();
        for alloc in allocations {
            let weight = weights
                .binary_search_by_key(&alloc.job, |w| w.0)
                .map(|i| weights[i].1)
                .unwrap_or(1);
            match self.rules_by_job.get(&alloc.job) {
                Some(id) => updates.push((*id, alloc.rate_tps, weight)),
                None => starts.push((alloc.job, alloc.rate_tps, weight)),
            }
        }
        self.ops_applied += (stops.len() + starts.len() + 2 * updates.len()) as u64;

        // One transaction for the whole cycle: one table rebuild for the
        // stops, one fallback pass for the starts.
        let specs = starts.iter().map(|&(job, rate_tps, weight)| RuleSpec {
            name: job.label(),
            matcher: RpcMatcher::Job(job),
            rate_tps,
            weight,
        });
        let ids = scheduler
            .transact(&stops, specs, &updates, now)
            .expect("rules tracked by daemon must exist");
        self.rules_by_job
            .extend(starts.iter().map(|s| s.0).zip(ids));
        self.stops_scratch = stops;
        self.starts_scratch = starts;
        self.updates_scratch = updates;
    }

    /// Forget every installed rule without touching a scheduler — the
    /// OST-crash path: the scheduler (and its rule table) is gone, so the
    /// daemon's bookkeeping must not survive it, or the next cycle's
    /// batch update would reference rule ids that no longer exist.
    /// Fresh rules are created on the next [`RuleDaemon::apply`].
    pub fn reset(&mut self) {
        self.rules_by_job.clear();
    }

    /// Jobs that currently have a rule installed.
    pub fn ruled_jobs(&self) -> Vec<JobId> {
        self.rules_by_job.keys().copied().collect()
    }

    /// Total rule operations performed (overhead accounting).
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::TbfSchedulerConfig;

    fn alloc(job: u32, tokens: u64) -> JobAllocation {
        JobAllocation {
            job: JobId(job),
            tokens,
            rate_tps: tokens as f64 * 10.0,
        }
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
        assert_eq!(d.ruled_jobs(), vec![JobId(1), JobId(2)]);
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
        let id_before = *d.rules_by_job.get(&JobId(1)).unwrap();
        d.apply(&mut s, &[alloc(1, 90)], &w, SimTime::from_millis(100));
        assert_eq!(
            *d.rules_by_job.get(&JobId(1)).unwrap(),
            id_before,
            "no churn"
        );
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
        assert_eq!(d.ruled_jobs(), vec![JobId(2)]);
        assert_eq!(s.rules().len(), 1);
    }

    #[test]
    fn reset_forgets_rules_and_recreates_on_next_apply() {
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        let mut d = RuleDaemon::new();
        let w = weights(&[(1, 1)]);
        d.apply(&mut s, &[alloc(1, 30)], &w, SimTime::ZERO);
        // The OST crashes: the scheduler (and its rule table) is replaced.
        d.reset();
        assert!(d.ruled_jobs().is_empty());
        let mut fresh = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        // Without the reset this would panic on a stale RuleId.
        d.apply(&mut fresh, &[alloc(1, 50)], &w, SimTime::from_millis(100));
        assert_eq!(d.ruled_jobs(), vec![JobId(1)]);
        assert_eq!(fresh.rules().len(), 1);
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
