//! TBF rules and the ordered, runtime-editable rule table.
//!
//! Rules are kept in an ordered list independent of the queues (paper
//! Section II-A): classification walks the list top-down and the first
//! matching rule wins. Rules can be started, stopped, re-rated and
//! re-weighted at runtime — the operations AdapTBF's Rule Management Daemon
//! performs every observation period.

use crate::matcher::RpcMatcher;
use adaptbf_model::{JobSlots, ModelError, Rpc, RuleId};
use serde::{Deserialize, Serialize};

/// One TBF rule: a matcher plus its enforcement parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TbfRule {
    /// Stable identifier assigned by the table at start time.
    pub id: RuleId,
    /// Human-readable rule name (Lustre rules are named; the daemon names
    /// them after the job label).
    pub name: String,
    /// The classification predicate.
    pub matcher: RpcMatcher,
    /// Token refill rate in tokens/second.
    pub rate_tps: f64,
    /// Hierarchy weight: when several queues are token-ready at the same
    /// deadline, higher weight is served first. The daemon derives this
    /// from job priority (paper Section III-D).
    pub weight: u32,
}

/// The ordered rule list of one OST's NRS TBF policy (runtime state; not
/// serializable — rebuild from configuration instead).
///
/// ## Classification fast path
///
/// AdapTBF's Rule Management Daemon only ever installs `Job`/`JobSet`
/// matchers, whose verdict depends solely on `rpc.job`. The table exploits
/// that: [`RuleTable::classify`] first consults a `JobId → first matching
/// rule index` shortcut — a flat slot-indexed vector behind a [`JobSlots`]
/// interner, so the per-RPC lookup is an array load, not a hash round —
/// and only walks the (usually empty) list of non-job rules that sit
/// *earlier* than the shortcut hit, preserving exact first-match-wins
/// semantics while keeping the data-path lookup O(1) in the rule count
/// for pure-job tables. The equivalence with a full linear scan is
/// property-tested against random start/stop/reorder sequences
/// (`tests/proptests.rs`).
#[derive(Debug, Clone, Default)]
pub struct RuleTable {
    rules: Vec<TbfRule>,
    /// `raw RuleId → position in rules + 1` (0 = absent). Ids are handed
    /// out sequentially, so a flat vector stays small and per-rule
    /// updates are O(1) (the daemon re-rates every active job's rule each
    /// period). Ids are never reused, so it only ever grows: nothing on
    /// the mutation path may scan it whole.
    index: Vec<u32>,
    /// Interner behind the classify shortcut.
    job_slots: JobSlots,
    /// `job slot → position of the first Job/JobSet rule selecting it + 1`
    /// (0 = none) — the data-path shortcut. Maintained on start
    /// (incrementally) and stop/reorder (rebuild). Slots are never
    /// forgotten either, so like `index` it is never scanned whole.
    job_fast_path: Vec<u32>,
    /// Positions of rules whose matcher is *not* purely job-based
    /// (Client / Opcode / All / Any), ascending. Empty under AdapTBF.
    non_job_rules: Vec<usize>,
    next_id: u64,
    /// Bumped on every mutation so schedulers know to re-classify queues.
    generation: u64,
    /// Work counters behind the per-cycle cost tests: classifications
    /// made and position-index rebuilds done.
    #[cfg(test)]
    pub(crate) classify_calls: std::cell::Cell<u64>,
    #[cfg(test)]
    pub(crate) index_rebuilds: u64,
}

impl RuleTable {
    /// New empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start (install) a rule at the end of the list. Returns its id.
    pub fn start_rule(
        &mut self,
        name: impl Into<String>,
        matcher: RpcMatcher,
        rate_tps: f64,
        weight: u32,
    ) -> RuleId {
        assert!(
            rate_tps >= 0.0 && rate_tps.is_finite(),
            "invalid rate {rate_tps}"
        );
        let id = RuleId(self.next_id);
        self.next_id += 1;
        let pos = self.rules.len();
        self.index_set(id, pos);
        // Appending never shadows an existing rule (first match wins), so
        // the fast-path structures update incrementally.
        match matcher.jobs() {
            Some(jobs) => {
                for job in jobs {
                    self.fast_path_set_if_unset(*job, pos);
                }
            }
            None => self.non_job_rules.push(pos),
        }
        self.rules.push(TbfRule {
            id,
            name: name.into(),
            matcher,
            rate_tps,
            weight,
        });
        self.generation += 1;
        id
    }

    /// Stop (remove) a rule. RPCs previously classified to it fall back to
    /// later rules or the unruled fallback queue.
    pub fn stop_rule(&mut self, id: RuleId) -> Result<TbfRule, ModelError> {
        let rule = self
            .get(id)
            .cloned()
            .ok_or_else(|| ModelError::not_found("rule", id))?;
        self.stop_rules(&[id])?;
        Ok(rule)
    }

    /// Stop every rule in `ids` with **one** rebuild of the position
    /// index and the classify shortcut, whatever `ids.len()` is — the
    /// cost is O(live rules + stopped rules), independent of how many ids
    /// the table has ever issued. An id that is not installed (or listed
    /// twice) is an error and leaves the table untouched.
    pub fn stop_rules(&mut self, ids: &[RuleId]) -> Result<(), ModelError> {
        // Clearing each id's own index entry is both the validation (a
        // missing or repeated id reads as absent) and all the index
        // clean-up the rebuild below needs.
        for (n, &id) in ids.iter().enumerate() {
            if self.index_get(id).is_none() {
                for &undo in &ids[..n] {
                    let pos = self.rules.iter().position(|r| r.id == undo);
                    self.index_set(undo, pos.expect("cleared above, still listed"));
                }
                return Err(ModelError::not_found("rule", id));
            }
            self.index[id.raw() as usize] = 0;
        }
        if ids.is_empty() {
            return Ok(());
        }
        let (index, slots, fast_path) = (&self.index, &self.job_slots, &mut self.job_fast_path);
        self.rules.retain(|rule| {
            let live = index[rule.id.raw() as usize] != 0;
            if !live {
                for job in rule.matcher.jobs().unwrap_or_default() {
                    fast_path[slots.get(*job).expect("interned at start")] = 0;
                }
            }
            live
        });
        self.rebuild_index();
        self.generation += 1;
        Ok(())
    }

    #[inline]
    fn index_get(&self, id: RuleId) -> Option<usize> {
        match self.index.get(id.raw() as usize) {
            Some(0) | None => None,
            Some(&p) => Some((p - 1) as usize),
        }
    }

    fn index_set(&mut self, id: RuleId, pos: usize) {
        let raw = id.raw() as usize;
        if raw >= self.index.len() {
            self.index.resize(raw + 1, 0);
        }
        self.index[raw] = pos as u32 + 1;
    }

    #[inline]
    fn fast_path_get(&self, job: adaptbf_model::JobId) -> Option<usize> {
        match self
            .job_slots
            .get(job)
            .and_then(|slot| self.job_fast_path.get(slot))
        {
            Some(0) | None => None,
            Some(&p) => Some((p - 1) as usize),
        }
    }

    fn fast_path_set_if_unset(&mut self, job: adaptbf_model::JobId, pos: usize) {
        let slot = self.job_slots.intern(job);
        if slot >= self.job_fast_path.len() {
            self.job_fast_path.resize(slot + 1, 0);
        }
        if self.job_fast_path[slot] == 0 {
            self.job_fast_path[slot] = pos as u32 + 1;
        }
    }

    /// Re-derive every live rule's position: the id index, the classify
    /// shortcut and the non-job rule list. Entries of rules that are no
    /// longer listed must already be cleared (see [`Self::stop_rules`]) —
    /// this only writes the live rules' entries, so its cost is O(live
    /// rules) however many ids and jobs the table has seen.
    fn rebuild_index(&mut self) {
        #[cfg(test)]
        {
            self.index_rebuilds += 1;
        }
        self.non_job_rules.clear();
        // Last position first, so the earliest rule selecting a job
        // writes its shortcut entry last and wins.
        for (pos, rule) in self.rules.iter().enumerate().rev() {
            self.index[rule.id.raw() as usize] = pos as u32 + 1;
            match rule.matcher.jobs() {
                Some(jobs) => {
                    for job in jobs {
                        let slot = self.job_slots.get(*job).expect("interned at start");
                        self.job_fast_path[slot] = pos as u32 + 1;
                    }
                }
                None => self.non_job_rules.push(pos),
            }
        }
        self.non_job_rules.reverse();
    }

    /// Change a rule's token rate (Lustre `rule change rate=`).
    pub fn change_rate(&mut self, id: RuleId, rate_tps: f64) -> Result<(), ModelError> {
        assert!(
            rate_tps >= 0.0 && rate_tps.is_finite(),
            "invalid rate {rate_tps}"
        );
        let idx = self
            .index_get(id)
            .ok_or_else(|| ModelError::not_found("rule", id))?;
        self.rules[idx].rate_tps = rate_tps;
        self.generation += 1;
        Ok(())
    }

    /// Change a rule's hierarchy weight.
    pub fn change_weight(&mut self, id: RuleId, weight: u32) -> Result<(), ModelError> {
        let idx = self
            .index_get(id)
            .ok_or_else(|| ModelError::not_found("rule", id))?;
        self.rules[idx].weight = weight;
        self.generation += 1;
        Ok(())
    }

    /// Move a rule to a new position in the ordered list (Lustre supports
    /// reordering; earlier rules match first).
    pub fn reorder(&mut self, id: RuleId, new_index: usize) -> Result<(), ModelError> {
        let idx = self
            .index_get(id)
            .ok_or_else(|| ModelError::not_found("rule", id))?;
        let rule = self.rules.remove(idx);
        let new_index = new_index.min(self.rules.len());
        self.rules.insert(new_index, rule);
        self.rebuild_index();
        self.generation += 1;
        Ok(())
    }

    /// First rule matching `rpc` — identical result to
    /// [`RuleTable::classify_linear`], but O(1) in the rule count when the
    /// table holds only job rules (AdapTBF's steady state): one slot-array
    /// load, then a walk of the non-job rules installed *before* the
    /// shortcut hit (none, for a pure-job table).
    pub fn classify(&self, rpc: &Rpc) -> Option<&TbfRule> {
        #[cfg(test)]
        self.classify_calls.set(self.classify_calls.get() + 1);
        let job_hit = self.fast_path_get(rpc.job);
        for &pos in &self.non_job_rules {
            if let Some(hit) = job_hit {
                if pos > hit {
                    break;
                }
            }
            if self.rules[pos].matcher.matches(rpc) {
                return Some(&self.rules[pos]);
            }
        }
        job_hit.map(|hit| &self.rules[hit])
    }

    /// Reference implementation of [`RuleTable::classify`]: walk the whole
    /// ordered list, first match wins. Kept as the semantic ground truth
    /// the fast path is property-tested against; never on the data path.
    pub fn classify_linear(&self, rpc: &Rpc) -> Option<&TbfRule> {
        self.rules.iter().find(|r| r.matcher.matches(rpc))
    }

    /// Rule by id (O(1) via the id index).
    pub fn get(&self, id: RuleId) -> Option<&TbfRule> {
        self.index_get(id).map(|i| &self.rules[i])
    }

    /// Rule by name (the daemon addresses rules by job label).
    pub fn get_by_name(&self, name: &str) -> Option<&TbfRule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// All rules in match order.
    pub fn rules(&self) -> &[TbfRule] {
        &self.rules
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Monotone mutation counter; schedulers compare it to decide when to
    /// re-classify their queues.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{ClientId, JobId, ProcId, RpcId, SimTime};

    fn rpc(job: u32) -> Rpc {
        Rpc::new(RpcId(0), JobId(job), ClientId(0), ProcId(0), SimTime::ZERO)
    }

    #[test]
    fn first_match_wins() {
        let mut t = RuleTable::new();
        let a = t.start_rule("a", RpcMatcher::Job(JobId(1)), 10.0, 1);
        let _b = t.start_rule("b", RpcMatcher::Any, 99.0, 1);
        assert_eq!(t.classify(&rpc(1)).unwrap().id, a);
        assert_eq!(t.classify(&rpc(2)).unwrap().name, "b");
    }

    #[test]
    fn stop_rule_removes_and_errors_on_missing() {
        let mut t = RuleTable::new();
        let a = t.start_rule("a", RpcMatcher::Job(JobId(1)), 10.0, 1);
        assert_eq!(t.stop_rule(a).unwrap().name, "a");
        assert!(t.classify(&rpc(1)).is_none());
        assert!(t.stop_rule(a).is_err());
    }

    #[test]
    fn stop_rules_with_a_bad_id_leaves_the_table_untouched() {
        let mut t = RuleTable::new();
        let a = t.start_rule("a", RpcMatcher::Job(JobId(1)), 10.0, 1);
        let b = t.start_rule("b", RpcMatcher::Job(JobId(2)), 10.0, 1);
        assert!(t.stop_rules(&[b, a, RuleId(999)]).is_err());
        assert!(t.stop_rules(&[a, a]).is_err(), "listed twice");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().name, "a");
        assert_eq!(t.classify(&rpc(2)).unwrap().id, b);
        t.stop_rules(&[b, a]).unwrap();
        assert!(t.is_empty() && t.classify(&rpc(1)).is_none());
    }

    #[test]
    fn change_rate_and_weight() {
        let mut t = RuleTable::new();
        let a = t.start_rule("a", RpcMatcher::Job(JobId(1)), 10.0, 1);
        t.change_rate(a, 50.0).unwrap();
        t.change_weight(a, 9).unwrap();
        let r = t.get(a).unwrap();
        assert_eq!(r.rate_tps, 50.0);
        assert_eq!(r.weight, 9);
        assert!(t.change_rate(RuleId(999), 1.0).is_err());
    }

    #[test]
    fn reorder_changes_match_priority() {
        let mut t = RuleTable::new();
        let _any = t.start_rule("any", RpcMatcher::Any, 1.0, 1);
        let spec = t.start_rule("spec", RpcMatcher::Job(JobId(1)), 10.0, 1);
        // "any" currently shadows "spec".
        assert_eq!(t.classify(&rpc(1)).unwrap().name, "any");
        t.reorder(spec, 0).unwrap();
        assert_eq!(t.classify(&rpc(1)).unwrap().name, "spec");
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut t = RuleTable::new();
        let g0 = t.generation();
        let a = t.start_rule("a", RpcMatcher::Any, 1.0, 1);
        assert!(t.generation() > g0);
        let g1 = t.generation();
        t.change_rate(a, 2.0).unwrap();
        assert!(t.generation() > g1);
        let g2 = t.generation();
        t.stop_rule(a).unwrap();
        assert!(t.generation() > g2);
    }

    #[test]
    fn lookup_by_name() {
        let mut t = RuleTable::new();
        t.start_rule("app1.node1", RpcMatcher::Job(JobId(1)), 10.0, 1);
        assert!(t.get_by_name("app1.node1").is_some());
        assert!(t.get_by_name("nope").is_none());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = RuleTable::new();
        let a = t.start_rule("a", RpcMatcher::Any, 1.0, 1);
        t.stop_rule(a).unwrap();
        let b = t.start_rule("b", RpcMatcher::Any, 1.0, 1);
        assert_ne!(a, b);
    }
}
