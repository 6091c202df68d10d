//! TBF rules and the ordered rule table.
//!
//! Rules are kept in an ordered list independent of the queues (paper
//! Section II-A); the first rule naming a job governs it, a later one
//! takes over when that one stops. A rule names exactly one job (see
//! [`crate::matcher`]), so classification is one load: `first` maps the
//! job's slot — assigned by the scheduler's interner, the only one in the
//! crate — to the position of the first rule naming it.
//!
//! Only the scheduler mutates the table, and only inside a rule
//! transaction it has already validated: rules are appended (`start`),
//! re-rated (`set`) and stopped in two steps — `retire` marks one rule
//! stopped in O(1) and names its successor, `compact` drops every retired
//! rule and re-derives the positions once per batch, at O(live + stopped
//! rules) however many ids and jobs the table has ever seen.

use crate::matcher::RpcMatcher;
use crate::scheduler::RuleSpec;
use adaptbf_model::RuleId;
use serde::{Deserialize, Serialize};

/// One TBF rule: the job it names plus its enforcement parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TbfRule {
    /// Stable identifier assigned by the table at start time.
    pub id: RuleId,
    /// The name the rule was given; `None` = its job's label, which is
    /// what the daemon names every rule — so a start builds no string.
    name: Option<String>,
    /// The job this rule names.
    pub matcher: RpcMatcher,
    /// Token refill rate in tokens/second.
    pub rate_tps: f64,
    /// Hierarchy weight: when several queues are token-ready at the same
    /// deadline, higher weight is served first. The daemon derives this
    /// from job priority (paper Section III-D).
    pub weight: u32,
    /// The scheduler's slot for the named job.
    pub(crate) slot: usize,
}

impl TbfRule {
    /// Human-readable rule name (Lustre rules are named): the one given,
    /// else the label of the job the rule names, formatted on read.
    pub fn name(&self) -> String {
        let RpcMatcher::Job(job) = self.matcher;
        self.name.clone().unwrap_or_else(|| job.label())
    }
}

/// The ordered rule list of one OST's NRS TBF policy (runtime state; not
/// serializable — rebuild from configuration instead).
#[derive(Debug, Default)]
pub struct RuleTable {
    /// Match order = start order = ascending id.
    rules: Vec<TbfRule>,
    /// `raw RuleId → position in rules + 1` (0 = not installed). Ids are
    /// handed out sequentially and never reused, so this only ever grows:
    /// nothing on the mutation path may scan it whole.
    index: Vec<u32>,
    /// `job slot → position of the first rule naming the job + 1` (0 =
    /// none); covers the slots rules have named. Never scanned whole.
    first: Vec<u32>,
    /// Installed rules that are not the first naming their job. Zero
    /// unless someone starts a second rule for a ruled job (the daemon
    /// never does), which is what keeps [`Self::retire`] O(1).
    shadowed: usize,
    next_id: u64,
    /// Work counter behind the per-cycle cost tests.
    #[cfg(test)]
    pub(crate) index_rebuilds: u64,
}

impl RuleTable {
    /// Install `spec`, which names the job at `slot`, at the end of the
    /// list. The rate was validated by the caller.
    pub(crate) fn start(&mut self, slot: usize, spec: RuleSpec) -> RuleId {
        let id = RuleId(self.next_id);
        self.next_id += 1;
        let entry = self.rules.len() as u32 + 1;
        debug_assert_eq!(self.index.len() as u64, id.raw(), "ids are sequential");
        self.index.push(entry);
        if slot >= self.first.len() {
            self.first.resize(slot + 1, 0);
        }
        // Appending never shadows an installed rule (first match wins).
        if self.first[slot] == 0 {
            self.first[slot] = entry;
        } else {
            self.shadowed += 1;
        }
        self.rules.push(TbfRule {
            id,
            name: spec.name,
            matcher: spec.matcher,
            rate_tps: spec.rate_tps,
            weight: spec.weight,
            slot,
        });
        id
    }

    /// Mark the installed rule `id` stopped. Returns its job's slot and —
    /// when it was the first rule naming the job — the rule that now is,
    /// if any. The rule stays listed until [`Self::compact`], which must
    /// follow before the table is read again.
    pub(crate) fn retire(&mut self, id: RuleId) -> (usize, Option<&TbfRule>) {
        let pos = self.position(id).expect("validated by the transaction");
        self.index[id.raw() as usize] = 0;
        let slot = self.rules[pos].slot;
        if self.first[slot] as usize != pos + 1 {
            self.shadowed -= 1;
            return (slot, None);
        }
        let successor = if self.shadowed == 0 {
            None
        } else {
            (pos + 1..self.rules.len()).find(|&p| {
                let rule = &self.rules[p];
                rule.slot == slot && self.position(rule.id).is_some()
            })
        };
        self.shadowed -= usize::from(successor.is_some());
        self.first[slot] = successor.map_or(0, |p| p as u32 + 1);
        (slot, successor.map(|p| &self.rules[p]))
    }

    /// Drop every retired rule and re-derive the live rules' positions —
    /// once per batch of stops. [`Self::retire`] already cleared the
    /// entries of rules and jobs that are gone; this writes the live ones.
    pub(crate) fn compact(&mut self) {
        #[cfg(test)]
        {
            self.index_rebuilds += 1;
        }
        let index = &self.index;
        self.rules.retain(|rule| index[rule.id.raw() as usize] != 0);
        // Last position first, so the earliest rule naming a job writes
        // its `first` entry last and wins.
        for (pos, rule) in self.rules.iter().enumerate().rev() {
            self.index[rule.id.raw() as usize] = pos as u32 + 1;
            self.first[rule.slot] = pos as u32 + 1;
        }
    }

    /// Re-rate and re-weight the installed rule `id` (Lustre `rule change
    /// rate=`); validated by the caller like [`Self::start`].
    pub(crate) fn set(&mut self, id: RuleId, rate_tps: f64, weight: u32) -> &TbfRule {
        let pos = self.position(id).expect("validated by the transaction");
        let rule = &mut self.rules[pos];
        rule.rate_tps = rate_tps;
        rule.weight = weight;
        rule
    }

    /// The rule governing the job at `slot`: the first one naming it.
    #[inline]
    pub(crate) fn first(&self, slot: usize) -> Option<&TbfRule> {
        match self.first.get(slot) {
            Some(0) | None => None,
            Some(&p) => Some(&self.rules[(p - 1) as usize]),
        }
    }

    #[inline]
    pub(crate) fn position(&self, id: RuleId) -> Option<usize> {
        match self.index.get(id.raw() as usize) {
            Some(0) | None => None,
            Some(&p) => Some((p - 1) as usize),
        }
    }

    /// Rule by id (O(1) via the id index).
    pub fn get(&self, id: RuleId) -> Option<&TbfRule> {
        self.position(id).map(|i| &self.rules[i])
    }

    /// Rule by name (the daemon names rules after the job label).
    pub fn get_by_name(&self, name: &str) -> Option<&TbfRule> {
        self.rules.iter().find(|r| r.name() == name)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::JobId;

    /// Start a rule for `job`, using the raw job id as its slot.
    fn start(t: &mut RuleTable, name: &str, job: u32) -> RuleId {
        let spec = RuleSpec {
            name: Some(name.into()),
            matcher: RpcMatcher::Job(JobId(job)),
            rate_tps: 10.0,
            weight: 1,
        };
        t.start(job as usize, spec)
    }

    fn first_name(t: &RuleTable, slot: usize) -> Option<&str> {
        t.first(slot).and_then(|r| r.name.as_deref())
    }

    #[test]
    fn first_rule_naming_a_job_wins_and_a_later_one_takes_over() {
        let mut t = RuleTable::default();
        let a = start(&mut t, "a", 1);
        let b = start(&mut t, "b", 1);
        let c = start(&mut t, "c", 2);
        assert_eq!(first_name(&t, 1), Some("a"));
        assert_eq!(first_name(&t, 2), Some("c"));
        assert_eq!(first_name(&t, 3), None);
        // The shadowed rule is the successor; the only rule has none.
        let (slot, successor) = t.retire(a);
        assert_eq!((slot, successor.map(|r| r.id)), (1, Some(b)));
        assert_eq!(t.retire(c), (2, None));
        t.compact();
        assert_eq!(t.len(), 1);
        assert_eq!((first_name(&t, 1), first_name(&t, 2)), (Some("b"), None));
        assert_eq!(t.get(b).unwrap().name(), "b");
        assert!(t.get(a).is_none() && t.get(c).is_none());
    }

    #[test]
    fn retiring_a_shadowed_rule_leaves_the_first_in_charge() {
        let mut t = RuleTable::default();
        let a = start(&mut t, "a", 1);
        let b = start(&mut t, "b", 1);
        let c = start(&mut t, "c", 1);
        assert_eq!(t.retire(b), (1, None));
        // The retired rule is skipped when the first one goes too.
        let (_, successor) = t.retire(a);
        assert_eq!(successor.map(|r| r.id), Some(c));
        t.compact();
        assert_eq!(first_name(&t, 1), Some("c"));
        assert_eq!(t.shadowed, 0);
        assert_eq!(t.index_rebuilds, 1, "one rebuild for the batch");
    }

    #[test]
    fn set_changes_rate_and_weight() {
        let mut t = RuleTable::default();
        let a = start(&mut t, "a", 1);
        t.set(a, 50.0, 9);
        let r = t.get(a).unwrap();
        assert_eq!((r.rate_tps, r.weight), (50.0, 9));
    }

    #[test]
    fn lookup_by_name() {
        let mut t = RuleTable::default();
        start(&mut t, "first", 1);
        // An unnamed rule goes by its job's label.
        let spec = RuleSpec {
            name: None,
            matcher: RpcMatcher::Job(JobId(2)),
            rate_tps: 10.0,
            weight: 1,
        };
        let unnamed = t.start(2, spec);
        assert_eq!(t.get_by_name("first").unwrap().id, RuleId(0));
        assert_eq!(t.get_by_name("app2.node2").unwrap().id, unnamed);
        assert!(t.get_by_name("app1.node1").is_none() && t.get_by_name("nope").is_none());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = RuleTable::default();
        let a = start(&mut t, "a", 1);
        t.retire(a);
        t.compact();
        let b = start(&mut t, "b", 1);
        assert_ne!(a, b);
        assert!(!t.is_empty() && t.get(a).is_none());
    }
}
