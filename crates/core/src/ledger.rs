//! The Job Records store (paper Figure 2, steps 3/4): per-job lending and
//! borrowing state that persists across observation periods.
//!
//! Per Section IV-G the footprint is deliberately tiny — the job ID plus
//! the record value (we also persist the fractional remainder of Eq 21–25
//! and the last applied allocation, which Eq 3 needs as `α^{t-1}_x`).
//! Entries are never garbage-collected: a departed job's record stays so
//! the global ledger invariant `Σ_x r_x = 0` holds forever.
//!
//! That is also why the store is slot-indexed: a control cycle touches
//! only the period's *active* jobs (two lookups each — read at period
//! start, write at period end), while the entries of every job ever seen
//! pile up behind them. A [`JobSlots`] interner makes each lookup an array
//! index whatever the pile's size; the job-ordered slot list that
//! [`JobLedger::iter`] walks is only written when a job is first seen.
//! Slots are first-sight order, so [`JobLedger::entries`] only grows at
//! the end and a whole-ledger reader can key its own state by slot.

use crate::forecast::ForecastState;
use adaptbf_model::{JobId, JobSlots};
use serde::{Deserialize, Serialize};

/// Persistent per-job state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// `r_x`: cumulative tokens lent (positive) or borrowed (negative).
    pub record: i64,
    /// `ρ_x`: fractional token remainder carried between allocation steps.
    pub remainder: f64,
    /// `α^{t-1}_x`: the final allocation applied in the last period the job
    /// was active (the denominator of the utilization score, Eq 3).
    pub last_alloc: u64,
    /// Index of the last period in which the job was active, if any.
    pub last_active_period: Option<u64>,
    /// Demand-forecasting state (extension; unused under the paper's
    /// `ForecastMode::LastPeriod`).
    pub forecast: ForecastState,
}

impl LedgerEntry {
    /// `α^{t-1}_x` for Eq (3): the allocation last applied to the job, but
    /// only if it was active in `previous_period`; a job returning after an
    /// idle gap is treated as having had no allocation (DESIGN.md §3).
    pub fn previous_alloc(&self, previous_period: u64) -> u64 {
        if self.last_active_period == Some(previous_period) {
            self.last_alloc
        } else {
            0
        }
    }
}

/// The per-OST ledger of [`LedgerEntry`]s, keyed by job.
#[derive(Debug, Clone, Default)]
pub struct JobLedger {
    slots: JobSlots,
    /// Entries by slot (first-sight order).
    entries: Vec<LedgerEntry>,
    /// Every slot, in ascending job order.
    by_job: Vec<u32>,
    /// Work counter behind the per-cycle cost tests: [`JobLedger::entry`]
    /// calls made.
    #[cfg(test)]
    pub(crate) lookups: u64,
}

impl JobLedger {
    /// New empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entry for `job`, default-initialized if unseen.
    pub fn entry(&mut self, job: JobId) -> &mut LedgerEntry {
        #[cfg(test)]
        {
            self.lookups += 1;
        }
        let slot = self.slots.intern(job);
        if slot == self.entries.len() {
            self.entries.push(LedgerEntry::default());
            // Jobs mostly show up in id order, which is a push.
            let slots = &self.slots;
            let at = self
                .by_job
                .partition_point(|&s| slots.job(s as usize) < job);
            self.by_job.insert(at, slot as u32);
        }
        &mut self.entries[slot]
    }

    /// Read-only entry lookup.
    pub fn get(&self, job: JobId) -> Option<&LedgerEntry> {
        self.slot_of(job).map(|slot| &self.entries[slot])
    }

    /// The record `r_x`, zero for unseen jobs.
    pub fn record(&self, job: JobId) -> i64 {
        self.get(job).map_or(0, |e| e.record)
    }

    /// [`LedgerEntry::previous_alloc`] of `job`, zero for unseen jobs.
    pub fn previous_alloc(&self, job: JobId, previous_period: u64) -> u64 {
        self.get(job)
            .map_or(0, |e| e.previous_alloc(previous_period))
    }

    /// Sum of all records — the ledger conservation invariant says this is
    /// always zero.
    pub fn record_sum(&self) -> i64 {
        self.entries.iter().map(|e| e.record).sum()
    }

    /// Number of jobs ever seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no job has been seen.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries by slot (first-sight order).
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The job whose entry sits at `slot` of [`JobLedger::entries`].
    pub fn job_at(&self, slot: usize) -> JobId {
        self.slots.job(slot)
    }

    /// The slot of `job`'s entry, if the job has been seen.
    pub fn slot_of(&self, job: JobId) -> Option<usize> {
        self.slots.get(job)
    }

    /// Iterate entries in job order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &LedgerEntry)> {
        self.by_job
            .iter()
            .map(|&slot| (self.slots.job(slot as usize), &self.entries[slot as usize]))
    }
}

/// Ledgers are equal when they hold the same entries for the same jobs,
/// whatever order the jobs were first seen in.
impl PartialEq for JobLedger {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_jobs_default_to_zero() {
        let l = JobLedger::new();
        assert_eq!(l.record(JobId(1)), 0);
        assert_eq!(l.previous_alloc(JobId(1), 0), 0);
        assert!(l.is_empty());
    }

    #[test]
    fn entry_persists_state() {
        let mut l = JobLedger::new();
        {
            let e = l.entry(JobId(1));
            e.record = 5;
            e.last_alloc = 40;
            e.last_active_period = Some(3);
        }
        assert_eq!(l.record(JobId(1)), 5);
        assert_eq!(l.previous_alloc(JobId(1), 3), 40);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn previous_alloc_zero_after_idle_gap() {
        let mut l = JobLedger::new();
        {
            let e = l.entry(JobId(1));
            e.last_alloc = 40;
            e.last_active_period = Some(3);
        }
        // Asking with previous period 7 (job idle for periods 4..7).
        assert_eq!(l.previous_alloc(JobId(1), 7), 0);
    }

    #[test]
    fn record_sum_over_jobs() {
        let mut l = JobLedger::new();
        l.entry(JobId(1)).record = 10;
        l.entry(JobId(2)).record = -4;
        l.entry(JobId(3)).record = -6;
        assert_eq!(l.record_sum(), 0);
        l.entry(JobId(3)).record = -5;
        assert_eq!(l.record_sum(), 1);
    }

    #[test]
    fn iteration_is_job_ordered() {
        let mut l = JobLedger::new();
        l.entry(JobId(9));
        l.entry(JobId(1));
        let jobs: Vec<JobId> = l.iter().map(|(j, _)| j).collect();
        assert_eq!(jobs, vec![JobId(1), JobId(9)]);
    }

    #[test]
    fn slots_are_first_sight_ordered() {
        let mut l = JobLedger::new();
        l.entry(JobId(9)).record = 4;
        l.entry(JobId(1));
        assert_eq!((l.job_at(0), l.job_at(1)), (JobId(9), JobId(1)));
        assert_eq!((l.slot_of(JobId(1)), l.slot_of(JobId(2))), (Some(1), None));
        assert_eq!(l.entries().len(), 2);
        assert_eq!(l.entries()[0].record, 4);
    }
}
