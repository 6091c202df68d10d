//! The Lustre `job_stats` equivalent: per-job RPC arrival counters on one
//! OST, collected and cleared by the System Stats Controller each period
//! (paper Figure 2, steps 1 and 9).
//!
//! `record_arrival` sits on the per-RPC arrival path, so the counters are
//! a flat vector indexed by interned job slot ([`JobSlots`]). Slots pile
//! up over a run — one per job ever seen — while a period's arrivals come
//! from the few jobs active in it, so the tracker also lists the slots
//! touched since the last clear: the job-ordered snapshot the controller
//! reads once per period ([`JobStatsTracker::collect_into`]) and the clear
//! that follows visit that list, not the vector.

use adaptbf_model::{JobId, JobSlots};

/// Per-job arrival counters since the last clear.
#[derive(Debug, Clone, Default)]
pub struct JobStatsTracker {
    slots: JobSlots,
    /// Arrivals since the last clear, indexed by slot.
    counts: Vec<u64>,
    /// The slots whose count is non-zero, in first-arrival order.
    touched: Vec<u32>,
    total_ever: u64,
    /// Work counter behind the per-cycle cost tests: slots
    /// [`JobStatsTracker::clear`] has reset.
    #[cfg(test)]
    cleared: u64,
}

impl JobStatsTracker {
    /// New empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the per-job storage for about `jobs` jobs.
    pub fn reserve(&mut self, jobs: usize) {
        self.slots.reserve(jobs);
        self.counts.reserve(jobs);
    }

    /// Record one RPC arriving from `job`.
    #[inline]
    pub fn record_arrival(&mut self, job: JobId) {
        let slot = self.slots.intern(job);
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        if self.counts[slot] == 0 {
            self.touched.push(slot as u32);
        }
        self.counts[slot] += 1;
        self.total_ever += 1;
    }

    /// Snapshot the counters (job order) — the `d_x` inputs of Eq (3).
    pub fn collect(&self) -> Vec<(JobId, u64)> {
        let mut out = Vec::new();
        self.collect_into(&mut out);
        out
    }

    /// [`JobStatsTracker::collect`] into a caller-owned buffer (the
    /// controller loop reuses one across ticks).
    pub fn collect_into(&self, out: &mut Vec<(JobId, u64)>) {
        out.clear();
        out.extend(self.touched.iter().map(|&slot| {
            let slot = slot as usize;
            (self.slots.job(slot), self.counts[slot])
        }));
        out.sort_unstable_by_key(|&(job, _)| job);
    }

    /// Clear the period's counters (Figure 2, step 9). Slots survive —
    /// they are stable for the run — only the counts reset.
    pub fn clear(&mut self) {
        #[cfg(test)]
        {
            self.cleared += self.touched.len() as u64;
        }
        for slot in self.touched.drain(..) {
            self.counts[slot as usize] = 0;
        }
    }

    /// RPCs recorded since the last clear.
    pub fn period_total(&self) -> u64 {
        self.touched.iter().map(|&s| self.counts[s as usize]).sum()
    }

    /// RPCs recorded over the tracker's lifetime (never cleared).
    pub fn lifetime_total(&self) -> u64 {
        self.total_ever
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_clears() {
        let mut t = JobStatsTracker::new();
        t.record_arrival(JobId(1));
        t.record_arrival(JobId(1));
        t.record_arrival(JobId(2));
        assert_eq!(t.collect(), vec![(JobId(1), 2), (JobId(2), 1)]);
        assert_eq!(t.period_total(), 3);
        t.clear();
        assert!(t.collect().is_empty());
        assert_eq!(t.lifetime_total(), 3, "lifetime total survives clear");
    }

    #[test]
    fn collect_is_job_ordered() {
        let mut t = JobStatsTracker::new();
        t.record_arrival(JobId(5));
        t.record_arrival(JobId(1));
        let jobs: Vec<JobId> = t.collect().into_iter().map(|(j, _)| j).collect();
        assert_eq!(jobs, vec![JobId(1), JobId(5)]);
    }

    #[test]
    fn counts_resume_after_clear_without_slot_churn() {
        let mut t = JobStatsTracker::new();
        t.record_arrival(JobId(3));
        t.clear();
        t.record_arrival(JobId(3));
        t.record_arrival(JobId(9));
        assert_eq!(t.collect(), vec![(JobId(3), 1), (JobId(9), 1)]);
        assert_eq!(t.lifetime_total(), 3);
    }

    #[test]
    fn collect_and_clear_visit_only_the_slots_that_saw_arrivals() {
        // 4,096 jobs have been seen; in a period where 8 of them send, the
        // snapshot holds those 8 and the clear resets those 8 slots.
        let mut t = JobStatsTracker::new();
        for job in 0..4096 {
            t.record_arrival(JobId(job));
        }
        t.clear();
        let before = t.cleared;
        for k in 0..8u32 {
            for _ in 0..=k {
                t.record_arrival(JobId(4000 - 500 * k));
            }
        }
        let snapshot = t.collect();
        assert_eq!(snapshot.len(), 8);
        assert_eq!(t.period_total(), 36);
        t.clear();
        assert_eq!(t.cleared - before, 8);
        assert_eq!(t.period_total(), 0);
    }
}
