//! The System Stats Controller loop (paper Figure 2): one driver per OST
//! ties together the job-stats tracker, the allocation algorithm, and the
//! Rule Management Daemon, and accounts its own overhead (Section IV-G).
//!
//! The driver is engine-agnostic: it takes the scheduler and `job_stats`
//! it governs by reference and a `now` on the shared virtual time axis, so
//! the simulator's event loop and the live runtime's OST threads run the
//! exact same control cycle.

use adaptbf_core::{AllocationController, AllocationOutcome, JobTrace};
use adaptbf_model::{AdapTbfConfig, JobId, JobObservation, JobSlots, SimTime};
use adaptbf_tbf::{JobStatsTracker, NrsTbfScheduler, RuleDaemon};
use std::time::Instant;

/// Wall-clock overhead accounting for the control plane.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerOverhead {
    /// Control cycles executed.
    pub ticks: u64,
    /// Total wall-clock nanoseconds spent in collect + allocate + apply.
    pub total_ns: u64,
    /// Σ active jobs over all ticks (for per-job cost).
    pub jobs_allocated: u64,
}

impl ControllerOverhead {
    /// Mean nanoseconds per control cycle.
    pub fn ns_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.ticks as f64
        }
    }

    /// Mean nanoseconds per allocated job (the paper reports <30 µs/job).
    pub fn ns_per_job(&self) -> f64 {
        if self.jobs_allocated == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.jobs_allocated as f64
        }
    }
}

/// One OST's AdapTBF control plane. Nothing here names a scheduler's
/// rules, so an OST crash — which replaces the scheduler — needs no reset:
/// the daemon reads the rules off whatever scheduler it is handed, and
/// the controller's Job Records deliberately survive (they are the OSS's
/// persistent lending ledger: a reboot does not erase borrowing debts,
/// and Σ records stays balanced across the outage).
#[derive(Debug)]
pub struct ControllerDriver {
    /// The allocation algorithm and its Job Records store.
    pub controller: AllocationController,
    /// The rule daemon mirroring allocations into TBF rules.
    pub daemon: RuleDaemon,
    /// Node counts per job (the priority weights), from the scenario:
    /// `nodes[node_slots.get(job)]`, built once.
    node_slots: JobSlots,
    nodes: Vec<u64>,
    overhead: ControllerOverhead,
    /// Per-tick scratch (one control cycle runs every period on every
    /// OST; reuse beats reallocating a handful of vectors each time).
    stats_scratch: Vec<(JobId, u64)>,
    obs_scratch: Vec<JobObservation>,
    weights_scratch: Vec<(JobId, u32)>,
}

impl ControllerDriver {
    /// New driver for one OST; `jobs` carries `(id, nodes)`, a later entry
    /// for the same job replacing an earlier one.
    pub fn new(config: AdapTbfConfig, jobs: &[(JobId, u64)]) -> Self {
        let mut node_slots = JobSlots::with_capacity(jobs.len());
        let mut nodes = Vec::with_capacity(jobs.len());
        for &(job, n) in jobs {
            let slot = node_slots.intern(job);
            nodes.resize(nodes.len().max(slot + 1), n);
            nodes[slot] = n;
        }
        ControllerDriver {
            controller: AllocationController::new(config),
            daemon: RuleDaemon::new(),
            node_slots,
            nodes,
            overhead: ControllerOverhead::default(),
            stats_scratch: Vec::new(),
            obs_scratch: Vec::new(),
            weights_scratch: Vec::new(),
        }
    }

    /// Execute one control cycle against `scheduler`/`job_stats` at `now`:
    /// collect stats, allocate, apply rules, clear stats. Returns the
    /// allocation outcome with every job's trace collected
    /// ([`ControllerDriver::tick_into`] with a collecting sink).
    pub fn tick(
        &mut self,
        scheduler: &mut NrsTbfScheduler,
        job_stats: &mut JobStatsTracker,
        now: SimTime,
    ) -> AllocationOutcome {
        let mut jobs = Vec::new();
        let mut outcome = self.tick_into(scheduler, job_stats, now, |jt| jobs.push(*jt));
        outcome.trace.jobs = jobs;
        outcome
    }

    /// One control cycle whose per-job traces go to `sink` (see
    /// [`AllocationController::step_into`]) instead of into the returned
    /// outcome.
    pub fn tick_into(
        &mut self,
        scheduler: &mut NrsTbfScheduler,
        job_stats: &mut JobStatsTracker,
        now: SimTime,
        sink: impl FnMut(&JobTrace),
    ) -> AllocationOutcome {
        let t0 = Instant::now();

        // (1) collect job stats (job order — the daemon relies on it).
        job_stats.collect_into(&mut self.stats_scratch);
        self.obs_scratch.clear();
        let (node_slots, nodes) = (&self.node_slots, &self.nodes);
        self.obs_scratch
            .extend(self.stats_scratch.iter().map(|&(job, demand)| {
                let n = node_slots.get(job).map_or(1, |slot| nodes[slot]);
                JobObservation::new(job, n, demand)
            }));

        // (2-4) run the allocation algorithm (updates Job Records).
        let outcome = self.controller.step_into(&self.obs_scratch, sink);

        // (5-7) apply rules with hierarchy weights from node counts.
        self.weights_scratch.clear();
        self.weights_scratch.extend(
            self.obs_scratch
                .iter()
                .map(|o| (o.job, o.nodes.min(u32::MAX as u64) as u32)),
        );
        self.daemon
            .apply(scheduler, &outcome.allocations, &self.weights_scratch, now);

        // (8-9) notify + clear stats.
        job_stats.clear();

        self.overhead.ticks += 1;
        self.overhead.total_ns += t0.elapsed().as_nanos() as u64;
        self.overhead.jobs_allocated += outcome.allocations.len() as u64;
        outcome
    }

    /// Overhead accounting so far.
    pub fn overhead(&self) -> ControllerOverhead {
        self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::config::paper;
    use adaptbf_model::{ClientId, OpCode, ProcId, Rpc, RpcId, TbfSchedulerConfig};

    fn parts() -> (NrsTbfScheduler, JobStatsTracker) {
        (
            NrsTbfScheduler::new(TbfSchedulerConfig::default()),
            JobStatsTracker::new(),
        )
    }

    fn driver(nodes: &[(u32, u64)]) -> ControllerDriver {
        let jobs: Vec<(JobId, u64)> = nodes.iter().map(|(j, n)| (JobId(*j), *n)).collect();
        ControllerDriver::new(paper::adaptbf(), &jobs)
    }

    fn feed(scheduler: &mut NrsTbfScheduler, stats: &mut JobStatsTracker, job: u32, n: u64) {
        for i in 0..n {
            stats.record_arrival(JobId(job));
            // Also enqueue so rules have queues to govern.
            let rpc = Rpc {
                id: RpcId(i),
                job: JobId(job),
                client: ClientId(0),
                proc_id: ProcId(0),
                op: OpCode::Write,
                size_bytes: 1 << 20,
                issued_at: SimTime::ZERO,
            };
            scheduler.enqueue(rpc, SimTime::ZERO);
        }
    }

    #[test]
    fn tick_collects_allocates_applies_clears() {
        let (mut s, mut stats) = parts();
        let mut d = driver(&[(1, 1), (2, 3)]);
        feed(&mut s, &mut stats, 1, 50);
        feed(&mut s, &mut stats, 2, 50);
        let out = d.tick(&mut s, &mut stats, SimTime::from_millis(100));
        assert_eq!(out.allocations.len(), 2);
        // Priorities 25/75 → 25/75 tokens.
        assert_eq!(out.trace.job(JobId(2)).unwrap().initial, 75);
        // Rules installed at the allocation rates.
        assert_eq!(s.rules().len(), 2);
        // Stats cleared (Figure 2 step 9).
        assert_eq!(stats.period_total(), 0);
        let oh = d.overhead();
        assert_eq!(oh.ticks, 1);
        assert_eq!(oh.jobs_allocated, 2);
        assert!(oh.total_ns > 0);
    }

    #[test]
    fn idle_period_stops_all_rules() {
        let (mut s, mut stats) = parts();
        let mut d = driver(&[(1, 1)]);
        feed(&mut s, &mut stats, 1, 10);
        d.tick(&mut s, &mut stats, SimTime::from_millis(100));
        assert_eq!(s.rules().len(), 1);
        // Next period: no arrivals → rule stopped, backlog to fallback.
        let out = d.tick(&mut s, &mut stats, SimTime::from_millis(200));
        assert!(out.allocations.is_empty());
        assert_eq!(s.rules().len(), 0);
        assert_eq!(s.pending_ruled(), 0);
    }

    #[test]
    fn unknown_jobs_default_to_one_node() {
        let (mut s, mut stats) = parts();
        let mut d = driver(&[]); // no node info at all
        feed(&mut s, &mut stats, 7, 10);
        let out = d.tick(&mut s, &mut stats, SimTime::from_millis(100));
        assert_eq!(out.trace.job(JobId(7)).unwrap().nodes, 1);
    }
}
