//! One Object Storage Target: the shared control-plane node
//! ([`adaptbf_node::OstNode`]) plus the simulator's disk service model.
//!
//! The disk model charges each RPC `size / (B/k)` seconds on one of `k`
//! threads (so the pool sustains the device bandwidth `B`), with seeded
//! jitter, plus a small *stream-interference* penalty that grows with the
//! number of distinct jobs concurrently in service — the seek/FTL cost of
//! interleaving independent sequential streams, which is what lets
//! schedules that concentrate service (as priority control does) edge out
//! pure FCFS on aggregate bandwidth, as the paper observes.
//!
//! Everything *above* the disk — scheduler, `job_stats`, rules, the
//! AdapTBF controller — lives in the embedded [`OstNode`], the exact same
//! assembly the live runtime moves into each OST thread.

use adaptbf_model::{JobSlots, OstConfig, Rpc, SimDuration, SimTime};
use adaptbf_node::OstNode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-extra-concurrent-job service-time penalty (fraction).
pub const STREAM_INTERFERENCE: f64 = 0.02;
/// Cap on the number of extra jobs that add interference.
pub const INTERFERENCE_CAP: usize = 6;

/// Mutable state of one OST during a run.
#[derive(Debug)]
pub struct OstState {
    /// The control plane: NRS/TBF scheduler, `job_stats`, and (under
    /// AdapTBF) this OST's own controller — shared with the live runtime.
    pub node: OstNode,
    config: OstConfig,
    /// `disk_bw / n_io_threads`, computed once (the service-time model
    /// divides by it for every RPC).
    per_thread_bw: f64,
    busy_threads: usize,
    /// Per-job thread-pool occupancy, indexed by interned slot (this is
    /// touched twice per served RPC — begin + end — so it is flat, not a
    /// map).
    in_service_slots: JobSlots,
    in_service_counts: Vec<u32>,
    /// Jobs with at least one RPC currently in service (for interference).
    distinct_in_service: usize,
    /// De-duplication of scheduled TBF-deadline wake-ups.
    pub pending_wake: Option<SimTime>,
    rng: SmallRng,
    served_total: u64,
}

impl OstState {
    /// New OST wrapping an assembled control-plane node.
    pub fn new(config: OstConfig, node: OstNode, seed: u64) -> Self {
        OstState {
            node,
            config,
            per_thread_bw: config.disk_bw_bytes_per_s as f64 / config.n_io_threads as f64,
            busy_threads: 0,
            in_service_slots: JobSlots::new(),
            in_service_counts: Vec::new(),
            distinct_in_service: 0,
            pending_wake: None,
            rng: SmallRng::seed_from_u64(seed),
            served_total: 0,
        }
    }

    /// Pre-size all per-job state (scheduler, job-stats, occupancy) for
    /// about `jobs` jobs.
    pub fn reserve_jobs(&mut self, jobs: usize) {
        self.node.reserve_jobs(jobs);
        self.in_service_slots.reserve(jobs);
        self.in_service_counts.reserve(jobs);
    }

    /// Whether a thread is free to pick up work.
    pub fn has_idle_thread(&self) -> bool {
        self.busy_threads < self.config.n_io_threads
    }

    /// Threads currently serving RPCs.
    pub fn busy_threads(&self) -> usize {
        self.busy_threads
    }

    /// RPCs fully serviced by this OST.
    pub fn served_total(&self) -> u64 {
        self.served_total
    }

    /// Begin servicing `rpc` on an idle thread; returns the service time.
    /// `health_factor` > 1 models an injected device slowdown.
    pub fn begin_service_degraded(&mut self, rpc: &Rpc, health_factor: f64) -> SimDuration {
        debug_assert!(self.has_idle_thread(), "no idle thread");
        debug_assert!(
            health_factor >= 1.0,
            "degrade factor must not speed the disk up"
        );
        self.busy_threads += 1;
        let slot = self.in_service_slots.intern(rpc.job);
        if slot >= self.in_service_counts.len() {
            self.in_service_counts.resize(slot + 1, 0);
        }
        if self.in_service_counts[slot] == 0 {
            self.distinct_in_service += 1;
        }
        self.in_service_counts[slot] += 1;

        let distinct = self.distinct_in_service;
        let interference =
            1.0 + STREAM_INTERFERENCE * distinct.saturating_sub(1).min(INTERFERENCE_CAP) as f64;
        let mean = rpc.size_bytes as f64 / self.per_thread_bw * interference * health_factor;
        let j = self.config.service_jitter;
        let factor = if j > 0.0 {
            1.0 + self.rng.gen_range(-j..=j)
        } else {
            1.0
        };
        SimDuration::from_secs_f64(mean * factor)
    }

    /// [`Self::begin_service_degraded`] with a healthy device.
    pub fn begin_service(&mut self, rpc: &Rpc) -> SimDuration {
        self.begin_service_degraded(rpc, 1.0)
    }

    /// The OST crashes: its I/O threads die (whatever they were serving
    /// is lost) and the control plane resets — the scheduler (rules, token
    /// buckets, queues) is replaced with a factory-fresh one, `job_stats`
    /// is wiped and the rule daemon forgets its rule ids, while the
    /// lending ledger survives (see [`OstNode::crash_reset`]). The drained
    /// backlog (ruled queues in job order, then fallback) is returned so
    /// the embedder can model client resends. The service-time RNG is
    /// deliberately kept: a reboot does not reseed the device.
    pub fn crash_reset(&mut self) -> Vec<Rpc> {
        let lost = self.node.crash_reset();
        self.busy_threads = 0;
        self.in_service_counts.fill(0);
        self.distinct_in_service = 0;
        self.pending_wake = None;
        lost
    }

    /// A service completed; frees the thread.
    pub fn end_service(&mut self, rpc: &Rpc) {
        debug_assert!(self.busy_threads > 0);
        self.busy_threads -= 1;
        self.served_total += 1;
        match self.in_service_slots.get(rpc.job) {
            Some(slot) if self.in_service_counts[slot] > 0 => {
                self.in_service_counts[slot] -= 1;
                if self.in_service_counts[slot] == 0 {
                    self.distinct_in_service -= 1;
                }
            }
            _ => debug_assert!(false, "end_service without begin_service"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::config::paper;
    use adaptbf_model::{ClientId, JobId, ProcId, RpcId, TbfSchedulerConfig};

    fn rpc(job: u32) -> Rpc {
        Rpc::new(RpcId(0), JobId(job), ClientId(0), ProcId(0), SimTime::ZERO)
    }

    fn ost() -> OstState {
        OstState::new(
            paper::ost(),
            OstNode::unruled(TbfSchedulerConfig::default()),
            7,
        )
    }

    fn ost_with(cfg: OstConfig) -> OstState {
        OstState::new(cfg, OstNode::unruled(TbfSchedulerConfig::default()), 7)
    }

    #[test]
    fn thread_accounting() {
        let mut o = ost();
        assert!(o.has_idle_thread());
        for _ in 0..16 {
            let _ = o.begin_service(&rpc(1));
        }
        assert!(!o.has_idle_thread());
        assert_eq!(o.busy_threads(), 16);
        o.end_service(&rpc(1));
        assert!(o.has_idle_thread());
        assert_eq!(o.served_total(), 1);
    }

    #[test]
    fn service_time_near_mean_single_stream() {
        let mut o = ost();
        let mean = paper::ost().mean_service_secs();
        for _ in 0..50 {
            let s = o.begin_service(&rpc(1)).as_secs_f64();
            o.end_service(&rpc(1));
            assert!(s >= mean * 0.94 && s <= mean * 1.06, "{s} vs mean {mean}");
        }
    }

    #[test]
    fn crash_reset_drains_backlog_and_frees_threads() {
        let mut o = ost();
        o.node.scheduler.start_rule(
            "j1",
            adaptbf_tbf::RpcMatcher::Job(JobId(1)),
            10.0,
            1,
            SimTime::ZERO,
        );
        for i in 0..4 {
            let mut r = rpc(1);
            r.id = RpcId(i);
            o.node.scheduler.enqueue(r, SimTime::ZERO);
        }
        o.node.job_stats.record_arrival(JobId(1));
        let _ = o.begin_service(&rpc(2));
        assert_eq!(o.busy_threads(), 1);
        let lost = o.crash_reset();
        assert_eq!(lost.len(), 4, "whole backlog drained");
        assert_eq!(o.busy_threads(), 0, "thread pool reset");
        assert!(o.has_idle_thread());
        assert_eq!(o.node.scheduler.pending(), 0);
        assert_eq!(o.node.scheduler.rules().len(), 0, "rules gone with the OST");
        assert_eq!(o.node.job_stats.period_total(), 0, "stats wiped");
        // A fresh service after recovery pays no stale interference.
        let cfg = OstConfig {
            service_jitter: 0.0,
            ..paper::ost()
        };
        let mut o2 = ost_with(cfg);
        let s1 = o2.begin_service(&rpc(1)).as_secs_f64();
        let _ = o2.begin_service(&rpc(2));
        o2.crash_reset();
        let s_after = o2.begin_service(&rpc(3)).as_secs_f64();
        assert_eq!(s_after, s1, "occupancy state cleared by the crash");
    }

    #[test]
    fn interference_grows_with_distinct_jobs() {
        let cfg = OstConfig {
            service_jitter: 0.0,
            ..paper::ost()
        };
        let mut o = ost_with(cfg);
        let s1 = o.begin_service(&rpc(1)).as_secs_f64();
        let s2 = o.begin_service(&rpc(2)).as_secs_f64();
        let s3 = o.begin_service(&rpc(3)).as_secs_f64();
        assert!(s2 > s1, "second distinct job pays interference");
        assert!(s3 > s2);
        // Same job again adds no interference.
        let s3b = o.begin_service(&rpc(3)).as_secs_f64();
        assert_eq!(s3b, s3);
    }

    #[test]
    fn interference_is_capped() {
        let cfg = OstConfig {
            service_jitter: 0.0,
            n_io_threads: 32,
            ..paper::ost()
        };
        let mut o = ost_with(cfg);
        let mut last = 0.0;
        for j in 0..10 {
            last = o.begin_service(&rpc(j)).as_secs_f64();
        }
        let uncapped = cfg.rpc_size as f64 / (cfg.disk_bw_bytes_per_s as f64 / 32.0)
            * (1.0 + STREAM_INTERFERENCE * 9.0);
        assert!(
            last < uncapped,
            "penalty must cap at {INTERFERENCE_CAP} extra jobs"
        );
    }
}
