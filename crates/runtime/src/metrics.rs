//! Sharded metrics collection for a live cluster run.
//!
//! [`LiveMetrics`] no longer guards one shared collector with a mutex —
//! at million-RPC/s rates that lock is the data plane's hottest word.
//! Instead each OST thread owns an [`OstShard`]: a private, uncontended
//! [`Metrics`] collector (the *same* slot-indexed shape the simulator
//! uses) plus the thread's trace-record buffer. The only cross-thread
//! state is a handful of cache-line-padded atomic counters — one served
//! slot per OST, one issued slot per client process — so live progress
//! reads (`issued`, `total_served`) stay lock-free while the run is hot.
//!
//! At join the shards fold through [`adaptbf_node::Metrics::fold_shards`]
//! — absorb in ascending OST order, apply the release denominators,
//! rebuild completions, finalize — into the one collector
//! `RunReport::from_run` expects, so fairness/latency/resilience analysis
//! runs unchanged on live output.

use adaptbf_model::{JobId, SimDuration, SimTime};
use adaptbf_node::Metrics;
use adaptbf_workload::trace::TraceRecord;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One atomic counter on its own cache line, so per-OST served slots and
/// per-process issued slots never false-share under concurrent bumps.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CountCell(AtomicU64);

#[derive(Debug)]
struct Shared {
    bucket: SimDuration,
    /// RPCs served, one slot per OST (each slot has exactly one writer).
    served: Vec<CountCell>,
    /// RPCs issued, one slot per client process (one writer each).
    issued: Vec<CountCell>,
    /// Owning job of each process slot, in process-spawn order — the key
    /// that folds the issued slots back into per-job counts.
    proc_jobs: Vec<JobId>,
    /// Release denominators, applied to the folded collector at join.
    released: Mutex<Vec<(JobId, u64)>>,
}

/// Cheap-to-clone handle over the run's sharded collector.
#[derive(Debug, Clone)]
pub struct LiveMetrics {
    shared: Arc<Shared>,
    /// Copied into every shard so the trace hook is a no-op (not even a
    /// branch on shared state) on non-recording runs.
    recording: bool,
}

impl LiveMetrics {
    /// New empty collector for a run with `n_osts` OST threads and one
    /// client process per entry of `proc_jobs` (its owning job, in
    /// process-spawn order).
    pub fn new(bucket: SimDuration, n_osts: usize, proc_jobs: Vec<JobId>) -> Self {
        LiveMetrics {
            shared: Arc::new(Shared {
                bucket,
                served: (0..n_osts).map(|_| CountCell::default()).collect(),
                issued: (0..proc_jobs.len()).map(|_| CountCell::default()).collect(),
                proc_jobs,
                released: Mutex::new(Vec::new()),
            }),
            recording: false,
        }
    }

    /// [`LiveMetrics::new`], with the arrival recorder armed: OST shards
    /// capture every first-hand arrival via [`OstShard::on_record`].
    pub fn recording(bucket: SimDuration, n_osts: usize, proc_jobs: Vec<JobId>) -> Self {
        LiveMetrics {
            recording: true,
            ..Self::new(bucket, n_osts, proc_jobs)
        }
    }

    /// Declare how much work a job releases within the horizon (enables
    /// completion detection, exactly like the simulator's builder).
    pub fn set_released(&self, job: JobId, total: u64) {
        self.shared.released.lock().push((job, total));
    }

    /// The private collector shard for OST thread `ost`. Hand it to the
    /// thread; get it back (as [`OstShardOut`]) when the thread joins.
    pub fn ost_shard(&self, ost: usize) -> OstShard {
        assert!(ost < self.shared.served.len(), "OST outside the wiring");
        OstShard {
            shared: self.shared.clone(),
            ost,
            recording: self.recording,
            metrics: Metrics::new(self.shared.bucket),
            records: Vec::new(),
        }
    }

    /// The issued-counter slot for client process `proc` (its index in
    /// process-spawn order).
    pub fn client_slot(&self, proc: usize) -> ClientSlot {
        assert!(proc < self.shared.issued.len(), "process outside the run");
        ClientSlot {
            shared: self.shared.clone(),
            proc,
        }
    }

    /// Issued RPCs per job, folded live from the per-process slots.
    pub fn issued(&self) -> BTreeMap<JobId, u64> {
        let mut out = BTreeMap::new();
        for (slot, job) in self.shared.proc_jobs.iter().enumerate() {
            let n = self.shared.issued[slot].0.load(Ordering::Relaxed);
            if n > 0 {
                *out.entry(*job).or_insert(0) += n;
            }
        }
        out
    }

    /// Total served across OSTs, readable while the run is hot.
    pub fn total_served(&self) -> u64 {
        self.shared
            .served
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Served RPCs per OST slot, readable while the run is hot.
    pub fn served_per_ost(&self) -> Vec<u64> {
        self.shared
            .served
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .collect()
    }

    /// Fold the joined shards into the finalized run collector plus the
    /// chronologically sorted trace records (empty unless recording).
    ///
    /// Call after every OST thread has joined; shards may arrive in any
    /// order (the fold sorts them into ascending OST order to keep the
    /// gauge families' last-write-wins identical to the unsharded path).
    pub fn fold(&self, shards: Vec<OstShardOut>, until: SimTime) -> (Metrics, Vec<TraceRecord>) {
        let mut shards = shards;
        shards.sort_by_key(|s| s.ost);
        let mut records: Vec<TraceRecord> = Vec::new();
        for s in &mut shards {
            records.append(&mut s.records);
        }
        records.sort_by_key(|r| (r.at, r.rpc.id.raw()));
        let released = std::mem::take(&mut *self.shared.released.lock());
        let folded = Metrics::fold_shards(
            self.shared.bucket,
            shards.into_iter().map(|s| s.metrics),
            released,
            until,
        );
        (folded, records)
    }
}

/// One OST thread's private collector: every hot-path record lands in
/// thread-local state; the only shared write is one padded atomic bump
/// per serve.
#[derive(Debug)]
pub struct OstShard {
    shared: Arc<Shared>,
    ost: usize,
    recording: bool,
    metrics: Metrics,
    records: Vec<TraceRecord>,
}

impl OstShard {
    /// Whether the trace recorder is armed (lets the caller skip building
    /// [`TraceRecord`]s entirely on non-recording runs).
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Record an RPC arriving at this OST (the OSS-arrival demand line).
    pub fn on_arrival(&mut self, job: JobId, now: SimTime) {
        self.metrics.on_arrival(job, now);
    }

    /// Capture one first-hand arrival for the trace recorder. No-op
    /// unless the collector was built with [`LiveMetrics::recording`].
    pub fn on_record(&mut self, record: TraceRecord) {
        if self.recording {
            self.records.push(record);
        }
    }

    /// Record a completed (serviced) RPC with end-to-end latency
    /// attribution, stamped at its emulated `finish` instant.
    pub fn on_served(&mut self, job: JobId, finish: SimTime, issued_at: SimTime) {
        self.metrics.on_served_at(job, finish, issued_at);
        self.shared.served[self.ost]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The private collector itself — what the shared control cycle
    /// (`OstNode::control_cycle`) writes its allocation gauges into.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Seal the shard for the join-time fold.
    pub fn finish(self) -> OstShardOut {
        OstShardOut {
            ost: self.ost,
            metrics: self.metrics,
            records: self.records,
        }
    }
}

/// A sealed [`OstShard`], carried home in the OST's final state.
#[derive(Debug)]
pub struct OstShardOut {
    ost: usize,
    metrics: Metrics,
    records: Vec<TraceRecord>,
}

/// The issued counter of one client process: a single padded atomic slot,
/// bumped once per successfully sent batch.
#[derive(Debug, Clone)]
pub struct ClientSlot {
    shared: Arc<Shared>,
    proc: usize,
}

impl ClientSlot {
    /// Count `n` RPCs as issued (put on the wire) by this process.
    pub fn on_issued(&self, n: u64) {
        self.shared.issued[self.proc]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> LiveMetrics {
        LiveMetrics::new(
            SimDuration::from_millis(100),
            2,
            vec![JobId(1), JobId(1), JobId(2)],
        )
    }

    #[test]
    fn shards_fold_into_the_run_collector() {
        let metrics = m();
        metrics.set_released(JobId(1), 2);
        metrics.client_slot(0).on_issued(1);
        metrics.client_slot(1).on_issued(2);
        metrics.client_slot(2).on_issued(5);
        let mut sh0 = metrics.ost_shard(0);
        let mut sh1 = metrics.ost_shard(1);
        sh0.on_arrival(JobId(1), SimTime::from_millis(10));
        sh0.on_served(JobId(1), SimTime::from_millis(50), SimTime::from_millis(10));
        sh1.on_served(JobId(1), SimTime::from_millis(80), SimTime::from_millis(20));
        assert_eq!(metrics.issued()[&JobId(1)], 3);
        assert_eq!(metrics.issued()[&JobId(2)], 5);
        assert_eq!(metrics.total_served(), 2);
        assert_eq!(metrics.served_per_ost(), vec![1, 1]);
        let (folded, records) =
            metrics.fold(vec![sh1.finish(), sh0.finish()], SimTime::from_millis(100));
        assert!(records.is_empty(), "recorder was not armed");
        assert_eq!(folded.served_of(JobId(1)), 2);
        assert_eq!(
            folded.completion_of(JobId(1)),
            Some(SimTime::from_millis(80)),
            "released work completed across shards"
        );
        assert_eq!(folded.latency_of(JobId(1)).map(|l| l.count()), Some(2));
    }

    #[test]
    fn recording_shards_capture_and_sort_arrivals() {
        use adaptbf_model::{ClientId, OpCode, ProcId, Rpc, RpcId};
        let rpc = |id: u64, at_ms: u64| Rpc {
            id: RpcId(id),
            job: JobId(1),
            client: ClientId(0),
            proc_id: ProcId(0),
            op: OpCode::Write,
            size_bytes: 4096,
            issued_at: SimTime::from_millis(at_ms),
        };
        let metrics = LiveMetrics::recording(SimDuration::from_millis(100), 2, vec![JobId(1)]);
        let mut sh0 = metrics.ost_shard(0);
        let mut sh1 = metrics.ost_shard(1);
        assert!(sh0.is_recording());
        sh1.on_record(TraceRecord {
            at: SimTime::from_millis(30),
            ost: 1,
            rpc: rpc(2, 30),
        });
        sh0.on_record(TraceRecord {
            at: SimTime::from_millis(10),
            ost: 0,
            rpc: rpc(1, 10),
        });
        let (_, records) =
            metrics.fold(vec![sh0.finish(), sh1.finish()], SimTime::from_millis(100));
        assert_eq!(records.len(), 2);
        assert!(records[0].at < records[1].at, "chronological across shards");

        let silent = m();
        let mut sh = silent.ost_shard(0);
        assert!(!sh.is_recording());
        sh.on_record(TraceRecord {
            at: SimTime::ZERO,
            ost: 0,
            rpc: rpc(9, 0),
        });
        let (_, records) = silent.fold(vec![sh.finish()], SimTime::from_millis(100));
        assert!(records.is_empty(), "unarmed recorder drops records");
    }
}
