//! Run-time metrics collection: the 100 ms-bucketed timelines and counters
//! behind every figure of the evaluation.
//!
//! ## Hot-path design
//!
//! Every OSS arrival, disk completion and reply crosses this collector, so
//! at million-RPC scale its bookkeeping *is* the simulator's inner loop.
//! All per-job state therefore lives in flat vectors indexed by a dense
//! job *slot* (a [`JobSlots`] interner assigns slots at first sight and
//! keeps them stable for the run): recording an event is an array index,
//! not an ordered-map walk. The JobId-keyed shapes the reporting layer
//! reads ([`BTreeMap`]s and [`PerJobSeries`]) are folded from the flat
//! storage only at read time; the timeline CSVs are not folded at all
//! ([`Metrics::write_csv`]). `tests/report_golden.rs` pins the output
//! byte-for-byte against the original map-backed implementation.
//!
//! Event timestamps are near-monotone (the event loop's clock never runs
//! backwards), so the `time → bucket index` division is cached and most
//! events resolve their bucket with a single range check; a family keeps
//! its row count rather than dividing its length by its stride per add.
//!
//! A control tick writes gauges for a whole ledger — every job the OST
//! has ever seen, most of them idle — into one bucket, so those go in a
//! row at a time (`Metrics::record_row`, `Metrics::allocation_row`):
//! the row, its bitmap words and the row count are found once per walk,
//! and the cells are named by *handle* ([`Metrics::gauge_slot`], resolved
//! once per job and good for the collector's life), not looked up. An
//! executor that knows its horizon says so
//! ([`Metrics::reserve_buckets`]), and no matrix moves when a row is added.
//! [`Metrics::fold_shards`] is the one place per-shard collectors become a
//! run's, for both executors; it takes its first shard as it is, so a
//! 1-shard run folds without copying a cell.

use adaptbf_model::{
    BucketSeries, JobId, JobSlots, LatencyHistogram, PerJobSeries, SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One gauge cell of a row: `(handle, value)`.
pub(crate) type Cell = (usize, f64);

/// One family of per-slot bucketed timelines (served / demand / records /
/// allocations).
///
/// Storage is **bucket-major**: `values[bucket * stride + slot]`. The hot
/// recording path always writes into the *current* time bucket, so all
/// jobs' cells for that bucket share a few cache lines — with dozens of
/// jobs and hundreds of buckets, a job-major layout made every per-RPC
/// add a cache miss. Per-slot logical lengths (`len[slot]` = last touched
/// bucket + 1) reproduce the exact ragged shapes of the keyed
/// implementation at fold time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SlotSeries {
    bucket: SimDuration,
    /// Slots per row. While the family holds no data it is simply the
    /// number of slots seen; once rows exist, a new slot means re-laying
    /// every row out, so from then on it grows geometrically and may run
    /// ahead of the slots in use. Jobs *do* show up mid-run — nobody
    /// pre-sizes it (see [`Metrics::reserve_jobs`]).
    stride: usize,
    /// Bucket-major matrix, `rows × stride`, zero-filled.
    values: Vec<f64>,
    /// Rows in `values` (kept, not derived: every per-RPC add checks it).
    rows: usize,
    /// Rows `values` keeps room for ([`Metrics::reserve_buckets`]).
    reserved: usize,
    /// Per-slot logical series length in buckets (0 = untouched; such
    /// slots are excluded from the folded [`PerJobSeries`], exactly like
    /// a job that never got a map entry in the keyed implementation).
    len: Vec<usize>,
    /// Bitmap marking cells written via [`set`], bucket-major like
    /// `values` with each row starting on a word boundary (gauge
    /// families only — the add path never touches it, keeping the per-RPC
    /// hot path free of bitmap upkeep). Shard merges need it to tell
    /// "gauge written as 0.0" apart from "never written", so
    /// overwrite-merge reproduces last-write-wins exactly.
    written: Vec<u64>,
}

impl SlotSeries {
    fn new(bucket: SimDuration) -> Self {
        SlotSeries {
            bucket,
            ..Self::default()
        }
    }

    /// Make row `idx` exist.
    #[inline]
    fn reach(&mut self, idx: usize) {
        if idx >= self.rows {
            self.rows = idx + 1;
            let room = self.rows.max(self.reserved) * self.stride;
            self.values.reserve(room - self.values.len());
            self.values.resize(self.rows * self.stride, 0.0);
        }
    }

    /// Words per bitmap row.
    fn row_words(&self) -> usize {
        self.stride.div_ceil(64)
    }

    /// Make room for `slots` slots, re-laying the matrix out if data
    /// already exists at a smaller stride — to at least twice that
    /// stride, so a run whose jobs appear one by one pays O(log jobs)
    /// re-layouts, not one per job — each into room for the reserved rows.
    fn grow(&mut self, slots: usize) {
        if slots <= self.stride {
            return;
        }
        let rows = self.rows;
        let stride = if rows > 0 {
            slots.max(self.stride * 2)
        } else {
            slots
        };
        if rows > 0 {
            let mut next = vec![0.0; rows.max(self.reserved) * stride];
            for (old, new) in self
                .values
                .chunks_exact(self.stride)
                .zip(next.chunks_exact_mut(stride))
            {
                new[..self.stride].copy_from_slice(old);
            }
            next.truncate(rows * stride);
            self.values = next;
            let (old_words, new_words) = (self.row_words(), stride.div_ceil(64));
            if new_words != old_words && !self.written.is_empty() {
                let mut next = vec![0u64; rows * new_words];
                for (old, new) in self
                    .written
                    .chunks(old_words)
                    .zip(next.chunks_exact_mut(new_words))
                {
                    new[..old.len()].copy_from_slice(old);
                }
                self.written = next;
            }
        }
        self.stride = stride;
        self.len.resize(stride, 0);
    }

    #[inline]
    fn cell(&mut self, slot: usize, idx: usize) -> &mut f64 {
        debug_assert!(slot < self.stride);
        self.reach(idx);
        if idx >= self.len[slot] {
            self.len[slot] = idx + 1;
        }
        &mut self.values[idx * self.stride + slot]
    }

    #[inline]
    fn add(&mut self, slot: usize, idx: usize, amount: f64) {
        *self.cell(slot, idx) += amount;
    }

    #[inline]
    fn set(&mut self, slot: usize, idx: usize, value: f64) {
        *self.cell(slot, idx) = value;
        let word = idx * self.row_words() + slot / 64;
        if word >= self.written.len() {
            self.written.resize(word + 1, 0);
        }
        self.written[word] |= 1 << (slot % 64);
    }

    /// [`SlotSeries::set`] for every `(slot, value)` of `cells`, all in row
    /// `idx`: the row, its bitmap words and the row count are found once
    /// for the walk instead of once per cell. The slots must already be
    /// inside the stride, so nothing re-lays the matrix mid-walk.
    fn set_row(&mut self, idx: usize, cells: impl IntoIterator<Item = Cell>) {
        let mut cells = cells.into_iter().peekable();
        if cells.peek().is_none() {
            return;
        }
        self.reach(idx);
        let words = self.row_words();
        if self.written.len() < (idx + 1) * words {
            self.written.resize((idx + 1) * words, 0);
        }
        let row = &mut self.values[idx * self.stride..][..self.stride];
        let bits = &mut self.written[idx * words..][..words];
        for (slot, value) in cells {
            row[slot] = value;
            bits[slot / 64] |= 1 << (slot % 64);
            if self.len[slot] <= idx {
                self.len[slot] = idx + 1;
            }
        }
    }

    #[inline]
    fn is_written(&self, slot: usize, idx: usize) -> bool {
        self.written
            .get(idx * self.row_words() + slot / 64)
            .is_some_and(|w| w >> (slot % 64) & 1 == 1)
    }

    /// Rows any slot touches.
    fn longest(&self) -> usize {
        self.len.iter().copied().max().unwrap_or(0)
    }

    /// Cell-wise **sum** merge for counting families (served/demand):
    /// `self[map[slot], r] += other[slot, r]` over each touched slot's
    /// logical length, so merged lengths are the per-slot maxima.
    ///
    /// Both merges walk **bucket by bucket**: storage is bucket-major on
    /// both sides, so that order reads and writes memory front to back.
    /// Cells are independent of each other and logical lengths only ever
    /// take a maximum, so the result does not depend on the order.
    fn absorb_sum(&mut self, other: &SlotSeries, map: &[usize]) {
        for r in 0..other.longest() {
            let row = &other.values[r * other.stride..][..other.stride];
            for (slot_o, &n) in other.len.iter().enumerate() {
                if r < n {
                    self.add(map[slot_o], r, row[slot_o]);
                }
            }
        }
    }

    /// Cell-wise **overwrite** merge for gauge families (records /
    /// allocations): only cells the other side actually wrote are copied,
    /// so a later absorb overwrites an earlier one exactly where both
    /// wrote — callers merge shards in ascending shard order to reproduce
    /// the unsharded last-write-wins outcome (see `Metrics::absorb`).
    fn absorb_over(&mut self, other: &SlotSeries, map: &[usize]) {
        for r in 0..other.longest() {
            let row = &other.values[r * other.stride..][..other.stride];
            for (slot_o, &n) in other.len.iter().enumerate() {
                if r >= n {
                    continue;
                }
                if other.is_written(slot_o, r) {
                    self.set(map[slot_o], r, row[slot_o]);
                } else if r + 1 == n {
                    // Preserve the logical length even when the last
                    // touched cell was extended by padding, not a write.
                    self.cell(map[slot_o], r);
                }
            }
        }
    }

    /// Pad every touched slot to cover `idx`, then align all touched
    /// slots to the family's common length (the keyed implementation's
    /// `add(job, until, 0.0)` + `align()`).
    fn pad_and_align(&mut self, idx: usize) {
        for slot in 0..self.stride {
            if self.len[slot] > 0 && self.len[slot] <= idx {
                self.len[slot] = idx + 1;
            }
        }
        let max = self.longest();
        if max > 0 {
            self.reach(max - 1);
        }
        for slot in 0..self.stride {
            if self.len[slot] > 0 {
                self.len[slot] = max;
            }
        }
    }

    /// Fold into the JobId-keyed report shape (gathering each slot's
    /// strided column into a dense series).
    fn to_per_job(&self, slots: &JobSlots) -> PerJobSeries {
        let mut out = PerJobSeries::new(self.bucket);
        for (slot, job) in slots.iter() {
            let n = match self.len.get(slot) {
                Some(&n) if n > 0 => n,
                _ => continue,
            };
            let mut series = BucketSeries::new(self.bucket);
            series.values = (0..n)
                .map(|r| self.values[r * self.stride + slot])
                .collect();
            out.insert(job, series);
        }
        out
    }
}

/// Append `v` exactly as `format!("{v:.1}")` would. An integral `v` of
/// magnitude below 2^53 — every count, token and record, and every rate
/// at a 100 ms bucket — is its integer plus `.0`, written here without the
/// float formatter; `-0.0`, fractions, NaN and the infinities go through it.
fn push_f1(out: &mut String, v: f64) {
    let _ = if v.fract() != 0.0 || v.abs() >= 2f64.powi(53) || (v == 0.0 && v.is_sign_negative()) {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{}.0", v as i64)
    };
}

/// One of the four timeline families a [`Metrics`] collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeline {
    /// RPCs served per bucket; a counting family, rendered in RPC/s.
    Served,
    /// RPCs arriving at the OSS per bucket; a counting family, in RPC/s.
    Demand,
    /// Lending/borrowing record per bucket; a gauge, rendered raw.
    Records,
    /// Tokens allocated per bucket; a gauge, rendered raw.
    Allocations,
}

/// Per-slot scalar counters, fused into one struct so the serve path
/// touches a single cache line per RPC.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct SlotCounters {
    /// Total RPCs served.
    served: u64,
    /// Total RPCs released within the horizon.
    released: u64,
    /// Whether [`Metrics::set_released`] was called for the slot (only
    /// such jobs appear in the released/completion report shapes).
    has_release: bool,
    /// When the job finished all released work, if it did.
    completion: Option<SimTime>,
    /// Instant of the slot's most recent disk completion. Collected
    /// unconditionally so [`Metrics::rebuild_completions`] can recover
    /// completion instants after a shard merge, where release totals are
    /// only known post-merge.
    last_served: SimTime,
}

/// All series and counters collected during one run, slot-indexed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metrics {
    /// The run's dense job interner: slots are assigned at the first
    /// metric event a job produces and stay stable for the run.
    slots: JobSlots,
    /// RPCs *served* (disk completions) per job per bucket — the
    /// throughput timelines of Figures 3/5.
    served: SlotSeries,
    /// RPCs *arriving* at the OSS per job per bucket — the demand lines of
    /// Figure 7.
    demand: SlotSeries,
    /// Lending/borrowing record per job per bucket (gauge; Figure 7).
    records: SlotSeries,
    /// Token allocation per job per bucket (gauge; Figure 3 analysis).
    allocations: SlotSeries,
    /// Served/released/completion counters, one fused record per slot.
    counters: Vec<SlotCounters>,
    /// End-to-end RPC latency (client issue → disk completion) per slot.
    latency: Vec<LatencyHistogram>,
    /// Instant of the last disk completion (the workload's makespan).
    pub last_service: SimTime,
    /// Bucket width used by all series.
    pub bucket: SimDuration,
    // Monotone-time bucket cache: `cache_start ..cache_end` is the ns span
    // of bucket `cache_idx`.
    cache_start: u64,
    cache_end: u64,
    cache_idx: usize,
    /// Work counter behind the per-cycle cost tests:
    /// [`Metrics::gauge_slot`] calls made.
    #[cfg(test)]
    pub(crate) gauge_lookups: u64,
}

impl Metrics {
    /// New collector with the given bucket width (the paper observes at
    /// 100 ms).
    pub fn new(bucket: SimDuration) -> Self {
        Metrics {
            slots: JobSlots::new(),
            served: SlotSeries::new(bucket),
            demand: SlotSeries::new(bucket),
            records: SlotSeries::new(bucket),
            allocations: SlotSeries::new(bucket),
            counters: Vec::new(),
            latency: Vec::new(),
            last_service: SimTime::ZERO,
            bucket,
            cache_start: 0,
            cache_end: bucket.as_nanos(),
            cache_idx: 0,
            #[cfg(test)]
            gauge_lookups: 0,
        }
    }

    /// Reserve capacity in the interner, the counters and the latency
    /// histograms for about `jobs` jobs. The four timeline families are
    /// deliberately *not* sized here: a shard of a striped run only ever
    /// sees part of the scenario's jobs, and a `buckets × jobs` matrix
    /// per family for the rest is memory it would never touch. Their
    /// stride follows the jobs actually seen, growing geometrically (see
    /// `SlotSeries::grow`).
    pub fn reserve_jobs(&mut self, jobs: usize) {
        self.slots.reserve(jobs);
        self.counters.reserve(jobs);
        self.latency.reserve(jobs);
    }

    /// The run spans `buckets` buckets: each timeline family keeps room
    /// for that many rows from its first row on, across re-layouts too, so
    /// adding a row never re-copies its matrix (untouched room costs
    /// address space, not memory). Without the call, rows grow as added.
    pub fn reserve_buckets(&mut self, buckets: usize) {
        self.served.reserved = buckets;
        self.demand.reserved = buckets;
        self.records.reserved = buckets;
        self.allocations.reserved = buckets;
    }

    /// Intern `job`, growing every per-slot vector to cover its slot.
    #[inline]
    fn slot(&mut self, job: JobId) -> usize {
        let slot = self.slots.intern(job);
        if slot >= self.counters.len() {
            let n = slot + 1;
            self.counters.resize(n, SlotCounters::default());
            self.latency.resize_with(n, LatencyHistogram::new);
            self.served.grow(n);
            self.demand.grow(n);
            self.records.grow(n);
            self.allocations.grow(n);
        }
        slot
    }

    /// `at → bucket index`, cached for the (near-universal) case of a
    /// repeat hit on the current bucket.
    #[inline]
    fn bucket_idx(&mut self, at: SimTime) -> usize {
        let ns = at.as_nanos();
        if ns >= self.cache_start && ns < self.cache_end {
            return self.cache_idx;
        }
        let idx = at.bucket_index(self.bucket);
        let width = self.bucket.as_nanos();
        self.cache_start = idx as u64 * width;
        self.cache_end = self.cache_start + width;
        self.cache_idx = idx;
        idx
    }

    /// Record a disk completion. `issued_at` is when the client put the
    /// RPC on the wire (for end-to-end latency accounting).
    pub fn on_served_at(&mut self, job: JobId, now: SimTime, issued_at: SimTime) {
        let slot = self.slot(job);
        self.latency[slot].record(now.since(issued_at));
        self.served_slot(slot, now);
    }

    /// Record a disk completion without latency attribution.
    pub fn on_served(&mut self, job: JobId, now: SimTime) {
        let slot = self.slot(job);
        self.served_slot(slot, now);
    }

    #[inline]
    fn served_slot(&mut self, slot: usize, now: SimTime) {
        let idx = self.bucket_idx(now);
        self.served.add(slot, idx, 1.0);
        self.last_service = self.last_service.max(now);
        let c = &mut self.counters[slot];
        c.served += 1;
        c.last_served = c.last_served.max(now);
    }

    /// Record an OSS arrival.
    pub fn on_arrival(&mut self, job: JobId, now: SimTime) {
        let slot = self.slot(job);
        let idx = self.bucket_idx(now);
        self.demand.add(slot, idx, 1.0);
    }

    /// Record the controller's view of one job after a tick (records +
    /// allocations).
    pub fn on_allocation(&mut self, job: JobId, now: SimTime, record: i64, tokens: u64) {
        let handle = self.slot(job);
        self.record_row(now, [(handle, record as f64)]);
        self.allocation_row(now, [(handle, tokens as f64)]);
    }

    /// Record only the lending/borrowing gauge (idle jobs whose records
    /// persist between allocations).
    pub fn set_record(&mut self, job: JobId, now: SimTime, record: f64) {
        let handle = self.slot(job);
        self.record_row(now, [(handle, record)]);
    }

    /// The handle gauge rows name `job`'s cells by: resolved once, good
    /// for this collector's life, meaningless to any other collector.
    pub fn gauge_slot(&mut self, job: JobId) -> usize {
        #[cfg(test)]
        {
            self.gauge_lookups += 1;
        }
        self.slot(job)
    }

    /// The job a handle stands for, if [`Metrics::gauge_slot`] issued it.
    pub(crate) fn gauge_job(&self, handle: usize) -> Option<JobId> {
        (handle < self.slots.len()).then(|| self.slots.job(handle))
    }

    /// Write one tick's lending/borrowing gauges — a whole ledger's worth,
    /// most of it idle jobs — as one row of `(handle, value)` cells,
    /// straight from the iterator into the row.
    pub(crate) fn record_row(&mut self, now: SimTime, cells: impl IntoIterator<Item = Cell>) {
        let idx = self.bucket_idx(now);
        self.records.set_row(idx, cells);
    }

    /// Write one tick's token-allocation gauges as one row, likewise.
    pub(crate) fn allocation_row(&mut self, now: SimTime, cells: impl IntoIterator<Item = Cell>) {
        let idx = self.bucket_idx(now);
        self.allocations.set_row(idx, cells);
    }

    /// Declare how much work a job releases within the horizon (enables
    /// completion detection).
    pub fn set_released(&mut self, job: JobId, total: u64) {
        let slot = self.slot(job);
        self.counters[slot].released = total;
        self.counters[slot].has_release = true;
    }

    /// Total RPCs served across jobs.
    pub fn total_served(&self) -> u64 {
        self.counters.iter().map(|c| c.served).sum()
    }

    /// Total RPCs served by one job.
    pub fn served_of(&self, job: JobId) -> u64 {
        self.slots
            .get(job)
            .map_or(0, |slot| self.counters[slot].served)
    }

    /// RPCs released by one job within the horizon (0 if untracked).
    pub fn released_of(&self, job: JobId) -> u64 {
        match self.slots.get(job) {
            Some(slot) if self.counters[slot].has_release => self.counters[slot].released,
            _ => 0,
        }
    }

    /// When `job` finished all released work, if it did.
    pub fn completion_of(&self, job: JobId) -> Option<SimTime> {
        self.slots
            .get(job)
            .and_then(|slot| self.counters[slot].completion)
    }

    /// Latency histogram for one job, `None` if the collector never saw it.
    pub fn latency_of(&self, job: JobId) -> Option<&LatencyHistogram> {
        self.slots.get(job).map(|slot| &self.latency[slot])
    }

    // ---- fold/read-time report shapes -----------------------------------

    /// Total RPCs served per job, in job order (only jobs that served).
    pub fn served_by_job(&self) -> BTreeMap<JobId, u64> {
        self.fold(|m, slot| (m.counters[slot].served > 0).then_some(m.counters[slot].served))
    }

    /// Released totals per job, in job order (only tracked jobs).
    pub fn released_by_job(&self) -> BTreeMap<JobId, u64> {
        self.fold(|m, slot| {
            m.counters[slot]
                .has_release
                .then_some(m.counters[slot].released)
        })
    }

    /// Completion instants per tracked job (`None` = released work still
    /// unfinished at the horizon).
    pub fn completion_time(&self) -> BTreeMap<JobId, Option<SimTime>> {
        self.fold(|m, slot| {
            m.counters[slot]
                .has_release
                .then_some(m.counters[slot].completion)
        })
    }

    /// Latency histograms per job that completed at least one RPC with
    /// latency attribution.
    pub fn latency_by_job(&self) -> BTreeMap<JobId, LatencyHistogram> {
        self.fold(|m, slot| (m.latency[slot].count() > 0).then(|| m.latency[slot].clone()))
    }

    fn fold<T>(&self, mut value: impl FnMut(&Self, usize) -> Option<T>) -> BTreeMap<JobId, T> {
        let mut out = BTreeMap::new();
        for (slot, job) in self.slots.iter() {
            if let Some(v) = value(self, slot) {
                out.insert(job, v);
            }
        }
        out
    }

    /// The served-RPCs timeline family, JobId-keyed.
    pub fn served(&self) -> PerJobSeries {
        self.served.to_per_job(&self.slots)
    }

    /// The OSS-arrival (demand) timeline family, JobId-keyed.
    pub fn demand(&self) -> PerJobSeries {
        self.demand.to_per_job(&self.slots)
    }

    /// The lending/borrowing record gauge family, JobId-keyed.
    pub fn records(&self) -> PerJobSeries {
        self.records.to_per_job(&self.slots)
    }

    /// The token-allocation gauge family, JobId-keyed.
    pub fn allocations(&self) -> PerJobSeries {
        self.allocations.to_per_job(&self.slots)
    }

    /// Append one timeline family to `out` as CSV in one pass over its
    /// bucket-major matrix: `time_s`, the jobs that touched the family in
    /// job order (a cell past a job's length reads 0) and, for the
    /// counting families, which print RPC/s, `overall`, summed in job
    /// order; gauges print raw values. Every cell is `{:.1}`.
    pub fn write_csv(&self, family: Timeline, out: &mut String) {
        let (series, rate) = match family {
            Timeline::Served => (&self.served, true),
            Timeline::Demand => (&self.demand, true),
            Timeline::Records => (&self.records, false),
            Timeline::Allocations => (&self.allocations, false),
        };
        out.push_str("time_s");
        let mut columns = Vec::new();
        for (job, slot) in self.slots.sorted_by_job() {
            let n = series.len[slot];
            if n > 0 {
                let _ = write!(out, ",{job}");
                columns.push((slot, n));
            }
        }
        out.push_str(if rate { ",overall\n" } else { "\n" });
        let bucket = series.bucket.as_secs_f64();
        // `v * 1.0` is `v`, bit for bit: the gauges print as written.
        let scale = if rate { 1.0 / bucket } else { 1.0 };
        let rows = columns.iter().map(|&(_, n)| n).max().unwrap_or(0);
        for r in 0..rows {
            push_f1(out, r as f64 * bucket);
            let row = &series.values[r * series.stride..][..series.stride];
            let mut overall = 0.0;
            for &(slot, n) in &columns {
                let v = if r < n { row[slot] } else { 0.0 };
                overall += v;
                out.push(',');
                push_f1(out, v * scale);
            }
            if rate {
                out.push(',');
                push_f1(out, overall * scale);
            }
            out.push('\n');
        }
    }

    /// Merge another collector into this one (the sharded executor's
    /// fold: each shard records into its own `Metrics`, merged at run
    /// end).
    ///
    /// Jobs are matched by [`JobId`], so the two sides' interning orders
    /// are free to differ. Counting families (served/demand) and counters
    /// sum; latency histograms merge bin-wise; gauge families (records /
    /// allocations) copy only cells the other side wrote. Callers must
    /// absorb shards in **ascending shard order**: controller ticks are
    /// globally synchronized at multiples of the period, so same-bucket
    /// gauge writes from different OSTs happen at the same instant, and
    /// ascending-order overwrite reproduces the unsharded event loop's
    /// last-write-wins (highest OST index) outcome exactly.
    ///
    /// Completion instants are *not* merged — release totals are only
    /// known to the merged collector; call [`Metrics::set_released`] then
    /// [`Metrics::rebuild_completions`] afterwards.
    pub fn absorb(&mut self, other: &Metrics) {
        debug_assert_eq!(self.bucket, other.bucket, "mismatched bucket widths");
        let mut map = vec![0usize; other.counters.len()];
        for (slot_o, job) in other.slots.iter() {
            map[slot_o] = self.slot(job);
        }
        for (slot_o, _) in other.slots.iter() {
            let s = map[slot_o];
            let co = &other.counters[slot_o];
            let c = &mut self.counters[s];
            c.served += co.served;
            c.last_served = c.last_served.max(co.last_served);
            if co.has_release {
                c.has_release = true;
                c.released = co.released;
            }
            self.latency[s].merge(&other.latency[slot_o]);
        }
        self.served.absorb_sum(&other.served, &map);
        self.demand.absorb_sum(&other.demand, &map);
        self.records.absorb_over(&other.records, &map);
        self.allocations.absorb_over(&other.allocations, &map);
        self.last_service = self.last_service.max(other.last_service);
    }

    /// Fold per-shard collectors into one finalized run collector — the
    /// shared fold surface of both sharded executors (the sim's per-OST
    /// event-loop shards and the live runtime's per-OST thread shards).
    ///
    /// `shards` must arrive in **ascending shard order** (see
    /// [`Metrics::absorb`]'s gauge last-write-wins contract). `released`
    /// carries the run's release denominators, which are only known to the
    /// merged collector; completions are rebuilt from the merged counters
    /// and every series is aligned to cover `until`.
    pub fn fold_shards(
        bucket: SimDuration,
        shards: impl IntoIterator<Item = Metrics>,
        released: impl IntoIterator<Item = (JobId, u64)>,
        until: SimTime,
    ) -> Metrics {
        // Absorbing into an empty collector is the identity on everything
        // but completions, which an absorb drops: the first shard is taken
        // as it is instead of copied cell by cell.
        let mut shards = shards.into_iter();
        let mut folded = shards.next().unwrap_or_else(|| Metrics::new(bucket));
        debug_assert_eq!(folded.bucket, bucket, "mismatched bucket widths");
        for c in &mut folded.counters {
            c.completion = None;
        }
        for shard in shards {
            folded.absorb(&shard);
        }
        for (job, total) in released {
            folded.set_released(job, total);
        }
        folded.rebuild_completions();
        folded.finalize(until);
        folded
    }

    /// The one completion rule: a tracked job that served exactly its
    /// released total completed at its last serve. Runs on the merged
    /// collector ([`Metrics::fold_shards`]), because release totals are
    /// only known there; the serve path itself detects nothing.
    pub fn rebuild_completions(&mut self) {
        for c in &mut self.counters {
            if c.has_release && c.served > 0 && c.served == c.released {
                c.completion = Some(c.last_served);
            }
        }
    }

    /// Align all series to a common final length covering `until`.
    pub fn finalize(&mut self, until: SimTime) {
        let idx = until.bucket_index(self.bucket);
        self.served.pad_and_align(idx);
        self.demand.pad_and_align(idx);
        self.records.pad_and_align(idx);
        self.allocations.pad_and_align(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Metrics {
        Metrics::new(SimDuration::from_millis(100))
    }

    #[test]
    fn served_counts_and_completion() {
        let mut metrics = m();
        metrics.set_released(JobId(1), 2);
        metrics.on_served(JobId(1), SimTime::from_millis(50));
        metrics.rebuild_completions();
        assert_eq!(metrics.completion_time()[&JobId(1)], None);
        assert_eq!(metrics.completion_of(JobId(1)), None);
        metrics.on_served(JobId(1), SimTime::from_millis(160));
        metrics.rebuild_completions();
        assert_eq!(
            metrics.completion_time()[&JobId(1)],
            Some(SimTime::from_millis(160))
        );
        assert_eq!(metrics.total_served(), 2);
        assert_eq!(metrics.served_of(JobId(1)), 2);
        assert_eq!(
            metrics.served().get(JobId(1)).unwrap().values,
            vec![1.0, 1.0]
        );
    }

    #[test]
    fn gauges_record_last_value_per_bucket() {
        let mut metrics = m();
        metrics.on_allocation(JobId(1), SimTime::from_millis(100), 5, 30);
        metrics.on_allocation(JobId(1), SimTime::from_millis(200), -3, 40);
        let records = metrics.records();
        let records = records.get(JobId(1)).unwrap();
        assert_eq!(records.get(1), 5.0);
        assert_eq!(records.get(2), -3.0);
        assert_eq!(metrics.allocations().get(JobId(1)).unwrap().get(2), 40.0);
    }

    #[test]
    fn finalize_aligns_series() {
        let mut metrics = m();
        metrics.on_served(JobId(1), SimTime::from_millis(50));
        metrics.on_arrival(JobId(2), SimTime::from_millis(950));
        metrics.finalize(SimTime::from_millis(1000));
        assert_eq!(metrics.served().get(JobId(1)).unwrap().len(), 11);
        assert_eq!(metrics.demand().get(JobId(2)).unwrap().len(), 11);
    }

    #[test]
    fn completion_without_release_info_stays_none() {
        let mut metrics = m();
        metrics.on_served(JobId(3), SimTime::ZERO);
        assert!(!metrics.completion_time().contains_key(&JobId(3)));
        assert_eq!(metrics.completion_of(JobId(3)), None);
        assert_eq!(metrics.released_of(JobId(3)), 0);
    }

    #[test]
    fn bucket_cache_survives_non_monotone_reads() {
        // The cache is an optimization for near-monotone event time; an
        // out-of-window timestamp (either direction) must still land in
        // the right bucket.
        let mut metrics = m();
        metrics.on_arrival(JobId(1), SimTime::from_millis(950));
        metrics.on_arrival(JobId(1), SimTime::from_millis(50));
        metrics.on_arrival(JobId(1), SimTime::from_millis(951));
        let demand = metrics.demand();
        let s = demand.get(JobId(1)).unwrap();
        assert_eq!(s.get(0), 1.0);
        assert_eq!(s.get(9), 2.0);
    }

    #[test]
    fn absorb_merges_counts_series_and_latency_by_job_id() {
        // Two collectors with *different* interning orders must merge by
        // JobId, summing counts and serve timelines.
        let mut a = m();
        a.on_served_at(JobId(1), SimTime::from_millis(50), SimTime::ZERO);
        a.on_arrival(JobId(2), SimTime::from_millis(150));
        let mut b = m();
        b.on_served_at(
            JobId(2),
            SimTime::from_millis(250),
            SimTime::from_millis(100),
        );
        b.on_served(JobId(1), SimTime::from_millis(160));
        a.absorb(&b);
        assert_eq!(a.total_served(), 3);
        assert_eq!(a.served_of(JobId(1)), 2);
        assert_eq!(a.served_of(JobId(2)), 1);
        assert_eq!(a.last_service, SimTime::from_millis(250));
        assert_eq!(a.served().get(JobId(1)).unwrap().values, vec![1.0, 1.0]);
        let count = |job| a.latency_of(job).map_or(0, |l| l.count());
        assert_eq!(count(JobId(1)) + count(JobId(2)), 2);
        assert_eq!(a.demand().get(JobId(2)).unwrap().get(1), 1.0);
    }

    #[test]
    fn absorb_gauges_overwrite_only_written_cells() {
        // Shard A wrote bucket 1, shard B wrote buckets 1 and 2 — the
        // merged gauge must take B's value where B wrote (ascending-order
        // last-write-wins) and keep A's where only A wrote.
        let mut a = m();
        a.on_allocation(JobId(1), SimTime::from_millis(100), 5, 30);
        a.set_record(JobId(1), SimTime::from_millis(300), 7.0);
        let mut b = m();
        b.on_allocation(JobId(1), SimTime::from_millis(100), -2, 40);
        a.absorb(&b);
        let records = a.records();
        let r = records.get(JobId(1)).unwrap();
        assert_eq!(r.get(1), -2.0, "B wrote bucket 1 and absorbs later");
        assert_eq!(r.get(3), 7.0, "bucket only A wrote survives");
        assert_eq!(a.allocations().get(JobId(1)).unwrap().get(1), 40.0);
        // A zero written by B must still overwrite A's value.
        let mut c = m();
        c.set_record(JobId(1), SimTime::from_millis(100), 0.0);
        a.absorb(&c);
        assert_eq!(a.records().get(JobId(1)).unwrap().get(1), 0.0);
    }

    #[test]
    fn rebuild_completions_finds_the_last_serve_after_a_merge() {
        // Serves split across shards, release set post-merge.
        let mut sh0 = m();
        sh0.on_served(JobId(1), SimTime::from_millis(40));
        let mut sh1 = m();
        sh1.on_served(JobId(1), SimTime::from_millis(90));
        sh0.absorb(&sh1);
        sh0.set_released(JobId(1), 2);
        sh0.rebuild_completions();
        assert_eq!(sh0.completion_of(JobId(1)), Some(SimTime::from_millis(90)));
        // An incomplete or never-serving job must stay None.
        sh0.set_released(JobId(2), 4);
        sh0.rebuild_completions();
        assert_eq!(sh0.completion_of(JobId(2)), None);
    }

    #[test]
    fn fold_shards_matches_a_single_collector() {
        // The one-call fold must equal the manual absorb → set_released →
        // rebuild_completions → finalize sequence *and* an unsharded
        // collector that saw every event inline.
        let mut inline = m();
        inline.set_released(JobId(1), 2);
        inline.on_served_at(JobId(1), SimTime::from_millis(40), SimTime::ZERO);
        inline.on_arrival(JobId(2), SimTime::from_millis(60));
        inline.on_served_at(JobId(1), SimTime::from_millis(90), SimTime::from_millis(10));
        inline.rebuild_completions();
        inline.finalize(SimTime::from_millis(500));

        let mut sh0 = m();
        sh0.on_served_at(JobId(1), SimTime::from_millis(40), SimTime::ZERO);
        let mut sh1 = m();
        sh1.on_arrival(JobId(2), SimTime::from_millis(60));
        sh1.on_served_at(JobId(1), SimTime::from_millis(90), SimTime::from_millis(10));
        let folded = Metrics::fold_shards(
            SimDuration::from_millis(100),
            [sh0, sh1],
            [(JobId(1), 2)],
            SimTime::from_millis(500),
        );
        assert_eq!(folded.total_served(), inline.total_served());
        assert_eq!(folded.served_by_job(), inline.served_by_job());
        assert_eq!(
            folded.completion_of(JobId(1)),
            Some(SimTime::from_millis(90))
        );
        assert_eq!(folded.completion_time(), inline.completion_time());
        assert_eq!(
            folded.served().get(JobId(1)).unwrap().values,
            inline.served().get(JobId(1)).unwrap().values
        );
        assert_eq!(
            folded.demand().get(JobId(2)).unwrap().values,
            inline.demand().get(JobId(2)).unwrap().values
        );
        assert_eq!(
            folded.latency_of(JobId(1)).map(|l| l.count()),
            inline.latency_of(JobId(1)).map(|l| l.count())
        );
    }

    #[test]
    fn jobs_seen_one_by_one_relayout_a_logarithmic_number_of_times() {
        // Every job of a churning run is first seen mid-run, after its
        // family already holds rows. Each stride change then re-lays every
        // row out: 2,048 such jobs may cost 11 of them (one per doubling),
        // not 2,048 — and the overshoot never exceeds the doubling.
        let mut metrics = m();
        let mut relayouts = 0;
        for job in 0..2048u32 {
            let at = SimTime::from_millis(100 * (job as u64 / 64));
            let before = metrics.records.stride;
            metrics.on_arrival(JobId(job), at);
            metrics.on_allocation(JobId(job), at, job as i64 - 7, job as u64);
            if before > 0 && metrics.records.stride != before {
                relayouts += 1;
            }
        }
        assert!(relayouts <= 11, "{relayouts} re-layouts");
        assert_eq!(metrics.demand.stride, 2048);
        // Nothing moved: every gauge cell reads back where it was written,
        // and only there.
        let records = metrics.records();
        for job in 0..2048u32 {
            let series = records.get(JobId(job)).unwrap();
            let row = job as usize / 64;
            assert_eq!(series.values.len(), row + 1);
            assert_eq!(series.get(row), job as f64 - 7.0);
            let slot = metrics.slots.get(JobId(job)).unwrap();
            for r in 0..32 {
                assert_eq!(metrics.records.is_written(slot, r), r == row, "{job} {r}");
            }
        }
    }

    #[test]
    fn a_handle_row_equals_a_job_row() {
        // Six ticks (one bucket is skipped) each write a growing ledger's
        // worth of gauges, zeros among them, three ways: rows by handle,
        // each job's handle resolved the tick the job is first seen —
        // append-only, as a node does — and reused ever after; cell by
        // cell by job, latest job first; and cell by cell through the
        // merge's primitive. The jobs are first seen mid-run, so every
        // side re-lays its families out, at different moments and with
        // different slot numberings.
        let (mut by_handle, mut by_job, mut by_cell) = (m(), m(), m());
        // Values, written bits and logical length of every job's columns.
        type Columns = BTreeMap<JobId, [(usize, Vec<(f64, bool)>); 2]>;
        let state = |x: &Metrics| -> Columns {
            let column = |f: &SlotSeries, slot| {
                let cell = |row| (f.values[row * f.stride + slot], f.is_written(slot, row));
                (f.len[slot], (0..f.rows).map(cell).collect())
            };
            let columns = |slot| [column(&x.records, slot), column(&x.allocations, slot)];
            x.slots.iter().map(|(s, job)| (job, columns(s))).collect()
        };
        let mut handles: Vec<usize> = Vec::new();
        let mut relaid = 0;
        for tick in 0..6u32 {
            let now = SimTime::from_millis(100 * u64::from(tick + tick / 4));
            let record = |j: u32| i64::from((j + tick) % 4) - 1;
            let jobs = 3 + 40 * tick;
            let stride = by_handle.records.stride;
            for j in handles.len() as u32..jobs {
                handles.push(by_handle.gauge_slot(JobId(j)));
            }
            relaid += u32::from(tick > 0 && by_handle.records.stride != stride);
            let cells = handles.iter().zip(0..).map(|(&h, j)| (h, record(j) as f64));
            by_handle.record_row(now, cells.clone());
            by_handle.allocation_row(now, cells.step_by(3).map(|(h, v)| (h, v + 1.0)));
            for j in (0..jobs).rev() {
                let (slot, idx) = (by_cell.slot(JobId(j)), by_cell.bucket_idx(now));
                by_cell.records.set(slot, idx, record(j) as f64);
                if j % 3 == 0 {
                    by_job.on_allocation(JobId(j), now, record(j), (record(j) + 1) as u64);
                    by_cell.allocations.set(slot, idx, (record(j) + 1) as f64);
                } else {
                    by_job.set_record(JobId(j), now, record(j) as f64);
                }
            }
            assert_eq!(state(&by_handle), state(&by_job), "tick {tick}");
            assert_eq!(state(&by_handle), state(&by_cell), "tick {tick}");
        }
        assert!(relaid >= 3, "handles held across {relaid} re-layouts");
        assert_eq!(by_handle.gauge_lookups, 203, "one lookup per job");
        assert_eq!(by_handle.gauge_job(handles[7]), Some(JobId(7)));
        assert_eq!(by_handle.gauge_job(203), None);
        // What a merge copies out of each is the same, zeros included.
        let absorbed = |from: &Metrics| {
            let mut into = m();
            into.on_allocation(JobId(6), SimTime::from_millis(300), 9, 9);
            into.absorb(from);
            (state(&into), into.records(), into.allocations())
        };
        assert_eq!(absorbed(&by_handle), absorbed(&by_job));
        assert_eq!(absorbed(&by_handle), absorbed(&by_cell));
        assert_eq!(absorbed(&by_handle).1, by_job.records());
        assert_eq!(by_job.records().get(JobId(6)).unwrap().get(3), 0.0);
        assert!(
            by_job.allocations().get(JobId(1)).is_none(),
            "never granted"
        );
    }

    #[test]
    fn reserving_buckets_changes_no_output() {
        // Two shards of a run with serves, arrivals, gauges and jobs first
        // seen mid-run, folded: every report shape is the same whether or
        // not the shards were told the horizon.
        let run = |reserve: bool| {
            let shard = |k: u32| {
                let mut sh = m();
                if reserve {
                    sh.reserve_buckets(31);
                }
                for step in 0..90u32 {
                    let job = JobId((step * (k + 2) + k) % (5 + step / 4));
                    let at = SimTime::from_millis(33 * u64::from(step));
                    sh.on_arrival(job, at);
                    if step % 3 != k {
                        sh.on_served_at(job, at, SimTime::from_millis(20 * u64::from(step)));
                    }
                    if step % 5 == 0 {
                        sh.on_allocation(job, at, i64::from(step % 7) - 3, u64::from(step % 4));
                    }
                }
                sh
            };
            let released = (0..20).map(|j| (JobId(j), 3 + u64::from(j)));
            let bucket = SimDuration::from_millis(100);
            Metrics::fold_shards(
                bucket,
                [shard(0), shard(1)],
                released,
                SimTime::from_secs(3),
            )
        };
        let (bare, told) = (run(false), run(true));
        assert_eq!(told.total_served(), bare.total_served());
        assert_eq!(told.served_by_job(), bare.served_by_job());
        assert_eq!(told.released_by_job(), bare.released_by_job());
        assert_eq!(told.completion_time(), bare.completion_time());
        assert!(told.completion_time().values().any(|c| c.is_some()));
        assert_eq!(told.latency_by_job(), bare.latency_by_job());
        assert_eq!(told.last_service, bare.last_service);
        assert_eq!(told.served(), bare.served());
        assert_eq!(told.demand(), bare.demand());
        assert_eq!(told.records(), bare.records());
        assert_eq!(told.allocations(), bare.allocations());
        assert_eq!(told.served().get(JobId(3)).unwrap().len(), 31);
        // Told the horizon after its jobs are known, a collector's rows
        // stay where they are for the whole run; a re-layout moves them
        // once, to a place with the same room.
        let mut metrics = m();
        metrics.reserve_buckets(121);
        let tick = |metrics: &mut Metrics, jobs: u32, bucket: u64| {
            for job in (0..jobs).map(JobId) {
                let at = SimTime::from_millis(100 * bucket);
                metrics.on_arrival(job, at);
                metrics.on_allocation(job, at, 1, 2);
            }
        };
        tick(&mut metrics, 8, 0);
        let rows = |x: &Metrics| [&x.demand, &x.records, &x.allocations].map(|f| f.values.as_ptr());
        let before = rows(&metrics);
        for bucket in 1..=100 {
            tick(&mut metrics, 8, bucket);
        }
        assert_eq!(rows(&metrics), before, "100 appended rows, none moved");
        tick(&mut metrics, 9, 100);
        let relaid = rows(&metrics);
        assert!(relaid.iter().zip(&before).all(|(a, b)| a != b));
        for bucket in 101..=120 {
            tick(&mut metrics, 9, bucket);
        }
        assert_eq!(rows(&metrics), relaid, "nor after the re-layout");
        assert_eq!(metrics.records.rows, 121);
    }

    /// The merge walks as they were before the bucket-major order: slot
    /// by slot, each slot's buckets in turn.
    fn absorb_slot_by_slot(into: &mut SlotSeries, other: &SlotSeries, map: &[usize], sum: bool) {
        for (slot_o, &n) in other.len.iter().enumerate() {
            for r in 0..n {
                let v = other.values[r * other.stride + slot_o];
                if sum {
                    into.add(map[slot_o], r, v);
                } else if other.is_written(slot_o, r) {
                    into.set(map[slot_o], r, v);
                } else if r + 1 == n {
                    into.cell(map[slot_o], r);
                }
            }
        }
    }

    #[test]
    fn bucket_major_merges_equal_the_slot_by_slot_walk() {
        // Three shards whose jobs are interned late, in different orders
        // and not all on every shard (so the merged side re-lays out too),
        // with ragged lengths, gauge zeros and padded tails — merged in
        // shard order both ways, the families must agree cell for cell
        // (values, logical lengths and written bits).
        let shard = |k: u32| {
            let mut sh = m();
            for step in 0..60u32 {
                let job = JobId((step * (k + 3) + k) % (17 + 3 * k));
                let at = SimTime::from_millis(40 * step as u64);
                sh.on_arrival(job, at);
                if step % 3 == k % 3 {
                    sh.on_served(job, at);
                }
                if step % 4 == 0 {
                    sh.on_allocation(job, at, (step % 5) as i64 - 2, (step % 3) as u64);
                } else if step % 7 == 0 {
                    sh.set_record(job, at, 0.0);
                }
            }
            if k == 1 {
                sh.finalize(SimTime::from_millis(3000));
            }
            sh
        };
        let shards = [shard(0), shard(1), shard(2)];
        let mut merged = m();
        let mut oracle = m();
        for sh in &shards {
            merged.absorb(sh);
            let mut map = vec![0usize; sh.counters.len()];
            for (slot_o, job) in sh.slots.iter() {
                map[slot_o] = oracle.slot(job);
            }
            absorb_slot_by_slot(&mut oracle.served, &sh.served, &map, true);
            absorb_slot_by_slot(&mut oracle.demand, &sh.demand, &map, true);
            absorb_slot_by_slot(&mut oracle.records, &sh.records, &map, false);
            absorb_slot_by_slot(&mut oracle.allocations, &sh.allocations, &map, false);
        }
        let families = |x: &Metrics| {
            [&x.served, &x.demand, &x.records, &x.allocations]
                .map(|f| (f.stride, f.values.clone(), f.len.clone(), f.written.clone()))
        };
        assert_eq!(families(&merged), families(&oracle));
        assert!(merged.records.written.iter().any(|w| *w != 0));
        assert_eq!(merged.demand().jobs().len(), 23);
    }

    #[test]
    fn untouched_families_fold_empty_for_interned_jobs() {
        // A job interned via arrivals only must not appear in the other
        // report families — membership is per family, as with the keyed
        // maps.
        let mut metrics = m();
        metrics.on_arrival(JobId(4), SimTime::ZERO);
        assert!(metrics.served().get(JobId(4)).is_none());
        assert!(metrics.records().get(JobId(4)).is_none());
        assert!(metrics.served_by_job().is_empty());
        assert!(metrics.latency_by_job().is_empty());
        assert_eq!(metrics.demand().jobs(), vec![JobId(4)]);
    }

    /// The CSV renderers of the `PerJobSeries` era, kept verbatim as the
    /// reference [`Metrics::write_csv`] must equal byte for byte: fold,
    /// clone, align, aggregate, one `format!` per cell.
    fn reference_timeline_csv(series: &PerJobSeries) -> String {
        let mut series = series.clone();
        series.align();
        let jobs = series.jobs();
        let agg = series.aggregate();
        let mut out = String::from("time_s");
        for job in &jobs {
            out.push_str(&format!(",{job}"));
        }
        out.push_str(",overall\n");
        let scale = 1.0 / agg.bucket.as_secs_f64();
        for i in 0..agg.len() {
            let t = i as f64 * agg.bucket.as_secs_f64();
            out.push_str(&format!("{t:.1}"));
            for job in &jobs {
                let v = series.get(*job).map_or(0.0, |s| s.get(i));
                out.push_str(&format!(",{:.1}", v * scale));
            }
            out.push_str(&format!(",{:.1}\n", agg.get(i) * scale));
        }
        out
    }

    fn reference_gauge_csv(series: &PerJobSeries) -> String {
        let mut series = series.clone();
        series.align();
        let jobs = series.jobs();
        let n = series.max_len();
        let bucket = jobs
            .first()
            .and_then(|j| series.get(*j))
            .map_or(0.1, |s| s.bucket.as_secs_f64());
        let mut out = String::from("time_s");
        for job in &jobs {
            out.push_str(&format!(",{job}"));
        }
        out.push('\n');
        for i in 0..n {
            out.push_str(&format!("{:.1}", i as f64 * bucket));
            for job in &jobs {
                out.push_str(&format!(
                    ",{:.1}",
                    series.get(*job).map_or(0.0, |s| s.get(i))
                ));
            }
            out.push('\n');
        }
        out
    }

    const FAMILIES: [Timeline; 4] = [
        Timeline::Served,
        Timeline::Demand,
        Timeline::Records,
        Timeline::Allocations,
    ];

    /// `(streamed, reference)` renders of one family.
    fn both_csvs(metrics: &Metrics, family: Timeline) -> (String, String) {
        let mut streamed = String::new();
        metrics.write_csv(family, &mut streamed);
        let reference = match family {
            Timeline::Served => reference_timeline_csv(&metrics.served()),
            Timeline::Demand => reference_timeline_csv(&metrics.demand()),
            Timeline::Records => reference_gauge_csv(&metrics.records()),
            Timeline::Allocations => reference_gauge_csv(&metrics.allocations()),
        };
        (streamed, reference)
    }

    #[test]
    fn csv_rates_counting_families_and_keeps_gauges_raw() {
        let mut metrics = m();
        for _ in 0..10 {
            metrics.on_served(JobId(1), SimTime::ZERO);
        }
        for _ in 0..5 {
            metrics.on_served(JobId(2), SimTime::from_millis(150));
        }
        metrics.set_record(JobId(1), SimTime::ZERO, -36.0);
        let csv = |family| {
            let mut out = String::new();
            metrics.write_csv(family, &mut out);
            out
        };
        assert_eq!(
            csv(Timeline::Served),
            "time_s,job1,job2,overall\n0.0,100.0,0.0,100.0\n0.1,0.0,50.0,50.0\n"
        );
        assert_eq!(csv(Timeline::Records), "time_s,job1\n0.0,-36.0\n");
        assert_eq!(csv(Timeline::Demand), "time_s,overall\n");
        assert_eq!(csv(Timeline::Allocations), "time_s\n");
    }

    #[test]
    fn integer_fast_path_prints_what_the_float_formatter_prints() {
        let two53 = 9_007_199_254_740_992.0_f64;
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            -36.0,
            two53 - 1.0,
            -(two53 - 1.0),
            two53,
            two53 + 1.0,
            two53 + 2.0,
            -two53,
            1e16,
            0.05,
            0.25,
            2.5,
            -2.5,
            0.1 * 3.0,
            1.0 / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in values {
            let mut out = String::from("x");
            push_f1(&mut out, v);
            assert_eq!(out, format!("x{v:.1}"), "{v:e}");
        }
    }

    #[test]
    fn streamed_csv_equals_the_per_job_series_render() {
        // Seeded random collectors: 2-5 shards, each seeing a few of 40
        // jobs whose ids run against their first-sight order, serving and
        // arriving in ragged runs, writing gauges that are negative, -0.0
        // or fractional; some shards write no gauges at all (an empty
        // family), some are finalized and some not. Each shard alone, the
        // absorbed sum and a fold must all render as the reference does,
        // at bucket widths whose rates and time stamps are fractional too.
        let mut state = 0x5eed_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let gauges = [-3.0, -0.0, 0.0, 0.05, 2.5, 7.0, -1.25e6, 1e16];
        let mut seen = [false; 4];
        for case in 0..48 {
            let bucket = SimDuration::from_millis([100, 250, 70, 1000][case % 4]);
            let shard = |next: &mut dyn FnMut(u64) -> u64| {
                let mut sh = Metrics::new(bucket);
                let with_gauges = next(3) != 0;
                for _ in 0..next(120) {
                    let job = JobId(1000 - 25 * next(40) as u32);
                    let at = SimTime::from_millis(next(3000));
                    match next(5) {
                        0 | 1 => sh.on_arrival(job, at),
                        2 => sh.on_served(job, at),
                        3 if with_gauges => {
                            let v = gauges[next(gauges.len() as u64) as usize];
                            sh.set_record(job, at, v);
                        }
                        4 if with_gauges => sh.on_allocation(job, at, next(9) as i64 - 4, next(50)),
                        _ => {
                            sh.gauge_slot(job);
                        }
                    }
                }
                if next(2) == 0 {
                    sh.finalize(SimTime::from_millis(next(4000)));
                }
                sh
            };
            let shards: Vec<Metrics> = (0..2 + next(4)).map(|_| shard(&mut next)).collect();
            let mut absorbed = Metrics::new(bucket);
            for sh in &shards {
                absorbed.absorb(sh);
            }
            let folded =
                Metrics::fold_shards(bucket, shards.clone(), [], SimTime::from_millis(next(5000)));
            for metrics in shards.iter().chain([&absorbed, &folded]) {
                for family in FAMILIES {
                    let (streamed, reference) = both_csvs(metrics, family);
                    assert_eq!(streamed, reference, "case {case} {family:?}");
                    seen[0] |= streamed == "time_s\n";
                    seen[1] |= streamed.contains(",-0.0");
                    seen[2] |= streamed.contains(",-1250000.0");
                    seen[3] |= streamed.lines().any(|l| {
                        l.split(',')
                            .skip(1)
                            .any(|c| c.parse::<f64>().is_ok_and(|v| v.fract() != 0.0))
                    });
                }
            }
        }
        assert_eq!(seen, [true; 4], "empty family, -0.0, negative, fraction");
    }
}
