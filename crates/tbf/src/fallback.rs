//! The fallback queue: one global FIFO of parked RPCs that also knows
//! where each job's RPCs sit.
//!
//! The RPCs of jobs no rule names wait here in arrival order and are
//! served from the front. When a rule starts, everything parked for its
//! job must leave — and under overload the crowd parked here is thousands
//! of times larger than the few jobs a control cycle starts rules for. So
//! every parked RPC carries a link to the previous parked RPC of its job,
//! and the queue remembers each job's last one:
//! [`FallbackQueue::take_job`] walks exactly that job's RPCs, leaving
//! tombstones. [`FallbackQueue::pop_front`] skips a tombstone once; the
//! ring is re-packed instead of grown whenever it is full and a quarter
//! of it is tombstones, so they never cost a reallocation, and
//! [`FallbackQueue::trim`] hands the ring's memory back once a batch of
//! takes has left it mostly unused.
//!
//! Positions are absolute and never reused: entry `i` of the ring sits at
//! `base + i`, and everything below `base` is gone. Serving from the front
//! only moves `base`, so it never touches a link or a tail — a link or
//! tail that points below `base` simply reads as "none". Re-packing the
//! ring moves `base` past every old position for the same reason. A link
//! is a *distance* between two positions that are both in the ring, so it
//! is bounded by the ring's length — how many RPCs are parked at once —
//! and not by how many have ever been: positions may pass 2³² freely.
//!
//! Jobs are known by the scheduler's slots. The index costs one `u32`
//! link per parked RPC and one `u64` tail per slot up to the highest that
//! has parked. Only a re-pack has to ask for a parked RPC's slot again,
//! which is why the two calls that can re-pack take the scheduler's
//! `slot_of` lookup.

use adaptbf_model::{JobId, Rpc};
use std::collections::VecDeque;

/// Packed to 4 so the link really costs 4 bytes, not 8 with padding (the
/// ring is the scheduler's largest allocation under overload). Fields of a
/// packed struct are copied in and out, never borrowed.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Parked {
    /// `None` once lifted by [`FallbackQueue::take_job`] (a tombstone).
    rpc: Option<Rpc>,
    /// Distance back to the previous parked RPC of the same job (0 = this
    /// is the job's first). May point below `base`: already served.
    prev: u32,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct FallbackQueue {
    ring: VecDeque<Parked>,
    /// Position of `ring[0]`. Starts at 1 so that a tail of 0 is below it.
    base: u64,
    /// Entries of `ring` that are not tombstones.
    live: usize,
    /// Position of the last parked RPC of the job at each slot; stale
    /// when below `base`.
    tails: Vec<u64>,
    /// Work counter behind the per-cycle cost tests: ring entries
    /// [`FallbackQueue::take_job`] has visited.
    #[cfg(test)]
    pub(crate) lifted: u64,
}

impl FallbackQueue {
    pub(crate) fn new() -> Self {
        FallbackQueue {
            ring: VecDeque::new(),
            base: 1,
            live: 0,
            tails: Vec::new(),
            #[cfg(test)]
            lifted: 0,
        }
    }

    /// An empty queue whose first position is `base` (≥ 1) — as if
    /// `base − 1` RPCs had already passed through.
    #[cfg(test)]
    fn starting_at(base: u64) -> Self {
        FallbackQueue {
            base,
            ..Self::new()
        }
    }

    /// Parked RPCs.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Park `rpc`, whose job sits at `slot`, behind everything already
    /// here.
    pub(crate) fn push_back(&mut self, slot: usize, rpc: Rpc, slot_of: impl Fn(JobId) -> usize) {
        let len = self.ring.len();
        if len == self.ring.capacity() && (len - self.live) * 4 >= len.max(1) {
            self.repack(slot_of);
        }
        let parked = self.link(slot, rpc, self.base + self.ring.len() as u64);
        self.ring.push_back(parked);
        self.live += 1;
    }

    /// `rpc` as the entry at `pos`, linked behind its job's current tail,
    /// which it replaces.
    #[inline]
    fn link(&mut self, slot: usize, rpc: Rpc, pos: u64) -> Parked {
        if slot >= self.tails.len() {
            self.tails.resize(slot + 1, 0);
        }
        let tail = std::mem::replace(&mut self.tails[slot], pos);
        let prev = if tail >= self.base {
            u32::try_from(pos - tail).expect("fewer than 2^32 RPCs parked at once")
        } else {
            0
        };
        Parked {
            rpc: Some(rpc),
            prev,
        }
    }

    /// Serve the longest-parked RPC.
    pub(crate) fn pop_front(&mut self) -> Option<Rpc> {
        while let Some(parked) = self.ring.pop_front() {
            self.base += 1;
            if let Some(rpc) = parked.rpc {
                self.live -= 1;
                return Some(rpc);
            }
        }
        None
    }

    /// Parked RPCs in arrival order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = Rpc> + '_ {
        self.ring.iter().filter_map(|p| p.rpc)
    }

    /// Empty the queue, yielding the parked RPCs in arrival order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = Rpc> + '_ {
        self.base += self.ring.len() as u64;
        self.live = 0;
        self.ring.drain(..).filter_map(|p| p.rpc)
    }

    /// Lift every parked RPC of the job at `slot`, handing each to `lift`
    /// — latest first. The cost is the job's own parked RPCs, not the
    /// queue's.
    pub(crate) fn take_job(&mut self, slot: usize, mut lift: impl FnMut(Rpc)) {
        let Some(tail) = self.tails.get_mut(slot) else {
            return;
        };
        let mut pos = std::mem::take(tail);
        while pos >= self.base {
            #[cfg(test)]
            {
                self.lifted += 1;
            }
            let parked = &mut self.ring[(pos - self.base) as usize];
            let Parked { rpc, prev } = *parked;
            parked.rpc = None;
            self.live -= 1;
            lift(rpc.expect("a job's chain links live RPCs"));
            if prev == 0 {
                break;
            }
            pos -= u64::from(prev);
        }
    }

    /// After a batch of takes: when fewer than a third of the ring's
    /// slots hold a parked RPC, re-pack it into an allocation of half as
    /// much again as is parked (none, if nothing is) — under overload this
    /// ring is the scheduler's largest allocation, and a burst that has
    /// found its rules must not keep it at the burst's size.
    pub(crate) fn trim(&mut self, slot_of: impl Fn(JobId) -> usize) {
        if self.ring.capacity() > 3 * self.live {
            self.repack(slot_of);
            self.ring.shrink_to(self.live + self.live / 2);
        }
    }

    /// Drop the tombstones. O(ring): the parked RPCs are re-packed at
    /// fresh positions, which makes every old link and tail stale, and
    /// re-linked as they land.
    fn repack(&mut self, slot_of: impl Fn(JobId) -> usize) {
        self.base += self.ring.len() as u64;
        let mut kept = 0;
        for read in 0..self.ring.len() {
            if let Some(rpc) = self.ring[read].rpc {
                self.ring[kept] = self.link(slot_of(rpc.job), rpc, self.base + kept as u64);
                kept += 1;
            }
        }
        self.ring.truncate(kept);
        debug_assert_eq!(kept, self.live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{ClientId, ProcId, RpcId, SimTime};
    use proptest::prelude::*;

    fn rpc(id: u64, job: u32) -> Rpc {
        Rpc::new(RpcId(id), JobId(job), ClientId(0), ProcId(0), SimTime::ZERO)
    }

    /// The tests' interner: a job's slot is its raw id.
    fn slot_of(job: JobId) -> usize {
        job.raw() as usize
    }

    fn park(q: &mut FallbackQueue, rpc: Rpc) {
        q.push_back(slot_of(rpc.job), rpc, slot_of);
    }

    /// The ids `take_job` lifts for `job`, in lift order (latest first).
    fn take(q: &mut FallbackQueue, job: u32) -> Vec<u64> {
        let mut lifted = Vec::new();
        q.take_job(job as usize, |r| lifted.push(r.id.raw()));
        lifted
    }

    #[test]
    fn the_index_costs_four_bytes_per_parked_rpc() {
        assert_eq!(
            std::mem::size_of::<Parked>(),
            std::mem::size_of::<Rpc>() + 4
        );
    }

    /// On a fresh queue, and on one 2³² RPCs have already passed through:
    /// its positions no longer fit a `u32`, its links — distances — do.
    #[test]
    fn take_job_lifts_only_that_job_and_fifo_survives() {
        lifts_only_that_job(FallbackQueue::new());
        lifts_only_that_job(FallbackQueue::starting_at(u64::from(u32::MAX) + 1));
    }

    fn lifts_only_that_job(mut q: FallbackQueue) {
        for i in 0..9 {
            park(&mut q, rpc(i, i as u32 % 3));
        }
        assert!(q.ring.iter().all(|p| p.prev <= 3), "links are distances");
        assert_eq!(q.pop_front(), Some(rpc(0, 0)));
        // Latest first; RPC 0 was already served, so its link is not
        // followed.
        assert_eq!(take(&mut q, 0), vec![6, 3]);
        assert_eq!(take(&mut q, 0), vec![], "nothing left to lift");
        assert_eq!(take(&mut q, 77), vec![], "never parked");
        let order: Vec<u64> = q.iter().map(|r| r.id.raw()).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 7, 8]);
        assert_eq!(q.len(), 6);
        // A later arrival of the lifted job starts a fresh chain.
        park(&mut q, rpc(9, 0));
        assert_eq!(take(&mut q, 0), vec![9]);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn tombstones_are_repacked_instead_of_growing_the_ring() {
        let mut q = FallbackQueue::new();
        for i in 0..40 {
            park(&mut q, rpc(i, u32::from(i >= 3)));
        }
        let capacity = q.ring.capacity();
        take(&mut q, 1);
        assert_eq!((q.len(), q.ring.len()), (3, 40), "tombstones stay put");
        // Filling the ring up does not grow it: the push that finds it
        // full re-packs it, and the next such push grows it (no tombstone
        // is left to drop).
        let room = capacity - 40;
        for i in 0..=room as u64 {
            park(&mut q, rpc(100 + i, 2));
        }
        assert_eq!((q.len(), q.ring.len()), (3 + room + 1, 3 + room + 1));
        assert_eq!(q.ring.capacity(), capacity);
        // The survivors' chains were rebuilt: job 0 is still liftable.
        assert_eq!(take(&mut q, 0), vec![2, 1, 0]);
        for i in 0..=room as u64 {
            assert_eq!(q.pop_front().map(|r| r.id.raw()), Some(100 + i));
        }
        assert_eq!((q.pop_front(), q.len(), q.ring.len()), (None, 0, 0));
    }

    #[test]
    fn trim_hands_back_what_a_lifted_burst_held() {
        let mut q = FallbackQueue::new();
        for i in 0..1000 {
            park(&mut q, rpc(i, u32::from(i % 100 != 0)));
        }
        take(&mut q, 1);
        q.trim(slot_of);
        assert_eq!((q.len(), q.ring.len()), (10, 10));
        assert!(q.ring.capacity() < 100, "{} slots kept", q.ring.capacity());
        let order: Vec<u64> = q.iter().map(|r| r.id.raw()).collect();
        assert_eq!(order, (0..10).map(|i| i * 100).collect::<Vec<_>>());
        take(&mut q, 0);
        q.trim(slot_of);
        assert_eq!((q.len(), q.ring.capacity()), (0, 0));
        // Two thirds empty is not worth a re-pack.
        for i in 0..64 {
            park(&mut q, rpc(i, u32::from(i < 24)));
        }
        let capacity = q.ring.capacity();
        take(&mut q, 0);
        q.trim(slot_of);
        assert_eq!((q.len(), q.ring.len()), (24, 64));
        assert_eq!(q.ring.capacity(), capacity);
    }

    /// Both queues under test, stepped together and compared after
    /// every step.
    struct Pair {
        q: FallbackQueue,
        model: VecDeque<Rpc>,
        next_id: u64,
    }

    const JOBS: u32 = 6;

    impl Pair {
        /// One operation from three random words; panics on any difference.
        fn step(&mut self, op: u32, job: u32, n: usize) {
            let (q, model) = (&mut self.q, &mut self.model);
            match op {
                // Arrivals: a run of one job, or a stride across jobs.
                0..=4 => {
                    for k in 0..n as u32 {
                        let r = rpc(self.next_id, (job + k * (op & 1)) % JOBS);
                        self.next_id += 1;
                        park(q, r);
                        model.push_back(r);
                    }
                }
                5 | 6 => {
                    for _ in 0..n {
                        assert_eq!(q.pop_front(), model.pop_front());
                    }
                }
                // Take one or two jobs (the second possibly the first again).
                7..=10 => {
                    let jobs = [JobId(job % JOBS), JobId((job + n as u32) % JOBS)];
                    for j in &jobs[..1 + (op as usize & 1)] {
                        let mut lifted = Vec::new();
                        q.take_job(slot_of(*j), |r| lifted.push(r));
                        lifted.reverse();
                        let want: Vec<Rpc> =
                            model.iter().filter(|r| r.job == *j).copied().collect();
                        model.retain(|r| r.job != *j);
                        assert_eq!(lifted, want);
                    }
                    if n & 1 == 1 {
                        q.trim(slot_of);
                    }
                }
                _ => {
                    let drained: Vec<Rpc> = q.drain().collect();
                    assert_eq!(drained, model.drain(..).collect::<Vec<_>>());
                }
            }
            assert_eq!(q.len(), model.len());
            assert!(q.iter().eq(model.iter().copied()), "iter() order differs");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed queue against a plain `VecDeque<Rpc>` over random
        /// push / pop / take-jobs / drain histories: same pops, same
        /// lifted RPCs per job (latest first), same
        /// `iter()` order and `len` after every step. Every history
        /// crosses at least one re-pack of tombstones with survivors, and
        /// half of them start with 2³² RPCs already through the queue:
        /// the `u32` links are distances inside the ring, so how far the
        /// positions have run is nothing to them.
        #[test]
        fn equals_a_plain_vecdeque(
            before in proptest::collection::vec((0u32..12, 0u32..JOBS, 1usize..12), 0..80),
            after in proptest::collection::vec((0u32..12, 0u32..JOBS, 1usize..12), 1..80),
            long_lived in any::<bool>(),
        ) {
            let base = if long_lived { u64::from(u32::MAX) + 1 } else { 1 };
            let q = FallbackQueue::starting_at(base);
            let mut pair = Pair { q, model: VecDeque::new(), next_id: 0 };
            for (op, job, n) in before {
                pair.step(op, job, n);
            }
            // Behind whatever is parked now and one survivor, park a run
            // of one job that at least doubles the ring and fills it; lift
            // the run; fill the ring again: the push that finds it full
            // drops the tombstones instead of growing it.
            pair.step(0, 0, 1);
            let (len, capacity) = (pair.q.ring.len(), pair.q.ring.capacity());
            pair.step(0, 1, len.max(capacity - len));
            pair.step(8, 1, 2); // even: no trim, the tombstones stay
            let capacity = pair.q.ring.capacity();
            pair.step(0, 2, capacity - pair.q.ring.len() + 1);
            prop_assert!(pair.q.len() > 1 && pair.q.ring.len() == pair.q.len(), "re-packed");
            prop_assert_eq!(pair.q.ring.capacity(), capacity);
            for (op, job, n) in after {
                pair.step(op, job, n);
            }
        }
    }
}
