//! The fallback queue: one global FIFO of parked RPCs that also knows
//! where each job's RPCs sit.
//!
//! Unmatched RPCs wait here in arrival order and are served from the
//! front. When rules start, the RPCs they now match must leave — and under
//! overload the crowd parked here is thousands of times larger than the
//! few jobs a control cycle starts rules for. So every parked RPC carries
//! a link to the previous parked RPC of its job, and the queue remembers
//! each job's last one: [`FallbackQueue::take_job`] walks exactly that
//! job's RPCs, leaving tombstones. [`FallbackQueue::pop_front`] skips a
//! tombstone once; the ring is re-packed instead of grown whenever it is
//! full and a quarter of it is tombstones, so they never cost a
//! reallocation, and [`FallbackQueue::trim`] hands the ring's memory back
//! once a batch of takes has left it mostly unused.
//!
//! Positions are absolute and never reused: entry `i` of the ring sits at
//! `base + i`, and everything below `base` is gone. Serving from the front
//! only moves `base`, so it never touches a link or a tail — a link or
//! tail that points below `base` simply reads as "none". Re-packing the
//! ring ([`FallbackQueue::retain`]) moves `base` past every old position
//! for the same reason.
//!
//! The index costs one `u32` link per parked RPC and one `u64` tail per
//! job that has ever parked; a job that never parks costs nothing.

use adaptbf_model::{JobId, JobSlots, Rpc};
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
#[derive(Debug, Default)]
pub(crate) struct FallbackQueue {
    ring: VecDeque<Parked>,
    /// Position of `ring[0]`. Starts at 1 so that a tail of 0 is below it.
    base: u64,
    /// Entries of `ring` that are not tombstones.
    live: usize,
    /// Interns the jobs that park; indexes `tails`.
    slots: JobSlots,
    /// Position of each job's last parked RPC; stale when below `base`.
    tails: Vec<u64>,
}

impl FallbackQueue {
    pub(crate) fn new() -> Self {
        FallbackQueue {
            base: 1,
            ..Default::default()
        }
    }

    /// Parked RPCs.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Park `rpc` behind everything already here.
    pub(crate) fn push_back(&mut self, rpc: Rpc) {
        let len = self.ring.len();
        if len == self.ring.capacity() && (len - self.live) * 4 >= len.max(1) {
            self.retain(|_, _| true);
        }
        let parked = self.link(rpc, self.base + self.ring.len() as u64);
        self.ring.push_back(parked);
        self.live += 1;
    }

    /// `rpc` as the entry at `pos`, linked behind its job's current tail,
    /// which it replaces.
    #[inline]
    fn link(&mut self, rpc: Rpc, pos: u64) -> Parked {
        let slot = self.slots.intern(rpc.job);
        if slot >= self.tails.len() {
            self.tails.resize(slot + 1, 0);
        }
        let tail = std::mem::replace(&mut self.tails[slot], pos);
        let prev = if tail >= self.base {
            u32::try_from(pos - tail).expect("fewer than 2^32 RPCs parked")
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

    /// Lift every parked RPC of `job`, handing each to `lift` with its
    /// position — latest first; positions order arrivals across jobs. The
    /// cost is the job's own parked RPCs, not the queue's.
    pub(crate) fn take_job(&mut self, job: JobId, mut lift: impl FnMut(u64, Rpc)) {
        let Some(slot) = self.slots.get(job) else {
            return;
        };
        let mut pos = std::mem::take(&mut self.tails[slot]);
        while pos >= self.base {
            let parked = &mut self.ring[(pos - self.base) as usize];
            let Parked { rpc, prev } = *parked;
            parked.rpc = None;
            self.live -= 1;
            lift(pos, rpc.expect("a job's chain links live RPCs"));
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
    pub(crate) fn trim(&mut self) {
        if self.ring.capacity() > 3 * self.live {
            self.retain(|_, _| true);
            self.ring.shrink_to(self.live + self.live / 2);
        }
    }

    /// Walk every parked RPC in arrival order (with its position) and
    /// keep those `keep` accepts. O(ring): the survivors are re-packed at
    /// fresh positions, which makes every old link and tail stale, and
    /// re-linked as they land.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64, &Rpc) -> bool) {
        let old_base = self.base;
        self.base += self.ring.len() as u64;
        let mut kept = 0;
        for read in 0..self.ring.len() {
            let Some(rpc) = self.ring[read].rpc else {
                continue;
            };
            if keep(old_base + read as u64, &rpc) {
                self.ring[kept] = self.link(rpc, self.base + kept as u64);
                kept += 1;
            }
        }
        self.ring.truncate(kept);
        self.live = kept;
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

    #[test]
    fn the_index_costs_four_bytes_per_parked_rpc() {
        assert_eq!(
            std::mem::size_of::<Parked>(),
            std::mem::size_of::<Rpc>() + 4
        );
    }

    #[test]
    fn take_job_lifts_only_that_job_and_fifo_survives() {
        let mut q = FallbackQueue::new();
        for i in 0..9 {
            q.push_back(rpc(i, i as u32 % 3));
        }
        assert_eq!(q.pop_front(), Some(rpc(0, 0)));
        let mut lifted = Vec::new();
        q.take_job(JobId(0), |pos, r| lifted.push((pos, r.id.raw())));
        // Latest first, positions ascending with arrival; RPC 0 was
        // already served, so its link is not followed.
        assert_eq!(lifted, vec![(7, 6), (4, 3)]);
        q.take_job(JobId(0), |_, _| panic!("nothing left to lift"));
        q.take_job(JobId(77), |_, _| panic!("never parked"));
        let order: Vec<u64> = q.iter().map(|r| r.id.raw()).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 7, 8]);
        assert_eq!(q.len(), 6);
        // A later arrival of the lifted job starts a fresh chain.
        q.push_back(rpc(9, 0));
        q.take_job(JobId(0), |_, r| assert_eq!(r.id.raw(), 9));
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn tombstones_are_repacked_instead_of_growing_the_ring() {
        let mut q = FallbackQueue::new();
        for i in 0..40 {
            q.push_back(rpc(i, u32::from(i >= 3)));
        }
        let capacity = q.ring.capacity();
        q.take_job(JobId(1), |_, _| {});
        assert_eq!((q.len(), q.ring.len()), (3, 40), "tombstones stay put");
        // Filling the ring up does not grow it: the push that finds it
        // full re-packs it, and the next such push grows it (no tombstone
        // is left to drop).
        let room = capacity - 40;
        for i in 0..=room as u64 {
            q.push_back(rpc(100 + i, 2));
        }
        assert_eq!((q.len(), q.ring.len()), (3 + room + 1, 3 + room + 1));
        assert_eq!(q.ring.capacity(), capacity);
        // The survivors' chains were rebuilt: job 0 is still liftable.
        let mut lifted = Vec::new();
        q.take_job(JobId(0), |_, r| lifted.push(r.id.raw()));
        assert_eq!(lifted, vec![2, 1, 0]);
        for i in 0..=room as u64 {
            assert_eq!(q.pop_front().map(|r| r.id.raw()), Some(100 + i));
        }
        assert_eq!((q.pop_front(), q.len(), q.ring.len()), (None, 0, 0));
    }

    #[test]
    fn trim_hands_back_what_a_lifted_burst_held() {
        let mut q = FallbackQueue::new();
        for i in 0..1000 {
            q.push_back(rpc(i, u32::from(i % 100 != 0)));
        }
        q.take_job(JobId(1), |_, _| {});
        q.trim();
        assert_eq!((q.len(), q.ring.len()), (10, 10));
        assert!(q.ring.capacity() < 100, "{} slots kept", q.ring.capacity());
        let order: Vec<u64> = q.iter().map(|r| r.id.raw()).collect();
        assert_eq!(order, (0..10).map(|i| i * 100).collect::<Vec<_>>());
        q.take_job(JobId(0), |_, _| {});
        q.trim();
        assert_eq!((q.len(), q.ring.capacity()), (0, 0));
        // Two thirds empty is not worth a re-pack.
        for i in 0..64 {
            q.push_back(rpc(i, u32::from(i < 24)));
        }
        let capacity = q.ring.capacity();
        q.take_job(JobId(0), |_, _| {});
        q.trim();
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
                        q.push_back(r);
                        model.push_back(r);
                    }
                }
                5 | 6 => {
                    for _ in 0..n {
                        assert_eq!(q.pop_front(), model.pop_front());
                    }
                }
                // Take one or two jobs (the second possibly the first again).
                7..=9 => {
                    let jobs = [JobId(job % JOBS), JobId((job + n as u32) % JOBS)];
                    let jobs = &jobs[..1 + (op as usize & 1)];
                    let mut lifted = Vec::new();
                    for j in jobs {
                        q.take_job(*j, |pos, r| lifted.push((pos, r)));
                    }
                    if n & 1 == 1 {
                        q.trim();
                    }
                    lifted.sort_unstable_by_key(|&(pos, _)| pos);
                    let lifted: Vec<Rpc> = lifted.into_iter().map(|(_, r)| r).collect();
                    let want: Vec<Rpc> = model
                        .iter()
                        .filter(|r| jobs.contains(&r.job))
                        .copied()
                        .collect();
                    model.retain(|r| !jobs.contains(&r.job));
                    assert_eq!(lifted, want);
                }
                // Full-scan capture by a predicate that cuts across jobs.
                10 => {
                    let pick = |r: &Rpc| r.id.raw() % 3 == u64::from(job % 3);
                    let mut lifted = Vec::new();
                    q.retain(|pos, r| {
                        if pick(r) {
                            lifted.push((pos, *r));
                        }
                        !pick(r)
                    });
                    assert!(lifted.windows(2).all(|w| w[0].0 < w[1].0));
                    let lifted: Vec<Rpc> = lifted.into_iter().map(|(_, r)| r).collect();
                    let want: Vec<Rpc> = model.iter().filter(|r| pick(r)).copied().collect();
                    model.retain(|r| !pick(r));
                    assert_eq!(lifted, want);
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
        /// push / pop / take-jobs / full-scan-capture / drain histories:
        /// same pops, same lifted RPCs in the same arrival order, same
        /// `iter()` order and `len` after every step. Every history
        /// crosses at least one re-pack of tombstones with survivors.
        #[test]
        fn equals_a_plain_vecdeque(
            before in proptest::collection::vec((0u32..12, 0u32..JOBS, 1usize..12), 0..80),
            after in proptest::collection::vec((0u32..12, 0u32..JOBS, 1usize..12), 1..80),
        ) {
            let mut pair = Pair { q: FallbackQueue::new(), model: VecDeque::new(), next_id: 0 };
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
