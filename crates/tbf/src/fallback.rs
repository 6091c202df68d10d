//! The fallback queue: the RPCs of jobs no rule names, served in arrival
//! order and handed over a job at a time.
//!
//! A job's parked RPCs sit in its own *lane* — one `VecDeque<Rpc>` per
//! scheduler slot — and the arrival order across jobs is a ring of *runs*
//! `(slot, gen, count)`: "the next `count` RPCs come off `slot`'s lane".
//! [`FallbackQueue::push_back`] appends to the lane and extends the back
//! run or opens one; [`FallbackQueue::pop_front`] serves the front run's
//! lane head. A rule change moves no RPC: [`FallbackQueue::take_job`] (a
//! start) hands the lane's deque over whole and bumps the lane's `gen`,
//! which makes the job's runs stale wherever they sit in the ring;
//! [`FallbackQueue::park_job`] (a stop) installs the stopped queue's deque
//! as the lane and appends one run. Both are O(1) whatever is parked.
//!
//! Stale runs are dropped when they reach the front, and swept out of the
//! whole ring by the take that leaves more than two runs per parked RPC —
//! a live run counts at least one RPC, so by then most runs are stale and
//! the sweep costs at most twice what it removes. That also bounds how
//! many stale runs a lane can leave behind between sweeps, far below the
//! 2³² takes it would need for a `gen` to come round again. A lane that
//! empties gives back the buffer a burst grew past [`LANE_KEEP`] RPCs; a
//! smaller one stays, so a job that trickles in unruled allocates once.

use adaptbf_model::Rpc;
use std::collections::VecDeque;

/// The largest buffer, in RPCs, an emptied lane keeps.
const LANE_KEEP: usize = 8;

#[derive(Debug, Default)]
struct Lane {
    fifo: VecDeque<Rpc>,
    /// Bumped when the lane is taken; a run of an older `gen` is stale.
    gen: u32,
}

/// The next `count` (≥ 1) parked RPCs, in arrival order, are the head of
/// lane `slot` — if the lane is still at `gen`.
#[derive(Debug, Clone, Copy)]
struct Run {
    slot: u32,
    gen: u32,
    count: usize,
}

/// See the module docs. Of every lane, the counts of its runs at its
/// current `gen` sum to its length.
#[derive(Debug, Default)]
pub(crate) struct FallbackQueue {
    lanes: Vec<Lane>,
    runs: VecDeque<Run>,
    /// RPCs parked, over all lanes.
    len: usize,
    /// Work counter behind the per-cycle cost tests: RPCs copied one by
    /// one between deques (only parking onto a lane that holds RPCs does).
    #[cfg(test)]
    pub(crate) rpcs_moved: u64,
}

impl FallbackQueue {
    /// RPCs parked.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Park `rpc`, whose job sits at `slot`, behind everything already
    /// here.
    pub(crate) fn push_back(&mut self, slot: usize, rpc: Rpc) {
        self.lane(slot).fifo.push_back(rpc);
        self.append_run(slot, 1);
    }

    /// Park `fifo`, the whole backlog of the job at `slot`, behind
    /// everything already here; the deque becomes the job's lane.
    pub(crate) fn park_job(&mut self, slot: usize, fifo: VecDeque<Rpc>) {
        let n = fifo.len();
        if n == 0 {
            return;
        }
        let lane = self.lane(slot);
        if lane.fifo.is_empty() {
            lane.fifo = fifo;
        } else {
            lane.fifo.extend(fifo);
            #[cfg(test)]
            {
                self.rpcs_moved += n as u64;
            }
        }
        self.append_run(slot, n);
    }

    fn lane(&mut self, slot: usize) -> &mut Lane {
        if slot >= self.lanes.len() {
            self.lanes.resize_with(slot + 1, Lane::default);
        }
        &mut self.lanes[slot]
    }

    /// The last `n` RPCs of lane `slot` arrived just now.
    fn append_run(&mut self, slot: usize, n: usize) {
        self.len += n;
        let gen = self.lanes[slot].gen;
        let slot = u32::try_from(slot).expect("slots are dense over u32 job ids");
        match self.runs.back_mut() {
            Some(run) if (run.slot, run.gen) == (slot, gen) => run.count += n,
            _ => self.runs.push_back(Run {
                slot,
                gen,
                count: n,
            }),
        }
    }

    /// Serve the longest-parked RPC; with its job's slot.
    pub(crate) fn pop_front(&mut self) -> Option<(usize, Rpc)> {
        loop {
            let run = self.runs.front_mut()?;
            let slot = run.slot as usize;
            let lane = &mut self.lanes[slot];
            if lane.gen != run.gen {
                self.runs.pop_front();
                continue;
            }
            let rpc = lane.fifo.pop_front();
            run.count -= 1;
            if run.count == 0 {
                self.runs.pop_front();
            }
            if lane.fifo.is_empty() && lane.fifo.capacity() > LANE_KEEP {
                lane.fifo = VecDeque::new();
            }
            self.len -= 1;
            return Some((slot, rpc.expect("a live run counts RPCs in its lane")));
        }
    }

    /// Everything parked for the job at `slot`, in arrival order, as the
    /// deque it was parked in — O(1).
    pub(crate) fn take_job(&mut self, slot: usize) -> VecDeque<Rpc> {
        let Some(lane) = self.lanes.get_mut(slot).filter(|l| !l.fifo.is_empty()) else {
            return VecDeque::new();
        };
        lane.gen = lane.gen.wrapping_add(1);
        let fifo = std::mem::take(&mut lane.fifo);
        self.len -= fifo.len();
        if self.runs.len() > 2 * self.len {
            let lanes = &self.lanes;
            self.runs
                .retain(|run| lanes[run.slot as usize].gen == run.gen);
        }
        fifo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{ClientId, JobId, ProcId, RpcId, SimTime};
    use proptest::prelude::*;

    impl FallbackQueue {
        /// Empty the queue, yielding the parked RPCs in arrival order (the
        /// scheduler's crash path, `drain_pending`, is this loop).
        fn drain(&mut self) -> impl Iterator<Item = Rpc> + '_ {
            std::iter::from_fn(|| Some(self.pop_front()?.1))
        }

        /// The parked RPCs in arrival order.
        pub(crate) fn iter(&self) -> impl Iterator<Item = Rpc> + '_ {
            let mut seen = vec![0; self.lanes.len()];
            let live = move |run: &&Run| self.lanes[run.slot as usize].gen == run.gen;
            self.runs.iter().filter(live).flat_map(move |run| {
                let from = seen[run.slot as usize];
                seen[run.slot as usize] += run.count;
                let lane = &self.lanes[run.slot as usize].fifo;
                lane.range(from..seen[run.slot as usize]).copied()
            })
        }
    }

    fn rpc(id: u64, job: u32) -> Rpc {
        Rpc::new(RpcId(id), JobId(job), ClientId(0), ProcId(0), SimTime::ZERO)
    }

    /// The tests' interner: a job's slot is its raw id.
    fn park(q: &mut FallbackQueue, rpc: Rpc) {
        q.push_back(rpc.job.raw() as usize, rpc);
    }

    fn ids(rpcs: impl IntoIterator<Item = Rpc>) -> Vec<u64> {
        rpcs.into_iter().map(|r| r.id.raw()).collect()
    }

    #[test]
    fn a_run_costs_sixteen_bytes_however_long() {
        assert_eq!(std::mem::size_of::<Run>(), 16);
        let mut q = FallbackQueue::default();
        for i in 0..100 {
            park(&mut q, rpc(i, u32::from(i >= 50)));
        }
        assert_eq!((q.len(), q.runs.len()), (100, 2));
    }

    #[test]
    fn take_job_hands_over_only_that_job_and_fifo_survives() {
        let mut q = FallbackQueue::default();
        for i in 0..9 {
            park(&mut q, rpc(i, i as u32 % 3));
        }
        assert_eq!(q.pop_front(), Some((0, rpc(0, 0))));
        // Arrival order; RPC 0 was already served.
        assert_eq!(ids(q.take_job(0)), vec![3, 6]);
        assert_eq!(ids(q.take_job(0)), vec![], "nothing left to take");
        assert_eq!(ids(q.take_job(77)), vec![], "never parked");
        assert_eq!(ids(q.iter()), vec![1, 2, 4, 5, 7, 8]);
        assert_eq!(q.len(), 6);
        // A later arrival of the taken job is behind everything.
        park(&mut q, rpc(9, 0));
        assert_eq!(ids(q.iter()), vec![1, 2, 4, 5, 7, 8, 9]);
        assert_eq!(ids(q.take_job(0)), vec![9]);
        assert_eq!(ids(q.drain()), vec![1, 2, 4, 5, 7, 8]);
        assert_eq!((q.pop_front(), q.len()), (None, 0));
    }

    #[test]
    fn park_job_installs_the_deque_behind_everything_parked() {
        let mut q = FallbackQueue::default();
        park(&mut q, rpc(0, 1));
        park(&mut q, rpc(1, 0));
        let mut backlog = q.take_job(1);
        backlog.push_back(rpc(2, 1));
        let buffer = backlog.as_slices().0.as_ptr();
        q.park_job(1, backlog);
        assert_eq!(q.lanes[1].fifo.as_slices().0.as_ptr(), buffer, "no copy");
        park(&mut q, rpc(3, 1));
        assert_eq!((q.runs.len(), q.rpcs_moved), (3, 0), "one stale, two live");
        assert_eq!(ids(q.iter()), vec![1, 0, 2, 3]);
        // Parking onto a lane that holds RPCs is the one path that copies.
        q.park_job(0, VecDeque::from([rpc(4, 0), rpc(5, 0)]));
        assert_eq!(q.rpcs_moved, 2);
        assert_eq!(ids(q.drain()), vec![1, 0, 2, 3, 4, 5]);
    }

    #[test]
    fn stale_runs_are_swept_and_an_emptied_lane_gives_its_buffer_back() {
        let mut q = FallbackQueue::default();
        // 200 one-RPC runs of job 1 between 200 of job 0.
        for i in 0..400 {
            park(&mut q, rpc(i, i as u32 % 2));
        }
        assert_eq!(q.runs.len(), 400);
        let burst = q.take_job(1);
        assert_eq!((burst.len(), q.len()), (200, 200));
        assert_eq!(q.runs.len(), 400, "two runs per parked RPC: not yet");
        park(&mut q, rpc(400, 2));
        assert_eq!(ids(q.take_job(2)), vec![400]);
        assert_eq!(q.runs.len(), 200, "swept: only live runs are left");
        // Served down to nothing, job 0's lane gives the burst's buffer
        // back; an idle queue's grown deque never becomes a lane.
        assert!(q.lanes[0].fifo.capacity() >= 200);
        assert_eq!(ids(q.drain()), (0..200).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(q.lanes[0].fifo.capacity(), 0);
        // A trickle's buffer stays: the next arrival allocates nothing.
        park(&mut q, rpc(401, 0));
        assert_eq!(ids(q.drain()), vec![401]);
        assert!((1..=LANE_KEEP).contains(&q.lanes[0].fifo.capacity()));
        let mut idle = burst;
        idle.clear();
        q.park_job(1, idle);
        assert_eq!(q.lanes[1].fifo.capacity(), 0);
        assert_eq!((q.len(), q.runs.len()), (0, 0));
    }

    /// The queue under test beside the obvious one — a `VecDeque` of
    /// `(slot, RPC)` in arrival order — plus the backlogs taken and not
    /// yet parked again (what ruled queues would hold).
    #[derive(Default)]
    struct Pair {
        q: FallbackQueue,
        model: VecDeque<(usize, Rpc)>,
        held: Vec<VecDeque<Rpc>>,
        next_id: u64,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        Push(usize),
        Pop,
        Take(usize),
        Park(usize),
        Drain,
    }

    impl Pair {
        fn of(jobs: usize) -> Self {
            Pair {
                held: vec![VecDeque::new(); jobs],
                ..Self::default()
            }
        }

        fn fork(&self) -> Self {
            let q = FallbackQueue {
                lanes: (self.q.lanes.iter())
                    .map(|l| Lane {
                        fifo: l.fifo.clone(),
                        gen: l.gen,
                    })
                    .collect(),
                runs: self.q.runs.clone(),
                len: self.q.len,
                rpcs_moved: 0,
            };
            Pair {
                q,
                model: self.model.clone(),
                held: self.held.clone(),
                next_id: self.next_id,
            }
        }

        /// Apply `op` to both; panics on any difference.
        fn step(&mut self, op: Op) {
            let (q, model) = (&mut self.q, &mut self.model);
            match op {
                Op::Push(job) => {
                    let r = rpc(self.next_id, job as u32);
                    self.next_id += 1;
                    q.push_back(job, r);
                    model.push_back((job, r));
                }
                Op::Pop => assert_eq!(q.pop_front(), model.pop_front()),
                Op::Take(job) => {
                    let taken = q.take_job(job);
                    let want = model.iter().filter(|e| e.0 == job).map(|e| e.1);
                    assert!(taken.iter().copied().eq(want), "{op:?} took {taken:?}");
                    model.retain(|e| e.0 != job);
                    // Every take that leaves stale runs bounds them.
                    assert!(taken.is_empty() || q.runs.len() <= 2 * q.len());
                    self.held[job].extend(taken);
                }
                Op::Park(job) => {
                    let backlog = std::mem::take(&mut self.held[job]);
                    model.extend(backlog.iter().map(|r| (job, *r)));
                    q.park_job(job, backlog);
                }
                Op::Drain => {
                    let drained: Vec<Rpc> = q.drain().collect();
                    assert!(drained.into_iter().eq(model.drain(..).map(|e| e.1)));
                }
            }
            assert_eq!(q.len(), model.len(), "after {op:?}");
            assert!(q.iter().eq(model.iter().map(|e| e.1)), "order after {op:?}");
            // The structure's own invariant: live runs count their lanes.
            let mut counted = vec![0; q.lanes.len()];
            for run in q
                .runs
                .iter()
                .filter(|r| q.lanes[r.slot as usize].gen == r.gen)
            {
                assert!(run.count > 0, "empty live run after {op:?}");
                counted[run.slot as usize] += run.count;
            }
            assert!(counted.into_iter().eq(q.lanes.iter().map(|l| l.fifo.len())));
        }
    }

    /// Every operation sequence of length ≤ 7 over 3 jobs, each step
    /// checked against the model (depth-first, so a sequence's steps are
    /// run once for all its extensions). A take of nothing and a park of
    /// nothing are checked but not extended: they leave the queue exactly
    /// as it was. The sweep of stale runs triggers from two runs up here,
    /// and gets crossed by pushes, pops, parks and drains on either side.
    #[test]
    fn every_short_history_equals_a_plain_vecdeque() {
        const JOBS: usize = 3;
        fn walk(pair: &Pair, depth: usize, visited: &mut u64) {
            *visited += 1;
            if depth == 0 {
                return;
            }
            let per_job = (0..JOBS).flat_map(|j| [Op::Push(j), Op::Take(j), Op::Park(j)]);
            for op in per_job.chain([Op::Pop, Op::Drain]) {
                let mut next = pair.fork();
                next.step(op);
                let nothing = match op {
                    Op::Take(j) => next.held[j].len() == pair.held[j].len(),
                    Op::Park(j) => pair.held[j].is_empty(),
                    Op::Push(_) | Op::Pop | Op::Drain => false,
                };
                if !nothing {
                    walk(&next, depth - 1, visited);
                }
            }
        }
        let mut visited = 0;
        walk(&Pair::of(JOBS), 7, &mut visited);
        assert!(visited > 300_000, "{visited} histories");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The same comparison over long random histories of six jobs:
        /// bursts of one job, strides across jobs, takes and parks of
        /// several jobs at a time, so hundreds of runs go stale and are
        /// swept with live ones among them.
        #[test]
        fn equals_a_plain_vecdeque(
            ops in proptest::collection::vec((0u32..12, 0usize..6, 1usize..12), 1..160),
        ) {
            const JOBS: usize = 6;
            let mut pair = Pair::of(JOBS);
            for (op, job, n) in ops {
                for k in 0..n {
                    pair.step(match op {
                        0..=2 => Op::Push(job),
                        3 | 4 => Op::Push((job + k) % JOBS),
                        5 | 6 => Op::Pop,
                        7 | 8 if k < 3 => Op::Take((job + k) % JOBS),
                        9 | 10 if k < 3 => Op::Park((job + k) % JOBS),
                        11 if k == 0 => Op::Drain,
                        _ => break,
                    });
                }
            }
        }
    }
}
