//! Worker-pool plumbing for the sharded event loop: the sense-reversing
//! barrier the persistent epoch workers synchronize on, the indexed
//! min-heap the sequential driver schedules shards with, and the shared
//! thread-budget accounting that keeps `RunGrid` parallelism and shard
//! workers from multiplying.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many spin iterations a waiter burns before yielding the core.
/// Epoch windows are microseconds of real work, so waits are short on
/// multi-core hosts; on oversubscribed (or single-core) hosts the yield
/// keeps two workers from live-spinning against each other.
const SPINS_BEFORE_YIELD: u32 = 128;

/// A sense-reversing barrier for a fixed crew of long-lived workers.
///
/// `std::sync::Barrier` takes a mutex and parks waiters on a condvar —
/// two syscall-prone handoffs per epoch, paid twice per epoch by every
/// worker. The epoch loop instead flips a shared *sense* bit: arrivals
/// count up on an atomic, the last arrival resets the count and flips the
/// sense, and everyone else spins (then yields) until they observe the
/// flip. No allocation, no parking, and reuse across epochs is free —
/// each worker tracks its own local sense, so generations cannot be
/// confused.
pub(crate) struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    /// Barrier for exactly `n` workers.
    pub(crate) fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    /// Block until all `n` workers have arrived. `local_sense` is the
    /// caller's private phase bit: initialize it to `false` and pass the
    /// same variable to every wait on this barrier.
    pub(crate) fn wait(&self, local_sense: &mut bool) {
        let phase = !*local_sense;
        *local_sense = phase;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset before the flip: by the time any waiter observes the
            // new sense (Acquire below), the count is already zero for
            // the next generation.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(phase, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != phase {
                spins = spins.wrapping_add(1);
                if spins < SPINS_BEFORE_YIELD {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// An indexed min-heap over per-shard next-event times.
///
/// The sequential epoch driver keeps one entry per coupled shard, keyed
/// `(next_event_ns, shard)` — ties break on the shard index so scheduling
/// order is deterministic. `update` re-sifts a single entry in `O(log n)`
/// after a shard runs, so each epoch touches only the shards that have
/// work instead of re-peeking every idle shard's queue (a peek walks the
/// calendar cursor; idle shards would pay it every epoch).
pub(crate) struct ShardHeap {
    /// `(next_event_ns, shard)` entries in heap order.
    heap: Vec<(u64, u32)>,
    /// shard → index into `heap`.
    pos: Vec<u32>,
}

impl ShardHeap {
    /// Heap over `n` shards, all starting at `u64::MAX` (no known event).
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "heap needs at least one shard");
        ShardHeap {
            heap: (0..n).map(|i| (u64::MAX, i as u32)).collect(),
            pos: (0..n as u32).collect(),
        }
    }

    /// The earliest `(next_event_ns, shard)` entry.
    pub(crate) fn min(&self) -> (u64, usize) {
        let (t, s) = self.heap[0];
        (t, s as usize)
    }

    /// The second-earliest next-event time (`u64::MAX` with one shard).
    /// By the heap property it is a child of the root.
    pub(crate) fn second_min(&self) -> u64 {
        match (self.heap.get(1), self.heap.get(2)) {
            (Some(&a), Some(&b)) => a.min(b).0,
            (Some(&a), None) => a.0,
            _ => u64::MAX,
        }
    }

    /// Set `shard`'s next-event time and restore heap order.
    pub(crate) fn update(&mut self, shard: usize, t: u64) {
        let i = self.pos[shard] as usize;
        self.heap[i].0 = t;
        let i = self.sift_up(i);
        self.sift_down(i);
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.swap(parent, i);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.heap.len() && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[i] <= self.heap[child] {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }
}

/// The thread budget available to *this* execution context: the caller's
/// share of the global budget when running inside a `RunGrid` worker
/// (`ADAPTBF_THREADS` means **total** threads — a parallel grid of
/// sharded runs must not multiply into `grid × shards` threads),
/// otherwise `ADAPTBF_THREADS` itself, otherwise the machine.
pub(crate) fn worker_count() -> usize {
    crate::run_grid::nested_budget().unwrap_or_else(global_thread_budget)
}

/// The process-wide thread budget: `ADAPTBF_THREADS` if set (≥ 1), else
/// the available parallelism.
pub(crate) fn global_thread_budget() -> usize {
    env_count("ADAPTBF_THREADS")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A positive count from environment variable `var` (`None` when unset,
/// unparsable or zero) — how the execution parameters `ADAPTBF_THREADS`
/// and `ADAPTBF_SHARDS` are read.
pub(crate) fn env_count(var: &str) -> Option<usize> {
    let parsed = std::env::var(var).ok()?.parse::<usize>().ok()?;
    (parsed >= 1).then_some(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spin_barrier_synchronizes_phases() {
        // Each worker bumps a phase counter, waits, and checks that every
        // other worker's bump for the phase is visible — for many epochs.
        const WORKERS: usize = 4;
        const EPOCHS: u64 = 200;
        let barrier = SpinBarrier::new(WORKERS);
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    let mut sense = false;
                    for epoch in 1..=EPOCHS {
                        total.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(&mut sense);
                        assert_eq!(
                            total.load(Ordering::Relaxed),
                            epoch * WORKERS as u64,
                            "a worker crossed the barrier early"
                        );
                        barrier.wait(&mut sense);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), EPOCHS * WORKERS as u64);
    }

    #[test]
    fn spin_barrier_with_one_worker_is_free() {
        let barrier = SpinBarrier::new(1);
        let mut sense = false;
        for _ in 0..10 {
            barrier.wait(&mut sense);
        }
    }

    #[test]
    fn shard_heap_orders_and_updates() {
        let mut h = ShardHeap::new(4);
        assert_eq!(h.min(), (u64::MAX, 0), "ties break on shard index");
        h.update(2, 50);
        h.update(0, 70);
        h.update(3, 60);
        assert_eq!(h.min(), (50, 2));
        assert_eq!(h.second_min(), 60);
        h.update(2, 90);
        assert_eq!(h.min(), (60, 3));
        assert_eq!(h.second_min(), 70);
        h.update(1, 10);
        assert_eq!(h.min(), (10, 1));
        h.update(1, u64::MAX);
        assert_eq!(h.min(), (60, 3));
    }

    #[test]
    fn shard_heap_single_shard_second_min_is_open() {
        let mut h = ShardHeap::new(1);
        h.update(0, 42);
        assert_eq!(h.min(), (42, 0));
        assert_eq!(h.second_min(), u64::MAX);
    }

    #[test]
    fn shard_heap_equal_times_are_deterministic() {
        let mut h = ShardHeap::new(3);
        for s in 0..3 {
            h.update(s, 7);
        }
        assert_eq!(h.min(), (7, 0), "lowest shard id wins the tie");
        assert_eq!(h.second_min(), 7);
    }
}
