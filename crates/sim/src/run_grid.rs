//! Deterministic parallel fan-out for independent simulation runs.
//!
//! Every `Cluster` run is a pure function of (scenario, policy, seed,
//! wiring) — no shared state, no wall clock. The experiment grids the
//! figures and sweeps run (scenario × policy × seed × period) are
//! therefore embarrassingly parallel, and [`RunGrid`] fans them out over
//! scoped worker threads while keeping results in **submission order**:
//! output `i` is always the result of input `i`, regardless of thread
//! count or completion order. Combined with per-run seed determinism this
//! makes the parallel grid byte-identical to a sequential run — a
//! property regression-tested in `tests/scalability_and_churn.rs`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// This thread's share of the global thread budget, set by the grid
    /// worker that spawned it (0 = not inside a grid worker). A grid built
    /// *inside* a grid worker — the shard fan-out of a cluster run launched
    /// from a parallel experiment grid — sizes itself from this instead of
    /// the global budget, so `ADAPTBF_THREADS` means **total** threads:
    /// grid parallelism and shard workers must not multiply.
    static NESTED_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// The thread budget the current thread may spend on nested parallelism,
/// if it runs inside a [`RunGrid`] worker (`None` on free-standing
/// threads — the caller owns the whole global budget).
fn nested_budget() -> Option<usize> {
    NESTED_BUDGET.with(|c| match c.get() {
        0 => None,
        n => Some(n),
    })
}

/// The process-wide thread budget: `ADAPTBF_THREADS` if set (≥ 1), else
/// the available parallelism.
fn global_thread_budget() -> usize {
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

/// Executor fanning independent runs over `std::thread::scope` workers.
#[derive(Debug, Clone, Copy)]
pub struct RunGrid {
    threads: usize,
}

impl Default for RunGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl RunGrid {
    /// Executor sized to its context: the surrounding grid worker's
    /// budget share when nested inside another [`RunGrid`], otherwise
    /// `ADAPTBF_THREADS` if set, otherwise the available parallelism.
    pub fn new() -> Self {
        let threads = nested_budget().unwrap_or_else(global_thread_budget);
        RunGrid { threads }
    }

    /// Executor with an explicit worker count (1 = run inline, no threads
    /// spawned — used by the determinism regression tests).
    pub fn with_threads(threads: usize) -> Self {
        RunGrid {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every item, returning results in submission order.
    ///
    /// Work is claimed through an atomic cursor, so threads stay busy
    /// regardless of per-item cost skew. A panic in any worker propagates
    /// once the scope joins.
    pub fn run<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        // Each worker inherits an equal share of this grid's budget for
        // any parallelism `f` spawns (sharded cluster runs, nested grids).
        let share = (self.threads / workers).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    NESTED_BUDGET.with(|c| c.set(share));
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let item = work[idx]
                            .lock()
                            .expect("work slot")
                            .take()
                            .expect("each index claimed once");
                        let out = f(item);
                        *slots[idx].lock().expect("result slot") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("scope joined every worker")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let grid = RunGrid::with_threads(8);
        // Uneven per-item cost: later items finish first without the
        // ordering guarantee.
        let out = grid.run((0..100u64).collect(), |i| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i * 2
        });
        assert_eq!(out, (0..100u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let grid = RunGrid::with_threads(1);
        assert_eq!(grid.threads(), 1);
        assert_eq!(grid.run(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u64> = (0..64).collect();
        let seq = RunGrid::with_threads(1).run(items.clone(), |x| x.wrapping_mul(x));
        let par = RunGrid::with_threads(6).run(items, |x| x.wrapping_mul(x));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = RunGrid::new().run(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn grid_workers_inherit_a_budget_share() {
        // Budget 8 over 2 items → 2 workers × 4 threads each: the total
        // stays at `ADAPTBF_THREADS`, not grid × shards.
        let shares = RunGrid::with_threads(8).run(vec![(), ()], |_| nested_budget());
        assert_eq!(shares, vec![Some(4), Some(4)]);
        // Budget 4 fully consumed by grid parallelism → nested runs get 1.
        let shares = RunGrid::with_threads(4).run(vec![(); 8], |_| nested_budget());
        assert!(shares.iter().all(|&s| s == Some(1)));
    }

    #[test]
    fn inline_path_leaves_the_budget_untouched() {
        // threads == 1 runs inline on the caller's thread: it must not
        // see (or clobber) a grid share it never got.
        let shares = RunGrid::with_threads(1).run(vec![(), ()], |_| nested_budget());
        assert_eq!(shares, vec![None, None]);
    }

    #[test]
    fn a_nested_grid_is_sized_from_its_share() {
        // The shard fan-out of a cluster run is a grid built inside a grid
        // worker: it gets the worker's share, not the global budget again.
        let counts = RunGrid::with_threads(6).run(vec![(); 6], |_| RunGrid::new().threads());
        assert!(
            counts.iter().all(|&c| c == 1),
            "6/6 budget → 1 each: {counts:?}"
        );
        let counts = RunGrid::with_threads(12).run(vec![(), ()], |_| RunGrid::new().threads());
        assert_eq!(counts, vec![6, 6]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_item_propagates_at_join_instead_of_hanging() {
        // Two real workers: one item panics, the other worker finishes the
        // rest, and the scope re-raises at join — no worker waits on a
        // peer, so there is nothing to hang on.
        RunGrid::with_threads(2).run((0..8u32).collect(), |i| {
            assert_ne!(i, 3, "item 3 fails");
            i
        });
    }
}
