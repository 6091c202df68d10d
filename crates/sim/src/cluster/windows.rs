//! The window protocol of the sharded event loop: the static *emits*
//! analysis that decides which shards couple at all, the emission-capped
//! window a coupled shard runs per epoch, and the two drivers of the
//! adaptive epoch protocol — sequential (heap-scheduled) and pooled
//! (persistent workers on a [`SpinBarrier`]).

use super::shard::{Msg, Shard, Shared};
use crate::client::ProcessState;
use crate::pool::{ShardHeap, SpinBarrier};
use adaptbf_workload::faults::stripe_ost;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

impl Shard {
    /// This shard's next-event time in nanos — what it publishes as its
    /// promise (`u64::MAX` with an empty queue).
    fn next_event_ns(&mut self) -> u64 {
        self.queue.peek_at().map_or(u64::MAX, |t| t.as_nanos())
    }

    /// Run a window bounded by the peers' promises **and** by this
    /// shard's own emissions: process events while
    /// `t < min(hard_bound, min_shipped + L)`, clipped to the horizon.
    ///
    /// The emission cap is what lets the minimum shard run past
    /// `t_min + L` safely. The peers' published next-event times promise
    /// nothing before `hard_bound = t_2nd + L` — but a message this shard
    /// ships at maturity `m < t_2nd` wakes its receiver early, and the
    /// receiver may answer as soon as `m + L`. Capping at
    /// `min_shipped + L` covers exactly that chain; since a maturity is
    /// at least one lookahead after the event that shipped it, the cap is
    /// always `≥ t_min + 2L` — never tighter than the fixed protocol's
    /// window. With `hard_bound == u64::MAX` this is the solo drain:
    /// free-running until one lookahead past the first actual emission.
    pub(super) fn run_capped(&mut self, sh: &Shared, hard_bound_ns: u64) {
        let end = sh.end;
        let l = sh.lookahead.as_nanos();
        self.min_shipped_ns = u64::MAX;
        loop {
            let cap = hard_bound_ns.min(self.min_shipped_ns.saturating_add(l));
            let Some((now, key, event)) = self
                .queue
                .pop_entry_if(|t, _| t.as_nanos() < cap && t <= end)
            else {
                break;
            };
            self.note_pop();
            self.handle(sh, event, now, key);
        }
    }
}

/// OST → owning shard for the contiguous partition
/// (`s·n/N .. (s+1)·n/N`). Shared by `Cluster::partition` and the
/// pre-partition [`compute_emits`] analysis so both see the same map.
pub(super) fn ost_shard_map(n_osts: usize, n_shards: usize) -> Vec<u32> {
    let mut ost_shard = vec![0u32; n_osts];
    for s in 0..n_shards {
        let lo = s * n_osts / n_shards;
        let hi = (s + 1) * n_osts / n_shards;
        for slot in &mut ost_shard[lo..hi] {
            *slot = s as u32;
        }
    }
    ost_shard
}

/// Which shards can ever *send* a cross-shard message — a static analysis
/// of the wiring, run before partitioning:
///
/// - A crash window can re-route or resend anything across any boundary;
///   with one in the plan, every shard conservatively emits.
/// - Otherwise the only cross-shard edges are a process's stripe set
///   crossing its own shard's OST range: arrivals go process→OST, replies
///   OST→process, so *both* endpoint shards are marked.
///
/// The dual property makes this load-bearing for the solo fast path: a
/// non-emitting shard never **receives** either. Every receiver is an
/// emitter — an arrival-receiving OST shard answers with a cross-shard
/// reply, a reply-receiving process shard owns the boundary stripe that
/// caused it, and fault paths imply the all-emit case. Replay wirings
/// have no processes (and no reply path), so without a crash nothing
/// emits — the old "replay or stripe_count == 1 ⇒ independent" special
/// case falls out of this analysis as the all-false row.
pub(super) fn compute_emits(
    n_shards: usize,
    n_osts: usize,
    procs: &[ProcessState],
    stripe_count: usize,
    crash_possible: bool,
) -> Vec<bool> {
    if n_shards <= 1 {
        return vec![false; n_shards];
    }
    if crash_possible {
        return vec![true; n_shards];
    }
    let ost_shard = ost_shard_map(n_osts, n_shards);
    let mut emits = vec![false; n_shards];
    for proc in procs {
        let ps = ost_shard[proc.ost] as usize;
        for k in 0..stripe_count {
            let os = ost_shard[stripe_ost(proc.ost, k, n_osts)] as usize;
            if os != ps {
                emits[ps] = true;
                emits[os] = true;
            }
        }
    }
    emits
}

/// Run a multi-shard partition to the horizon under the adaptive-window
/// protocol (see the module docs); returns the epochs taken. Splits the
/// shards by the emits analysis — the non-emitting ones drain
/// independently, with no synchronization at all — and runs epochs over
/// the emitting rest (possibly none):
///
/// ```text
/// loop:
///   1. every shard that ran or received last epoch re-publishes its
///      next-event time t_i (idle shards keep their published value)
///   2. barrier A (pool) / heap refresh (sequential)
///   3. t_min, t_2nd := two smallest published times; stop if none or
///      past the horizon
///   4. the t_min shard runs [·, t_2nd + L), additionally capped one
///      lookahead past its own earliest emission ([`Shard::run_capped`]);
///      everyone else runs [·, t_min + L). With no second shard holding
///      events the t_min shard's hard bound is open: it drains solo
///      until one lookahead past its first actual emission.
///   5. outboxes flush into destination inboxes (receivers marked dirty)
///   6. barrier B (pool only)
/// ```
///
/// **Safety.** A shard processing events below its bound can only be
/// wrong if a message it has not seen matures below that bound. Any
/// message sent this epoch by shard `j` matures at
/// `≥ t_j + L = eot_j ≥` the receiver's bound: for a non-minimum shard
/// the bound is `t_min + L ≤ eot_j` for every `j`; for the minimum shard
/// the bound is the minimum `eot` over the *other* shards. A published
/// time only promises that epoch's outputs, though — a message the
/// minimum shard ships at maturity `m < t_2nd` wakes its receiver ahead
/// of the receiver's published time, and the earliest answer that
/// wake-up can produce matures at `m + L`, possibly below `t_2nd + L`.
/// The emission cap closes exactly that chain: the minimum shard never
/// runs past `min_shipped + L`, so every answer to anything it sent is
/// still ahead of it. The solo case is the same bound with an empty peer
/// minimum (`∞`), leaving only the cap. Messages are delivered at the
/// *next* refresh, which is safe for the same reason: they mature at or
/// past the receiver's current bound.
///
/// Every worker decides from the same published snapshot, so run sets,
/// stop decisions, and all [`super::LoopStats`] counters are identical for any
/// worker count — and identical to the sequential driver's.
pub(super) fn run_sharded(shared: &Shared, shards: &mut [Shard], workers: usize) -> u64 {
    let n_shards = shards.len();
    let (mut coupled, mut free): (Vec<&mut Shard>, Vec<&mut Shard>) =
        shards.iter_mut().partition(|s| shared.emits[s.id]);
    let mut local_of = vec![usize::MAX; n_shards];
    for (i, shard) in coupled.iter().enumerate() {
        local_of[shard.id] = i;
    }
    if workers > 1 {
        return run_pool(shared, &mut free, &mut coupled, &local_of, workers);
    }
    for shard in free.iter_mut() {
        shard.drain(shared);
    }
    if coupled.is_empty() {
        return 0;
    }
    run_epochs_seq(shared, &mut coupled, &local_of)
}

/// Run one emitting shard's epoch share: its window (or solo drain when
/// the bound is open), then flush its outboxes and mark the receivers
/// dirty. Sequential-driver half of the protocol step 4–5.
fn run_one(
    shared: &Shared,
    shard: &mut Shard,
    bound_ns: u64,
    inboxes: &mut [Vec<Msg>],
    dirty: &mut [bool],
    local_of: &[usize],
) {
    if bound_ns == u64::MAX {
        shard.loop_stats.solo_drains += 1;
    }
    shard.run_capped(shared, bound_ns);
    for dest in 0..shard.outbox.len() {
        if !shard.outbox[dest].is_empty() {
            shard.loop_stats.inbox_flushes += 1;
            inboxes[dest].append(&mut shard.outbox[dest]);
            debug_assert_ne!(local_of[dest], usize::MAX, "receivers are emitters");
            dirty[local_of[dest]] = true;
        }
    }
}

/// Sequential adaptive driver: a [`ShardHeap`] over published next-event
/// times schedules only the shards with work below their bound — idle
/// shards are never touched, not even for a queue peek.
fn run_epochs_seq(shared: &Shared, coupled: &mut [&mut Shard], local_of: &[usize]) -> u64 {
    let m = coupled.len();
    let end_ns = shared.end.as_nanos();
    let l = shared.lookahead.as_nanos();
    // Inboxes are indexed by *global* shard id (flushes address them
    // directly); only emitting slots are ever used.
    let mut inboxes: Vec<Vec<Msg>> = (0..local_of.len()).map(|_| Vec::new()).collect();
    let mut heap = ShardHeap::new(m);
    let mut dirty = vec![true; m];
    let mut stamp = vec![0u64; m];
    let mut epochs = 0u64;
    loop {
        for (i, shard) in coupled.iter_mut().enumerate() {
            if std::mem::take(&mut dirty[i]) {
                let id = shard.id;
                shard.deliver_inbox(&mut inboxes[id]);
                heap.update(i, shard.next_event_ns());
            }
        }
        let (t_min, owner) = heap.min();
        if t_min == u64::MAX || t_min > end_ns {
            break;
        }
        epochs += 1;
        let eo1 = t_min.saturating_add(l);
        let eo2 = heap.second_min().saturating_add(l);
        // The t_min shard always runs; its own promise is `eo1`, so its
        // bound is the second-best promise `eo2` (MAX ⇒ solo). Then
        // everyone else below the shared bound `eo1`, in heap order. The
        // stamp stops a solo-drained owner from re-running this epoch —
        // its emission must first reach the receiver at the next refresh.
        let (mut i, mut bound) = (owner, eo2);
        loop {
            run_one(
                shared,
                coupled[i],
                bound,
                &mut inboxes,
                &mut dirty,
                local_of,
            );
            stamp[i] = epochs;
            heap.update(i, coupled[i].next_event_ns());
            let t;
            (t, i) = heap.min();
            bound = eo1;
            if t >= eo1 || t > end_ns || stamp[i] == epochs {
                break;
            }
        }
    }
    epochs
}

/// Threaded adaptive driver: one **persistent pool** — spawned once per
/// run — first drains this worker's share of the independent shards, then
/// runs the epoch protocol over its share of the emitting shards,
/// synchronized by a [`SpinBarrier`] (two waits per epoch, no parking, no
/// re-spawn).
fn run_pool(
    shared: &Shared,
    free: &mut [&mut Shard],
    coupled: &mut [&mut Shard],
    local_of: &[usize],
    workers: usize,
) -> u64 {
    let m = coupled.len();
    // One worker per chunk of emitting shards — or, when nothing couples,
    // per chunk of independent ones (they then leave at the first barrier).
    let lanes = if m > 0 { m } else { free.len() };
    let chunk = lanes.div_ceil(workers.min(lanes));
    let spawned = lanes.div_ceil(chunk);
    let free_chunk = free.len().div_ceil(spawned).max(1);
    // All shared state is indexed by the shard's *local* (coupled) index.
    let published: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(u64::MAX)).collect();
    let dirty: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    let inboxes: Vec<Mutex<Vec<Msg>>> = (0..m).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = SpinBarrier::new(spawned);
    let epochs = AtomicU64::new(0);
    let (published, dirty, inboxes, barrier, epochs) =
        (&published, &dirty, &inboxes, &barrier, &epochs);
    std::thread::scope(|scope| {
        let mut free_rest = free;
        let mut rest = coupled;
        let mut base = 0usize;
        for _ in 0..spawned {
            // (Lengths first: `take` empties the binding it splits.)
            let free_take = free_chunk.min(free_rest.len());
            let (fg, fr) = std::mem::take(&mut free_rest).split_at_mut(free_take);
            free_rest = fr;
            let take = chunk.min(rest.len());
            let (group, cr) = std::mem::take(&mut rest).split_at_mut(take);
            rest = cr;
            let my_base = base;
            base += take;
            scope.spawn(move || {
                pool_worker(
                    shared, fg, group, my_base, published, dirty, inboxes, local_of, barrier,
                    epochs,
                );
            });
        }
    });
    epochs.load(Ordering::Relaxed)
}

/// One pool worker's whole run (see [`run_pool`] and the protocol sketch
/// on [`run_sharded`]).
#[allow(clippy::too_many_arguments)]
fn pool_worker(
    shared: &Shared,
    free: &mut [&mut Shard],
    mine: &mut [&mut Shard],
    base: usize,
    published: &[AtomicU64],
    dirty: &[AtomicBool],
    inboxes: &[Mutex<Vec<Msg>>],
    local_of: &[usize],
    barrier: &SpinBarrier,
    epochs: &AtomicU64,
) {
    let end_ns = shared.end.as_nanos();
    let l = shared.lookahead.as_nanos();
    let mut sense = false;
    // Phase 0: this worker's share of the independent shards — the pool
    // serves both phases; no barrier needed, the shards share nothing.
    for shard in free.iter_mut() {
        shard.drain(shared);
    }
    let mut ran: Vec<bool> = vec![true; mine.len()]; // force the initial publish
    let mut scratch: Vec<Msg> = Vec::new();
    let mut n_epochs = 0u64;
    loop {
        // Refresh: deliver pending inboxes and re-publish next-event
        // times — only for shards that ran or received since their last
        // publish; idle shards stay untouched.
        for (k, shard) in mine.iter_mut().enumerate() {
            let li = base + k;
            let received = dirty[li].swap(false, Ordering::AcqRel);
            if received {
                // Swap the batch out under the lock, deliver outside it.
                {
                    let mut inbox = inboxes[li].lock().expect("inbox lock");
                    std::mem::swap(&mut *inbox, &mut scratch);
                }
                shard.deliver_inbox(&mut scratch);
            }
            if received || ran[k] {
                published[li].store(shard.next_event_ns(), Ordering::Release);
                ran[k] = false;
            }
        }
        barrier.wait(&mut sense);
        // Every worker reads the same snapshot: same owner, same bounds,
        // same stop decision.
        let mut t_min = u64::MAX;
        let mut owner = usize::MAX;
        let mut second = u64::MAX;
        for (li, slot) in published.iter().enumerate() {
            let t = slot.load(Ordering::Acquire);
            if t < t_min {
                second = t_min;
                t_min = t;
                owner = li;
            } else if t < second {
                second = t;
            }
        }
        if t_min == u64::MAX || t_min > end_ns {
            break;
        }
        n_epochs += 1;
        let eo1 = t_min.saturating_add(l);
        let eo2 = second.saturating_add(l);
        for (k, shard) in mine.iter_mut().enumerate() {
            let li = base + k;
            if li == owner {
                if eo2 == u64::MAX {
                    shard.loop_stats.solo_drains += 1;
                }
                shard.run_capped(shared, eo2);
            } else {
                let t = published[li].load(Ordering::Relaxed);
                if t >= eo1 || t > end_ns {
                    continue;
                }
                shard.run_capped(shared, eo1);
            }
            ran[k] = true;
            for (dest, outbox) in shard.outbox.iter_mut().enumerate() {
                if !outbox.is_empty() {
                    shard.loop_stats.inbox_flushes += 1;
                    debug_assert_ne!(local_of[dest], usize::MAX, "receivers are emitters");
                    let ld = local_of[dest];
                    let mut sink = inboxes[ld].lock().expect("inbox lock");
                    sink.append(outbox);
                    drop(sink);
                    dirty[ld].store(true, Ordering::Release);
                }
            }
        }
        barrier.wait(&mut sense);
    }
    if base == 0 {
        // Every worker counted the same epochs; one reports.
        epochs.store(n_epochs, Ordering::Relaxed);
    }
}
