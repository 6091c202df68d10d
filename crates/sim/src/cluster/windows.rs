//! The window protocol of the sharded event loop: the static *emits*
//! analysis that decides which shards couple at all, the emission-capped
//! window a coupled shard runs per epoch, and the one driver of the
//! adaptive epoch protocol. Threads appear only where nothing is shared:
//! the coupled group runs its epochs on one thread, and the independent
//! shards fan out beside it over [`RunGrid`].

use super::shard::{Msg, Shard, Shared};
use crate::client::ProcessState;
use crate::run_grid::RunGrid;
use adaptbf_workload::faults::stripe_ost;

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
/// shards by the emits analysis into one work list — the emitting shards
/// as a single item that [`run_epochs`] drives, each non-emitting shard as
/// an item of its own that simply drains — and fans the list out over
/// [`RunGrid`], which owns the thread budget and propagates a worker's
/// panic when its scope joins. The items share nothing, so the worker
/// count cannot change the run or any [`super::LoopStats`] counter.
pub(super) fn run_sharded(shared: &Shared, shards: &mut [Shard]) -> u64 {
    let (coupled, free): (Vec<&mut Shard>, Vec<&mut Shard>) =
        shards.iter_mut().partition(|s| shared.emits[s.id]);
    // The coupled group first: it is the longest item, so whichever worker
    // claims it starts at once while the rest share the drains.
    let mut work: Vec<Vec<&mut Shard>> = Vec::with_capacity(1 + free.len());
    if !coupled.is_empty() {
        work.push(coupled);
    }
    work.extend(free.into_iter().map(|shard| vec![shard]));
    let epochs = RunGrid::new().run(work, |mut group| {
        if shared.emits[group[0].id] {
            run_epochs(shared, &mut group)
        } else {
            group[0].drain(shared);
            0
        }
    });
    epochs.into_iter().sum()
}

/// The adaptive epoch protocol over the emitting shards, on one thread:
///
/// ```text
/// loop:
///   1. every shard that ran or received last epoch re-publishes its
///      next-event time t_i (idle shards keep their published value —
///      they are never touched, not even for a queue peek)
///   2. t_min, t_2nd := two smallest published times (ties to the lower
///      shard); stop if none or past the horizon
///   3. the t_min shard runs [·, t_2nd + L), additionally capped one
///      lookahead past its own earliest emission ([`Shard::run_capped`]);
///      every other shard with work below t_min + L runs [·, t_min + L).
///      With no second shard holding events the t_min shard's hard bound
///      is open: it drains solo until one lookahead past its first actual
///      emission.
///   4. outboxes flush into destination inboxes (receivers marked dirty),
///      delivered at the next refresh
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
/// past the receiver's current bound — and it makes the order the shards
/// of one epoch run in irrelevant.
fn run_epochs(shared: &Shared, coupled: &mut [&mut Shard]) -> u64 {
    let end_ns = shared.end.as_nanos();
    let l = shared.lookahead.as_nanos();
    // Inboxes and dirty flags are indexed by *global* shard id (flushes
    // address them directly); only emitting slots are ever used.
    let n_shards = shared.emits.len();
    let mut inboxes: Vec<Vec<Msg>> = (0..n_shards).map(|_| Vec::new()).collect();
    let mut dirty = vec![true; n_shards];
    let mut published = vec![u64::MAX; coupled.len()];
    let mut epochs = 0u64;
    loop {
        for (shard, t) in coupled.iter_mut().zip(&mut published) {
            if std::mem::take(&mut dirty[shard.id]) {
                shard.deliver_inbox(&mut inboxes[shard.id]);
                *t = shard.next_event_ns();
            }
        }
        let (mut t_min, mut owner, mut second) = (u64::MAX, 0, u64::MAX);
        for (i, &t) in published.iter().enumerate() {
            if t < t_min {
                (second, t_min, owner) = (t_min, t, i);
            } else if t < second {
                second = t;
            }
        }
        if t_min == u64::MAX || t_min > end_ns {
            break;
        }
        epochs += 1;
        let eo1 = t_min.saturating_add(l);
        let eo2 = second.saturating_add(l);
        for (i, shard) in coupled.iter_mut().enumerate() {
            // The t_min shard's own promise is `eo1`, so its bound is the
            // second-best promise `eo2` (MAX ⇒ solo); everyone else runs
            // below the shared bound `eo1`, if it has anything there.
            let bound = if i == owner {
                eo2
            } else if published[i] < eo1 && published[i] <= end_ns {
                eo1
            } else {
                continue;
            };
            if bound == u64::MAX {
                shard.loop_stats.solo_drains += 1;
            }
            shard.run_capped(shared, bound);
            published[i] = shard.next_event_ns();
            for (dest, outbox) in shard.outbox.iter_mut().enumerate() {
                if !outbox.is_empty() {
                    shard.loop_stats.inbox_flushes += 1;
                    debug_assert!(shared.emits[dest], "receivers are emitters");
                    inboxes[dest].append(outbox);
                    dirty[dest] = true;
                }
            }
        }
    }
    epochs
}
