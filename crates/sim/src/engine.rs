//! The discrete-event core: a time-ordered future-event list with
//! deterministic tie-breaking.
//!
//! ## Calendar layout
//!
//! At million-RPC scale the future-event list is the single hottest
//! structure in the simulator — every RPC crosses it three times
//! (arrival, service completion, client reply). A binary heap pays
//! `O(log n)` pointer-chasing sifts on every operation; this queue is a
//! *calendar queue* instead: a ring of `N_BUCKETS` time buckets of
//! `BUCKET_WIDTH` nanoseconds each, covering a sliding window from the
//! drain cursor, plus a spill heap for events beyond the window (long
//! think times, controller ticks, far-future chunks). Pushes are an array
//! index + append. A pop takes the earliest `(time, seq)` key of the
//! bucket under the drain cursor: a bucket of up to `SCAN_LIMIT` entries
//! — the usual 1–3 — is scanned; a longer one is a *herd* (a burst's
//! same-instant arrivals, thousands of jobs opening their first window
//! together) and is ordered once, descending, so every later pop takes the
//! back entry. While the cursor stays on an ordered bucket, pushes that
//! land in it are placed by binary search, so draining an `n`-event herd
//! costs O(n log n) key compares however many events join it on the way
//! (same-instant and clamped arrivals land at the back; one that lands
//! late in the bucket shifts the entries after it — a `memmove`).
//! Events whose bucket has already been passed by the cursor are clamped
//! into the cursor's bucket — scan, sort and search all compare full keys,
//! so ordering stays exact.
//!
//! Ordering is identical to the heap it replaced: strictly by `(time,
//! key)` — a total order, so any correct priority queue yields
//! byte-identical simulations (pinned by the record/replay and golden
//! report suites).
//!
//! ## Keys
//!
//! [`EventQueue::push`] assigns keys from an internal insertion counter,
//! which reproduces classic insertion-order tie-breaking. The sharded
//! cluster executor instead supplies *canonical* keys through
//! [`EventQueue::push_keyed`]: a key derived from the pushing entity (its
//! lane id and a per-lane sequence number) rather than from global push
//! order, so the same event carries the same key no matter how many
//! shards the run is split over — the foundation of the cross-shard
//! determinism guarantee. The two styles must not be mixed in one queue.

use adaptbf_model::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one calendar bucket in nanoseconds (8 µs — a fraction of the
/// 150 µs network hop, so in steady flow a bucket holds 1–3 events; a
/// burst can still put thousands into one, which is what the ordered
/// cursor bucket is for).
const BUCKET_WIDTH: u64 = 8_000;
/// Longest cursor bucket that is still drained by scanning; a longer one
/// is sorted once. A scan this short touches a cache line or two, so the
/// common 1–3-entry bucket pays nothing for the herd case. Chosen by
/// measurement: limits of 1 (always sort), 8 and 32 read within
/// run-to-run noise of each other on the benchmark's flat and control
/// workloads, and always sorting read ~5 % slower on the striped one.
const SCAN_LIMIT: usize = 8;
/// Buckets in the ring (power of two; 4096 × 8 µs ≈ 33 ms window, which
/// comfortably covers network hops and disk service times).
const N_BUCKETS: usize = 4096;
/// Words in the occupancy bitmap (one bit per ring bucket).
const N_WORDS: usize = N_BUCKETS / 64;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, seq) for the spill heap: earliest first,
        // insertion order on ties.
        other.key().cmp(&self.key())
    }
}

/// A deterministic future-event list.
pub struct EventQueue<E> {
    /// The calendar ring; bucket `b` (absolute index) lives at `b %
    /// N_BUCKETS` while `b` is inside the window `[cursor, cursor +
    /// N_BUCKETS)`.
    ring: Vec<Vec<Entry<E>>>,
    /// One bit per ring slot: set iff the bucket is non-empty. Lets the
    /// drain cursor jump straight to the next occupied bucket with word
    /// scans instead of probing every empty 8 µs bucket — at sparse
    /// per-shard event densities (a sharded run divides the same event
    /// population over N cursors walking the same virtual horizon) the
    /// empty-bucket walk used to dominate the loop.
    occupied: [u64; N_WORDS],
    /// Events currently stored in the ring.
    in_ring: usize,
    /// Absolute index of the bucket the drain is currently at. Events
    /// pushed "behind" the cursor (same virtual time, earlier bucket) are
    /// clamped into the cursor's bucket.
    cursor: u64,
    /// Absolute index of the bucket held in descending `(time, seq)`
    /// order (earliest at the back), `u64::MAX` when none is. Only ever
    /// the cursor's bucket: set when a pop finds it crowded, left behind
    /// (harmlessly — nothing can be pushed behind the cursor) when the
    /// cursor moves on.
    ordered: u64,
    /// Events beyond the ring window, ordered by `(time, seq)`.
    spill: BinaryHeap<Entry<E>>,
    /// Absolute bucket of the earliest spill event (`u64::MAX` when the
    /// spill heap is empty) — cached so cursor advances compare one
    /// integer instead of peeking the heap.
    next_spill_bucket: u64,
    next_seq: u64,
    now: SimTime,
    /// Key comparisons made on the ring (scan, sort, search) — the work
    /// count behind the herd-drain tests.
    #[cfg(test)]
    key_compares: std::cell::Cell<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// New empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; N_WORDS],
            in_ring: 0,
            cursor: 0,
            ordered: u64::MAX,
            spill: BinaryHeap::new(),
            next_spill_bucket: u64::MAX,
            next_seq: 0,
            now: SimTime::ZERO,
            #[cfg(test)]
            key_compares: std::cell::Cell::new(0),
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Reserve spill capacity for about `extra` more events — builders
    /// that can bound the event population from the scenario pre-size the
    /// far-future list (scenario chunks land there) instead of growing it
    /// through the run.
    pub fn reserve(&mut self, extra: usize) {
        self.spill.reserve(extra);
    }

    /// Schedule `payload` at `at`. Scheduling in the past is a logic error.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(at, seq, payload);
    }

    /// Schedule `payload` at `at` under a caller-supplied tie-break `key`.
    ///
    /// Events at equal timestamps pop in ascending key order. The caller
    /// owns key uniqueness per timestamp; the sharded executor derives keys
    /// from `(pushing lane << LANE_SHIFT) | per-lane seq` so the ordering is
    /// independent of shard count and push interleaving. Do not mix with
    /// [`EventQueue::push`] on the same queue — the internal counter knows
    /// nothing about external keys.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        let entry = Entry {
            at,
            seq: key,
            payload,
        };
        let bucket = (at.as_nanos() / BUCKET_WIDTH).max(self.cursor);
        if bucket >= self.cursor + N_BUCKETS as u64 {
            self.spill.push(entry);
            self.next_spill_bucket = self.next_spill_bucket.min(bucket);
        } else {
            self.place(bucket, entry);
        }
    }

    /// Put `entry` into ring bucket `bucket` (inside the window): appended,
    /// or — into the ordered bucket — at its place in the order.
    #[inline]
    fn place(&mut self, bucket: u64, entry: Entry<E>) {
        let slot = (bucket % N_BUCKETS as u64) as usize;
        if bucket == self.ordered {
            let key = entry.key();
            let at = self.ring[slot].partition_point(|e| {
                #[cfg(test)]
                self.key_compares.set(self.key_compares.get() + 1);
                e.key() > key
            });
            self.ring[slot].insert(at, entry);
        } else {
            self.ring[slot].push(entry);
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.in_ring += 1;
    }

    /// Move spill events that now fit the window into the ring, refreshing
    /// the cached earliest-spill bucket.
    fn drain_spill_into_window(&mut self) {
        let window_end = self.cursor + N_BUCKETS as u64;
        while let Some(top) = self.spill.peek() {
            if top.at.as_nanos() / BUCKET_WIDTH >= window_end {
                break;
            }
            let e = self.spill.pop().expect("peeked");
            let bucket = (e.at.as_nanos() / BUCKET_WIDTH).max(self.cursor);
            self.place(bucket, e);
        }
        self.next_spill_bucket = self
            .spill
            .peek()
            .map_or(u64::MAX, |e| e.at.as_nanos() / BUCKET_WIDTH);
    }

    /// Absolute index of the first occupied bucket at or after `cursor`.
    /// Caller guarantees `in_ring > 0`; every ring event lives inside the
    /// window `[cursor, cursor + N_BUCKETS)`, so a circular scan of the
    /// bitmap starting at the cursor's slot finds the nearest one.
    fn next_occupied_bucket(&self) -> u64 {
        let start = (self.cursor % N_BUCKETS as u64) as usize;
        let mut word_idx = start / 64;
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        let mut scanned = 0;
        loop {
            if word != 0 {
                let slot = word_idx * 64 + word.trailing_zeros() as usize;
                let dist = (slot + N_BUCKETS - start) % N_BUCKETS;
                return self.cursor + dist as u64;
            }
            scanned += 1;
            debug_assert!(scanned <= N_WORDS, "in_ring > 0 but bitmap is empty");
            word_idx = (word_idx + 1) % N_WORDS;
            word = self.occupied[word_idx];
        }
    }

    /// Locate the globally earliest entry, jumping the cursor over empty
    /// buckets (and pulling spill events into the window as it uncovers
    /// them). Returns `(ring slot, index within bucket)`.
    fn locate_min(&mut self) -> Option<(usize, usize)> {
        loop {
            if self.in_ring == 0 {
                // Ring dry: jump the cursor straight to the next spill
                // event's bucket instead of walking empties.
                if self.spill.is_empty() {
                    return None;
                }
                self.cursor = self.cursor.max(self.next_spill_bucket);
                self.drain_spill_into_window();
                continue;
            }
            // Jump straight to the nearest occupied bucket. Spill events
            // sit at or beyond the *old* window end, which is past every
            // in-window bucket — so draining them after the jump cannot
            // introduce anything earlier than the bucket we landed on.
            let bucket = self.next_occupied_bucket();
            if bucket > self.cursor {
                self.cursor = bucket;
                if self.next_spill_bucket < self.cursor + N_BUCKETS as u64 {
                    self.drain_spill_into_window();
                }
            }
            let slot = (self.cursor % N_BUCKETS as u64) as usize;
            let bucket = &mut self.ring[slot];
            if self.ordered != self.cursor {
                if bucket.len() <= SCAN_LIMIT {
                    let mut min = 0;
                    for i in 1..bucket.len() {
                        #[cfg(test)]
                        self.key_compares.set(self.key_compares.get() + 1);
                        if bucket[i].key() < bucket[min].key() {
                            min = i;
                        }
                    }
                    return Some((slot, min));
                }
                bucket.sort_unstable_by(|a, b| {
                    #[cfg(test)]
                    self.key_compares.set(self.key_compares.get() + 1);
                    b.key().cmp(&a.key())
                });
                self.ordered = self.cursor;
            }
            return Some((slot, bucket.len() - 1));
        }
    }

    #[inline]
    fn take(&mut self, slot: usize, idx: usize) -> (SimTime, E) {
        let e = self.ring[slot].swap_remove(idx);
        if self.ring[slot].is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.in_ring -= 1;
        debug_assert!(e.at >= self.now, "time ran backwards");
        self.now = e.at;
        (e.at, e.payload)
    }

    /// Pop the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (slot, idx) = self.locate_min()?;
        Some(self.take(slot, idx))
    }

    /// Pop the earliest event together with its tie-break key.
    ///
    /// The sharded executor uses the key to tag side effects (trace
    /// records) so per-shard outputs merge back into the exact global
    /// processing order.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        let (slot, idx) = self.locate_min()?;
        let key = self.ring[slot][idx].seq;
        let (at, payload) = self.take(slot, idx);
        Some((at, key, payload))
    }

    /// Timestamp of the earliest pending event, without popping it or
    /// advancing the clock. Used by the epoch driver to publish
    /// each shard's next-event time.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        let (slot, idx) = self.locate_min()?;
        Some(self.ring[slot][idx].at)
    }

    /// Pop the earliest event only if `pred` accepts it; a rejected probe
    /// leaves the queue and the clock untouched.
    pub fn pop_if(&mut self, pred: impl FnOnce(SimTime, &E) -> bool) -> Option<(SimTime, E)> {
        let (slot, idx) = self.locate_min()?;
        let e = &self.ring[slot][idx];
        if !pred(e.at, &e.payload) {
            return None;
        }
        Some(self.take(slot, idx))
    }

    /// [`EventQueue::pop_if`] that also returns the tie-break key — the
    /// shard drain loops bound their pops by horizon / epoch window while
    /// keeping the key for side-effect tagging.
    pub fn pop_entry_if(
        &mut self,
        pred: impl FnOnce(SimTime, &E) -> bool,
    ) -> Option<(SimTime, u64, E)> {
        let (slot, idx) = self.locate_min()?;
        let e = &self.ring[slot][idx];
        if !pred(e.at, &e.payload) {
            return None;
        }
        let key = self.ring[slot][idx].seq;
        let (at, payload) = self.take(slot, idx);
        Some((at, key, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_ring + self.spill.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.now(), t(20));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(5), 1);
        q.push(t(5), 2);
        q.push(t(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn rejected_pop_if_does_not_advance_the_clock() {
        let mut q = EventQueue::new();
        q.push(t(7), ());
        assert!(q.pop_if(|at, _| at > t(7)).is_none());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_if_only_takes_matching_top() {
        let mut q = EventQueue::new();
        q.reserve(4);
        q.push(t(5), "a");
        q.push(t(5), "b");
        assert!(q.pop_if(|_, e| *e == "b").is_none(), "top is 'a'");
        assert_eq!(q.pop_if(|at, e| at == t(5) && *e == "a"), Some((t(5), "a")));
        assert_eq!(q.now(), t(5), "conditional pop advances the clock");
        assert_eq!(q.pop(), Some((t(5), "b")));
    }

    #[test]
    fn far_future_events_spill_and_return() {
        let mut q = EventQueue::new();
        // Beyond the ~33 ms ring window: must round-trip through the spill
        // heap in exact order.
        q.push(t(2_000), "far");
        q.push(t(90_000), "farther");
        q.push(t(1), "near");
        assert_eq!(q.pop(), Some((t(1), "near")));
        assert_eq!(q.pop(), Some((t(2_000), "far")));
        assert_eq!(q.pop(), Some((t(90_000), "farther")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_near_and_far_pushes_stay_ordered() {
        // Exercises cursor jumps, spill migration, and clamped pushes: a
        // push whose bucket the cursor has already passed (same time,
        // earlier bucket region) must still pop in (time, seq) order.
        let mut q = EventQueue::new();
        q.push(t(500), 1u32);
        assert_eq!(q.pop(), Some((t(500), 1)));
        // Cursor sits at t≈500 ms; these land behind/around it.
        q.push(SimTime::from_micros(500_001), 2);
        q.push(t(600), 4);
        q.push(SimTime::from_micros(500_001), 3);
        assert_eq!(q.pop(), Some((SimTime::from_micros(500_001), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(500_001), 3)));
        assert_eq!(q.pop(), Some((t(600), 4)));
    }

    #[test]
    fn dense_random_stream_pops_sorted() {
        // A deterministic pseudo-random mix of near (ring) and far
        // (spill) delays must drain in exact (time, seq) order.
        let mut q = EventQueue::new();
        let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut now_ns = 0u64;
        for seq in 0..2000u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delay = match lcg % 5 {
                0 => 100,                 // same-bucket
                1 => 50_000,              // near
                2 => 14_000_000,          // mid-window
                3 => 200_000_000,         // spill
                _ => 1_000 + (lcg >> 50), // jitter
            };
            q.push(SimTime(now_ns + delay), seq);
            expected.push((now_ns + delay, seq));
            if seq % 3 == 0 {
                let (at, s) = q.pop().expect("queued");
                expected.sort_unstable();
                let want = expected.remove(0);
                assert_eq!((at.as_nanos(), s), want);
                now_ns = at.as_nanos();
            }
        }
        expected.sort_unstable();
        for want in expected {
            let (at, s) = q.pop().expect("queued");
            assert_eq!((at.as_nanos(), s), want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_ties_break_by_key_not_push_order() {
        let mut q = EventQueue::new();
        q.push_keyed(t(5), 30, "c");
        q.push_keyed(t(5), 10, "a");
        q.push_keyed(t(5), 20, "b");
        assert_eq!(q.pop_entry(), Some((t(5), 10, "a")));
        assert_eq!(q.pop_entry(), Some((t(5), 20, "b")));
        assert_eq!(q.pop_entry(), Some((t(5), 30, "c")));
        assert!(q.pop_entry().is_none());
    }

    #[test]
    fn keyed_order_is_push_interleaving_invariant() {
        // The same (time, key) set must drain identically no matter the
        // push order — the property the sharded executor leans on when
        // per-epoch inboxes are merged into a shard's queue.
        let evs = [
            (t(5), 7u64, "e"),
            (t(3), 9, "b"),
            (t(5), 2, "d"),
            (t(3), 1, "a"),
            (t(4), 5, "c"),
        ];
        let mut orders = Vec::new();
        for rot in 0..evs.len() {
            let mut q = EventQueue::new();
            for i in 0..evs.len() {
                let (at, key, p) = evs[(rot + i) % evs.len()];
                q.push_keyed(at, key, p);
            }
            let mut out = Vec::new();
            while let Some(e) = q.pop_entry() {
                out.push(e);
            }
            orders.push(out);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
        assert_eq!(
            orders[0].iter().map(|e| e.2).collect::<Vec<_>>(),
            vec!["a", "b", "c", "d", "e"]
        );
    }

    #[test]
    fn peek_at_does_not_advance_the_clock_or_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.push_keyed(t(9), 1, "x");
        q.push_keyed(t(4), 2, "y");
        assert_eq!(q.peek_at(), Some(t(4)));
        assert_eq!(q.peek_at(), Some(t(4)), "peek is idempotent");
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_entry(), Some((t(4), 2, "y")));
        assert_eq!(q.peek_at(), Some(t(9)));
    }

    /// Start of an 8 µs bucket well inside the first window.
    const HERD_AT: u64 = 1_000 * BUCKET_WIDTH;

    #[test]
    fn draining_a_herd_costs_n_log_n_key_compares() {
        // 4,096 events in one bucket. Re-scanning the bucket on every pop
        // is n²/2 ≈ 8.4 M key compares; ordering it once is ≈ n log n.
        let n = 4096u64;
        let mut q = EventQueue::new();
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut expected = Vec::new();
        for key in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = HERD_AT + (lcg >> 33) % BUCKET_WIDTH;
            q.push_keyed(SimTime(at), key, ());
            expected.push((at, key));
        }
        expected.sort_unstable();
        for want in expected {
            let (at, key, ()) = q.pop_entry().expect("queued");
            assert_eq!((at.as_nanos(), key), want);
        }
        assert!(q.is_empty());
        let compares = q.key_compares.get();
        assert!(compares <= 32 * n, "{compares} key compares for {n} events");
    }

    #[test]
    fn herd_with_arrivals_pops_like_a_sorted_vec() {
        // A herd is drained while events keep joining its bucket: at the
        // popped instant, later in the bucket, and — after a peek moved
        // the cursor onto the herd — earlier than the bucket (clamped).
        // Conditional pops are rejected along the way. Every pop must be
        // the minimum of a sorted-Vec model.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut key = 0u64;
        let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rand = move |below: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % below
        };
        let mut push = |q: &mut EventQueue<u64>, model: &mut Vec<(u64, u64)>, at: u64| {
            // Keys descend so that arrival order and key order disagree.
            key += 1;
            q.push_keyed(SimTime(at), u64::MAX - key, key);
            let slot = model.partition_point(|e| *e < (at, u64::MAX - key));
            model.insert(slot, (at, u64::MAX - key));
        };
        let pop_checked = |q: &mut EventQueue<u64>, model: &mut Vec<(u64, u64)>| {
            let (at, k, _) = q.pop_entry().expect("model is not empty");
            assert_eq!((at.as_nanos(), k), model.remove(0));
        };

        // One early event, the herd, and a straggler bucket behind it.
        push(&mut q, &mut model, 5 * BUCKET_WIDTH);
        for _ in 0..600 {
            let at = HERD_AT + rand(BUCKET_WIDTH);
            push(&mut q, &mut model, at);
        }
        for _ in 0..20 {
            let at = HERD_AT + BUCKET_WIDTH + rand(BUCKET_WIDTH);
            push(&mut q, &mut model, at);
        }
        pop_checked(&mut q, &mut model);
        let now = q.now().as_nanos();
        // The peek lands the cursor on the herd (and orders it); events
        // between `now` and the herd's bucket are clamped into it.
        assert_eq!(q.peek_at().map(SimTime::as_nanos), Some(model[0].0));
        for _ in 0..40 {
            let at = now + rand(HERD_AT - now);
            push(&mut q, &mut model, at);
        }
        let compares_before = q.key_compares.get();
        let mut pops = 0u64;
        while !model.is_empty() {
            match rand(8) {
                0 => {
                    let at = q.now().as_nanos().max(HERD_AT) + rand(BUCKET_WIDTH / 2);
                    push(&mut q, &mut model, at);
                }
                1 => {
                    let at = q.now().as_nanos();
                    push(&mut q, &mut model, at);
                }
                2 => {
                    assert!(q.pop_if(|_, _| false).is_none());
                    assert!(q.pop_entry_if(|_, _| false).is_none());
                    assert_eq!(q.len(), model.len());
                }
                3 => {
                    let want = model.remove(0);
                    let got = q.pop_entry_if(|at, _| at.as_nanos() == want.0);
                    assert_eq!(got.map(|(at, k, _)| (at.as_nanos(), k)), Some(want));
                    pops += 1;
                }
                _ => {
                    pop_checked(&mut q, &mut model);
                    pops += 1;
                }
            }
        }
        assert!(q.is_empty());
        let compares = q.key_compares.get() - compares_before;
        assert!(
            compares <= 32 * pops,
            "{compares} key compares, {pops} pops"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(t(10), ());
        q.pop();
        q.push(t(5), ());
    }
}
