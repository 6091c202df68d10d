//! The deadline heap: ruled queues ordered by the time they next hold a
//! token.
//!
//! Lustre keeps TBF queues in a binary heap keyed by deadline so the
//! scheduler always serves the queue whose token arrives soonest (paper
//! Section II-A). This heap is *indexed*: it holds at most one entry per
//! queue slot and knows where each sits, so a queue whose head or rule
//! changes is re-keyed in place ([`DeadlineHeap::set`]) and one that can no
//! longer be served is taken out ([`DeadlineHeap::remove`]). No entry is
//! ever stale, and the top is always the queue to serve. Ties on deadline
//! go to the higher rule hierarchy weight, then to the entry keyed first.

use adaptbf_model::SimTime;

/// One queue's place in the heap.
#[derive(Debug, Clone, Copy)]
struct Entry {
    deadline: SimTime,
    weight: u32,
    slot: u32,
    /// Sequence of the [`DeadlineHeap::set`] that keyed the entry.
    seq: u64,
}

impl Entry {
    /// Whether `self` is served before `other`, without short-circuits:
    /// which of two children goes first is a coin toss a branch predictor
    /// loses, so the sift compiles it to flag arithmetic instead.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        let (tie, same_weight) = (self.deadline == other.deadline, self.weight == other.weight);
        let later_seq = same_weight & (self.seq < other.seq);
        (self.deadline < other.deadline) | (tie & ((self.weight > other.weight) | later_seq))
    }
}

/// A deadline-ordered heap of TBF queues, at most one entry per slot.
#[derive(Debug, Default)]
pub struct DeadlineHeap {
    heap: Vec<Entry>,
    /// `slot → position in heap + 1` (0 = no entry).
    pos: Vec<u32>,
    next_seq: u64,
}

impl DeadlineHeap {
    /// Key the queue at `slot` at `deadline` and `weight`: insert its
    /// entry, or move the one it has. The entry takes a fresh sequence
    /// number either way, so it goes behind the entries it ties with.
    pub fn set(&mut self, slot: usize, deadline: SimTime, weight: u32) {
        let (slot32, seq) = (slot as u32, self.next_seq);
        self.next_seq += 1;
        let entry = Entry {
            deadline,
            weight,
            slot: slot32,
            seq,
        };
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, 0);
        }
        match self.pos[slot] {
            0 => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1, entry);
            }
            p => self.refill(p as usize - 1, entry),
        }
    }

    /// Take the queue at `slot` out of the heap, if it is in it.
    pub fn remove(&mut self, slot: usize) {
        if !self.contains(slot) {
            return;
        }
        let i = std::mem::take(&mut self.pos[slot]) as usize - 1;
        let last = self.heap.pop().expect("an entry is listed");
        if i < self.heap.len() {
            self.refill(i, last);
        }
    }

    /// The slot and deadline of the queue to serve next.
    #[inline]
    pub fn peek(&self) -> Option<(usize, SimTime)> {
        self.heap.first().map(|e| (e.slot as usize, e.deadline))
    }

    /// Whether the queue at `slot` has an entry.
    pub fn contains(&self, slot: usize) -> bool {
        self.pos.get(slot).is_some_and(|&p| p > 0)
    }

    /// Number of entries: the schedulable queues.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no queue is schedulable.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every entry, in O(entries).
    pub fn clear(&mut self) {
        for e in self.heap.drain(..) {
            self.pos[e.slot as usize] = 0;
        }
    }

    /// Put `entry` where the entry at `i` was, moving it up or down.
    fn refill(&mut self, i: usize, entry: Entry) {
        if self.heap[i].before(&entry) {
            self.sift_down(i, entry);
        } else {
            self.sift_up(i, entry);
        }
    }

    /// Fill the hole at `i` with `entry`, moving the hole up while `entry`
    /// precedes its parent.
    fn sift_up(&mut self, mut i: usize, entry: Entry) {
        while i > 0 && entry.before(&self.heap[(i - 1) / 2]) {
            self.place(i, self.heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        self.place(i, entry);
    }

    /// Fill the hole at `i` with `entry`, which may follow the hole's
    /// children. A served queue's next deadline usually lies behind most
    /// others, so the hole goes down to a leaf first — one comparison per
    /// level, between the children — and `entry` climbs back from there.
    fn sift_down(&mut self, mut i: usize, entry: Entry) {
        let n = self.heap.len();
        while 2 * i + 1 < n {
            let (left, right) = (2 * i + 1, 2 * i + 2);
            let child = left + usize::from(right < n && self.heap[right].before(&self.heap[left]));
            self.place(i, self.heap[child]);
            i = child;
        }
        self.sift_up(i, entry);
    }

    #[inline]
    fn place(&mut self, i: usize, entry: Entry) {
        self.pos[entry.slot as usize] = i as u32 + 1;
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Pop the top entry's slot.
    fn pop(h: &mut DeadlineHeap) -> Option<usize> {
        let (slot, _) = h.peek()?;
        h.remove(slot);
        Some(slot)
    }

    #[test]
    fn earliest_deadline_pops_first() {
        let mut h = DeadlineHeap::default();
        h.set(1, t(300), 1);
        h.set(2, t(100), 1);
        h.set(3, t(200), 1);
        assert_eq!(h.peek(), Some((2, t(100))));
        assert_eq!(
            [pop(&mut h), pop(&mut h), pop(&mut h), pop(&mut h)],
            [Some(2), Some(3), Some(1), None]
        );
    }

    #[test]
    fn weight_then_keying_order_break_deadline_ties() {
        let mut h = DeadlineHeap::default();
        h.set(1, t(100), 1);
        h.set(2, t(100), 5);
        h.set(3, t(100), 1);
        assert_eq!(pop(&mut h), Some(2), "higher weight first");
        assert_eq!(pop(&mut h), Some(1), "keyed earlier first");
        // Re-keying a queue at the same key sends it behind its ties.
        h.set(1, t(100), 1);
        h.set(3, t(100), 1);
        assert_eq!(pop(&mut h), Some(1));
    }

    #[test]
    fn a_slot_holds_one_entry_however_often_it_is_keyed() {
        let mut h = DeadlineHeap::default();
        h.set(1, t(50), 1);
        h.set(2, t(100), 1);
        h.set(1, t(150), 1);
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek(), Some((2, t(100))));
        h.set(1, t(10), 1);
        assert_eq!(h.peek(), Some((1, t(10))));
        h.remove(1);
        h.remove(1);
        h.remove(7);
        assert_eq!((h.len(), h.contains(1), h.contains(2)), (1, false, true));
        h.clear();
        assert!(h.is_empty() && !h.contains(2));
        h.set(2, t(5), 1);
        assert_eq!(h.peek(), Some((2, t(5))));
    }

    /// Random `set`/`remove`/`clear` sequences against a sorted `Vec` of
    /// `(deadline, -weight, seq, slot)`, one element per slot: after every
    /// step the heap's top and size must be the model's.
    #[test]
    fn matches_a_sorted_vec_model() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for _ in 0..50 {
            let mut h = DeadlineHeap::default();
            let mut model: Vec<(SimTime, i64, u64, usize)> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..400 {
                let slot = next(24) as usize;
                match next(20) {
                    0..=11 => {
                        // Few distinct deadlines and weights: many ties.
                        let (deadline, weight) = (t(next(8)), next(3) as u32);
                        h.set(slot, deadline, weight);
                        model.retain(|e| e.3 != slot);
                        model.push((deadline, -i64::from(weight), seq, slot));
                        seq += 1;
                    }
                    12..=18 => {
                        h.remove(slot);
                        model.retain(|e| e.3 != slot);
                    }
                    _ => {
                        h.clear();
                        model.clear();
                    }
                }
                model.sort_unstable();
                let top = model.first().map(|e| (e.3, e.0));
                assert_eq!(h.peek(), top);
                assert_eq!(h.len(), model.len());
                assert!((0..24).all(|s| h.contains(s) == model.iter().any(|e| e.3 == s)));
            }
        }
    }
}
