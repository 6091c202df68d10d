//! Per-class RPC queues: one FIFO + token bucket per (rule, JobID) pair.
//!
//! RPCs within a queue are served strictly FCFS and only dequeue when the
//! bucket holds a token (paper Section II-A). A queue's *deadline* is the
//! instant its bucket will next afford the head RPC; the scheduler's heap
//! orders queues by it.

use crate::bucket::TokenBucket;
use adaptbf_model::{Rpc, RuleId, SimTime};
use std::collections::VecDeque;

/// One TBF queue: the RPC backlog of one traffic class under one rule.
#[derive(Debug, Clone)]
pub struct TbfQueue {
    /// The rule currently governing this queue.
    pub rule: RuleId,
    /// Hierarchy weight copied from the rule (heap tie-breaker).
    pub weight: u32,
    fifo: VecDeque<Rpc>,
    bucket: TokenBucket,
    served: u64,
}

impl TbfQueue {
    /// New queue governed by `rule` with a fresh (full) bucket.
    pub fn new(rule: RuleId, weight: u32, rate_tps: f64, depth: u64, now: SimTime) -> Self {
        TbfQueue {
            rule,
            weight,
            fifo: VecDeque::new(),
            bucket: TokenBucket::new(rate_tps, depth, now),
            served: 0,
        }
    }

    /// Append an RPC (FCFS order). The head — and therefore the deadline
    /// the queue's heap entry was keyed at — is unchanged.
    pub fn push(&mut self, rpc: Rpc) {
        self.fifo.push_back(rpc);
    }

    /// Number of queued RPCs.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the backlog is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// RPCs served from this queue since creation.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The queue's deadline: earliest time the head RPC could be served.
    /// `None` when the queue is empty or can never afford its head
    /// (zero-rate rule with an empty bucket).
    pub fn deadline(&mut self, now: SimTime) -> Option<SimTime> {
        let cost = self.fifo.front()?.token_cost();
        self.bucket.next_ready(cost, now)
    }

    /// Attempt to dequeue the head RPC at `now`, consuming its token cost.
    pub fn try_serve(&mut self, now: SimTime) -> Option<Rpc> {
        let cost = self.fifo.front()?.token_cost();
        if self.bucket.try_consume(cost, now) {
            self.served += 1;
            self.fifo.pop_front()
        } else {
            None
        }
    }

    /// Re-bind the queue to a (possibly different) rule: update rate and
    /// weight going forward, keeping earned tokens.
    pub fn rebind(&mut self, rule: RuleId, weight: u32, rate_tps: f64, now: SimTime) {
        self.rule = rule;
        self.weight = weight;
        self.bucket.set_rate(rate_tps, now);
    }

    /// Hand the whole backlog over as the deque it sits in (its rule
    /// stopped and it parks in the fallback queue, or the OST crashed).
    pub fn take_fifo(&mut self) -> VecDeque<Rpc> {
        std::mem::take(&mut self.fifo)
    }

    /// Adopt `fifo` — a backlog captured whole from the fallback queue —
    /// as this (empty, never scheduled) queue's.
    pub fn put_fifo(&mut self, fifo: VecDeque<Rpc>) {
        debug_assert!(self.fifo.is_empty(), "a captured backlog founds its queue");
        self.fifo = fifo;
    }

    /// Immutable view of the bucket (diagnostics).
    pub fn bucket(&self) -> &TokenBucket {
        &self.bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{ClientId, JobId, ProcId, RpcId};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn rpc(id: u64) -> Rpc {
        Rpc::new(RpcId(id), JobId(1), ClientId(0), ProcId(0), t(0))
    }

    fn queue(rate: f64) -> TbfQueue {
        TbfQueue::new(RuleId(0), 1, rate, 3, t(0))
    }

    #[test]
    fn fcfs_order() {
        let mut q = queue(1000.0);
        q.push(rpc(1));
        q.push(rpc(2));
        q.push(rpc(3));
        assert_eq!(q.try_serve(t(0)).unwrap().id, RpcId(1));
        assert_eq!(q.try_serve(t(0)).unwrap().id, RpcId(2));
        assert_eq!(q.try_serve(t(0)).unwrap().id, RpcId(3));
        assert_eq!(q.served(), 3);
    }

    #[test]
    fn serve_blocked_without_tokens() {
        let mut q = queue(10.0);
        for i in 0..5 {
            q.push(rpc(i));
        }
        // Burst of depth 3, then throttled.
        assert!(q.try_serve(t(0)).is_some());
        assert!(q.try_serve(t(0)).is_some());
        assert!(q.try_serve(t(0)).is_some());
        assert!(q.try_serve(t(0)).is_none());
        // Deadline = 100 ms later (1 token at 10/s), within the ns margin.
        let d = q.deadline(t(0)).unwrap();
        assert!(d >= t(100) && d.as_nanos() <= t(100).as_nanos() + 2);
        assert!(q.try_serve(d).is_some());
    }

    #[test]
    fn deadline_none_when_empty() {
        let mut q = queue(10.0);
        assert_eq!(q.deadline(t(0)), None);
    }

    #[test]
    fn deadline_none_for_zero_rate_empty_bucket() {
        let mut q = TbfQueue::new(RuleId(0), 1, 0.0, 3, t(0));
        for i in 0..4 {
            q.push(rpc(i));
        }
        // Burn the initial burst.
        for _ in 0..3 {
            assert!(q.try_serve(t(0)).is_some());
        }
        assert_eq!(q.deadline(t(0)), None, "zero-rate queue can never serve");
    }

    #[test]
    fn rebind_applies_new_rate() {
        let mut q = queue(10.0);
        for i in 0..10 {
            q.push(rpc(i));
        }
        for _ in 0..3 {
            q.try_serve(t(0));
        }
        q.rebind(RuleId(7), 3, 1000.0, t(0));
        assert_eq!(q.rule, RuleId(7));
        assert_eq!(q.weight, 3);
        // 1000 tps → 1 token per ms.
        assert!(q.try_serve(t(1)).is_some());
    }

    #[test]
    fn a_backlog_moves_whole_between_queues() {
        let mut q = queue(10.0);
        q.push(rpc(1));
        q.push(rpc(2));
        let taken = q.take_fifo();
        assert_eq!(taken.len(), 2);
        assert!(q.is_empty());
        let mut heir = queue(10.0);
        heir.put_fifo(taken);
        assert_eq!(heir.len(), 2);
        assert_eq!(heir.try_serve(t(0)).unwrap().id, RpcId(1));
    }
}
