//! Exhaustive small-scope check of the scheduler against a naive model.
//!
//! Every operation sequence of length ≤ 6 over {enqueue j, next(now),
//! next(later), start a rule for j, stop j's oldest rule, re-rate j's
//! oldest rule, drain_pending} × j ∈ {1, 2} — job 1 may have two rules at
//! once — runs on the scheduler and on the model below side by side. After
//! every step they must agree on the decision or drained RPCs and on
//! `pending_ruled`/`pending_fallback`/`queue_depth`; at the end, on the
//! rule table and `stats()`. Checking every step of every length-6
//! sequence covers every shorter one.
//!
//! The model is the scheduler's contract written the slow, obvious way:
//! a plain rule `Vec` scanned per RPC, a `VecDeque` and bucket per ruled
//! job, one global fallback FIFO, and dispatch by scanning the queues for
//! the smallest (deadline, −weight, order the deadline was set in) — no
//! interner, no slots, no heap, no stamps, no tombstones.

use adaptbf_model::{
    ClientId, JobId, ProcId, Rpc, RpcId, RuleId, SimDuration, SimTime, TbfSchedulerConfig,
};
use adaptbf_tbf::{NrsTbfScheduler, RpcMatcher, SchedDecision, TokenBucket};
use std::collections::{BTreeMap, VecDeque};

/// Depth 1, so the second RPC of a burst already waits for a token.
const DEPTH: u64 = 1;
const LEN: usize = 6;
/// `next(later)` moves the clock by this much: a token at 20 tokens/s,
/// not yet one at 10.
const LATER: SimDuration = SimDuration::from_millis(60);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Enqueue(u32),
    Next,
    NextLater,
    Start(u32),
    StopOldest(u32),
    Rerate(u32),
    Drain,
}

struct ModelQueue {
    fifo: VecDeque<Rpc>,
    bucket: TokenBucket,
    weight: u32,
    /// When the head can be served, and the order that was worked out in
    /// (the tie-break after weight).
    deadline: Option<(SimTime, u64)>,
}

#[derive(Default)]
struct Model {
    /// `(id, job, rate, weight)` in start order; the first naming a job
    /// governs it.
    rules: Vec<(RuleId, u32, f64, u32)>,
    queues: BTreeMap<u32, ModelQueue>,
    fallback: VecDeque<Rpc>,
    deadlines_set: u64,
    served: (u64, u64),
    served_by_job: BTreeMap<JobId, u64>,
}

impl Model {
    fn rule_of(&self, job: u32) -> Option<(RuleId, u32, f64, u32)> {
        self.rules.iter().copied().find(|r| r.1 == job)
    }

    /// Work out `job`'s queue's deadline afresh (its head or rule changed).
    fn set_deadline(&mut self, job: u32, now: SimTime) {
        let q = self.queues.get_mut(&job).unwrap();
        q.deadline = None;
        if !q.fifo.is_empty() {
            self.deadlines_set += 1;
            q.deadline = (q.bucket.next_ready(1, now)).map(|at| (at, self.deadlines_set));
        }
    }

    fn enqueue(&mut self, rpc: Rpc, now: SimTime) {
        let job = rpc.job.raw();
        let Some((_, _, rate, weight)) = self.rule_of(job) else {
            return self.fallback.push_back(rpc);
        };
        let q = self.queues.entry(job).or_insert_with(|| ModelQueue {
            fifo: VecDeque::new(),
            bucket: TokenBucket::new(rate, DEPTH, now),
            weight,
            deadline: None,
        });
        q.fifo.push_back(rpc);
        if q.fifo.len() == 1 {
            self.set_deadline(job, now);
        }
    }

    fn next(&mut self, now: SimTime) -> SchedDecision {
        let ready = (self.queues.iter())
            .filter_map(|(job, q)| {
                q.deadline
                    .map(|(at, order)| (at, u32::MAX - q.weight, order, *job))
            })
            .min();
        let from_fallback = |m: &mut Self| {
            let rpc = m.fallback.pop_front()?;
            m.served.1 += 1;
            *m.served_by_job.entry(rpc.job).or_default() += 1;
            Some(SchedDecision::Serve(rpc))
        };
        match ready {
            Some((at, _, _, job)) if at <= now => {
                let q = self.queues.get_mut(&job).unwrap();
                assert!(q.bucket.try_consume(1, now), "a due deadline has its token");
                let rpc = q.fifo.pop_front().unwrap();
                self.set_deadline(job, now);
                self.served.0 += 1;
                *self.served_by_job.entry(rpc.job).or_default() += 1;
                SchedDecision::Serve(rpc)
            }
            Some((at, ..)) => from_fallback(self).unwrap_or(SchedDecision::WaitUntil(at)),
            None => from_fallback(self).unwrap_or(SchedDecision::Idle),
        }
    }

    fn start(&mut self, id: RuleId, job: u32, rate: f64, weight: u32, now: SimTime) {
        self.rules.push((id, job, rate, weight));
        let parked: Vec<Rpc> = self
            .fallback
            .iter()
            .copied()
            .filter(|r| r.job.raw() == job)
            .collect();
        self.fallback.retain(|r| r.job.raw() != job);
        for rpc in parked {
            self.enqueue(rpc, now);
        }
    }

    /// The queue of `job`, whose governing rule just changed, follows it.
    fn rebind(&mut self, job: u32, now: SimTime) {
        let (_, _, rate, weight) = self.rule_of(job).unwrap();
        let q = self.queues.get_mut(&job).unwrap();
        q.bucket.set_rate(rate, now);
        q.weight = weight;
        self.set_deadline(job, now);
    }

    fn stop_oldest(&mut self, job: u32, now: SimTime) -> RuleId {
        let at = self.rules.iter().position(|r| r.1 == job).unwrap();
        let (id, ..) = self.rules.remove(at);
        if let Some(q) = self.queues.get(&job) {
            if !q.fifo.is_empty() && self.rule_of(job).is_some() {
                self.rebind(job, now);
            } else {
                // An idle queue is dropped, bucket and all; a backlog
                // with no rule left parks behind what is already parked.
                self.fallback.extend(self.queues.remove(&job).unwrap().fifo);
            }
        }
        id
    }

    fn rerate_oldest(&mut self, job: u32, now: SimTime) -> (RuleId, f64, u32) {
        let rule = self.rules.iter_mut().find(|r| r.1 == job).unwrap();
        (rule.2, rule.3) = if rule.2 == 10.0 { (20.0, 2) } else { (10.0, 1) };
        let update = (rule.0, rule.2, rule.3);
        if self.queues.contains_key(&job) {
            self.rebind(job, now);
        }
        update
    }

    fn drain(&mut self) -> Vec<Rpc> {
        let mut out = Vec::new();
        for q in self.queues.values_mut() {
            out.extend(q.fifo.drain(..));
            q.deadline = None;
        }
        out.extend(self.fallback.drain(..));
        out
    }
}

/// Run `ops` on both, comparing after every step.
fn check(ops: &[Op]) {
    let mut s = NrsTbfScheduler::new(TbfSchedulerConfig {
        bucket_depth: DEPTH,
    });
    let mut m = Model::default();
    let mut now = SimTime::ZERO;
    let mut rpcs = 0;
    for (step, op) in ops.iter().enumerate() {
        let at = || format!("step {step} of {ops:?}");
        match *op {
            Op::Enqueue(job) => {
                let rpc = Rpc::new(RpcId(rpcs), JobId(job), ClientId(0), ProcId(0), now);
                rpcs += 1;
                s.enqueue(rpc, now);
                m.enqueue(rpc, now);
            }
            Op::Next | Op::NextLater => {
                if *op == Op::NextLater {
                    now += LATER;
                }
                assert_eq!(s.next(now), m.next(now), "{}", at());
            }
            Op::Start(job) => {
                // Job 1's second rule starts faster and heavier.
                let (rate, weight) = if m.rule_of(job).is_some() {
                    (20.0, 2)
                } else {
                    (10.0, 1)
                };
                let id = s.start_rule(
                    format!("j{job}"),
                    RpcMatcher::Job(JobId(job)),
                    rate,
                    weight,
                    now,
                );
                m.start(id, job, rate, weight, now);
            }
            Op::StopOldest(job) => {
                let stopped = s.stop_rule(m.stop_oldest(job, now), now);
                assert!(stopped.is_ok(), "{stopped:?}, {}", at());
            }
            Op::Rerate(job) => {
                let rerated = s.apply_updates(&[m.rerate_oldest(job, now)], now);
                assert!(rerated.is_ok(), "{rerated:?}, {}", at());
            }
            Op::Drain => assert_eq!(s.drain_pending(), m.drain(), "{}", at()),
        }
        let ruled: usize = m.queues.values().map(|q| q.fifo.len()).sum();
        assert_eq!(
            (s.pending_ruled(), s.pending_fallback()),
            (ruled, m.fallback.len()),
            "{}",
            at()
        );
        for job in [1, 2] {
            let depth = m.queues.get(&job).map_or(0, |q| q.fifo.len());
            assert_eq!(s.queue_depth(JobId(job)), depth, "job {job}, {}", at());
        }
    }
    let rules: Vec<_> = (s.rules().rules().iter())
        .map(|r| {
            let RpcMatcher::Job(job) = r.matcher;
            (r.id, job.raw(), r.rate_tps, r.weight)
        })
        .collect();
    assert_eq!(rules, m.rules, "{ops:?}");
    let stats = s.stats();
    assert_eq!(
        (stats.served_ruled, stats.served_fallback),
        m.served,
        "{ops:?}"
    );
    assert_eq!(stats.served_by_job, m.served_by_job, "{ops:?}");
}

/// Depth-first over every applicable sequence; `rules[j - 1]` counts job
/// j's installed rules (at most two for job 1, one for job 2).
fn explore(ops: &mut Vec<Op>, rules: [u8; 2], checked: &mut u64) {
    if ops.len() == LEN {
        *checked += 1;
        return check(ops);
    }
    let mut step = |op: Op, rules: [u8; 2]| {
        ops.push(op);
        explore(ops, rules, checked);
        ops.pop();
    };
    for op in [Op::Next, Op::NextLater, Op::Drain] {
        step(op, rules);
    }
    for job in [1u32, 2] {
        let j = job as usize - 1;
        let (mut more, mut fewer) = (rules, rules);
        more[j] += 1;
        fewer[j] = fewer[j].saturating_sub(1);
        step(Op::Enqueue(job), rules);
        if rules[j] < [2, 1][j] {
            step(Op::Start(job), more);
        }
        if rules[j] > 0 {
            step(Op::StopOldest(job), fewer);
            step(Op::Rerate(job), rules);
        }
    }
}

#[test]
fn every_short_history_matches_the_naive_model() {
    let mut checked = 0;
    explore(&mut Vec::new(), [0, 0], &mut checked);
    assert!(checked > 100_000, "only {checked} sequences checked");
}
