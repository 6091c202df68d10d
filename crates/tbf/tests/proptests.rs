//! Property-based tests for the TBF substrate.
//!
//! Invariants checked against randomized rule sets and arrival sequences:
//!
//! * a bucket never exceeds its depth and refills at exactly its rate;
//! * a ruled queue never serves more than `rate·window + depth` RPCs in any
//!   window (rate compliance);
//! * FCFS within each job;
//! * work conservation: the scheduler never reports `Idle`/`WaitUntil`
//!   while the fallback queue holds work;
//! * all enqueued RPCs are eventually served once time advances far enough;
//! * a rule transaction (stops + starts + re-rates in one batch) leaves the
//!   scheduler exactly where the same mutations applied one at a time do.

use adaptbf_model::{ClientId, JobId, ProcId, Rpc, RpcId, RuleId, SimTime, TbfSchedulerConfig};
use adaptbf_tbf::{NrsTbfScheduler, RpcMatcher, RuleSpec, SchedDecision, TokenBucket};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn rpc(id: u64, job: u32, at: SimTime) -> Rpc {
    Rpc::new(RpcId(id), JobId(job), ClientId(0), ProcId(0), at)
}

/// Jobs the transaction histories draw from — few enough that several
/// rules name the same job and a queue sees several rules over a history
/// (a multi-stop transaction then has a backlog hop from one stopped rule
/// under another before it is released); enough that most multi-stop
/// transactions also stop rules of different jobs.
const TXN_JOBS: u32 = 12;

/// A rule from two random words.
fn txn_spec(a: u32, b: u32) -> RuleSpec {
    RuleSpec {
        name: Some(format!("r{a}.{b}")),
        matcher: RpcMatcher::Job(JobId(a % TXN_JOBS)),
        rate_tps: 5.0 + (a % 40) as f64 * 5.0,
        weight: 1 + b % 4,
    }
}

/// Replay a random history of arrivals, serves and single-rule mutations,
/// then park a burst on every job so the transaction under test meets a
/// standing fallback backlog *and* non-empty ruled queues. Returns the
/// scheduler, its live rules in start order, and the history's last
/// instant.
fn txn_history(ops: &[(u32, u32, u32)]) -> (NrsTbfScheduler, Vec<RuleId>, SimTime) {
    let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
    let mut live = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut arrive = |s: &mut NrsTbfScheduler, a: u32, now: SimTime| {
        s.enqueue(rpc(next_id, a % TXN_JOBS, now), now);
        next_id += 1;
    };
    for &(op, a, b) in ops {
        match op % 10 {
            0..=4 => arrive(&mut s, a, now),
            5 => {
                now = t(now.as_nanos() / 1_000_000 + (a % 40) as u64);
                for _ in 0..b % 4 {
                    s.next(now);
                }
            }
            6 | 7 => {
                let r = txn_spec(a, b);
                live.push(s.start_rule(r.name.unwrap(), r.matcher, r.rate_tps, r.weight, now));
            }
            8 if !live.is_empty() => {
                let id = live.remove(a as usize % live.len());
                s.stop_rule(id, now).unwrap();
            }
            9 if !live.is_empty() => {
                let id = live[a as usize % live.len()];
                s.apply_updates(&[(id, 5.0 + (b % 50) as f64, 1 + a % 4)], now)
                    .unwrap();
            }
            _ => {}
        }
    }
    for i in 0..4 * TXN_JOBS {
        arrive(&mut s, i, now);
    }
    (s, live, now)
}

/// The oracle: the same mutations, one rule at a time, in the order the
/// Rule Management Daemon has always issued them.
fn one_at_a_time(
    s: &mut NrsTbfScheduler,
    stops: &[RuleId],
    starts: &[RuleSpec],
    updates: &[(RuleId, f64, u32)],
    now: SimTime,
) -> Vec<RuleId> {
    for &id in stops {
        s.stop_rule(id, now).unwrap();
    }
    let started = starts
        .iter()
        .cloned()
        .map(|r| s.start_rule(r.name.unwrap(), r.matcher, r.rate_tps, r.weight, now))
        .collect();
    s.apply_updates(updates, now).unwrap();
    started
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transaction_equals_one_rule_at_a_time(
        ops in proptest::collection::vec((0u32..10, 0u32..64, 0u32..64), 0..120),
        stop_mask in 0u32..1 << 16,
        starts in proptest::collection::vec((0u32..64, 0u32..64), 0..6),
        update_mask in 0u32..1 << 16,
        rates in (1u32..60, 1u32..5),
    ) {
        let (mut batch, live, now) = txn_history(&ops);
        let (mut oracle, live_o, _) = txn_history(&ops);
        prop_assert_eq!(&live, &live_o, "histories replay identically");
        let picked = |mask: u32, i: usize| mask >> (i % 16) & 1 == 1;
        let stops: Vec<RuleId> =
            live.iter().enumerate().filter(|(i, _)| picked(stop_mask, *i)).map(|(_, id)| *id).collect();
        let updates: Vec<(RuleId, f64, u32)> = live
            .iter()
            .enumerate()
            .filter(|(i, _)| !picked(stop_mask, *i) && picked(update_mask, *i))
            .map(|(i, id)| (*id, (rates.0 * (1 + i as u32 % 3)) as f64, rates.1))
            .collect();
        let starts: Vec<RuleSpec> = starts.iter().map(|&(a, b)| txn_spec(a, b)).collect();

        let ids = batch.transact(&stops, starts.iter().cloned(), &updates, now).unwrap();
        let ids_o = one_at_a_time(&mut oracle, &stops, &starts, &updates, now);
        prop_assert_eq!(ids, ids_o);
        prop_assert_eq!(batch.rules().rules(), oracle.rules().rules());

        // Same state, read every way the scheduler can be read...
        let same_state = |a: &NrsTbfScheduler, b: &NrsTbfScheduler| {
            let (sa, sb) = (a.stats(), b.stats());
            (sa.served_ruled, sa.served_fallback, sa.served_by_job)
                == (sb.served_ruled, sb.served_fallback, sb.served_by_job)
                && (a.pending_ruled(), a.pending_fallback())
                    == (b.pending_ruled(), b.pending_fallback())
                && (0..TXN_JOBS).all(|j| a.queue_depth(JobId(j)) == b.queue_depth(JobId(j)))
        };
        prop_assert!(same_state(&batch, &oracle), "state differs right after the transaction");
        // ...and the same dispatch order to exhaustion: at the transaction
        // instant, a little later, a period later, then following waits.
        let ms = now.as_nanos() / 1_000_000;
        for at in [now, t(ms + 7), t(ms + 100)] {
            loop {
                let (d, d_o) = (batch.next(at), oracle.next(at));
                prop_assert_eq!(d, d_o, "dispatch diverged at {}", at);
                if !matches!(d, SchedDecision::Serve(_)) {
                    break;
                }
            }
            prop_assert!(same_state(&batch, &oracle), "state differs at {at}");
        }
        let mut at = t(ms + 100);
        loop {
            let (d, d_o) = (batch.next(at), oracle.next(at));
            prop_assert_eq!(d, d_o, "dispatch diverged at {}", at);
            match d {
                SchedDecision::Serve(_) => {}
                SchedDecision::WaitUntil(until) => at = until,
                SchedDecision::Idle => break,
            }
        }
        prop_assert!(same_state(&batch, &oracle), "state differs after the drain");
    }

    #[test]
    fn bucket_never_exceeds_depth(
        rate in 0.1f64..2000.0,
        depth in 1u64..10,
        times in proptest::collection::vec(0u64..100_000u64, 1..50),
    ) {
        let mut b = TokenBucket::new(rate, depth, SimTime::ZERO);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for ms in sorted {
            let avail = b.available(t(ms));
            prop_assert!(avail <= depth as f64 + 1e-9, "tokens {avail} > depth {depth}");
            prop_assert!(avail >= 0.0);
        }
    }

    #[test]
    fn bucket_refill_matches_rate(
        rate in 1.0f64..1000.0,
        gap_ms in 1u64..5_000,
    ) {
        let mut b = TokenBucket::new_empty(rate, u64::MAX >> 1, SimTime::ZERO);
        let earned = b.available(t(gap_ms));
        let expect = rate * gap_ms as f64 / 1e3;
        prop_assert!((earned - expect).abs() < 1e-6, "earned {earned}, expected {expect}");
    }

    #[test]
    fn rate_compliance_over_any_window(
        rate in 5.0f64..200.0,
        n_rpcs in 10usize..200,
    ) {
        // One job, one rule, a deep backlog from t=0: the number served by
        // time T must be ≤ depth + rate·T (+1 slack for boundary arithmetic).
        let depth = 3u64;
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig { bucket_depth: depth });
        s.start_rule("r", RpcMatcher::Job(JobId(1)), rate, 1, SimTime::ZERO);
        for i in 0..n_rpcs {
            s.enqueue(rpc(i as u64, 1, SimTime::ZERO), SimTime::ZERO);
        }
        let mut now = SimTime::ZERO;
        let mut served = 0u64;
        loop {
            match s.next(now) {
                SchedDecision::Serve(_) => {
                    served += 1;
                    let budget = depth as f64 + rate * now.as_secs_f64() + 1.0;
                    prop_assert!(
                        (served as f64) <= budget,
                        "served {served} exceeds budget {budget} at {now}"
                    );
                }
                SchedDecision::WaitUntil(d) => {
                    prop_assert!(d > now, "wait must move time forward");
                    now = d;
                }
                SchedDecision::Idle => break,
            }
            if served as usize == n_rpcs {
                break;
            }
        }
        prop_assert_eq!(served as usize, n_rpcs, "all RPCs eventually served");
    }

    #[test]
    fn fcfs_within_each_job(
        jobs in proptest::collection::vec(1u32..4u32, 1..100),
        rates in proptest::collection::vec(10.0f64..500.0, 3),
    ) {
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        for (i, rate) in rates.iter().enumerate() {
            s.start_rule(
                format!("j{}", i + 1),
                RpcMatcher::Job(JobId(i as u32 + 1)),
                *rate,
                1,
                SimTime::ZERO,
            );
        }
        for (i, job) in jobs.iter().enumerate() {
            s.enqueue(rpc(i as u64, *job, SimTime::ZERO), SimTime::ZERO);
        }
        let mut now = SimTime::ZERO;
        let mut last_seen: BTreeMap<JobId, u64> = BTreeMap::new();
        let mut served = 0;
        while served < jobs.len() {
            match s.next(now) {
                SchedDecision::Serve(r) => {
                    served += 1;
                    if let Some(prev) = last_seen.insert(r.job, r.id.raw()) {
                        prop_assert!(r.id.raw() > prev, "FCFS violated for {}", r.job);
                    }
                }
                SchedDecision::WaitUntil(d) => now = d,
                SchedDecision::Idle => prop_assert!(false, "idle with work pending"),
            }
        }
    }

    #[test]
    fn fallback_never_starves_while_capacity_idle(
        ruled in proptest::collection::vec(0u64..20u64, 1..40),
        unruled in 1usize..20,
    ) {
        // Job 1 ruled at a very low rate; job 2 unruled. Every time the
        // scheduler cannot serve job 1 it must hand out job 2's RPCs rather
        // than waiting.
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        s.start_rule("slow", RpcMatcher::Job(JobId(1)), 1.0, 1, SimTime::ZERO);
        let mut id = 0u64;
        for _ in &ruled {
            s.enqueue(rpc(id, 1, SimTime::ZERO), SimTime::ZERO);
            id += 1;
        }
        for _ in 0..unruled {
            s.enqueue(rpc(id, 2, SimTime::ZERO), SimTime::ZERO);
            id += 1;
        }
        let mut fallback_served = 0usize;
        while let SchedDecision::Serve(r) = s.next(SimTime::ZERO) {
            if r.job == JobId(2) {
                fallback_served += 1;
            }
        }
        prop_assert_eq!(
            fallback_served, unruled,
            "fallback backlog must drain while ruled queue is throttled"
        );
    }

    #[test]
    fn pending_accounting_is_exact(
        arrivals in proptest::collection::vec((0u32..5u32, 0u64..2_000u64), 1..120),
    ) {
        // Jobs 0-1 unruled, jobs 2-4 ruled.
        let mut s = NrsTbfScheduler::new(TbfSchedulerConfig::default());
        for j in 2..5u32 {
            s.start_rule(format!("j{j}"), RpcMatcher::Job(JobId(j)), 100.0, 1, SimTime::ZERO);
        }
        let mut sorted = arrivals.clone();
        sorted.sort_by_key(|(_, ms)| *ms);
        let mut enqueued = 0usize;
        let mut served = 0usize;
        let mut now = SimTime::ZERO;
        for (job, ms) in sorted {
            now = t(ms.max(now.as_nanos() / 1_000_000));
            s.enqueue(rpc(enqueued as u64, job, now), now);
            enqueued += 1;
            // Serve at most one RPC between arrivals.
            if let SchedDecision::Serve(_) = s.next(now) {
                served += 1;
            }
            prop_assert_eq!(s.pending(), enqueued - served);
        }
    }
}
