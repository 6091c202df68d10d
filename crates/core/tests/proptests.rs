//! Property-based tests for the AdapTBF allocation algorithm.
//!
//! Randomized multi-period runs with churning active sets must uphold:
//!
//! * **work conservation** — every period distributes exactly its integer
//!   budget across active jobs;
//! * **ledger conservation** — the sum of all lending/borrowing records is
//!   always zero;
//! * **no over-reclaim** — a borrower's allocation never goes negative
//!   (u64 arithmetic would panic) and reclaim never exceeds its debt;
//! * **long-run priority fairness** — with all jobs saturated, cumulative
//!   grants converge to the node-share ratios;
//! * **determinism** — identical inputs yield identical outcomes.

use adaptbf_core::{AllocationController, JobLedger, LedgerEntry};
use adaptbf_model::config::paper;
use adaptbf_model::{JobId, JobObservation};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One random period: per-job demand (0 = inactive that period).
fn demand_seq(n_jobs: usize, periods: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u64..400, n_jobs..=n_jobs),
        periods..=periods,
    )
}

fn observations(nodes: &[u64], demands: &[u64]) -> Vec<JobObservation> {
    nodes
        .iter()
        .zip(demands)
        .enumerate()
        .map(|(i, (n, d))| JobObservation::new(JobId(i as u32 + 1), *n, *d))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn budget_conservation_and_ledger_invariant(
        nodes in proptest::collection::vec(1u64..32, 2..6),
        seq in demand_seq(5, 30),
    ) {
        let n = nodes.len();
        let mut c = AllocationController::new(paper::adaptbf());
        for demands in &seq {
            let out = c.step(&observations(&nodes, &demands[..n]));
            let active: u64 = demands[..n].iter().filter(|d| **d > 0).count() as u64;
            if active > 0 {
                prop_assert_eq!(
                    out.trace.total_allocated(),
                    out.trace.budget,
                    "period {} must hand out its whole budget",
                    out.trace.period
                );
            } else {
                prop_assert!(out.allocations.is_empty());
            }
            prop_assert_eq!(c.ledger().record_sum(), 0, "ledger must balance");
            // Redistribution/re-compensation conserve the step totals too.
            let sum_rd: u64 = out.trace.jobs.iter().map(|j| j.after_redistribution).sum();
            let sum_init: u64 = out.trace.jobs.iter().map(|j| j.initial).sum();
            prop_assert_eq!(sum_rd, sum_init, "redistribution conserves tokens");
        }
    }

    #[test]
    fn reclaim_never_exceeds_debt_or_allocation(
        nodes in proptest::collection::vec(1u64..32, 2..6),
        seq in demand_seq(5, 25),
    ) {
        let n = nodes.len();
        let mut c = AllocationController::new(paper::adaptbf());
        for demands in &seq {
            let out = c.step(&observations(&nodes, &demands[..n]));
            for j in &out.trace.jobs {
                if j.borrower {
                    prop_assert!(
                        j.reclaimed as i64 <= -j.record_after_redistribution,
                        "reclaim {} exceeds debt {}",
                        j.reclaimed,
                        -j.record_after_redistribution
                    );
                    prop_assert!(j.reclaimed <= j.after_redistribution);
                }
                // Lender records only shrink during re-compensation. Note
                // an individual lender MAY be over-repaid (Eq 19 shares
                // T_R by DF with no per-lender bound) — only the lender
                // total is bounded, checked below.
                if j.lender {
                    prop_assert!(j.record_after <= j.record_after_redistribution);
                }
            }
            let repaid: i64 = out
                .trace
                .jobs
                .iter()
                .filter(|j| j.lender)
                .map(|j| j.record_after_redistribution - j.record_after)
                .sum();
            prop_assert_eq!(
                repaid,
                out.trace.total_reclaimed as i64,
                "lenders collectively receive exactly T_R"
            );
        }
    }

    #[test]
    fn saturated_jobs_converge_to_priority_shares(
        nodes in proptest::collection::vec(1u64..16, 2..5),
    ) {
        let n = nodes.len();
        let mut c = AllocationController::new(paper::adaptbf());
        let demands = vec![10_000u64; n];
        let mut cumulative = vec![0u64; n];
        let periods = 50;
        for _ in 0..periods {
            let out = c.step(&observations(&nodes, &demands));
            for a in &out.allocations {
                cumulative[(a.job.raw() - 1) as usize] += a.tokens;
            }
        }
        let total_nodes: u64 = nodes.iter().sum();
        let total_tokens: u64 = cumulative.iter().sum();
        for i in 0..n {
            let expect = total_tokens as f64 * nodes[i] as f64 / total_nodes as f64;
            let got = cumulative[i] as f64;
            // Within one token per period of the exact proportional share.
            prop_assert!(
                (got - expect).abs() <= periods as f64,
                "job {} got {got}, expected ≈{expect}",
                i + 1
            );
        }
    }

    #[test]
    fn deterministic_across_reruns(
        nodes in proptest::collection::vec(1u64..32, 2..5),
        seq in demand_seq(4, 12),
    ) {
        let n = nodes.len();
        let run = || {
            let mut c = AllocationController::new(paper::adaptbf());
            let mut sink = Vec::new();
            for demands in &seq {
                let out = c.step(&observations(&nodes, &demands[..n]));
                sink.push(out.allocations);
            }
            sink
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn remainders_stay_bounded(
        nodes in proptest::collection::vec(1u64..32, 2..6),
        seq in demand_seq(5, 40),
    ) {
        let n = nodes.len();
        let mut c = AllocationController::new(paper::adaptbf());
        for demands in &seq {
            c.step(&observations(&nodes, &demands[..n]));
            for (job, e) in c.ledger().iter() {
                prop_assert!(
                    e.remainder.abs() < 2.0,
                    "remainder for {job} drifted to {}",
                    e.remainder
                );
            }
        }
    }

    #[test]
    fn ablations_never_overshoot_budget(
        nodes in proptest::collection::vec(1u64..32, 2..5),
        seq in demand_seq(4, 15),
        redis in any::<bool>(),
        recomp in any::<bool>(),
        remainders in any::<bool>(),
    ) {
        let n = nodes.len();
        let mut cfg = paper::adaptbf();
        cfg.enable_redistribution = redis;
        cfg.enable_recompensation = recomp;
        cfg.enable_remainders = remainders;
        let mut c = AllocationController::new(cfg);
        for demands in &seq {
            let out = c.step(&observations(&nodes, &demands[..n]));
            // Whatever is disabled, the OST must never promise more than
            // T_i·Δt (+1 for the budget-carry token).
            prop_assert!(
                out.trace.total_allocated() <= out.trace.budget + 1,
                "overshoot: {} > {}",
                out.trace.total_allocated(),
                out.trace.budget
            );
        }
    }

    /// The sink form against the collecting wrapper: the same traces in
    /// the same order, and a sink that throws them away changes nothing
    /// the controller keeps or returns.
    #[test]
    fn step_equals_step_into_with_any_sink(
        nodes in proptest::collection::vec(1u64..32, 2..6),
        seq in demand_seq(5, 25),
    ) {
        let n = nodes.len();
        let mut collecting = AllocationController::new(paper::adaptbf());
        let mut sinking = collecting.clone();
        let mut discarding = collecting.clone();
        for demands in &seq {
            let obs = observations(&nodes, &demands[..n]);
            let want = collecting.step(&obs);
            let mut jobs = Vec::new();
            let mut got = sinking.step_into(&obs, |jt| jobs.push(*jt));
            prop_assert!(got.trace.jobs.is_empty(), "the sink got them instead");
            got.trace.jobs = jobs;
            prop_assert_eq!(&got.trace, &want.trace);
            prop_assert_eq!(&got.allocations, &want.allocations);
            let dropped = discarding.step_into(&obs, |_| {});
            prop_assert_eq!(&dropped.allocations, &want.allocations);
            prop_assert!(discarding.ledger() == collecting.ledger());
            prop_assert!(sinking.ledger() == collecting.ledger());
        }
    }

    /// The slot-indexed ledger against a `BTreeMap<JobId, LedgerEntry>`
    /// under random `entry`/`get`/`iter`/`record_sum` histories over ids
    /// on both sides of the interner's dense limit (65,536), and `==`
    /// against a ledger that met the same jobs in another order.
    #[test]
    fn ledger_equals_a_btreemap_model(
        ops in proptest::collection::vec((0u32..4, 0u32..12, 0u64..100), 1..120),
    ) {
        let job = |k: u32| JobId(if k % 3 == 2 { (1 << 16) + 7 * k } else { 40 - 3 * k });
        let mut ledger = JobLedger::new();
        let mut model: BTreeMap<JobId, LedgerEntry> = BTreeMap::new();
        for (op, k, v) in ops {
            let (j, v) = (job(k), v as i64 - 50);
            match op {
                0 | 1 => {
                    let (e, m) = (ledger.entry(j), model.entry(j).or_default());
                    prop_assert_eq!(*e, *m);
                    e.record += v;
                    e.last_alloc = v.unsigned_abs();
                    e.last_active_period = Some(k as u64);
                    *m = *e;
                }
                2 => {
                    prop_assert_eq!(ledger.get(j), model.get(&j));
                    prop_assert_eq!(ledger.record(j), model.get(&j).map_or(0, |e| e.record));
                    let prev = model.get(&j).map_or(0, |e| e.previous_alloc(k as u64));
                    prop_assert_eq!(ledger.previous_alloc(j, k as u64), prev);
                }
                _ => {
                    // The same entries met in descending job order.
                    let mut other = JobLedger::new();
                    for (j, e) in model.iter().rev() {
                        *other.entry(*j) = *e;
                    }
                    prop_assert!(other == ledger);
                    other.entry(j).record += 1;
                    prop_assert!(other != ledger, "a differing or extra entry");
                }
            }
            prop_assert!(ledger.iter().eq(model.iter().map(|(j, e)| (*j, e))), "job order");
            prop_assert_eq!(ledger.record_sum(), model.values().map(|e| e.record).sum::<i64>());
            prop_assert_eq!((ledger.len(), ledger.is_empty()), (model.len(), model.is_empty()));
        }
    }
}
