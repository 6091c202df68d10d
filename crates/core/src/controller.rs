//! The per-OST allocation controller: orchestrates the three steps of
//! Section III-C over the persistent [`JobLedger`].
//!
//! One instance runs per storage target, fed only local observations —
//! this *is* the decentralization story of the paper: no instance ever
//! sees another OST's state.

use crate::allocation::{
    distribution_factors, future_utilization_forecast, initial_raw, priorities,
    reclaim_coefficient, reclaimable, shares, surpluses, utilization,
};
use crate::ledger::JobLedger;
use crate::remainder::{floor_only, integerize, Integerized};
use crate::trace::{AllocationTrace, JobTrace};
use adaptbf_model::{AdapTbfConfig, JobAllocation, JobObservation};

/// Result of one control period: the grants to apply plus full diagnostics.
#[derive(Debug, Clone, Default)]
pub struct AllocationOutcome {
    /// Whole-token grants (and equivalent TBF rates) per active job.
    pub allocations: Vec<JobAllocation>,
    /// Every intermediate quantity (for figures, tests, explainability).
    pub trace: AllocationTrace,
}

/// The AdapTBF token allocation algorithm with its persistent state.
#[derive(Debug, Clone)]
pub struct AllocationController {
    config: AdapTbfConfig,
    ledger: JobLedger,
    period: u64,
    /// Fractional part of `T_i·Δt` carried across periods so long-run
    /// budgets are exact (DESIGN.md §3.5).
    budget_carry: f64,
    scratch: Scratch,
}

/// One period's working vectors (parallel arrays indexed by active-job
/// position), kept between periods so a step allocates only what it
/// returns.
#[derive(Debug, Clone, Default)]
struct Scratch {
    obs: Vec<JobObservation>,
    nodes: Vec<u64>,
    demand: Vec<u64>,
    /// What the period reads from each active job's ledger entry, which is
    /// fetched once when the period starts and once more to store the
    /// outcome: `ρ_x`, `α^{t-1}_x`, `r_x` and the forecast `d̄_x`.
    carries: Vec<f64>,
    prev_alloc: Vec<u64>,
    record_before: Vec<i64>,
    forecasts: Vec<f64>,
    prio: Vec<f64>,
    raw: Vec<f64>,
    a1: Vec<u64>,
    util: Vec<f64>,
    df: Vec<f64>,
    surplus: Vec<u64>,
    gains: Vec<u64>,
    future_util: Vec<f64>,
    reclaimed: Vec<u64>,
    comp_gain: Vec<u64>,
    lender_terms: Vec<(f64, f64, f64)>,
    lender_idx: Vec<usize>,
    df_l: Vec<f64>,
    prio_l: Vec<f64>,
    carry_l: Vec<f64>,
    integerized: Integerized,
}

impl AllocationController {
    /// New controller for one OST.
    pub fn new(config: AdapTbfConfig) -> Self {
        AllocationController {
            config,
            ledger: JobLedger::new(),
            period: 0,
            budget_carry: 0.0,
            scratch: Scratch::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdapTbfConfig {
        &self.config
    }

    /// Read-only view of the Job Records store.
    pub fn ledger(&self) -> &JobLedger {
        &self.ledger
    }

    /// Periods executed so far.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The fraction of `T_i·Δt` carried into the next period's budget,
    /// in `[0, 1)`.
    pub fn budget_carry(&self) -> f64 {
        self.budget_carry
    }

    /// Run one observation period: consume the stats the System Stats
    /// Controller collected and produce the grants the Rule Management
    /// Daemon should apply for the next `Δt`.
    ///
    /// Jobs with zero observed demand are not *active* (Section III-C-1)
    /// and receive no allocation; their ledger state is untouched.
    ///
    /// This is [`AllocationController::step_into`] with a sink that keeps
    /// every [`JobTrace`] in `trace.jobs`.
    pub fn step(&mut self, observations: &[JobObservation]) -> AllocationOutcome {
        let mut jobs = Vec::new();
        let mut outcome = self.step_into(observations, |jt| jobs.push(*jt));
        outcome.trace.jobs = jobs;
        outcome
    }

    /// [`AllocationController::step`] with the per-job diagnostics handed
    /// to `sink`, one [`JobTrace`] per active job in job order, instead of
    /// collected: the returned outcome's `trace.jobs` is empty. A caller
    /// that reads two of the trace's fields (the control plane's gauges)
    /// pays for those two, not for a vector of all twenty-one.
    pub fn step_into(
        &mut self,
        observations: &[JobObservation],
        mut sink: impl FnMut(&JobTrace),
    ) -> AllocationOutcome {
        let period = self.period;
        self.period += 1;
        let AllocationController {
            config,
            ledger,
            budget_carry,
            scratch,
            ..
        } = self;
        let Scratch {
            obs,
            nodes,
            demand,
            carries,
            prev_alloc,
            record_before,
            forecasts,
            prio,
            raw,
            a1,
            util,
            df,
            surplus,
            gains,
            future_util,
            reclaimed,
            comp_gain,
            lender_terms,
            lender_idx,
            df_l,
            prio_l,
            carry_l,
            integerized,
        } = scratch;

        // Active set, deterministic order, duplicates merged defensively.
        obs.clear();
        obs.extend(observations.iter().filter(|o| o.demand_rpcs > 0));
        obs.sort_by_key(|o| o.job);
        obs.dedup_by(|b, a| {
            if a.job == b.job {
                a.demand_rpcs += b.demand_rpcs;
                true
            } else {
                false
            }
        });
        if obs.is_empty() {
            return AllocationOutcome {
                allocations: Vec::new(),
                trace: AllocationTrace {
                    period,
                    ..Default::default()
                },
            };
        }
        let n = obs.len();
        nodes.clear();
        nodes.extend(obs.iter().map(|o| o.nodes));
        demand.clear();
        demand.extend(obs.iter().map(|o| o.demand_rpcs));

        // Integer budget for this period.
        let real_budget = config.tokens_per_period();
        let budget = if config.enable_remainders {
            let with_carry = real_budget + *budget_carry;
            let b = with_carry.floor();
            *budget_carry = with_carry - b;
            b as u64
        } else {
            real_budget.floor() as u64
        };

        // Everything the period reads from the Job Records store, one
        // lookup per active job: the fractional remainder (Eq 21–25
        // state), the previous period's grant (Eq 3), the record, and the
        // demand forecast for Eq (11) (extension hook; the paper's mode
        // reduces to d̄ = d_t), whose state takes this period's observation.
        let forecast_mode = config.forecast;
        let previous_period = period.checked_sub(1);
        carries.clear();
        prev_alloc.clear();
        record_before.clear();
        forecasts.clear();
        for o in obs.iter() {
            let entry = ledger.entry(o.job);
            entry.forecast.observe(o.demand_rpcs, forecast_mode);
            forecasts.push(entry.forecast.predict(o.demand_rpcs, forecast_mode));
            carries.push(if config.enable_remainders {
                entry.remainder
            } else {
                0.0
            });
            prev_alloc.push(previous_period.map_or(0, |prev| entry.previous_alloc(prev)));
            record_before.push(entry.record);
        }

        // ---- Step 1: priority-based initial allocation (Eq 1–2) --------
        priorities(nodes, prio);
        initial_raw(prio, budget as f64, raw);
        if config.enable_remainders {
            integerize(raw, carries, budget, integerized);
            std::mem::swap(a1, &mut integerized.grants);
        } else {
            floor_only(raw, a1);
        }

        // Utilization of the previous period's grant (Eq 3).
        utilization(demand, prev_alloc, config.utilization_cap, util);
        distribution_factors(util, prio, df);

        // ---- Step 2: redistribution of surplus tokens (Eq 4–8) ---------
        let mut total_surplus = 0;
        refill(gains, n, 0);
        if config.enable_redistribution {
            surpluses(a1, demand, surplus);
            total_surplus = surplus.iter().sum();
            if total_surplus > 0 {
                shares(df, total_surplus, prio, raw);
                if config.enable_remainders {
                    integerize(raw, carries, total_surplus, integerized);
                    std::mem::swap(gains, &mut integerized.grants);
                } else {
                    floor_only(raw, gains);
                }
            }
        } else {
            refill(surplus, n, 0);
        }
        let a2 = |i: usize| a1[i] - surplus[i] + gains[i];
        let record_rd = |i: usize| record_before[i] + surplus[i] as i64 - gains[i] as i64;

        // ---- Step 3: re-compensation for borrowed tokens (Eq 9–20) -----
        let lender = |i: usize| record_before[i] > 0 && record_rd(i) > 0;
        let borrower = |i: usize| record_before[i] < 0 && record_rd(i) < 0;
        let any_lender = (0..n).any(lender);
        let any_borrower = (0..n).any(borrower);

        refill(future_util, n, 0.0);
        refill(reclaimed, n, 0);
        refill(comp_gain, n, 0);
        let mut c_raw = 0.0;
        let mut c = 0.0;
        let mut total_reclaimed = 0u64;

        if config.enable_recompensation && any_lender && any_borrower {
            lender_terms.clear();
            for i in (0..n).filter(|i| lender(*i)) {
                future_util[i] = future_utilization_forecast(forecasts[i], a2(i));
                lender_terms.push((prio[i], util[i], future_util[i]));
            }
            c_raw = reclaim_coefficient(lender_terms, config.enable_future_estimate);
            // Clamp so a borrower is never driven below zero (DESIGN.md §3.1).
            c = c_raw.clamp(0.0, 1.0);

            for i in (0..n).filter(|i| borrower(*i)) {
                reclaimed[i] = reclaimable(record_rd(i), c, a2(i));
                total_reclaimed += reclaimed[i];
            }

            if total_reclaimed > 0 {
                // RF = DF (Eq 18), restricted to the lender set.
                lender_idx.clear();
                lender_idx.extend((0..n).filter(|i| lender(*i)));
                df_l.clear();
                df_l.extend(lender_idx.iter().map(|i| df[*i]));
                prio_l.clear();
                prio_l.extend(lender_idx.iter().map(|i| prio[*i]));
                shares(df_l, total_reclaimed, prio_l, raw);
                if config.enable_remainders {
                    carry_l.clear();
                    carry_l.extend(lender_idx.iter().map(|i| carries[*i]));
                    integerize(raw, carry_l, total_reclaimed, integerized);
                    for (k, i) in lender_idx.iter().enumerate() {
                        carries[*i] = carry_l[k];
                    }
                } else {
                    floor_only(raw, &mut integerized.grants);
                }
                for (k, i) in lender_idx.iter().enumerate() {
                    comp_gain[*i] = integerized.grants[k];
                }
            }
        }

        // ---- Persist & emit --------------------------------------------
        let period_secs = config.period.as_secs_f64();
        let mut allocations = Vec::with_capacity(n);
        for i in 0..n {
            let job = obs[i].job;
            let a3 = a2(i) - reclaimed[i] + comp_gain[i];
            let record_after = record_rd(i) + reclaimed[i] as i64 - comp_gain[i] as i64;
            let entry = ledger.entry(job);
            entry.record = record_after;
            if config.enable_remainders {
                entry.remainder = carries[i];
            }
            entry.last_alloc = a3;
            entry.last_active_period = Some(period);

            allocations.push(JobAllocation {
                job,
                tokens: a3,
                rate_tps: a3 as f64 / period_secs,
            });
            sink(&JobTrace {
                job,
                nodes: nodes[i],
                demand: demand[i],
                priority: prio[i],
                utilization: util[i],
                initial: a1[i],
                surplus: surplus[i],
                distribution_factor: df[i],
                redistribution_gain: gains[i],
                after_redistribution: a2(i),
                record_before: record_before[i],
                record_after_redistribution: record_rd(i),
                lender: lender(i),
                borrower: borrower(i),
                future_utilization: future_util[i],
                reclaimed: reclaimed[i],
                compensation_gain: comp_gain[i],
                after_recompensation: a3,
                record_after,
                remainder_after: carries[i],
            });
        }

        AllocationOutcome {
            allocations,
            trace: AllocationTrace {
                period,
                budget,
                total_surplus,
                reclaim_coefficient: c,
                reclaim_coefficient_raw: c_raw,
                total_reclaimed,
                jobs: Vec::new(),
            },
        }
    }
}

/// Make `v` hold `n` copies of `value`.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::config::paper;
    use adaptbf_model::JobId;

    fn obs(job: u32, nodes: u64, demand: u64) -> JobObservation {
        JobObservation::new(JobId(job), nodes, demand)
    }

    fn controller() -> AllocationController {
        AllocationController::new(paper::adaptbf())
    }

    fn tokens(out: &AllocationOutcome, job: u32) -> u64 {
        out.allocations
            .iter()
            .find(|a| a.job == JobId(job))
            .unwrap()
            .tokens
    }

    #[test]
    fn pure_priority_allocation_matches_eq2() {
        // Section IV-D priorities: 10/10/30/50 %, everyone saturated.
        let mut c = controller();
        let out = c.step(&[
            obs(1, 1, 1000),
            obs(2, 1, 1000),
            obs(3, 3, 1000),
            obs(4, 5, 1000),
        ]);
        assert_eq!(tokens(&out, 1), 10);
        assert_eq!(tokens(&out, 2), 10);
        assert_eq!(tokens(&out, 3), 30);
        assert_eq!(tokens(&out, 4), 50);
        assert_eq!(out.trace.total_allocated(), 100);
        assert_eq!(
            out.trace.total_surplus, 0,
            "no surplus when everyone is hungry"
        );
    }

    #[test]
    fn surplus_flows_to_deficit_job_and_is_recorded() {
        // Hand-computed example (DESIGN.md §3): equal priorities, job 1
        // nearly idle (d=10), job 2 hungry (d=200), budget 100.
        let mut c = controller();
        let out = c.step(&[obs(1, 5, 10), obs(2, 5, 200)]);
        let j1 = out.trace.job(JobId(1)).unwrap();
        let j2 = out.trace.job(JobId(2)).unwrap();
        // Initial 50/50; job 1 lends its 40 surplus; shares by DF
        // (u1=10 → DF=15, u2=100 capped → DF=150) give back 4/36.
        assert_eq!(j1.initial, 50);
        assert_eq!(j1.surplus, 40);
        assert_eq!(out.trace.total_surplus, 40);
        assert_eq!(j1.after_recompensation, 14);
        assert_eq!(j2.after_recompensation, 86);
        assert_eq!(j1.record_after, 36, "job 1 lent 36 net");
        assert_eq!(j2.record_after, -36, "job 2 borrowed 36");
        assert_eq!(out.trace.total_allocated(), 100, "work conserving");
        assert_eq!(c.ledger().record_sum(), 0);
    }

    #[test]
    fn lender_reclaims_on_burst() {
        // Continue the previous scenario: job 1 bursts (d=100) in period 2;
        // re-compensation must repay its 36 lent tokens at once
        // (hand-computed in DESIGN.md §3: C clamps to 1, reclaim = 36).
        let mut c = controller();
        c.step(&[obs(1, 5, 10), obs(2, 5, 200)]);
        let out = c.step(&[obs(1, 5, 100), obs(2, 5, 200)]);
        let j1 = out.trace.job(JobId(1)).unwrap();
        let j2 = out.trace.job(JobId(2)).unwrap();
        assert!(j1.lender && !j1.borrower);
        assert!(j2.borrower && !j2.lender);
        assert!((out.trace.reclaim_coefficient_raw - 25.0 / 14.0).abs() < 1e-9);
        assert_eq!(out.trace.reclaim_coefficient, 1.0, "clamped");
        assert_eq!(out.trace.total_reclaimed, 36);
        assert_eq!(j1.after_recompensation, 86);
        assert_eq!(j2.after_recompensation, 14);
        assert_eq!(j1.record_after, 0, "debt settled");
        assert_eq!(j2.record_after, 0);
        assert_eq!(c.ledger().record_sum(), 0);
    }

    #[test]
    fn reclaim_bounded_by_borrowed_amount() {
        // Job 2 only borrowed a little; a later burst by job 1 cannot take
        // more than that record.
        let mut c = controller();
        c.step(&[obs(1, 5, 45), obs(2, 5, 200)]); // small lend
        let first_record = c.ledger().record(JobId(1));
        assert!(
            first_record > 0 && first_record < 10,
            "small loan: {first_record}"
        );
        let out = c.step(&[obs(1, 5, 500), obs(2, 5, 500)]);
        assert_eq!(out.trace.total_reclaimed as i64, first_record);
        assert_eq!(c.ledger().record(JobId(1)), 0);
        assert_eq!(c.ledger().record(JobId(2)), 0);
    }

    #[test]
    fn inactive_jobs_get_nothing_but_keep_records() {
        let mut c = controller();
        c.step(&[obs(1, 5, 10), obs(2, 5, 200)]);
        let r1 = c.ledger().record(JobId(1));
        assert!(r1 > 0);
        // Job 1 goes silent; only job 2 is active.
        let out = c.step(&[obs(1, 5, 0), obs(2, 5, 200)]);
        assert_eq!(out.allocations.len(), 1);
        assert_eq!(out.allocations[0].job, JobId(2));
        assert_eq!(tokens(&out, 2), 100, "sole active job gets the full budget");
        assert_eq!(
            c.ledger().record(JobId(1)),
            r1,
            "record untouched while idle"
        );
    }

    #[test]
    fn empty_active_set_allocates_nothing() {
        let mut c = controller();
        let out = c.step(&[obs(1, 5, 0)]);
        assert!(out.allocations.is_empty());
        assert_eq!(out.trace.period, 0);
        assert_eq!(c.period(), 1, "period still advances");
    }

    #[test]
    fn fractional_budget_is_exact_long_run() {
        // T·Δt = 99.5: budgets must alternate 99/100 and sum exactly.
        let cfg = paper::adaptbf().with_max_token_rate(995.0);
        let mut c = AllocationController::new(cfg);
        let mut total = 0u64;
        for _ in 0..10 {
            let out = c.step(&[obs(1, 1, 1000), obs(2, 1, 1000)]);
            total += out.trace.total_allocated();
            assert_eq!(out.trace.total_allocated(), out.trace.budget);
        }
        assert_eq!(total, 995);
    }

    #[test]
    fn remainders_even_out_odd_splits() {
        // Three equal jobs share 100 tokens: 33/33/34 rotating, exactly 100
        // each period and ~equal cumulative shares.
        let mut c = controller();
        let mut totals = [0u64; 3];
        for _ in 0..30 {
            let out = c.step(&[obs(1, 1, 1000), obs(2, 1, 1000), obs(3, 1, 1000)]);
            assert_eq!(out.trace.total_allocated(), 100);
            for (i, t) in totals.iter_mut().enumerate() {
                *t += tokens(&out, i as u32 + 1);
            }
        }
        assert_eq!(totals.iter().sum::<u64>(), 3000);
        for t in totals {
            assert_eq!(t, 1000, "long-run fairness: {totals:?}");
        }
    }

    #[test]
    fn redistribution_ablation_freezes_initial_allocation() {
        let mut cfg = paper::adaptbf();
        cfg.enable_redistribution = false;
        cfg.enable_recompensation = false;
        let mut c = AllocationController::new(cfg);
        let out = c.step(&[obs(1, 5, 10), obs(2, 5, 200)]);
        assert_eq!(tokens(&out, 1), 50, "static split despite idle job");
        assert_eq!(tokens(&out, 2), 50);
        assert_eq!(c.ledger().record_sum(), 0, "no exchanges, no records");
    }

    #[test]
    fn recompensation_ablation_lets_debt_linger() {
        let mut cfg = paper::adaptbf();
        cfg.enable_recompensation = false;
        let mut c = AllocationController::new(cfg);
        c.step(&[obs(1, 5, 10), obs(2, 5, 200)]);
        let r1 = c.ledger().record(JobId(1));
        assert!(r1 > 0);
        // Burst: without re-compensation the lender only gets its priority
        // share + any fresh surplus, and records keep drifting.
        let out = c.step(&[obs(1, 5, 100), obs(2, 5, 200)]);
        assert_eq!(out.trace.total_reclaimed, 0);
        assert!(out.trace.job(JobId(1)).unwrap().after_recompensation <= 50);
    }

    #[test]
    fn duplicate_observations_are_merged() {
        let mut c = controller();
        let out = c.step(&[obs(1, 5, 30), obs(1, 5, 20), obs(2, 5, 100)]);
        assert_eq!(out.allocations.len(), 2);
        assert_eq!(out.trace.job(JobId(1)).unwrap().demand, 50);
    }

    #[test]
    fn allocation_rate_matches_tokens_over_period() {
        let mut c = controller();
        let out = c.step(&[obs(1, 1, 1000), obs(2, 1, 1000)]);
        let a = &out.allocations[0];
        assert_eq!(a.tokens, 50);
        assert!(
            (a.rate_tps - 500.0).abs() < 1e-9,
            "50 tokens / 100 ms = 500 tps"
        );
    }

    #[test]
    fn a_period_looks_up_only_its_active_jobs() {
        // 4,096 jobs have been seen and idle in the ledger; a period with 8
        // active ones makes two lookups each — read, then store — however
        // many entries sit behind them.
        let mut c = controller();
        let crowd: Vec<JobObservation> = (0..4096).map(|j| obs(j, 1, 5)).collect();
        c.step(&crowd);
        assert_eq!(c.ledger().len(), 4096);
        let before = c.ledger.lookups;
        let active: Vec<JobObservation> = (0..8).map(|j| obs(j * 500, 1, 50)).collect();
        let out = c.step(&active);
        assert_eq!(out.allocations.len(), 8);
        assert_eq!(c.ledger.lookups - before, 16);
    }

    #[test]
    fn returning_job_treated_as_fresh_for_utilization() {
        let mut c = controller();
        c.step(&[obs(1, 1, 1000), obs(2, 1, 1000)]);
        c.step(&[obs(2, 1, 1000)]); // job 1 idle
        let out = c.step(&[obs(1, 1, 40), obs(2, 1, 1000)]);
        let j1 = out.trace.job(JobId(1)).unwrap();
        // prev_alloc treated as 0 → denominator 1 → u = d = 40.
        assert!((j1.utilization - 40.0).abs() < 1e-9);
    }
}
