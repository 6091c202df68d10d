//! The pure arithmetic of Section III-C, one function per equation.
//!
//! These functions are deliberately slice-in/slice-out (parallel arrays
//! indexed by active-job position) so each equation can be unit- and
//! property-tested in isolation; [`crate::AllocationController`]
//! orchestrates them and owns all persistent state. Every per-job result
//! is written into a caller-supplied `out` vector (cleared first), so the
//! controller runs a period without allocating them afresh.

/// Eq (1): `p_x = n_x / Σ n` over the active set. Zero node counts are
/// clamped to one (a job always occupies at least one node).
pub fn priorities(nodes: &[u64], out: &mut Vec<f64>) {
    let total: u64 = nodes.iter().map(|n| (*n).max(1)).sum();
    out.clear();
    out.extend(nodes.iter().map(|n| (*n).max(1) as f64 / total as f64));
}

/// Eq (2): `α_x = budget · p_x` — the priority-proportional raw shares of
/// this period's integer token budget.
pub fn initial_raw(priorities: &[f64], budget: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(priorities.iter().map(|p| p * budget));
}

/// Eq (3): `u_x = d_x / α^{t-1}_x`, guarded for jobs with no previous
/// allocation (denominator clamped to ≥1) and capped at `cap`
/// (DESIGN.md §3.2).
pub fn utilization(demand: &[u64], prev_alloc: &[u64], cap: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        demand
            .iter()
            .zip(prev_alloc)
            .map(|(d, a)| (*d as f64 / (*a).max(1) as f64).min(cap)),
    );
}

/// Eq (4): per-job surplus `T^x_s = max(0, α_x − d_x)` in whole tokens.
pub fn surpluses(initial: &[u64], demand: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(
        initial
            .iter()
            .zip(demand)
            .map(|(a, d)| a.saturating_sub(*d)),
    );
}

/// Eq (6): the distribution factor
/// `DF_x = u_x + u_x·p_x` when the job is in deficit (`u_x > 1`), else
/// `u_x·p_x`.
pub fn distribution_factors(utilization: &[f64], priorities: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        utilization
            .iter()
            .zip(priorities)
            .map(|(u, p)| if *u > 1.0 { u + u * p } else { u * p }),
    );
}

/// Proportional raw shares of an integer pool: `share_x = w_x / Σw · pool`.
/// If all weights vanish the `fallback` weights are used instead
/// (DESIGN.md §3.4); if those vanish too, the pool is split evenly.
pub fn shares(weights: &[f64], pool: u64, fallback: &[f64], out: &mut Vec<f64>) {
    assert_eq!(weights.len(), fallback.len());
    let pool = pool as f64;
    out.clear();
    let sum: f64 = weights.iter().sum();
    if sum > f64::EPSILON {
        return out.extend(weights.iter().map(|w| w / sum * pool));
    }
    let fsum: f64 = fallback.iter().sum();
    if fsum > f64::EPSILON {
        return out.extend(fallback.iter().map(|w| w / fsum * pool));
    }
    let n = weights.len().max(1) as f64;
    out.resize(weights.len(), pool / n);
}

/// Eq (12): estimated future utilization `ū_x = d_x / α_{x,RD}`, infinite
/// when the post-redistribution allocation is zero (so the
/// `max(0, 1 − ū)` term of Eq (13) vanishes).
pub fn future_utilization(demand: u64, alloc_rd: u64) -> f64 {
    future_utilization_forecast(demand as f64, alloc_rd)
}

/// Eq (11)/(12) with an arbitrary demand forecast `d̄(t+Δt)` (the paper's
/// persistence assumption is `d̄ = d_t`; see `ForecastMode`).
pub fn future_utilization_forecast(forecast: f64, alloc_rd: u64) -> f64 {
    if alloc_rd == 0 {
        f64::INFINITY
    } else {
        forecast / alloc_rd as f64
    }
}

/// Eq (13): the reclaim coefficient
/// `C = Σ_{x∈J+} (p_x · max(1, u_x) + max(0, 1 − ū_x)) / 2`, *not yet
/// clamped*. `lenders` carries `(p_x, u_x, ū_x)` per positive-record job.
/// With `include_future = false` (ablation) the `ū` term is dropped.
pub fn reclaim_coefficient(lenders: &[(f64, f64, f64)], include_future: bool) -> f64 {
    lenders
        .iter()
        .map(|(p, u, u_future)| {
            let future_term = if include_future {
                (1.0 - u_future).max(0.0)
            } else {
                0.0
            };
            (p * u.max(1.0) + future_term) / 2.0
        })
        .sum()
}

/// Eq (14): tokens reclaimable from one borrower —
/// `T^x_R = min(|r_x|, ⌊C · α_{x,RD}⌋)` with `C` already clamped by the
/// caller so the result never exceeds the borrower's allocation.
pub fn reclaimable(record_rd: i64, coefficient: f64, alloc_rd: u64) -> u64 {
    debug_assert!(record_rd < 0, "reclaim only applies to borrowers");
    let borrowed = record_rd.unsigned_abs();
    let by_coefficient = (coefficient * alloc_rd as f64).floor() as u64;
    borrowed.min(by_coefficient).min(alloc_rd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// What `fill` leaves in a vector that held stale values.
    fn filled<T: Default>(fill: impl FnOnce(&mut Vec<T>)) -> Vec<T> {
        let mut out = vec![T::default()];
        fill(&mut out);
        out
    }

    #[test]
    fn priorities_sum_to_one_and_match_eq1() {
        let p = filled(|out| priorities(&[1, 1, 3, 5], out));
        assert!(close(p.iter().sum::<f64>(), 1.0));
        assert!(close(p[0], 0.1));
        assert!(close(p[2], 0.3));
        assert!(close(p[3], 0.5));
    }

    #[test]
    fn priorities_clamp_zero_nodes() {
        let p = filled(|out| priorities(&[0, 1], out));
        assert!(close(p[0], 0.5));
    }

    #[test]
    fn initial_raw_scales_budget() {
        let raw = filled(|out| initial_raw(&[0.1, 0.9], 100.0, out));
        assert!(close(raw[0], 10.0));
        assert!(close(raw[1], 90.0));
    }

    #[test]
    fn utilization_guards_and_caps() {
        let u = filled(|out| utilization(&[50, 10, 500], &[25, 0, 1], 100.0, out));
        assert!(close(u[0], 2.0)); // 50/25
        assert!(close(u[1], 10.0)); // denominator clamped to 1
        assert!(close(u[2], 100.0)); // capped
    }

    #[test]
    fn surpluses_match_eq4() {
        assert_eq!(
            filled(|out| surpluses(&[50, 30], &[10, 200], out)),
            vec![40, 0]
        );
    }

    #[test]
    fn distribution_factor_branches() {
        // Deficit (u > 1): u + u·p; otherwise u·p.
        let df = filled(|out| distribution_factors(&[2.0, 0.5], &[0.25, 0.5], out));
        assert!(close(df[0], 2.0 + 2.0 * 0.25));
        assert!(close(df[1], 0.5 * 0.5));
    }

    #[test]
    fn shares_are_proportional_and_total() {
        let s = filled(|out| shares(&[15.0, 150.0], 40, &[0.5, 0.5], out));
        assert!(close(s.iter().sum::<f64>(), 40.0));
        assert!(close(s[0], 40.0 * 15.0 / 165.0));
    }

    #[test]
    fn shares_fall_back_to_weights_then_even() {
        let s = filled(|out| shares(&[0.0, 0.0], 10, &[0.75, 0.25], out));
        assert!(close(s[0], 7.5));
        let s = filled(|out| shares(&[0.0, 0.0], 10, &[0.0, 0.0], out));
        assert!(close(s[0], 5.0));
    }

    #[test]
    fn future_utilization_handles_zero_alloc() {
        assert!(close(future_utilization(100, 50), 2.0));
        assert!(future_utilization(5, 0).is_infinite());
    }

    #[test]
    fn reclaim_coefficient_matches_eq13() {
        // Single lender: p=0.5, u=7.142857, ū=2 → (0.5·7.142857 + 0)/2.
        let c = reclaim_coefficient(&[(0.5, 50.0 / 7.0, 2.0)], true);
        assert!(close(c, 0.5 * (50.0 / 7.0) / 2.0));
        // Low future utilization adds the (1-ū) term.
        let c = reclaim_coefficient(&[(0.5, 0.5, 0.25)], true);
        assert!(close(c, (0.5 * 1.0 + 0.75) / 2.0));
        // Ablation: future term dropped.
        let c = reclaim_coefficient(&[(0.5, 0.5, 0.25)], false);
        assert!(close(c, 0.25));
    }

    #[test]
    fn reclaim_coefficient_sums_lenders() {
        let c = reclaim_coefficient(&[(0.25, 1.0, 1.0), (0.25, 1.0, 1.0)], true);
        assert!(close(c, 0.25));
    }

    #[test]
    fn reclaimable_is_triple_bounded() {
        // Bounded by borrowed amount.
        assert_eq!(reclaimable(-5, 1.0, 50), 5);
        // Bounded by ⌊C·α⌋.
        assert_eq!(reclaimable(-100, 0.5, 51), 25);
        // Bounded by the allocation itself.
        assert_eq!(reclaimable(-100, 1.0, 30), 30);
    }
}
