//! Integer token grants with long-term fractional fairness (Eq 21–25).
//!
//! Every allocation step produces real-valued raw shares, but TBF rules
//! take whole tokens. Each job carries a fractional remainder `ρ_x`
//! between steps: the step floors `raw + ρ` (Eq 23), stores the new
//! fraction (Eq 24), and then applies the paper's largest-remainder
//! fix-up so the step's integer total matches its budget exactly — one
//! token is added to the job with the largest remainder (leftover case) or
//! removed from the job with the smallest remainder (excess case) until the
//! totals agree.
//!
//! *Fidelity note (DESIGN.md §3.8):* the paper says "reduce … for the job
//! with the largest remainder first" for the excess case, which is the
//! method's name rather than a literal instruction — decrementing the
//! largest remainder would starve the job owed the most. We decrement
//! smallest-remainder-first, the standard largest-remainder-method
//! resolution. Invariants (property-tested): grants are non-negative and
//! sum exactly to the target; fractional mass is conserved
//! (`Σ raw + Σ carry_in = Σ grants + Σ carry_out`); each floor-stage
//! remainder lies in `(-1, 1)` and a fix-up shifts one job's remainder by
//! at most ±1, which the next call settles.

/// Outcome of one integerization pass. Reusable: [`integerize`] writes
/// into it, so a caller that runs several passes keeps one.
#[derive(Debug, Clone, Default)]
pub struct Integerized {
    /// Whole-token grant per job (parallel to the input slices).
    pub grants: Vec<u64>,
    /// How many ±1 fix-ups were applied to meet the target.
    pub adjustments: u64,
    /// The fix-up's visiting order as `(remainder key, job)` (scratch).
    order: Vec<(u64, usize)>,
    /// Comparisons the leftover selection made (the O(n) test's counter).
    #[cfg(test)]
    compares: u64,
}

/// Convert real-valued raw shares into whole-token grants summing exactly
/// to `target`, carrying fractional remainders per job.
///
/// `raw[i]` is job *i*'s real share for this step; `carry[i]` is its
/// remainder from previous steps (updated in place); the grants land in
/// `out`. Requires `target ≈ Σ raw` (within the slack the carries
/// provide); panics in debug builds if the discrepancy exceeds the number
/// of jobs, which would mean the caller budgeted inconsistently.
pub fn integerize(raw: &[f64], carry: &mut [f64], target: u64, out: &mut Integerized) {
    assert_eq!(raw.len(), carry.len(), "raw/carry length mismatch");
    let n = raw.len();
    let Integerized {
        grants,
        adjustments,
        order,
        ..
    } = out;
    grants.clear();
    *adjustments = 0;
    if n == 0 {
        assert_eq!(target, 0, "cannot distribute {target} tokens to zero jobs");
        return;
    }
    debug_assert!(
        raw.iter().all(|v| v.is_finite() && *v >= 0.0),
        "raw shares must be non-negative and finite: {raw:?}"
    );

    // Eq (23)/(24): floor(raw + carry), keep the fraction.
    for i in 0..n {
        let v = raw[i] + carry[i];
        // carry ∈ (-1, 1) and raw ≥ 0, so v > -1; a negative v floors to 0
        // and stays owed through the carry.
        let f = v.floor().max(0.0);
        grants.push(f as u64);
        carry[i] = v - f;
    }

    // Largest-remainder fix-up to meet the step budget exactly: rounds
    // over the jobs in remainder order, each touching each job at most
    // once; with consistent budgets a single round suffices.
    let mut total: u64 = grants.iter().sum();
    order.clear();
    if total < target {
        // `m` leftover tokens are ⌊m/n⌋ rounds plus one for the first
        // `m mod n` jobs in descending remainder (index ascending on ties)
        // — a set an O(n) selection finds. Each job's carry still drops by
        // 1.0 once per token, so the floats are those of a sorted walk.
        let m = target - total;
        let (rounds, extra) = (m / n as u64, (m % n as u64) as usize);
        order.extend((0..n).map(|i| (descending(carry[i]), i)));
        if extra > 0 {
            order.select_nth_unstable_by(extra - 1, |a, b| {
                #[cfg(test)]
                {
                    out.compares += 1;
                }
                a.cmp(b)
            });
        }
        for (k, &(_, i)) in order.iter().enumerate() {
            for _ in 0..rounds + u64::from(k < extra) {
                grants[i] += 1;
                carry[i] -= 1.0;
            }
        }
        *adjustments = m;
    } else if total > target {
        // Ascending remainder (index ascending on ties) among jobs that can
        // afford a decrement.
        order.extend((0..n).map(|i| (!descending(carry[i]), i)));
        order.sort_unstable();
        let mut k = 0;
        while total > target {
            let (_, i) = order[k % n];
            k += 1;
            if grants[i] == 0 {
                continue;
            }
            grants[i] -= 1;
            carry[i] += 1.0;
            total -= 1;
            *adjustments += 1;
        }
    }
    debug_assert!(
        *adjustments as usize <= n + 1,
        "excessive fix-ups ({adjustments}) indicate inconsistent budgeting"
    );
}

/// A key whose unsigned order is `x`'s descending order: IEEE bits with
/// every bit but the sign flipped for `x ≥ 0`, none for `x < 0` (`-0.0`
/// is folded into `0.0` first, as `partial_cmp` has them equal).
fn descending(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    bits ^ (!((bits as i64 >> 63) as u64) >> 1)
}

/// Floor-only variant used when remainder fairness is disabled (ablation):
/// fractions are simply lost, totals may undershoot the budget.
pub fn floor_only(raw: &[f64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(raw.iter().map(|v| v.floor().max(0.0) as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass into a result that held a previous pass's values.
    fn integerized(raw: &[f64], carry: &mut [f64], target: u64) -> Integerized {
        let mut out = Integerized::default();
        integerize(&[0.5], &mut [0.9], 1, &mut out);
        integerize(raw, carry, target, &mut out);
        out
    }

    #[test]
    fn exact_integers_pass_through() {
        let mut carry = vec![0.0; 3];
        let out = integerized(&[10.0, 30.0, 60.0], &mut carry, 100);
        assert_eq!(out.grants, vec![10, 30, 60]);
        assert_eq!(out.adjustments, 0);
        assert!(carry.iter().all(|c| c.abs() < 1e-9));
    }

    #[test]
    fn leftover_goes_to_largest_remainder() {
        let mut carry = vec![0.0; 3];
        // Raw: 3.6 + 36.3 + 0.1 = 40 → floors 3+36+0=39, leftover 1 → job 0.
        let out = integerized(&[3.6, 36.3, 0.1], &mut carry, 40);
        assert_eq!(out.grants, vec![4, 36, 0]);
        assert!((carry[0] - (-0.4)).abs() < 1e-9);
        assert!((carry[1] - 0.3).abs() < 1e-9);
        assert!((carry[2] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn carry_pays_debts_across_calls() {
        let mut carry = vec![0.0; 2];
        // Two jobs owed 0.5 each period; target alternates who gets the
        // extra token, long-run split is even.
        let mut totals = [0u64; 2];
        for _ in 0..10 {
            let out = integerized(&[0.5, 0.5], &mut carry, 1);
            totals[0] += out.grants[0];
            totals[1] += out.grants[1];
        }
        assert_eq!(totals[0] + totals[1], 10);
        assert_eq!(totals[0], 5, "long-run fairness: {totals:?}");
    }

    #[test]
    fn excess_taken_from_smallest_remainder() {
        // Carries push the floor total over the target.
        let mut carry = vec![0.9, 0.8];
        let raw = [1.2, 1.3];
        let mass_in: f64 = raw.iter().sum::<f64>() + carry.iter().sum::<f64>();
        let out = integerized(&raw, &mut carry, 2);
        // v = [2.1, 2.1] → floors [2, 2] = 4 > 2 → two removals, smallest
        // remainder first (job 1 at 0.0999…, then job 0 at 0.1).
        assert_eq!(out.grants, vec![1, 1]);
        assert_eq!(out.adjustments, 2);
        // Fractional mass is conserved exactly.
        let mass_out: f64 = out.grants.iter().sum::<u64>() as f64 + carry.iter().sum::<f64>();
        assert!((mass_in - mass_out).abs() < 1e-9);
        // Over-granted carries (here ≈1.1) are settled by the next call.
        let out2 = integerized(&[0.0, 0.0], &mut carry, 2);
        assert_eq!(out2.grants, vec![1, 1]);
        assert!(
            carry.iter().all(|c| c.abs() < 1.0),
            "settled carries: {carry:?}"
        );
    }

    #[test]
    fn zero_jobs_zero_target() {
        let mut carry: Vec<f64> = vec![];
        let out = integerized(&[], &mut carry, 0);
        assert!(out.grants.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero jobs")]
    fn zero_jobs_nonzero_target_panics() {
        let mut carry: Vec<f64> = vec![];
        let _ = integerized(&[], &mut carry, 5);
    }

    #[test]
    fn negative_carry_defers_grant() {
        // Job 0 owes a token from an earlier adjustment.
        let mut carry = vec![-0.7, 0.0];
        let out = integerized(&[1.0, 1.0], &mut carry, 2);
        // v = [0.3, 1.0] → floors [0, 1], leftover 1 → largest remainder is
        // job 0 (0.3 vs 0.0) → grants [1, 1].
        assert_eq!(out.grants, vec![1, 1]);
        assert!((carry[0] - (-0.7)).abs() < 1e-9);
    }

    #[test]
    fn floor_only_loses_fractions() {
        let mut out = vec![7];
        floor_only(&[3.9, 0.5, 2.0], &mut out);
        assert_eq!(out, vec![3, 0, 2]);
    }

    #[test]
    fn single_job_gets_everything() {
        let mut carry = vec![0.0];
        let out = integerized(&[99.7], &mut carry, 100);
        assert_eq!(out.grants, vec![100]);
        assert!((carry[0] - (-0.3)).abs() < 1e-9);
    }

    /// The fix-up as it was written first, two comparison sorts: the
    /// reference the keyed selection and sort must match grant for grant
    /// and carry bit for bit.
    fn by_sort(raw: &[f64], carry: &mut [f64], target: u64) -> (Vec<u64>, u64) {
        let n = raw.len();
        let mut grants = Vec::new();
        for i in 0..n {
            let v = raw[i] + carry[i];
            let f = v.floor().max(0.0);
            grants.push(f as u64);
            carry[i] = v - f;
        }
        let mut total: u64 = grants.iter().sum();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            carry[b]
                .partial_cmp(&carry[a])
                .unwrap()
                .then_with(|| a.cmp(&b))
        });
        let (mut k, mut adjustments) = (0, 0);
        while total < target {
            let i = order[k % n];
            grants[i] += 1;
            carry[i] -= 1.0;
            total += 1;
            adjustments += 1;
            k += 1;
        }
        order.sort_by(|&a, &b| {
            carry[a]
                .partial_cmp(&carry[b])
                .unwrap()
                .then_with(|| a.cmp(&b))
        });
        while total > target {
            let i = order[k % n];
            k += 1;
            if grants[i] == 0 {
                continue;
            }
            grants[i] -= 1;
            carry[i] += 1.0;
            total -= 1;
            adjustments += 1;
        }
        (grants, adjustments)
    }

    /// A seeded xorshift stream.
    fn stream(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    #[test]
    fn selection_matches_the_sort_on_seeded_inputs() {
        let mut next = stream(0x9e37_79b9_7f4a_7c15);
        let mut out = Integerized::default();
        for case in 0..3000 {
            let n = 1 + next(40) as usize;
            // Coarse quarters make ties; carries span (-1, 1).
            let raw: Vec<f64> = (0..n).map(|_| next(40) as f64 / 4.0).collect();
            let carry: Vec<f64> = (0..n)
                .map(|_| match next(10) {
                    0 => -0.0,
                    1 => 0.0,
                    k => (k as f64 - 5.5) / 4.0,
                })
                .collect();
            let floors: u64 = (0..n)
                .map(|i| (raw[i] + carry[i]).floor().max(0.0) as u64)
                .sum();
            // Leftovers of 0..=n+1 (m ≥ n included), and some excess.
            // Zeros of both signs tie with each other.
            let target = (floors + next(n as u64 + 2)).saturating_sub(next(3));
            let (mut fast, mut slow) = (carry.clone(), carry.clone());
            integerize(&raw, &mut fast, target, &mut out);
            let (grants, adjustments) = by_sort(&raw, &mut slow, target);
            assert_eq!(
                (&out.grants, out.adjustments),
                (&grants, adjustments),
                "{case}"
            );
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "case {case}");
            assert_eq!(out.grants.iter().sum::<u64>(), target, "case {case}");
        }
    }

    #[test]
    fn the_leftover_selection_is_linear() {
        let mut next = stream(7);
        let n = 1 << 14;
        let raw: Vec<f64> = (0..n).map(|_| next(1 << 20) as f64 / 1024.0).collect();
        let floors: u64 = raw.iter().map(|v| v.floor() as u64).sum();
        let mut out = Integerized::default();
        // The median rank is the selection's hardest index.
        integerize(&raw, &mut vec![0.0; n], floors + n as u64 / 2, &mut out);
        let per_job = out.compares as f64 / n as f64;
        // A comparison sort needs log2(n!) / n ≈ 12.6 per job here.
        assert!(per_job < 4.0, "{per_job:.2} comparisons per job");
    }
}
