//! Order statistics the harness reports: median, nearest-rank
//! percentiles, the "highest percentile with ten samples beyond it" rule,
//! and the quartile spread the acceptance checks use.

/// Sort a sample in place (NaN-free by construction: every value is a
/// measured duration, count or ratio).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample; the mean of the two middle values when
/// the count is even. Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of a *sorted* sample: the smallest value with
/// at least `p` percent of the sample at or below it (rank `⌈p·n/100⌉`,
/// 1-based). `p` in `(0, 100]`.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank_of(p, sorted.len()) - 1]
}

/// The 1-based nearest rank `⌈p·n/100⌉`, in `1..=n`. The product is nudged
/// down before rounding up so that `99.9 % × 10 000` is 9990 and not, by
/// one ulp of floating point, 9991.
fn rank_of(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// The percentiles the harness is willing to report, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest rung of [`LADDER`] whose nearest-rank value still has at
/// least ten samples strictly beyond its rank, or `None` when even the
/// median has not (fewer than twenty samples): a percentile resting on
/// fewer than ten observations of the tail is an anecdote.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().rfind(|&p| n >= rank_of(p, n) + 10)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) gives them — the acceptance check
/// computes spreads with that function, so `--aa` must too.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| {
        // j = i·(n+1)/4 clamped to [1, n−1]; interpolate v[j−1]..v[j].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark contract bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}
