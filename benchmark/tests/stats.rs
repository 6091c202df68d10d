//! Percentile selection and the quartile spread.

use adaptbf_benchmark::stats::{
    highest_supported_percentile, iqr_share, median, nearest_rank, quartiles,
};

#[test]
fn nearest_rank_is_the_smallest_value_covering_p_percent() {
    let v: Vec<u64> = (1..=10).collect();
    assert_eq!(nearest_rank(&v, 50.0), 5);
    assert_eq!(nearest_rank(&v, 90.0), 9);
    assert_eq!(nearest_rank(&v, 91.0), 10, "91 % of ten needs all ten");
    assert_eq!(nearest_rank(&v, 100.0), 10);
    assert_eq!(
        nearest_rank(&v, 0.1),
        1,
        "any positive share needs one sample"
    );
    // Never interpolates: the answer is always a sample.
    let odd = [3.0, 7.0, 100.0];
    assert_eq!(nearest_rank(&odd, 50.0), 7.0);
    assert_eq!(nearest_rank(&odd, 67.0), 100.0);
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    // p50 of 19 sits at rank 10: nine beyond — not enough.
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    // p90 of 100 sits at rank 90: ten beyond.
    assert_eq!(highest_supported_percentile(99), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(999), Some(90.0));
    assert_eq!(highest_supported_percentile(1_000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    assert_eq!(highest_supported_percentile(1_500_000), Some(99.99));
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
    assert_eq!(quartiles(&[10.0, 2.0, 7.0]), (2.0, 7.0, 10.0));
    // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    assert!((iqr_share(&v) - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5");
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}
