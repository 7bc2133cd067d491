//! The benchmark's own statistics.

use perfbench::stats::{
    mean, median, paired_speedup, quantile, quartile_spread, quartiles, tail, tail_percentile,
};

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}

#[test]
fn tails_follow_the_rule_and_fall_back_to_the_median() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&hundred), (90.0, quantile(&hundred, 0.9)));
    let few = [5.0, 1.0, 3.0];
    assert_eq!(tail(&few), (50.0, 3.0));
}

#[test]
fn quantiles_interpolate_between_closest_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(median(&v), 2.5);
    assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    assert!(quantile(&[], 0.5).is_nan());
}

#[test]
fn speedup_is_the_ratio_of_means_over_paired_seeds() {
    let p1 = [10.0, 30.0, 20.0];
    let p2 = [5.0, 5.0, 20.0];
    assert_eq!(paired_speedup(&p1, &p2), Some(2.0));
    // The ratio of means, not the mean of per-seed ratios (which is 7/3).
    assert!((mean(&p1) / mean(&p2) - 2.0).abs() < 1e-12);
    assert_eq!(paired_speedup(&p1, &p2[..2]), None);
    assert_eq!(paired_speedup(&[], &[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's statistics.quantiles(values, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[1.0]), None);
    let seven = [10.0, 10.5, 9.0, 11.0, 12.5, 8.0, 10.2];
    assert_eq!(quartiles(&seven), Some([9.0, 10.2, 11.0]));
    assert_eq!(quartile_spread(&ten), Some(1.0));
    assert!((quartile_spread(&seven).unwrap() - 0.196_078_431_372_549_04).abs() < 1e-12);
}
