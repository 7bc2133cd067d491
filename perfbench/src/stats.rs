//! The benchmark's own statistics: means, interpolated quantiles, the tail
//! percentile rule, the paired speedup and the quartile spread.

/// Arithmetic mean; `NaN` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quantile `q` in `[0, 1]` by linear interpolation between closest ranks
/// (numpy's default); `NaN` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median (`quantile(values, 0.5)`).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentiles the tail rule chooses from, highest first, in per mille.
const TAIL_PER_MILLE: [usize; 4] = [999, 990, 900, 500];

/// The highest of p99.9, p99, p90 and p50 that has at least ten of `n`
/// samples beyond it, or `None` when not even the median has.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PER_MILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// The tail of `values` under [`tail_percentile`]: `(percentile, value)`.
/// Falls back to the median when there are fewer than 20 samples.
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = tail_percentile(values.len()).unwrap_or(50.0);
    (p, quantile(values, p / 100.0))
}

/// The paper's speedup over paired seeds: mean single-walk time over mean
/// `p`-walk time.  `None` unless both sides hold the same, nonzero number
/// of samples.
#[must_use]
pub fn paired_speedup(p1: &[f64], p2: &[f64]) -> Option<f64> {
    (p1.len() == p2.len() && !p1.is_empty()).then(|| mean(p1) / mean(p2))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).  `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median
/// (Python's `statistics.median`): the run-to-run spread the benchmark's
/// bounds are checked against.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values))
}
