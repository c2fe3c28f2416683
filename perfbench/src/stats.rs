//! Order statistics over raw samples. Latencies are kept as raw samples,
//! never bucketed, so every reported percentile carries all its digits.

/// The `q`-th percentile (`0..=100`) of `samples`, interpolated linearly
/// between the two nearest ranks. Sorts in place; 0 for no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, q)
}

/// [`percentile`] over already-sorted samples.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `q`-th percentile of readings rounded down into bins, given as
/// `(lower edge, width, count)` in ascending order. Each bin's readings are
/// taken as spread evenly across it, so the percentile moves continuously
/// with the data instead of jumping from one bin edge to the next; 0 for
/// no readings.
#[must_use]
pub fn binned_percentile(bins: &[(f64, f64, u64)], q: f64) -> f64 {
    let total: u64 = bins.iter().map(|&(_, _, count)| count).sum();
    let target = q / 100.0 * total as f64;
    let mut below = 0.0;
    for &(lower, width, count) in bins {
        let count = count as f64;
        if count > 0.0 && below + count >= target {
            return lower + width * ((target - below) / count);
        }
        below += count;
    }
    bins.last().map_or(0.0, |&(lower, width, _)| lower + width)
}

/// [`binned_percentile`] of whole-microsecond readings (a reading `v`
/// stands for a time in `[v, v + 1)`).
#[must_use]
pub fn whole_us_percentile(readings: &[u64], q: f64) -> f64 {
    let mut sorted = readings.to_vec();
    sorted.sort_unstable();
    let mut bins: Vec<(f64, f64, u64)> = Vec::new();
    for value in sorted {
        match bins.last_mut() {
            Some(bin) if bin.0 == value as f64 => bin.2 += 1,
            _ => bins.push((value as f64, 1.0, 1)),
        }
    }
    binned_percentile(&bins, q)
}

/// Nanosecond samples as sorted microseconds.
#[must_use]
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1000.0).collect();
    us.sort_by(f64::total_cmp);
    us
}

/// The three quartiles of `samples` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// those computed from the same values in Python.
#[must_use]
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut samples = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut samples, 0.0), 1.0);
        assert_eq!(percentile(&mut samples, 100.0), 4.0);
        assert!((percentile(&mut samples, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn binned_percentiles_spread_each_bin_evenly() {
        // Ten readings: four of 1 µs, six of 2 µs. The median lies a sixth
        // of the way into the 2 µs bin.
        let readings = [1, 1, 1, 1, 2, 2, 2, 2, 2, 2];
        assert!((whole_us_percentile(&readings, 50.0) - (2.0 + 1.0 / 6.0)).abs() < 1e-12);
        assert_eq!(whole_us_percentile(&readings, 0.0), 1.0);
        assert_eq!(whole_us_percentile(&readings, 100.0), 3.0);
        assert_eq!(whole_us_percentile(&[], 50.0), 0.0);
        // A 16-wide histogram bucket holding every reading.
        assert_eq!(binned_percentile(&[(64.0, 16.0, 8)], 25.0), 68.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }
}
