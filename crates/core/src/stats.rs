//! Latency summaries for the serving layer.
//!
//! The paper's argument is about *fixed per-operation overheads*; the
//! serving layer makes the same argument at request granularity, so its
//! benchmark output reports the latency distribution, not just a mean.
//!
//! A [`LatencySummary`] reads a mergeable log-linear [`Histogram`]:
//! every observation counted, ≤ 1/16 relative quantization error,
//! constant memory. The serve stack and loadgen both report through
//! one.

use osarch_telemetry::Histogram;

/// Summary of a latency distribution, in the sample unit (microseconds
/// by convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Observations the summary describes.
    pub count: u64,
    /// Samples the percentiles read. A histogram counts every
    /// observation, so this equals `count`.
    pub samples: u64,
    /// Whether the percentiles come from a subsample (`samples < count`),
    /// whose tail may under-report. Never true for a histogram.
    pub sampled: bool,
    /// Median (50th percentile).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencySummary {
    /// Summarize a log-linear histogram: every observation is counted
    /// (never `sampled`); percentiles carry the bucket quantization
    /// (≤ 1/16 relative error), and `max` is exact.
    #[must_use]
    pub fn from_histogram(hist: &Histogram) -> LatencySummary {
        LatencySummary {
            count: hist.count(),
            samples: hist.count(),
            sampled: false,
            p50: hist.value_at_percentile(50.0),
            p90: hist.value_at_percentile(90.0),
            p99: hist.value_at_percentile(99.0),
            p999: hist.value_at_percentile(99.9),
            max: hist.max(),
            mean: hist.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary_counts_every_observation() {
        let values: Vec<u64> = (1..=4000).collect();
        let full = LatencySummary::from_histogram(&Histogram::from_values(&values));
        assert!(!full.sampled);
        assert_eq!((full.count, full.samples), (4000, 4000));
        assert_eq!(full.max, 4000);
        // The exact nearest-rank p999 of 1..=4000 is 3996; the bucket
        // quantization may only round it up, by at most 1/16.
        let exact = 3996;
        assert!(full.p999 >= exact, "{} < {exact}", full.p999);
        assert!(
            full.p999 - exact <= exact / 16 + 1,
            "{} vs {exact}",
            full.p999
        );
        // The histogram mean is exact (sum and count are exact).
        assert!((full.mean - 2000.5).abs() < 1e-9);
    }
}
