//! Order statistics over benchmark samples.
//!
//! Every timing the benchmark reports is a median over many samples,
//! with the sample count and p90 beside it (Hoefler & Belli, SC'15):
//! single timings on a shared 2-core host move by tens of percent.

/// Quantile `q` (0..=1) of `values`, linearly interpolated between the
/// two nearest order statistics (NumPy's default method).
///
/// Panics on an empty slice: every caller takes at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median, p90 and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p90: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        Self {
            median: median(values),
            p90: quantile(values, 0.9),
            samples: values.len(),
        }
    }
}

/// Median of the per-pair ratios `num[i] / den[i]`.
///
/// Pairs are taken back to back, so an interference episode inflates
/// both halves of a pair and mostly cancels in its ratio; the ratio of
/// two separate medians would not cancel it.
pub fn paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len(), "unpaired samples");
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_interpolates_between_order_statistics() {
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        // Position 0.9 * 10 = 9 is exactly the tenth value.
        assert_eq!(quantile(&values, 0.9), 10.0);
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        // Position 0.9 * 9 = 8.1: a tenth of the way from 9 to 10.
        assert!((quantile(&values, 0.9) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_the_sample_count() {
        let values = [0.5, 0.1, 0.3, 0.2, 0.4];
        let s = Summary::of(&values);
        assert_eq!(s.samples, 5);
        assert_eq!(s.median, 0.3);
        assert!((s.p90 - 0.46).abs() < 1e-12);
    }

    #[test]
    fn paired_ratio_is_the_median_of_ratios_not_a_ratio_of_medians() {
        // The third pair ran under interference: both halves doubled.
        let seq = [2.0, 2.0, 4.0];
        let par = [1.0, 1.0, 2.0];
        assert_eq!(paired_ratio(&seq, &par), 2.0);
        let seq = [3.0, 1.0, 2.0, 10.0];
        let par = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(paired_ratio(&seq, &par), 2.5);
    }

    #[test]
    #[should_panic(expected = "unpaired")]
    fn paired_ratio_rejects_unpaired_samples() {
        paired_ratio(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_is_a_bug() {
        median(&[]);
    }
}
