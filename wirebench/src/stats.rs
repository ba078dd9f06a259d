//! Order statistics with their sample support.

/// A percentile read off a sample, with the sample count and how many
/// samples lie strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Samples a tail percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `values`, or `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&v| v <= value);
    Some(Percentile {
        value,
        samples: sorted.len(),
        beyond,
    })
}

/// The `q`-quantile when at least [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(values: &[f64], q: f64) -> Option<Percentile> {
    percentile(values, q).filter(|p| p.beyond >= MIN_BEYOND)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = supported_percentile(&thousand, 0.99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        assert!(supported_percentile(&few, 0.99).is_none());
        assert_eq!(percentile(&few, 0.5).unwrap().value, 250.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
