//! Percentiles, and the rule for which percentiles a sample supports.

/// Percentile `q` (0..=1) of `values` by nearest rank. `values` need
/// not be sorted; an empty sample gives `None`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over an already ascending sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Samples strictly beyond percentile `q` in a sample of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// A percentile is reported only when at least ten samples lie beyond
/// it; otherwise it is one or two outliers wearing a name.
pub fn supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= 10
}

/// A latency sample summarised for the report: median, p99, and the
/// counts that say whether p99 means anything.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarise; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 0.5)?,
            p99: percentile_sorted(&sorted, 0.99)?,
        })
    }

    /// The sample-count note printed beside a timing.
    pub fn note(&self) -> String {
        let tail = beyond(self.n, 0.99);
        if supported(self.n, 0.99) {
            format!("n={}, {tail} beyond p99", self.n)
        } else {
            format!("n={}, only {tail} beyond p99: p99 unsupported", self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        let s = Summary::of(&(0..500).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(s.note().contains("unsupported"));
        let s = Summary::of(&(0..2000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.note(), "n=2000, 20 beyond p99");
    }
}
