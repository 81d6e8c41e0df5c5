//! Order statistics with the benchmark's percentile discipline: a
//! percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it, so a tail figure is always a measurement, never a bucket
//! bound or a lone outlier.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A percentile together with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or an error
/// naming the sample count when fewer than [`MIN_TAIL`] samples lie beyond
/// it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it; everything after that index lies beyond the percentile.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{} needs at least {MIN_TAIL} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median of a non-empty sample (the mean of the middle pair for an
/// even count). Used for per-run repeats such as set-up times, where the
/// tail-count rule does not apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The median, or 0 for an empty sample (a layer the workload never
/// touched).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile(&ramp(999), 0.99).is_err());
        let p = percentile(&ramp(1000), 0.99).expect("1000 samples leave 10 beyond p99");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let err = percentile(&ramp(99), 0.9).expect_err("99 samples leave 9 beyond p90");
        assert!(err.contains("99 samples"), "{err}");
        assert_eq!(percentile(&ramp(100), 0.9).map(|p| p.value), Ok(90.0));
    }

    #[test]
    fn p50_needs_twenty_samples_and_ignores_order() {
        assert!(percentile(&ramp(19), 0.5).is_err());
        let mut shuffled = ramp(20);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5).map(|p| p.value), Ok(10.0));
    }

    #[test]
    fn empty_sample_is_an_error_not_a_panic() {
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_or_zero(&[]), 0.0);
    }
}
